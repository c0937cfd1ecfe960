// Storage-conformance suite: every behavioral contract of Relation's
// columnar storage through the public API -- insertion/dedup results,
// iteration order, lookup row-id sets, span reads, old-limit watermark
// snapshots, erasure semantics, index-view invalidation, and the id
// views (columns, FindRowIds, sorted keys) against the Value views. Any
// divergence that slips past this suite would surface as a cross-engine
// mismatch in the differential fuzzer, so keep this suite the first,
// cheapest line of defense.

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "eval/database.h"
#include "eval/relation.h"
#include "gtest/gtest.h"
#include "util/interning.h"

namespace datalog {
namespace {

Tuple T2(std::int64_t a, std::int64_t b) {
  return {Value::Int(a), Value::Int(b)};
}

/// The dictionary ids of `tuple`'s values, without interning: a value
/// the dictionary never saw maps to kInvalidId, which no stored row
/// holds. Index views and FindRowIdsIn probe by id only.
std::vector<std::uint32_t> Ids(const Tuple& tuple) {
  std::vector<std::uint32_t> ids;
  for (const Value& v : tuple) {
    ids.push_back(ValueDictionary::Global().LookupId(v));
  }
  return ids;
}
std::uint32_t Id(std::int64_t v) {
  return ValueDictionary::Global().LookupId(Value::Int(v));
}

/// A deterministic relation of `n` distinct pairs with repeated first
/// columns, so single-column indexes have multi-row postings.
Relation PairRelation(std::int64_t n) {
  Relation rel(2);
  for (std::int64_t i = 0; i < n; ++i) rel.Insert(T2(i % 7, i * 3 + 1));
  return rel;
}

TEST(RelationConformanceTest, InsertDeduplicatesAndCounts) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T2(1, 2)));
  EXPECT_FALSE(rel.Insert(T2(1, 2)));
  EXPECT_TRUE(rel.Insert(T2(2, 1)));
  EXPECT_FALSE(rel.Insert(T2(2, 1)));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(T2(1, 2)));
  EXPECT_TRUE(rel.Contains(T2(2, 1)));
  EXPECT_FALSE(rel.Contains(T2(2, 2)));
}

TEST(RelationConformanceTest, IterationFollowsInsertionOrder) {
  Relation rel(2);
  rel.Insert(T2(5, 6));
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(1, 2));  // duplicate: must not disturb the order
  ASSERT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.row(0), T2(5, 6));
  EXPECT_EQ(rel.row(1), T2(1, 2));
  EXPECT_EQ(rel.row(2), T2(3, 4));
}

TEST(RelationConformanceTest, MixedValueKindsStayDistinct) {
  // Int(7) and Symbol(7) share a payload; the dictionary (and the row
  // set) must keep the kinds apart.
  Relation rel(1);
  EXPECT_TRUE(rel.Insert({Value::Int(7)}));
  EXPECT_TRUE(rel.Insert({Value::Symbol(7)}));
  EXPECT_FALSE(rel.Insert({Value::Int(7)}));
  EXPECT_TRUE(rel.Contains({Value::Int(7)}));
  EXPECT_TRUE(rel.Contains({Value::Symbol(7)}));
  EXPECT_FALSE(rel.Contains({Value::Frozen(7)}));
}

TEST(RelationConformanceTest, LookupReturnsRowIdsInInsertionOrder) {
  Relation rel(2);
  rel.Insert(T2(1, 9));
  rel.Insert(T2(2, 9));
  rel.Insert(T2(1, 8));
  rel.Insert(T2(1, 7));
  const std::vector<std::uint32_t>& hits = rel.Lookup(0, Value::Int(1));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 2u);
  EXPECT_EQ(hits[2], 3u);
  EXPECT_TRUE(rel.Lookup(0, Value::Int(99)).empty());
}

TEST(RelationConformanceTest, MultiColumnLookupAgreesWithScan) {
  Relation rel(3);
  rel.Insert({Value::Int(1), Value::Int(2), Value::Int(3)});
  rel.Insert({Value::Int(1), Value::Int(2), Value::Int(4)});
  rel.Insert({Value::Int(1), Value::Int(5), Value::Int(3)});
  const auto& hits = rel.Lookup({0, 1}, {Value::Int(1), Value::Int(2)});
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
  const auto& one = rel.Lookup({1, 2}, {Value::Int(5), Value::Int(3)});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 2u);
}

TEST(RelationConformanceTest, LookupKeyNeverInsertedAnywhere) {
  // A probe key absent from the whole process (not just this relation)
  // exercises the unknown-dictionary-id early out.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_TRUE(rel.Lookup(0, Value::Int(123456789)).empty());
  EXPECT_FALSE(rel.Contains(T2(123456789, 987654321)));
}

TEST(RelationConformanceTest, IndexExtendsAcrossLaterInserts) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  EXPECT_EQ(rel.Lookup(0, Value::Int(1)).size(), 1u);
  rel.Insert(T2(1, 3));  // appended after the index was built
  EXPECT_EQ(rel.Lookup(0, Value::Int(1)).size(), 2u);
}

TEST(RelationConformanceTest, OldLimitWatermarkSnapshotsStaleRows) {
  // The semi-naive contract: row ids below a previously taken size()
  // keep identifying the same tuples after later appends.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  const std::size_t watermark = rel.size();
  rel.Insert(T2(5, 6));
  rel.Insert(T2(1, 7));
  for (std::size_t i = 0; i < watermark; ++i) {
    EXPECT_TRUE(rel.Contains(rel.row(i)));
  }
  EXPECT_EQ(rel.row(0), T2(1, 2));
  EXPECT_EQ(rel.row(1), T2(3, 4));
  // Old-snapshot filtering as compiled plans do it: postings for key 1
  // split across the watermark.
  const auto& hits = rel.Lookup(0, Value::Int(1));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_LT(hits[0], watermark);
  EXPECT_GE(hits[1], watermark);
}

TEST(RelationConformanceTest, EraseAllRemovesAndCompacts) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(5, 6));
  EXPECT_EQ(rel.EraseAll({T2(3, 4), T2(7, 8)}), 1u);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.row(0), T2(1, 2));
  EXPECT_EQ(rel.row(1), T2(5, 6));
  EXPECT_FALSE(rel.Contains(T2(3, 4)));
  EXPECT_TRUE(rel.Insert(T2(3, 4)));  // re-insertable after erasure
  EXPECT_EQ(rel.size(), 3u);
}

TEST(RelationConformanceTest, EraseAllRebuildsIndexesOnNextLookup) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  rel.Insert(T2(1, 5));
  EXPECT_EQ(rel.Lookup(0, Value::Int(1)).size(), 2u);
  EXPECT_EQ(rel.Lookup({0, 1}, T2(3, 4)).size(), 1u);
  EXPECT_EQ(rel.EraseAll({T2(1, 2)}), 1u);
  // Row ids shifted down; the rebuilt index must reflect that.
  const auto& hits = rel.Lookup(0, Value::Int(1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);
  const auto& multi = rel.Lookup({0, 1}, T2(3, 4));
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(multi[0], 0u);
}

TEST(RelationConformanceTest, EraseAllInvalidatesOutstandingViews) {
  // Regression test: EraseAll used to drop the index map nodes
  // themselves, leaving previously prepared views dangling into freed
  // memory (a use-after-free under ASan). The contract is that a stale
  // view stays dereferenceable and finds nothing.
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(1, 3));
  rel.Insert(T2(4, 5));
  Relation::SingleIndexView single = rel.PrepareSingleIndex(0);
  Relation::MultiIndexView multi = rel.PrepareIndex({0, 1});
  ASSERT_EQ(single.FindId(Id(1)).size(), 2u);
  ASSERT_EQ(multi.FindIds(Ids(T2(4, 5))).size(), 1u);
  EXPECT_EQ(rel.EraseAll({T2(1, 2)}), 1u);
  EXPECT_TRUE(single.FindId(Id(1)).empty());
  EXPECT_TRUE(single.FindId(Id(4)).empty());
  EXPECT_TRUE(multi.FindIds(Ids(T2(4, 5))).empty());
  // Fresh views see the compacted rows again.
  EXPECT_EQ(rel.PrepareSingleIndex(0).FindId(Id(1)).size(), 1u);
  EXPECT_EQ(rel.PrepareIndex({0, 1}).FindIds(Ids(T2(4, 5))).size(), 1u);
}

TEST(RelationConformanceTest, PreparedViewsAgreeWithLookup) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(2, 2));
  rel.Insert(T2(1, 4));
  Relation::SingleIndexView single = rel.PrepareSingleIndex(1);
  EXPECT_EQ(single.FindId(Id(2)), rel.Lookup(1, Value::Int(2)));
  Relation::MultiIndexView multi = rel.PrepareIndex({0, 1});
  EXPECT_EQ(multi.FindIds(Ids(T2(1, 4))), rel.Lookup({0, 1}, T2(1, 4)));
  EXPECT_TRUE(multi.FindIds(Ids(T2(9, 9))).empty());
  // An id no stored value has finds nothing, kInvalidId included.
  EXPECT_TRUE(single.FindId(ValueDictionary::kInvalidId).empty());
  EXPECT_TRUE(
      multi.FindIds({Id(1), ValueDictionary::kInvalidId}).empty());
}

TEST(RelationConformanceTest, DegenerateEmptyColumnIndexMapsAllRows) {
  // Zero bound columns: the empty key indexes every row (the compiled
  // matcher's zero-arity old-snapshot probe relies on this).
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  Relation::MultiIndexView view = rel.PrepareIndex({});
  const auto& all = view.FindIds({});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], 0u);
  EXPECT_EQ(all[1], 1u);
}

TEST(RelationConformanceTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  EXPECT_EQ(rel.EraseAll({Tuple{}}), 1u);
  EXPECT_TRUE(rel.empty());
  EXPECT_FALSE(rel.Contains(Tuple{}));
}

TEST(RelationConformanceTest, IdsRoundTripThroughTheValueApi) {
  // Feed the id row of a tuple in through InsertIdRows and observe the
  // same set through the Value API and ContainsIds.
  ValueDictionary& dict = ValueDictionary::Global();
  std::vector<std::uint32_t> ids;
  dict.InternRow(T2(41, 42), &ids);
  Relation rel(2);
  EXPECT_EQ(rel.InsertIdRows(IdRowBuffer{{ids.begin(), ids.end()}, 1}), 1u);
  EXPECT_EQ(rel.InsertIdRows(IdRowBuffer{{ids.begin(), ids.end()}, 1}), 0u);
  EXPECT_TRUE(rel.Contains(T2(41, 42)));
  EXPECT_TRUE(rel.ContainsIds(ids));
  EXPECT_EQ(rel.row(0), T2(41, 42));
  std::vector<std::uint32_t> other;
  dict.InternRow(T2(42, 41), &other);
  EXPECT_FALSE(rel.ContainsIds(other));
}

TEST(RelationConformanceTest, ColumnViewMirrorsRows) {
  Relation rel(2);
  rel.Insert(T2(1, 2));
  rel.Insert(T2(3, 4));
  ValueDictionary& dict = ValueDictionary::Global();
  for (std::size_t i = 0; i < rel.size(); ++i) {
    for (int c = 0; c < rel.arity(); ++c) {
      EXPECT_EQ(dict.Resolve(rel.column(c)[i]),
                rel.row(i)[static_cast<std::size_t>(c)]);
    }
  }
}

TEST(RelationConformanceTest, RejectsRowsOfTheWrongWidth) {
  // Regression test: a row wider than the arity used to be read past the
  // end of the column array by the dedup table's equality check (a
  // heap-buffer-overflow under ASan on the second insert). Every insert
  // entry now rejects it and leaves the relation untouched.
  Relation rel(1);
  EXPECT_THROW(rel.Insert(T2(1, 2)), std::invalid_argument);
  EXPECT_THROW(rel.Insert(T2(1, 2)), std::invalid_argument);
  EXPECT_THROW(rel.Insert(Tuple{}), std::invalid_argument);
  std::vector<std::uint32_t> ids;
  ValueDictionary::Global().InternRow(T2(1, 2), &ids);
  EXPECT_THROW(rel.InsertIdRows(IdRowBuffer{{ids.begin(), ids.end()}, 1}),
               std::invalid_argument);
  const Relation wide = PairRelation(3);
  EXPECT_THROW(rel.AddRowRange(wide, 0, wide.size()), std::invalid_argument);
  EXPECT_TRUE(rel.empty());
  // Probes of another width are not errors: no such row is stored.
  EXPECT_FALSE(rel.Contains(T2(1, 2)));
  EXPECT_FALSE(rel.ContainsIds(ids));
  EXPECT_EQ(rel.FindRow(T2(1, 2)), Relation::kNoRow);
  EXPECT_TRUE(rel.Insert(Tuple{Value::Int(1)}));
  EXPECT_EQ(rel.size(), 1u);
  // Database::AddFact reaches the same check.
  auto symbols = std::make_shared<SymbolTable>();
  const PredicateId p = symbols->InternPredicate("p", 1).value();
  Database db(symbols);
  EXPECT_THROW(db.AddFact(p, T2(1, 2)), std::invalid_argument);
  EXPECT_EQ(db.NumFacts(), 0u);
}

TEST(RelationConformanceTest, AddRowRangeRejectsARangePastTheSource) {
  // Regression test: a range ending past the source's last row used to
  // be copied anyway, reading past the end of the source's columns (a
  // heap-buffer-overflow under ASan). It now throws and copies nothing.
  const Relation src = PairRelation(2);
  Relation dst = PairRelation(5);  // non-empty: the row-by-row path
  Relation empty(2);               // the bulk copy's path
  EXPECT_THROW(dst.AddRowRange(src, 0, 40), std::invalid_argument);
  EXPECT_THROW(dst.AddRowRange(src, 1, 3), std::invalid_argument);
  EXPECT_THROW(empty.AddRowRange(src, 0, 3), std::invalid_argument);
  EXPECT_EQ(dst.size(), 5u);
  EXPECT_TRUE(empty.empty());
  // An empty or reversed range stays a no-op wherever it lies.
  EXPECT_EQ(dst.AddRowRange(src, 40, 40), 0u);
  EXPECT_EQ(dst.AddRowRange(src, 50, 40), 0u);
  EXPECT_EQ(empty.AddRowRange(src, 0, src.size()), src.size());
  // Database::AddRowRange reaches the same check.
  auto symbols = std::make_shared<SymbolTable>();
  const PredicateId p = symbols->InternPredicate("p", 2).value();
  Database db(symbols);
  EXPECT_THROW(db.AddRowRange(p, src, 0, 40), std::invalid_argument);
  EXPECT_EQ(db.NumFacts(), 0u);
  EXPECT_EQ(db.AddRowRange(p, src, 0, src.size()), src.size());
}

TEST(RelationConformanceTest, RowViewsReadInsertionOrderAcrossLaterInserts) {
  Relation rel(2);
  rel.Insert(T2(5, 6));
  rel.Insert(T2(1, 2));
  const RowRef first = rel.row(0);
  const RowRef second = rel.row(1);
  // Enough later inserts to reallocate every piece of row storage.
  for (std::int64_t i = 0; i < 1000; ++i) rel.Insert(T2(100 + i, i));
  EXPECT_EQ(first, T2(5, 6));
  EXPECT_EQ(second, T2(1, 2));
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], Value::Int(5));
  EXPECT_EQ(second[1], Value::Int(2));
  EXPECT_EQ(Tuple(second), T2(1, 2));
  // rows() walks the same views in insertion order.
  std::size_t i = 0;
  for (RowRef row : rel.rows()) {
    const Tuple expected = i == 0   ? T2(5, 6)
                           : i == 1 ? T2(1, 2)
                                    : T2(100 + static_cast<std::int64_t>(i) - 2,
                                         static_cast<std::int64_t>(i) - 2);
    EXPECT_EQ(row, expected) << "row " << i;
    EXPECT_EQ(rel.rows()[i], row);
    ++i;
  }
  EXPECT_EQ(i, rel.size());
  EXPECT_EQ(rel.rows().size(), rel.size());
}

TEST(RelationConformanceTest, BulkCopyIntoEmptyMatchesPerRowCopy) {
  const Relation src = PairRelation(200);
  // The whole relation lands in an empty relation through the bulk
  // path; a middle range goes row by row, in id space.
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 200}, {37, 150}}) {
    Relation bulk(2);
    ASSERT_EQ(bulk.AddRowRange(src, begin, end), end - begin);
    Relation per_row(2);
    for (std::size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(per_row.Insert(Tuple(src.row(i))));
    }
    ASSERT_EQ(bulk.size(), per_row.size());
    for (std::size_t i = 0; i < bulk.size(); ++i) {
      EXPECT_EQ(bulk.row(i), per_row.row(i)) << "row " << i;
    }
    std::vector<std::uint32_t> ids;
    for (std::size_t i = 0; i < src.size(); ++i) {
      const bool inside = i >= begin && i < end;
      EXPECT_EQ(bulk.Contains(src.row(i)), inside) << "src row " << i;
      EXPECT_EQ(per_row.Contains(src.row(i)), inside) << "src row " << i;
      ValueDictionary::Global().InternRow(Tuple(src.row(i)), &ids);
      EXPECT_EQ(bulk.ContainsIds(ids), inside) << "src row " << i;
    }
    EXPECT_FALSE(bulk.Contains(T2(0, 0)));
    // A re-inserted duplicate is rejected, by row and by range.
    EXPECT_FALSE(bulk.Insert(Tuple(src.row(begin))));
    EXPECT_EQ(bulk.AddRowRange(src, begin, end), 0u);
    EXPECT_EQ(bulk.size(), end - begin);
    // Indexes built after the copy extend over later inserts.
    EXPECT_EQ(bulk.Lookup(0, Value::Int(3)), per_row.Lookup(0, Value::Int(3)));
    bulk.Insert(T2(3, -1));
    per_row.Insert(T2(3, -1));
    EXPECT_EQ(bulk.Lookup(0, Value::Int(3)), per_row.Lookup(0, Value::Int(3)));
    EXPECT_EQ(bulk.Lookup({0, 1}, T2(3, -1)),
              per_row.Lookup({0, 1}, T2(3, -1)));
    EXPECT_EQ(bulk.Lookup(0, Value::Int(3)).back(), bulk.size() - 1);
  }
}

TEST(RelationConformanceTest, DatabaseCopyIsIndependentOfItsSource) {
  // The server publishes each epoch as a copy of the live database; the
  // copy and its source must never observe each other's writes.
  auto symbols = std::make_shared<SymbolTable>();
  const PredicateId e = symbols->InternPredicate("e", 2).value();
  Database source(symbols);
  for (std::int64_t i = 0; i < 50; ++i) source.AddFact(e, T2(i % 5, i));
  EXPECT_EQ(source.relation(e).Lookup(0, Value::Int(1)).size(), 10u);
  Database copy = source;
  EXPECT_TRUE(copy.AddFact(e, T2(1, 1000)));
  EXPECT_TRUE(source.AddFact(e, T2(1, 2000)));
  EXPECT_EQ(source.EraseFacts(e, {T2(1, 1)}), 1u);
  EXPECT_TRUE(copy.Contains(e, T2(1, 1000)));
  EXPECT_FALSE(copy.Contains(e, T2(1, 2000)));
  EXPECT_TRUE(copy.Contains(e, T2(1, 1)));
  EXPECT_FALSE(source.Contains(e, T2(1, 1000)));
  EXPECT_EQ(copy.relation(e).size(), 51u);
  EXPECT_EQ(source.relation(e).size(), 50u);
  EXPECT_EQ(copy.relation(e).Lookup(0, Value::Int(1)).size(), 11u);
  EXPECT_EQ(copy.relation(e).row(50), T2(1, 1000));
  EXPECT_EQ(source.relation(e).row(49), T2(1, 2000));
}

TEST(RelationConformanceTest, RowLookupAgreesWithLimitFilteredIndexScan) {
  // Fully bound atoms on an old snapshot use the dedup table's unique
  // row id against the limit; a scan of the full-row postings, filtered
  // by the limit, is the reference.
  Relation rel = PairRelation(60);
  std::vector<Tuple> probes;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    probes.push_back(Tuple(rel.row(i)));
  }
  probes.push_back(T2(0, 0));   // absent, values known
  probes.push_back(T2(-5, 9));  // absent, a value never interned before
  const Relation::MultiIndexView all_columns = rel.PrepareIndex({0, 1});
  for (std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                            std::size_t{59}, std::size_t{60}}) {
    for (const Tuple& probe : probes) {
      bool reference = false;
      for (std::uint32_t row_id : all_columns.FindIds(Ids(probe))) {
        if (row_id < limit) reference = true;
      }
      EXPECT_EQ(rel.FindRow(probe) < limit, reference)
          << "limit " << limit << ", probe (" << probe[0].payload() << ", "
          << probe[1].payload() << ")";
    }
  }
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    ValueDictionary::Global().InternRow(probes[i], &ids);
    EXPECT_EQ(rel.FindRowIds(ids.data()), i);
    EXPECT_EQ(rel.FindRow(rel.row(i)), i);
  }
}

/// The span shapes every semi-naive source takes -- empty, the whole
/// relation (kFull), a prefix (kOld), a suffix (a round's delta) and an
/// interior cut (a parallel shard of it) -- drawn at random over a
/// relation of `n` rows, plus spans reaching past its end.
std::vector<RowSpan> RandomSpans(std::size_t n, std::mt19937* rng) {
  std::uniform_int_distribution<std::size_t> pick(0, n);
  std::vector<RowSpan> spans = {{0, 0}, {n, n}, {0, n}, {0, n + 5}};
  for (int i = 0; i < 6; ++i) {
    const std::size_t a = pick(*rng);
    const std::size_t b = pick(*rng);
    spans.push_back({0, a});                               // prefix
    spans.push_back({a, n});                               // suffix
    spans.push_back({std::min(a, b), std::max(a, b)});     // interior
    spans.push_back({std::max(a, b), std::min(a, b)});     // reversed: empty
  }
  return spans;
}

/// A relation of up to `n` random rows of arity 3 over small domains, so
/// single- and multi-column postings hold several rows each.
Relation RandomRelation(std::size_t n, std::mt19937* rng) {
  std::uniform_int_distribution<std::int64_t> small(0, 5);
  std::uniform_int_distribution<std::int64_t> wide(0, 40);
  Relation rel(3);
  for (std::size_t i = 0; i < n; ++i) {
    rel.Insert({Value::Int(small(*rng)), Value::Int(wide(*rng)),
                Value::Int(small(*rng))});
  }
  return rel;
}

/// Checks every span read of `rel` against a brute-force filter of
/// rows(): the in-range postings segments of single- and multi-column
/// index views (ascending, and their length), FindRow followed by the
/// range check, and the sorted distinct keys of the span.
void ExpectSpanReadsMatchRows(const Relation& rel,
                              const std::vector<RowSpan>& spans,
                              const std::string& label) {
  const std::size_t n = rel.size();
  std::vector<Tuple> rows;
  for (RowRef row : rel.rows()) rows.emplace_back(row);
  for (const RowSpan& span : spans) {
    const std::string where = label + " span [" + std::to_string(span.begin) +
                              ", " + std::to_string(span.end) + ")";
    auto inside = [&](std::size_t i) {
      return i >= span.begin && i < span.end && i < n;
    };
    const RowSpan bounds = rel.Bounds(span);
    EXPECT_LE(bounds.end, n) << where;
    std::size_t scanned = 0;
    for (std::size_t i = bounds.begin; i < bounds.end; ++i) {
      EXPECT_TRUE(inside(i)) << where;
      ++scanned;
    }
    std::size_t expected_scan = 0;
    for (std::size_t i = 0; i < n; ++i) expected_scan += inside(i) ? 1 : 0;
    EXPECT_EQ(scanned, expected_scan) << where;

    for (int c = 0; c < 3; ++c) {
      const Relation::SingleIndexView view = rel.PrepareSingleIndex(c);
      for (std::int64_t v = -1; v <= 40; ++v) {
        std::vector<std::uint32_t> expected;
        for (std::size_t i = 0; i < n; ++i) {
          if (inside(i) && rows[i][static_cast<std::size_t>(c)] ==
                               Value::Int(v)) {
            expected.push_back(static_cast<std::uint32_t>(i));
          }
        }
        const auto segment = rel.PostingsIn(view.FindId(Id(v)), span);
        EXPECT_EQ(std::vector<std::uint32_t>(segment.begin(), segment.end()),
                  expected)
            << where << " column " << c << " key " << v;
        EXPECT_EQ(segment.size(), expected.size()) << where;
      }
    }
    const Relation::MultiIndexView pair_view = rel.PrepareIndex({0, 2});
    for (std::int64_t a = 0; a <= 5; ++a) {
      for (std::int64_t b = 0; b <= 5; ++b) {
        const Tuple key = {Value::Int(a), Value::Int(b)};
        std::vector<std::uint32_t> expected;
        for (std::size_t i = 0; i < n; ++i) {
          if (inside(i) && rows[i][0] == key[0] && rows[i][2] == key[1]) {
            expected.push_back(static_cast<std::uint32_t>(i));
          }
        }
        const auto segment =
            rel.PostingsIn(pair_view.FindIds(Ids(key)), span);
        EXPECT_EQ(std::vector<std::uint32_t>(segment.begin(), segment.end()),
                  expected)
            << where << " key (" << a << ", " << b << ")";
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t want =
          inside(i) ? static_cast<std::uint32_t>(i) : Relation::kNoRow;
      EXPECT_EQ(rel.FindRowIdsIn(Ids(rows[i]).data(), span), want)
          << where << " row " << i;
      const std::uint32_t stored[] = {rel.column(0)[i], rel.column(1)[i],
                                      rel.column(2)[i]};
      EXPECT_EQ(rel.FindRowIdsIn(stored, span), want)
          << where << " row " << i;
    }
    EXPECT_EQ(rel.FindRowIdsIn(
                  Ids({Value::Int(-1), Value::Int(0), Value::Int(0)}).data(),
                  span),
              Relation::kNoRow)
        << where;

    std::vector<std::uint32_t> ids;
    for (int c = 0; c < 3; ++c) {
      std::vector<std::uint32_t> expected;
      for (std::size_t i = 0; i < n; ++i) {
        if (!inside(i)) continue;
        expected.push_back(ValueDictionary::Global().LookupId(
            rows[i][static_cast<std::size_t>(c)]));
      }
      std::sort(expected.begin(), expected.end());
      expected.erase(std::unique(expected.begin(), expected.end()),
                     expected.end());
      EXPECT_EQ(rel.SortedKeys(c, span), expected) << where << " column " << c;
      // Cached: asking again returns the same list.
      EXPECT_EQ(rel.SortedKeys(c, span), expected) << where << " column " << c;
      rel.CollectSortedKeys({c}, span, &ids);
      EXPECT_EQ(ids, expected) << where << " column " << c;
    }
    // Repeated variable: rows whose columns 0 and 2 agree.
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (inside(i) && rows[i][0] == rows[i][2]) {
        expected.push_back(ValueDictionary::Global().LookupId(rows[i][0]));
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    rel.CollectSortedKeys({0, 2}, span, &ids);
    EXPECT_EQ(ids, expected) << where;
  }
}

TEST(RelationConformanceTest, SpanReadsAgreeWithFilteredRows) {
  for (unsigned seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    const Relation rel = RandomRelation(10 + 15 * seed, &rng);
    ExpectSpanReadsMatchRows(rel, RandomSpans(rel.size(), &rng),
                             "seed " + std::to_string(seed));
  }
  // An empty relation: every span is empty.
  std::mt19937 rng(0);
  ExpectSpanReadsMatchRows(Relation(3), RandomSpans(0, &rng), "empty");
}

TEST(RelationConformanceTest, SpanReadsAfterAppendsExtendTheIndexes) {
  // The semi-naive drivers build an index, read a round's delta range
  // through it, append the round's derivations, and read the next range
  // through the same index extended in place -- with the sorted keys of
  // the earlier range still cached.
  for (unsigned seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(100 + seed);
    Relation rel = RandomRelation(40, &rng);
    const std::size_t first_mark = rel.size();
    const std::vector<RowSpan> before = RandomSpans(first_mark, &rng);
    ExpectSpanReadsMatchRows(rel, before, "before appends");
    std::uniform_int_distribution<std::int64_t> small(0, 5);
    std::uniform_int_distribution<std::int64_t> wide(0, 40);
    for (int i = 0; i < 60; ++i) {
      rel.Insert({Value::Int(small(rng)), Value::Int(wide(rng)),
                  Value::Int(small(rng))});
    }
    ASSERT_GT(rel.size(), first_mark);
    std::vector<RowSpan> after = RandomSpans(rel.size(), &rng);
    after.push_back({first_mark, rel.size()});  // the next round's delta
    after.insert(after.end(), before.begin(), before.end());
    ExpectSpanReadsMatchRows(rel, after, "after appends");
  }
}

TEST(RelationConformanceTest, WholeRelationSortedKeysAgreeWithOrWithoutIndex) {
  // SortedKeys over the whole relation sorts the keys of a current
  // single-column index, and collects from the rows otherwise. Three
  // relations take the same rows: one indexes every column before each
  // read, one was indexed once and then went stale, one never is.
  for (int arity = 1; arity <= 3; ++arity) {
    std::mt19937 rng(200 + static_cast<unsigned>(arity));
    std::uniform_int_distribution<std::int64_t> value(0, 40);
    Relation indexed(arity);
    Relation stale(arity);
    Relation plain(arity);
    const std::vector<Relation*> rels = {&indexed, &stale, &plain};
    auto insert = [&](std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        Tuple row;
        for (int c = 0; c < arity; ++c) row.push_back(Value::Int(value(rng)));
        for (Relation* rel : rels) rel->Insert(row);
      }
    };
    auto erase_every_third = [&]() {
      std::vector<Tuple> doomed;
      for (std::size_t i = 0; i < indexed.size(); i += 3) {
        doomed.emplace_back(indexed.row(i));
      }
      for (Relation* rel : rels) rel->EraseAll(doomed);
    };
    auto expect_agree = [&](const std::string& when) {
      for (int c = 0; c < arity; ++c) {
        indexed.PrepareSingleIndex(c);
        for (std::size_t k = 0; k < rels.size(); ++k) {
          std::vector<std::uint32_t> expected;
          rels[k]->CollectSortedKeys({c}, rels[k]->AllRows(), &expected);
          EXPECT_EQ(rels[k]->SortedKeys(c, rels[k]->AllRows()), expected)
              << "arity " << arity << ", relation " << k << ", column " << c
              << ", " << when;
        }
      }
    };

    insert(30);
    for (int c = 0; c < arity; ++c) stale.PrepareSingleIndex(c);
    expect_agree("first rows");
    insert(25);
    expect_agree("after appends");
    const std::size_t full = indexed.size();
    erase_every_third();
    while (indexed.size() < full) insert(1);
    ASSERT_EQ(indexed.size(), full);
    expect_agree("after EraseAll and regrowth to the same size");
    erase_every_third();
    expect_agree("after EraseAll");
  }
}

/// The dedup contract in reference form: the distinct rows in
/// first-occurrence order, each mapped to its row id.
struct ReferenceSet {
  std::vector<std::vector<std::uint32_t>> rows;
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t,
                     Relation::IdRowHash>
      ids;

  /// Adds the rows of `batch` (of `arity` ids each) in order; returns
  /// how many were new.
  std::size_t Insert(const IdRowBuffer& batch, std::size_t arity) {
    std::size_t added = 0;
    for (std::size_t r = 0; r < batch.count; ++r) {
      const auto first = batch.ids.begin() +
                         static_cast<std::ptrdiff_t>(r * arity);
      std::vector<std::uint32_t> row(first,
                                     first + static_cast<std::ptrdiff_t>(arity));
      if (ids.emplace(row, static_cast<std::uint32_t>(rows.size())).second) {
        rows.push_back(std::move(row));
        ++added;
      }
    }
    return added;
  }
};

Tuple ResolveRow(const std::vector<std::uint32_t>& ids) {
  Tuple tuple;
  for (std::uint32_t id : ids) {
    tuple.push_back(ValueDictionary::Global().Resolve(id));
  }
  return tuple;
}

/// The first `domain` ids of `pool` are the values a column may take.
struct IdDomain {
  const std::vector<std::uint32_t>* pool;
  std::size_t domain;

  std::vector<std::uint32_t> RandomRow(std::size_t arity,
                                       std::mt19937* rng) const {
    std::uniform_int_distribution<std::size_t> pick(0, domain - 1);
    std::vector<std::uint32_t> row(arity);
    for (std::uint32_t& id : row) id = (*pool)[pick(*rng)];
    return row;
  }
};

/// `count` rows of which about two thirds repeat a stored row or an
/// earlier row of the batch; the rest are drawn at random from `ids`.
IdRowBuffer DuplicateHeavyBatch(std::size_t arity, std::size_t count,
                                const ReferenceSet& ref, const IdDomain& ids,
                                std::mt19937* rng) {
  IdRowBuffer batch;
  std::uniform_int_distribution<int> kind(0, 2);
  for (std::size_t r = 0; r < count; ++r) {
    std::vector<std::uint32_t> row;
    const int k = kind(*rng);
    if (k == 1 && !ref.rows.empty()) {
      row = ref.rows[std::uniform_int_distribution<std::size_t>(
          0, ref.rows.size() - 1)(*rng)];
    } else if (k == 2 && batch.count > 0) {
      const std::size_t j = std::uniform_int_distribution<std::size_t>(
          0, batch.count - 1)(*rng);
      const auto first =
          batch.ids.begin() + static_cast<std::ptrdiff_t>(j * arity);
      row.assign(first, first + static_cast<std::ptrdiff_t>(arity));
    } else {
      row = ids.RandomRow(arity, rng);
    }
    batch.ids.insert(batch.ids.end(), row.begin(), row.end());
    ++batch.count;
  }
  return batch;
}

/// `count` rows split at a random point: on one side rows new to `ref`
/// and to each other, on the other repeats of `ref`'s rows (and, when
/// the new rows come first, of those). `new_first` picks the order.
/// `ref` must be non-empty.
IdRowBuffer SplitBatch(std::size_t arity, std::size_t count, bool new_first,
                       const ReferenceSet& ref, const IdDomain& ids,
                       std::mt19937* rng) {
  const std::size_t split =
      std::uniform_int_distribution<std::size_t>(1, count - 1)(*rng);
  const std::size_t fresh = new_first ? split : count - split;
  std::vector<std::vector<std::uint32_t>> news;
  std::unordered_set<std::vector<std::uint32_t>, Relation::IdRowHash> seen;
  while (news.size() < fresh) {
    std::vector<std::uint32_t> row = ids.RandomRow(arity, rng);
    if (ref.ids.contains(row) || !seen.insert(row).second) continue;
    news.push_back(std::move(row));
  }
  auto repeat = [&]() -> const std::vector<std::uint32_t>& {
    const std::size_t pool = ref.rows.size() + (new_first ? news.size() : 0);
    const std::size_t j =
        std::uniform_int_distribution<std::size_t>(0, pool - 1)(*rng);
    return j < ref.rows.size() ? ref.rows[j] : news[j - ref.rows.size()];
  };
  IdRowBuffer batch;
  for (std::size_t r = 0; r < count; ++r) {
    const bool is_new = new_first ? r < split : r >= split;
    const std::vector<std::uint32_t>& row =
        is_new ? news[new_first ? r : r - split] : repeat();
    batch.ids.insert(batch.ids.end(), row.begin(), row.end());
    ++batch.count;
  }
  return batch;
}

/// `rel` holds exactly `ref`'s rows in `ref`'s order; FindRow, FindRowIds
/// and FindRowIdsIn over random spans (of the row's own ids, and of the
/// ids its resolved values look up) find random present rows at their
/// ids, and random absent rows not at all.
void ExpectMatchesReference(const Relation& rel, const ReferenceSet& ref,
                            const IdDomain& ids, std::mt19937* rng) {
  const std::size_t arity = static_cast<std::size_t>(rel.arity());
  ASSERT_EQ(rel.size(), ref.rows.size());
  std::size_t i = 0;
  for (const RowRef row : rel.rows()) {
    for (std::size_t c = 0; c < arity; ++c) {
      ASSERT_EQ(row.id(c), ref.rows[i][c]) << "row " << i;
    }
    ++i;
  }
  const std::size_t n = rel.size();
  std::uniform_int_distribution<std::size_t> edge(0, n + 2);
  auto random_span = [&] { return RowSpan{edge(*rng), edge(*rng)}; };
  for (int probe = 0; n > 0 && probe < 64; ++probe) {
    const std::uint32_t i = static_cast<std::uint32_t>(
        std::uniform_int_distribution<std::size_t>(0, n - 1)(*rng));
    const Tuple tuple = ResolveRow(ref.rows[i]);
    ASSERT_EQ(rel.FindRow(tuple), i);
    ASSERT_EQ(rel.FindRow(rel.row(i)), i);
    const RowSpan span = random_span();
    ASSERT_EQ(rel.FindRowIdsIn(Ids(tuple).data(), span),
              span.contains(i) ? i : Relation::kNoRow);
    ASSERT_EQ(rel.FindRowIds(ref.rows[i].data()), i);
    ASSERT_EQ(rel.FindRowIdsIn(ref.rows[i].data(), span),
              span.contains(i) ? i : Relation::kNoRow);
  }
  for (int probe = 0; probe < 64; ++probe) {
    const std::vector<std::uint32_t> absent = ids.RandomRow(arity, rng);
    if (ref.ids.contains(absent)) continue;
    const Tuple tuple = ResolveRow(absent);
    ASSERT_EQ(rel.FindRow(tuple), Relation::kNoRow);
    ASSERT_EQ(rel.FindRowIdsIn(Ids(tuple).data(), random_span()),
              Relation::kNoRow);
    ASSERT_EQ(rel.FindRowIds(absent.data()), Relation::kNoRow);
  }
}

TEST(RelationConformanceTest, RandomBatchesAgreeWithAReferenceSet) {
  // Duplicate-heavy id batches drive the dedup table through every
  // doubling, with packed key words (arity <= 2) and hashed ones (3, 5);
  // then through Rebuild (erase a random subset, re-insert it), through
  // growth after the verbatim table copy of AddRowRange into an empty
  // relation, and through batches whose new rows all come first or all
  // come last, which InsertIdRows' yield reservation over- and
  // under-estimates.
  constexpr std::size_t kBatch = 1536;
  constexpr std::size_t kGrowTo = 16384;
  std::vector<std::uint32_t> pool(std::size_t{1} << 17);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    pool[i] = ValueDictionary::Global().Intern(
        Value::Int(1000000 + static_cast<std::int64_t>(i)));
  }
  struct Shape {
    std::size_t arity;
    std::size_t domain;  // values per column
  };
  for (const Shape shape : {Shape{0, 1}, Shape{1, pool.size()}, Shape{2, 512},
                            Shape{3, 64}, Shape{5, 16}}) {
    SCOPED_TRACE("arity " + std::to_string(shape.arity));
    const std::size_t arity = shape.arity;
    const IdDomain ids{&pool, shape.domain};
    // Arity 0 holds at most the empty row.
    const std::size_t grow_to = arity == 0 ? 1 : kGrowTo;
    std::mt19937 rng(static_cast<unsigned>(41 + arity));
    Relation rel(static_cast<int>(arity));
    ReferenceSet ref;
    for (int batches = 0; ref.rows.size() < grow_to || batches < 3;
         ++batches) {
      ASSERT_LT(batches, 200) << "the relation stopped growing";
      const IdRowBuffer batch =
          DuplicateHeavyBatch(arity, kBatch, ref, ids, &rng);
      ASSERT_EQ(rel.InsertIdRows(batch), ref.Insert(batch, arity));
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(rel, ref, ids, &rng));
    }

    // Erase a random quarter (listing some rows twice, plus an absent
    // row) and re-insert it, duplicated, as one batch.
    std::vector<Tuple> doomed;
    IdRowBuffer back;
    ReferenceSet kept;
    std::bernoulli_distribution quarter(0.25);
    for (const std::vector<std::uint32_t>& row : ref.rows) {
      if (!quarter(rng)) {
        kept.ids.emplace(row, static_cast<std::uint32_t>(kept.rows.size()));
        kept.rows.push_back(row);
        continue;
      }
      doomed.push_back(ResolveRow(row));
      if (doomed.size() % 5 == 0) doomed.push_back(doomed.back());
      for (int copy = 0; copy < 2; ++copy) {
        back.ids.insert(back.ids.end(), row.begin(), row.end());
        ++back.count;
      }
    }
    const std::size_t erased = ref.rows.size() - kept.rows.size();
    for (int tries = 0; arity > 0 && tries < 100; ++tries) {
      const std::vector<std::uint32_t> absent = ids.RandomRow(arity, &rng);
      if (ref.ids.contains(absent)) continue;
      doomed.push_back(ResolveRow(absent));
      break;
    }
    ref = kept;
    ASSERT_EQ(rel.EraseAll(doomed), erased);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(rel, ref, ids, &rng));
    ASSERT_EQ(rel.InsertIdRows(back), ref.Insert(back, arity));
    ASSERT_EQ(ref.rows.size(), kept.rows.size() + erased);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(rel, ref, ids, &rng));

    // Copy into an empty relation, then grow the copy to twice the
    // source: past at least one more doubling of the copied table.
    Relation copy(static_cast<int>(arity));
    ASSERT_EQ(copy.AddRowRange(rel, 0, rel.size()), rel.size());
    ReferenceSet copy_ref = ref;
    ASSERT_NO_FATAL_FAILURE(
        ExpectMatchesReference(copy, copy_ref, ids, &rng));
    const std::size_t copy_to = arity == 0 ? 1 : 2 * rel.size();
    for (int batches = 0; copy_ref.rows.size() < copy_to || batches < 3;
         ++batches) {
      ASSERT_LT(batches, 200) << "the copy stopped growing";
      const IdRowBuffer batch =
          DuplicateHeavyBatch(arity, kBatch, copy_ref, ids, &rng);
      ASSERT_EQ(copy.InsertIdRows(batch), copy_ref.Insert(batch, arity));
      ASSERT_NO_FATAL_FAILURE(
          ExpectMatchesReference(copy, copy_ref, ids, &rng));
    }
    // The source saw none of the copy's inserts.
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(rel, ref, ids, &rng));

    // Batches whose first rows are all new and the rest all repeats, and
    // the reverse, split at random points on either side of the prefix
    // InsertIdRows reserves from, until the table doubled again.
    if (arity == 0) continue;
    const std::size_t skew_to = 2 * rel.size();
    for (int batches = 0; ref.rows.size() < skew_to || batches < 4;
         ++batches) {
      ASSERT_LT(batches, 200) << "the relation stopped growing";
      const IdRowBuffer batch =
          SplitBatch(arity, kBatch, batches % 2 == 0, ref, ids, &rng);
      ASSERT_EQ(rel.InsertIdRows(batch), ref.Insert(batch, arity));
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(rel, ref, ids, &rng));
    }
  }
}

}  // namespace
}  // namespace datalog
