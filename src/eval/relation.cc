#include "eval/relation.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace datalog {

namespace {
/// Reusable id scratch buffers for Value->id key conversion on the
/// probe paths. Thread-local so concurrent frozen-snapshot readers never
/// share them.
std::vector<std::uint32_t>& IdScratch() {
  thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}
}  // namespace

// Locate and InsertOrFind are inlined into their callers in this file:
// two out-of-line calls per row measurably slowed the batch insert.
template <std::size_t kKind, typename IdAt>
[[gnu::always_inline]] inline std::size_t Relation::RowIdTable::Locate(
    const Columns& columns, IdAt id_at, KeyHash kh,
    std::size_t* free_slot) const {
  using group_match::kGroupWidth;
  const std::uint8_t tag = Tag(kh.hash);
  const std::size_t mask = GroupMask();
  std::size_t group = HomeGroup(kh.hash);
  for (std::size_t step = 1;; ++step) {
    const std::size_t first = group * kGroupWidth;
    const std::uint8_t* ctrl = ctrl_.data() + first;
    for (group_match::Mask hits = group_match::MatchTag(ctrl, tag);
         hits != 0; hits &= hits - 1) {
      const std::size_t slot =
          first + static_cast<std::size_t>(std::countr_zero(hits));
      if (keys_[slot] == kh.key &&
          (kKind != kHashedKeys || RowEquals(columns, rows_[slot], id_at))) {
        return slot;
      }
    }
    const group_match::Mask free = group_match::MatchFree(ctrl);
    if (free != 0) {
      *free_slot = first + static_cast<std::size_t>(std::countr_zero(free));
      return kNoSlot;
    }
    group = (group + step) & mask;
  }
}

std::size_t Relation::RowIdTable::FreeSlot(std::uint64_t hash) const {
  using group_match::kGroupWidth;
  const std::size_t mask = GroupMask();
  std::size_t group = HomeGroup(hash);
  for (std::size_t step = 1;; ++step) {
    const group_match::Mask free =
        group_match::MatchFree(ctrl_.data() + group * kGroupWidth);
    if (free != 0) {
      return group * kGroupWidth +
             static_cast<std::size_t>(std::countr_zero(free));
    }
    group = (group + step) & mask;
  }
}

template <std::size_t kKind, typename IdAt>
[[gnu::always_inline]] inline bool Relation::RowIdTable::InsertOrFind(
    const Columns& columns, IdAt id_at, KeyHash kh, std::uint32_t row_id) {
  if (ctrl_.empty()) Grow();
  std::size_t slot = 0;
  if (Locate<kKind>(columns, id_at, kh, &slot) != kNoSlot) return false;
  if (Full()) {
    Grow();
    slot = FreeSlot(kh.hash);
  }
  Place(slot, kh, row_id);
  ++size_;
  return true;
}

void Relation::RowIdTable::InsertDistinct(const Columns& columns,
                                          std::uint32_t row_id) {
  if (Full()) Grow();
  const KeyHash kh = StoredKeyHash(columns, row_id);
  Place(FreeSlot(kh.hash), kh, row_id);
  ++size_;
}

std::uint32_t Relation::RowIdTable::Find(const Columns& columns,
                                         const std::uint32_t* ids) const {
  if (size_ == 0) return kNoRow;
  return VisitKeyKind([&]<std::size_t kKind>(KeyKind<kKind>) {
    const auto id_at = [ids](std::size_t c) { return ids[c]; };
    std::size_t free_slot = 0;
    const std::size_t slot =
        Locate<kKind>(columns, id_at, KeyHashAs<kKind>(id_at), &free_slot);
    return slot == kNoSlot ? kNoRow : rows_[slot];
  });
}

void Relation::RowIdTable::Grow() {
  ResizeTo(ctrl_.empty() ? group_match::kGroupWidth : ctrl_.size() * 2);
}

void Relation::RowIdTable::Reserve(std::size_t additional) {
  const std::size_t want = size_ + additional;
  std::size_t new_size = ctrl_.empty() ? group_match::kGroupWidth
                                       : ctrl_.size();
  while (want * 8 > new_size * 7) new_size *= 2;
  if (new_size > ctrl_.size()) ResizeTo(new_size);
}

void Relation::RowIdTable::ResizeTo(std::size_t new_size) {
  BlockVector<std::uint8_t> old_ctrl = std::move(ctrl_);
  BlockVector<std::uint64_t> old_keys = std::move(keys_);
  BlockVector<std::uint32_t> old_rows = std::move(rows_);
  ctrl_.assign(new_size, group_match::kFree);
  keys_.assign(new_size, 0);
  rows_.assign(new_size, 0);
  for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
    if (old_ctrl[i] == group_match::kFree) continue;
    const KeyHash kh{old_keys[i], HashOfKey(old_keys[i])};
    Place(FreeSlot(kh.hash), kh, old_rows[i]);
  }
}

void Relation::RowIdTable::Rebuild(const Columns& columns,
                                   std::size_t num_rows) {
  ctrl_.clear();
  keys_.clear();
  rows_.clear();
  size_ = 0;
  if (num_rows == 0) return;
  Reserve(num_rows);
  for (std::size_t i = 0; i < num_rows; ++i) {
    InsertDistinct(columns, static_cast<std::uint32_t>(i));
  }
}

void Relation::CheckWidth(std::size_t width) const {
  if (width != static_cast<std::size_t>(arity_)) {
    throw std::invalid_argument(
        "row of width " + std::to_string(width) +
        " inserted into a relation of arity " + std::to_string(arity_));
  }
}

template <std::size_t kKind, typename RowIds>
std::size_t Relation::InsertRowsAs(std::size_t count, RowIds row_ids) {
  // A batch may be mostly duplicates or mostly new, so the first
  // kYieldPrefix rows go in unreserved and the rest is reserved for at
  // their yield, doubled when the relation held rows before the batch
  // (see the header). Each row is hashed once, kAhead rows before its
  // probe, when its home group is prefetched (a table growth in between
  // only wastes those few prefetches).
  constexpr std::size_t kAhead = 8;
  const std::size_t width =
      kKind == RowIdTable::kHashedKeys ? columns_.size() : kKind;
  const std::size_t headroom = num_rows_ == 0 ? 1 : 2;
  RowIdTable::KeyHash ahead[kAhead] = {};
  for (std::size_t r = 0; r < count && r < kAhead; ++r) {
    ahead[r] = id_table_.KeyHashAs<kKind>(row_ids(r));
    id_table_.Prefetch(ahead[r].hash);
  }
  std::size_t added = 0;
  for (std::size_t r = 0; r < count; ++r) {
    if (r == kYieldPrefix && added != 0) {
      // added <= kYieldPrefix, so this is at most headroom times the
      // rows left.
      const std::size_t expected =
          headroom * (count - kYieldPrefix) * added / kYieldPrefix;
      id_table_.Reserve(expected);
      ReserveRows(expected);
    }
    const RowIdTable::KeyHash kh = ahead[r % kAhead];
    if (r + kAhead < count) {
      ahead[r % kAhead] = id_table_.KeyHashAs<kKind>(row_ids(r + kAhead));
      id_table_.Prefetch(ahead[r % kAhead].hash);
    }
    const auto id_at = row_ids(r);
    if (!id_table_.InsertOrFind<kKind>(
            columns_, id_at, kh, static_cast<std::uint32_t>(num_rows_))) {
      continue;
    }
    for (std::size_t c = 0; c < width; ++c) columns_[c].push_back(id_at(c));
    ++num_rows_;
    ++added;
  }
  return added;
}

bool Relation::Insert(Tuple tuple) {
  CheckWidth(tuple.size());
  std::vector<std::uint32_t>& ids = IdScratch();
  ValueDictionary::Global().InternRow(tuple, &ids);
  const std::uint32_t* row = ids.data();
  return id_table_.VisitKeyKind([&]<std::size_t kKind>(
                                    RowIdTable::KeyKind<kKind>) {
    return InsertRowsAs<kKind>(1, [row](std::size_t) {
             return [row](std::size_t c) { return row[c]; };
           }) != 0;
  });
}

std::size_t Relation::InsertIdRows(const IdRowBuffer& rows) {
  const std::size_t width = static_cast<std::size_t>(arity_);
  if (rows.ids.size() != rows.count * width) {
    throw std::invalid_argument(
        "id batch of " + std::to_string(rows.ids.size()) + " ids is not " +
        std::to_string(rows.count) + " rows of arity " +
        std::to_string(arity_));
  }
  const std::uint32_t* ids = rows.ids.data();
  return id_table_.VisitKeyKind([&]<std::size_t kKind>(
                                    RowIdTable::KeyKind<kKind>) {
    // Packed kinds step through the buffer at a compile-time width.
    const std::size_t stride = kKind == RowIdTable::kHashedKeys ? width : kKind;
    return InsertRowsAs<kKind>(rows.count, [ids, stride](std::size_t r) {
      return [row = ids + r * stride](std::size_t c) { return row[c]; };
    });
  });
}

void Relation::ReserveRows(std::size_t additional) {
  // Grow at least geometrically: reserve(size + additional) verbatim on
  // every bulk copy into the same relation would pin capacity to the
  // exact request each time and degrade repeated appends to O(n^2)
  // element moves.
  const std::size_t want = num_rows_ + additional;
  for (auto& col : columns_) {
    if (want > col.capacity()) col.reserve(std::max(want, col.capacity() * 2));
  }
}

std::size_t Relation::AddRowRange(const Relation& src, std::size_t begin,
                                  std::size_t end) {
  if (begin >= end) return 0;
  CheckWidth(static_cast<std::size_t>(src.arity_));
  if (end > src.num_rows_) {
    throw std::invalid_argument(
        "row range ending at " + std::to_string(end) +
        " copied from a relation of " + std::to_string(src.num_rows_) +
        " rows");
  }
  if (num_rows_ == 0 && begin == 0 && end == src.num_rows_) {
    CopyIntoEmpty(src);
    return end;
  }
  const std::vector<IdVector>& from = src.columns_;
  return id_table_.VisitKeyKind([&]<std::size_t kKind>(
                                    RowIdTable::KeyKind<kKind>) {
    return InsertRowsAs<kKind>(end - begin, [&from, begin](std::size_t r) {
      return [&from, row = begin + r](std::size_t c) { return from[c][row]; };
    });
  });
}

void Relation::CopyIntoEmpty(const Relation& src) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].assign(src.columns_[c].begin(),
                       src.columns_[c].begin() +
                           static_cast<std::ptrdiff_t>(src.num_rows_));
  }
  num_rows_ = src.num_rows_;
  // Every row keeps its id, so src's dedup table is already this one,
  // verbatim.
  id_table_ = src.id_table_;
}

std::uint32_t Relation::FindRow(RowRef row) const {
  if (row.size() != static_cast<std::size_t>(arity_) || num_rows_ == 0) {
    return kNoRow;
  }
  std::vector<std::uint32_t>& ids = IdScratch();
  ids.resize(row.size());
  if (row.has_ids()) {
    for (std::size_t c = 0; c < row.size(); ++c) ids[c] = row.id(c);
  } else if (!ValueDictionary::Global().LookupRow(row.values_, row.size(),
                                                  &ids)) {
    // A value the dictionary has never seen cannot be stored in any
    // relation.
    return kNoRow;
  }
  return id_table_.Find(columns_, ids.data());
}

bool Relation::ContainsIds(const std::vector<std::uint32_t>& ids) const {
  if (ids.size() != static_cast<std::size_t>(arity_) || num_rows_ == 0) {
    return false;
  }
  return id_table_.Find(columns_, ids.data()) != kNoRow;
}

std::size_t Relation::EraseAll(const std::vector<Tuple>& tuples) {
  // Mark the distinct stored rows to remove (erasure is cold: the
  // incremental engine runs it between rounds with exclusive access).
  std::vector<bool> doomed(num_rows_, false);
  std::size_t erased = 0;
  for (const Tuple& tuple : tuples) {
    const std::uint32_t r = FindRow(tuple);
    if (r != kNoRow && !doomed[r]) {
      doomed[r] = true;
      ++erased;
    }
  }
  if (erased == 0) return 0;
  // Compact to the survivors, preserving their relative order.
  const std::size_t survivors = num_rows_ - erased;
  for (IdVector& col : columns_) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < num_rows_; ++i) {
      if (!doomed[i]) col[out++] = col[i];
    }
    col.resize(out);
  }
  id_table_.Rebuild(columns_, survivors);
  num_rows_ = survivors;
  // Invalidate every index: row ids shifted, so the incremental
  // built_up_to watermarks are meaningless now. The entries are emptied
  // in place -- NOT erased -- so any outstanding Prepare{Single,}Index
  // view still points at a live map and finds nothing, instead of
  // dangling into freed nodes (the use-after-free the conformance
  // suite's regression test pins down).
  for (auto& [cols, index] : indexes_) {
    index.map.clear();
    index.built_up_to = 0;
  }
  for (auto& [col, index] : single_indexes_) {
    index.map.clear();
    index.built_up_to = 0;
  }
  for (auto& [col, cache] : sorted_keys_) {
    cache.keys.clear();
    cache.built_up_to = 0;
    cache.spans.clear();
  }
  return erased;
}

const std::vector<std::uint32_t>& Relation::SortedKeys(int column,
                                                     RowSpan rows) const {
  rows = Bounds(rows);
  SortedKeyCache& cache = sorted_keys_[column];
  if (rows.begin == 0 && rows.end == num_rows_) {
    if (cache.built_up_to != num_rows_) {
      // Appended (or erased-and-compacted) rows since the last build: a
      // merge of the new ids is no cheaper than re-sorting the column, so
      // rebuild from scratch. The fixpoint engines ask once per round per
      // root probe, on relations that grow by whole deltas. A current
      // single-column index already holds the distinct ids as its keys,
      // so only those are sorted; its keys never have an empty posting
      // list (EraseAll empties the whole map).
      const auto index = single_indexes_.find(column);
      if (index != single_indexes_.end() &&
          index->second.built_up_to == num_rows_) {
        cache.keys.clear();
        cache.keys.reserve(index->second.map.size());
        for (const auto& entry : index->second.map) {
          cache.keys.push_back(entry.first);
        }
        std::sort(cache.keys.begin(), cache.keys.end());
      } else {
        CollectSortedKeys({column}, rows, &cache.keys);
      }
      cache.built_up_to = num_rows_;
    }
    return cache.keys;
  }
  const auto key = std::make_pair(rows.begin, rows.end);
  auto it = cache.spans.find(key);
  if (it != cache.spans.end()) return it->second;
  if (cache.spans_at != num_rows_) {
    // Spans cut at an earlier size belong to a finished round.
    cache.spans.clear();
    cache.spans_at = num_rows_;
  }
  std::vector<std::uint32_t>& keys = cache.spans[key];
  CollectSortedKeys({column}, rows, &keys);
  return keys;
}

void Relation::CollectSortedKeys(const std::vector<int>& columns,
                                 RowSpan rows,
                                 std::vector<std::uint32_t>* out) const {
  out->clear();
  rows = Bounds(rows);
  const IdVector& c0 = columns_[static_cast<std::size_t>(columns[0])];
  for (std::size_t i = rows.begin; i < rows.end; ++i) {
    const std::uint32_t id = c0[i];
    bool ok = true;
    for (std::size_t k = 1; k < columns.size(); ++k) {
      if (columns_[static_cast<std::size_t>(columns[k])][i] != id) {
        ok = false;
        break;
      }
    }
    if (ok) out->push_back(id);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

std::span<const std::uint32_t> Relation::CutPostings(
    const std::vector<std::uint32_t>& postings, RowSpan rows) {
  const std::uint32_t* first = postings.data();
  const std::uint32_t* last = first + postings.size();
  if (first == last) return {};
  auto below = [](std::uint32_t id, std::size_t bound) { return id < bound; };
  if (*first < rows.begin) {
    first = std::lower_bound(first, last, rows.begin, below);
  }
  if (first != last && last[-1] >= rows.end) {
    last = std::lower_bound(first, last, rows.end, below);
  }
  return {first, static_cast<std::size_t>(last - first)};
}

const std::vector<std::uint32_t>& Relation::EmptyRowIds() {
  static const std::vector<std::uint32_t>* const kEmpty =
      new std::vector<std::uint32_t>();
  return *kEmpty;
}

const std::vector<std::uint32_t>& Relation::Lookup(
    const std::vector<int>& columns, const Tuple& key) const {
  if (columns.size() == 1) return Lookup(columns[0], key[0]);
  const MultiIndexView view = PrepareIndex(columns);
  std::vector<std::uint32_t>& ids = IdScratch();
  // A value the dictionary has never seen is in no row.
  if (!ValueDictionary::Global().LookupRow(key, &ids)) return EmptyRowIds();
  return view.FindIds(ids);
}

const std::vector<std::uint32_t>& Relation::Lookup(int column,
                                                   const Value& key) const {
  return PrepareSingleIndex(column).FindId(
      ValueDictionary::Global().LookupId(key));
}

Relation::SingleIndexView Relation::PrepareSingleIndex(int column) const {
  SingleColumnIndex& index = single_indexes_[column];
  ExtendSingleIndex(column, &index);
  return SingleIndexView(&index.map);
}

Relation::MultiIndexView Relation::PrepareIndex(
    const std::vector<int>& columns) const {
  ColumnIndex& index = indexes_[columns];
  ExtendIndex(columns, &index);
  return MultiIndexView(&index.map);
}

void Relation::EnsureIndex(const std::vector<int>& columns) const {
  if (columns.size() == 1) {
    PrepareSingleIndex(columns[0]);
    return;
  }
  PrepareIndex(columns);
}

void Relation::ExtendIndex(const std::vector<int>& columns,
                           ColumnIndex* index) const {
  // Write-free when already current, so concurrent Lookups on an
  // EnsureIndex'd column set never race on built_up_to.
  if (index->built_up_to == num_rows_) return;
  std::vector<std::uint32_t> key(columns.size());
  for (std::size_t i = index->built_up_to; i < num_rows_; ++i) {
    for (std::size_t k = 0; k < columns.size(); ++k) {
      key[k] = columns_[static_cast<std::size_t>(columns[k])][i];
    }
    index->map[key].push_back(static_cast<std::uint32_t>(i));
  }
  index->built_up_to = num_rows_;
}

void Relation::ExtendSingleIndex(int column, SingleColumnIndex* index) const {
  // Write-free when already current (frozen-snapshot contract), like
  // ExtendIndex above.
  if (index->built_up_to == num_rows_) return;
  const IdVector& col = columns_[static_cast<std::size_t>(column)];
  for (std::size_t i = index->built_up_to; i < num_rows_; ++i) {
    index->map[col[i]].push_back(static_cast<std::uint32_t>(i));
  }
  index->built_up_to = num_rows_;
}

}  // namespace datalog
