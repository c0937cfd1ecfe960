#include "server/snapshot_query.h"

#include <algorithm>
#include <utility>

#include "ast/pretty_print.h"

namespace datalog {

namespace {

/// True when `row` matches `pattern`: constants agree positionally and
/// repeated variables bind consistently.
bool RowMatches(const Atom& pattern, RowRef row) {
  const std::vector<Term>& args = pattern.args();
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Term& t = args[i];
    if (t.is_constant()) {
      if (t.value() != row[i]) return false;
      continue;
    }
    // Repeated variable: every later occurrence must carry the same value
    // as the first. Arities are tiny, so the quadratic probe is cheaper
    // than building a binding map per row.
    for (std::size_t j = 0; j < i; ++j) {
      if (args[j].is_variable() && args[j].var() == t.var() &&
          row[j] != row[i]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Result<std::vector<Tuple>> QuerySnapshot(const Database& db,
                                         const Atom& pattern,
                                         MatchStats* stats) {
  const int arity = db.symbols()->PredicateArity(pattern.predicate());
  if (arity != pattern.arity()) {
    return Status::InvalidArgument(
        "query arity " + std::to_string(pattern.arity()) +
        " does not match predicate " +
        db.symbols()->PredicateName(pattern.predicate()) + "/" +
        std::to_string(arity));
  }
  const Relation& rel = db.relation(pattern.predicate());
  std::vector<Tuple> out;
  if (rel.empty()) return out;

  // Probe the prebuilt single-column index of the first bound column;
  // fall back to a full scan for all-variable patterns. Either way the
  // surviving candidates are filtered positionally, so nothing here
  // builds or extends an index -- the property that makes concurrent
  // queries over one snapshot safe.
  int probe_column = -1;
  for (std::size_t i = 0; i < pattern.args().size(); ++i) {
    if (pattern.args()[i].is_constant()) {
      probe_column = static_cast<int>(i);
      break;
    }
  }
  if (probe_column >= 0) {
    const std::vector<std::uint32_t>& row_ids =
        rel.Lookup(probe_column, pattern.args()[
            static_cast<std::size_t>(probe_column)].value());
    if (stats != nullptr) {
      ++stats->index_lookups;
      stats->tuples_scanned += row_ids.size();
    }
    for (std::uint32_t row_id : row_ids) {
      const RowRef row = rel.row(row_id);
      if (RowMatches(pattern, row)) out.push_back(Tuple(row));
    }
  } else {
    if (stats != nullptr) {
      ++stats->index_lookups;  // counted as one (scan) probe, like a plan
      stats->tuples_scanned += rel.size();
    }
    for (RowRef row : rel.rows()) {
      if (RowMatches(pattern, row)) out.push_back(Tuple(row));
    }
  }
  std::sort(out.begin(), out.end());
  if (stats != nullptr) stats->substitutions += out.size();
  return out;
}

std::string RenderAnswers(PredicateId pred, const std::vector<Tuple>& tuples,
                          const SymbolTable& symbols) {
  std::string out;
  const std::string& name = symbols.PredicateName(pred);
  for (const Tuple& tuple : tuples) {
    out += name;
    if (!tuple.empty()) {
      out += "(";
      for (std::size_t i = 0; i < tuple.size(); ++i) {
        if (i != 0) out += ", ";
        out += ToString(tuple[i], symbols);
      }
      out += ")";
    }
    out += ".\n";
  }
  return out;
}

}  // namespace datalog
