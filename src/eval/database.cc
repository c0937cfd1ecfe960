#include "eval/database.h"

#include <algorithm>

#include "ast/parser.h"
#include "ast/pretty_print.h"

namespace datalog {

Relation& Database::MutableRelation(PredicateId pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_
             .emplace(pred, Relation(symbols_->PredicateArity(pred)))
             .first;
  }
  return it->second;
}

bool Database::AddFact(PredicateId pred, Tuple tuple) {
  return MutableRelation(pred).Insert(std::move(tuple));
}

std::size_t Database::AddRowRange(PredicateId pred, const Relation& rel,
                                  std::size_t begin, std::size_t end) {
  if (begin >= end) return 0;
  return MutableRelation(pred).AddRowRange(rel, begin, end);
}

Status Database::AddAtom(const Atom& atom) {
  Tuple tuple;
  tuple.reserve(atom.args().size());
  for (const Term& t : atom.args()) {
    if (t.is_variable()) {
      return Status::InvalidArgument("cannot add non-ground atom to database");
    }
    tuple.push_back(t.value());
  }
  AddFact(atom.predicate(), std::move(tuple));
  return Status::OK();
}

std::size_t Database::EraseFacts(PredicateId pred,
                                 const std::vector<Tuple>& tuples) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return 0;
  return it->second.EraseAll(tuples);
}

std::size_t Database::ClearRelation(PredicateId pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) return 0;
  std::size_t n = it->second.size();
  it->second = Relation(it->second.arity());
  return n;
}

bool Database::Contains(PredicateId pred, const RowRef& row) const {
  auto it = relations_.find(pred);
  return it != relations_.end() && it->second.Contains(row);
}

const Relation& Database::relation(PredicateId pred) const {
  static const Relation* const kEmpty = new Relation(0);
  auto it = relations_.find(pred);
  return it == relations_.end() ? *kEmpty : it->second;
}

std::vector<PredicateId> Database::NonEmptyPredicates() const {
  std::vector<PredicateId> preds;
  for (const auto& [pred, rel] : relations_) {
    if (!rel.empty()) preds.push_back(pred);
  }
  std::sort(preds.begin(), preds.end());
  return preds;
}

std::size_t Database::NumFacts() const {
  std::size_t n = 0;
  for (const auto& [pred, rel] : relations_) {
    n += rel.size();
  }
  return n;
}

std::size_t Database::UnionWith(const Database& other) {
  std::size_t added = 0;
  for (const auto& [pred, rel] : other.relations_) {
    // Id-space copy -- a bulk column copy into a relation this database
    // did not have yet.
    added += AddRowRange(pred, rel, 0, rel.size());
  }
  return added;
}

bool Database::IsSubsetOf(const Database& other) const {
  for (const auto& [pred, rel] : relations_) {
    for (RowRef row : rel.rows()) {
      if (!other.Contains(pred, row)) return false;
    }
  }
  return true;
}

std::string Database::ToString() const {
  std::vector<std::string> lines;
  for (const auto& [pred, rel] : relations_) {
    for (RowRef row : rel.rows()) {
      std::string line = symbols_->PredicateName(pred);
      if (!row.empty()) {
        line += "(";
        for (std::size_t i = 0; i < row.size(); ++i) {
          if (i != 0) line += ", ";
          line += datalog::ToString(row[i], *symbols_);
        }
        line += ")";
      }
      line += ".";
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

Result<Database> ParseDatabase(std::shared_ptr<SymbolTable> symbols,
                               std::string_view text) {
  Parser parser(symbols);
  DATALOG_ASSIGN_OR_RETURN(FactRows facts, parser.ParseFactRows(text));
  Database db(std::move(symbols));
  ValueDictionary& dict = ValueDictionary::Global();
  const Value* values = facts.values.data();
  IdRowBuffer run;
  const std::size_t num_facts = facts.predicates.size();
  for (std::size_t begin = 0, end = 0; begin < num_facts; begin = end) {
    const PredicateId pred = facts.predicates[begin];
    end = begin + 1;
    while (end < num_facts && facts.predicates[end] == pred) ++end;
    Relation& rel = db.MutableRelation(pred);
    run.count = end - begin;
    run.ids.resize(run.count * static_cast<std::size_t>(rel.arity()));
    dict.InternRow(values, run.ids.size(), run.ids.data());
    values += run.ids.size();
    rel.InsertIdRows(run);
  }
  return db;
}

}  // namespace datalog
