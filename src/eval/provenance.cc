#include "eval/provenance.h"

#include <unordered_map>
#include <utility>

#include "ast/pretty_print.h"
#include "ast/validate.h"
#include "eval/rule_matcher.h"
#include "util/hash.h"

namespace datalog {
namespace {

struct FactKey {
  PredicateId predicate;
  Tuple fact;

  friend bool operator==(const FactKey& a, const FactKey& b) {
    return a.predicate == b.predicate && a.fact == b.fact;
  }
};

struct FactKeyHash {
  std::size_t operator()(const FactKey& key) const {
    std::size_t seed = std::hash<PredicateId>{}(key.predicate);
    HashCombine(seed, TupleHash{}(key.fact));
    return seed;
  }
};

using ProvenanceMap =
    std::unordered_map<FactKey, std::shared_ptr<const Derivation>,
                       FactKeyHash>;

}  // namespace

Result<Derivation> ExplainFact(const Program& program, const Database& db,
                               PredicateId predicate, const Tuple& fact) {
  DATALOG_RETURN_IF_ERROR(ValidatePositiveProgram(program));

  Database work(db.symbols());
  work.UnionWith(db);
  ProvenanceMap provenance;
  for (PredicateId pred : work.NonEmptyPredicates()) {
    const Relation& rel = work.relation(pred);
    for (RowRef row : rel.rows()) {
      // Every input fact gets its own leaf node, which owns the fact.
      auto node = std::make_shared<Derivation>();
      node->predicate = pred;
      node->fact = Tuple(row);
      Tuple key = node->fact;
      provenance.emplace(FactKey{pred, std::move(key)}, std::move(node));
    }
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t rule_index = 0; rule_index < program.NumRules();
         ++rule_index) {
      const Rule& rule = program.rules()[rule_index];
      std::vector<PlannedAtom> atoms;
      for (const Literal& lit : rule.body()) {
        atoms.push_back(PlannedAtom{lit.atom, AtomSource::kFull});
      }
      // Buffer new conclusions: mutating `work` mid-enumeration would
      // invalidate the matcher's iteration.
      struct Pending {
        Tuple head;
        std::vector<std::shared_ptr<const Derivation>> premises;
      };
      std::vector<Pending> pending;
      MatchAtoms(work, nullptr, atoms,
                 [&](const Binding& binding) {
                   Tuple head = InstantiateHead(rule.head(), binding);
                   if (work.Contains(rule.head().predicate(), head)) {
                     return true;  // already explained
                   }
                   Pending p;
                   p.head = std::move(head);
                   for (const Literal& lit : rule.body()) {
                     Tuple premise = InstantiateHead(lit.atom, binding);
                     p.premises.push_back(provenance.at(
                         FactKey{lit.atom.predicate(), std::move(premise)}));
                   }
                   pending.push_back(std::move(p));
                   return true;
                 },
                 nullptr);
      for (Pending& p : pending) {
        if (!work.AddFact(rule.head().predicate(), p.head)) continue;
        auto node = std::make_shared<Derivation>();
        node->predicate = rule.head().predicate();
        node->fact = p.head;
        node->rule_index = static_cast<int>(rule_index);
        node->premises = std::move(p.premises);
        provenance.emplace(FactKey{rule.head().predicate(), std::move(p.head)},
                           std::move(node));
        changed = true;
      }
    }
  }

  auto it = provenance.find(FactKey{predicate, fact});
  if (it == provenance.end()) {
    return Status::NotFound("fact is not derivable from the given database");
  }
  return *it->second;
}

namespace {

void Render(const Derivation& node, const SymbolTable& symbols, int depth,
            std::string* out) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  *out += symbols.PredicateName(node.predicate);
  if (!node.fact.empty()) {
    *out += '(';
    for (std::size_t i = 0; i < node.fact.size(); ++i) {
      if (i != 0) *out += ", ";
      *out += ToString(node.fact[i], symbols);
    }
    *out += ')';
  }
  if (node.IsInputFact()) {
    *out += "   [input]\n";
  } else {
    *out += "   [rule " + std::to_string(node.rule_index) + "]\n";
  }
  for (const auto& premise : node.premises) {
    Render(*premise, symbols, depth + 1, out);
  }
}

}  // namespace

std::string ToString(const Derivation& derivation,
                     const SymbolTable& symbols) {
  std::string out;
  Render(derivation, symbols, 0, &out);
  return out;
}

}  // namespace datalog
