#include "incr/materialized_view.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <unordered_set>

#include "ast/dependence_graph.h"
#include "ast/validate.h"
#include "eval/compiled_rule.h"
#include "eval/parallel.h"
#include "eval/rule_matcher.h"
#include "eval/seminaive.h"
#include "obs/stats_export.h"
#include "obs/trace.h"

namespace datalog {

namespace {

/// Materializes every row of `rel` as an owning Tuple, in row order.
std::vector<Tuple> TuplesOf(const Relation& rel) {
  std::vector<Tuple> tuples;
  tuples.reserve(rel.size());
  for (RowRef row : rel.rows()) tuples.emplace_back(row);
  return tuples;
}

/// The distinct variables of `head`, in order of first occurrence.
std::vector<VariableId> HeadVariables(const Atom& head) {
  std::vector<VariableId> vars;
  for (const Term& t : head.args()) {
    if (t.is_variable() &&
        std::find(vars.begin(), vars.end(), t.var()) == vars.end()) {
      vars.push_back(t.var());
    }
  }
  return vars;
}

/// Unifies a stored row with a rule head, writing the id of
/// `head_vars[i]` into frame slot i (where CompileAtoms put the variables
/// bound before the first atom). Fails on a constant mismatch or an
/// inconsistent repeated variable.
bool BindHead(const Atom& head, const std::vector<VariableId>& head_vars,
              RowRef fact, MatchFrame* frame) {
  std::size_t written = 0;  // slots [0, written) hold their variables
  for (std::size_t i = 0; i < fact.size(); ++i) {
    const Term& t = head.args()[i];
    if (t.is_constant()) {
      if (t.value() != fact[i]) return false;
      continue;
    }
    const auto slot = static_cast<std::size_t>(
        std::find(head_vars.begin(), head_vars.end(), t.var()) -
        head_vars.begin());
    if (slot == written) {
      frame->slots[slot] = fact.id(i);
      ++written;
    } else if (frame->slots[slot] != fact.id(i)) {
      return false;
    }
  }
  return true;
}

/// One rule's DRed rederivation check for a sweep: its positive body
/// compiled with the head's variables (in first-occurrence order) bound
/// before the first atom.
struct RederivePlan {
  const Rule* rule;
  std::vector<VariableId> head_vars;
  CompiledRule plan;
};

/// The rederivation plans of `rules`, whose atoms over an SCC predicate
/// (`scc_preds`) read the survivors: `view` minus `over` plus
/// `rederived`. Lower predicates are final already and read `view`.
std::vector<RederivePlan> PlanRederive(
    const std::vector<Rule>& rules, const std::vector<PredicateId>& scc_preds,
    const Database& view, const Database& over, const Database& rederived) {
  std::vector<RederivePlan> plans;
  for (const Rule& rule : rules) {
    if (rule.IsFact()) continue;
    std::vector<PlannedAtom> atoms =
        BuildDeltaPassAtoms(rule, rule.body().size(), /*use_old=*/false);
    for (PlannedAtom& atom : atoms) {
      if (std::find(scc_preds.begin(), scc_preds.end(),
                    atom.atom.predicate()) != scc_preds.end()) {
        atom.minus = &over;
        atom.plus = &rederived;
      }
    }
    RederivePlan rp{&rule, HeadVariables(rule.head()), CompiledRule()};
    rp.plan = CompiledRule::CompileAtoms(std::move(atoms), view,
                                         /*ranges=*/nullptr, rp.head_vars);
    plans.push_back(std::move(rp));
  }
  return plans;
}

/// DRed rederivation: true if `fact` has a derivation over `view` via
/// one of `plans`. Read-only on the databases once the plans'
/// EnsureIndexes ran, so a sweep's checks can run concurrently.
bool CanRederive(const std::vector<RederivePlan>& plans, const Database& view,
                 PredicateId pred, RowRef fact, MatchStats* stats) {
  for (const RederivePlan& rp : plans) {
    if (rp.rule->head().predicate() != pred) continue;
    MatchFrame frame(rp.plan);
    if (!BindHead(rp.rule->head(), rp.head_vars, fact, &frame)) continue;
    bool found = false;
    rp.plan.Execute(view, /*ranges=*/nullptr, &frame, stats,
                    [&found](const MatchFrame&) {
                      found = true;
                      return false;  // one derivation suffices
                    });
    if (found) return true;
  }
  return false;
}

}  // namespace

void CommitStats::Add(const CommitStats& other) {
  base_inserted += other.base_inserted;
  base_retracted += other.base_retracted;
  derived_added += other.derived_added;
  derived_removed += other.derived_removed;
  overdeleted += other.overdeleted;
  rederived += other.rederived;
  rule_applications += other.rule_applications;
  sccs_touched += other.sccs_touched;
  sccs_recomputed += other.sccs_recomputed;
  match.Add(other.match);
  recompute.Add(other.recompute);
}

std::string CommitStats::ToString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "base +%llu -%llu | view +%llu -%llu | overdeleted %llu, "
      "rederived %llu | %llu joins, %d sccs touched (%d recomputed)",
      static_cast<unsigned long long>(base_inserted),
      static_cast<unsigned long long>(base_retracted),
      static_cast<unsigned long long>(derived_added),
      static_cast<unsigned long long>(derived_removed),
      static_cast<unsigned long long>(overdeleted),
      static_cast<unsigned long long>(rederived),
      static_cast<unsigned long long>(TotalSubstitutions()), sccs_touched,
      sccs_recomputed);
  return buf;
}

MaterializedView::MaterializedView(Program program, Database edb,
                                   IncrOptions options)
    : program_(std::move(program)),
      symbols_(program_.symbols()),
      base_(std::move(edb)),
      program_facts_(symbols_),
      db_(symbols_),
      delta_plus_(symbols_),
      delta_minus_(symbols_) {
  std::size_t threads = options.num_threads == 0
                            ? std::max(1u, std::thread::hardware_concurrency())
                            : options.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
}

Result<MaterializedView> MaterializedView::Create(Program program,
                                                  Database edb,
                                                  IncrOptions options) {
  if (program.symbols() != edb.symbols()) {
    return Status::InvalidArgument(
        "program and database must share a symbol table");
  }
  DATALOG_RETURN_IF_ERROR(ValidateProgram(program));
  MaterializedView view(std::move(program), std::move(edb), options);
  DATALOG_RETURN_IF_ERROR(view.Initialize());
  return view;
}

Status MaterializedView::Initialize() {
  DependenceGraph graph(program_);
  // Only the stratifiability check is needed here; updates run SCC by
  // SCC, which refines any stratification.
  DATALOG_RETURN_IF_ERROR(graph.Stratify().status());

  // One plan per SCC of head predicates, dependencies first.
  for (const RuleGroup& group : SccRuleGroups(program_, graph)) {
    SccPlan plan;
    for (std::size_t i : group.rules) plan.rules.push_back(program_.rules()[i]);
    std::set<PredicateId> preds;
    bool negated = false;
    bool recursive = false;
    for (const Rule& rule : plan.rules) {
      preds.insert(rule.head().predicate());
      for (const Literal& lit : rule.body()) negated |= lit.negated;
      recursive = recursive || graph.IsRuleRecursive(rule);
      if (rule.IsFact()) {
        Tuple t;
        for (const Term& term : rule.head().args()) t.push_back(term.value());
        program_facts_.AddFact(rule.head().predicate(), std::move(t));
      }
    }
    plan.preds.assign(preds.begin(), preds.end());
    plan.kind = negated      ? SccKind::kRecompute
                : recursive  ? SccKind::kDRed
                             : SccKind::kCounting;
    plans_.push_back(std::move(plan));
  }

  // Initial materialization, SCC by SCC (negated predicates are always in
  // strictly earlier SCCs, so each fixpoint sees them completed).
  db_.UnionWith(base_);
  for (const SccPlan& plan : plans_) {
    EvalStats stats =
        pool_ != nullptr
            ? RunSemiNaiveFixpointParallel(plan.rules, &db_, pool_.get())
            : RunSemiNaiveFixpoint(plan.rules, &db_);
    stats.per_rule.clear();  // plan-local indexing; meaningless here
    initial_stats_.Add(stats);
    if (plan.kind == SccKind::kCounting) InitializeCounts(plan);
  }
  return Status::OK();
}

void MaterializedView::InitializeCounts(const SccPlan& plan) {
  PredicateId p = plan.preds.front();
  FactCounts& counts = counts_[p];
  for (RowRef t : base_.relation(p).rows()) ++counts[Tuple(t)];
  for (RowRef t : program_facts_.relation(p).rows()) ++counts[Tuple(t)];
  for (const Rule& rule : plan.rules) {
    if (rule.IsFact()) continue;
    MatchAtoms(
        db_, /*ranges=*/nullptr,
        BuildDeltaPassAtoms(rule, /*delta_pos=*/rule.body().size(),
                            /*use_old=*/false),
        [&](const Binding& b) {
          ++counts[InstantiateHead(rule.head(), b)];
          return true;
        },
        &initial_stats_.match);
  }
}

bool MaterializedView::IsPinned(PredicateId pred, const Tuple& fact) const {
  return base_.Contains(pred, fact) || program_facts_.Contains(pred, fact);
}

bool MaterializedView::InScc(const SccPlan& plan, PredicateId pred) const {
  return std::find(plan.preds.begin(), plan.preds.end(), pred) !=
         plan.preds.end();
}

void MaterializedView::RecordAdd(PredicateId pred, const Tuple& fact) {
  if (delta_minus_.Contains(pred, fact)) {
    delta_minus_.EraseFacts(pred, {fact});
  } else {
    delta_plus_.AddFact(pred, fact);
  }
}

void MaterializedView::RecordRemove(PredicateId pred, const Tuple& fact) {
  if (delta_plus_.Contains(pred, fact)) {
    delta_plus_.EraseFacts(pred, {fact});
  } else {
    delta_minus_.AddFact(pred, fact);
  }
}

bool MaterializedView::PlanTouched(const SccPlan& plan,
                                   const Database& base_plus,
                                   const Database& base_minus) const {
  for (PredicateId pred : plan.preds) {
    if (!base_plus.relation(pred).empty()) return true;
    if (!base_minus.relation(pred).empty()) return true;
  }
  for (const Rule& rule : plan.rules) {
    for (const Literal& lit : rule.body()) {
      PredicateId pred = lit.atom.predicate();
      if (!delta_plus_.relation(pred).empty()) return true;
      if (!delta_minus_.relation(pred).empty()) return true;
    }
  }
  return false;
}

void MaterializedView::UpdateExtensional(const Database& base_plus,
                                         const Database& base_minus,
                                         CommitStats* stats) {
  (void)stats;
  for (PredicateId pred : base_minus.NonEmptyPredicates()) {
    if (program_.IsIntentional(pred)) continue;
    std::vector<Tuple> removed;
    for (RowRef row : base_minus.relation(pred).rows()) {
      if (db_.Contains(pred, row) && !program_facts_.Contains(pred, row)) {
        removed.emplace_back(row);
        RecordRemove(pred, removed.back());
      }
    }
    db_.EraseFacts(pred, removed);
  }
  for (PredicateId pred : base_plus.NonEmptyPredicates()) {
    if (program_.IsIntentional(pred)) continue;
    for (RowRef row : base_plus.relation(pred).rows()) {
      Tuple t(row);
      if (db_.AddFact(pred, t)) RecordAdd(pred, t);
    }
  }
}

void MaterializedView::UpdateCounting(const SccPlan& plan,
                                      const Database& base_plus,
                                      const Database& base_minus,
                                      CommitStats* stats) {
  PredicateId p = plan.preds.front();
  FactCounts& counts = counts_[p];
  FactCounts delta_counts;

  // Derivation-count changes from the body predicates (all of which lie
  // in earlier SCCs and are already at their new state in the view).
  // Deletion passes count derivations lost, enumerated in the old state
  // (position q from Δ−, earlier positions from old \ Δ− = view \ Δ+,
  // later positions from old = (view \ Δ+) ∪ Δ−); insertion passes count
  // derivations gained, enumerated in the new state. Each changed
  // derivation is counted exactly once, at its first delta position.
  auto run_passes = [&](const Database& delta, bool deletion) {
    const DeltaRanges ranges = DeltaRanges::Whole(delta, /*use_old=*/false);
    for (const Rule& rule : plan.rules) {
      if (rule.IsFact()) continue;
      const std::vector<Atom> atoms = rule.PositiveBodyAtoms();
      for (std::size_t q = 0; q < atoms.size(); ++q) {
        if (delta.relation(atoms[q].predicate()).empty()) continue;
        ++stats->rule_applications;
        std::vector<PlannedAtom> planned(atoms.size());
        for (std::size_t j = 0; j < atoms.size(); ++j) {
          planned[j].atom = atoms[j];
          if (j == q) {
            planned[j].source = AtomSource::kDelta;
          } else {
            if (j < q || deletion) planned[j].minus = &delta_plus_;
            if (j > q && deletion) planned[j].plus = &delta_minus_;
          }
        }
        const std::int64_t sign = deletion ? -1 : +1;
        MatchAtoms(
            db_, &ranges, planned,
            [&](const Binding& b) {
              delta_counts[InstantiateHead(rule.head(), b)] += sign;
              return true;
            },
            &stats->match);
      }
    }
  };
  run_passes(delta_minus_, /*deletion=*/true);
  run_passes(delta_plus_, /*deletion=*/false);

  // Base-fact support.
  for (RowRef t : base_minus.relation(p).rows()) delta_counts[Tuple(t)] -= 1;
  for (RowRef t : base_plus.relation(p).rows()) delta_counts[Tuple(t)] += 1;

  std::vector<Tuple> removed;
  for (auto& [tuple, change] : delta_counts) {
    if (change == 0) continue;
    auto it = counts.find(tuple);
    std::int64_t old_count = it == counts.end() ? 0 : it->second;
    // A negative result would indicate a maintenance bug; clamp at zero
    // so the view degrades to missing counts rather than corruption.
    std::int64_t new_count = std::max<std::int64_t>(0, old_count + change);
    if (new_count == 0) {
      if (it != counts.end()) counts.erase(it);
    } else if (it == counts.end()) {
      counts.emplace(tuple, new_count);
    } else {
      it->second = new_count;
    }
    if (old_count > 0 && new_count == 0) {
      removed.push_back(tuple);
      RecordRemove(p, tuple);
    } else if (old_count == 0 && new_count > 0) {
      db_.AddFact(p, tuple);
      RecordAdd(p, tuple);
    }
  }
  db_.EraseFacts(p, removed);
}

void MaterializedView::UpdateDRed(const SccPlan& plan,
                                  const Database& base_plus,
                                  const Database& base_minus,
                                  CommitStats* stats) {
  // --- Overdeletion: every fact of this SCC some derivation of which
  // used a deleted fact, found by semi-naive delta rounds over the OLD
  // state. The view still holds the old state for this SCC; for lower
  // predicates the old state is (view \ Δ+) ∪ Δ−.
  Database over(symbols_);
  Database round(symbols_);
  round.UnionWith(delta_minus_);
  for (PredicateId pred : plan.preds) {
    for (RowRef row : base_minus.relation(pred).rows()) {
      Tuple t(row);
      if (db_.Contains(pred, t) && !IsPinned(pred, t) &&
          over.AddFact(pred, t)) {
        round.AddFact(pred, std::move(t));
      }
    }
  }
  while (!round.empty()) {
    Database next(symbols_);
    const DeltaRanges ranges = DeltaRanges::Whole(round, /*use_old=*/false);
    for (const Rule& rule : plan.rules) {
      if (rule.IsFact()) continue;
      const std::vector<Atom> atoms = rule.PositiveBodyAtoms();
      PredicateId head_pred = rule.head().predicate();
      for (std::size_t q = 0; q < atoms.size(); ++q) {
        if (round.relation(atoms[q].predicate()).empty()) continue;
        ++stats->rule_applications;
        std::vector<PlannedAtom> planned(atoms.size());
        for (std::size_t j = 0; j < atoms.size(); ++j) {
          planned[j].atom = atoms[j];
          if (j == q) {
            planned[j].source = AtomSource::kDelta;
          } else if (!InScc(plan, atoms[j].predicate())) {
            planned[j].minus = &delta_plus_;
            planned[j].plus = &delta_minus_;
          }
        }
        MatchAtoms(
            db_, &ranges, planned,
            [&](const Binding& b) {
              Tuple t = InstantiateHead(rule.head(), b);
              if (db_.Contains(head_pred, t) &&
                  !over.Contains(head_pred, t) && !IsPinned(head_pred, t)) {
                over.AddFact(head_pred, t);
                next.AddFact(head_pred, t);
              }
              return true;
            },
            &stats->match);
      }
    }
    round = std::move(next);
  }
  stats->overdeleted += over.NumFacts();

  // --- Rederivation: an overdeleted fact survives if some rule still
  // derives it from surviving facts. Sweeps run until a fixpoint, each
  // with one plan per rule, compiled with the head's variables bound;
  // with a worker pool each sweep checks its candidates concurrently
  // against a frozen snapshot (the plans' indexes pre-built, rederived
  // set copied), mirroring the parallel evaluator's round structure.
  Database rederived(symbols_);
  bool progress = true;
  while (progress && rederived.NumFacts() < over.NumFacts()) {
    progress = false;
    // Rows of `over`, which the sweep does not change.
    std::vector<std::pair<PredicateId, RowRef>> candidates;
    for (PredicateId pred : over.NonEmptyPredicates()) {
      for (RowRef row : over.relation(pred).rows()) {
        if (!rederived.Contains(pred, row)) candidates.emplace_back(pred, row);
      }
    }
    if (candidates.empty()) break;
    if (pool_ != nullptr && candidates.size() > 1) {
      Database frozen(symbols_);
      frozen.UnionWith(rederived);
      const std::vector<RederivePlan> plans =
          PlanRederive(plan.rules, plan.preds, db_, over, frozen);
      // Pre-build every index the plans can probe so the concurrent
      // checks are pure reads on the shared relations.
      for (const RederivePlan& rp : plans) {
        rp.plan.EnsureIndexes(db_, /*ranges=*/nullptr);
      }
      std::vector<char> ok(candidates.size(), 0);
      std::vector<MatchStats> task_stats(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        pool_->Submit([this, &plans, &candidates, &ok, &task_stats, i] {
          ok[i] = CanRederive(plans, db_, candidates[i].first,
                              candidates[i].second, &task_stats[i])
                      ? 1
                      : 0;
        });
      }
      pool_->Wait();
      for (const MatchStats& s : task_stats) stats->match.Add(s);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (ok[i] != 0) {
          rederived.AddFact(candidates[i].first, Tuple(candidates[i].second));
          progress = true;
        }
      }
    } else {
      const std::vector<RederivePlan> plans =
          PlanRederive(plan.rules, plan.preds, db_, over, rederived);
      for (const auto& [pred, row] : candidates) {
        if (CanRederive(plans, db_, pred, row, &stats->match)) {
          rederived.AddFact(pred, Tuple(row));
          progress = true;
        }
      }
    }
  }
  stats->rederived += rederived.NumFacts();

  // --- Apply the net deletions.
  for (PredicateId pred : over.NonEmptyPredicates()) {
    std::vector<Tuple> removed;
    for (RowRef row : over.relation(pred).rows()) {
      if (!rederived.Contains(pred, row)) {
        removed.emplace_back(row);
        RecordRemove(pred, removed.back());
      }
    }
    db_.EraseFacts(pred, removed);
  }

  // --- Insertions: continue the semi-naive fixpoint from the new state,
  // seeded with the lower predicates' Δ+ and this SCC's new base facts.
  // This is the existing delta machinery (ApplyRuleWithDelta +
  // watermarks) driven by an external delta: the first round reads that
  // seed whole, as its own database (Δ+ need not be a row suffix of the
  // view); every later round reads the rows the previous one appended to
  // the view, in place.
  Database seed(symbols_);
  seed.UnionWith(delta_plus_);
  for (PredicateId pred : plan.preds) {
    for (RowRef row : base_plus.relation(pred).rows()) {
      Tuple t(row);
      if (db_.AddFact(pred, t)) {
        RecordAdd(pred, t);
        seed.AddFact(pred, std::move(t));
      }
    }
  }
  CompiledRuleCache insert_cache;  // plans persist across delta rounds
  DeltaRanges ranges = DeltaRanges::Whole(seed, /*use_old=*/false);
  while (!ranges.empty()) {
    bool delta_used = false;
    const Watermarks marks = TakeWatermarks(db_);
    for (std::size_t ri = 0; ri < plan.rules.size(); ++ri) {
      const Rule& rule = plan.rules[ri];
      if (rule.IsFact()) continue;
      for (std::size_t q = 0; q < rule.body().size(); ++q) {
        if (ranges.delta(rule.body()[q].atom.predicate()).empty()) continue;
        ++stats->recompute.rule_applications;
        delta_used = true;
        MatchStats local;
        std::size_t added = ApplyRuleWithDelta(
            rule, db_, ranges, q,
            &db_.MutableRelation(rule.head().predicate()), &local,
            &insert_cache, ri);
        stats->recompute.match.Add(local);
        stats->recompute.facts_derived += added;
      }
    }
    if (!delta_used) break;  // delta only touches predicates no rule reads
    ++stats->recompute.iterations;
    ranges = RangesSince(db_, marks, /*use_old=*/false);
    for (PredicateId pred : db_.NonEmptyPredicates()) {
      const RowSpan fresh = ranges.delta(pred);
      const Relation& rel = db_.relation(pred);
      for (std::size_t i = fresh.begin; i < fresh.end; ++i) {
        RecordAdd(pred, Tuple(rel.row(i)));
      }
    }
  }
}

void MaterializedView::UpdateRecompute(const SccPlan& plan,
                                       CommitStats* stats) {
  ++stats->sccs_recomputed;
  // Negation makes deletion propagation non-monotonic (an insertion below
  // can delete here and vice versa), so recompute just this SCC from its
  // final inputs: every body predicate outside the SCC -- positive or
  // negated -- lies in an earlier SCC and is already at its new state.
  std::map<PredicateId, std::vector<Tuple>> old_rows;
  for (PredicateId pred : plan.preds) {
    old_rows[pred] = TuplesOf(db_.relation(pred));
    db_.ClearRelation(pred);
    const Relation& base = base_.relation(pred);
    db_.AddRowRange(pred, base, 0, base.size());
  }
  EvalStats run =
      pool_ != nullptr
          ? RunSemiNaiveFixpointParallel(plan.rules, &db_, pool_.get())
          : RunSemiNaiveFixpoint(plan.rules, &db_);
  run.per_rule.clear();
  stats->recompute.Add(run);
  for (auto& [pred, rows] : old_rows) {
    std::unordered_set<Tuple, TupleHash> old_set(rows.begin(), rows.end());
    for (const Tuple& t : rows) {
      if (!db_.Contains(pred, t)) RecordRemove(pred, t);
    }
    for (RowRef row : db_.relation(pred).rows()) {
      Tuple t(row);
      if (!old_set.contains(t)) RecordAdd(pred, t);
    }
  }
}

Result<CommitStats> MaterializedView::Apply(
    const std::vector<std::pair<PredicateId, Tuple>>& inserts,
    const std::vector<std::pair<PredicateId, Tuple>>& retracts) {
  TraceSpan span("incr/commit");
  CommitStats stats;
  // Net the batch against the current base: retracting an absent fact or
  // inserting a present one is a no-op.
  Database base_plus(symbols_);
  Database base_minus(symbols_);
  for (const auto& [pred, tuple] : retracts) {
    if (base_.Contains(pred, tuple)) base_minus.AddFact(pred, tuple);
  }
  for (const auto& [pred, tuple] : inserts) {
    if (!base_.Contains(pred, tuple)) base_plus.AddFact(pred, tuple);
  }
  stats.base_inserted = base_plus.NumFacts();
  stats.base_retracted = base_minus.NumFacts();
  if (base_plus.empty() && base_minus.empty()) {
    RecordCommitStats("incr", stats);
    return stats;
  }

  for (PredicateId pred : base_minus.NonEmptyPredicates()) {
    base_.EraseFacts(pred, TuplesOf(base_minus.relation(pred)));
  }
  base_.UnionWith(base_plus);

  delta_plus_ = Database(symbols_);
  delta_minus_ = Database(symbols_);

  // Purely extensional predicates change exactly as the base does; their
  // deltas then drive the SCC plans in dependency order.
  UpdateExtensional(base_plus, base_minus, &stats);
  for (std::size_t pi = 0; pi < plans_.size(); ++pi) {
    const SccPlan& plan = plans_[pi];
    if (!PlanTouched(plan, base_plus, base_minus)) continue;
    ++stats.sccs_touched;
    switch (plan.kind) {
      case SccKind::kCounting: {
        TraceSpan scc_span("incr/counting");
        scc_span.Note("scc", pi);
        UpdateCounting(plan, base_plus, base_minus, &stats);
        break;
      }
      case SccKind::kDRed: {
        TraceSpan scc_span("incr/dred");
        scc_span.Note("scc", pi);
        UpdateDRed(plan, base_plus, base_minus, &stats);
        break;
      }
      case SccKind::kRecompute: {
        TraceSpan scc_span("incr/recompute");
        scc_span.Note("scc", pi);
        UpdateRecompute(plan, &stats);
        break;
      }
    }
  }
  stats.derived_added = delta_plus_.NumFacts();
  stats.derived_removed = delta_minus_.NumFacts();
  if (span.active()) {
    span.Note("base_inserted", stats.base_inserted);
    span.Note("base_retracted", stats.base_retracted);
    span.Note("derived_added", stats.derived_added);
    span.Note("derived_removed", stats.derived_removed);
    span.Note("overdeleted", stats.overdeleted);
    span.Note("rederived", stats.rederived);
    span.Note("sccs_touched", static_cast<std::uint64_t>(stats.sccs_touched));
  }
  RecordCommitStats("incr", stats);
  return stats;
}

Transaction MaterializedView::Begin() { return Transaction(this); }

Status Transaction::Buffer(bool insert, PredicateId pred, Tuple tuple) {
  if (!active_) {
    return Status::InvalidArgument("transaction is no longer active");
  }
  int arity = view_->symbols()->PredicateArity(pred);
  if (arity != static_cast<int>(tuple.size())) {
    return Status::InvalidArgument("arity mismatch for predicate " +
                                   view_->symbols()->PredicateName(pred));
  }
  ops_.push_back(Op{insert, pred, std::move(tuple)});
  return Status::OK();
}

Status Transaction::Buffer(bool insert, const Atom& fact) {
  if (!fact.IsGround()) {
    return Status::InvalidArgument("only ground atoms can be asserted");
  }
  Tuple tuple;
  tuple.reserve(fact.args().size());
  for (const Term& t : fact.args()) tuple.push_back(t.value());
  return Buffer(insert, fact.predicate(), std::move(tuple));
}

Status Transaction::Insert(PredicateId pred, Tuple tuple) {
  return Buffer(true, pred, std::move(tuple));
}
Status Transaction::Insert(const Atom& fact) { return Buffer(true, fact); }
Status Transaction::Retract(PredicateId pred, Tuple tuple) {
  return Buffer(false, pred, std::move(tuple));
}
Status Transaction::Retract(const Atom& fact) { return Buffer(false, fact); }

Result<CommitStats> Transaction::Commit() {
  if (!active_) {
    return Status::InvalidArgument("transaction is no longer active");
  }
  active_ = false;
  // Net the ops: the last operation on a fact wins.
  std::map<PredicateId, std::unordered_map<Tuple, bool, TupleHash>> net;
  for (Op& op : ops_) {
    net[op.pred][std::move(op.tuple)] = op.insert;
  }
  ops_.clear();
  std::vector<std::pair<PredicateId, Tuple>> inserts;
  std::vector<std::pair<PredicateId, Tuple>> retracts;
  for (auto& [pred, facts] : net) {
    for (auto& [tuple, is_insert] : facts) {
      (is_insert ? inserts : retracts).emplace_back(pred, tuple);
    }
  }
  return view_->Apply(inserts, retracts);
}

void Transaction::Abort() {
  ops_.clear();
  active_ = false;
}

}  // namespace datalog
