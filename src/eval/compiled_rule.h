#ifndef DATALOG_EVAL_COMPILED_RULE_H_
#define DATALOG_EVAL_COMPILED_RULE_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/rule.h"
#include "eval/bytecode/bytecode.h"
#include "eval/database.h"
#include "eval/hypergraph.h"
#include "eval/rule_matcher.h"
#include "util/interning.h"

namespace datalog {

class CompiledRule;

/// One body atom compiled against a fixed join order. Every argument
/// position is classified once, at compile time:
///   - constants sit pre-filled, as dictionary ids, in
///     `key_template_ids`,
///   - variables bound by earlier atoms are key positions patched from
///     the frame per probe (`key_fill`; the template holds kInvalidId
///     there),
///   - the first occurrence of a free variable writes its frame slot
///     (`writes`),
///   - a repeated occurrence within the same atom is a row-local column
///     pair (`id_checks`: first-occurrence column, repeat column) that
///     must hold the same id.
/// The enumeration loop therefore does no per-row classification, no
/// hash-map binding churn, and no per-probe key allocation.
struct CompiledAtomStep {
  struct KeyFill {
    int key_index;  // position in the key buffer
    int slot;       // frame slot providing the id
  };
  struct SlotRef {
    int col;   // column of the matched row
    int slot;  // frame slot written
  };

  PredicateId predicate = 0;
  int arity = 0;
  AtomSource source = AtomSource::kFull;
  const Database* minus = nullptr;  // PlannedAtom's parts; null when none
  const Database* plus = nullptr;
  std::vector<int> key_cols;  // strictly increasing bound columns
  std::vector<std::uint32_t> key_template_ids;  // parallel to key_cols
  std::vector<KeyFill> key_fill;
  std::vector<SlotRef> writes;
  std::vector<std::pair<int, int>> id_checks;
  std::size_t planned_size = 0;  // source relation size at plan time
};

/// One (variable, atom) probe of the multiway plan shape: how to compute
/// the candidate ids atom `atom` (an index into the plan's step list,
/// which doubles as the multiway atom list) offers for the variable
/// bound at this step. `bound_cols` are the atom's columns already fixed
/// when the step runs -- constants plus variables bound by earlier
/// steps; `var_cols` are the columns holding the step's variable
/// (usually one; repeated occurrences must agree row-locally). A probe
/// with no bound columns is `unconditional`: its candidate list is the
/// atom's sorted distinct column ids, computed once per Apply.
struct MultiwayProbe {
  std::size_t atom = 0;
  std::vector<int> var_cols;
  std::vector<int> bound_cols;  // strictly increasing
  // Parallel to bound_cols: constants interned (patched positions hold
  // kInvalidId until key_fill overwrites them from the u32 frame).
  std::vector<std::uint32_t> key_template_ids;
  std::vector<CompiledAtomStep::KeyFill> key_fill;
  bool unconditional = false;
  // The union of bound_cols and var_cols (strictly increasing), with its
  // own key template/fill plus the key positions that receive the
  // candidate id. The executor materializes only the smallest probe's
  // candidate list and membership-tests the rest through the index on
  // these columns -- the seek that makes the intersection worst-case
  // optimal instead of paying every probe's full posting size.
  std::vector<int> union_cols;
  std::vector<std::uint32_t> union_template_ids;
  std::vector<CompiledAtomStep::KeyFill> union_key_fill;
  std::vector<int> union_var_positions;
};

/// One variable of the multiway plan's fixed variable order: intersect
/// the candidate lists of every atom containing the variable, bind the
/// survivors into `slot`, recurse.
struct MultiwayStep {
  int slot = -1;
  std::vector<MultiwayProbe> probes;
};

/// A head or negated-literal argument: a constant, interned to its
/// dictionary id at compile time, or a frame slot. A negative slot marks
/// a variable the positive body never binds; using it throws
/// std::out_of_range, like Binding::at would on a match.
struct CompiledTerm {
  bool is_constant = false;
  std::uint32_t id = 0;
  int slot = -1;
};

/// Per-enumeration mutable state: the flat variable frame and one
/// reusable key buffer per join depth, both of dictionary ids -- the
/// slot layout of the bytecode VM's frame. Constructing (or Reset-ing) a
/// frame is the only allocation a compiled enumeration performs; the
/// inner loop is allocation-free.
struct MatchFrame {
  MatchFrame() = default;
  explicit MatchFrame(const CompiledRule& plan) { Reset(plan); }
  void Reset(const CompiledRule& plan);

  /// Loop-invariant per-depth source state, resolved once per Execute
  /// instead of once per visit: for the rows the atom's source gives and
  /// for its plus part, the relation pointer (a hash lookup in Database),
  /// the rows read -- empty when the part cannot match at all -- and, for
  /// indexed probes, a direct view of the index, skipping the per-probe
  /// index-map find inside Relation::Lookup; and the minus part's
  /// relation, null when it has no rows.
  struct DepthPart {
    const Relation* rel = nullptr;
    RowSpan rows;
    Relation::SingleIndexView single_index;
    Relation::MultiIndexView multi_index;
  };
  struct DepthSource {
    DepthPart main;
    DepthPart plus;
    const Relation* minus = nullptr;
  };

  std::vector<std::uint32_t> slots;
  std::vector<std::vector<std::uint32_t>> keys;  // keys[d]: join depth d
  std::vector<DepthSource> sources;
};

/// A rule body compiled to slot-addressed join schedules: one
/// (rule, delta position, use_old) variant, planned once and executed
/// many times. Immutable while executing; Replan (and the cache's Get)
/// may rebuild the schedules between executions.
///
/// Thread safety: compiling and Replan-ing require exclusive access.
/// Execute/Apply are read-only on the plan and on the databases provided
/// EnsureIndexes ran since the last insert (the same frozen-snapshot
/// contract as Relation::Lookup; see docs/join_compilation.md), so one
/// plan can serve many worker threads concurrently.
class CompiledRule {
 public:
  CompiledRule() = default;

  /// Compiles the delta-pass variant of `rule` (see BuildDeltaPassAtoms).
  /// Plans -- here and in NeedsReplan, Replan and EnsureIndexes -- weigh
  /// atoms by PlanningSize over `ranges` (null when no atom reads a
  /// delta).
  static CompiledRule Compile(const Rule& rule, std::size_t delta_pos,
                              bool use_old, const Database& full,
                              const DeltaRanges* ranges);

  /// Compiles a bare atom list (the MatchAtoms adapter): no head, no
  /// negated literals, never lowered, always left-deep. The variables of
  /// `bound` are bound before the first atom; they take the frame's first
  /// slots in the order given, so a caller writes the i-th one's
  /// dictionary id into MatchFrame::slots[i] before each Execute.
  static CompiledRule CompileAtoms(std::vector<PlannedAtom> atoms,
                                   const Database& full,
                                   const DeltaRanges* ranges,
                                   std::vector<VariableId> bound = {});

  bool compiled() const { return compiled_; }

  /// True when the cached join order should be recomputed: an ablation
  /// knob changed, or some participating relation's cardinality moved by
  /// >= 4x since planning -- one step of the greedy planner's own
  /// selectivity granularity (cost /= 4 per bound column), below which a
  /// new plan could not change the order anyway.
  bool NeedsReplan(const Database& full, const DeltaRanges* ranges) const;

  /// Recomputes the join order and all schedules against current sizes.
  void Replan(const Database& full, const DeltaRanges* ranges);

  /// Pre-builds every index and sorted-key list Apply and Execute can
  /// probe -- for delta steps, those of the relation the delta range
  /// reads (the full one, normally), and those of each plus part --
  /// making a subsequent Execute/Apply over the same ranges read-only on
  /// the relations (frozen-snapshot contract).
  void EnsureIndexes(const Database& full, const DeltaRanges* ranges) const;

  /// Enumerates body matches -- every atom reading its rows as
  /// ResolveAtomRows(full, ranges, ...) says -- and inserts instantiated
  /// heads into `out`, the head predicate's relation (negated literals
  /// are tested against `full`). Derived rows are buffered until the
  /// enumeration finishes, so `out` may be `full`'s own relation.
  /// Returns the number of facts new in `out`. Only valid for plans
  /// compiled from a Rule.
  ///
  /// Apply runs the bytecode VM (eval/bytecode) whenever the plan was
  /// lowered, and DeriveByExecute otherwise: for plans with an empty body
  /// or a head or negated variable the positive body never binds, which
  /// the lowering refuses. On a left-deep plan the VM visits candidate
  /// rows in exactly the depth-first order Execute does, replicates its
  /// MatchStats bump for bump and derives the same rows in the same
  /// order (tests/eval/compiled_rule_test.cc and the differential suite
  /// compare the two); a multiway plan has its own counters.
  ///
  /// Either executor derives the head rows into `head_rows`, which Apply
  /// clears first: the evaluation's buffer (CompiledRuleCache::
  /// head_rows(), or a parallel task's own), reused from application to
  /// application, or null for one local to this call. They go to `out`
  /// in one Relation::InsertIdRows batch after the enumeration. The VM's
  /// preparation adds its wall time to `sinks.index_ns`, the enumeration
  /// (Execute's included) to `sinks.derive_ns` and the insert to
  /// `sinks.insert_ns` (null sinks read no clock).
  std::size_t Apply(const Database& full, const DeltaRanges* ranges,
                    Relation* out, MatchStats* stats,
                    const PhaseSinks& sinks = {},
                    IdRowBuffer* head_rows = nullptr) const;

  /// Execute's derivation, Apply's fallback and the reference for the VM:
  /// appends to `derived` the head row of every complete match whose
  /// negated literals are absent from `full`, in enumeration order. Only
  /// valid for plans compiled from a Rule.
  void DeriveByExecute(const Database& full, const DeltaRanges* ranges,
                       MatchStats* stats, IdRowBuffer* derived) const;

  /// Enumerates every complete match into `sink` (called with the frame;
  /// return false to stop early), depth first over the left-deep
  /// schedule in id space. At each depth the atom reads its source's
  /// rows, skipping those in its minus part, then its plus part's rows;
  /// each part that has rows costs one index lookup. The reference for
  /// the VM's counters on left-deep plans, row for row.
  template <typename Sink>
  void Execute(const Database& full, const DeltaRanges* ranges,
               MatchFrame* frame, MatchStats* stats, Sink&& sink) const {
    if (steps_.empty()) {
      if (stats != nullptr) ++stats->substitutions;
      sink(*frame);
      return;
    }
    // Resolve each depth's relations, rows, and viability once: they are
    // invariant for the whole enumeration (no insert happens while
    // matching), and resolving them per visit would cost a hash lookup
    // per parent row per depth. A dead depth still lets shallower depths
    // run -- and count.
    for (std::size_t d = 0; d < steps_.size(); ++d) {
      const CompiledAtomStep& step = steps_[d];
      MatchFrame::DepthSource& ds = frame->sources[d];
      const AtomRows src =
          ResolveAtomRows(full, ranges, step.source, step.predicate);
      PreparePart(step, *src.rel, src.rows, &ds.main);
      ds.plus = MatchFrame::DepthPart();
      if (step.plus != nullptr) {
        const Relation& plus = step.plus->relation(step.predicate);
        PreparePart(step, plus, plus.AllRows(), &ds.plus);
      }
      ds.minus = nullptr;
      if (step.minus != nullptr) {
        const Relation& minus = step.minus->relation(step.predicate);
        if (!minus.empty()) ds.minus = &minus;
      }
    }
    Step(0, *frame, stats, sink);
  }

  /// Materializes the frame into a Binding (the MatchAtoms adapter),
  /// resolving each slot's id: the only place a match meets a Value.
  /// Every complete match binds the same variable set, so repeated calls
  /// overwrite in place and allocate only on the first match.
  void FillBinding(const MatchFrame& frame, Binding* binding) const {
    const ValueDictionary& dict = ValueDictionary::Global();
    for (const auto& [var, slot] : var_slots_) {
      (*binding)[var] =
          dict.Resolve(frame.slots[static_cast<std::size_t>(slot)]);
    }
  }

  int num_slots() const { return num_slots_; }
  std::size_t num_steps() const { return steps_.size(); }
  const std::vector<CompiledAtomStep>& steps() const { return steps_; }
  PredicateId head_predicate() const { return head_predicate_; }

  /// The plan shape BuildSchedules selected (see docs/multiway_joins.md):
  /// kMultiway when the body's join hypergraph is cyclic with estimated
  /// width >= 2, the multiway and index knobs are on, every
  /// participating relation is non-empty, and the plan can be lowered
  /// (lowerable). Replan re-decides, so a >= 4x cardinality drift can
  /// flip the shape between rounds.
  PlanShape shape() const { return shape_; }
  const std::vector<MultiwayStep>& multiway_steps() const {
    return mw_steps_;
  }
  /// The multiway plan's first-witness exit: one past the step that binds
  /// the last variable the head or a negated literal reads. Steps at or
  /// past it stop at their first complete match, since any one witness of
  /// the remaining (existential) variables derives the same head row.
  /// Equals multiway_steps().size() when no existential step follows.
  std::size_t multiway_exit_depth() const { return mw_exit_depth_; }

  /// The plan lowered to register-based bytecode (empty when the plan
  /// cannot be lowered). Rebuilt by every BuildSchedules, so Replan keeps
  /// it in sync with the schedules. Apply executes it with the
  /// computed-goto VM in eval/bytecode; see docs/bytecode_vm.md.
  const bytecode::Program& bytecode_program() const { return bc_; }

 private:
  friend struct MatchFrame;
  friend bytecode::Program bytecode::Lower(const CompiledRule& plan);

  void BuildSchedules(const Database& full, const DeltaRanges* ranges);

  /// Runs the lowered program with the VM, deriving the head rows into
  /// `derived` and timing its phases into `sinks.index_ns` and
  /// `sinks.derive_ns`; with metrics on, then publishes its dispatch
  /// tallies, untimed. False -- before bumping any counter -- when the
  /// VM declines the databases (Apply then falls back to Execute).
  bool Derive(const Database& full, const DeltaRanges* ranges,
              MatchStats* stats, IdRowBuffer* derived,
              const PhaseSinks& sinks) const;

  /// Builds the multiway variable order, its first-witness exit depth and
  /// the per-step probe schedules (called by BuildSchedules, after the
  /// head and negation terms, once it selects PlanShape::kMultiway).
  /// `order` is the planned atom list steps_ was built from -- probe
  /// atom indexes refer to it -- and `slot_of` the left-deep slot
  /// assignment, reused so head and negation terms address the same
  /// frame under either shape.
  void BuildMultiwaySchedules(
      const std::vector<PlannedAtom>& order,
      const std::unordered_map<VariableId, int>& slot_of);

  /// Appends the ids `terms` take under `frame` to `out`.
  template <typename Out>
  static void AppendTerms(const std::vector<CompiledTerm>& terms,
                          const MatchFrame& frame, Out* out) {
    for (const CompiledTerm& t : terms) {
      if (t.is_constant) {
        out->push_back(t.id);
      } else {
        if (t.slot < 0) throw std::out_of_range("unbound rule variable");
        out->push_back(frame.slots[static_cast<std::size_t>(t.slot)]);
      }
    }
  }

  /// Points `part` at `rows` of `rel` -- none when the relation's arity
  /// is not the atom's -- and prepares index views for exactly the
  /// probes ReadPart will issue (the same condition EnsureIndexes
  /// pre-builds for): partially bound indexed probes. Fully bound atoms
  /// -- zero-arity ones included -- are one dedup-table lookup
  /// (Relation::FindRowIdsIn) and need no view. A part without rows gets
  /// no view either, so the shared empty relation a database hands out
  /// for an absent predicate is never indexed.
  void PreparePart(const CompiledAtomStep& step, const Relation& rel,
                   RowSpan rows, MatchFrame::DepthPart* part) const {
    part->rel = &rel;
    part->rows = rel.arity() == step.arity ? rows : RowSpan{};
    if (part->rows.empty() || !use_index_ || step.key_cols.empty() ||
        static_cast<int>(step.key_cols.size()) == step.arity) {
      return;
    }
    if (step.key_cols.size() == 1) {
      part->single_index = rel.PrepareSingleIndex(step.key_cols[0]);
    } else {
      part->multi_index = rel.PrepareIndex(step.key_cols);
    }
  }

  template <typename Sink>
  bool Step(std::size_t depth, MatchFrame& frame, MatchStats* stats,
            Sink& sink) const {
    if (depth == steps_.size()) {
      if (stats != nullptr) ++stats->substitutions;
      return sink(frame);
    }
    const MatchFrame::DepthSource& ds = frame.sources[depth];
    const CompiledAtomStep& step = steps_[depth];
    std::vector<std::uint32_t>& key = frame.keys[depth];
    for (const CompiledAtomStep::KeyFill& kf : step.key_fill) {
      key[static_cast<std::size_t>(kf.key_index)] =
          frame.slots[static_cast<std::size_t>(kf.slot)];
    }
    return ReadPart(depth, ds.main, ds.minus, frame, stats, sink) &&
           ReadPart(depth, ds.plus, nullptr, frame, stats, sink);
  }

  /// Matches depth `depth`'s atom against one part's rows, skipping rows
  /// of `minus` (null: none), and recurses on each match.
  template <typename Sink>
  bool ReadPart(std::size_t depth, const MatchFrame::DepthPart& part,
                const Relation* minus, MatchFrame& frame, MatchStats* stats,
                Sink& sink) const {
    if (part.rows.empty()) {
      // Empty relation, arity mismatch, an exhausted old snapshot, or no
      // such part: no matches, and no counter bump.
      return true;
    }
    const CompiledAtomStep& step = steps_[depth];
    const Relation& rel = *part.rel;
    const std::vector<std::uint32_t>& key = frame.keys[depth];
    if (stats != nullptr) ++stats->index_lookups;

    if (use_index_ &&
        static_cast<int>(step.key_cols.size()) == step.arity) {
      // Fully bound: membership test, one dedup-table lookup of the
      // unique matching row, which must lie in the part's rows.
      if (stats != nullptr) ++stats->tuples_scanned;
      if (rel.FindRowIdsIn(key.data(), part.rows) != Relation::kNoRow &&
          (minus == nullptr || !minus->ContainsIds(key))) {
        return Step(depth + 1, frame, stats, sink);
      }
      return true;
    }

    auto try_row = [&](std::size_t row) -> bool {
      if (minus != nullptr && minus->Contains(rel.row(row))) return true;
      for (const auto& [first_col, repeat_col] : step.id_checks) {
        if (rel.column(first_col)[row] != rel.column(repeat_col)[row]) {
          return true;  // repeated variable mismatch; keep enumerating
        }
      }
      for (const CompiledAtomStep::SlotRef& w : step.writes) {
        frame.slots[static_cast<std::size_t>(w.slot)] =
            rel.column(w.col)[row];
      }
      return Step(depth + 1, frame, stats, sink);
    };

    if (step.key_cols.empty()) {
      for (std::size_t i = part.rows.begin; i < part.rows.end; ++i) {
        if (stats != nullptr) ++stats->tuples_scanned;
        if (!try_row(i)) return false;
      }
      return true;
    }

    if (!use_index_) {
      for (std::size_t i = part.rows.begin; i < part.rows.end; ++i) {
        if (stats != nullptr) ++stats->tuples_scanned;
        bool matches = true;
        for (std::size_t k = 0; k < step.key_cols.size(); ++k) {
          if (rel.column(step.key_cols[k])[i] != key[k]) {
            matches = false;
            break;
          }
        }
        if (matches && !try_row(i)) return false;
      }
      return true;
    }

    const std::vector<std::uint32_t>& row_ids =
        step.key_cols.size() == 1 ? part.single_index.FindId(key[0])
                                  : part.multi_index.FindIds(key);
    for (std::uint32_t row_id : rel.PostingsIn(row_ids, part.rows)) {
      if (stats != nullptr) ++stats->tuples_scanned;
      if (!try_row(row_id)) return false;
    }
    return true;
  }

  bool compiled_ = false;
  bool has_rule_ = false;
  bool greedy_ = true;     // knob snapshot at plan time
  bool use_index_ = true;  // knob snapshot at plan time
  bool multiway_ = true;   // knob snapshot at plan time
  std::uint64_t hints_version_ = 0;  // knob snapshot at plan time
  PlanShape shape_ = PlanShape::kLeftDeep;
  // Structural (size-independent) multiway candidacy: >= 3 atoms, cyclic,
  // width >= 2, not hinted. Decides whether cardinality drift can flip
  // the shape and hence whether NeedsReplan watches sizes at all.
  bool mw_candidate_ = false;
  std::vector<MultiwayStep> mw_steps_;
  std::size_t mw_exit_depth_ = 0;  // see multiway_exit_depth()
  // True when every head/negated term is a constant or a bound slot, so
  // the VM can emit in id space without the unbound-variable throw path.
  bool lowerable_ = false;
  bytecode::Program bc_;  // rebuilt by BuildSchedules; empty if unlowered
  std::vector<PlannedAtom> atoms_;  // original order; Replan re-sorts
  std::vector<VariableId> bound_vars_;  // bound before the first atom
  std::vector<CompiledAtomStep> steps_;
  int num_slots_ = 0;
  std::vector<std::pair<VariableId, int>> var_slots_;
  PredicateId head_predicate_ = 0;
  Atom head_;
  std::vector<CompiledTerm> head_terms_;
  std::vector<Atom> negated_;
  std::vector<PredicateId> negated_preds_;
  std::vector<std::vector<CompiledTerm>> negated_terms_;
};

/// Owns one CompiledRule per (rule index, delta position, use_old)
/// variant, compiled on first use and revalidated on every Get: a
/// changed ablation knob recompiles, a >= 4x cardinality drift replans.
/// Engines keep one cache per fixpoint so join orders persist across
/// rounds instead of being recomputed per rule application.
///
/// Not thread-safe: call Get only from single-threaded phases (the
/// parallel evaluator resolves all plans during snapshot preparation and
/// hands workers const pointers). Returned references stay valid for the
/// cache's lifetime; Get never invalidates other entries.
///
/// The cache also owns the head-row buffer its engine's applications
/// derive into (CompiledRule::Apply), so one fixpoint grows it once
/// instead of once per application. It lives and dies with the cache,
/// never with a thread.
class CompiledRuleCache {
 public:
  const CompiledRule& Get(std::size_t rule_index, const Rule& rule,
                          std::size_t delta_pos, bool use_old,
                          const Database& full, const DeltaRanges* ranges);

  std::size_t size() const { return plans_.size(); }

  IdRowBuffer* head_rows() { return &head_rows_; }

 private:
  std::map<std::tuple<std::size_t, std::size_t, bool>, CompiledRule> plans_;
  IdRowBuffer head_rows_;
};

}  // namespace datalog

#endif  // DATALOG_EVAL_COMPILED_RULE_H_
