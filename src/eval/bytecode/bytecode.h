#ifndef DATALOG_EVAL_BYTECODE_BYTECODE_H_
#define DATALOG_EVAL_BYTECODE_BYTECODE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/rule_matcher.h"

namespace datalog {

class CompiledRule;

namespace bytecode {

/// The register-based instruction set compiled join plans lower to (see
/// docs/bytecode_vm.md). Operands address the frame slots of the plan's
/// schedules (eval/compiled_rule.h). On a left-deep plan a run makes the
/// same MatchStats bumps as CompiledRule::Execute and derives the same
/// rows in the same order.
///
/// Generic opcodes pair an *open* (resolve the depth's candidate set,
/// bump index_lookups) with a *next* (advance one candidate row, bump
/// tuples_scanned); FILTER/LOAD ops act on the current row. The fused
/// `...EmitAll` superinstructions run the innermost loop -- candidate
/// iteration, filters, slot writes, negation and head emission -- without
/// per-row dispatch.
enum class Op : std::uint8_t {
  kHalt = 0,
  // LOAD_KEY: keys[a][b] = slots[c]. Patches a bound-variable position
  // of step a's probe key before the depth's open op runs.
  kLoadKey,
  // SCAN open: dead -> jump t; ++index_lookups; rewind step a's row
  // cursor to the first row of the step's range. LOOP in the ISA doc.
  kLoop,
  // SCAN next (END_LOOP edge): cursor exhausted -> jump t; else advance,
  // ++tuples_scanned.
  kLoopNext,
  // INDEX_PROBE open: dead or no prepared view -> jump t;
  // ++index_lookups; position on the segment of keys[a]'s posting list
  // inside the step's row range (rows outside are never visited).
  kProbe,
  // INDEX_PROBE next: segment exhausted -> jump t; else advance,
  // ++tuples_scanned.
  kProbeNext,
  // FILTER_CONST: column b of step a's current row != constant id c ->
  // jump t (continue the enclosing loop).
  kFilterConst,
  // FILTER_KEY: column b of step a's current row != keys[a][c] -> jump t.
  kFilterKey,
  // FILTER_EQ (repeated variable): columns b and c of step a's current
  // row differ -> jump t.
  kFilterEq,
  // LOAD_COL: slots[c] = column b of step a's current row.
  kLoad,
  // Fully-bound membership against the current state: dead -> jump t;
  // ++index_lookups; ++tuples_scanned; keys[a] not present -> jump t.
  // One dedup-table lookup of the row equal to keys[a] (no index).
  kMember,
  // Fully-bound membership against the old snapshot: as kMember (whose
  // matching row's id must lie in the step's row range, here the rows
  // below the old limit).
  kMemberOld,
  // EMIT: ++substitutions; negated literals absent -> buffer the head
  // row ids; always jump t (the innermost loop's next op, or HALT).
  kEmit,
  kJump,  // unconditional jump to t
  // MULTIWAY_SEEK open: elect the smallest candidate list among mw step
  // a's probes (one index_lookups bump per probe), materialize only the
  // winner's projection, fill the union membership keys.
  kSeek,
  // MULTIWAY_SEEK next: exhausted -> jump t; per candidate id
  // ++tuples_scanned, membership-test the other probes (union seeks bump
  // index_lookups -- a dedup-table row lookup when the union columns
  // cover the whole atom, a union-index probe otherwise; sorted-root
  // probes bump tuples_scanned), bind survivors into the step's slot.
  kSeekNext,
  // Fused superinstructions: open + full candidate loop + emission for
  // the innermost depth, then fall through.
  kLoopEmitAll,   // innermost (filtered) scan
  kProbeEmitAll,  // innermost indexed probe
  kSeekEmitAll,   // innermost multiway intersection
  // SEEK_EMIT_FIRST: kSeekEmitAll that emits only the first accepted
  // candidate, then jumps to t (the first-witness exit: the kSeekNext of
  // the last depth binding a head or negated-literal variable, or HALT
  // when there is none). Exhausted candidates fall through.
  kSeekEmitFirst,
  kNumOps,        // sentinel, not a real opcode
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kNumOps);

const char* OpName(Op op);

/// One instruction: opcode plus three small operands and a jump target
/// (absolute instruction index). Unused fields are zero.
struct Insn {
  Op op = Op::kHalt;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::uint32_t t = 0;
};

/// One body atom of the lowered plan: the subset of CompiledAtomStep the
/// VM reads. Constants are dictionary ids, as in the plan.
struct StepDesc {
  std::uint32_t predicate = 0;
  std::uint32_t arity = 0;
  std::uint8_t source = 0;         // AtomSource
  std::vector<int> key_cols;       // strictly increasing bound columns
  // Parallel to key_cols: constant ids, and ValueDictionary::kInvalidId
  // where kLoadKey patches the position per probe.
  std::vector<std::uint32_t> key_template_ids;
  // Repeated-variable checks as row-local column pairs, and free-
  // variable writes as (column, slot) pairs -- same layout as
  // CompiledAtomStep::id_checks / writes.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> id_checks;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
};

/// A head or negated-literal argument: a constant id or a frame slot.
struct TermDesc {
  bool is_constant = false;
  std::uint32_t value = 0;  // slot, or the constant's id
};

struct NegDesc {
  std::uint32_t predicate = 0;
  std::vector<TermDesc> terms;
};

/// Mirror of MultiwayProbe (see eval/compiled_rule.h). Templates hold
/// constant ids, and ValueDictionary::kInvalidId at patched positions.
struct ProbeDesc {
  std::uint32_t atom = 0;  // index into Program::steps
  std::vector<int> var_cols;
  std::vector<int> bound_cols;  // strictly increasing
  std::vector<std::uint32_t> key_template_ids;  // parallel to bound_cols
  std::vector<std::pair<std::uint32_t, std::uint32_t>> key_fill;
  bool unconditional = false;
  std::vector<int> union_cols;  // strictly increasing
  std::vector<std::uint32_t> union_template_ids;  // parallel to union_cols
  std::vector<std::pair<std::uint32_t, std::uint32_t>> union_key_fill;
  std::vector<std::uint32_t> union_var_positions;
};

struct MwStepDesc {
  std::uint32_t slot = 0;
  std::vector<ProbeDesc> probes;
};

/// A lowered join plan: self-contained (step and probe descriptor
/// tables, code) so it can be validated and executed without the
/// CompiledRule it came from. Its constants are the plan's dictionary
/// ids, so it runs only against the process's global ValueDictionary.
struct Program {
  std::uint8_t shape = 0;  // 0 = left-deep, 1 = multiway
  bool use_index = true;   // knob snapshot at lowering time
  std::uint32_t num_slots = 0;
  std::vector<StepDesc> steps;
  std::uint32_t head_predicate = 0;
  std::vector<TermDesc> head;
  std::vector<NegDesc> negated;
  std::vector<MwStepDesc> mw_steps;
  std::vector<Insn> code;

  bool empty() const { return code.empty(); }
};

/// Lowers a compiled plan to bytecode. Returns an empty program when the
/// plan cannot run in id space (a head or negated variable the positive
/// body never binds, an empty body, or compiled without a rule head).
Program Lower(const CompiledRule& plan);

/// Static safety check: operand bounds (pc targets, slots, columns, key
/// positions), descriptor-table consistency (strictly increasing
/// key columns, probe shapes), loop nesting via a row-validity dataflow
/// over the control-flow graph. A program that validates executes
/// without undefined behavior on any database; lowered programs always
/// validate, which the tests assert on every program they run. Returns
/// false and fills `error` (if non-null) on rejection.
bool Validate(const Program& program, std::string* error = nullptr);

/// Per-opcode dispatch tallies for the obs layer (bytecode.dispatch).
using DispatchCounts = std::array<std::uint64_t, kNumOps>;

/// Executes a validated program up to the emit boundary: enumerates body
/// matches and appends each instantiated head row to `derived`, after
/// the rows it already holds (so a reused buffer must be cleared by its
/// owner). Returns false -- bumping no counter and leaving `derived` as
/// it was -- when the program cannot run against these databases (a
/// negated relation's arity contradicts the program, a delta step has no
/// ranges, or a hand-written program is malformed or derives an id the
/// dictionary never issued), in which case CompiledRule::Apply falls
/// back to Execute. When `dispatch` is non-null every executed
/// instruction is tallied per opcode. The preparation (step sources,
/// index views, multiway root lists) adds its wall time to
/// `sinks.index_ns`, the enumeration to `sinks.derive_ns`.
bool Derive(const Program& program, const Database& full,
            const DeltaRanges* ranges, MatchStats* stats,
            IdRowBuffer* derived, DispatchCounts* dispatch = nullptr,
            const PhaseSinks& sinks = {});

/// Derive, then one batch insert of the derived rows into `out` (which
/// may alias `full`); `new_facts` receives how many were new. Also
/// returns false, touching nothing, when the program's head predicate or
/// arity does not exist in `out`'s symbol table.
bool Run(const Program& program, const Database& full,
         const DeltaRanges* ranges, Database* out, MatchStats* stats,
         std::size_t* new_facts, DispatchCounts* dispatch = nullptr);

/// Publishes a run's dispatch tallies to the process MetricsRegistry as
/// `bytecode.dispatch{op=...}` counters. No-op when metrics are off.
void PublishDispatchCounts(const DispatchCounts& counts);

}  // namespace bytecode
}  // namespace datalog

#endif  // DATALOG_EVAL_BYTECODE_BYTECODE_H_
