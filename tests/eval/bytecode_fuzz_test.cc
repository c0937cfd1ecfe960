// Fuzzes the two checks of the bytecode layer -- Validate on arbitrary
// Programs, and Run on programs the validator accepted -- asserting
// "rejected or UB-free": every input is either turned away with an
// error or processed without crashes, leaks, or out-of-bounds access
// (the ASan/UBSan jobs in tools/check.sh run this file under both
// sanitizers).
//
// Executed inputs are restricted to shapes that terminate by
// construction: random instruction streams only run when every control
// transfer goes strictly forward (the validator guarantees memory
// safety, not termination; see docs/bytecode_vm.md). Field-level
// mutations leave the code section untouched, so those do run.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "eval/bytecode/bytecode.h"
#include "eval/compiled_rule.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::KnobGuard;
using testing::MakeSymbols;
using testing::ParseDatabaseOrDie;
using testing::ParseRuleOrDie;

/// A small world to execute accepted programs against: the databases do
/// not need to match the fuzzed program -- Run's setup declines
/// mismatches (missing predicates, wrong arities) by returning false.
struct Harness {
  std::shared_ptr<SymbolTable> symbols = MakeSymbols();
  Database db = ParseDatabaseOrDie(
      symbols, "a(1, 2). a(2, 3). g(2, 3). g(3, 1). e(1, 2). e(2, 3). "
               "e(3, 1). b(2, 3).");

  CompiledRule Lowered(const char* rule_text) {
    Rule rule = ParseRuleOrDie(symbols, rule_text);
    CompiledRule plan = CompiledRule::Compile(
        rule, /*delta_pos=*/std::size_t(-1), /*use_old=*/false, db, nullptr);
    plan.EnsureIndexes(db, nullptr);
    return plan;
  }

  /// Runs an accepted program; only cares that nothing trips a sanitizer.
  void RunSafely(const bytecode::Program& program) {
    MatchStats stats;
    std::size_t new_facts = 0;
    Database out(symbols);
    bytecode::Run(program, db, /*ranges=*/nullptr, &out, &stats,
                  &new_facts);
  }
};

TEST(BytecodeFuzzTest, RandomInstructionStreamsRejectedOrSafe) {
  KnobGuard guard;
  Harness h;
  // Two descriptor scaffolds so both plan shapes (and the seek ops) are
  // reachable: random code is grafted onto real step/probe tables.
  const CompiledRule left_deep = h.Lowered("h2(x, z) :- a(x, y), g(y, z).");
  const CompiledRule multiway =
      h.Lowered("t2(x, y, z) :- e(x, y), e(y, z), e(x, z).");
  ASSERT_FALSE(left_deep.bytecode_program().empty());
  ASSERT_FALSE(multiway.bytecode_program().empty());

  std::mt19937_64 rng(0xF0CC1A57ull);
  std::size_t validated = 0;
  std::size_t executed = 0;
  for (int iter = 0; iter < 1200; ++iter) {
    bytecode::Program p = (iter % 2 == 0 ? left_deep : multiway)
                              .bytecode_program();
    const std::size_t len = 1 + rng() % 12;
    p.code.clear();
    for (std::size_t pc = 0; pc < len; ++pc) {
      bytecode::Insn insn;
      // Bias toward real opcodes but occasionally emit garbage ones so
      // the "invalid opcode" path stays covered.
      insn.op = static_cast<bytecode::Op>(rng() % (bytecode::kNumOps + 2));
      insn.a = static_cast<std::uint32_t>(rng() % 6);
      insn.b = static_cast<std::uint32_t>(rng() % 6);
      insn.c = static_cast<std::uint32_t>(rng() % 6);
      insn.t = static_cast<std::uint32_t>(rng() % (len + 2));
      p.code.push_back(insn);
    }
    if (!bytecode::Validate(p)) continue;
    ++validated;
    // The validator proves memory safety, not termination; only execute
    // streams whose control flow is strictly forward (these halt within
    // |code| dispatches by construction).
    bool forward_only = true;
    for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
      const bytecode::Op op = p.code[pc].op;
      // Every opcode not listed here can jump to t -- SEEK_EMIT_FIRST
      // included, on its first witness -- so its target must lie ahead.
      const bool uses_target =
          op != bytecode::Op::kHalt && op != bytecode::Op::kLoadKey &&
          op != bytecode::Op::kLoad && op != bytecode::Op::kSeek &&
          op != bytecode::Op::kLoopEmitAll &&
          op != bytecode::Op::kProbeEmitAll &&
          op != bytecode::Op::kSeekEmitAll;
      if (uses_target && p.code[pc].t <= pc) {
        forward_only = false;
        break;
      }
    }
    if (!forward_only) continue;
    ++executed;
    h.RunSafely(p);
  }
  // Keep the fuzz honest: if generation drifts so far that nothing
  // validates (or nothing runs), the test is no longer testing the VM.
  EXPECT_GE(validated, 10u);
  EXPECT_GE(executed, 5u);
}

/// SEEK_EMIT_FIRST is a jump: a first-witness program validates and runs
/// as lowered, and Validate rejects it once the target leaves the code.
TEST(BytecodeFuzzTest, FirstWitnessJumpOutOfRangeRejected) {
  KnobGuard guard;
  Harness h;
  const CompiledRule plan = h.Lowered("t4(x) :- e(x, y), e(y, z), e(z, x).");
  bytecode::Program p = plan.bytecode_program();
  ASSERT_TRUE(bytecode::Validate(p));
  h.RunSafely(p);
  const auto first = std::find_if(
      p.code.begin(), p.code.end(), [](const bytecode::Insn& insn) {
        return insn.op == bytecode::Op::kSeekEmitFirst;
      });
  ASSERT_NE(first, p.code.end());
  const auto size = static_cast<std::uint32_t>(p.code.size());
  for (std::uint32_t t : {size, size + 1, 0xFFFFFFFFu}) {
    first->t = t;
    std::string error;
    EXPECT_FALSE(bytecode::Validate(p, &error)) << "t=" << t;
    EXPECT_EQ(error, "jump target out of range") << "t=" << t;
  }
}

TEST(BytecodeFuzzTest, MutatedDescriptorTablesRejectedOrSafe) {
  KnobGuard guard;
  Harness h;
  const CompiledRule plans[] = {
      h.Lowered("h3(x, z) :- a(x, y), g(y, z)."),
      h.Lowered("t3(x, y, z) :- e(x, y), e(y, z), e(x, z)."),
  };
  std::mt19937_64 rng(0xDE5C7AB1ull);
  for (const CompiledRule& plan : plans) {
    ASSERT_FALSE(plan.bytecode_program().empty());
    for (int iter = 0; iter < 300; ++iter) {
      bytecode::Program p = plan.bytecode_program();
      // Mutate structured fields only -- the code section stays intact,
      // so accepted mutants still terminate and may be executed.
      switch (rng() % 8) {
        case 0:
          p.num_slots = static_cast<std::uint32_t>(rng() % 8);
          break;
        case 1:
          if (!p.steps.empty()) {
            bytecode::StepDesc& sd = p.steps[rng() % p.steps.size()];
            if (!sd.key_cols.empty()) {
              sd.key_cols[rng() % sd.key_cols.size()] =
                  static_cast<int>(rng() % 6) - 1;
            } else {
              sd.arity = rng() % 5;
            }
          }
          break;
        case 2:
          if (!p.steps.empty()) {
            bytecode::StepDesc& sd = p.steps[rng() % p.steps.size()];
            sd.writes.emplace_back(static_cast<std::uint32_t>(rng() % 8),
                                   static_cast<std::uint32_t>(rng() % 8));
          }
          break;
        case 3:
          if (!p.head.empty()) {
            bytecode::TermDesc& t = p.head[rng() % p.head.size()];
            t.is_constant = rng() % 2 == 0;
            t.value = static_cast<std::uint32_t>(rng() % 16);
          }
          break;
        case 4:
          if (!p.steps.empty()) p.steps[rng() % p.steps.size()].source = 2;
          break;
        case 5:
          if (!p.mw_steps.empty()) {
            bytecode::MwStepDesc& ms = p.mw_steps[rng() % p.mw_steps.size()];
            if (!ms.probes.empty()) {
              bytecode::ProbeDesc& probe = ms.probes[rng() % ms.probes.size()];
              probe.atom = static_cast<std::uint32_t>(rng() % 8);
            }
          } else {
            p.shape = 1;  // multiway shape without multiway steps
          }
          break;
        case 6:
          // Any id may stand in a key template: an unissued one matches
          // no row.
          if (!p.steps.empty()) {
            bytecode::StepDesc& sd = p.steps[rng() % p.steps.size()];
            if (!sd.key_template_ids.empty()) {
              sd.key_template_ids[rng() % sd.key_template_ids.size()] =
                  static_cast<std::uint32_t>(rng());
            }
          }
          break;
        case 7:
          if (!p.negated.empty()) {
            bytecode::NegDesc& nd = p.negated[rng() % p.negated.size()];
            nd.terms.push_back(bytecode::TermDesc{
                false, static_cast<std::uint32_t>(rng() % 16)});
          }
          break;
      }
      if (bytecode::Validate(p)) h.RunSafely(p);
    }
  }
}

}  // namespace
}  // namespace datalog
