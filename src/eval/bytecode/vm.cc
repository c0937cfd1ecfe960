#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "eval/bytecode/bytecode.h"
#include "eval/database.h"
#include "eval/eval_stats.h"
#include "eval/relation.h"
#include "obs/metrics.h"
#include "util/interning.h"

namespace datalog {
namespace bytecode {

const char* OpName(Op op) {
  switch (op) {
    case Op::kHalt:
      return "halt";
    case Op::kLoadKey:
      return "load_key";
    case Op::kLoop:
      return "loop";
    case Op::kLoopNext:
      return "loop_next";
    case Op::kProbe:
      return "probe";
    case Op::kProbeNext:
      return "probe_next";
    case Op::kFilterConst:
      return "filter_const";
    case Op::kFilterKey:
      return "filter_key";
    case Op::kFilterEq:
      return "filter_eq";
    case Op::kLoad:
      return "load";
    case Op::kMember:
      return "member";
    case Op::kMemberOld:
      return "member_old";
    case Op::kEmit:
      return "emit";
    case Op::kJump:
      return "jump";
    case Op::kSeek:
      return "seek";
    case Op::kSeekNext:
      return "seek_next";
    case Op::kLoopEmitAll:
      return "loop_emit_all";
    case Op::kProbeEmitAll:
      return "probe_emit_all";
    case Op::kSeekEmitAll:
      return "seek_emit_all";
    case Op::kSeekEmitFirst:
      return "seek_emit_first";
    case Op::kNumOps:
      break;
  }
  return "invalid";
}

void PublishDispatchCounts(const DispatchCounts& counts) {
  MetricsRegistry& registry = MetricsRegistry::Get();
  if (!registry.enabled()) return;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    if (counts[i] == 0) continue;
    registry.Add("bytecode.dispatch",
                 {{"op", OpName(static_cast<Op>(i))}}, counts[i]);
  }
}

namespace {

// Loop-invariant per-step source state, resolved once per Run with
// exactly the rules of CompiledRule::Execute's MatchFrame::DepthSource
// (see eval/compiled_rule.h): relation, the rows the atom reads,
// liveness, and -- when the step probes an index -- a direct view.
// `rows` is emptied for dead steps so a validated but hand-written
// program that enters a dead step's Next op yields no rows instead of
// touching mismatched columns.
struct StepRt {
  const Relation* rel = nullptr;
  RowSpan rows;
  bool dead = false;
  bool old_only = false;
  bool has_view = false;
  bool single_key = false;
  // The probe key is a whole row (fully bound atom): membership is one
  // dedup-table lookup, no index.
  bool full_row = false;
  Relation::SingleIndexView single;
  Relation::MultiIndexView multi;
  // Column bases hoisted out of the fused inner loops: relation columns
  // are append-only for the duration of a Run, so raw data pointers stay
  // valid and spare the loops a columns-vector indirection per access
  // (which the optimizer cannot hoist itself past opaque index calls).
  std::vector<const std::uint32_t*> key_ptrs;
  std::vector<std::pair<const std::uint32_t*, const std::uint32_t*>>
      check_ptrs;
  std::vector<std::pair<const std::uint32_t*, std::uint32_t>> write_ptrs;
};

// Per-step enumeration cursor: the in-range posting segment (indexed
// probes), the next position to try, and the current row.
struct IterRt {
  std::span<const std::uint32_t> list;
  std::size_t pos = 0;
  std::uint32_t row = 0;
};

struct MwProbeRt {
  Relation::SingleIndexView single;
  Relation::MultiIndexView multi;
  Relation::MultiIndexView union_index;
  // Union columns cover the whole atom: seeks look the full row up in
  // the dedup table instead of a union index (which is never built).
  bool union_full_row = false;
  // The variable's id column when the probe's candidates are distinct by
  // construction -- one variable column, and union columns covering the
  // atom, so the rows of one posting list differ only there. Elected,
  // such a probe is iterated in place: no projection, sort or dedup.
  const std::uint32_t* in_place = nullptr;
  const std::vector<std::uint32_t>* root = nullptr;
};

// Per-multiway-step scratch: election keys, union membership keys,
// per-probe candidate lists, the winner's materialized projection, and
// the iteration cursor. `iter` holds candidate ids, or -- when
// `in_place` is set -- the winner's row ids, whose candidate is
// in_place[row].
struct MwStepRt {
  std::vector<MwProbeRt> probes;
  std::vector<std::vector<std::uint32_t>> keys;
  std::vector<std::vector<std::uint32_t>> ukeys;
  std::vector<std::vector<std::uint32_t>> proj;
  std::vector<std::span<const std::uint32_t>> lists;
  std::span<const std::uint32_t> iter;
  const std::uint32_t* in_place = nullptr;
  std::size_t pos = 0;
  std::size_t smallest = 0;

  std::uint32_t Candidate(std::size_t i) const {
    return in_place != nullptr ? in_place[iter[i]] : iter[i];
  }
};

template <bool kCount>
bool DeriveImpl(const Program& p, const Database& full,
                const DeltaRanges* ranges, MatchStats* stats,
                IdRowBuffer* derived_rows, DispatchCounts* dispatch,
                const PhaseSinks& sinks) {
  if (p.code.empty() || p.shape > 1) return false;
  // Everything up to the multiway roots is the index phase; the machine
  // state and the dispatch loop are the derive phase.
  PhaseTimer timer(sinks.index_ns);

  // ---- Guards (no counter bumps, no side effects) -----------------------
  std::vector<const Relation*> negs;
  negs.reserve(p.negated.size());
  for (const NegDesc& nd : p.negated) {
    const Relation& nr =
        full.relation(static_cast<PredicateId>(nd.predicate));
    if (!nr.empty() && nr.arity() != static_cast<int>(nd.terms.size())) {
      return false;
    }
    negs.push_back(&nr);
  }

  // ---- Step sources (Execute's per-depth resolution) ---------------------
  const std::size_t nsteps = p.steps.size();
  std::vector<StepRt> srt(nsteps);
  for (std::size_t d = 0; d < nsteps; ++d) {
    const StepDesc& sd = p.steps[d];
    const auto source = static_cast<AtomSource>(sd.source);
    if (source == AtomSource::kDelta && ranges == nullptr) return false;
    const AtomRows src = ResolveAtomRows(
        full, ranges, source, static_cast<PredicateId>(sd.predicate));
    const Relation& rel = *src.rel;
    StepRt& rt = srt[d];
    rt.rel = &rel;
    rt.rows = src.rows;
    rt.dead = rt.rows.empty() || rel.arity() != static_cast<int>(sd.arity);
    rt.old_only = source == AtomSource::kOld;
    if (rt.dead) {
      rt.rows = RowSpan{};
      continue;
    }
    if (p.shape != 0) continue;  // multiway code never runs left-deep probes
    const bool fully_bound = sd.key_cols.size() == sd.arity;
    rt.full_row = fully_bound && sd.key_template_ids.size() == sd.arity;
    const bool probes_index =
        p.use_index && !fully_bound && !sd.key_cols.empty();
    if (probes_index) {
      rt.single_key = sd.key_cols.size() == 1;
      if (rt.single_key) {
        rt.single = rel.PrepareSingleIndex(sd.key_cols[0]);
      } else {
        rt.multi = rel.PrepareIndex(sd.key_cols);
      }
      rt.has_view = true;
    }
    rt.key_ptrs.reserve(sd.key_cols.size());
    for (int col : sd.key_cols) rt.key_ptrs.push_back(rel.column(col).data());
    rt.check_ptrs.reserve(sd.id_checks.size());
    for (const auto& [first_col, repeat_col] : sd.id_checks) {
      rt.check_ptrs.emplace_back(
          rel.column(static_cast<int>(first_col)).data(),
          rel.column(static_cast<int>(repeat_col)).data());
    }
    rt.write_ptrs.reserve(sd.writes.size());
    for (const auto& [col, slot] : sd.writes) {
      rt.write_ptrs.emplace_back(rel.column(static_cast<int>(col)).data(),
                                 slot);
    }
  }

  // ---- Multiway probe state ---------------------------------------------
  std::deque<std::vector<std::uint32_t>> owned_roots;
  std::vector<MwStepRt> mrt;
  if (p.shape == 1) {
    if (p.mw_steps.empty()) return false;
    // Every atom takes part in every intersection, so one dead atom
    // kills every match before any probe happens: derive nothing.
    for (const StepRt& rt : srt) {
      if (rt.dead) return true;
    }
    mrt.resize(p.mw_steps.size());
    for (std::size_t s = 0; s < p.mw_steps.size(); ++s) {
      const MwStepDesc& ms = p.mw_steps[s];
      if (ms.probes.empty()) return false;
      MwStepRt& mr = mrt[s];
      const std::size_t num_probes = ms.probes.size();
      mr.probes.resize(num_probes);
      mr.keys.resize(num_probes);
      mr.ukeys.resize(num_probes);
      mr.proj.resize(num_probes);
      mr.lists.assign(num_probes, {});
      mr.iter = {};
      for (std::size_t pi = 0; pi < num_probes; ++pi) {
        const ProbeDesc& probe = ms.probes[pi];
        if (probe.atom >= nsteps || probe.var_cols.empty()) return false;
        if (probe.unconditional != probe.bound_cols.empty()) return false;
        // Pre-size the key scratch so a hand-written program that skips
        // the open op still finds correctly-sized buffers.
        mr.keys[pi].assign(probe.key_template_ids.size(), 0);
        mr.ukeys[pi].assign(probe.union_template_ids.size(), 0);
        if (probe.unconditional) continue;
        const Relation& rel = *srt[probe.atom].rel;
        MwProbeRt& prt = mr.probes[pi];
        if (probe.bound_cols.size() == 1) {
          prt.single = rel.PrepareSingleIndex(probe.bound_cols[0]);
        } else {
          prt.multi = rel.PrepareIndex(probe.bound_cols);
        }
        prt.union_full_row =
            static_cast<int>(probe.union_cols.size()) == rel.arity() &&
            probe.union_template_ids.size() == probe.union_cols.size();
        if (!prt.union_full_row) {
          prt.union_index = rel.PrepareIndex(probe.union_cols);
        } else if (probe.var_cols.size() == 1) {
          prt.in_place = rel.column(probe.var_cols[0]).data();
        }
      }
    }
    // Roots after every index is prepared: a root over the whole
    // relation reads its ids off the single-column index on its column
    // when this plan probes that index (Relation::SortedKeys).
    for (std::size_t s = 0; s < p.mw_steps.size(); ++s) {
      const MwStepDesc& ms = p.mw_steps[s];
      for (std::size_t pi = 0; pi < ms.probes.size(); ++pi) {
        const ProbeDesc& probe = ms.probes[pi];
        if (!probe.unconditional) continue;
        const StepRt& at = srt[probe.atom];
        const Relation& rel = *at.rel;
        MwProbeRt& prt = mrt[s].probes[pi];
        if (!at.old_only && probe.var_cols.size() == 1) {
          prt.root = &rel.SortedKeys(probe.var_cols[0], at.rows);
          continue;
        }
        // Old snapshot or repeated variable: collect the qualifying rows'
        // keys once per Run, sorted and deduplicated.
        owned_roots.emplace_back();
        rel.CollectSortedKeys(probe.var_cols, at.rows, &owned_roots.back());
        prt.root = &owned_roots.back();
      }
    }
  }
  timer.Switch(sinks.derive_ns);

  // ---- Mutable machine state --------------------------------------------
  const std::uint32_t dict_size = ValueDictionary::Global().size();
  std::vector<std::uint32_t> slots(p.num_slots, 0);
  std::vector<std::vector<std::uint32_t>> keys(nsteps);
  std::vector<IterRt> iters(nsteps);
  for (std::size_t d = 0; d < nsteps; ++d) {
    keys[d] = p.steps[d].key_template_ids;
  }
  MatchStats local;
  std::vector<std::uint32_t> neg_key;

  // ---- Head rows ----------------------------------------------------------
  // `derived` is inserted only after the run, since the head relation may
  // belong to `full`. Rows are appended through a cursor: an emitting op
  // makes room for its candidates (unwritten, see RoomVector), each
  // accepted row is written at `out`, and the room left over is trimmed
  // at the end of the run. Each head position reads its id through
  // head_src: the constant's id, or the frame slot.
  RoomVector<std::uint32_t>& derived = derived_rows->ids;
  const std::size_t first_id = derived.size();  // this run's first id
  const std::size_t width = p.head.size();
  std::vector<const std::uint32_t*> head_src(width);
  for (std::size_t k = 0; k < width; ++k) {
    const TermDesc& t = p.head[k];
    head_src[k] = t.is_constant ? &t.value : &slots[t.value];
  }
  std::uint32_t* out = derived.data() + first_id;  // the next row's first id
  std::uint32_t* room_end = out;                   // the end of the room made
  std::size_t count = 0;

  // Room for `rows` more head rows at the cursor; resizing keeps the rows
  // written so far. All the capacity becomes room, so the next ops' room
  // is one compare until the capacity runs out.
  auto make_room = [&](std::size_t rows) {
    const std::size_t need = rows * width;
    if (static_cast<std::size_t>(room_end - out) >= need) return;
    const std::size_t written = static_cast<std::size_t>(out - derived.data());
    derived.resize(written + need);
    derived.resize(derived.capacity());
    out = derived.data() + written;
    room_end = derived.data() + derived.size();
  };

  // Emit boundary, shared by kEmit and the fused superinstructions: one
  // substitution per complete match, negated literals probed in id space
  // against `full`, and the head row written at the cursor, in room the
  // op made for it.
  auto emit_row = [&]() {
    ++local.substitutions;
    for (std::size_t ni = 0; ni < negs.size(); ++ni) {
      const NegDesc& nd = p.negated[ni];
      neg_key.clear();
      for (const TermDesc& t : nd.terms) {
        neg_key.push_back(t.is_constant ? t.value : slots[t.value]);
      }
      if (negs[ni]->ContainsIds(neg_key)) return;
    }
    for (std::size_t k = 0; k < width; ++k) out[k] = *head_src[k];
    out += width;
    ++count;
  };

  // Multiway open: elect the smallest candidate list among the step's
  // probes, take the winner's candidates -- its sorted root, its posting
  // segment in place, or else its materialized projection -- and fill the
  // union membership keys of the losers.
  auto seek_open = [&](std::uint32_t s) {
    const MwStepDesc& ms = p.mw_steps[s];
    MwStepRt& mr = mrt[s];
    const std::size_t num_probes = ms.probes.size();
    std::size_t smallest = 0;
    std::size_t smallest_size = std::numeric_limits<std::size_t>::max();
    for (std::size_t pi = 0; pi < num_probes; ++pi) {
      const ProbeDesc& probe = ms.probes[pi];
      const MwProbeRt& prt = mr.probes[pi];
      ++local.index_lookups;
      std::size_t est;
      if (probe.unconditional) {
        mr.lists[pi] = *prt.root;
        est = prt.root->size();
      } else {
        std::vector<std::uint32_t>& key = mr.keys[pi];
        key = probe.key_template_ids;
        for (const auto& [key_index, slot] : probe.key_fill) {
          key[key_index] = slots[slot];
        }
        const std::vector<std::uint32_t>& rows =
            probe.bound_cols.size() == 1 ? prt.single.FindId(key[0])
                                         : prt.multi.FindIds(key);
        const StepRt& at = srt[probe.atom];
        mr.lists[pi] = at.rel->PostingsIn(rows, at.rows);
        est = at.old_only ? rows.size() : mr.lists[pi].size();
      }
      if (est < smallest_size) {
        smallest_size = est;
        smallest = pi;
      }
    }
    const ProbeDesc& sp = ms.probes[smallest];
    mr.iter = mr.lists[smallest];
    mr.in_place = mr.probes[smallest].in_place;
    if (!sp.unconditional && mr.in_place == nullptr) {
      // Candidates may repeat (a column the step leaves free) or need a
      // row-local check (a repeated variable): project, sort, dedup.
      const StepRt& at = srt[sp.atom];
      const Relation& rel = *at.rel;
      const IdVector& c0 = rel.column(sp.var_cols[0]);
      std::vector<std::uint32_t>& proj = mr.proj[smallest];
      proj.clear();
      for (std::uint32_t row_id : mr.lists[smallest]) {
        ++local.tuples_scanned;
        const std::uint32_t id = c0[row_id];
        bool ok = true;
        for (std::size_t k = 1; k < sp.var_cols.size(); ++k) {
          if (rel.column(sp.var_cols[k])[row_id] != id) {
            ok = false;
            break;
          }
        }
        if (ok) proj.push_back(id);
      }
      std::sort(proj.begin(), proj.end());
      proj.erase(std::unique(proj.begin(), proj.end()), proj.end());
      mr.iter = proj;
    }
    for (std::size_t pi = 0; pi < num_probes; ++pi) {
      if (pi == smallest || ms.probes[pi].unconditional) continue;
      const ProbeDesc& probe = ms.probes[pi];
      std::vector<std::uint32_t>& ukey = mr.ukeys[pi];
      ukey = probe.union_template_ids;
      for (const auto& [key_index, slot] : probe.union_key_fill) {
        ukey[key_index] = slots[slot];
      }
    }
    mr.pos = 0;
    mr.smallest = smallest;
  };

  // Multiway membership: does every non-winner probe accept `id`?
  auto seek_accept = [&](MwStepRt& mr, const MwStepDesc& ms,
                         std::uint32_t id) {
    const std::size_t num_probes = ms.probes.size();
    for (std::size_t pi = 0; pi < num_probes; ++pi) {
      if (pi == mr.smallest) continue;
      const ProbeDesc& probe = ms.probes[pi];
      const MwProbeRt& prt = mr.probes[pi];
      if (probe.unconditional) {
        ++local.tuples_scanned;
        if (!std::binary_search(prt.root->begin(), prt.root->end(), id)) {
          return false;
        }
        continue;
      }
      ++local.index_lookups;
      std::vector<std::uint32_t>& ukey = mr.ukeys[pi];
      for (std::uint32_t pos : probe.union_var_positions) ukey[pos] = id;
      const StepRt& at = srt[probe.atom];
      if (prt.union_full_row) {
        if (at.rel->FindRowIdsIn(ukey.data(), at.rows) == Relation::kNoRow) {
          return false;
        }
        continue;
      }
      if (at.rel->PostingsIn(prt.union_index.FindIds(ukey), at.rows)
              .empty()) {
        return false;
      }
    }
    return true;
  };

  // ---- Dispatch ---------------------------------------------------------
  // Computed goto (a GCC/Clang extension, like the rest of the build's
  // builtins) threads each handler directly into the next opcode's jump,
  // giving the branch predictor one indirect-branch site per opcode
  // instead of one shared site for a whole switch.
  const Insn* const code = p.code.data();
  const Insn* ip = code;

  static const void* const kLabels[kNumOps] = {
      &&lbl_kHalt,        &&lbl_kLoadKey,     &&lbl_kLoop,
      &&lbl_kLoopNext,    &&lbl_kProbe,       &&lbl_kProbeNext,
      &&lbl_kFilterConst, &&lbl_kFilterKey,   &&lbl_kFilterEq,
      &&lbl_kLoad,        &&lbl_kMember,      &&lbl_kMemberOld,
      &&lbl_kEmit,        &&lbl_kJump,        &&lbl_kSeek,
      &&lbl_kSeekNext,    &&lbl_kLoopEmitAll, &&lbl_kProbeEmitAll,
      &&lbl_kSeekEmitAll, &&lbl_kSeekEmitFirst};
#define VM_DISPATCH()                                          \
  do {                                                         \
    if constexpr (kCount) {                                    \
      ++(*dispatch)[static_cast<std::size_t>(ip->op)];         \
    }                                                          \
    goto* kLabels[static_cast<std::size_t>(ip->op)];           \
  } while (0)
#define VM_CASE(name) lbl_##name:
#define VM_NEXT()   \
  do {              \
    ++ip;           \
    VM_DISPATCH(); \
  } while (0)
#define VM_JUMP(target)  \
  do {                   \
    ip = code + (target); \
    VM_DISPATCH();      \
  } while (0)
  VM_DISPATCH();

  VM_CASE(kHalt) { goto vm_done; }

  VM_CASE(kLoadKey) {
    keys[ip->a][ip->b] = slots[ip->c];
    VM_NEXT();
  }

  VM_CASE(kLoop) {
    const StepRt& rt = srt[ip->a];
    if (rt.dead) VM_JUMP(ip->t);
    ++local.index_lookups;
    iters[ip->a].pos = rt.rows.begin;
    VM_NEXT();
  }

  VM_CASE(kLoopNext) {
    const StepRt& rt = srt[ip->a];
    IterRt& it = iters[ip->a];
    if (it.pos >= rt.rows.end) VM_JUMP(ip->t);
    it.row = static_cast<std::uint32_t>(it.pos++);
    ++local.tuples_scanned;
    VM_NEXT();
  }

  VM_CASE(kProbe) {
    const StepRt& rt = srt[ip->a];
    if (rt.dead || !rt.has_view) VM_JUMP(ip->t);
    ++local.index_lookups;
    const std::vector<std::uint32_t>& key = keys[ip->a];
    IterRt& it = iters[ip->a];
    it.list = rt.rel->PostingsIn(
        rt.single_key ? rt.single.FindId(key[0]) : rt.multi.FindIds(key),
        rt.rows);
    it.pos = 0;
    VM_NEXT();
  }

  VM_CASE(kProbeNext) {
    IterRt& it = iters[ip->a];
    if (it.pos >= it.list.size()) VM_JUMP(ip->t);
    it.row = it.list[it.pos++];
    ++local.tuples_scanned;
    VM_NEXT();
  }

  VM_CASE(kFilterConst) {
    if (srt[ip->a].rel->column(static_cast<int>(ip->b))[iters[ip->a].row] !=
        ip->c) {
      VM_JUMP(ip->t);
    }
    VM_NEXT();
  }

  VM_CASE(kFilterKey) {
    if (srt[ip->a].rel->column(static_cast<int>(ip->b))[iters[ip->a].row] !=
        keys[ip->a][ip->c]) {
      VM_JUMP(ip->t);
    }
    VM_NEXT();
  }

  VM_CASE(kFilterEq) {
    const Relation& rel = *srt[ip->a].rel;
    const std::uint32_t row = iters[ip->a].row;
    if (rel.column(static_cast<int>(ip->b))[row] !=
        rel.column(static_cast<int>(ip->c))[row]) {
      VM_JUMP(ip->t);
    }
    VM_NEXT();
  }

  VM_CASE(kLoad) {
    slots[ip->c] = srt[ip->a].rel->column(static_cast<int>(ip->b))
        [iters[ip->a].row];
    VM_NEXT();
  }

  // Both membership ops are one dedup-table lookup of the unique row
  // equal to the key, which must lie in the step's rows: the whole
  // relation, the old snapshot for MEMBER_OLD, or the delta range.
  VM_CASE(kMember)
  VM_CASE(kMemberOld) {
    const StepRt& rt = srt[ip->a];
    if (rt.dead) VM_JUMP(ip->t);
    ++local.index_lookups;
    ++local.tuples_scanned;
    if (!rt.full_row || rt.rel->FindRowIdsIn(keys[ip->a].data(), rt.rows) ==
                            Relation::kNoRow) {
      VM_JUMP(ip->t);
    }
    VM_NEXT();
  }

  VM_CASE(kEmit) {
    make_room(1);
    emit_row();
    VM_JUMP(ip->t);
  }

  VM_CASE(kJump) { VM_JUMP(ip->t); }

  VM_CASE(kSeek) {
    seek_open(ip->a);
    VM_NEXT();
  }

  VM_CASE(kSeekNext) {
    MwStepRt& mr = mrt[ip->a];
    const MwStepDesc& ms = p.mw_steps[ip->a];
    for (;;) {
      if (mr.pos >= mr.iter.size()) VM_JUMP(ip->t);
      const std::uint32_t id = mr.Candidate(mr.pos++);
      ++local.tuples_scanned;
      if (!seek_accept(mr, ms, id)) continue;
      slots[ms.slot] = id;
      break;
    }
    VM_NEXT();
  }

  VM_CASE(kLoopEmitAll) {
    const StepRt& rt = srt[ip->a];
    if (!rt.dead) {
      ++local.index_lookups;
      const std::vector<std::uint32_t>& key = keys[ip->a];
      const std::size_t end = rt.rows.end;
      const std::size_t num_keys = rt.key_ptrs.size();
      local.tuples_scanned += rt.rows.size();  // every row in range is scanned
      // A scan filtered on keys may accept few of its rows: it makes room
      // per row that passes the keys, not for the whole range.
      if (num_keys == 0) make_room(rt.rows.size());
      for (std::size_t r = rt.rows.begin; r < end; ++r) {
        bool ok = true;
        for (std::size_t k = 0; k < num_keys; ++k) {
          if (rt.key_ptrs[k][r] != key[k]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (num_keys != 0) make_room(1);
        for (const auto& [first, repeat] : rt.check_ptrs) {
          if (first[r] != repeat[r]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const auto& [col, slot] : rt.write_ptrs) slots[slot] = col[r];
        emit_row();
      }
    }
    VM_NEXT();
  }

  VM_CASE(kProbeEmitAll) {
    const StepRt& rt = srt[ip->a];
    if (!rt.dead && rt.has_view) {
      ++local.index_lookups;
      const std::vector<std::uint32_t>& key = keys[ip->a];
      const std::span<const std::uint32_t> list = rt.rel->PostingsIn(
          rt.single_key ? rt.single.FindId(key[0]) : rt.multi.FindIds(key),
          rt.rows);
      local.tuples_scanned += list.size();
      make_room(list.size());
      for (std::uint32_t r : list) {
        bool ok = true;
        for (const auto& [first, repeat] : rt.check_ptrs) {
          if (first[r] != repeat[r]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const auto& [col, slot] : rt.write_ptrs) slots[slot] = col[r];
        emit_row();
      }
    }
    VM_NEXT();
  }

  VM_CASE(kSeekEmitAll)
  VM_CASE(kSeekEmitFirst) {
    seek_open(ip->a);
    MwStepRt& mr = mrt[ip->a];
    const MwStepDesc& ms = p.mw_steps[ip->a];
    const bool first_only = ip->op == Op::kSeekEmitFirst;
    make_room(first_only ? 1 : mr.iter.size());
    for (std::size_t i = 0; i < mr.iter.size(); ++i) {
      const std::uint32_t id = mr.Candidate(i);
      ++local.tuples_scanned;
      if (!seek_accept(mr, ms, id)) continue;
      slots[ms.slot] = id;
      emit_row();
      if (first_only) VM_JUMP(ip->t);
    }
    VM_NEXT();
  }

#undef VM_CASE
#undef VM_NEXT
#undef VM_JUMP
#undef VM_DISPATCH

vm_done:
  derived.resize(static_cast<std::size_t>(out - derived.data()));
  // Reject derived ids the dictionary has never issued before anything
  // resolves them (possible only for hand-written programs reading
  // never-written slots or carrying unissued constant ids; lowered
  // programs bind every emitted slot): one branch-free max over this
  // run's rows, compared once.
  std::uint32_t max_id = 0;
  for (std::size_t i = first_id; i < derived.size(); ++i) {
    max_id = std::max(max_id, derived[i]);
  }
  if (derived.size() > first_id && max_id >= dict_size) {
    derived.resize(first_id);
    return false;
  }
  derived_rows->count += count;
  if (stats != nullptr) stats->Add(local);
  return true;
}

}  // namespace

bool Derive(const Program& program, const Database& full,
            const DeltaRanges* ranges, MatchStats* stats,
            IdRowBuffer* derived, DispatchCounts* dispatch,
            const PhaseSinks& sinks) {
  if (dispatch != nullptr) {
    dispatch->fill(0);
    return DeriveImpl<true>(program, full, ranges, stats, derived, dispatch,
                            sinks);
  }
  return DeriveImpl<false>(program, full, ranges, stats, derived, nullptr,
                           sinks);
}

bool Run(const Program& program, const Database& full,
         const DeltaRanges* ranges, Database* out, MatchStats* stats,
         std::size_t* new_facts, DispatchCounts* dispatch) {
  // The head must name a predicate of `out` at the program's head arity,
  // or the batch insert below would create a mismatched relation.
  const auto head_pred = static_cast<PredicateId>(program.head_predicate);
  if (head_pred < 0 || head_pred >= out->symbols()->NumPredicates() ||
      out->symbols()->PredicateArity(head_pred) !=
          static_cast<int>(program.head.size())) {
    return false;
  }
  IdRowBuffer derived;
  if (!Derive(program, full, ranges, stats, &derived, dispatch)) {
    return false;
  }
  *new_facts = out->MutableRelation(head_pred).InsertIdRows(derived);
  return true;
}

}  // namespace bytecode
}  // namespace datalog
