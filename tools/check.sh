#!/usr/bin/env bash
# Sanitizer check harness. Builds the library and tests under
# ThreadSanitizer and runs the evaluation-engine suites (the ones that
# exercise the parallel evaluator's frozen-snapshot contract; eval_test
# includes the storage-conformance suite that runs every relation
# invariant, and integration_test includes the differential fuzzer whose
# knob matrix crosses greedy ordering x index lookups x multiway x
# {sequential, parallel, incremental} and checks the bytecode VM against
# Execute), then repeats the incremental-maintenance fuzzer and the
# parser suites (ast_test) under ASan+UBSan. Also
# smoke-tests the observability layer: the CLI's --trace/--metrics
# output must be valid JSON, runs a deterministic work-counter
# regression gate (eval.tuples_scanned / eval.index_lookups on a fixed
# corpus, and incr.* on a fixed commit script, must stay at or below
# tools/work_counters.baseline), and runs
# the datalog lint gate (tools/lint.sh: `datalog-opt check` over every
# checked-in .dl program must report no error diagnostics).
#
#   tools/check.sh            # TSan gate + ASan/UBSan incremental fuzzer
#   tools/check.sh thread     # TSan gate only, explicit
#   tools/check.sh address,undefined   # ASan+UBSan suites instead
#   DATALOG_CHECK_ALL=1 tools/check.sh # run the full ctest suite
#   DATALOG_CHECK_INCR_ASAN=0 tools/check.sh  # skip the extra ASan pass
#
# Benchmarks and examples are skipped: sanitizer builds are for
# correctness, not measurement.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"

configure_and_build() {
  local sanitize="$1"
  local build_dir="${ROOT}/build-sanitize-${sanitize//,/-}"

  echo "== configuring (${sanitize}) into ${build_dir}"
  cmake -B "${build_dir}" -S "${ROOT}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDATALOG_SANITIZE="${sanitize}" \
    -DDATALOG_BUILD_BENCHMARKS=OFF

  echo "== building (${sanitize})"
  cmake --build "${build_dir}" -j "${JOBS}" \
    --target util_test ast_test eval_test incr_test obs_test core_test \
             integration_test server_test server_oracle_test datalog-opt
}

# The tracer and metrics registry write their own JSON; make sure a real
# CLI run produces files that actually parse.
validate_obs_json() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== skipping trace/metrics JSON validation (no python3)"
    return 0
  fi
  local tmp
  tmp="$(mktemp -d)"
  printf 't(x, y) :- e(x, y).\nt(x, z) :- t(x, y), e(y, z).\n' \
    > "${tmp}/p.dl"
  printf 'e(1, 2).\ne(2, 3).\ne(3, 1).\n' > "${tmp}/f.dl"
  "${build_dir}/tools/datalog-opt" eval "${tmp}/p.dl" "${tmp}/f.dl" \
    --trace="${tmp}/trace.json" --metrics="${tmp}/metrics.json" \
    > /dev/null
  python3 -m json.tool "${tmp}/trace.json" > /dev/null
  python3 -m json.tool "${tmp}/metrics.json" > /dev/null
  rm -rf "${tmp}"
  echo "== OK (trace/metrics JSON parses)"
}

# Deterministic work-counter regression gate. Join-order plans are
# resolved once per (rule, delta position) against whole-round sizes, so
# eval.tuples_scanned / eval.index_lookups -- and incr.* for the commit
# path's case -- are exactly reproducible on a fixed corpus; any increase
# over the checked-in baseline (tools/work_counters.baseline) is a
# planner or matcher regression, not noise. Regenerate the baseline by
# pasting this gate's "measured" output after a deliberate change.
run_work_counter_gate() {
  local build_dir="$1"
  if ! command -v python3 >/dev/null 2>&1; then
    echo "== skipping work-counter gate (no python3)"
    return 0
  fi
  echo "== running work-counter regression gate"
  local tmp
  tmp="$(mktemp -d)"

  # tc: linear transitive closure over a 48-node chain.
  printf 't(x, y) :- e(x, y).\nt(x, z) :- t(x, y), e(y, z).\n' \
    > "${tmp}/tc.dl"
  : > "${tmp}/tc_facts.dl"
  for i in $(seq 1 47); do
    printf 'e(%d, %d).\n' "$i" $((i + 1)) >> "${tmp}/tc_facts.dl"
  done

  # sg: the classic two-sided same-generation join over a 31-node
  # complete binary tree.
  printf 'sg(x, y) :- flat(x, y).\nsg(x, y) :- up(x, u), sg(u, v), down(v, y).\n' \
    > "${tmp}/sg.dl"
  : > "${tmp}/sg_facts.dl"
  for i in $(seq 2 31); do
    printf 'up(%d, %d).\ndown(%d, %d).\n' "$i" $((i / 2)) $((i / 2)) "$i" \
      >> "${tmp}/sg_facts.dl"
  done
  for i in $(seq 1 31); do
    printf 'flat(%d, %d).\n' "$i" "$i" >> "${tmp}/sg_facts.dl"
  done

  # sel: a selective constant probe next to an unselective scan; greedy
  # ordering must keep the probe first.
  printf 'out(x, y) :- big(x, y), tiny(0, x).\n' > "${tmp}/sel.dl"
  : > "${tmp}/sel_facts.dl"
  for i in $(seq 0 63); do
    printf 'big(%d, %d).\n' "$i" $(((i * 7 + 3) % 64)) >> "${tmp}/sel_facts.dl"
  done
  printf 'tiny(0, 5).\n' >> "${tmp}/sel_facts.dl"

  # tri: a hub-skewed triangle query over a 25-node ring plus one hub
  # connected in both directions. The body's join hypergraph is cyclic
  # with width 2, so the planner selects the worst-case-optimal multiway
  # intersection; this case pins that executor's work counters.
  printf 'tri(x, y, z) :- e(x, y), e(y, z), e(z, x).\n' > "${tmp}/tri.dl"
  : > "${tmp}/tri_facts.dl"
  for i in $(seq 1 24); do
    printf 'e(%d, %d).\ne(0, %d).\ne(%d, 0).\n' "$i" $((i % 24 + 1)) "$i" "$i" \
      >> "${tmp}/tri_facts.dl"
  done

  # clq: the 4-clique rule over a 24-node ring with edges i -> i+1 and
  # i -> i+2, plus two hubs (0 and 25) connected to every node in both
  # directions. The head drops y and z, so the multiway plan binds x and
  # w first and stops at one (y, z) witness each; this case pins the
  # first-witness exit's saved work.
  printf 'clq(x, w) :- e(x, y), e(x, z), e(x, w), e(y, z), e(y, w), e(z, w).\n' \
    > "${tmp}/clq.dl"
  printf 'e(0, 25).\ne(25, 0).\n' > "${tmp}/clq_facts.dl"
  for i in $(seq 1 24); do
    printf 'e(%d, %d).\ne(%d, %d).\ne(0, %d).\ne(%d, 0).\ne(25, %d).\ne(%d, 25).\n' \
      "$i" $((i % 24 + 1)) "$i" $(((i + 1) % 24 + 1)) "$i" "$i" "$i" "$i" \
      >> "${tmp}/clq_facts.dl"
  done

  # incr: the commit path. One DRed SCC (path) and one counting SCC
  # (tri, a cyclic body) over the tri case's ring plus hub, driven through
  # three commits of insertions and retractions and one query; the
  # counters are the commits' join work (incr.*).
  printf 'path(x, y) :- e(x, y).\npath(x, z) :- path(x, y), e(y, z).\n' \
    > "${tmp}/incr.dl"
  printf 'tri(x, y, z) :- e(x, y), e(y, z), e(z, x).\n' >> "${tmp}/incr.dl"
  cp "${tmp}/tri_facts.dl" "${tmp}/incr_facts.dl"
  printf '+e(3, 1).\n+e(5, 7).\ncommit\n-e(0, 4).\n-e(12, 13).\ncommit\n' \
    > "${tmp}/incr_script.txt"
  printf -- '-e(5, 7).\n+e(12, 13).\ncommit\n?tri(1, y, z)\n' \
    >> "${tmp}/incr_script.txt"

  local case_name
  : > "${tmp}/measured.txt"
  for case_name in tc sg sel tri clq incr; do
    local command=eval prefix=eval
    local args=("${tmp}/${case_name}.dl" "${tmp}/${case_name}_facts.dl")
    if [ "${case_name}" = incr ]; then
      command=incr prefix=incr
      args+=("${tmp}/incr_script.txt")
    fi
    "${build_dir}/tools/datalog-opt" "${command}" "${args[@]}" \
      --metrics="${tmp}/${case_name}_m.json" > /dev/null
    python3 - "${case_name}" "${tmp}/${case_name}_m.json" "${prefix}" \
      >> "${tmp}/measured.txt" <<'PYEOF'
import json, sys
name, path, prefix = sys.argv[1], sys.argv[2], sys.argv[3]
scanned, lookups = prefix + ".tuples_scanned", prefix + ".index_lookups"
counters = {scanned: 0, lookups: 0}
with open(path) as f:
    for m in json.load(f)["metrics"]:
        if m["name"] in counters:
            counters[m["name"]] += m["value"]
print(name, counters[scanned], counters[lookups])
PYEOF
  done

  python3 - "${ROOT}/tools/work_counters.baseline" "${tmp}/measured.txt" <<'PYEOF'
import sys
def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            name, scanned, lookups = line.split()
            rows[name] = (int(scanned), int(lookups))
    return rows
baseline = load(sys.argv[1])
measured = load(sys.argv[2])
failed = False
for name, (scanned, lookups) in sorted(measured.items()):
    if name not in baseline:
        print(f"work-counter gate: no baseline for case '{name}'")
        failed = True
        continue
    base_scanned, base_lookups = baseline[name]
    tag = "OK"
    if scanned > base_scanned or lookups > base_lookups:
        tag = "REGRESSION"
        failed = True
    print(f"  {name}: tuples_scanned {scanned} (baseline {base_scanned}), "
          f"index_lookups {lookups} (baseline {base_lookups}) {tag}")
sys.exit(1 if failed else 0)
PYEOF
  rm -rf "${tmp}"
  echo "== OK (work counters at or below baseline)"
}

# Datalog lint gate: every checked-in .dl program must be free of
# error-severity analyzer diagnostics (tools/lint.sh; warnings allowed,
# corpus inputs carry planted redundancy by design).
run_lint_gate() {
  local build_dir="$1"
  echo "== running datalog lint gate"
  "${ROOT}/tools/lint.sh" "${build_dir}" | tail -1
  echo "== OK (datalog lint)"
}

run_gate() {
  local sanitize="$1"
  local build_dir="${ROOT}/build-sanitize-${sanitize//,/-}"

  echo "== running tests under -fsanitize=${sanitize}"
  cd "${build_dir}"
  if [ "${DATALOG_CHECK_ALL:-0}" = "1" ]; then
    ctest --output-on-failure -j "${JOBS}"
  else
    # The thread-pool, parallel-evaluator, concurrent-relation,
    # incremental-maintenance, and differential tests all live in
    # these suites. obs_test runs the trace-invariant checks (which
    # drive the parallel engines with tracing enabled), and core_test's
    # metamorphic filter runs the minimizer fuzzer.
    ./tests/util_test
    # The parser suites: tokens are views into the caller's text, so a
    # dangling view is what ASan would catch here.
    ./tests/ast_test
    ./tests/eval_test
    ./tests/incr_test
    ./tests/obs_test
    # The server suites are the epoch-snapshot concurrency gate: pinned
    # readers racing commit publication, worker pools racing the I/O
    # loop, and the 50-seed snapshot-isolation differential oracle.
    ./tests/server_test
    ./tests/server_oracle_test
    ./tests/core_test --gtest_filter='*MinimizeMetamorphic*'
    ./tests/integration_test \
      --gtest_filter='*DifferentialEngine*:*MethodsAgree*:*Incremental*:*TabledTopDown*'
  fi
  cd "${ROOT}"
  validate_obs_json "${build_dir}"
  run_work_counter_gate "${build_dir}"
  run_lint_gate "${build_dir}"

  echo "== OK (${sanitize})"
}

SANITIZE="${1:-thread}"
configure_and_build "${SANITIZE}"
run_gate "${SANITIZE}"

# With the default TSan gate, also fuzz the incremental engine under
# ASan+UBSan: EraseAll invalidates lazy indexes and DRed erases and
# re-adds rows within one commit, which is exactly the churn that
# use-after-free bugs hide in. TSan cannot see those; ASan can.
if [ "${SANITIZE}" = "thread" ] && [ "${DATALOG_CHECK_INCR_ASAN:-1}" = "1" ]; then
  configure_and_build "address,undefined"
  build_dir="${ROOT}/build-sanitize-address-undefined"
  echo "== running incremental fuzzer under -fsanitize=address,undefined"
  cd "${build_dir}"
  ./tests/incr_test
  # The parser suites, whose tokens are views into the caller's text.
  ./tests/ast_test
  # *Multiway* adds the worst-case-optimal join matrix (cyclic bodies,
  # multiway x left-deep) to the ASan pass; its id-space scratch buffers
  # and sorted-key caches churn on every replan. *Bytecode* adds the
  # VM-vs-Execute differential checks plus the validator fuzzer
  # (BytecodeFuzzTest), whose whole point is running hostile instruction
  # streams and mutated descriptor tables under ASan/UBSan.
  # *CompiledRule* runs Execute's id frame and key buffers directly:
  # pre-bound slots, minus and plus parts, and repeated variables.
  ./tests/integration_test --gtest_filter='*Incremental*:*Multiway*:*Bytecode*'
  ./tests/eval_test \
    --gtest_filter='*Multiway*:*Hypergraph*:*Bytecode*:*CompiledRule*'
  cd "${ROOT}"
  echo "== OK (address,undefined incremental fuzzer)"
fi
