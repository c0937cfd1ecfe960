#!/usr/bin/env python3
"""Interleaved A/B comparison of two source trees on one perfbench workload.

Usage:

    python3 tools/perfbench_ab.py --base TREE --change TREE \\
        --workload tc-random --pairs 10 --seconds 55 --first-seed 101

Each pair runs `python3 perfbench/run.py --trace 0` once inside each tree
(each tree builds into its own `.bench_build/`), with the same seed for
both sides: pair i uses seed first-seed + i, and the side that runs first
alternates from pair to pair. For every end-to-end metric in the base
tree's BENCHMARK.json the script prints each side's median and quartiles,
the number of pairs the change won, and a verdict:

  gain      the change won at least nine tenths of the pairs, and the
            medians differ by more than the base's interquartile range
  no worse  otherwise, when the change's median is not worse than the
            base's by more than the metric's bound (a fraction)
  worse     otherwise

It also prints, per side, the median share of each run's CPU time spent
in the kernel (ru_stime / (ru_utime + ru_stime)) and the median minor page
faults per operation, both from getrusage(RUSAGE_CHILDREN) deltas around
each run.py call. They cover run.py's up-to-date build check as well as
the driver, and get no verdict.

With --traced N, N `--trace 1` runs per side follow the pairs, as long
as each pair's runs: traced run i uses seed first-seed + i, and the side
that runs first alternates as in the pairs (--traced alone means one).
The script prints every per-layer metric in the base tree's
BENCHMARK.json (op_engine_ms, op_io_ms, setup_*_ms, the per-operation
counts) with each side's median and quartiles over its traced runs and
the ratio of the medians, so a claim's layer split comes from the same
batch as its end-to-end figures. They get no verdict either.

The verdicts are informational. The exit status is 1 when any run fails,
reports "correct": false, or reports a failed operation; 0 otherwise.
"""

import argparse
import json
import os
import resource
import subprocess
import sys


def run_side(tree, workload, seed, seconds, trace=0):
    """Runs perfbench in `tree`; returns its result dict, the run's kernel
    share of CPU time and its minor page faults per operation."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds in its own dir
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("perfbench/run.py in %s exited with code %d"
                           % (tree, proc.returncode))
    result = json.loads(lines[-1])
    user = after.ru_utime - before.ru_utime
    system = after.ru_stime - before.ru_stime
    kernel_share = system / (user + system) if user + system > 0 else 0.0
    faults_per_op = ((after.ru_minflt - before.ru_minflt)
                     / max(1, result["attempted"]))
    return result, kernel_share, faults_per_op


def quantile(values, q):
    """Linear interpolation between order statistics (q in [0, 1])."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarize(metric, base, change):
    """Prints one metric's comparison; `base` and `change` are per-pair."""
    lower = metric.get("better", "lower") == "lower"
    bound = float(metric.get("bound", 0.0))
    b_med, c_med = quantile(base, 0.5), quantile(change, 0.5)
    b_iqr = quantile(base, 0.75) - quantile(base, 0.25)
    won = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    gap = (b_med - c_med) if lower else (c_med - b_med)  # > 0: change better
    worse_by = -gap / b_med if b_med else 0.0
    if won * 10 >= 9 * len(base) and gap > b_iqr:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "no worse"
    unit = metric.get("unit", "")
    print("%s (%s, %s is better, bound %g)"
          % (metric["name"], unit, "lower" if lower else "higher", bound))
    for name, values in (("base", base), ("change", change)):
        print("  %-6s median %.4g  quartiles %.4g-%.4g"
              % (name, quantile(values, 0.5), quantile(values, 0.25),
                 quantile(values, 0.75)))
    ratio = (b_med / c_med if lower else c_med / b_med) if c_med and b_med \
        else float("nan")
    print("  change won %d/%d pairs; median gap %.4g (base IQR %.4g); "
          "speed-up %.3fx" % (won, len(base), gap, b_iqr, ratio))
    print("  verdict: " + verdict)


def print_layers(layers, base, change, runs):
    """Prints the traced runs' per-layer metrics side by side: each side's
    median and quartiles over its runs (`base` and `change` map a metric
    to its values), and the change's median over the base's."""
    print("per-layer metrics, %d traced run(s) per side: median (quartiles),"
          " no verdict" % runs)
    print("  %-26s %-6s %-34s %-34s %8s" % ("metric", "unit", "base",
                                           "change", "ratio"))

    def cell(values):
        if not values:
            return "-"
        return "%.4g (%.4g-%.4g)" % (quantile(values, 0.5),
                                     quantile(values, 0.25),
                                     quantile(values, 0.75))

    for m in layers:
        b, c = base[m["name"]], change[m["name"]]
        ratio = "-"
        if b and c and quantile(b, 0.5):
            ratio = "%.3f" % (quantile(c, 0.5) / quantile(b, 0.5))
        print("  %-26s %-6s %-34s %-34s %8s" % (m["name"], m.get("unit", ""),
                                               cell(b), cell(c), ratio))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--traced", type=int, nargs="?", const=1,
                        default=0, metavar="N",
                        help="after the pairs, N --trace 1 runs per side "
                        "(alternating, seeds from --first-seed) with "
                        "per-layer metrics; alone, N is 1")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    if args.traced < 0:
        parser.error("--traced must not be negative")

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]
    sides = {"base": args.base, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    kernel = {side: [] for side in sides}
    faults = {side: [] for side in sides}
    bad = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        row = {}
        for side in order:
            try:
                result, share, per_op = run_side(sides[side], args.workload,
                                                 seed, args.seconds)
            except RuntimeError as err:
                print("perfbench_ab: " + str(err), file=sys.stderr)
                return 1
            if not result["correct"] or result["failed"] != 0:
                bad.append("pair %d (seed %d) %s: correct=%s failed=%s"
                           % (pair, seed, side, result["correct"],
                              result["failed"]))
            row[side] = result["metrics"]
            kernel[side].append(share)
            faults[side].append(per_op)
        for side in sides:
            for m in metrics:
                values[side][m["name"]].append(row[side][m["name"]]["value"])
        print("pair %d seed %d (%s first): %s  kernel %.1f%% -> %.1f%%  "
              "faults/op %.3g -> %.3g" % (
                  pair, seed, order[0], "  ".join(
                      "%s %.4g -> %.4g" % (m["name"],
                                           values["base"][m["name"]][-1],
                                           values["change"][m["name"]][-1])
                      for m in metrics),
                  100 * kernel["base"][-1], 100 * kernel["change"][-1],
                  faults["base"][-1], faults["change"][-1]), flush=True)

    print("\n%s: %d pairs of %g s, seeds %d-%d\n" % (
        args.workload, args.pairs, args.seconds, args.first_seed,
        args.first_seed + args.pairs - 1))
    for m in metrics:
        summarize(m, values["base"][m["name"]], values["change"][m["name"]])
    print("process cost per run (no verdict; includes run.py's build check)")
    for side in sides:
        print("  %-6s kernel share median %.2f%% (%.2f-%.2f%%)  minor faults"
              "/op median %.3g (%.3g-%.3g)"
              % (side, 100 * quantile(kernel[side], 0.5),
                 100 * quantile(kernel[side], 0.25),
                 100 * quantile(kernel[side], 0.75),
                 quantile(faults[side], 0.5), quantile(faults[side], 0.25),
                 quantile(faults[side], 0.75)))
    if args.traced:
        layers = benchmark.get("per_layer", [])
        traced = {side: {m["name"]: [] for m in layers} for side in sides}
        for run in range(args.traced):
            seed = args.first_seed + run
            order = ("base", "change") if run % 2 == 0 else ("change", "base")
            for side in order:
                try:
                    result, _, _ = run_side(sides[side], args.workload, seed,
                                            args.seconds, trace=1)
                except RuntimeError as err:
                    print("perfbench_ab: " + str(err), file=sys.stderr)
                    return 1
                if not result["correct"] or result["failed"] != 0:
                    bad.append("traced run %d (seed %d) %s: correct=%s "
                               "failed=%s" % (run, seed, side,
                                              result["correct"],
                                              result["failed"]))
                for m in layers:
                    value = result["metrics"].get(m["name"], {}).get("value")
                    if value is not None:
                        traced[side][m["name"]].append(value)
        print_layers(layers, traced["base"], traced["change"], args.traced)
    for line in bad:
        print("FAILED: " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
