#!/usr/bin/env python3
"""Compare bench_e2e results: A (the parent) against B (the change).

    python3 bench/e2e/compare.py A.json B.json
    python3 bench/e2e/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

Each side is one record written by `bench_e2e --out` (run.py passes the
flag through), typically a full invocation (`--workload all`), or a
comma-separated list of records of the same code. The bounds come from
BENCHMARK.json at the repository root. For every workload on both sides,
one row per end-to-end metric gives A's and B's values and a verdict. A
record's value is the median over its runs, or the mean for peak_rss_mb;
a side's value is the median over its records.

  ok          B is no worse than A by more than the metric's bound
  REGRESSION  B's value is worse than A's by more than the bound
  unresolved  A's spread is wider than the bound, so neither can be
              claimed; "better" instead when every run of B beats every
              run of A

A's spread is how far A's value moves between runs of the benchmark, as a
share of that value. With several A records it is the interquartile range
of their values; that is the measurement to trust. With one record it
can only be estimated from that record's own samples: their interquartile
range times 1.2533 / sqrt(n), the standard error of a median of n samples.
That estimate misses a host that speeds up or slows down between runs.

Then the failure ratio (failed / attempted runs), which may not rise, and
informational lines for final lnLs and exact per-layer counts that differ
between the first records of each side. Exact counts are the metrics in
unit "count", and those in "bytes" outside obs.* (telemetry files carry
timestamps, so their sizes vary from run to run).

All records must carry the same stamps (build type, flags, kernel ISA,
site-repeat state, nproc, seed and run length); only the commit may differ.
Exit status: 0 without regressions, 1 on a regression or a higher failure
ratio, 2 when the results cannot be compared.
"""
import json
import math
import os
import statistics
import sys

STAMPS_THAT_MUST_MATCH = ("build_type", "cxx_flags", "kernel_isa", "repeats",
                          "nproc", "seed", "seconds")


def load(path):
    with open(path) as f:
        return json.load(f)


def bounds():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                        "BENCHMARK.json")
    spec = load(path)
    return {m["name"]: m for m in spec["end_to_end"]}


def side_stats(metrics):
    """(value, spread, runs) of one metric over a side's records."""
    values = [m["value"] for m in metrics]
    value = statistics.median(values)
    if len(values) > 1:
        q = statistics.quantiles(values, n=4)
        return value, (q[2] - q[0]) / abs(value), values
    m = metrics[0]
    spread = (m["q3"] - m["q1"]) / abs(m["median"]) * 1.2533 / math.sqrt(m["n"])
    return value, spread, m["samples"]


def compare_metric(spec, metrics_a, metrics_b):
    """Verdict, B's change as a share of A (positive = worse), A's spread."""
    value_a, spread_a, runs_a = side_stats(metrics_a)
    value_b, _, runs_b = side_stats(metrics_b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (value_b - value_a) / abs(value_a)
    if spread_a > spec["bound"]:
        beats = (max(runs_b) < min(runs_a) if sign > 0 else
                 min(runs_b) > max(runs_a))
        return ("better" if beats else "unresolved"), worse, spread_a
    return ("REGRESSION" if worse > spec["bound"] else "ok"), worse, spread_a


def run_lnls(workload):
    out = {}
    for run in workload["runs"]:
        if run["lnl"] is not None and not run["failures"]:
            out.setdefault(run["alignment"], run["lnl"])
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    side_a = [load(p) for p in argv[1].split(",")]
    side_b = [load(p) for p in argv[2].split(",")]
    first = side_a[0]["stamp"]
    for record in side_a[1:] + side_b:
        differing = [k for k in STAMPS_THAT_MUST_MATCH
                     if record["stamp"].get(k) != first.get(k)]
        for k in differing:
            print(f"refusing to compare: stamp {k!r} differs: "
                  f"{first.get(k)!r} vs {record['stamp'].get(k)!r}", file=sys.stderr)
        if differing:
            return 2
    specs = bounds()
    print(f"A: {', '.join(r['stamp']['commit'] for r in side_a)}  "
          f"B: {', '.join(r['stamp']['commit'] for r in side_b)}  "
          f"(seed {first['seed']}, {first['kernel_isa']} kernels, "
          f"nproc {first['nproc']})")

    shared = [w for w in side_a[0]["workloads"]
              if all(w in r["workloads"] for r in side_a + side_b)]
    if not shared:
        print("no workload in common", file=sys.stderr)
        return 2
    regressions, unresolved = 0, 0
    print(f"{'workload':<14} {'metric':<12} {'A':>12} {'B':>12} "
          f"{'B vs A':>8} {'A spread':>9} {'bound':>6}  verdict")
    for name in shared:
        wa = [r["workloads"][name] for r in side_a]
        wb = [r["workloads"][name] for r in side_b]
        for metric, spec in specs.items():
            if not all(metric in w["end_to_end"] for w in wa + wb):
                continue
            ma = [w["end_to_end"][metric] for w in wa]
            mb = [w["end_to_end"][metric] for w in wb]
            verdict, worse, spread = compare_metric(spec, ma, mb)
            regressions += verdict == "REGRESSION"
            unresolved += verdict == "unresolved"
            print(f"{name:<14} {metric:<12} {side_stats(ma)[0]:>12.6g} "
                  f"{side_stats(mb)[0]:>12.6g} {100 * worse:>+7.1f}% "
                  f"{100 * spread:>8.1f}% {100 * spec['bound']:>5.0f}%  {verdict}")
        ratio_a = sum(w["failed"] for w in wa) / max(1, sum(w["attempted"] for w in wa))
        ratio_b = sum(w["failed"] for w in wb) / max(1, sum(w["attempted"] for w in wb))
        verdict = "REGRESSION" if ratio_b > ratio_a else "ok"
        regressions += verdict == "REGRESSION"
        print(f"{name:<14} {'fail_ratio':<12} {ratio_a:>12.6g} {ratio_b:>12.6g} "
              f"{'':>8} {'':>9} {'':>6}  {verdict}")

    for name in shared:
        wa, wb = side_a[0]["workloads"][name], side_b[0]["workloads"][name]
        la, lb = run_lnls(wa), run_lnls(wb)
        for index in sorted(set(la) & set(lb)):
            if la[index] != lb[index]:
                print(f"note: {name} alignment {index}: final lnL "
                      f"{la[index]!r} vs {lb[index]!r}")
        for metric, value in wa["per_layer"].items():
            other = wb["per_layer"].get(metric)
            exact = value["unit"] == "count" or (
                value["unit"] == "bytes" and not metric.startswith("obs."))
            if exact and other is not None and other["value"] != value["value"]:
                print(f"note: {name} {metric}: {value['value']!r} vs "
                      f"{other['value']!r} {value['unit']}")

    print(f"{regressions} regression(s), {unresolved} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
