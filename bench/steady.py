"""Steadiness check: two interleaved sets of runs of the same code.

    python3 bench/steady.py --runs 5
    python3 bench/steady.py --runs 3 --workload shadow-synth

For every workload, runs set A and set B alternately (A B A B ...), each run
with a seed of its own (1, 2, 3, ...; set A gets the odd ones), one run at a
time, for BENCHMARK.json's run_seconds.  Per end-to-end metric it reports
the median and quartiles of each set, whether the two medians agree within
the metric's bound in BENCHMARK.json, and the spread of all runs together
(interquartile distance over median) next to the same spread of the raw,
uncalibrated figure.  It also checks that every spread, setup_s's too, is
within the metric's bound, that every run was correct, that the metric names and units match BENCHMARK.json, and that the share of failed
ops is the same in every run.  The summary goes to .bench_build/bench/steady.json;
the exit status is 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = next(json.loads(x[len("raw: "):]) for x in lines if x.startswith("raw: "))
    return {"seed": seed, "wall_s": wall, "result": result, "raw": raw}


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(spec: dict, runs_a: list, runs_b: list) -> tuple[list[dict], list[str]]:
    rows, problems = [], []
    everything = runs_a + runs_b
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        got = {(r["result"]["metrics"][name]["unit"]) for r in everything}
        if got != {metric["unit"]}:
            problems.append(f"{name}: units {sorted(got)} but BENCHMARK.json says {metric['unit']}")
        a = [r["result"]["metrics"][name]["value"] for r in runs_a]
        b = [r["result"]["metrics"][name]["value"] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        shift = (med_b - med_a) / med_a
        row = {
            "metric": name, "bound": bound,
            "a_median": med_a, "a_quartiles": statistics.quantiles(a, n=4)[::2],
            "b_median": med_b, "b_quartiles": statistics.quantiles(b, n=4)[::2],
            "shift": shift, "agree": abs(shift) <= bound,
            "spread": spread(a + b),
            "raw_spread": spread([r["raw"][name] for r in everything]) if name in
            everything[0]["raw"] else None,
        }
        rows.append(row)
        if not row["agree"]:
            problems.append(f"{name}: medians differ by {shift:+.1%}, bound {bound:.0%}")
        if row["spread"] > bound:
            problems.append(f"{name}: spread {row['spread']:.1%} over bound {bound:.0%}")
    names = {n for r in everything for n in r["result"]["metrics"]}
    if names != {m["name"] for m in spec["end_to_end"]}:
        problems.append(f"metric names {sorted(names)} differ from BENCHMARK.json")
    shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in everything}
    if len({f / a for f, a in shares}) != 1:
        problems.append(f"failed shares differ between runs: {sorted(shares)}")
    if not all(r["result"]["correct"] for r in everything):
        problems.append("a run reported correct: false")
    return rows, problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (two sets)")
    ap.add_argument("--workload", action="append", choices=names,
                    help="workload to check (repeatable; default all)")
    args = ap.parse_args(argv)

    report, failing = {}, []
    for workload in args.workload or names:
        runs_a, runs_b = [], []
        for i in range(args.runs):
            seed = 1 + 2 * i
            runs_a.append(run_once(workload, seed, spec["run_seconds"]))
            runs_b.append(run_once(workload, seed + 1, spec["run_seconds"]))
        rows, problems = summarize(spec, runs_a, runs_b)
        report[workload] = {"rows": rows, "problems": problems,
                            "runs": {"a": runs_a, "b": runs_b}}
        failing += [f"{workload}: {p}" for p in problems]
        walls = [r["wall_s"] for r in runs_a + runs_b]
        shares = sorted({f"{r['result']['failed']}/{r['result']['attempted']}"
                         for r in runs_a + runs_b})
        print(f"\n{workload}: {2 * args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed/attempted {', '.join(shares)}")
        print(f"  {'metric':12s} {'median A':>10s} {'Q1-Q3 A':>21s} {'median B':>10s} "
              f"{'Q1-Q3 B':>21s} {'B/A-1':>7s} {'bound':>6s} {'agree':>5s} {'spread':>7s} "
              f"{'raw':>7s}")
        for r in rows:
            qa, qb = r["a_quartiles"], r["b_quartiles"]
            raw = f"{r['raw_spread']:7.1%}" if r["raw_spread"] is not None else f"{'-':>7s}"
            print(f"  {r['metric']:12s} {r['a_median']:10.4g} {qa[0]:10.4g}-{qa[1]:<10.4g} "
                  f"{r['b_median']:10.4g} {qb[0]:10.4g}-{qb[1]:<10.4g} {r['shift']:+7.1%} "
                  f"{r['bound']:6.0%} {'yes' if r['agree'] else 'NO':>5s} {r['spread']:7.1%} {raw}")
        for p in problems:
            print(f"  problem: {p}")
        sys.stdout.flush()

    out = ROOT / ".bench_build" / "bench"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\n{'all checks hold' if not failing else f'{len(failing)} problems'}; "
          f"details in {out / 'steady.json'}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
