"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload structure-grid --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from a
traced run that also writes its spans and a per-layer table under
.bench_build/bench/.  The lines before it give the raw (uncalibrated) figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

T_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Everything a run writes goes here: trace files, and the input files of
# cold-query in a directory of the run's own that is removed when it ends.
OUT = ROOT / ".bench_build" / "bench"

# The workload modules sit next to this file; do not rely on the interpreter
# putting the script's directory on the path (it does not under -P).
sys.path.insert(0, str(BENCH))

import cold_query  # noqa: E402
import decompose_tail  # noqa: E402
import shadow_synth  # noqa: E402
import structure_grid  # noqa: E402
from harness import Recorder, Reference, fresh_import, percentile, tail  # noqa: E402
from layers import layer_metrics, run_probes, write_trace  # noqa: E402

WORKLOADS = {
    w.NAME: w for w in (structure_grid, shadow_synth, decompose_tail, cold_query)
}

# Set-ups done before the first round, on top of the one each round does:
# one set-up takes 0.05-0.1 s and varies by a third, so take a median of many.
EXTRA_SETUPS = 8
SETUP_KERNEL_REPS = 2


def setup(rec: Recorder, wl, data, ref: Reference):
    """A fresh import of the package and the workload's warm-up, bracketed by
    kernel calls that go to ``ref``; the op stream of the round runs on the
    module copy this returns."""
    gc.collect()
    ref.add(rec.kernel(SETUP_KERNEL_REPS))
    t0 = time.perf_counter()
    m = fresh_import()
    state = wl.warm(m, rec, data)
    raw = time.perf_counter() - t0
    ref.add(rec.kernel(SETUP_KERNEL_REPS))
    return m, state, raw


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole rounds while the next one is expected to end "
                         "within this time; always at least one round, however long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "twistroots" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'twistroots'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return measure(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir: Path) -> int:
    rec = Recorder()
    setup_ref = Reference()
    data = wl.prepare(fresh_import(), args.seed, workdir)
    setups = [setup(rec, wl, data, setup_ref)[2] for _ in range(EXTRA_SETUPS)]

    # Rounds repeat the same ops, each on a fresh import.  In a traced run
    # they alternate untraced and traced, and the difference of the two is
    # the tracing overhead.
    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rec.tracing = traced
        rec.phase = "setup"
        m, state, raw = setup(rec, wl, data, setup_ref)
        setups.append(raw)
        rec.phase = "op"
        rounds.append((traced, rec.run_round(wl.ops(m, rec, args.seed, data, state))))
        rec.tracing = False
        del m, state
        elapsed = time.perf_counter() - start
        if len(rounds) >= 1 + args.trace and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    probe_failures = run_probes(rec, WORKLOADS, wl, data, args.seed, workdir) \
        if args.trace else []
    plain = [r for t, r in rounds if not t]
    n_ops = len(plain[0].op_times)
    tails = [tail(r.op_times) for r in plain]
    pct, _, beyond = tails[0]
    attempted = sum(len(r.op_times) for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    unexpected = [u for _, r in rounds for u in r.unexpected] + probe_failures
    known: dict[str, int] = {}
    for _, r in rounds:
        for kind, n in r.known.items():
            known[kind] = known.get(kind, 0) + n

    p50s = [percentile(r.op_times, 0.5) for r in plain]
    raw = {
        "setup_s": median(setups),
        "verdict_s": median([r.verdict_s for r in plain]),
        "op_p50_ms": 1e3 * median(p50s),
        "op_tail_ms": 1e3 * median([v for _, v, _ in tails]),
    }
    end_to_end = {
        "setup_s": (raw["setup_s"] * setup_ref.factor, "s"),  # calibrated seconds
        "verdict_s": (median([r.verdict_s * r.ref.factor for r in plain]), "cal-s"),
        "op_p50_ms": (1e3 * median([v * r.ref.factor for v, r in zip(p50s, plain)]), "cal-ms"),
        "op_tail_ms": (1e3 * median([v * r.ref.factor for (_, v, _), r in zip(tails, plain)]),
                       "cal-ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if args.trace:
        f = rec.ref.factor
        traced_v = median([r.verdict_s * r.ref.factor for t, r in rounds if t])
        metrics, sources = layer_metrics(rec, f, sum(1 for t, _ in rounds if t))
        metrics["trace.overhead_s"] = (traced_v - end_to_end["verdict_s"][0], "cal-s")
        sources["trace.overhead_s"] = "own ops"
        paths = write_trace(rec, f, metrics, sources, OUT, args.workload, args.seed)
        print(f"trace: spans and per-layer table in {', '.join(str(p) for p in paths)}")
        print("per-layer sources (own ops, own set-up, probe, or the other workload whose "
              "ops gave the figure): " + json.dumps(sources))
    else:
        metrics = end_to_end

    for line in unexpected[:5]:
        print(f"error: {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{n_ops} ops ({sum(t for t, _ in rounds)} traced), {attempted} attempted, "
          f"{failed} failed")
    print(f"op_tail_ms is p{pct} of the {n_ops} ops of a round ({beyond} ops beyond it), "
          "median over rounds")
    if known:
        print(f"failed ops kept on purpose (known faults): {json.dumps(known, sort_keys=True)}")
    print("raw: " + json.dumps({
        **raw,
        "wall_s": time.perf_counter() - T_START,
        "kernel_calls": rec.ref.calls,
        "kernel_s": rec.ref.seconds,
        "kernel_ms_per_call": 1e3 * rec.ref.seconds / rec.ref.calls,
        "setup_cal_factor": setup_ref.factor,
        "round_cal_factors": [r.ref.factor for _, r in rounds],
    }))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
