"""Per-layer metrics of a traced run: probes, aggregation and the trace files.

A traced run records a span around each benchmark call into a layer.  Calls
the workload's own ops make count first.  Lattice arithmetic, progression
set operations, table builds, cold root tables and TeX emission are never
called by a workload op directly, so a probe over the workload's own
parameter choices times them.  A layer the workload does not reach at all
still gets a figure, because a traced run reports every per-layer metric:
it comes from the first op of each kind of every other workload's op
stream, at the same seed.  Each figure's source (own ops, own set-up,
probe, or the other workload's name) is printed with the run and written
to the trace files.
"""

from __future__ import annotations

import json
import time
from statistics import median

from harness import fresh_import, make_params

# (metric, unit, span or counter name, statistic)
PER_LAYER = (
    ("lattice.add_us", "cal-us", "lattice.add", "median"),
    ("lattice.with_dc_us", "cal-us", "lattice.with_dc", "median"),
    ("progressions.window_us", "cal-us", "progressions.window", "median"),
    ("progressions.setop_us", "cal-us", "progressions.setop", "median"),
    ("tables.build_mapping_ms", "cal-ms", "tables.build_mapping", "median"),
    ("rootsys.root_table_cold_ms", "cal-ms", "rootsys.root_table_cold", "median"),
    ("rootsys.enumerate_window_ms", "cal-ms", "rootsys.enumerate_window", "median"),
    ("rootsys.classify_us", "cal-us", "rootsys.classify", "median"),
    ("rootsys.classify.calls", "count", "rootsys.classify.calls", "counter"),
    ("rootsys.check_ns_sum_ms", "cal-ms", "rootsys.check_ns_sum", "median"),
    ("rootsys.check_ns_sum.checks", "count", "rootsys.check_ns_sum.checks", "counter"),
    ("rootsys.check_double_odd_ms", "cal-ms", "rootsys.check_double_odd", "median"),
    ("rootsys.check_sum_property_ms", "cal-ms", "rootsys.check_sum_property", "median"),
    ("rootsys.check_length_trichotomy_ms", "cal-ms", "rootsys.check_length_trichotomy", "median"),
    ("rootsys.ns_decompose_ms", "cal-ms", "rootsys.ns_decompose", "median"),
    ("verify.suite_tables_ms", "cal-ms", "verify.suite_tables", "median"),
    ("sampling.random_tight_config_ms", "cal-ms", "sampling.random_tight_config", "median"),
    ("sampling.adversarial_config_ms", "cal-ms", "sampling.adversarial_config", "median"),
    ("shadow.validate_ms", "cal-ms", "shadow.validate", "median"),
    ("shadow.check_mixed_components_ms", "cal-ms", "shadow.check_mixed_components", "median"),
    ("shadow.check_parabolic_ms", "cal-ms", "shadow.check_parabolic", "median"),
    ("shadow.check_parabolic.checks", "count", "shadow.check_parabolic.checks", "counter"),
    ("parabolic.dot_parabolic_from_config_ms", "cal-ms",
     "parabolic.dot_parabolic_from_config", "median"),
    ("parabolic.is_parabolic_ms", "cal-ms", "parabolic.is_parabolic", "median"),
    ("parabolic.synthesize_functional_ms", "cal-ms", "parabolic.synthesize_functional", "median"),
    ("parabolic.induced_dot_parabolic_ms", "cal-ms", "parabolic.induced_dot_parabolic", "median"),
    ("parabolic.check_positivity_alignment_ms", "cal-ms",
     "parabolic.check_positivity_alignment", "median"),
    ("parabolic.generator_set_ms", "cal-ms", "parabolic.generator_set", "median"),
    ("parabolic.decompose_ms", "cal-ms", "parabolic.decompose", "median"),
    ("parabolic.decompose_max_ms", "cal-ms", "parabolic.decompose", "max"),
    ("parabolic.decompose.calls", "count", "parabolic.decompose", "calls"),
    ("cli.classify_ms", "cal-ms", "cli.classify", "median"),
    ("cli.roots_ms", "cal-ms", "cli.roots", "median"),
    ("cli.tables_ms", "cal-ms", "cli.tables", "median"),
    ("cli.phi-pi_ms", "cal-ms", "cli.phi-pi", "median"),
    ("cli.shadow-validate_ms", "cal-ms", "cli.shadow-validate", "median"),
    ("cli.shadow-derive-p_ms", "cal-ms", "cli.shadow-derive-p", "median"),
    ("cli.parabolic-synth_ms", "cal-ms", "cli.parabolic-synth", "median"),
    ("texout.tables_tex_ms", "cal-ms", "texout.tables_tex", "median"),
)
# The last per-layer metric, trace.overhead_s, is computed by run.py.

SCALE = {"cal-us": 1e6, "cal-ms": 1e3, "cal-s": 1.0}
WORKLOAD_PHASES = ("setup", "op", "probe")
PROBE_MMAX = 8
PROBE_SAMPLE = 128
PROBE_SETS = 12


def _probe_params(m, rec, params) -> None:
    rs = m.rootsys
    for p in params:
        table = rec.call("rootsys.root_table_cold", rs.root_table, p)
        rec.call("tables.build_mapping", m.tables.build_mapping, p,
                 m.tables.ROOT_CLAUSES[p.family])
        rec.call("texout.tables_tex", m.texout.tables_tex, p)
        window = rs.enumerate_window(p, PROBE_MMAX)
        sample = window[:: max(1, len(window) // PROBE_SAMPLE)][:PROBE_SAMPLE]
        pairs = list(zip(sample, sample[1:]))
        rec.batch("lattice.add", len(pairs), lambda: [a + b for a, b in pairs])
        rec.batch("lattice.with_dc", len(sample), lambda: [v.with_dc(v.dc + 1) for v in sample])
        sets = list(table.values())
        rec.batch("progressions.window", len(sets), lambda: [s.window(PROBE_MMAX) for s in sets])
        sub = sets[:PROBE_SETS]
        rec.batch("progressions.setop", 3 * len(sub) ** 2,
                  lambda: [(s.issubset(t), s.add(t), s.intersect(t)) for s in sub for t in sub])


def first_of_each_kind(ops):
    """The first op of each kind in an op stream; the others are never run."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            yield op


def run_probes(rec, workloads, wl, data, seed, workdir) -> list[str]:
    """The traced-only passes after the measured rounds: the probe, then the
    first op of each kind of every other workload, each in a phase named
    after that workload.  Returns the outputs that failed their checks."""
    rec.tracing = True
    rec.phase = "probe"
    m = fresh_import()
    _probe_params(m, rec, make_params(m, data["params"]))
    unexpected = []
    for other in workloads.values():
        if other is wl:
            continue
        rec.phase = other.NAME
        m = fresh_import()
        other_data = other.prepare(m, seed, workdir)
        state = other.warm(m, rec, other_data)
        result = rec.run_round(first_of_each_kind(other.ops(m, rec, seed, other_data, state)))
        unexpected += [f"{other.NAME} {u}" for u in result.unexpected]
    rec.tracing = False
    return unexpected


def _source(rec, name: str, counter: bool) -> tuple[set[str], str]:
    """The phases a metric is taken from, and the name of that source: the
    workload's own set-up, ops and probe if they reach the layer, else the
    first other workload (by name) that does."""
    if counter:
        present = {phase for (n, phase) in rec.counts if n == name}
    else:
        present = {s[5] for s in rec.spans if s[0] == name}
    own = present & set(WORKLOAD_PHASES)
    if own:
        return own, "own ops" if "op" in own else "own set-up" if "setup" in own else "probe"
    if not present:
        raise RuntimeError(f"no span or count named {name} in the traced run")
    other = min(present)
    return {other}, other


def layer_metrics(rec, f: float, traced_rounds: int):
    """Every per-layer metric from the spans and counts, in cal units, and
    the source of each."""
    out, sources = {}, {}
    for metric, unit, name, stat in PER_LAYER:
        phases, sources[metric] = _source(rec, name, stat == "counter")
        per_round = traced_rounds if "op" in phases else 1
        if stat == "counter":
            total = sum(n for (c, phase), n in rec.counts.items() if c == name and phase in phases)
            out[metric] = (total / per_round, unit)
            continue
        spans = [s for s in rec.spans if s[0] == name and s[5] in phases]
        if stat == "calls":
            out[metric] = (sum(s[4] for s in spans) / per_round, unit)
            continue
        per_call = [(s[2] - s[1]) / s[4] for s in spans]
        value = max(per_call) if stat == "max" else median(per_call)
        out[metric] = (value * f * SCALE[unit], unit)
    return out, sources


def layer_table(rec, f: float) -> list[dict]:
    """Per span name: calls, self time and median per call, in cal units.
    An op span's self time is its duration minus its layer spans."""
    child: dict[int, float] = {}
    for name, t0, t1, op, _, _ in rec.spans:
        if op is not None and not name.startswith("op."):
            child[op] = child.get(op, 0.0) + (t1 - t0)
    rows: dict[tuple[str, str], dict] = {}
    for name, t0, t1, op, n, phase in rec.spans:
        dur = t1 - t0
        self_s = dur - child.get(op, 0.0) if name.startswith("op.") else dur
        row = rows.setdefault((name, phase), {"calls": 0, "self_s": 0.0, "per_call": []})
        row["calls"] += n
        row["self_s"] += self_s * f
        row["per_call"].append(dur / n * f)
    return [
        {"name": name, "phase": phase, "calls": r["calls"], "self_cal_s": r["self_s"],
         "median_cal_us": 1e6 * median(r["per_call"])}
        for (name, phase), r in sorted(rows.items())
    ]


def write_trace(rec, f: float, metrics, sources, out_dir, workload: str, seed: int):
    """Write the spans (JSON) and the per-layer table (text); return the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"trace-{workload}-seed{seed}"
    t_base = min(s[1] for s in rec.spans)
    table = layer_table(rec, f)
    counts = [{"name": n, "phase": ph, "count": c} for (n, ph), c in sorted(rec.counts.items())]
    doc = {
        "workload": workload,
        "seed": seed,
        "cal_factor": f,
        "span_fields": ["name", "start_cal_s", "end_cal_s", "op_id", "calls", "phase"],
        "spans": [[n, (t0 - t_base) * f, (t1 - t_base) * f, op, c, ph]
                  for n, t0, t1, op, c, ph in rec.spans],
        "layers": table,
        "counts": counts,
        "metrics": {k: {"value": v, "unit": u, "source": sources[k]}
                    for k, (v, u) in metrics.items()},
    }
    json_path = stem.with_suffix(".json")
    json_path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    lines = [f"{workload}, seed {seed}, {time.strftime('%Y-%m-%d %H:%M:%S')}; "
             "times in cal units (seconds at the reference kernel's nominal speed)",
             f"{'span':48s} {'phase':14s} {'calls':>9s} {'self cal-s':>11s} {'median cal-us':>14s}"]
    for r in table:
        lines.append(f"{r['name']:48s} {r['phase']:14s} {r['calls']:9d} "
                     f"{r['self_cal_s']:11.4f} {r['median_cal_us']:14.1f}")
    lines.append("")
    lines += [f"count {c['name']} ({c['phase']}): {c['count']}" for c in counts]
    lines.append("")
    lines += [f"{k:44s} {v:14.4f} {u:8s} {sources[k]}"
              for k, (v, u) in metrics.items()]
    txt_path = stem.with_suffix(".txt")
    txt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return json_path, txt_path
