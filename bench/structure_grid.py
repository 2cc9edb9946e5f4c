"""structure-grid: the structural battery over valid_params(3, 3) at mmax 8.

Why: it loads rootsys, progressions and lattice and hardly touches shadow,
parabolic or fm; check_ns_sum dominates it.  The grid is the one of
acceptance criterion 3 (44 parameter choices).  One op is one call into a
layer for one parameter choice, in the order the verify suites make them;
the seed permutes the order of the parameter choices.
"""

from __future__ import annotations

from random import Random

import oracles as O
from harness import Op, make_params, param_specs, warm_tables

NAME = "structure-grid"
MMAX = 8


def prepare(mf, seed, workdir):
    specs = param_specs(mf.families.valid_params(3, 3))
    Random(seed).shuffle(specs)
    return {"params": specs}


def warm(m, rec, data):
    params = make_params(m, data["params"])
    warm_tables(m, rec, params)
    return params


def _expect_ok(name):
    def check(verdicts):
        bad = [v.summary() for v in verdicts if not v.ok]
        return f"{name}: {bad[0]}" if bad else None
    return check


def _param_ops(m, rec, p):
    rs, vf = m.rootsys, m.verify
    table = rs.root_table(p)
    comps = [i for i in (1, 2) if not rs.component_empty(p, i)]
    st = {}

    def tables():
        return rec.call("verify.suite_tables", vf.suite_tables, p)

    yield Op("suite_tables", tables,
             lambda r: None if r.ok else f"{p.describe()}: {r.summary()}")

    def window():
        st["window"] = rec.call("rootsys.enumerate_window", rs.enumerate_window, p, MMAX)
        return st["window"]

    def check_window(w):
        if [O.flat(v) for v in w] != O.window_roots(table, MMAX):
            return f"{p.describe()}: window differs from the table's expansion"
        return None

    yield Op("enumerate_window", window, check_window)

    def classify():
        roots = [v for v in st["window"] if not v.is_zero]
        rec.count("rootsys.classify.calls", len(roots))
        return [(v, rec.call("rootsys.classify", rs.classify, p, v)) for v in roots]

    def check_classes(pairs):
        for v, info in pairs:
            if info.root_class.value != O.norm_class(v.eps, v.dels):
                return f"{p.describe()}: {v} classified {info.root_class.value}"
        return None

    yield Op("classify", classify, check_classes)

    def ns_sum():
        verdict = rec.call("rootsys.check_ns_sum", rs.check_ns_sum, p, MMAX)
        rec.count("rootsys.check_ns_sum.checks", verdict.checks)
        return verdict

    def check_ns_sum(verdict):
        bad = O.ns_sum_violations(table)
        if verdict.ok != (not bad):
            return f"{p.describe()}: verdict {verdict.ok} but class-level violations {bad[:1]}"
        return None if verdict.ok else f"{p.describe()}: {verdict.summary()}"

    yield Op("check_ns_sum", ns_sum, check_ns_sum)
    yield Op("check_sum_property",
             lambda: [rec.call("rootsys.check_sum_property", rs.check_sum_property, p, i)
                      for i in comps],
             _expect_ok(p.describe()))
    yield Op("check_length_trichotomy",
             lambda: [rec.call("rootsys.check_length_trichotomy",
                               rs.check_length_trichotomy, p, i) for i in comps],
             _expect_ok(p.describe()))

    def check_split(decomps):
        for d in decomps:
            if O.add(O.flat(d.alpha), O.flat(d.beta)) != O.flat(d.eta):
                return f"{p.describe()}: {d.alpha} + {d.beta} != {d.eta}"
        return None

    yield Op("ns_decompose",
             lambda: [rec.call("rootsys.ns_decompose", rs.ns_decompose, p, eta)
                      for eta in rs.ns_dot_roots(p)],
             check_split)
    yield Op("check_double_odd",
             lambda: [rec.call("rootsys.check_double_odd", rs.check_double_odd, p, MMAX)],
             _expect_ok(p.describe()))


def ops(m, rec, seed, data, params):
    for p in params:
        yield from _param_ops(m, rec, p)
