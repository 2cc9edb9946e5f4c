"""Verification suites: the full invariant battery behind the `verify` command.

Each suite returns a RunReport; a report with no failures is a pass.  All
randomized suites take an explicit seed and are deterministic for a fixed
(params, seed, sizes) triple.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from random import Random

from .families import AlgebraParams
from .lattice import RootVector, zero_vec
from .parabolic import (
    InfeasibleSystemError,
    check_positivity_alignment,
    combine_functionals,
    decompose_over_generators,
    dot_parabolic_from_config,
    generator_set,
    induced_dot_parabolic,
    is_parabolic,
    shifted_full,
    synthesize_functional,
)
from .reporting import Verdict
from .rootsys import (
    ClassificationBugError,
    check_double_odd,
    check_length_trichotomy,
    check_ns_sum,
    check_sum_property,
    classify,
    classify_window,
    component_empty,
    enumerate_window,
    even_table,
    is_root,
    ns_decompose,
    ns_dot_roots,
    r_invariants,
    root_table,
    s_set,
    s_set_0,
)
from .sampling import (
    DEFAULT_SEED,
    adversarial_config,
    adversarial_kinds,
    random_functional,
    random_tight_config,
)
from .shadow import check_mixed_components, check_parabolic, is_tight, validate
from .tables import (
    DOT_PATTERNS,
    DOT_PATTERNS_EVEN,
    S_CLOSED,
    S_EVEN_CLOSED,
    expand_pattern,
    resolve_progression,
    shape_of,
)


@dataclass(kw_only=True)
class RunReport(Verdict):
    """A suite's verdict, with the suite's name and its wall time."""

    suite: str
    wall_time: float

    def to_json(self) -> dict:
        # wall time deliberately omitted: emitted artifacts are byte-identical
        # across repeated runs with the same flags and seed.
        return {"suite": self.suite, **super().to_json()}

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)} failures)"
        return f"{self.suite}: {status}, {self.checks} checks in {self.wall_time:.2f}s"


def _finish(suite: str, v: Verdict, t0: float) -> RunReport:
    return RunReport(v.checks, v.failures, suite=suite, wall_time=time.time() - t0)


def suite_tables(p: AlgebraParams) -> RunReport:
    """Closed-form fidelity: derived coefficient sets match the per-shape forms,
    and the delta-free sets match their printed expansions.  The moduli are
    not recorded: ``r_invariants`` raises unless each is in {1, 2, 4}, and
    takes the global one as their maximum."""
    t0 = time.time()
    v = Verdict()
    table = root_table(p)
    for dot in sorted(table, key=RootVector.key):
        if dot.is_zero:
            v.record(table[dot] == resolve_progression("Z", p),
                     "imaginary line is all of Z*delta", str(dot))
            continue
        token = S_CLOSED[shape_of(dot)][p.family]
        v.record(token is not None, "dot shape present in the closed form", str(dot))
        if token is not None:
            v.record(s_set(p, dot) == resolve_progression(token, p),
                     "coefficient set matches the closed form",
                     f"{dot}: {s_set(p, dot)} vs {token}")
    expected_dots = {zero_vec(p.k, p.l)}
    for pat in DOT_PATTERNS[p.family]:
        expected_dots.update(expand_pattern(pat, p.k, p.l))
    v.record(set(table) == expected_dots, "delta-free set matches its printed form",
             f"{len(table)} vs {len(expected_dots)} dots")
    for shape, columns in S_CLOSED.items():
        if columns[p.family] is None:
            v.record(
                not any(shape_of(d) is shape for d in table if not d.is_zero),
                "absent shapes stay absent", shape.value)
    for i in (1, 2):
        etab = even_table(p, i)
        if not etab:
            v.record(p.k == 0 and i == 2, "component empty only in the k=0 slice",
                     f"component {i}")
            continue
        expected = {zero_vec(p.k, p.l)}
        for pat in DOT_PATTERNS_EVEN[p.family][i]:
            expected.update(expand_pattern(pat, p.k, p.l))
        v.record(set(etab) == expected,
                 f"component {i} delta-free set matches its printed form",
                 f"{len(etab)} vs {len(expected)}")
        for dot in sorted(etab, key=RootVector.key):
            if dot.is_zero:
                continue
            token = S_EVEN_CLOSED[(shape_of(dot), i)][p.family]
            v.record(token is not None and s_set_0(p, i, dot) == resolve_progression(token, p),
                     f"component {i} coefficient set matches the closed form",
                     f"{dot}: {s_set_0(p, i, dot)} vs {token}")
        v.record(set(etab) <= set(table), f"component {i} dots are dots", "")
    return _finish("tables", v, t0)


def suite_classification(p: AlgebraParams, mmax: int = 8, brute_bound: int = 0) -> RunReport:
    """Window coherence of the two classification routes, agreement of the
    per-delta-class window classification with ``classify``, the window
    identity of the shifted dot set, even-part containment (exact, one case
    per component and dot), and (for small parameters) agreement with the
    brute-force enumerator."""
    t0 = time.time()
    v = Verdict()
    window = enumerate_window(p, mmax)
    r = r_invariants(p).global_modulus
    covered = {s.with_dc(dc) for s in shifted_full(p)
               for dc in range(-mmax, mmax + 1) if (dc - s.dc) % r == 0}
    non_imaginary = {w for w in window if not w.dot_part().is_zero}
    v.record(covered == non_imaginary, "shifted dot set covers the window exactly",
             lambda: f"mmax={mmax}: differ on {sorted(covered ^ non_imaginary)}")
    try:
        window_info = dict(classify_window(p, mmax))
    except ClassificationBugError:
        window_info = {}  # the same disagreement is recorded per root below
    for root in window:
        if root.is_zero:
            continue
        try:
            info = classify(p, root)
            bug = ""
        except ClassificationBugError as exc:
            info, bug = None, str(exc)
        v.record(not bug, "classification matches the form", bug)
        # A raise is recorded once, under the label above.
        v.record(bool(bug) or window_info.get(root) == info,
                 "window classification agrees with classify",
                 lambda: f"{root}: window says {window_info.get(root)}, classify says {info}")
    table = root_table(p)
    for i in (1, 2):
        for dot, prog in even_table(p, i).items():
            v.record(dot in table and prog.issubset(table[dot]),
                     f"component {i} sits inside the root system", lambda: f"{dot}")
    both = set(even_table(p, 1)) & set(even_table(p, 2))
    v.record(all(d.is_zero for d in both),
             "components intersect only along the imaginary line", f"{sorted(both)}")
    if brute_bound:
        brute = []
        for eps in product(range(-2, 3), repeat=p.k):
            for dels in product(range(-2, 3), repeat=p.l):
                for dc in range(-brute_bound, brute_bound + 1):
                    cand = RootVector(eps, dels, dc)
                    if is_root(p, cand):
                        brute.append(cand)
        v.record(sorted(brute) == enumerate_window(p, brute_bound),
                 "window enumeration equals the brute-force scan",
                 f"mmax={brute_bound}")
    return _finish("classification", v, t0)


def suite_structure(p: AlgebraParams) -> RunReport:
    """The structural identities, exact on delta-classes and finite dot sets;
    no window bound changes their verdicts."""
    t0 = time.time()
    v = Verdict()
    v.extend(check_ns_sum(p, 0))
    for i in (1, 2):
        if component_empty(p, i):
            continue
        v.extend(check_sum_property(p, i))
        v.extend(check_length_trichotomy(p, i))
    for eta in ns_dot_roots(p):
        try:
            ns_decompose(p, eta)
            v.record(True, "nonsingular dot splits with certified containments")
        except Exception as exc:  # noqa: BLE001 - recorded as a finding
            v.record(False, "nonsingular dot splits with certified containments",
                     f"{eta}: {exc}")
    v.extend(check_double_odd(p, 0))
    return _finish("structure", v, t0)


def suite_shadow_pipeline(
    p: AlgebraParams,
    seed: int = DEFAULT_SEED,
    n_configs: int = 100,
    n_adversarial: int = 50,
    mmax: int = 8,
) -> RunReport:
    """Functional-seeded tight configurations run the whole pipeline: validity,
    mixed components, parabolic closure, per-component extraction and
    synthesis, propriety of at least one trace, and positivity alignment.
    Adversarial mutations must be rejected with a witness.

    Synthesis is one case per component, passing when ``synthesize_functional``
    returns (it checks its result's trace first); a raise fails that case only.
    ``combine_functionals`` builds delta 0, so that is not recorded."""
    t0 = time.time()
    v = Verdict()
    rng = Random(seed)
    components = [i for i in (1, 2) if not component_empty(p, i)]
    for idx in range(n_configs):
        tag = f"config {idx}"
        cfg, zeta = random_tight_config(p, rng, mmax)
        val = validate(cfg)
        v.record(val.ok, "seeded config validates", f"{tag}: {val.summary()}")
        v.record(is_tight(cfg), "seeded config is tight", tag)
        mix = check_mixed_components(cfg, mmax)
        v.record(mix.ok, "both components mix ln and in", f"{tag}: {mix.summary()}")
        par = check_parabolic(cfg, mmax)
        v.record(par.ok, "derived set is closed", f"{tag}: {par.summary()}")
        proper = 0
        synthesized: dict[int, object] = {}
        for i in components:
            dp = dot_parabolic_from_config(cfg, i, mmax)
            ip = is_parabolic(dp)
            v.record(ip.ok, f"trace on component {i} is parabolic",
                     f"{tag}: {ip.summary()}")
            proper += dp.proper
            try:
                synthesized[i] = synthesize_functional(dp)
                bug = ""
            except InfeasibleSystemError as exc:
                bug = str(exc)
            v.record(not bug, f"synthesis feasible on component {i}", f"{tag}: {bug}")
        v.record(proper >= 1, "at least one component trace is proper", tag)
        if len(synthesized) == len(components):
            combined = combine_functionals(synthesized[1], synthesized.get(2))
            nonzero = (proper >= 1) == (not combined.is_zero)
        else:
            nonzero = True  # the raise is recorded once, under the feasible label
        v.record(nonzero, "combined functional nonzero exactly when a trace is proper", tag)
        pos = check_positivity_alignment(cfg, zeta, mmax)
        v.record(pos.ok, "positivity aligns with the seeding functional",
                 f"{tag}: {pos.summary()}")
    kinds = adversarial_kinds(p)
    for idx in range(n_adversarial):
        kind = kinds[idx % len(kinds)]
        bad = adversarial_config(p, rng, kind, mmax)
        val = validate(bad)
        rejected = not val.ok
        witness = val.failures[0].witness if val.failures else ""
        if not rejected:
            par = check_parabolic(bad, mmax)
            rejected = not par.ok
            witness = par.failures[0].witness if par.failures else ""
        v.record(rejected and witness != "",
                 "adversarial config rejected with a concrete witness",
                 f"mutation {idx} ({kind})")
    return _finish("shadow-pipeline", v, t0)


def suite_generators(
    p: AlgebraParams, seed: int = DEFAULT_SEED, n_functionals: int = 50
) -> RunReport:
    """Every element of the positive slice decomposes over the indecomposable
    generators with nonnegative integer coefficients, for seeded functionals.

    One case per element, passing when ``decompose_over_generators`` returns:
    it checks that its counts, positive by construction, sum to the target.
    The generators are built from the positive slice, so their containment in
    it is not recorded."""
    t0 = time.time()
    v = Verdict()
    rng = Random(seed)
    for idx in range(n_functionals):
        zeta = random_functional(p, rng)
        gens = generator_set(p, zeta)
        for target in gens.positive:
            try:
                decompose_over_generators(target, gens)
            except Exception as exc:  # noqa: BLE001 - recorded as a finding
                v.record(False, "positive element decomposes over the generators",
                         f"functional {idx}, {target}: {exc}")
            else:
                v.record(True, "positive element decomposes over the generators")
    return _finish("generators", v, t0)


def suite_roundtrip(
    p: AlgebraParams, seed: int = DEFAULT_SEED, n_functionals: int = 200
) -> RunReport:
    """functional -> induced trace -> synthesized functional -> identical trace,
    with zero infeasibility reports.

    One case per functional and component, passing when
    ``synthesize_functional`` returns (it checks its result's trace first)."""
    t0 = time.time()
    v = Verdict()
    rng = Random(seed)
    for i in (1, 2):
        if component_empty(p, i):
            continue
        for idx in range(n_functionals):
            zeta = random_functional(p, rng)
            dp = induced_dot_parabolic(p, i, zeta)
            ip = is_parabolic(dp)
            v.record(ip.ok, f"induced trace is parabolic on component {i}",
                     f"functional {idx}: {ip.summary()}")
            try:
                synthesize_functional(dp)
                bug = ""
            except InfeasibleSystemError as exc:
                bug = str(exc)
            v.record(not bug, f"round trip feasible on component {i}",
                     f"functional {idx}: {bug}")
    return _finish("roundtrip", v, t0)


def run_all(
    p: AlgebraParams,
    seed: int = DEFAULT_SEED,
    mmax: int = 8,
    n_configs: int = 100,
    n_adversarial: int = 50,
    n_functionals: int = 50,
    n_roundtrip: int = 200,
) -> list[RunReport]:
    brute = min(mmax, 4) if (p.k <= 2 and p.l <= 2) else 0
    return [
        suite_tables(p),
        suite_classification(p, mmax, brute_bound=brute),
        suite_structure(p),
        suite_shadow_pipeline(p, seed, n_configs, n_adversarial, mmax),
        suite_generators(p, seed, n_functionals),
        suite_roundtrip(p, seed, n_roundtrip),
    ]
