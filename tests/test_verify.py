"""Verification suites: determinism and end-to-end passes on small batches."""

import pytest

from twistroots import verify
from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.lattice import RootVector
from twistroots.parabolic import InfeasibleSystemError
from twistroots.progressions import ProgressionSet
from twistroots.reporting import Failure, Verdict
from twistroots.rootsys import (
    ClassificationBugError,
    classify,
    enumerate_window,
    r_invariants,
    root_table,
)
from twistroots.verify import (
    run_all,
    suite_classification,
    suite_generators,
    suite_roundtrip,
    suite_shadow_pipeline,
)

RESIDUE_IDENTITY = "shifted dot set holds exactly the residues of each dot"


def test_callable_witness_is_called_only_on_failure():
    calls = []

    def witness():
        calls.append(None)
        return "w"

    v = Verdict()
    v.record(True, "check", witness)
    assert v.ok and v.checks == 1 and calls == []
    v.record(False, "check", witness)
    assert v.failures == [Failure("check", "w")] and len(calls) == 1


def test_all_suites_pass_on_degenerate_slices():
    # k = 0 exercises the empty second component end to end.
    for fam in (AffineFamily.A_4, AffineFamily.D_2, AffineFamily.A_EVEN_2):
        p = AlgebraParams(fam, 0, 2)
        reports = run_all(p, seed=3, n_configs=8, n_adversarial=6,
                          n_functionals=4, n_roundtrip=10)
        assert all(r.ok for r in reports), [r.summary() for r in reports]


def test_suites_are_deterministic():
    p = AlgebraParams(AffineFamily.D_2, 1, 1)
    a = suite_shadow_pipeline(p, seed=9, n_configs=6, n_adversarial=4)
    b = suite_shadow_pipeline(p, seed=9, n_configs=6, n_adversarial=4)
    assert a.checks == b.checks and a.failures == b.failures


def test_seed_changes_the_draws():
    p = AlgebraParams(AffineFamily.D_2, 1, 1)
    from random import Random

    from twistroots.sampling import random_tight_config

    cfg_a, zeta_a = random_tight_config(p, Random(1))
    cfg_b, zeta_b = random_tight_config(p, Random(2))
    assert zeta_a != zeta_b or cfg_a.states != cfg_b.states


def test_classification_is_constant_on_residue_classes():
    # The premise of the class-level suite: every even progression's modulus
    # divides the global modulus r, so one record per residue is exhaustive.
    for p in valid_params(3, 3):
        r = r_invariants(p).global_modulus
        for dot, prog in root_table(p).items():
            if dot.is_zero:
                continue
            for dc in prog.window(2 * r):
                assert classify(p, dot.with_dc(dc)) == classify(p, dot.with_dc(dc % r)), \
                    (p.describe(), dot, dc)


@pytest.mark.parametrize("mmax", [0, 1, 8])
def test_window_identity_holds_once_per_params(monkeypatch, mmax):
    # The suite checks the class-residue identity once per params; steps of r
    # from the shifted dot set then cover every window exactly.
    calls = []
    shifted_full = verify.shifted_full

    def spy(p):
        calls.append(p)
        return shifted_full(p)

    monkeypatch.setattr(verify, "shifted_full", spy)
    params = valid_params(3, 3)
    for p in params:
        rep = suite_classification(p)
        assert rep.ok, (p.describe(), rep.failures)
        r = r_invariants(p).global_modulus
        covered = {s.with_dc(dc) for s in shifted_full(p)
                   for dc in range(-mmax, mmax + 1) if (dc - s.dc) % r == 0}
        window = {w for w in enumerate_window(p, mmax) if not w.dot_part().is_zero}
        assert covered == window, (p.describe(), sorted(covered ^ window))
    assert calls == params


def test_window_identity_is_live(monkeypatch):
    # The class-residue identity is the window identity at every window at once.
    shifted_full = verify.shifted_full
    monkeypatch.setattr(verify, "shifted_full", lambda p: shifted_full(p)[:-1])
    rep = suite_classification(AlgebraParams(AffineFamily.D_2, 1, 1))
    assert [f.check for f in rep.failures] == [RESIDUE_IDENTITY]


def test_shifted_set_holds_nothing_else(monkeypatch):
    # One global period up: the same delta-class, outside the residues 0..r-1.
    p = AlgebraParams(AffineFamily.D_2, 1, 1)
    shifted_full = verify.shifted_full
    extra = shifted_full(p)[0]
    extra = extra.with_dc(extra.dc + r_invariants(p).global_modulus)
    monkeypatch.setattr(verify, "shifted_full", lambda q: (*shifted_full(q), extra))
    rep = suite_classification(p)
    assert rep.failures == [Failure("shifted dot set holds nothing else", f"{[extra]}")]


def test_classification_bug_is_recorded_not_raised(monkeypatch):
    p = AlgebraParams(AffineFamily.A_4, 1, 1)
    clean = suite_classification(p)
    classify = verify.classify
    raised = []

    def buggy(p, root):
        if not raised:
            raised.append(root)
            raise ClassificationBugError(f"classification disagreement on {root}")
        return classify(p, root)

    monkeypatch.setattr(verify, "classify", buggy)
    rep = suite_classification(p)
    assert rep.checks == clean.checks
    assert rep.failures == [Failure("classification matches the form",
                                    f"classification disagreement on {raised[0]}")]


def test_component_containment_is_exact_and_live(monkeypatch):
    # +2d1 has the coefficients 2Z; widened to Z, its component entry leaves
    # the root system at odd coefficients only.  An entry for a vector that
    # is no dot fails as well.
    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    clean = suite_classification(p)
    even_table = verify.even_table
    wide = next(d for d in even_table(p, 1) if str(d) == "<+2d1>")
    stray = RootVector((3,), (3,), 0)

    def patched(q, i):
        entries = dict(even_table(q, i))
        if i == 1:
            entries[wide] = ProgressionSet.integers()
            entries[stray] = ProgressionSet.integers()
        return entries

    monkeypatch.setattr(verify, "even_table", patched)
    rep = suite_classification(p)
    assert rep.checks == clean.checks + 1
    assert rep.failures == [Failure("component 1 sits inside the root system", str(d))
                            for d in (wide, stray)]


def test_synthesis_failure_is_recorded_once(monkeypatch):
    p = AlgebraParams(AffineFamily.D_2, 1, 1)
    clean = [suite_shadow_pipeline(p, seed=9, n_configs=6, n_adversarial=4),
             suite_roundtrip(p, seed=9, n_functionals=5)]

    def infeasible(dp):
        raise InfeasibleSystemError(f"no functional on component {dp.component}")

    monkeypatch.setattr(verify, "synthesize_functional", infeasible)
    broken = [suite_shadow_pipeline(p, seed=9, n_configs=6, n_adversarial=4),
              suite_roundtrip(p, seed=9, n_functionals=5)]
    for before, after in zip(clean, broken):
        assert before.ok and after.checks == before.checks
        assert len(after.failures) == 2 * (6 if after.suite == "shadow-pipeline" else 5)
        assert all("feasible on component" in f.check
                   and "no functional on component" in f.witness for f in after.failures)


def test_decomposition_failure_is_recorded(monkeypatch):
    p = AlgebraParams(AffineFamily.D_2, 1, 1)
    clean = suite_generators(p, seed=9, n_functionals=3)

    def refuse(target, gens):
        raise AssertionError("decomposition does not reproduce the target")

    monkeypatch.setattr(verify, "decompose_over_generators", refuse)
    rep = suite_generators(p, seed=9, n_functionals=3)
    assert clean.ok and rep.checks == clean.checks == len(rep.failures)
    assert {f.check for f in rep.failures} == {"positive element decomposes over the generators"}
    assert all(f.witness.endswith("does not reproduce the target") for f in rep.failures)
