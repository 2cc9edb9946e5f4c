"""Verification suites: determinism and end-to-end passes on small batches."""

from dataclasses import replace

import pytest

from twistroots import verify
from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.parabolic import InfeasibleSystemError
from twistroots.reporting import Failure, Verdict
from twistroots.rootsys import ClassificationBugError, Parity
from twistroots.verify import (
    run_all,
    suite_classification,
    suite_generators,
    suite_roundtrip,
    suite_shadow_pipeline,
)

WINDOW_IDENTITY = "shifted dot set covers the window exactly"


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


@pytest.mark.parametrize("mmax", [0, 1, 8])
def test_window_identity_holds_once_per_params(monkeypatch, mmax):
    calls = []
    shifted_full = verify.shifted_full

    def spy(p):
        calls.append(p)
        return shifted_full(p)

    monkeypatch.setattr(verify, "shifted_full", spy)
    params = valid_params(3, 3)
    for p in params:
        rep = suite_classification(p, mmax)
        assert rep.ok, (p.describe(), rep.failures)
    assert calls == params


def test_window_identity_is_live(monkeypatch):
    shifted_full = verify.shifted_full
    monkeypatch.setattr(verify, "shifted_full", lambda p: shifted_full(p)[:-1])
    rep = suite_classification(AlgebraParams(AffineFamily.D_2, 1, 1), 8)
    assert [f.check for f in rep.failures] == [WINDOW_IDENTITY]


def test_classification_bug_is_recorded_not_raised(monkeypatch):
    p = AlgebraParams(AffineFamily.A_4, 1, 1)
    clean = suite_classification(p, 2)
    classify = verify.classify
    raised = []

    def buggy(p, root):
        if not raised:
            raised.append(root)
            raise ClassificationBugError(f"classification disagreement on {root}")
        return classify(p, root)

    monkeypatch.setattr(verify, "classify", buggy)
    rep = suite_classification(p, 2)
    assert rep.checks == clean.checks
    assert rep.failures == [Failure("classification matches the form",
                                    f"classification disagreement on {raised[0]}")]


def test_window_classification_agreement_is_live(monkeypatch):
    p = AlgebraParams(AffineFamily.A_4, 1, 1)
    clean = suite_classification(p, 2)
    classify_window = verify.classify_window
    wrong = []

    def one_wrong(p, mmax):
        entries = classify_window(p, mmax)
        idx = next(i for i, (root, info) in enumerate(entries)
                   if info is not None and info.parity is Parity.EVEN)
        root, info = entries[idx]
        wrong.append(root)
        entries[idx] = (root, replace(info, parity=Parity.ODD))
        return entries

    monkeypatch.setattr(verify, "classify_window", one_wrong)
    rep = suite_classification(p, 2)
    assert rep.checks == clean.checks
    assert [f.check for f in rep.failures] == ["window classification agrees with classify"]
    assert str(wrong[0]) in rep.failures[0].witness


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
