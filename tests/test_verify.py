"""Verification suites: determinism and end-to-end passes on small batches."""

from twistroots.families import AffineFamily, AlgebraParams
from twistroots.reporting import Failure, Verdict
from twistroots.verify import run_all, suite_shadow_pipeline


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
