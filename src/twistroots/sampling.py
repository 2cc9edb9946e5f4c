"""Seeded random functionals, shadow configurations and adversarial mutations.

Everything is driven by an explicit ``random.Random`` so that suites are
reproducible; hybrid boundaries are drawn inside [-mmax/2, mmax/2] to keep
them visible in test windows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from random import Random

from .families import AlgebraParams
from .lattice import RootVector
from .parabolic import Functional
from .rootsys import dot_codes, doubling_pairs, real_dot_roots
from .shadow import (
    FULL_IN,
    FULL_LN,
    Case,
    ClassState,
    ShadowConfig,
    canonical_rep,
    hybrid,
)

DEFAULT_SEED = 12345


def _random_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_functional(p: AlgebraParams, rng: Random) -> Functional:
    """A random rational functional vanishing on delta."""
    return Functional(
        tuple(_random_fraction(rng) for _ in range(p.k)),
        tuple(_random_fraction(rng) for _ in range(p.l)),
    )


def random_nonzero_functional(p: AlgebraParams, rng: Random) -> Functional:
    """As above, redrawn until some nonzero real dot has a nonzero value (so the
    seeded configuration below is tight)."""
    while True:
        zeta = random_functional(p, rng)
        if any(zeta.evaluate(d) != 0 for d in real_dot_roots(p)):
            return zeta


def random_profile(rng: Random, mmax: int = 8):
    return hybrid(
        rng.choice((Case.III, Case.IV)),
        rng.randint(-(mmax // 2), mmax // 2),
        rng.choice((-1, 0, 1)),
    )


def config_from_functional(
    p: AlgebraParams, zeta: Functional, rng: Random, mmax: int = 8
) -> ShadowConfig:
    """Fully-ln on positive classes, fully-in on negative ones, a shared random
    hybrid profile on each zero pair, decided at the later dot of the pair."""
    states: dict[RootVector, ClassState] = {}
    real = dot_codes(p).real
    seen = set()
    for c, dot in real.items():
        seen.add(c)
        if -c not in seen:
            continue  # the anchor of a +- pair is the later one in canonical order
        neg = real[-c]
        val = zeta.evaluate(dot)
        if val > 0:
            states[dot], states[neg] = FULL_LN, FULL_IN
        elif val < 0:
            states[dot], states[neg] = FULL_IN, FULL_LN
        else:
            prof = random_profile(rng, mmax)
            states[dot] = prof
            states[neg] = prof
    return ShadowConfig(p, states)


def random_tight_config(
    p: AlgebraParams, rng: Random, mmax: int = 8
) -> tuple[ShadowConfig, Functional]:
    zeta = random_nonzero_functional(p, rng)
    return config_from_functional(p, zeta, rng, mmax), zeta


@lru_cache(maxsize=None)
def _closure_break_targets(p: AlgebraParams) -> tuple[RootVector, ...]:
    """The sum a+b of each ordered pair (a, b) of real dots, in pair order,
    where flipping a+b to fully-in from an all-fully-ln baseline passes
    validation but breaks closure: the sum must not be the double of an odd
    class nor an odd class with a root double.  A sum is listed once per pair,
    so a uniform draw weights it by its pairs.  Cached per params; sums are
    found on the dot codes, and every sum is the real dot object itself, not
    a copy of it."""
    codes = dot_codes(p)
    real = codes.real
    protected = {codes.code[d] for pair in doubling_pairs(p) for d in pair}
    out = []
    for ca in real:
        for cb in real:
            cc = ca + cb
            c = real.get(cc)
            if c is not None and cc not in protected and -cc not in protected:
                out.append(c)
    return tuple(out)


def adversarial_config(p: AlgebraParams, rng: Random, kind: str, mmax: int = 8) -> ShadowConfig:
    """A deliberately broken configuration of the requested kind; each kind is
    rejected by validation or by the parabolic closure check."""
    if kind == "asymmetric_hybrid":
        cfg, _ = random_tight_config(p, rng, mmax)
        dot = rng.choice([d for d in real_dot_roots(p) if d == canonical_rep(d)])
        states = dict(cfg.states)
        states[dot] = random_profile(rng, mmax)
        states[-dot] = FULL_IN
        return ShadowConfig(p, states)
    if kind == "broken_doubling":
        pairs = doubling_pairs(p)
        if not pairs:
            raise ValueError(f"{p.describe()} has no doubling pairs")
        cfg, _ = random_tight_config(p, rng, mmax)
        dot, doubled = rng.choice(list(pairs))
        states = dict(cfg.states)
        states[dot] = FULL_LN
        prof = random_profile(rng, mmax)
        states[canonical_rep(doubled)] = prof
        states[-canonical_rep(doubled)] = prof
        return ShadowConfig(p, states)
    if kind == "broken_closure":
        targets = _closure_break_targets(p)
        if not targets:
            raise ValueError(f"{p.describe()} has no closure-break triple")
        states: dict[RootVector, ClassState] = {d: FULL_LN for d in real_dot_roots(p)}
        states[rng.choice(targets)] = FULL_IN
        return ShadowConfig(p, states)
    raise ValueError(f"unknown mutation kind {kind!r}")


def adversarial_kinds(p: AlgebraParams) -> tuple[str, ...]:
    """The mutation kinds applicable to this family's parameters."""
    kinds = ["asymmetric_hybrid"]
    if doubling_pairs(p):
        kinds.append("broken_doubling")
    if _closure_break_targets(p):
        kinds.append("broken_closure")
    return tuple(kinds)
