"""Parabolic and triangular machinery over exact rationals.

Covers sign decompositions by linear functionals, extraction and testing of
parabolic subsets of the finite even-component root systems, synthesis of a
defining functional as the sum of the subset's nilradical, the positivity
alignment between a functional and a shadow configuration, and the generator
combinatorics of the positive slice (the residue-shifted dot roots, their
indecomposables, and nonnegative integral decompositions over them).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .families import AlgebraParams
from .lattice import RootVector
from .reporting import Verdict
from .rootsys import (
    EmptyComponentError,
    _check_ambient,
    dot_codes,
    dot_roots_0,
    even_table,
    linear_codes,
    pair_sums,
    r_invariants,
    sign_pairs,
)
from .shadow import ParabolicSet, ShadowConfig, StateKind
from .tables import REAL_SHAPES, shape_of


class InfeasibleSystemError(RuntimeError):
    """No functional realizes the requested half-space; surfaced, never swallowed."""


# The decimal-exponent strings that ``Fraction`` reads, such as "1e5" or "-2.5E-3".
_EXPONENT = re.compile(r"\s*[-+]?(?=\.?\d)[\d_]*(\.[\d_]*)?[eE][-+]?[\d_]+\s*")


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Functional:
    """Rational-coefficient linear form on span(eps_i, del_j, delta).

    The delta coefficient is stored explicitly and is 0 for every functional
    produced by synthesis or combination.  Evaluation runs in integers: the
    coefficients are cleared once, at construction, to integer numerators
    over one common denominator.
    """

    eps: tuple[Fraction, ...]
    dels: tuple[Fraction, ...]
    delta: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # Plain attributes, not fields, so that equality, hashing and repr see
        # only the rational coefficients.
        coeffs = self.eps + self.dels + (self.delta,)
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        k, l = len(self.eps), len(self.dels)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_eps_num", nums[:k])
        object.__setattr__(self, "_dels_num", nums[k : k + l])
        object.__setattr__(self, "_delta_num", nums[-1])

    def evaluate(self, v: RootVector) -> Fraction:
        if len(self.eps) != len(v.eps) or len(self.dels) != len(v.dels):
            raise ValueError("functional and vector ambients differ")
        n = (
            sum(map(mul, self._eps_num, v.eps))
            + sum(map(mul, self._dels_num, v.dels))
            + self._delta_num * v.dc
        )
        return Fraction(n, self._den)

    @property
    def is_zero(self) -> bool:
        return self.delta == 0 and not any(self.eps) and not any(self.dels)

    def to_json(self) -> dict:
        return {
            "eps": [_frac_str(c) for c in self.eps],
            "del": [_frac_str(c) for c in self.dels],
            "delta": _frac_str(self.delta),
        }

    @staticmethod
    def from_json(doc: dict) -> Functional:
        """Read ``to_json``'s encoding.  A coefficient is a JSON integer or a
        string such as "-3/4" or "0.5"; a float or a boolean is refused, since
        a binary float would not be the rational the document shows, and so is
        a string with a decimal exponent, since "1e3000000" alone would take
        seconds to read."""
        eps, dels, delta = doc["eps"], doc["del"], doc.get("delta", 0)
        for name, coeffs in (("eps", eps), ("del", dels)):
            if not isinstance(coeffs, list):
                raise TypeError(f"{name} must be a list of coefficients, got {coeffs!r}")
        for c in (*eps, *dels, delta):
            if type(c) not in (int, str):
                raise TypeError(f"a coefficient must be an integer or a string, got {c!r}")
            if type(c) is str and _EXPONENT.fullmatch(c):
                raise ValueError(f"a coefficient must not have an exponent, got {c!r}")
        return Functional(
            tuple(map(Fraction, eps)), tuple(map(Fraction, dels)), Fraction(delta)
        )

    @staticmethod
    def zero(k: int, l: int) -> Functional:
        return Functional((Fraction(0),) * k, (Fraction(0),) * l)


@dataclass(frozen=True)
class TriangularDecomp:
    """Sign partition of a root list under a functional; trivial when everything
    lands in the zero part."""

    positive: tuple[RootVector, ...]
    zero: tuple[RootVector, ...]
    negative: tuple[RootVector, ...]

    @property
    def trivial(self) -> bool:
        return not self.positive and not self.negative


def triangular(roots, zeta: Functional) -> TriangularDecomp:
    """Partition by the exact sign of the functional."""
    pos, zer, neg = [], [], []
    for v in roots:
        val = zeta.evaluate(v)
        (pos if val > 0 else neg if val < 0 else zer).append(v)
    return TriangularDecomp(*(tuple(sorted(part, key=RootVector.key))
                              for part in (pos, zer, neg)))


# --- parabolic subsets of the even components -----------------------------------


@dataclass(frozen=True)
class DotParabolic:
    """A subset of one even component's delta-free root system."""

    params: AlgebraParams
    component: int
    members: frozenset[RootVector]

    @property
    def proper(self) -> bool:
        return self.members != dot_roots_0(self.params, self.component)

    def sorted_members(self) -> list[RootVector]:
        return sorted(self.members, key=RootVector.key)


def dot_parabolic_from_config(cfg: ShadowConfig, i: int, mmax: int = 8) -> DotParabolic:
    """The delta-free trace of the config's parabolic set on even component i:
    the zero dot (the imaginary line lies in the set) and every dot whose class
    lies in the set.  ``mmax`` does not change the trace."""
    p = cfg.params
    table = even_table(p, i)
    if not table:
        raise EmptyComponentError(f"component {i} of {p.describe()} is empty")
    pset = ParabolicSet(cfg)
    return DotParabolic(p, i, frozenset(d for d in table if d.is_zero or pset.contains_class(d)))


def is_parabolic(dp: DotParabolic) -> Verdict:
    """Cover (every element or its negative belongs) and closure (sums that stay
    in the component stay in the subset), checked exhaustively.  The members
    must be dots of the component; another member raises ValueError.

    Both loops run on the component's dot codes (``rootsys.dot_codes``),
    zero included: cover once per +- pair, naming its earlier dot
    (``rootsys.sign_pairs``), closure once per unordered pair of members."""
    v = Verdict()
    i = dp.component
    ambient = dot_roots_0(dp.params, i)
    if not dp.members <= ambient:
        outside = sorted(dp.members - ambient, key=RootVector.key)
        raise ValueError(f"members outside component {i}: {outside}")
    code = dot_codes(dp.params).code
    dots = {code[d]: (d, d in dp.members) for d in sorted(ambient, key=RootVector.key)}
    for (_, ok), (neg, ok_neg) in sign_pairs(dots):
        v.record(ok or ok_neg, f"cover on component {i}", lambda: f"{neg}")
    members = {c: entry for c, entry in dots.items() if entry[1]}
    for (a, _), (b, _), (c, ok) in pair_sums(members, dots):
        v.record(ok, f"closure on component {i}", lambda: f"{a} + {b} = {c}")
    return v


def synthesize_functional(dp: DotParabolic) -> Functional:
    """An integral functional whose weak-nonnegativity locus on the component
    equals the subset.

    The candidate is the sum s, on the component's coordinates, of the
    subset's nilradical: the members d of P with -d not in P.  For a parabolic
    P, s vanishes on the Levi part (the members whose negative is a member)
    and is positive on the nilradical (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI 1.7), so P = {d : <d, s> >= 0}.  The recovery check compares P with
    ``induced_dot_parabolic`` of the candidate; a subset that is not a
    half-space trace fails it, which is surfaced as InfeasibleSystemError.
    """
    p, i = dp.params, dp.component
    code = dot_codes(p).code
    members = {code[d]: d for d in dp.members if d in code}  # a non-dot fails recovery
    s = [0] * (p.k if i == 2 else p.l)
    for c, dot in members.items():
        if -c not in members:
            s = [a + b for a, b in zip(s, dot.eps if i == 2 else dot.dels)]
    coeffs = tuple(Fraction(c) for c in s)
    zeta = (
        Functional(coeffs, (Fraction(0),) * p.l)
        if i == 2
        else Functional((Fraction(0),) * p.k, coeffs)
    )
    if induced_dot_parabolic(p, i, zeta).members != dp.members:
        raise InfeasibleSystemError(
            f"no functional realizes the subset on component {i} "
            f"of {p.describe()}: {dp.sorted_members()}"
        )
    return zeta


def induced_dot_parabolic(p: AlgebraParams, i: int, zeta: Functional) -> DotParabolic:
    """The weak-nonnegativity trace of a functional on component i: the one
    implementation, which ``synthesize_functional`` also uses to check its
    result."""
    ambient = dot_roots_0(p, i)
    if not ambient:
        raise EmptyComponentError(f"component {i} of {p.describe()} is empty")
    return DotParabolic(p, i, frozenset(d for d in ambient if zeta.evaluate(d) >= 0))


def combine_functionals(zeta1: Functional, zeta2: Functional | None) -> Functional:
    """Direct-sum functional on the whole span with delta coefficient 0; the
    summands must have disjoint support (they live on different components)."""
    if zeta1.delta != 0 or (zeta2 is not None and zeta2.delta != 0):
        raise ValueError("component functionals must vanish on delta")
    if zeta2 is None:
        return Functional(zeta1.eps, zeta1.dels)
    for a, b in zip(zeta1.eps + zeta1.dels, zeta2.eps + zeta2.dels):
        if a != 0 and b != 0:
            raise ValueError("component functionals overlap on a coordinate")
    return Functional(
        tuple(a + b for a, b in zip(zeta1.eps, zeta2.eps)),
        tuple(a + b for a, b in zip(zeta1.dels, zeta2.dels)),
    )


# --- positivity alignment ---------------------------------------------------------


def check_positivity_alignment(cfg: ShadowConfig, zeta: Functional, mmax: int = 8) -> Verdict:
    """For every nonzero real dot: the functional is positive on it exactly when
    its whole class is locally nilpotent and the negative class is injective,
    that is, when the class is fully-ln and its negative fully-in (a hybrid
    class meets both parts).  ``mmax`` does not change the verdict."""
    if zeta.delta != 0:
        raise ValueError("the functional must vanish on delta")
    v = Verdict()
    states = cfg.states
    real = dot_codes(cfg.params).real
    for c, dot in real.items():
        rhs = states[dot].kind is StateKind.FULL_LN and states[real[-c]].kind is StateKind.FULL_IN
        lhs = zeta.evaluate(dot) > 0
        v.record(
            lhs == rhs,
            "positive value iff fully-ln class with fully-in negative",
            lambda: f"{dot}: value {zeta.evaluate(dot)}, class ln/in split says {rhs}",
        )
    return v


# --- the generator set of the positive slice --------------------------------------


# One params at a time: callers walk the params one by one, and a run of cold
# queries over many params should not keep every slice alive.
@lru_cache(maxsize=1)
def _shifted(
    p: AlgebraParams,
) -> tuple[tuple[RootVector, ...], tuple[RootVector, ...], dict[RootVector, int]]:
    """``shifted_full``, its real part ``shifted_real``, and a linear integer
    code for each element of ``shifted_real``; built once per params.

    The codes are ``rootsys.linear_codes`` of the eps, del and dc
    coordinates, with one width for the whole slice, so code(v) - code(a) ==
    code(b) exactly when v - a == b.
    """
    inv = r_invariants(p)
    full = tuple(
        dot.with_dc(res)
        for dot in sorted(inv.per_dot, key=RootVector.key)
        for res in inv.per_dot[dot].residues_mod_global
    )
    real = tuple(v for v in full if shape_of(v.dot_part()) in REAL_SHAPES)
    codes = linear_codes([v.eps + v.dels + (v.dc,) for v in real])
    return full, real, dict(zip(real, codes))


def _split_witness(
    code: int, by_code: dict[int, RootVector]
) -> tuple[RootVector, RootVector] | None:
    """The split (a, v - a) of the positive element v with this code, for the
    first a in slice order that leaves v - a positive, or None when v is
    indecomposable.

    ``by_code`` maps the code of each positive element to the element, in
    slice order, so v - a lies in the positive slice exactly when
    code - code(a) is a key, and both parts are returned as slice objects."""
    for ca, a in by_code.items():
        b = by_code.get(code - ca)
        if b is not None:
            return a, b
    return None


@dataclass(frozen=True)
class GeneratorSet:
    """Residue-shifted dot roots and the indecomposable generators of the
    positive slice.

    ``shifted_real`` ranges over nonzero real dots, ``shifted_full`` over all
    nonzero dots; the two variants differ exactly on the nonsingular shapes and
    both are kept (the window identity is stated for the full variant and
    checked by the classification suite, the generator combinatorics for the
    real one).  ``generators`` is derived from ``positive``.
    """

    params: AlgebraParams
    zeta: Functional
    modulus: int
    shifted_real: tuple[RootVector, ...]
    shifted_full: tuple[RootVector, ...]
    positive: tuple[RootVector, ...]
    generators: tuple[RootVector, ...] = field(init=False)

    def __post_init__(self) -> None:
        # A plain attribute, not a field, like Functional._den: the first split
        # of each positive element (None for a generator), in slice order,
        # found over the integer codes of the positive slice.
        codes = _shifted(self.params)[2]
        by_code = {codes[v]: v for v in self.positive}
        splits = {v: _split_witness(c, by_code) for c, v in by_code.items()}
        object.__setattr__(self, "_splits", splits)
        object.__setattr__(
            self, "generators", tuple(v for v, split in splits.items() if split is None)
        )


def shifted_full(p: AlgebraParams) -> tuple[RootVector, ...]:
    """Every nonzero dot shifted by each of its residues modulo the global
    modulus, in dot order.  Steps of the global modulus from this set reach
    every nonzero non-imaginary root and nothing else; the classification
    suite checks that window identity once per params."""
    return _shifted(p)[0]


def generator_set(p: AlgebraParams, zeta: Functional, mmax: int = 8) -> GeneratorSet:
    """Shift every nonzero dot by its residues modulo the global modulus, take
    the functional-positive real slice, and extract its indecomposables.
    ``mmax`` does not change the result."""
    if zeta.delta != 0:
        raise ValueError("the functional must vanish on delta")
    full, real, _ = _shifted(p)
    positive = tuple(v for v in real if zeta.evaluate(v) > 0)
    return GeneratorSet(p, zeta, r_invariants(p).global_modulus, real, full, positive)


def decompose_over_generators(
    target: RootVector, gens: GeneratorSet
) -> dict[RootVector, int]:
    """Nonnegative integer coefficients over the generators reproducing the
    target exactly (delta coordinate included).  A target of another ambient
    than the generators' params is refused with AmbientMismatchError.

    Repeated splitting along the indecomposability witness of
    ``generator_set``: an element v of the positive slice is split into a and
    v - a, for the first a of the slice (in slice order) that leaves v - a in
    the slice, and counted as a generator when no such a exists.  Both parts
    have a strictly smaller functional value, so on the finite slice the
    splitting stops, and the result is deterministic.
    """
    splits = gens._splits
    if target not in splits:
        _check_ambient(gens.params, target)  # a root of another ambient is never a key
        raise ValueError(f"{target} is not in the positive slice")
    out: dict[RootVector, int] = {}
    stack = [target]
    while stack:
        v = stack.pop()
        split = splits[v]
        if split is None:
            out[v] = out.get(v, 0) + 1
        else:
            stack += split
    total = None
    for g, c in out.items():
        total = g.scale(c) if total is None else total + g.scale(c)
    if total != target:  # pragma: no cover
        raise AssertionError("decomposition does not reproduce the target")
    return out
