"""Root systems of the four twisted affine families.

Membership, classification, window enumeration, delta-coefficient sets and the
exhaustive structural checks all run off the clause tables in ``tables``.  A
root is always an exact integer vector; a "window" truncates the infinite
system to |dc| <= mmax for enumeration.  The structural checks are exact
residue computations on delta-classes (every coefficient set is a progression).

Non-imaginary root spaces are one-dimensional throughout, so no multiplicity
data is ever attached to them; imaginary roots carry no parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, TypeVar

from .families import AffineFamily, AlgebraParams, InvalidParamsError, valid_params
from .lattice import AmbientMismatchError, RootVector, norm
from .progressions import ProgressionSet
from .reporting import Verdict
from .tables import (
    EVEN_CLAUSES,
    REAL_SHAPES,
    ROOT_CLAUSES,
    Shape,
    build_mapping,
    shape_of,
)

__all__ = [
    "AffineFamily",
    "AlgebraParams",
    "InvalidParamsError",
    "NotARootError",
    "NotADotRootError",
    "EmptyComponentError",
    "ClassificationBugError",
    "RootClass",
    "Parity",
    "Component",
    "RootInfo",
    "is_root",
    "classify",
    "classify_window",
    "enumerate_window",
    "dot_roots",
    "dot_roots_0",
    "real_dot_roots",
    "ns_dot_roots",
    "linear_codes",
    "DotCodes",
    "dot_codes",
    "s_set",
    "s_set_0",
    "even_s_set",
    "odd_member_progression",
    "doubling_pairs",
    "ProgressionInvariants",
    "DotProgressionData",
    "r_invariants",
    "check_ns_sum",
    "check_sum_property",
    "check_length_trichotomy",
    "NsDecomposition",
    "ns_decompose",
    "check_double_odd",
    "valid_params",
]

T, U = TypeVar("T"), TypeVar("U")


class NotARootError(ValueError):
    """The vector is not a root of the given family (or is the zero vector)."""


class NotADotRootError(ValueError):
    """The vector is not a (nonzero, or in-component) delta-free root."""


class EmptyComponentError(ValueError):
    """The requested even component is empty (k = 0, i = 2)."""


class ClassificationBugError(AssertionError):
    """Syntactic and metric classification disagreed; must be impossible."""


class RootClass(Enum):
    REAL = "real"
    IMAGINARY = "imaginary"
    NONSINGULAR = "nonsingular"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class Component(Enum):
    IN_R0_1 = "r0_1"
    IN_R0_2 = "r0_2"
    ODD_PART = "odd"
    IMAGINARY_ONLY = "imaginary"


@dataclass(frozen=True)
class RootInfo:
    """Classification record of a single nonzero root.

    ``parity`` is None exactly for imaginary roots, whose even/odd attribution
    is left unspecified.
    """

    root_class: RootClass
    parity: Parity | None
    component: Component


# --- table-backed mappings (cached per params) -------------------------------


@lru_cache(maxsize=None)
def root_table(p: AlgebraParams) -> Mapping[RootVector, ProgressionSet]:
    """dot -> set of legal delta coefficients, for the whole root system."""
    return MappingProxyType(build_mapping(p, ROOT_CLAUSES[p.family]))


@lru_cache(maxsize=None)
def even_table(p: AlgebraParams, i: int) -> Mapping[RootVector, ProgressionSet]:
    """dot -> delta coefficients for even component i; empty mapping if k=0, i=2."""
    if i not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    if i == 2 and p.k == 0:
        return MappingProxyType({})
    return MappingProxyType(build_mapping(p, EVEN_CLAUSES[p.family][i]))


def _check_ambient(p: AlgebraParams, v: RootVector) -> None:
    if v.ambient != p.ambient:
        raise AmbientMismatchError(
            f"vector ambient {v.ambient} does not match params {p.ambient}"
        )


@lru_cache(maxsize=None)
def dot_roots(p: AlgebraParams) -> frozenset[RootVector]:
    """The finite delta-free root set, zero included."""
    return frozenset(root_table(p))


@lru_cache(maxsize=None)
def dot_roots_0(p: AlgebraParams, i: int) -> frozenset[RootVector]:
    """Delta-free roots of even component i; the empty set when the component is."""
    return frozenset(even_table(p, i))


@lru_cache(maxsize=None)
def real_dot_roots(p: AlgebraParams) -> tuple[RootVector, ...]:
    """Nonzero delta-free roots of real shape, in canonical order."""
    return tuple(
        d for d in sorted(root_table(p), key=RootVector.key)
        if not d.is_zero and shape_of(d) in REAL_SHAPES
    )


@lru_cache(maxsize=None)
def ns_dot_roots(p: AlgebraParams) -> tuple[RootVector, ...]:
    """Nonzero delta-free roots of mixed (nonsingular) shape, in canonical order."""
    return tuple(
        d for d in sorted(root_table(p), key=RootVector.key)
        if not d.is_zero and shape_of(d) is Shape.MIXED
    )


def linear_codes(coords: list[tuple[int, ...]]) -> list[int]:
    """The linear integer code of each coordinate tuple (c_0, c_1, ...): the
    sum of c_i * 2^(w*i), with 2^w above four times the largest |c_i| over
    all the tuples.

    A signed sum of at most four coded tuples has code 0 only when it is 0
    (read the code modulo 2^w, one coordinate at a time), so code(a) +
    code(b) == code(c) exactly when a + b == c, and code(-a) == -code(a)."""
    w = (4 * max((abs(c) for cs in coords for c in cs), default=0)).bit_length()
    return [sum(c << (w * i) for i, c in enumerate(cs)) for cs in coords]


class DotCodes(NamedTuple):
    """The dots of ``root_table(p)`` under their ``linear_codes`` over the eps
    and del coordinates: ``code`` maps each dot to its code, ``by_code``
    each code to the dot, in canonical order, and ``real`` is the part of
    ``by_code`` over ``real_dot_roots(p)``, in its order.  The dots are the
    table's own objects."""

    code: Mapping[RootVector, int]
    by_code: Mapping[int, RootVector]
    real: Mapping[int, RootVector]


# One params at a time, like the generator slice: the closure loops walk the
# params one by one.
@lru_cache(maxsize=1)
def dot_codes(p: AlgebraParams) -> DotCodes:
    """The code map of ``p``'s dots, built once per params in O(n).  Sums
    and negatives of dots are found by adding and negating codes and
    looking the result up, with no ``RootVector`` arithmetic."""
    dots = sorted(root_table(p), key=RootVector.key)
    codes = linear_codes([d.eps + d.dels for d in dots])
    code = dict(zip(dots, codes))
    real = {code[d]: d for d in real_dot_roots(p)}
    return DotCodes(MappingProxyType(code), MappingProxyType(dict(zip(codes, dots))),
                    MappingProxyType(real))


def pair_sums(members: Mapping[int, T], targets: Mapping[int, U]) -> Iterator[tuple[T, T, U]]:
    """(members[x], members[y], targets[x + y]) for every pair of dot codes
    x, y of ``members``, x not after y in its order (x == y included), whose
    sum is a key of ``targets``.  Every predicate checked over the pairs is
    symmetric in its two summands, so one record per unordered pair says it
    all."""
    entries = list(members.items())
    get = targets.get
    for idx, (ca, a) in enumerate(entries):
        for cb, b in entries[idx:]:
            c = get(ca + cb)
            if c is not None:
                yield a, b, c


def sign_pairs(by_code: Mapping[int, T]) -> Iterator[tuple[T, T]]:
    """(by_code[x], by_code[-x]) once per +- pair of codes, at the later of
    the two in the map's order: the anchor, then its negative.  The zero
    code pairs with itself; a code whose negative is no key is skipped."""
    seen = set()
    for c, x in by_code.items():
        seen.add(c)
        if -c in seen:
            yield x, by_code[-c]


def component_empty(p: AlgebraParams, i: int) -> bool:
    return not even_table(p, i)


# --- membership and classification -------------------------------------------


def is_root(p: AlgebraParams, v: RootVector) -> bool:
    """Whole-system membership, including Z*delta and the zero vector."""
    _check_ambient(p, v)
    prog = root_table(p).get(v.dot_part())
    return prog is not None and v.dc in prog


def s_set(p: AlgebraParams, dot: RootVector) -> ProgressionSet:
    """The delta coefficients sigma with dot + sigma a root, for nonzero dots."""
    _check_ambient(p, dot)
    if dot.is_zero or dot.dc != 0:
        raise NotADotRootError(f"{dot} is not a nonzero delta-free root")
    prog = root_table(p).get(dot)
    if prog is None:
        raise NotADotRootError(f"{dot} is not a delta-free root of {p.describe()}")
    return prog


def s_set_0(p: AlgebraParams, i: int, dot: RootVector) -> ProgressionSet:
    """Delta coefficients landing dot inside even component i."""
    _check_ambient(p, dot)
    if dot.dc != 0:
        raise NotADotRootError(f"{dot} is not delta-free")
    prog = even_table(p, i).get(dot)
    if prog is None:
        raise NotADotRootError(
            f"{dot} is not a delta-free root of component {i} of {p.describe()}"
        )
    return prog


def even_s_set(p: AlgebraParams, dot: RootVector) -> ProgressionSet:
    """Delta coefficients landing dot anywhere in the even part (both components)."""
    out = ProgressionSet.empty()
    for i in (1, 2):
        prog = even_table(p, i).get(dot)
        if prog is not None:
            out = out.union(prog)
    return out


def odd_member_progression(p: AlgebraParams, dot: RootVector) -> ProgressionSet:
    """Delta coefficients whose roots over this dot are odd (outside the even part)."""
    return s_set(p, dot).difference(even_s_set(p, dot))


def _root_class(dot: RootVector) -> RootClass:
    """The class of every root over ``dot``, by the clause-shape route checked
    against the bilinear-form route; a disagreement is an internal bug and
    raises.  The form ignores delta, so the class depends on the dot alone."""
    zero = dot.is_zero
    # Route 1: which clause shape matched.
    if zero:
        syntactic = RootClass.IMAGINARY
    elif shape_of(dot) is Shape.MIXED:
        syntactic = RootClass.NONSINGULAR
    else:
        syntactic = RootClass.REAL

    # Route 2: the form.  The radical of the span meets the root lattice in Z*delta.
    if norm(dot) != 0:
        metric = RootClass.REAL
    elif zero:
        metric = RootClass.IMAGINARY
    else:
        metric = RootClass.NONSINGULAR

    if syntactic is not metric:
        raise ClassificationBugError(
            f"classification disagreement on {dot} + Z*delta: clause says "
            f"{syntactic}, form says {metric}"
        )
    return metric


_IMAGINARY_INFO = RootInfo(RootClass.IMAGINARY, None, Component.IMAGINARY_ONLY)
_EVEN_COMPONENTS = ((1, Component.IN_R0_1), (2, Component.IN_R0_2))


def classify(p: AlgebraParams, v: RootVector) -> RootInfo:
    """Classify a nonzero root, cross-checking the clause-shape route against the
    bilinear-form route; a disagreement is an internal bug and raises."""
    _check_ambient(p, v)
    dot = v.dot_part()
    prog = root_table(p).get(dot)
    if prog is None or v.dc not in prog:
        raise NotARootError(f"{v} is not a root of {p.describe()}")
    if v.is_zero:
        raise NotARootError("the zero vector is not classified; it lies in every part")

    root_class = _root_class(dot)
    if root_class is RootClass.IMAGINARY:
        return _IMAGINARY_INFO
    for i, comp in _EVEN_COMPONENTS:
        even = even_table(p, i).get(dot)
        if even is not None and v.dc in even:
            if root_class is RootClass.NONSINGULAR:
                raise ClassificationBugError(f"nonsingular root {v} matched the even part")
            return RootInfo(root_class, Parity.EVEN, comp)
    return RootInfo(root_class, Parity.ODD, Component.ODD_PART)


def classify_window(
    p: AlgebraParams, mmax: int
) -> list[tuple[RootVector, RootInfo | None]]:
    """The roots of ``enumerate_window(p, mmax)``, in its order, each with what
    ``classify`` returns for it (None for the zero root).  The class is decided
    once per dot; parity and component come from the dot's two even-table
    progressions."""
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    evens = [(even_table(p, i), comp) for i, comp in _EVEN_COMPONENTS]
    out = []
    for dot, prog in root_table(p).items():
        window = prog.window(mmax)
        root_class = _root_class(dot)
        if root_class is RootClass.IMAGINARY:
            out += [(dot.with_dc(m), None if m == 0 else _IMAGINARY_INFO) for m in window]
            continue
        odd = RootInfo(root_class, Parity.ODD, Component.ODD_PART)
        even_infos = [(even, RootInfo(root_class, Parity.EVEN, comp))
                      for table, comp in evens if (even := table.get(dot)) is not None]
        for m in window:
            for even, info in even_infos:
                if m in even:
                    if root_class is RootClass.NONSINGULAR:
                        raise ClassificationBugError(
                            f"nonsingular root {dot.with_dc(m)} matched the even part")
                    break
            else:
                info = odd
            out.append((dot.with_dc(m), info))
    out.sort(key=lambda entry: entry[0].key())
    return out


def enumerate_window(p: AlgebraParams, mmax: int) -> list[RootVector]:
    """Exactly the roots with |dc| <= mmax, deduplicated, sorted by (dc, eps, del)."""
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    out = []
    for dot, prog in root_table(p).items():
        for m in prog.window(mmax):
            out.append(dot.with_dc(m))
    return sorted(out, key=RootVector.key)


# --- progression invariants ---------------------------------------------------


@dataclass(frozen=True)
class DotProgressionData:
    """Minimal modulus and residue of one dot's coefficient set, plus its residue
    classes re-expressed modulo the global modulus."""

    minimal_modulus: int
    residue: int
    residues_mod_global: tuple[int, ...]


@dataclass(frozen=True)
class ProgressionInvariants:
    global_modulus: int
    per_dot: Mapping[RootVector, DotProgressionData]


@lru_cache(maxsize=None)
def r_invariants(p: AlgebraParams) -> ProgressionInvariants:
    """Every nonzero dot's coefficient set is a single progression with modulus in
    {1, 2, 4}; the global modulus is the max, and each set is re-expressed mod it."""
    singles: dict[RootVector, tuple[int, int]] = {}
    for dot, prog in root_table(p).items():
        if dot.is_zero:
            continue
        r_dot, k_dot = prog.as_single()
        if r_dot not in (1, 2, 4):
            raise ClassificationBugError(f"modulus of {dot} outside {{1,2,4}}: {r_dot}")
        singles[dot] = (r_dot, k_dot)
    global_r = max((r for r, _ in singles.values()), default=1)
    per_dot = {
        dot: DotProgressionData(r, k, root_table(p)[dot].residues_mod(global_r))
        for dot, (r, k) in singles.items()
    }
    return ProgressionInvariants(global_r, MappingProxyType(per_dot))


# --- exhaustive structural checks ----------------------------------------------


def check_ns_sum(p: AlgebraParams, mmax: int) -> Verdict:
    """Sums of two nonsingular roots that are roots again must be real or
    imaginary.  One check per unordered pair of nonsingular dots (a, b) with
    some m in S_a and n in S_b summing into S_(a+b); the witness names the
    smallest nonnegative such m and n.  ``mmax`` changes no verdict; the
    benchmark harness passes it positionally, so it goes with a harness change."""
    v = Verdict()
    table = root_table(p)
    codes = dot_codes(p)
    ns = {codes.code[d]: d for d in ns_dot_roots(p)}
    for a, b, c in pair_sums(ns, codes.by_code):
        wit = table[a].sum_witness(table[b], table[c])
        if wit is None:
            continue
        m, n = wit
        v.record(c.is_zero or shape_of(c) is not Shape.MIXED,
                 "ns+ns stays real/imaginary",
                 lambda: f"{a.with_dc(m)} + {b.with_dc(n)} = {c.with_dc(m + n)}")
    if v.checks == 0:
        v.record(True, "ns+ns stays real/imaginary (vacuous)")
    return v


def _squared_length(dot: RootVector) -> int:
    # Both even components sit on one side of the lattice, so the form has a
    # constant sign there; compare absolute values.
    return abs(norm(dot))


def _component_sums(p: AlgebraParams, i: int):
    """((a, la), (b, lb), (a + b, lc)), with squared lengths, for every
    unordered pair of nonzero dots of component i, a not after b in canonical
    order, whose sum is a nonzero dot of the component (``pair_sums``).
    Every dot yielded is the table's own object."""
    code = dot_codes(p).code
    nonzero = {code[d]: (d, _squared_length(d))
               for d in sorted(even_table(p, i), key=RootVector.key) if not d.is_zero}
    return pair_sums(nonzero, nonzero)


def check_sum_property(p: AlgebraParams, i: int) -> Verdict:
    """For equal-length summands not exceeding their sum's length, the sum's
    coefficient set is contained in the sumset of the summands'."""
    v = Verdict()
    table = even_table(p, i)
    for (a, la), (b, lb), (c, lc) in _component_sums(p, i):
        if la == lb <= lc:
            ok = table[c].issubset(table[a].add(table[b]))
            v.record(ok, f"sum-set inclusion in component {i}", lambda: f"{a} + {b} = {c}")
    if v.checks == 0:
        v.record(True, f"sum-set inclusion in component {i} (vacuous)")
    return v


def check_length_trichotomy(p: AlgebraParams, i: int) -> Verdict:
    """Within an even component, any pair with a nonzero root sum realizes exactly
    one of the three length patterns: equal<sum, sum=short<long, all equal."""
    v = Verdict()
    for (a, la), (b, lb), (c, lc) in _component_sums(p, i):
        pat_a = la == lb < lc
        pat_b = (lc == la < lb) or (lc == lb < la)
        pat_c = la == lb == lc
        v.record(
            pat_a + pat_b + pat_c == 1,
            f"length trichotomy in component {i}",
            lambda: f"{a}, {b}, sum {c}: squared lengths ({la}, {lb}, {lc})",
        )
    if v.checks == 0:
        v.record(True, f"length trichotomy in component {i} (vacuous)")
    return v


@dataclass(frozen=True)
class NsDecomposition:
    """A nonsingular dot split into a delta-side and an eps-side summand whose
    doublings land in the real even part, with the certified containments."""

    eta: RootVector
    alpha: RootVector
    beta: RootVector
    kfactor: int
    r_eta: int


class NoDecompositionError(RuntimeError):
    """Certification of a nonsingular split failed; must never fire."""


def _contained_in_even_real(p: AlgebraParams, dot: RootVector, prog: ProgressionSet) -> bool:
    """dot + prog*delta lies inside the real part of the even components."""
    if shape_of(dot) not in REAL_SHAPES:
        return False
    return prog.issubset(even_s_set(p, dot))


def ns_decompose(p: AlgebraParams, eta: RootVector) -> NsDecomposition:
    """Split a nonzero nonsingular dot eta = alpha + beta so that

      * kfactor * (+-alpha) + r_eta*Z*delta lies in the real even part,
      * +-2*beta +- r_eta*delta + 2*r_eta*Z*delta lies in the real even part,
      * kfactor*alpha +- 2*beta is not a dot root,

    with kfactor = 2 for the A-families (alpha is the delta-side summand) and
    kfactor = 1 for D_2 (alpha is the eps-side summand).  All containments are
    re-verified by membership before returning.
    """
    _check_ambient(p, eta)
    if shape_of(eta) is not Shape.MIXED or eta not in dot_roots(p):
        raise NotADotRootError(f"{eta} is not a nonzero nonsingular delta-free root")
    r_eta = s_set(p, eta).as_single()[0]
    eps_side = RootVector(eta.eps, (0,) * p.l, 0)
    del_side = RootVector((0,) * p.k, eta.dels, 0)
    if p.family is AffineFamily.D_2:
        alpha, beta, kfactor = eps_side, del_side, 1
    else:
        alpha, beta, kfactor = del_side, eps_side, 2

    alpha_prog = ProgressionSet.single(kfactor * r_eta, 0)  # kfactor * r_eta * Z
    shifted = ProgressionSet.single(2 * r_eta, r_eta)        # +-r_eta + 2*r_eta*Z
    for sign in (1, -1):
        if not _contained_in_even_real(p, alpha.scale(sign * kfactor), alpha_prog):
            raise NoDecompositionError(
                f"{p.describe()}: {kfactor}*{alpha.scale(sign)} misses the even real part"
            )
        if not _contained_in_even_real(p, beta.scale(sign * 2), shifted):
            raise NoDecompositionError(
                f"{p.describe()}: 2*{beta.scale(sign)} shifted misses the even real part"
            )
    for sign in (1, -1):
        combo = alpha.scale(kfactor) + beta.scale(2 * sign)
        if combo in dot_roots(p):
            raise NoDecompositionError(
                f"{p.describe()}: {combo} is unexpectedly a delta-free root"
            )
    return NsDecomposition(eta, alpha, beta, kfactor, r_eta)


def check_double_odd(p: AlgebraParams, mmax: int) -> Verdict:
    """Two times any odd real root is again a root, and a real even one.  One
    check per real dot with odd roots: the doubled odd coefficients must lie in
    the even set of the doubled dot, which must have a real shape.  The witness
    names the smallest nonnegative failing one.  ``mmax`` changes no verdict;
    the benchmark harness passes it positionally, so it goes with a harness
    change."""
    v = Verdict()
    for dot in real_dot_roots(p):
        odd = odd_member_progression(p, dot)
        if odd.is_empty:
            continue
        doubled = dot.scale(2)
        twice = ProgressionSet(2 * odd.modulus, tuple(2 * r for r in odd.residues))
        bad = (twice.difference(even_s_set(p, doubled))
               if shape_of(doubled) in REAL_SHAPES else twice)
        m = (twice if bad.is_empty else bad).residues[0] // 2
        v.record(bad.is_empty, "doubled odd real root is real even",
                 lambda: f"2*{dot.with_dc(m)} = {doubled.with_dc(2 * m)}")
    if v.checks == 0:
        v.record(True, "doubled odd real root is real even (vacuous)")
    return v


@lru_cache(maxsize=None)
def doubling_pairs(p: AlgebraParams) -> tuple[tuple[RootVector, RootVector], ...]:
    """Pairs (dot, 2*dot) of real dots where the dot's class contains an odd root
    and the double is again a dot root; these drive the doubling rules."""
    out = []
    for dot in real_dot_roots(p):
        doubled = dot.scale(2)
        if doubled in dot_roots(p) and not odd_member_progression(p, dot).is_empty:
            out.append((dot, doubled))
    return tuple(out)
