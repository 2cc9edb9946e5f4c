"""Root systems of the four twisted affine families.

Membership, classification, window enumeration, delta-coefficient sets and the
exhaustive structural checks all run off the clause tables in ``tables``,
read through one per-params root index that decides each dot's class,
parity rows and component progressions in the pass that builds it.  A root
is always an exact integer vector; a "window" truncates the infinite system
to |dc| <= mmax for enumeration.  The structural checks are exact residue
computations on delta-classes (every coefficient set is a progression).

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


# --- the per-params root index -------------------------------------------------


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


# The few classification records there are; every dot record shares them.
_IMAGINARY_INFO = RootInfo(RootClass.IMAGINARY, None, Component.IMAGINARY_ONLY)
_ODD_INFO = {c: RootInfo(c, Parity.ODD, Component.ODD_PART)
             for c in (RootClass.REAL, RootClass.NONSINGULAR)}
_EVEN_INFO = {i: RootInfo(RootClass.REAL, Parity.EVEN, comp)
              for i, comp in ((1, Component.IN_R0_1), (2, Component.IN_R0_2))}

_NO_COEFFICIENTS = ProgressionSet.empty()


class _DotRecord(NamedTuple):
    """What classification knows of one dot.  ``s`` is its coefficient set,
    ``even`` the union of its even progressions, ``odd_s`` the coefficients
    outside them, and ``odd`` the record of the roots there.  ``evens`` holds
    one (progression, record) pair per even component that holds the dot;
    the record is None for a nonsingular dot, none of whose roots may be
    even.  The zero dot has no pairs, since its roots are imaginary in
    either component, but its ``even`` holds both imaginary rows."""

    s: ProgressionSet
    even: ProgressionSet
    odd_s: ProgressionSet
    evens: tuple[tuple[ProgressionSet, RootInfo | None], ...]
    odd: RootInfo


def _build_record(s: ProgressionSet, progs: tuple[ProgressionSet | None, ...],
                  root_class: RootClass) -> _DotRecord:
    """The record of a dot of class ``root_class`` with coefficient set ``s``
    and progression ``progs[i - 1]`` in even component i (None if absent)."""
    imaginary = root_class is RootClass.IMAGINARY
    evens, even = [], _NO_COEFFICIENTS
    for i, prog in zip((1, 2), progs):
        if prog is not None:
            even = prog if even.is_empty else even.union(prog)
            if not imaginary:
                evens.append((prog, _EVEN_INFO[i] if root_class is RootClass.REAL else None))
    return _DotRecord(s, even, s.difference(even), tuple(evens),
                      _IMAGINARY_INFO if imaginary else _ODD_INFO[root_class])


class _Index(NamedTuple):
    """What ``rootsys`` knows of one params' dots, in canonical order; every
    dot outside ``evens`` (the component tables) is ``table``'s own object.
    ``code`` maps each dot to its ``linear_codes`` code over the eps and del
    coordinates, ``by_code`` each code to the dot, and ``real`` and ``ns``
    are the parts of ``by_code`` over the real and the nonsingular dots.
    ``records`` maps each dot's (eps, dels) to its classification record."""

    table: Mapping[RootVector, ProgressionSet]
    evens: tuple[Mapping[RootVector, ProgressionSet], ...]
    dots: frozenset[RootVector]
    dots0: tuple[frozenset[RootVector], ...]
    code: Mapping[RootVector, int]
    by_code: Mapping[int, RootVector]
    real: Mapping[int, RootVector]
    ns: Mapping[int, RootVector]
    invariants: ProgressionInvariants
    records: Mapping[tuple[tuple[int, ...], tuple[int, ...]], _DotRecord]
    doubling: tuple[tuple[RootVector, RootVector], ...]


def _canonical(mapping):
    """The mapping as a dict in canonical order."""
    return dict(sorted(mapping.items(), key=lambda item: item[0].key()))


@lru_cache(maxsize=None)
def _index(p: AlgebraParams) -> _Index:
    """The root index of ``p``, cached once per params: ``build_mapping`` runs
    once per clause set, the dots are sorted once, and one pass over them
    decides each dot's class (once, by ``_root_class``), code, progression
    invariants and classification record.  The dots of one clause row share
    its progression, so the invariants are built once per progression and
    the records once per (coefficient set, component progressions, class)."""
    table = _canonical(build_mapping(p, ROOT_CLAUSES[p.family]))
    evens = [_canonical({} if i == 2 and p.k == 0 else build_mapping(p, EVEN_CLAUSES[p.family][i]))
             for i in (1, 2)]
    codes = linear_codes([d.eps + d.dels for d in table])
    global_r = max(s.modulus for s in table.values())  # the zero dot's Z has modulus 1
    real, ns, per_dot, data, records, interned = {}, {}, {}, {}, {}, {}
    for c, (dot, s) in zip(codes, table.items()):
        root_class = _root_class(dot)
        progs = tuple(even.get(dot) for even in evens)
        key = (s, progs, root_class)
        rec = interned.get(key)
        if rec is None:
            rec = interned[key] = _build_record(s, progs, root_class)
        records[dot.eps, dot.dels] = rec
        if root_class is RootClass.IMAGINARY:
            continue
        (real if root_class is RootClass.REAL else ns)[c] = dot
        if s not in data:
            r_dot, k_dot = s.as_single()
            if r_dot not in (1, 2, 4):
                raise ClassificationBugError(f"modulus of {dot} outside {{1,2,4}}: {r_dot}")
            data[s] = DotProgressionData(r_dot, k_dot, s.residues_mod(global_r))
        per_dot[dot] = data[s]
    by_code = dict(zip(codes, table))
    # the codes are linear, so 2 * code(dot) is the code of 2 * dot when that is a dot
    doubling = tuple((dot, by_code[2 * c]) for c, dot in real.items()
                     if 2 * c in by_code and not records[dot.eps, dot.dels].odd_s.is_empty)
    # frozenset() of a dict reuses its stored hashes, and of a mapping proxy does not
    return _Index(MappingProxyType(table), tuple(map(MappingProxyType, evens)), frozenset(table),
                  tuple(map(frozenset, evens)), MappingProxyType(dict(zip(table, codes))),
                  MappingProxyType(by_code), MappingProxyType(real), MappingProxyType(ns),
                  ProgressionInvariants(global_r, MappingProxyType(per_dot)),
                  MappingProxyType(records), doubling)


def _component(i: int) -> int:
    if i not in (1, 2):
        raise ValueError("component index must be 1 or 2")
    return i - 1


def root_table(p: AlgebraParams) -> Mapping[RootVector, ProgressionSet]:
    """dot -> set of legal delta coefficients, for the whole root system."""
    return _index(p).table


def even_table(p: AlgebraParams, i: int) -> Mapping[RootVector, ProgressionSet]:
    """dot -> delta coefficients for even component i; empty mapping if k=0, i=2."""
    return _index(p).evens[_component(i)]


def component_empty(p: AlgebraParams, i: int) -> bool:
    return not even_table(p, i)


def _check_ambient(p: AlgebraParams, v: RootVector) -> None:
    if v.ambient != p.ambient:
        raise AmbientMismatchError(
            f"vector ambient {v.ambient} does not match params {p.ambient}"
        )


def dot_roots(p: AlgebraParams) -> frozenset[RootVector]:
    """The finite delta-free root set, zero included."""
    return _index(p).dots


def dot_roots_0(p: AlgebraParams, i: int) -> frozenset[RootVector]:
    """Delta-free roots of even component i; the empty set when the component is."""
    return _index(p).dots0[_component(i)]


def real_dot_roots(p: AlgebraParams) -> tuple[RootVector, ...]:
    """Nonzero delta-free roots of real shape, in canonical order."""
    return tuple(_index(p).real.values())


def ns_dot_roots(p: AlgebraParams) -> tuple[RootVector, ...]:
    """Nonzero delta-free roots of mixed (nonsingular) shape, in canonical order."""
    return tuple(_index(p).ns.values())


def r_invariants(p: AlgebraParams) -> ProgressionInvariants:
    """Every nonzero dot's coefficient set is a single progression with modulus in
    {1, 2, 4}; the global modulus is the max, and each set is re-expressed mod it."""
    return _index(p).invariants


def linear_codes(coords: list[tuple[int, ...]]) -> list[int]:
    """The linear integer code of each coordinate tuple (c_0, c_1, ...): the
    sum of c_i * 2^(w*i), with 2^w above four times the largest |c_i| over
    all the tuples.

    A signed sum of at most four coded tuples has code 0 only when it is 0
    (read the code modulo 2^w, one coordinate at a time), so code(a) +
    code(b) == code(c) exactly when a + b == c, and code(-a) == -code(a)."""
    w = (4 * max((abs(c) for cs in coords for c in cs), default=0)).bit_length()
    return [sum(c << (w * i) for i, c in enumerate(cs)) for cs in coords]


def dot_codes(p: AlgebraParams) -> _Index:
    """The root index of ``p``, read for its code maps ``code``, ``by_code``
    and ``real``.  Sums and negatives of dots are found by adding and
    negating codes and looking the result up, with no ``RootVector``
    arithmetic."""
    return _index(p)


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
    rec = None if dot.dc else _index(p).records.get((dot.eps, dot.dels))
    return _NO_COEFFICIENTS if rec is None else rec.even


def odd_member_progression(p: AlgebraParams, dot: RootVector) -> ProgressionSet:
    """Delta coefficients whose roots over this dot are odd (outside the even part)."""
    s_set(p, dot)  # refuses what is no nonzero dot
    return _index(p).records[dot.eps, dot.dels].odd_s


def _read(rec: _DotRecord, v: RootVector) -> RootInfo:
    """The record of the nonzero root v over ``rec``'s dot."""
    for prog, info in rec.evens:
        if v.dc in prog:
            if info is None:
                raise ClassificationBugError(f"nonsingular root {v} matched the even part")
            return info
    return rec.odd


def classify(p: AlgebraParams, v: RootVector) -> RootInfo:
    """Classify a nonzero root, cross-checking the clause-shape route against the
    bilinear-form route; a disagreement is an internal bug and raises."""
    _check_ambient(p, v)
    rec = _index(p).records.get((v.eps, v.dels))
    if rec is None or v.dc not in rec.s:
        raise NotARootError(f"{v} is not a root of {p.describe()}")
    if v.is_zero:
        raise NotARootError("the zero vector is not classified; it lies in every part")
    return _read(rec, v)


def classify_window(p: AlgebraParams, mmax: int) -> list[tuple[RootVector, RootInfo | None]]:
    """The roots of ``enumerate_window(p, mmax)``, in its order, each with what
    ``classify`` returns for it (None for the zero root), read off the same
    dot record of the root index; no class is decided here."""
    window = enumerate_window(p, mmax)
    recs = _index(p).records
    return [(v, None if v.is_zero else _read(recs[v.eps, v.dels], v)) for v in window]


def enumerate_window(p: AlgebraParams, mmax: int) -> list[RootVector]:
    """Exactly the roots with |dc| <= mmax, sorted by (dc, eps, del): the root
    table is in canonical order, so one sweep per dc needs no sort."""
    if mmax < 0:
        raise ValueError("mmax must be >= 0")
    table = root_table(p).items()
    return [dot.with_dc(m) for m in range(-mmax, mmax + 1) for dot, prog in table if m in prog]


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
    for a, b, c in pair_sums(codes.ns, codes.by_code):
        wit = table[a].sum_witness(table[b], table[c])
        if wit is None:
            continue
        m, n = wit
        v.record(c.is_zero or shape_of(c) is not Shape.MIXED,
                 "ns+ns stays real/imaginary",
                 lambda: f"{a.with_dc(m)} + {b.with_dc(n)} = {c.with_dc(m + n)}")
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
               for d in even_table(p, i) if not d.is_zero}
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
    return v


def doubling_pairs(p: AlgebraParams) -> tuple[tuple[RootVector, RootVector], ...]:
    """Pairs (dot, 2*dot) of real dots where the dot's class contains an odd root
    and the double is again a dot root; these drive the doubling rules."""
    return _index(p).doubling
