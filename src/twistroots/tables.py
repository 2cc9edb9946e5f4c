"""Closed-form root data for the four families, encoded as data rather than code.

Each family's root set, even-part components and delta-free root set are given
by clause lists: a clause pairs a progression token with a list of dot-vector
patterns.  All membership questions go through one evaluator (rootsys builds
dot -> progression mappings from these rows), so a table change is a data diff.

Progression tokens read like the printed closed forms: "Z", "2Z", "2Z+1",
"4Z", "4Z+2".  "KRON_L" / "KRON_K" are the rank-one special cases of the
even-part imaginary rows: 2Z when l == 1 (resp. k == 1), otherwise Z.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, combinations_with_replacement, product

from .families import AffineFamily, AlgebraParams
from .lattice import RootVector, zero_vec
from .progressions import ProgressionSet


class Pattern(Enum):
    """Dot-vector pattern families; *_FULL variants allow coincident indices."""

    IMAGINARY = "imaginary"
    PM_EPS = "pm_eps"                    # +-eps_i
    PM_2EPS = "pm_2eps"                  # +-2eps_i
    EPS_PM_EPS = "eps_pm_eps"            # +-eps_i +- eps_r, i != r
    EPS_PM_EPS_FULL = "eps_pm_eps_full"  # as above but i = r allowed (gives +-2eps_i)
    PM_DEL = "pm_del"
    PM_2DEL = "pm_2del"
    DEL_PM_DEL = "del_pm_del"
    DEL_PM_DEL_FULL = "del_pm_del_full"
    EPS_PM_DEL = "eps_pm_del"            # +-eps_i +- del_j, all four signs


class Shape(Enum):
    """Shape of a single nonzero dot vector; keys the per-shape closed forms."""

    EPS_SINGLE = "eps_single"    # +-eps_i
    EPS_DOUBLE = "eps_double"    # +-2eps_i
    EPS_PAIR = "eps_pair"        # +-eps_i +- eps_r, i != r
    DEL_SINGLE = "del_single"
    DEL_DOUBLE = "del_double"
    DEL_PAIR = "del_pair"
    MIXED = "mixed"              # +-eps_i +- del_j


def shape_of(dot: RootVector) -> Shape | None:
    """Classify a nonzero delta-free vector; None if not a dot-root shape."""
    esup = [(i, c) for i, c in enumerate(dot.eps) if c]
    dsup = [(j, c) for j, c in enumerate(dot.dels) if c]
    if dot.dc != 0:
        return None
    evals = [abs(c) for _, c in esup]
    dvals = [abs(c) for _, c in dsup]
    if len(esup) == 1 and not dsup:
        return {1: Shape.EPS_SINGLE, 2: Shape.EPS_DOUBLE}.get(evals[0])
    if len(dsup) == 1 and not esup:
        return {1: Shape.DEL_SINGLE, 2: Shape.DEL_DOUBLE}.get(dvals[0])
    if len(esup) == 2 and not dsup and evals == [1, 1]:
        return Shape.EPS_PAIR
    if len(dsup) == 2 and not esup and dvals == [1, 1]:
        return Shape.DEL_PAIR
    if len(esup) == 1 and len(dsup) == 1 and evals == [1] and dvals == [1]:
        return Shape.MIXED
    return None


REAL_SHAPES = frozenset(
    {
        Shape.EPS_SINGLE,
        Shape.EPS_DOUBLE,
        Shape.EPS_PAIR,
        Shape.DEL_SINGLE,
        Shape.DEL_DOUBLE,
        Shape.DEL_PAIR,
    }
)


# The kind of each pattern that lies on one side: the eps or the del coordinates.
_EPS_SIDE = {Pattern.PM_EPS: "single", Pattern.PM_2EPS: "double",
             Pattern.EPS_PM_EPS: "pair", Pattern.EPS_PM_EPS_FULL: "pair_full"}
_DEL_SIDE = {Pattern.PM_DEL: "single", Pattern.PM_2DEL: "double",
             Pattern.DEL_PM_DEL: "pair", Pattern.DEL_PM_DEL_FULL: "pair_full"}


def _side(kind: str, n: int) -> list[tuple[int, ...]]:
    """The nonzero coordinate tuples of one side of length n: a sum of +-1 at
    each index of an index tuple, over all signs.  A "double" index tuple
    (i, i) gives +-2 at i; "pair_full" allows both pair indices equal."""
    if kind == "single":
        index_tuples = [(i,) for i in range(n)]
    elif kind == "double":
        index_tuples = [(i, i) for i in range(n)]
    elif kind == "pair":
        index_tuples = combinations(range(n), 2)
    else:
        index_tuples = combinations_with_replacement(range(n), 2)
    out = []
    for idx in index_tuples:
        for signs in product((1, -1), repeat=len(idx)):
            c = [0] * n
            for i, s in zip(idx, signs):
                c[i] += s
            if any(c):
                out.append(tuple(c))
    return out


def expand_pattern(pat: Pattern, k: int, l: int) -> list[RootVector]:
    """All dot vectors matching the pattern in the (k, l) ambient (zero excluded,
    except for IMAGINARY whose single dot is the zero vector)."""
    if pat is Pattern.IMAGINARY:
        return [zero_vec(k, l)]
    if pat in _EPS_SIDE:
        out = [RootVector(e, (0,) * l, 0) for e in _side(_EPS_SIDE[pat], k)]
    elif pat in _DEL_SIDE:
        out = [RootVector((0,) * k, d, 0) for d in _side(_DEL_SIDE[pat], l)]
    else:  # EPS_PM_DEL: one single on each side
        out = [RootVector(e, d, 0) for e in _side("single", k) for d in _side("single", l)]
    return sorted(set(out), key=RootVector.key)


_FIXED_PROGRESSIONS = {
    "Z": ProgressionSet.single(1, 0),
    "2Z": ProgressionSet.single(2, 0),
    "2Z+1": ProgressionSet.single(2, 1),
    "4Z": ProgressionSet.single(4, 0),
    "4Z+2": ProgressionSet.single(4, 2),
}


def resolve_progression(token: str, p: AlgebraParams) -> ProgressionSet:
    fixed = _FIXED_PROGRESSIONS
    if token in fixed:
        return fixed[token]
    if token == "KRON_L":
        return fixed["2Z"] if p.l == 1 else fixed["Z"]
    if token == "KRON_K":
        return fixed["2Z"] if p.k == 1 else fixed["Z"]
    raise ValueError(f"unknown progression token {token!r}")


Clause = tuple[str, tuple[Pattern, ...]]

# Root set of each family: the whole-lattice closed forms.
ROOT_CLAUSES: dict[AffineFamily, tuple[Clause, ...]] = {
    AffineFamily.A_EVEN_2: (
        ("Z", (Pattern.IMAGINARY,)),
        ("Z", (Pattern.PM_EPS, Pattern.PM_DEL, Pattern.EPS_PM_EPS,
               Pattern.DEL_PM_DEL, Pattern.EPS_PM_DEL)),
        ("2Z+1", (Pattern.PM_2EPS,)),
        ("2Z", (Pattern.PM_2DEL,)),
    ),
    AffineFamily.A_ODD_2: (
        ("Z", (Pattern.IMAGINARY,)),
        ("Z", (Pattern.EPS_PM_EPS, Pattern.DEL_PM_DEL, Pattern.EPS_PM_DEL)),
        ("2Z+1", (Pattern.PM_2EPS,)),
        ("2Z", (Pattern.PM_2DEL,)),
    ),
    AffineFamily.A_4: (
        ("Z", (Pattern.IMAGINARY,)),
        ("Z", (Pattern.PM_EPS, Pattern.PM_DEL)),
        ("2Z", (Pattern.EPS_PM_EPS, Pattern.DEL_PM_DEL, Pattern.EPS_PM_DEL)),
        ("4Z+2", (Pattern.PM_2EPS,)),
        ("4Z", (Pattern.PM_2DEL,)),
    ),
    AffineFamily.D_2: (
        ("Z", (Pattern.IMAGINARY,)),
        ("Z", (Pattern.PM_EPS, Pattern.PM_DEL)),
        ("2Z", (Pattern.PM_2DEL, Pattern.EPS_PM_EPS,
                Pattern.DEL_PM_DEL, Pattern.EPS_PM_DEL)),
    ),
}

# Delta-free root sets (nonzero shapes; the zero dot is always present too).
DOT_PATTERNS: dict[AffineFamily, tuple[Pattern, ...]] = {
    AffineFamily.A_EVEN_2: (Pattern.PM_EPS, Pattern.PM_DEL, Pattern.EPS_PM_EPS_FULL,
                            Pattern.DEL_PM_DEL_FULL, Pattern.EPS_PM_DEL),
    AffineFamily.A_ODD_2: (Pattern.EPS_PM_EPS_FULL, Pattern.DEL_PM_DEL_FULL,
                           Pattern.EPS_PM_DEL),
    AffineFamily.A_4: (Pattern.PM_EPS, Pattern.PM_DEL, Pattern.EPS_PM_EPS_FULL,
                       Pattern.DEL_PM_DEL_FULL, Pattern.EPS_PM_DEL),
    AffineFamily.D_2: (Pattern.PM_EPS, Pattern.PM_DEL, Pattern.EPS_PM_EPS,
                       Pattern.DEL_PM_DEL_FULL, Pattern.EPS_PM_DEL),
}

# Per-shape closed forms for the delta-coefficient sets of the whole root set.
# None marks shapes that are not dot roots of the family.  The key order is
# the row order of the TeX table.
S_CLOSED: dict[Shape, dict[AffineFamily, str | None]] = {
    Shape.EPS_SINGLE: {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: None,
                       AffineFamily.A_4: "Z", AffineFamily.D_2: "Z"},
    Shape.EPS_PAIR: {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: "Z",
                     AffineFamily.A_4: "2Z", AffineFamily.D_2: "2Z"},
    Shape.EPS_DOUBLE: {AffineFamily.A_EVEN_2: "2Z+1", AffineFamily.A_ODD_2: "2Z+1",
                       AffineFamily.A_4: "4Z+2", AffineFamily.D_2: None},
    Shape.DEL_SINGLE: {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: None,
                       AffineFamily.A_4: "Z", AffineFamily.D_2: "Z"},
    Shape.DEL_PAIR: {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: "Z",
                     AffineFamily.A_4: "2Z", AffineFamily.D_2: "2Z"},
    Shape.DEL_DOUBLE: {AffineFamily.A_EVEN_2: "2Z", AffineFamily.A_ODD_2: "2Z",
                       AffineFamily.A_4: "4Z", AffineFamily.D_2: "2Z"},
    Shape.MIXED: {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: "Z",
                  AffineFamily.A_4: "2Z", AffineFamily.D_2: "2Z"},
}

# Even-part components.  Component 2 rows apply only when k != 0.
EVEN_CLAUSES: dict[AffineFamily, dict[int, tuple[Clause, ...]]] = {
    AffineFamily.A_EVEN_2: {
        1: (("KRON_L", (Pattern.IMAGINARY,)),
            ("Z", (Pattern.DEL_PM_DEL,)),
            ("2Z", (Pattern.PM_2DEL,))),
        2: (("Z", (Pattern.IMAGINARY,)),
            ("Z", (Pattern.PM_EPS, Pattern.EPS_PM_EPS)),
            ("2Z+1", (Pattern.PM_2EPS,))),
    },
    AffineFamily.A_ODD_2: {
        1: (("KRON_L", (Pattern.IMAGINARY,)),
            ("Z", (Pattern.DEL_PM_DEL,)),
            ("2Z", (Pattern.PM_2DEL,))),
        2: (("KRON_K", (Pattern.IMAGINARY,)),
            ("Z", (Pattern.EPS_PM_EPS,)),
            ("2Z+1", (Pattern.PM_2EPS,))),
    },
    AffineFamily.A_4: {
        1: (("2Z", (Pattern.IMAGINARY,)),
            ("2Z+1", (Pattern.PM_DEL,)),
            ("2Z", (Pattern.DEL_PM_DEL,)),
            ("4Z", (Pattern.PM_2DEL,))),
        2: (("2Z", (Pattern.IMAGINARY,)),
            ("2Z", (Pattern.PM_EPS,)),
            ("2Z", (Pattern.EPS_PM_EPS,)),
            ("4Z+2", (Pattern.PM_2EPS,))),
    },
    AffineFamily.D_2: {
        1: (("2Z", (Pattern.IMAGINARY,)),
            ("2Z", (Pattern.DEL_PM_DEL_FULL,))),
        2: (("Z", (Pattern.IMAGINARY,)),
            ("Z", (Pattern.PM_EPS,)),
            ("2Z", (Pattern.EPS_PM_EPS,))),
    },
}

# Delta-free root sets of the even components (nonzero shapes).
DOT_PATTERNS_EVEN: dict[AffineFamily, dict[int, tuple[Pattern, ...]]] = {
    AffineFamily.A_EVEN_2: {1: (Pattern.DEL_PM_DEL_FULL,),
                            2: (Pattern.PM_EPS, Pattern.EPS_PM_EPS_FULL)},
    AffineFamily.A_ODD_2: {1: (Pattern.DEL_PM_DEL_FULL,),
                           2: (Pattern.EPS_PM_EPS_FULL,)},
    AffineFamily.A_4: {1: (Pattern.PM_DEL, Pattern.DEL_PM_DEL_FULL),
                       2: (Pattern.PM_EPS, Pattern.EPS_PM_EPS_FULL)},
    AffineFamily.D_2: {1: (Pattern.DEL_PM_DEL_FULL,),
                       2: (Pattern.PM_EPS, Pattern.EPS_PM_EPS)},
}

# Per-shape closed forms for the even components, in TeX row order.
S_EVEN_CLOSED: dict[tuple[Shape, int], dict[AffineFamily, str | None]] = {
    (Shape.DEL_SINGLE, 1): {AffineFamily.A_EVEN_2: None, AffineFamily.A_ODD_2: None,
                            AffineFamily.A_4: "2Z+1", AffineFamily.D_2: None},
    (Shape.DEL_PAIR, 1): {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: "Z",
                          AffineFamily.A_4: "2Z", AffineFamily.D_2: "2Z"},
    (Shape.DEL_DOUBLE, 1): {AffineFamily.A_EVEN_2: "2Z", AffineFamily.A_ODD_2: "2Z",
                            AffineFamily.A_4: "4Z", AffineFamily.D_2: "2Z"},
    (Shape.EPS_SINGLE, 2): {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: None,
                            AffineFamily.A_4: "2Z", AffineFamily.D_2: "Z"},
    (Shape.EPS_PAIR, 2): {AffineFamily.A_EVEN_2: "Z", AffineFamily.A_ODD_2: "Z",
                          AffineFamily.A_4: "2Z", AffineFamily.D_2: "2Z"},
    (Shape.EPS_DOUBLE, 2): {AffineFamily.A_EVEN_2: "2Z+1", AffineFamily.A_ODD_2: "2Z+1",
                            AffineFamily.A_4: "4Z+2", AffineFamily.D_2: None},
}


def build_mapping(p: AlgebraParams, clauses: tuple[Clause, ...]) -> dict[RootVector, ProgressionSet]:
    """Expand clause rows into a dot -> progression mapping (union on collision)."""
    out: dict[RootVector, ProgressionSet] = {}
    for token, pats in clauses:
        prog = resolve_progression(token, p)
        for pat in pats:
            for dot in expand_pattern(pat, p.k, p.l):
                if dot in out:
                    out[dot] = out[dot].union(prog)
                else:
                    out[dot] = prog
    return out
