"""Independent computations the workloads check the program's outputs against.

Everything here works on plain integer tuples, sets and ``Fraction``s.  It
reads coordinates and progression data off the program's values but calls
none of its functions, so a fault in a layer cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction

# Every delta-coefficient set is a progression whose modulus divides 4.
RESIDUE_MODULUS = 4


def flat(v) -> tuple[int, ...]:
    """A root vector as (eps..., del..., dc)."""
    return tuple(v.eps) + tuple(v.dels) + (v.dc,)


def add(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(u, v))


def norm_class(eps, dels) -> str:
    """Real, imaginary or nonsingular, from the invariant form computed on the
    coordinates: (eps_i, eps_i) = 1, (del_j, del_j) = -1, delta isotropic."""
    norm = sum(e * e for e in eps) - sum(d * d for d in dels)
    if norm:
        return "real"
    return "nonsingular" if any(eps) or any(dels) else "imaginary"


def is_mixed(eps, dels) -> bool:
    """The nonsingular dot shape: one eps and one del coordinate, each +-1."""
    e = [c for c in eps if c]
    d = [c for c in dels if c]
    return len(e) == 1 and len(d) == 1 and abs(e[0]) == 1 and abs(d[0]) == 1


def residues(prog) -> frozenset[int]:
    """A progression set as its residues modulo 4."""
    return frozenset(
        (r + prog.modulus * t) % RESIDUE_MODULUS
        for r in prog.residues
        for t in range(RESIDUE_MODULUS // prog.modulus)
    )


def window_roots(table, mmax: int) -> list[tuple[int, ...]]:
    """The roots with |dc| <= mmax, from the dot -> progression table, sorted
    by (dc, eps, del) as the program sorts them."""
    out = []
    for dot, prog in table.items():
        res = residues(prog)
        base = flat(dot)[:-1]
        out.extend(base + (m,) for m in range(-mmax, mmax + 1) if m % RESIDUE_MODULUS in res)
    k = len(next(iter(table)).eps)
    return sorted(out, key=lambda t: (t[-1], t[:k], t[k:-1]))


def ns_sum_violations(table) -> list[str]:
    """Class-level form of the nonsingular-sum lemma: for nonsingular dots a, b
    whose sum c is a nonsingular dot, no coefficient of S_a + S_b lies in S_c.
    Membership is constant on residues, so this is a computation mod 4."""
    k = len(next(iter(table)).eps)
    sets = {flat(d)[:-1]: residues(p) for d, p in table.items()}
    ns = [d for d in sets if is_mixed(d[:k], d[k:])]
    bad = []
    for a in ns:
        for b in ns:
            c = add(a, b)
            if c not in sets or not is_mixed(c[:k], c[k:]):
                continue
            sums = {(x + y) % RESIDUE_MODULUS for x in sets[a] for y in sets[b]}
            if sums & sets[c]:
                bad.append(f"{a} + {b} = {c}")
    return bad


def evaluate(coeffs: tuple[Fraction, ...], coords: tuple[int, ...]) -> Fraction:
    return sum((Fraction(c) * x for c, x in zip(coeffs, coords)), Fraction(0))


def functional_coeffs(zeta) -> tuple[Fraction, ...]:
    """(eps..., del..., delta) coefficients of a functional value."""
    return tuple(zeta.eps) + tuple(zeta.dels) + (zeta.delta,)


def cover_closure(members: set, ambient: set) -> str | None:
    """A subset of a finite dot root system is parabolic: every element or its
    negative belongs, and sums that stay in the system stay in the subset."""
    for d in ambient:
        if d not in members and tuple(-c for c in d) not in members:
            return f"cover fails at {d}"
    for a in members:
        for b in members:
            c = add(a, b)
            if c in ambient and c not in members:
                return f"closure fails: {a} + {b} = {c}"
    return None
