"""Exact integer vectors in the weight lattice span{eps_1..eps_k, del_1..del_l, delta}.

Every value is an immutable tuple of arbitrary-precision integers; there is no
floating point anywhere in the core.  The invariant bilinear form is normalized
once, repo-wide:

    (eps_i, eps_i) = +1,   (del_j, del_j) = -1,   all cross terms 0,
    delta isotropic and orthogonal to everything.

Only vanishing / non-vanishing and length ratios matter downstream, which this
convention reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass


class AmbientMismatchError(ValueError):
    """Raised when two vectors live in different (k, l) ambients."""


@dataclass(frozen=True, slots=True)
class RootVector:
    """Integer coordinate vector over (eps_1..eps_k, del_1..del_l, delta).

    ``dc`` is the coefficient of the null direction delta.  Equality is
    coordinate-wise; the zero vector is a legal value.
    """

    eps: tuple[int, ...]
    dels: tuple[int, ...]
    dc: int = 0

    @property
    def ambient(self) -> tuple[int, int]:
        return (len(self.eps), len(self.dels))

    @property
    def is_zero(self) -> bool:
        return self.dc == 0 and not any(self.eps) and not any(self.dels)

    def _check_ambient(self, other: RootVector) -> None:
        if len(self.eps) != len(other.eps) or len(self.dels) != len(other.dels):
            raise AmbientMismatchError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    def __add__(self, other: RootVector) -> RootVector:
        self._check_ambient(other)
        return RootVector(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            tuple(a + b for a, b in zip(self.dels, other.dels)),
            self.dc + other.dc,
        )

    def __sub__(self, other: RootVector) -> RootVector:
        self._check_ambient(other)
        return RootVector(
            tuple(a - b for a, b in zip(self.eps, other.eps)),
            tuple(a - b for a, b in zip(self.dels, other.dels)),
            self.dc - other.dc,
        )

    def __neg__(self) -> RootVector:
        return self.scale(-1)

    def scale(self, n: int) -> RootVector:
        return RootVector(
            tuple(n * a for a in self.eps),
            tuple(n * a for a in self.dels),
            n * self.dc,
        )

    def dot_part(self) -> RootVector:
        """The delta-free part: a copy with dc set to 0."""
        return RootVector(self.eps, self.dels, 0)

    def with_dc(self, dc: int) -> RootVector:
        return RootVector(self.eps, self.dels, dc)

    def key(self) -> tuple:
        """Lexicographic sort key (dc, eps, dels); fixes all enumeration orders."""
        return (self.dc, self.eps, self.dels)

    def __lt__(self, other: RootVector) -> bool:
        return self.key() < other.key()

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.eps):
            if c:
                terms.append(f"{c:+d}e{i + 1}")
        for j, c in enumerate(self.dels):
            if c:
                terms.append(f"{c:+d}d{j + 1}")
        if self.dc:
            terms.append(f"{self.dc:+d}delta")
        return "<" + ("".join(terms) if terms else "0") + ">"

    def to_json(self) -> dict:
        return {"eps": list(self.eps), "del": list(self.dels), "dc": self.dc}

    @staticmethod
    def from_json(doc: dict) -> RootVector:
        """Read ``to_json``'s encoding.  Coordinates must be JSON integers:
        a float, a string or a boolean is refused, not converted."""
        eps, dels, dc = doc["eps"], doc["del"], doc["dc"]
        for name, coords in (("eps", eps), ("del", dels)):
            if not isinstance(coords, list) or not all(type(c) is int for c in coords):
                raise TypeError(f"{name} must be a list of integers, got {coords!r}")
        if type(dc) is not int:
            raise TypeError(f"dc must be an integer, got {dc!r}")
        return RootVector(tuple(eps), tuple(dels), dc)


def zero_vec(k: int, l: int) -> RootVector:
    return RootVector((0,) * k, (0,) * l, 0)


def eps_unit(k: int, l: int, i: int, coeff: int = 1) -> RootVector:
    """coeff * eps_i with 1-based i; bounds-checked against the ambient."""
    if not 1 <= i <= k:
        raise IndexError(f"eps index {i} outside 1..{k}")
    return RootVector(tuple(coeff if n == i - 1 else 0 for n in range(k)), (0,) * l, 0)


def del_unit(k: int, l: int, j: int, coeff: int = 1) -> RootVector:
    """coeff * del_j with 1-based j; bounds-checked against the ambient."""
    if not 1 <= j <= l:
        raise IndexError(f"del index {j} outside 1..{l}")
    return RootVector((0,) * k, tuple(coeff if n == j - 1 else 0 for n in range(l)), 0)


def delta_vec(k: int, l: int, m: int = 1) -> RootVector:
    return RootVector((0,) * k, (0,) * l, m)


def form(u: RootVector, v: RootVector) -> int:
    """The invariant bilinear form; the dc coordinates contribute zero."""
    u._check_ambient(v)
    return sum(a * b for a, b in zip(u.eps, v.eps)) - sum(
        a * b for a, b in zip(u.dels, v.dels)
    )


def norm(v: RootVector) -> int:
    """form(v, v); sign reflects which side of the lattice carries the weight."""
    return form(v, v)
