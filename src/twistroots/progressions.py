"""Finite unions of arithmetic progressions in Z, the delta-coefficient sets.

A ProgressionSet denotes  union_i (modulus*Z + residue_i)  and is kept in the
canonical form with the minimal modulus, so structural equality is semantic
equality.  The empty set is (modulus=1, residues=()).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class ProgressionSet:
    modulus: int
    residues: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        res = sorted({x % self.modulus for x in self.residues})
        if not res:
            object.__setattr__(self, "modulus", 1)
            object.__setattr__(self, "residues", ())
            return
        # Minimal modulus: the smallest divisor d whose shift fixes the residues.
        m = self.modulus
        resset = set(res)
        for d in _divisors(m):
            if all((x + d) % m in resset for x in res):
                object.__setattr__(self, "modulus", d)
                object.__setattr__(self, "residues", tuple(sorted({x % d for x in res})))
                return

    # constructors -------------------------------------------------------

    @staticmethod
    def empty() -> ProgressionSet:
        return ProgressionSet(1, ())

    @staticmethod
    def integers() -> ProgressionSet:
        return ProgressionSet(1, (0,))

    @staticmethod
    def single(modulus: int, residue: int = 0) -> ProgressionSet:
        """The single progression modulus*Z + residue."""
        return ProgressionSet(modulus, (residue,))

    # queries ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.residues

    def __contains__(self, n: int) -> bool:
        return n % self.modulus in self.residues

    def as_single(self) -> tuple[int, int]:
        """Return (r, k) when the set is exactly rZ + k; error otherwise."""
        if len(self.residues) != 1:
            raise ValueError(f"not a single progression: {self}")
        return self.modulus, self.residues[0]

    def window(self, mmax: int) -> list[int]:
        """All members n with |n| <= mmax, ascending."""
        return [n for n in range(-mmax, mmax + 1) if n in self]

    def _lift(self, m: int) -> frozenset[int]:
        if m % self.modulus != 0:
            raise ValueError("lift target must be a multiple of the modulus")
        return frozenset(
            r + self.modulus * t for r in self.residues for t in range(m // self.modulus)
        )

    def residues_mod(self, m: int) -> tuple[int, ...]:
        """Residue classes of the set re-expressed modulo m (modulus must divide m)."""
        return tuple(sorted(self._lift(m)))

    def issubset(self, other: ProgressionSet) -> bool:
        if self.is_empty:
            return True
        m = lcm(self.modulus, other.modulus)
        return self._lift(m) <= other._lift(m)

    def sum_witness(self, other: ProgressionSet, target: ProgressionSet) -> tuple[int, int] | None:
        """The lexicographically smallest nonnegative (m, n) with m in self, n in
        other and m + n in target, or None.  Membership is periodic with the lcm
        of the moduli, so one period of each coordinate holds the smallest one."""
        period = lcm(self.modulus, other.modulus, target.modulus)
        for m in sorted(self._lift(period)):
            for n in sorted(other._lift(period)):
                if m + n in target:
                    return m, n
        return None

    # arithmetic ---------------------------------------------------------

    def union(self, other: ProgressionSet) -> ProgressionSet:
        m = lcm(self.modulus, other.modulus)
        return ProgressionSet(m, tuple(self._lift(m) | other._lift(m)))

    def intersect(self, other: ProgressionSet) -> ProgressionSet:
        m = lcm(self.modulus, other.modulus)
        return ProgressionSet(m, tuple(self._lift(m) & other._lift(m)))

    def difference(self, other: ProgressionSet) -> ProgressionSet:
        m = lcm(self.modulus, other.modulus)
        return ProgressionSet(m, tuple(self._lift(m) - other._lift(m)))

    def negate(self) -> ProgressionSet:
        return ProgressionSet(self.modulus, tuple(-r for r in self.residues))

    def shift(self, n: int) -> ProgressionSet:
        return ProgressionSet(self.modulus, tuple(r + n for r in self.residues))

    def add(self, other: ProgressionSet) -> ProgressionSet:
        """Elementwise sumset; progressions collapse to gcd of the moduli."""
        if self.is_empty or other.is_empty:
            return ProgressionSet.empty()
        g = gcd(self.modulus, other.modulus)
        return ProgressionSet(
            g, tuple((a + b) % g for a in self.residues for b in other.residues)
        )

    # output -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        parts = []
        for r in self.residues:
            if self.modulus == 1:
                parts.append("Z")
            elif r == 0:
                parts.append(f"{self.modulus}Z")
            else:
                parts.append(f"{self.modulus}Z+{r}")
        return " u ".join(parts)

    def tex(self) -> str:
        if self.is_empty:
            return r"\emptyset"
        parts = []
        for r in self.residues:
            if self.modulus == 1:
                parts.append(r"\mathbb{Z}\delta")
            elif r == 0:
                parts.append(rf"{self.modulus}\mathbb{{Z}}\delta")
            else:
                parts.append(rf"({self.modulus}\mathbb{{Z}}+{r})\delta")
        return r" \cup ".join(parts)

    def to_json(self) -> dict:
        return {"mod": self.modulus, "res": list(self.residues)}

    @staticmethod
    def from_json(doc: dict) -> ProgressionSet:
        """Read ``to_json``'s encoding.  The modulus and the residues must be
        JSON integers: a float, a string or a boolean is refused, not converted."""
        mod, res = doc["mod"], doc["res"]
        if type(mod) is not int:
            raise TypeError(f"mod must be an integer, got {mod!r}")
        if not isinstance(res, list) or not all(type(r) is int for r in res):
            raise TypeError(f"res must be a list of integers, got {res!r}")
        return ProgressionSet(mod, tuple(res))
