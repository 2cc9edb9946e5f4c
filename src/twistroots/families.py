"""The four twisted affine families and their (k, l) parameter envelopes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class InvalidParamsError(ValueError):
    """Raised for (family, k, l) combinations outside the family's envelope."""


class AffineFamily(Enum):
    """Tag set for the four families; values are the CLI tokens."""

    A_EVEN_2 = "a-even-2"  # A(2k, 2l-1)^(2)
    A_ODD_2 = "a-odd-2"    # A(2k-1, 2l-1)^(2), (k, l) != (1, 1)
    A_4 = "a-4"            # A(2k, 2l)^(4)
    D_2 = "d-2"            # D(k+1, l)^(2)

    @property
    def token(self) -> str:
        return self.value

    def tex_name(self) -> str:
        return {
            AffineFamily.A_EVEN_2: r"A(2k,2\ell-1)^{(2)}",
            AffineFamily.A_ODD_2: r"A(2k-1,2\ell-1)^{(2)}",
            AffineFamily.A_4: r"A(2k,2\ell)^{(4)}",
            AffineFamily.D_2: r"D(k+1,\ell)^{(2)}",
        }[self]

    @property
    def constraints(self) -> str:
        """The (k, l) envelope that ``AlgebraParams`` enforces, as listed by
        ``twistroots --list-families``."""
        if self is AffineFamily.A_ODD_2:
            return "k >= 1, l >= 1, (k, l) != (1, 1)"
        return "k >= 0, l >= 1"

    @staticmethod
    def from_token(token: str) -> AffineFamily:
        for fam in AffineFamily:
            if fam.value == token:
                return fam
        raise InvalidParamsError(f"unknown family token {token!r}")


@dataclass(frozen=True)
class AlgebraParams:
    """A family together with its rank parameters.

    Constraints: l >= 1 and k >= 0 always; A_ODD_2 additionally requires k >= 1
    and (k, l) != (1, 1).  k = 0 is a legal degeneration for the other families
    (no eps coordinates, second even component empty).
    """

    family: AffineFamily
    k: int
    l: int

    def __post_init__(self) -> None:
        if self.l < 1:
            raise InvalidParamsError(f"l must be >= 1, got {self.l}")
        if self.k < 0:
            raise InvalidParamsError(f"k must be >= 0, got {self.k}")
        if self.family is AffineFamily.A_ODD_2:
            if self.k < 1:
                raise InvalidParamsError("a-odd-2 requires k >= 1")
            if (self.k, self.l) == (1, 1):
                raise InvalidParamsError("a-odd-2 excludes (k, l) = (1, 1)")

    @property
    def ambient(self) -> tuple[int, int]:
        return (self.k, self.l)

    def describe(self) -> str:
        return f"{self.family.token}(k={self.k}, l={self.l})"


def valid_params(kmax: int, lmax: int) -> list[AlgebraParams]:
    """Every legal AlgebraParams with k <= kmax and l <= lmax, in a fixed order."""
    out = []
    for fam in AffineFamily:
        for k in range(0, kmax + 1):
            for l in range(1, lmax + 1):
                try:
                    out.append(AlgebraParams(fam, k, l))
                except InvalidParamsError:
                    continue
    return out
