"""Exact rational linear-inequality feasibility by Fourier-Motzkin elimination.

The test oracle for functional synthesis: ``parabolic.synthesize_functional``
takes the nilradical sum in closed form, and the tests check it against the
weak system solved here.  No library module imports this one.

A system is a list of weak rows (a, c) meaning a.x >= c with Fraction entries.
Dimensions here never exceed a handful of variables, so the exponential blowup
of elimination is irrelevant and exactness is what matters.  Strict constraints
must be pre-encoded by the caller (homogeneous systems admit the ">= 1" form).

The returned witness is deterministic: variables are back-substituted in
reverse elimination order, picking 0 when feasible and the nearest finite
bound otherwise.
"""

from __future__ import annotations

from fractions import Fraction

Row = tuple[tuple[Fraction, ...], Fraction]


def _eliminate(rows: list[Row], j: int) -> tuple[list[Row], list[Row]]:
    """Eliminate variable j; returns (rows without j, the stage rows kept for
    back-substitution, normalized to coefficient +-1 on j)."""
    lowers = []   # x_j >= rhs - sum(other terms)
    uppers = []   # x_j <= ...
    rest = []
    stage = []
    for a, c in rows:
        coeff = a[j]
        if coeff == 0:
            rest.append((a, c))
            continue
        scaled = (tuple(x / abs(coeff) for x in a), c / abs(coeff))
        stage.append(scaled)
        if coeff > 0:
            lowers.append(scaled)
        else:
            uppers.append(scaled)
    for la, lc in lowers:
        for ua, uc in uppers:
            # (x_j >= lc - rest_l) and (-x_j >= uc - rest_u) combine additively.
            a = tuple(x + y for x, y in zip(la, ua))
            c = lc + uc
            a = a[:j] + (Fraction(0),) + a[j + 1 :]
            rest.append((a, c))
    return rest, stage


def feasible_point(rows: list[Row], nvars: int) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every row, or None when the system is infeasible."""
    rows = [(tuple(Fraction(x) for x in a), Fraction(c)) for a, c in rows]
    stages: list[list[Row]] = []
    current = rows
    for j in range(nvars):
        current, stage = _eliminate(current, j)
        stages.append(stage)
    for a, c in current:
        if c > 0:  # all-zero coefficient row demanding a positive constant
            return None

    values: list[Fraction] = [Fraction(0)] * nvars
    for j in reversed(range(nvars)):
        lo = None
        hi = None
        for a, c in stages[j]:
            rest = sum(a[t] * values[t] for t in range(nvars) if t != j)
            bound = c - rest
            if a[j] > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = -bound if hi is None else min(hi, -bound)
        if lo is not None and hi is not None and lo > hi:  # pragma: no cover
            return None
        if (lo is None or lo <= 0) and (hi is None or hi >= 0):
            values[j] = Fraction(0)
        elif lo is not None and lo > 0:
            values[j] = lo
        else:
            values[j] = hi  # hi < 0 here
    return tuple(values)
