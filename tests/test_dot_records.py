"""The per-dot classification records behind classify, classify_window and
even_s_set, against uncached references that decide every call afresh."""

import re

import pytest

from twistroots import rootsys as rs
from twistroots import verify
from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.lattice import RootVector, norm
from twistroots.progressions import ProgressionSet
from twistroots.tables import EVEN_CLAUSES, Shape, shape_of

MMAX = 8


def ref_even_s_set(p, dot):
    """Delta coefficients landing dot anywhere in the even part (both components)."""
    out = ProgressionSet.empty()
    for i in (1, 2):
        prog = rs.even_table(p, i).get(dot)
        if prog is not None:
            out = out.union(prog)
    return out


def ref_classify(p, v):
    """classify with both class routes and both component lookups run per call."""
    if v.ambient != p.ambient:
        raise rs.AmbientMismatchError(
            f"vector ambient {v.ambient} does not match params {p.ambient}")
    dot = v.dot_part()
    prog = rs.root_table(p).get(dot)
    if prog is None or v.dc not in prog:
        raise rs.NotARootError(f"{v} is not a root of {p.describe()}")
    if v.is_zero:
        raise rs.NotARootError("the zero vector is not classified; it lies in every part")
    zero = dot.is_zero
    if zero:
        syntactic = rs.RootClass.IMAGINARY
    elif shape_of(dot) is Shape.MIXED:
        syntactic = rs.RootClass.NONSINGULAR
    else:
        syntactic = rs.RootClass.REAL
    if norm(dot) != 0:
        metric = rs.RootClass.REAL
    elif zero:
        metric = rs.RootClass.IMAGINARY
    else:
        metric = rs.RootClass.NONSINGULAR
    if syntactic is not metric:
        raise rs.ClassificationBugError(
            f"classification disagreement on {dot} + Z*delta: clause says "
            f"{syntactic}, form says {metric}")
    if metric is rs.RootClass.IMAGINARY:
        return rs.RootInfo(metric, None, rs.Component.IMAGINARY_ONLY)
    for i, comp in ((1, rs.Component.IN_R0_1), (2, rs.Component.IN_R0_2)):
        even = rs.even_table(p, i).get(dot)
        if even is not None and v.dc in even:
            if metric is rs.RootClass.NONSINGULAR:
                raise rs.ClassificationBugError(f"nonsingular root {v} matched the even part")
            return rs.RootInfo(metric, rs.Parity.EVEN, comp)
    return rs.RootInfo(metric, rs.Parity.ODD, rs.Component.ODD_PART)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def candidates(p):
    """Every dot at every dc of the window, roots or not, and each nonzero
    dot's double at dc 0 and 1, mostly no dot at all."""
    for dot in rs.root_table(p):
        yield from (dot.with_dc(m) for m in range(-MMAX, MMAX + 1))
        if not dot.is_zero:
            yield from (dot.scale(2).with_dc(m) for m in (0, 1))


def test_records_agree_with_the_uncached_references():
    for p in valid_params(3, 3):
        window = rs.classify_window(p, MMAX)
        assert [v for v, _ in window] == rs.enumerate_window(p, MMAX), p
        for v, info in window:
            assert info == (None if v.is_zero else ref_classify(p, v)), (p, v)
        for v in candidates(p):
            assert outcome(rs.classify, p, v) == outcome(ref_classify, p, v), (p, v)
            assert rs.even_s_set(p, v) == ref_even_s_set(p, v), (p, v)


def test_every_record_shares_the_module_infos():
    shared = [rs._IMAGINARY_INFO, *rs._ODD_INFO.values(), *rs._EVEN_INFO.values()]
    for p in valid_params(3, 3):
        records = rs._index(p).records
        assert len(records) == len(rs.root_table(p)), p
        for rec in records.values():
            infos = [rec.odd, *(info for _, info in rec.evens if info is not None)]
            assert all(any(info is s for s in shared) for info in infos), (p, rec)


def test_run_all_decides_each_class_once_per_dot(monkeypatch):
    p = AlgebraParams(AffineFamily.A_EVEN_2, 2, 2)
    calls = []
    root_class = rs._root_class

    def spy(dot, *args, **kwargs):
        calls.append(dot)
        return root_class(dot, *args, **kwargs)

    monkeypatch.setattr(rs, "_root_class", spy)
    rs._index.cache_clear()
    assert all(rep.ok for rep in verify.run_all(p))
    assert sorted(calls, key=RootVector.key) == sorted(rs.root_table(p), key=RootVector.key)


def test_a_nonsingular_root_in_the_even_part_raises(monkeypatch):
    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    eta = rs.ns_dot_roots(p)[0]
    s_eta = rs.root_table(p)[eta]
    build_mapping, clauses = rs.build_mapping, EVEN_CLAUSES[p.family][1]

    def planted(q, rows):  # component 1 wrongly holds eta at every coefficient
        table = build_mapping(q, rows)
        return {**table, eta: s_eta} if (q, rows) == (p, clauses) else table

    monkeypatch.setattr(rs, "build_mapping", planted)
    rs._index.cache_clear()
    try:
        message = re.escape(f"nonsingular root {eta.with_dc(-1)} matched the even part")
        with pytest.raises(rs.ClassificationBugError, match=message):
            rs.classify(p, eta.with_dc(-1))
        with pytest.raises(rs.ClassificationBugError, match="matched the even part"):
            rs.classify_window(p, 1)
    finally:
        rs._index.cache_clear()
