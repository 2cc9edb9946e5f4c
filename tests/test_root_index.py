"""The per-params root index behind every ``rootsys`` table, code map,
invariant and classification record, against uncached references built
straight from the clause rows; the one pass that decides every class; and
the fixed list of the package's per-params caches."""

import importlib
import pkgutil
from collections import Counter

import twistroots
from twistroots import rootsys as rs
from twistroots import verify
from twistroots.families import AffineFamily, AlgebraParams, valid_params
from twistroots.lattice import RootVector
from twistroots.progressions import ProgressionSet
from twistroots.tables import EVEN_CLAUSES, REAL_SHAPES, ROOT_CLAUSES, Shape, build_mapping, shape_of

PARAMS = list(valid_params(3, 3))


def in_order(mapping):
    return [(d, mapping[d]) for d in sorted(mapping, key=RootVector.key)]


def ref_tables(p):
    """The root table and both component tables, each a fresh ``build_mapping``."""
    evens = {i: {} if i == 2 and p.k == 0 else build_mapping(p, EVEN_CLAUSES[p.family][i])
             for i in (1, 2)}
    return build_mapping(p, ROOT_CLAUSES[p.family]), evens


def ref_even(evens, dot):
    out = ProgressionSet.empty()
    for table in evens.values():
        if dot in table:
            out = out.union(table[dot])
    return out


def test_every_read_equals_the_uncached_reference():
    empty_components = 0
    for p in PARAMS:
        table, evens = ref_tables(p)
        order = sorted(table, key=RootVector.key)
        nonzero = [d for d in order if not d.is_zero]
        assert list(rs.root_table(p).items()) == in_order(table), p
        assert rs.dot_roots(p) == frozenset(table), p
        for i in (1, 2):
            assert list(rs.even_table(p, i).items()) == in_order(evens[i]), (p, i)
            assert rs.dot_roots_0(p, i) == frozenset(evens[i]), (p, i)
            assert rs.component_empty(p, i) == (p.k == 0 and i == 2), (p, i)
            empty_components += rs.component_empty(p, i)
        real = [d for d in nonzero if shape_of(d) in REAL_SHAPES]
        assert list(rs.real_dot_roots(p)) == real, p
        assert list(rs.ns_dot_roots(p)) == [d for d in nonzero if shape_of(d) is Shape.MIXED], p

        codes = rs.dot_codes(p)
        assert list(codes.by_code.values()) == order, p
        assert dict(codes.code) == {d: c for c, d in codes.by_code.items()}, p
        assert list(codes.real.values()) == real, p
        assert all(codes.code[d] == c for c, d in codes.real.items()), p

        global_r = max(table[d].modulus for d in nonzero)
        inv = rs.r_invariants(p)
        assert inv.global_modulus == global_r, p
        assert list(inv.per_dot.items()) == [
            (d, rs.DotProgressionData(table[d].modulus, table[d].residues[0],
                                      tuple(x for x in range(global_r) if x in table[d])))
            for d in nonzero], p

        odd = {d: table[d].difference(ref_even(evens, d)) for d in nonzero}
        for d in nonzero:
            assert rs.odd_member_progression(p, d) == odd[d], (p, d)
            for v in (d, d.scale(2), d.with_dc(1)):
                want = ProgressionSet.empty() if v.dc else ref_even(evens, v)
                assert rs.even_s_set(p, v) == want, (p, v)
        assert list(rs.doubling_pairs(p)) == [
            (d, d.scale(2)) for d in real if d.scale(2) in table and not odd[d].is_empty], p
    assert empty_components == sum(p.k == 0 for p in PARAMS) > 0


def test_build_mapping_runs_once_per_clause_set(monkeypatch):
    calls = []

    def counted(p, clauses):
        calls.append((p, clauses))
        return build_mapping(p, clauses)

    monkeypatch.setattr(rs, "build_mapping", counted)
    rs._index.cache_clear()
    small = [AlgebraParams(AffineFamily.A_EVEN_2, 1, 1), AlgebraParams(AffineFamily.D_2, 0, 1)]
    for p in small:
        assert all(rep.ok for rep in verify.run_all(p)), p
    assert Counter(p for p, _ in calls) == {small[0]: 3, small[1]: 2}
    assert len(set(calls)) == len(calls)


def test_the_per_params_caches_are_these():
    cached = set()
    for info in pkgutil.iter_modules(twistroots.__path__):
        module = importlib.import_module(f"twistroots.{info.name}")
        cached |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                   if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert cached == {"rootsys._index", "parabolic._shifted",
                      "sampling._closure_break_targets", "cli._parser"}


def test_one_index_pass_decides_every_class(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name, args[0]] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(rs, "shape_of", counted("shape_of", shape_of))
    monkeypatch.setattr(rs, "_root_class", counted("_root_class", rs._root_class))
    rs._index.cache_clear()  # the spies forward every call, so the rebuilt index is the same
    for p in valid_params(2, 2):
        calls.clear()
        table = rs.root_table(p)
        assert calls == Counter({**{("shape_of", d): 1 for d in table if not d.is_zero},
                                 **{("_root_class", d): 1 for d in table}}), p
        calls.clear()
        for v, info in rs.classify_window(p, 8):
            if not v.is_zero:
                assert rs.classify(p, v) is info, (p, v)
            rs.even_s_set(p, v)
        assert not calls, p
