"""decompose-tail: generator sets and decompositions of the positive slice.

Why: it loads the generator search of parabolic and little else.  Seeded
functionals for the four families at (k, l) = (2, 2), then the 50 functionals
the generator suite draws for d-2 at (3, 3) at the library's default seed.
That corpus does not depend on --seed on purpose: its decomposition times
run from 1 ms to 10 s, so a corpus redrawn per seed would measure the seed,
not the program.  It keeps the 10 s op, the heavy tail a window-free
decomposition removes.  One op is one generator_set or one
decompose_over_generators call.
"""

from __future__ import annotations

from random import Random

import oracles as O
from harness import Op, make_params, param_specs, warm_tables

NAME = "decompose-tail"
MMAX = 8
SEEDED = 5
CORPUS = 50


def prepare(mf, seed, workdir):
    fam = mf.families
    seeded = [fam.AlgebraParams(f, 2, 2) for f in fam.AffineFamily]
    corpus = [fam.AlgebraParams(fam.AffineFamily.D_2, 3, 3)]
    return {"params": param_specs(seeded + corpus), "seeded": len(seeded)}


def warm(m, rec, data):
    params = make_params(m, data["params"])
    warm_tables(m, rec, params)
    return params


def _check_gens(gens) -> str | None:
    coeffs = O.functional_coeffs(gens.zeta)
    positive = {O.flat(v) for v in gens.positive}
    want = {O.flat(v) for v in gens.shifted_real if O.evaluate(coeffs, O.flat(v)) > 0}
    if positive != want:
        return "positive slice differs from the functional's positive shifted roots"
    gen_flats = [O.flat(g) for g in gens.generators]
    for g in gen_flats:
        if g not in positive:
            return f"generator {g} is not positive"
        if any(O.sub(g, a) in positive for a in positive):
            return f"generator {g} decomposes in the positive slice"
    return None


def _decompose_op(m, rec, gens, target):
    def run():
        return rec.call("parabolic.decompose", m.parabolic.decompose_over_generators, target, gens)

    def check(coeffs):
        gens_set = {O.flat(g) for g in gens.generators}
        total = (0,) * len(O.flat(target))
        for g, c in coeffs.items():
            if type(c) is not int or c < 0 or O.flat(g) not in gens_set:
                return f"bad coefficient {c} on {g}"
            total = O.add(total, tuple(c * x for x in O.flat(g)))
        return None if total == O.flat(target) else f"coefficients do not sum to {target}"

    return Op("decompose", run, check)


def ops(m, rec, seed, data, params):
    S, P = m.sampling, m.parabolic
    corpus_rng = Random(S.DEFAULT_SEED)
    for idx, p in enumerate(params):
        if idx < data["seeded"]:
            rng, n = Random(f"{seed}/{idx}"), SEEDED
        else:
            rng, n = corpus_rng, CORPUS
        for _ in range(n):
            zeta = S.random_functional(p, rng)
            st = {}

            def run(p=p, zeta=zeta, st=st):
                st["gens"] = rec.call("parabolic.generator_set", P.generator_set, p, zeta, MMAX)
                return st["gens"]

            yield Op("generator_set", run, _check_gens)
            gens = st.get("gens")
            for target in gens.positive if gens else ():
                yield _decompose_op(m, rec, gens, target)
