"""cold-query: single CLI queries, each one in-process twistroots.cli.main call.

Why: it is the only workload that measures cli, texout and per-parameter
set-up.  Set-up is the import alone, so the first query on each parameter
choice meets cold table caches; a change that moves work into per-parameter
precomputation shows as a loss here and a win on structure-grid.

Per parameter choice of valid_params(4, 4): classify, roots (json and csv),
tables (json and tex), phi-pi, shadow-validate, shadow-derive-p and
parabolic-synth on seeded roots, functionals and configs, plus one seeded
repeat whose output must be byte-identical; then fixed malformed inputs.
All of them run in one seeded order.  Four malformed inputs crash the CLI
with a traceback today and count as failed ops kept on purpose.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random

import oracles as O
from harness import Op, param_specs

NAME = "cold-query"

CSV_HEADER = ["eps", "del", "dc", "class", "parity", "component"]


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _root_class(doc) -> str:
    if not any(doc["eps"]) and not any(doc["del"]) and doc["dc"] == 0:
        return "zero"
    return O.norm_class(doc["eps"], doc["del"])


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _queries(mf, p, idx, rng, workdir):
    """(span name, argv, expectation) for every query on one parameter choice."""
    base = ["--family", p.family.token, "--k", str(p.k), "--l", str(p.l)]
    roots = [v for v in mf.rootsys.enumerate_window(p, 4) if not v.is_zero]
    root = rng.choice(roots).to_json()
    zeta = mf.sampling.random_functional(p, rng).to_json()
    cfg, _ = mf.sampling.random_tight_config(p, rng)
    fpath = _write(workdir / f"functional-{idx}.json", zeta)
    cpath = _write(workdir / f"config-{idx}.json", cfg.to_json())
    return [
        ("classify", ["classify", *base, "--root", json.dumps(root)], ("classify", root)),
        ("roots", ["roots", *base], ("roots-json", None)),
        ("roots", ["roots", *base, "--format", "csv"], ("roots-csv", None)),
        ("tables", ["tables", *base], ("tables-json", p)),
        ("tables", ["tables", *base, "--format", "tex"], ("tables-tex", None)),
        ("phi-pi", ["phi-pi", *base, "--functional", fpath], ("phi-pi", zeta)),
        ("shadow-validate", ["shadow-validate", *base, "--config", cpath], ("valid", None)),
        ("shadow-derive-p", ["shadow-derive-p", *base, "--config", cpath], ("derive", None)),
        ("parabolic-synth", ["parabolic-synth", *base, "--config", cpath], ("synth", None)),
    ]


def _malformed(workdir):
    """(argv, known fault) pairs; every one must end in a one-line error.
    The known fault is the exception the input crashes the CLI with today."""
    base = ["--family", "a-even-2", "--k", "1", "--l", "1"]
    root = json.dumps({"eps": [0], "del": [2], "dc": 0})
    delta = _write(workdir / "delta-weighted.json", {"eps": ["1"], "del": ["1"], "delta": "1"})
    classes = _write(workdir / "classes-not-a-list.json", {"classes": 5})
    good = _write(workdir / "functional-ok.json", {"eps": ["1"], "del": ["2"], "delta": "0"})
    broken = workdir / "broken.json"
    broken.write_text("{", encoding="utf-8")
    return [
        (["roots", *base, "--mmax", "-1"], "ValueError"),
        (["decompose", *base, "--functional", delta, "--root", root], "ValueError"),
        (["shadow-validate", *base, "--config", classes], "TypeError"),
        (["roots", *base, "--out", str(workdir / "missing-dir" / "out.json")], "FileNotFoundError"),
        (["classify", *base, "--root", "{not json"], None),
        (["classify", "--family", "a-odd-2", "--k", "1", "--l", "1", "--root", root], None),
        (["shadow-validate", *base, "--config", str(workdir / "no-such-config.json")], None),
        (["phi-pi", *base, "--functional", str(broken)], None),
        (["decompose", *base, "--functional", good,
          "--root", json.dumps({"eps": [0], "del": [-2], "dc": 0})], None),
    ]


def prepare(mf, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    params = mf.families.valid_params(4, 4)
    rng = Random(seed)
    queries = []
    for idx, p in enumerate(params):
        mine = _queries(mf, p, idx, rng, workdir)
        queries += mine + [rng.choice(mine)]
    queries += [("malformed", argv, ("error", known)) for argv, known in _malformed(workdir)]
    rng.shuffle(queries)
    return {"params": param_specs(params), "queries": queries}


def warm(m, rec, data):
    return None


def _main(m, rec, name, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = rec.call(f"cli.{name}", m.cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
    if isinstance(rc, str):  # SystemExit("error: ...") prints the message, exits 1
        err.write(rc + "\n")
        rc = 1
    return rc or 0, out.getvalue(), err.getvalue()


def _check_doc(kind, extra, out):
    if kind == "roots-csv":
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != CSV_HEADER or len(rows) < 2:
            return "roots csv lacks its header or rows"
        for r in rows[1:]:
            doc = {"eps": [int(x) for x in r[0].split()], "del": [int(x) for x in r[1].split()],
                   "dc": int(r[2])}
            if r[3] != _root_class(doc):
                return f"roots csv classifies {doc} as {r[3]}"
        return None
    if kind == "tables-tex":
        ok = out.startswith("\\documentclass") and out.rstrip().endswith("\\end{document}")
        return None if ok else "tables tex is not a standalone document"
    doc = json.loads(out)
    if kind == "classify":
        if not doc["is_root"] or doc["class"] != _root_class(extra):
            return f"classify says {doc.get('class')} for {extra}"
    elif kind == "roots-json":
        if not doc["roots"] or doc["count"] != len(doc["roots"]):
            return "roots json count mismatch"
        for e in doc["roots"]:
            if e["class"] != _root_class(e["root"]):
                return f"roots json classifies {e['root']} as {e['class']}"
    elif kind == "tables-json":
        p = extra
        if (doc["family"], doc["k"], doc["l"]) != (p.family.token, p.k, p.l):
            return "tables json is for other parameters"
        if any(e["progression"]["mod"] not in (1, 2, 4) for e in doc["S"]):
            return "tables json has a modulus outside {1, 2, 4}"
    elif kind == "phi-pi":
        coeffs = _fractions(extra["eps"]) + _fractions(extra["del"]) + (Fraction(0),)
        flats = {key: {tuple(v["eps"]) + tuple(v["del"]) + (v["dc"],) for v in doc[key]}
                 for key in ("shifted_real", "positive", "generators")}
        if flats["positive"] != {v for v in flats["shifted_real"] if O.evaluate(coeffs, v) > 0}:
            return "phi-pi positive slice differs from the functional's"
        if not flats["generators"] <= flats["positive"]:
            return "phi-pi generators outside the positive slice"
    elif kind == "valid":
        if not doc["valid"] or doc["failures"]:
            return "seeded config reported invalid"
    elif kind == "derive":
        if not doc["valid"] or not doc["closure"]["ok"] or doc["findings"]:
            return "seeded config: derived set fails closure or has findings"
    elif kind == "synth":
        if doc["trivial"]:
            return "synthesized functional is trivial"
        for comp in doc["components"].values():
            if comp is None:
                continue
            z = comp["functional"]
            coeffs = _fractions(z["eps"]) + _fractions(z["del"])
            for d in comp["dots"]:
                if O.evaluate(coeffs, tuple(d["eps"]) + tuple(d["del"])) < 0:
                    return f"synthesized functional negative on trace dot {d}"
    return None


def ops(m, rec, seed, data, state):
    seen: dict[tuple[str, ...], str] = {}
    for name, argv, (kind, extra) in data["queries"]:
        def run(name=name, argv=argv):
            return _main(m, rec, name, argv)

        if kind == "error":
            def check(res):
                rc, out, err = res
                lines = err.strip().splitlines()
                if rc == 0 or out or len(lines) != 1 or not lines[0].startswith("error:"):
                    return f"malformed input not refused with one error line (exit {rc})"
                return None

            yield Op("malformed", run, check,
                     known_fault=f"raised {extra}" if extra else None)
            continue

        def check(res, kind=kind, extra=extra, key=tuple(argv)):
            rc, out, err = res
            if rc != 0:
                return f"{key[0]} exited {rc}: {err.strip()[:200]}"
            if seen.setdefault(key, out) != out:
                return f"{' '.join(key)}: output differs from the same query earlier"
            return _check_doc(kind, extra, out)

        yield Op(name, run, check)
