"""Command-line surface.

Subcommands map one-to-one onto library operations: table emission,
classification queries, exhaustive verification suites, shadow-config
validation and parabolic synthesis.  Output is deterministic for fixed flags
and seed (machine output on stdout or --out; human summaries on stderr).

Exit status:
  0  every check passed;
  1  a check failed, `classify` gave its negative answer (the vector is not a
     root), or an input was refused with one `error:` line on stderr;
  2  an argparse usage error, or no command.

Refused inputs take one path.  `_read` is the one reader of the three JSON
inputs (--root text, --functional and --config files): any read, decode,
parse or load failure becomes a ValueError that names the input.  One handler
in `main` turns a ValueError (every library input error), an OSError or an
InfeasibleSystemError into the `error:` line and exit 1.  Internal invariant
errors (ClassificationBugError, NoDecompositionError, AssertionError) are not
caught there and still raise.

CSV columns: `roots` emits eps,del,dc,class,parity,component with coordinate
lists space-separated; `tables` emits table,dot_eps,dot_del,mod,residues.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from functools import lru_cache, partial

from .families import AffineFamily, AlgebraParams
from .jsonout import json_text
from .lattice import RootVector
from .parabolic import (
    DotParabolic,
    Functional,
    InfeasibleSystemError,
    combine_functionals,
    decompose_over_generators,
    dot_parabolic_from_config,
    generator_set,
    is_parabolic,
    synthesize_functional,
)
from .rootsys import (
    RootInfo,
    classify,
    classify_window,
    component_empty,
    even_table,
    is_root,
    root_table,
)
from .sampling import DEFAULT_SEED
from .shadow import (
    ShadowConfig,
    check_mixed_components,
    check_parabolic,
    is_tight,
    validate,
)
from .tables import EVEN_CLAUSES, ROOT_CLAUSES, expand_pattern, resolve_progression
from .texout import roots_tex, tables_tex
from .verify import run_all


def _params(args) -> AlgebraParams:
    return AlgebraParams(AffineFamily.from_token(args.family), args.k, args.l)


def _output(args):
    """The stream for machine output: the --out file, opened on entry so that
    an unwritable path ends the command before any work, or stdout."""
    return open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)


def _emit(args, text: str) -> None:
    with _output(args) as out:
        out.write(text)


def _read(what: str, load, path: str | None = None, text: str | None = None):
    """``load`` applied to one JSON input: the --root ``text``, or the file at
    ``path``.  Any read, decode, parse or load failure is refused as one
    ValueError that names the input."""
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return load(json.loads(text))
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        reason = f"invalid JSON at line {exc.lineno}, column {exc.colno}"
    except (RecursionError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        reason = exc
    raise ValueError(f"{what}: {reason}")


def _parse_root(text: str) -> RootVector:
    return _read(f"bad root encoding {text!r}", RootVector.from_json, text=text)


def _load_functional(path: str) -> Functional:
    return _read(f"functional file {path}", Functional.from_json, path)


def _load_config(p: AlgebraParams, path: str) -> ShadowConfig:
    return _read(f"config file {path}", partial(ShadowConfig.from_json, p), path)


def _info_fields(info: RootInfo | None) -> tuple[str, str, str]:
    """class, parity and component of a classification; None is the zero root."""
    if info is None:
        return ("zero", "unspecified", "all")
    parity = info.parity.value if info.parity is not None else "unspecified"
    return (info.root_class.value, parity, info.component.value)


def _spaced(values) -> str:
    """A CSV cell for a coordinate or residue list: the values space-separated."""
    return " ".join(map(str, values))


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- subcommand handlers -------------------------------------------------------


def _cmd_roots(args) -> int:
    p = _params(args)
    entries = [(v, *_info_fields(info)) for v, info in classify_window(p, args.mmax)]
    if args.format == "json":
        doc = {
            "family": p.family.token,
            "k": p.k,
            "l": p.l,
            "mmax": args.mmax,
            "count": len(entries),
            "roots": [
                {"root": v.to_json(), "class": cls, "parity": parity, "component": comp}
                for v, cls, parity, comp in entries
            ],
        }
        _emit(args, json_text(doc))
        return 0
    rows = [(_spaced(v.eps), _spaced(v.dels), str(v.dc), cls, parity, comp)
            for v, cls, parity, comp in entries]
    if args.format == "csv":
        _emit(args, _csv_text(["eps", "del", "dc", "class", "parity", "component"], rows))
    else:
        _emit(args, roots_tex(p, rows))
    return 0


def _cmd_classify(args) -> int:
    p = _params(args)
    v = _parse_root(args.root)
    if not is_root(p, v):
        _emit(args, json_text({"root": v.to_json(), "is_root": False}))
        return 1
    cls, parity, comp = _info_fields(None if v.is_zero else classify(p, v))
    _emit(args, json_text({
        "root": v.to_json(), "is_root": True,
        "class": cls, "parity": parity, "component": comp,
    }))
    return 0


def _dot_rows(dots) -> list[dict]:
    return [d.to_json() for d in sorted(dots, key=RootVector.key)]


def _progression_rows(table) -> list[dict]:
    """The nonzero dots of a table with their progressions, in canonical order."""
    return [{"dot": d.to_json(), "progression": table[d].to_json()}
            for d in table if not d.is_zero]


def _clauses_json(p: AlgebraParams, rows) -> list[dict]:
    return [{"dot": _dot_rows({d for pat in pats for d in expand_pattern(pat, p.k, p.l)}),
             "progression": resolve_progression(token, p).to_json()}
            for token, pats in rows]


def _cmd_tables(args) -> int:
    p = _params(args)
    if args.format == "tex":
        _emit(args, tables_tex(p))
        return 0
    if args.format == "csv":
        sections = [("R", root_table(p)), ("R0_1", even_table(p, 1)), ("R0_2", even_table(p, 2))]
        rows = [(name, _spaced(d.eps), _spaced(d.dels), table[d].modulus,
                 _spaced(table[d].residues))
                for name, table in sections for d in table]
        _emit(args, _csv_text(["table", "dot_eps", "dot_del", "mod", "residues"], rows))
        return 0
    doc = {
        "family": p.family.token,
        "k": p.k,
        "l": p.l,
        "clauses": _clauses_json(p, ROOT_CLAUSES[p.family]),
        "R0": {
            str(i): (None if component_empty(p, i)
                     else {"clauses": _clauses_json(p, EVEN_CLAUSES[p.family][i])})
            for i in (1, 2)
        },
        "S": _progression_rows(root_table(p)),
        "S0": {str(i): _progression_rows(even_table(p, i)) for i in (1, 2)},
        "Rdot": _dot_rows(root_table(p)),
        "Rdot0": {str(i): _dot_rows(even_table(p, i)) for i in (1, 2)},
    }
    _emit(args, json_text(doc))
    return 0


def _cmd_verify(args) -> int:
    p = _params(args)
    # the library takes negative counts silently; refuse them before --out is opened
    for name in ("configs", "adversarial", "functionals", "roundtrip"):
        if getattr(args, name) < 0:
            raise ValueError(f"--{name} must be >= 0, got {getattr(args, name)}")
    with _output(args) as out:
        reports = run_all(
            p,
            seed=args.seed,
            n_configs=args.configs,
            n_adversarial=args.adversarial,
            n_functionals=args.functionals,
            n_roundtrip=args.roundtrip,
        )
        for r in reports:
            print(r.summary(), file=sys.stderr)
        doc = {
            "family": p.family.token, "k": p.k, "l": p.l,
            "seed": args.seed,
            "reports": [r.to_json() for r in reports],
            "ok": all(r.ok for r in reports),
        }
        out.write(json_text(doc))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_shadow_validate(args) -> int:
    p = _params(args)
    cfg = _load_config(p, args.config)
    verdict = validate(cfg)
    _emit(args, json_text({"valid": verdict.ok, **verdict.to_json()}))
    return 0 if verdict.ok else 1


def _traces(cfg: ShadowConfig) -> dict[str, DotParabolic | None]:
    """The config's trace on each even component, keyed "1" and "2"; None
    for an empty component."""
    return {str(i): None if component_empty(cfg.params, i) else dot_parabolic_from_config(cfg, i)
            for i in (1, 2)}


def _trace_json(dp: DotParabolic, **fields) -> dict:
    return {"dots": _dot_rows(dp.members), "proper": dp.proper, **fields}


def _cmd_shadow_derive_p(args) -> int:
    p = _params(args)
    cfg = _load_config(p, args.config)
    verdict = validate(cfg)
    if not verdict.ok:
        _emit(args, json_text({"valid": False, "failures": verdict.to_json()["failures"]}))
        return 1
    closure = check_parabolic(cfg)
    traces = _traces(cfg)
    components = {c: None if dp is None else _trace_json(dp, parabolic=is_parabolic(dp).ok)
                  for c, dp in traces.items()}
    propers = [dp.proper for dp in traces.values() if dp is not None]
    tight = is_tight(cfg)
    mixed = check_mixed_components(cfg).ok
    findings = []
    if tight and mixed and propers and not any(propers):
        findings.append(
            "every component trace is improper although the config is tight "
            "with mixed components; at least one should be proper")
    doc = {
        "valid": True,
        "tight": tight,
        "mixed_components": mixed,
        "closure": {"ok": closure.ok, **closure.to_json()},
        "components": components,
        "findings": findings,
    }
    _emit(args, json_text(doc))
    return 0 if closure.ok and not findings else 1


def _cmd_parabolic_synth(args) -> int:
    p = _params(args)
    cfg = _load_config(p, args.config)
    verdict = validate(cfg)
    if not verdict.ok:
        raise ValueError(f"config invalid: {verdict.summary()}")
    traces = _traces(cfg)
    functionals = {c: None if dp is None else synthesize_functional(dp)
                   for c, dp in traces.items()}
    components = {c: None if dp is None else _trace_json(dp, functional=functionals[c].to_json())
                  for c, dp in traces.items()}
    # component 1 is never empty (it holds the zero dot), so only the second
    # functional can be None
    combined = combine_functionals(*functionals.values())
    doc = {
        "components": components,
        "combined": combined.to_json(),
        "trivial": combined.is_zero,
    }
    if combined.is_zero:
        doc["note"] = ("combined functional is zero: no component trace is proper, "
                       "which violates the nontriviality the induction step needs")
    _emit(args, json_text(doc))
    return 0


def _cmd_phi_pi(args) -> int:
    p = _params(args)
    zeta = _load_functional(args.functional)
    gens = generator_set(p, zeta)
    doc = {
        "family": p.family.token, "k": p.k, "l": p.l,
        "functional": zeta.to_json(),
        "modulus": gens.modulus,
        "shifted_real": [v.to_json() for v in gens.shifted_real],
        "shifted_full": [v.to_json() for v in gens.shifted_full],
        "positive": [v.to_json() for v in gens.positive],
        "generators": [v.to_json() for v in gens.generators],
        "note": ("shifted_real ranges over real dots (the generator combinatorics); "
                 "shifted_full over all nonzero dots (the class-residue identity); "
                 "they differ on the nonsingular shapes"),
    }
    _emit(args, json_text(doc))
    return 0


def _cmd_decompose(args) -> int:
    p = _params(args)
    zeta = _load_functional(args.functional)
    target = _parse_root(args.root)
    coeffs = decompose_over_generators(target, generator_set(p, zeta))
    doc = {
        "root": target.to_json(),
        "coefficients": [
            {"generator": g.to_json(), "count": coeffs[g]}
            for g in sorted(coeffs, key=RootVector.key)
        ],
    }
    _emit(args, json_text(doc))
    return 0


# --- parser ----------------------------------------------------------------------


def _add_params(sub) -> None:
    sub.add_argument("--family", required=True,
                     choices=[f.token for f in AffineFamily],
                     help="affine family token")
    sub.add_argument("--k", type=int, required=True, help="eps rank (k >= 0)")
    sub.add_argument("--l", type=int, required=True, help="del rank (l >= 1)")


def _add_out(sub) -> None:
    sub.add_argument("--out", help="write output to this file instead of stdout")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and reused: parsing
    keeps no state in it, and building it costs more than most queries."""
    parser = argparse.ArgumentParser(
        prog="twistroots",
        description="Exact root-system combinatorics for twisted affine Lie superalgebras.",
    )
    parser.add_argument("--list-families", action="store_true",
                        help="print the family tokens with their parameter constraints")
    subs = parser.add_subparsers(dest="command")

    sp = subs.add_parser(
        "roots", help="enumerate a window of roots",
        epilog="CSV columns: eps, del, dc, class, parity, component "
               "(eps/del are space-separated coordinate lists).")
    _add_params(sp)
    sp.add_argument("--mmax", type=int, default=4, help="window bound on |dc|")
    sp.add_argument("--format", choices=("json", "csv", "tex"), default="json")
    _add_out(sp)
    sp.set_defaults(func=_cmd_roots)

    sp = subs.add_parser(
        "classify", help="classify a single root",
        epilog='A vector that is not a root gets {"is_root": false} and exit status 1: '
               "a negative answer, like a failed check, not an input error.")
    _add_params(sp)
    sp.add_argument("--root", required=True,
                    help='root as JSON, e.g. {"eps":[1],"del":[0],"dc":0}')
    _add_out(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = subs.add_parser(
        "tables", help="emit the family's closed-form tables",
        epilog="CSV columns: table (R, R0_1, R0_2), dot_eps, dot_del, mod, "
               "residues (coordinate and residue lists space-separated).")
    _add_params(sp)
    sp.add_argument("--format", choices=("json", "csv", "tex"), default="json")
    _add_out(sp)
    sp.set_defaults(func=_cmd_tables)

    sp = subs.add_parser("verify", help="run the full invariant battery")
    _add_params(sp)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--configs", type=int, default=100,
                    help="seeded shadow configs per run")
    sp.add_argument("--adversarial", type=int, default=50,
                    help="adversarial mutations per run")
    sp.add_argument("--functionals", type=int, default=50,
                    help="seeded functionals for the generator suite")
    sp.add_argument("--roundtrip", type=int, default=200,
                    help="functionals per component for the synthesis round trip")
    _add_out(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = subs.add_parser("shadow-validate", help="validate a shadow config file")
    _add_params(sp)
    sp.add_argument("--config", required=True, help="shadow config JSON file")
    _add_out(sp)
    sp.set_defaults(func=_cmd_shadow_validate)

    sp = subs.add_parser("shadow-derive-p",
                         help="derive the parabolic set of a config and check it")
    _add_params(sp)
    sp.add_argument("--config", required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_shadow_derive_p)

    sp = subs.add_parser("parabolic-synth",
                         help="synthesize defining functionals for a config's traces")
    _add_params(sp)
    sp.add_argument("--config", required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_parabolic_synth)

    sp = subs.add_parser("phi-pi",
                         help="shifted dot roots, positive slice and its generators")
    _add_params(sp)
    sp.add_argument("--functional", required=True, help="functional JSON file")
    _add_out(sp)
    sp.set_defaults(func=_cmd_phi_pi)

    sp = subs.add_parser("decompose",
                         help="decompose a positive-slice root over the generators")
    _add_params(sp)
    sp.add_argument("--functional", required=True)
    sp.add_argument("--root", required=True)
    _add_out(sp)
    sp.set_defaults(func=_cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list_families:
        for fam in AffineFamily:
            print(f"{fam.token:12s} {fam.tex_name():24s} {fam.constraints}")
        return 0
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, InfeasibleSystemError) as exc:
        # a refused input; internal invariant errors (ClassificationBugError,
        # NoDecompositionError, AssertionError) are not caught and still raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
