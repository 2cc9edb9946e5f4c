"""Command-line surface: formats, determinism, exit codes, usage errors."""

import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import twistroots
from twistroots import cli
from twistroots.cli import main
from twistroots.families import AffineFamily, AlgebraParams
from twistroots.lattice import RootVector
from twistroots.rootsys import real_dot_roots
from twistroots.sampling import random_tight_config
from twistroots.shadow import FULL_LN, Case, ShadowConfig, hybrid

RUN = [sys.executable, "-m", "twistroots.cli"]
# The child process imports the same package as the tests, also when pytest
# put it on sys.path itself rather than through PYTHONPATH.
PACKAGE_ROOT = str(Path(twistroots.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}


def run_process(*argv):
    """One CLI run in a fresh interpreter: for the tests of the process boundary."""
    return subprocess.run(RUN + list(argv), capture_output=True, text=True, env=ENV)


def _main_inprocess(argv):
    """(exit code, stdout, stderr) of one ``main`` call, as a process would end."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def run_cli(*argv):
    """One CLI run as an in-process ``main`` call, with the exit code, stdout
    and stderr a process would give (see the fresh-process comparison below)."""
    rc, out, err = _main_inprocess(list(argv))
    return subprocess.CompletedProcess(list(argv), rc, out, err)


def test_roots_json_count():
    out = run_cli("roots", "--family", "a-even-2", "--k", "1", "--l", "1",
                  "--mmax", "1", "--format", "json")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["count"] == 33
    assert sum(1 for r in doc["roots"] if r["class"] != "zero") == 32
    zero_entries = [r for r in doc["roots"] if r["class"] == "zero"]
    assert len(zero_entries) == 1


def test_roots_csv_and_tex():
    out = run_cli("roots", "--family", "d-2", "--k", "1", "--l", "1",
                  "--mmax", "1", "--format", "csv")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "eps,del,dc,class,parity,component"
    out = run_cli("roots", "--family", "d-2", "--k", "1", "--l", "1",
                  "--mmax", "0", "--format", "tex")
    assert out.returncode == 0
    assert out.stdout.startswith("\\documentclass") and "\\end{document}" in out.stdout


def test_classify_command():
    out = run_cli("classify", "--family", "a-even-2", "--k", "1", "--l", "1",
                  "--root", '{"eps":[0],"del":[0],"dc":1}')
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["class"] == "imaginary" and doc["parity"] == "unspecified"
    out = run_cli("classify", "--family", "a-even-2", "--k", "1", "--l", "1",
                  "--root", '{"eps":[0],"del":[3],"dc":0}')
    assert out.returncode == 1
    assert json.loads(out.stdout)["is_root"] is False


def test_tables_tex_matches_printed_entries():
    out = run_cli("tables", "--family", "a-4", "--k", "1", "--l", "1",
                  "--format", "tex")
    assert out.returncode == 0
    # the doubled-del coefficient set of the order-4 family
    assert r"$S_{\pm2\delta_j}$ & $4\mathbb{Z}\delta$" in out.stdout
    assert r"(4\mathbb{Z}+2)\delta" in out.stdout


def test_tables_json_schema():
    out = run_cli("tables", "--family", "a-odd-2", "--k", "1", "--l", "2")
    doc = json.loads(out.stdout)
    assert doc["family"] == "a-odd-2" and doc["k"] == 1 and doc["l"] == 2
    assert all({"dot", "progression"} <= set(c) for c in doc["clauses"])
    assert isinstance(doc["clauses"][0]["dot"], list)
    assert doc["R0"]["1"]["clauses"]
    # Every S entry is a single progression (mod, res) pair.
    for entry in doc["S"]:
        assert set(entry["progression"]) == {"mod", "res"}


def test_deterministic_output():
    args = ("verify", "--family", "a-4", "--k", "1", "--l", "1",
            "--seed", "5", "--configs", "4", "--adversarial", "3",
            "--functionals", "2", "--roundtrip", "4")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical for fixed flags and seed


def test_verify_exit_zero_on_pass(tmp_path):
    out_file = tmp_path / "report.json"
    out = run_cli("verify", "--family", "d-2", "--k", "2", "--l", "2",
                  "--configs", "5", "--adversarial", "4",
                  "--functionals", "3", "--roundtrip", "5",
                  "--out", str(out_file))
    assert out.returncode == 0
    doc = json.loads(out_file.read_text())
    assert doc["ok"] is True
    assert {r["suite"] for r in doc["reports"]} == {
        "tables", "classification", "structure", "shadow-pipeline",
        "generators", "roundtrip"}


def test_package_runs_as_a_module():
    argv = ["verify", "--family", "a-even-2", "--k", "1", "--l", "1",
            "--configs", "2", "--adversarial", "2", "--functionals", "1",
            "--roundtrip", "2"]
    out = subprocess.run([sys.executable, "-m", "twistroots"] + argv,
                         capture_output=True, text=True, env=ENV)
    assert out.returncode == 0
    assert out.stdout == run_process(*argv).stdout
    assert json.loads(out.stdout)["ok"] is True


def test_usage_error_names_constraint():
    out = run_cli("roots", "--family", "a-odd-2", "--k", "1", "--l", "1",
                  "--mmax", "1")
    assert out.returncode == 1
    assert "(1, 1)" in out.stderr


def test_malformed_config_reports_location(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"classes": [')
    out = run_cli("shadow-validate", "--family", "a-even-2", "--k", "1",
                  "--l", "1", "--config", str(bad))
    assert out.returncode != 0
    assert "line" in out.stderr and "column" in out.stderr


def test_shadow_commands_roundtrip(tmp_path):
    from random import Random

    from twistroots.families import AffineFamily, AlgebraParams
    from twistroots.sampling import random_tight_config

    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    cfg, zeta = random_tight_config(p, Random(3))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg.to_json()))

    out = run_cli("shadow-validate", "--family", "a-even-2", "--k", "1",
                  "--l", "1", "--config", str(cfg_file))
    assert out.returncode == 0 and json.loads(out.stdout)["valid"] is True

    out = run_cli("shadow-derive-p", "--family", "a-even-2", "--k", "1",
                  "--l", "1", "--config", str(cfg_file))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["closure"]["ok"] is True
    assert doc["components"]["1"]["parabolic"] is True

    out = run_cli("parabolic-synth", "--family", "a-even-2", "--k", "1",
                  "--l", "1", "--config", str(cfg_file))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert "combined" in doc and doc["trivial"] is False


def test_parabolic_synth_flags_trivial_functional(tmp_path):
    # every class fully-ln: both traces are the whole component, both
    # synthesized functionals vanish, and the combination is flagged trivial
    from twistroots.families import AffineFamily, AlgebraParams
    from twistroots import rootsys as rs
    from twistroots.shadow import FULL_LN, ShadowConfig

    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    cfg = ShadowConfig(p, {d: FULL_LN for d in rs.real_dot_roots(p)})
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg.to_json()))
    out = run_cli("parabolic-synth", "--family", "a-even-2", "--k", "1",
                  "--l", "1", "--config", str(cfg_file))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["trivial"] is True and "note" in doc

    # shadow-derive-p reports the same situation as a finding
    out = run_cli("shadow-derive-p", "--family", "a-even-2", "--k", "1",
                  "--l", "1", "--config", str(cfg_file))
    doc = json.loads(out.stdout)
    assert doc["components"]["1"]["proper"] is False
    assert doc["mixed_components"] is False  # all-ln fails the mixing hypothesis
    assert doc["findings"] == []             # so no contradiction is flagged


def test_phi_pi_and_decompose(tmp_path):
    zeta_file = tmp_path / "zeta.json"
    zeta_file.write_text(json.dumps({"eps": ["2"], "del": ["1"], "delta": "0"}))
    out = run_cli("phi-pi", "--family", "a-even-2", "--k", "1", "--l", "1",
                  "--functional", str(zeta_file))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["modulus"] == 2
    gens = {(tuple(g["eps"]), tuple(g["del"]), g["dc"]) for g in doc["generators"]}
    assert gens == {((1,), (0,), 0), ((1,), (0,), 1), ((0,), (1,), 0), ((0,), (1,), 1)}

    out = run_cli("decompose", "--family", "a-even-2", "--k", "1", "--l", "1",
                  "--functional", str(zeta_file),
                  "--root", '{"eps":[0],"del":[2],"dc":0}')
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["coefficients"] == [
        {"generator": {"eps": [0], "del": [1], "dc": 0}, "count": 2}]


@pytest.mark.parametrize("command", ["phi-pi", "decompose"])
def test_generator_commands_take_no_mmax(tmp_path, command):
    zeta_file = tmp_path / "zeta.json"
    zeta_file.write_text(json.dumps({"eps": ["2"], "del": ["1"], "delta": "0"}))
    argv = [command, "--family", "a-even-2", "--k", "1", "--l", "1",
            "--functional", str(zeta_file)]
    if command == "decompose":
        argv += ["--root", '{"eps":[0],"del":[2],"dc":0}']
    rc, out, err = _main_inprocess(argv + ["--mmax", "8"])
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --mmax 8")


def test_verify_takes_no_mmax():
    # Classification is checked once per delta-class; no window bound is left.
    rc, out, err = _main_inprocess(["verify", "--family", "a-even-2", "--k", "1",
                                    "--l", "1", "--mmax", "8"])
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: unrecognized arguments: --mmax 8")


def test_list_families_text(capsys):
    assert main(["--list-families"]) == 0
    assert capsys.readouterr().out == (
        "a-even-2     A(2k,2\\ell-1)^{(2)}      k >= 0, l >= 1\n"
        "a-odd-2      A(2k-1,2\\ell-1)^{(2)}    k >= 1, l >= 1, (k, l) != (1, 1)\n"
        "a-4          A(2k,2\\ell)^{(4)}        k >= 0, l >= 1\n"
        "d-2          D(k+1,\\ell)^{(2)}        k >= 0, l >= 1\n"
    )


def test_list_families_inprocess(capsys):
    assert main(["--list-families"]) == 0
    out = capsys.readouterr().out
    assert "a-odd-2" in out and "(k, l) != (1, 1)" in out


def test_no_command_prints_help():
    assert main([]) == 2


def test_repeated_main_calls_match_fresh_processes():
    """``main`` reuses its parser across calls; no call may see state left by
    an earlier one, a failed parse included."""
    base = ["--family", "a-even-2", "--k", "1", "--l", "1"]
    sequence = [
        ["roots", *base],
        ["classify", *base, "--root", '{"eps":[0],"del":[2],"dc":0}'],
        ["tables", "--family", "a-4", "--k", "1", "--l", "1", "--format", "tex"],
        ["roots", "--family", "a-even-2", "--k", "1"],
        ["roots", *base, "--mmax", "-1"],
        ["roots", *base],
    ]
    results = [_main_inprocess(argv) for argv in sequence]
    assert [rc for rc, _, _ in results] == [0, 0, 0, 2, 1, 0]
    for argv, got in zip(sequence, results):
        fresh = run_process(*argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def _malformed_inputs(tmp_path):
    """Inputs the CLI must refuse with one error line, by name."""
    base = ["--family", "a-even-2", "--k", "1", "--l", "1"]
    delta = tmp_path / "delta-weighted.json"
    delta.write_text(json.dumps({"eps": ["1"], "del": ["1"], "delta": "1"}))
    classes = tmp_path / "classes-not-a-list.json"
    classes.write_text(json.dumps({"classes": 5}))
    float_coeff = tmp_path / "float-coefficient.json"
    float_coeff.write_text(json.dumps({"eps": [0.1], "del": ["1"], "delta": "0"}))
    bool_coeff = tmp_path / "boolean-coefficient.json"
    bool_coeff.write_text(json.dumps({"eps": ["1"], "del": [True], "delta": "0"}))
    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    d1 = RootVector((0,), (1,), 0)
    cfg = ShadowConfig.from_assignments(
        p, {**{d: FULL_LN for d in real_dot_roots(p) if d not in (d1, -d1)},
            d1: hybrid(Case.III, 1, 1)})
    doc = cfg.to_json()
    for entry in doc["classes"]:
        # int() would turn 1.9 and true back into this valid profile's m 1, t 1
        if entry["root"] == d1.to_json():
            entry["state"]["hybrid"].update(m=1.9, t=True)
    float_profile = tmp_path / "float-hybrid-profile.json"
    float_profile.write_text(json.dumps(doc))
    non_utf8_config = tmp_path / "non-utf8-config.json"
    non_utf8_config.write_bytes(b"\xff\xfe{")
    non_utf8_functional = tmp_path / "non-utf8-functional.json"
    non_utf8_functional.write_bytes(b"\xff\xfe{")
    nested_config = tmp_path / "deeply-nested-config.json"
    nested_config.write_text("[" * 100_000)
    exponent = tmp_path / "exponent-coefficient.json"
    exponent.write_text(json.dumps({"eps": ["1e5000"], "del": ["1"], "delta": "0"}))
    zeta = tmp_path / "zeta.json"
    zeta.write_text(json.dumps({"eps": ["2"], "del": ["1"], "delta": "0"}))
    return {
        "negative-mmax": ["roots", *base, "--mmax", "-1"],
        "negative-count": ["verify", *base, "--configs", "-3"],
        "delta-weighted-functional": [
            "decompose", *base, "--functional", str(delta),
            "--root", '{"eps":[0],"del":[2],"dc":0}'],
        "classes-not-a-list": ["shadow-validate", *base, "--config", str(classes)],
        "unwritable-out": ["roots", *base, "--out", str(tmp_path / "missing" / "out.json")],
        # The error must come before any suite runs and prints its summary.
        "verify-unwritable-out": [
            "verify", *base, "--configs", "2", "--adversarial", "2", "--functionals", "1",
            "--roundtrip", "2", "--out", str(tmp_path / "missing" / "out.json")],
        # Non-integer JSON is refused, not truncated or read character-wise.
        "float-root-coordinate": [
            "classify", *base, "--root", '{"eps":[0.5],"del":[2],"dc":0}'],
        "string-root-coordinates": [
            "classify", "--family", "a-even-2", "--k", "2", "--l", "1",
            "--root", '{"eps":"12","del":[0],"dc":0}'],
        "boolean-root-coordinate": [
            "classify", *base, "--root", '{"eps":[true],"del":[2],"dc":0}'],
        "float-hybrid-profile": ["shadow-validate", *base, "--config", str(float_profile)],
        "float-functional-coefficient": ["phi-pi", *base, "--functional", str(float_coeff)],
        "boolean-functional-coefficient": [
            "phi-pi", *base, "--functional", str(bool_coeff)],
        # Undecodable bytes and nesting past the recursion limit are refused
        # like any other malformed document, not raised as tracebacks.
        "non-utf8-config": ["shadow-validate", *base, "--config", str(non_utf8_config)],
        "non-utf8-functional": ["phi-pi", *base, "--functional", str(non_utf8_functional)],
        "deeply-nested-config": ["shadow-validate", *base, "--config", str(nested_config)],
        "deeply-nested-root": [
            "classify", *base, "--root", "[" * 5_000 + "]" * 5_000],
        # Refused on load, before any work, not when the slice is printed.
        "exponent-functional-coefficient": ["phi-pi", *base, "--functional", str(exponent)],
        "decompose-other-ambient": [
            "decompose", *base, "--functional", str(zeta),
            "--root", '{"eps":[0,0],"del":[1],"dc":0}'],
    }


@pytest.mark.parametrize("case", [
    "negative-mmax", "negative-count", "delta-weighted-functional",
    "classes-not-a-list", "unwritable-out", "verify-unwritable-out",
    "float-root-coordinate", "string-root-coordinates", "boolean-root-coordinate",
    "float-hybrid-profile", "float-functional-coefficient",
    "boolean-functional-coefficient", "non-utf8-config", "non-utf8-functional",
    "deeply-nested-config", "deeply-nested-root", "exponent-functional-coefficient",
    "decompose-other-ambient",
])
def test_malformed_input_gives_one_error_line(tmp_path, case):
    out = run_cli(*_malformed_inputs(tmp_path)[case])
    assert out.returncode == 1
    assert out.stdout == ""
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


def test_classify_non_root_is_a_negative_answer():
    # Not a root: the answer is {"is_root": false} with exit 1, like a failed
    # check, and not an input error (no error line on stderr).
    root = {"eps": [0], "del": [3], "dc": 0}
    rc, out, err = _main_inprocess(["classify", "--family", "a-even-2", "--k", "1",
                                    "--l", "1", "--root", json.dumps(root)])
    assert (rc, err) == (1, "")
    assert out == json.dumps({"root": root, "is_root": False}, indent=2, sort_keys=True) + "\n"
    rc, out, _ = _main_inprocess(["classify", "--help"])
    assert rc == 0
    assert '{"is_root": false} and exit status 1' in " ".join(out.split())


def _readme_commands(tmp_path):
    """The argv of every example in the README's CLI section, with its input
    files written to tmp_path and any shell redirection dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    cfg, _ = random_tight_config(p, Random(7))
    files = {"cfg.json": cfg.to_json(), "zeta.json": {"eps": ["2"], "del": ["1"], "delta": "0"}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    commands = []
    for line in block.splitlines():
        if line.startswith("twistroots "):
            argv = shlex.split(line)[1:]
            argv = argv[:argv.index(">")] if ">" in argv else argv
            commands.append([str(tmp_path / a) if a in files else a for a in argv])
    return commands


def _stdlib_json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_readme_examples_print_what_the_stdlib_encoder_prints(tmp_path, monkeypatch):
    commands = _readme_commands(tmp_path)
    assert len(commands) == 9
    ours = [_main_inprocess(argv)[:2] for argv in commands]
    monkeypatch.setattr(cli, "json_text", _stdlib_json_text)
    assert ours == [_main_inprocess(argv)[:2] for argv in commands]


def test_internal_errors_are_not_refused_inputs(tmp_path, monkeypatch):
    # The one handler in main() refuses inputs; an internal invariant error
    # must still raise, never pass for a refused input with an error line.
    from twistroots.rootsys import ClassificationBugError, NoDecompositionError

    def raise_(exc):
        def fail(*args, **kwargs):
            raise exc
        return fail

    base = ["--family", "a-even-2", "--k", "1", "--l", "1"]
    zeta_file = tmp_path / "zeta.json"
    zeta_file.write_text(json.dumps({"eps": ["2"], "del": ["1"], "delta": "0"}))
    monkeypatch.setattr(cli, "classify", raise_(ClassificationBugError("planted")))
    monkeypatch.setattr(cli, "generator_set", raise_(NoDecompositionError("planted")))
    cases = [
        (ClassificationBugError,
         ["classify", *base, "--root", '{"eps":[0],"del":[2],"dc":0}']),
        (NoDecompositionError, ["phi-pi", *base, "--functional", str(zeta_file)]),
    ]
    for exc_type, argv in cases:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            with pytest.raises(exc_type, match="planted"):
                main(argv)
        assert "error:" not in err.getvalue(), argv


_KEYS = st.sampled_from(["eps", "del", "dc", "delta", "classes", "root", "state",
                         "hybrid", "case", "m", "t"])
# JSON values shaped like the three documents often enough to get past the
# first key lookup: schema keys, small integers, states and fraction strings.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["full_ln", "full_in", "III", "IV", "1/2", "0", "x"]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(root=_JSON_VALUES,
       functional=_JSON_VALUES.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=16),
       config=_JSON_VALUES.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=16))
def test_document_inputs_never_escape_main(tmp_path, root, functional, config):
    base = ["--family", "a-even-2", "--k", "1", "--l", "1"]
    zeta_file, cfg_file = tmp_path / "zeta.json", tmp_path / "cfg.json"
    zeta_file.write_bytes(functional)
    cfg_file.write_bytes(config)
    for argv in (["classify", *base, f"--root={json.dumps(root)}"],
                 ["phi-pi", *base, "--functional", str(zeta_file)],
                 ["shadow-validate", *base, "--config", str(cfg_file)]):
        rc, out, err = _main_inprocess(argv)
        assert rc in (0, 1), (argv, rc)
        if err:
            assert out == "" and len(err.splitlines()) == 1, (argv, err)
            assert err.startswith("error:") and err.endswith("\n"), (argv, err)


_COUNT_FLAGS = ("configs", "adversarial", "functionals", "roundtrip")


@settings(max_examples=40, deadline=None)
@given(counts=st.fixed_dictionaries({flag: st.integers(0, 3) for flag in _COUNT_FLAGS}),
       negative=st.sampled_from(_COUNT_FLAGS), below=st.integers(-10**12, -1))
def test_negative_count_flags_give_one_error_line(counts, negative, below):
    # One flag is negative and the others are small, so each refusal is
    # tested alone and a missed one fails fast.
    counts[negative] = below
    base = ["--family", "a-even-2", "--k", "1", "--l", "1"]
    flags = [arg for flag, n in counts.items() for arg in (f"--{flag}", str(n))]
    for argv in (["verify", *base, *flags], ["roots", *base, "--mmax", str(below)]):
        rc, out, err = _main_inprocess(argv)
        assert (rc, out) == (1, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("family,k,l", [
    ("a-even-2", 0, 1), ("a-odd-2", 1, 2), ("a-4", 1, 1), ("d-2", 2, 2)])
def test_tables_csv_rows_are_the_root_and_even_tables(family, k, l):
    from twistroots.rootsys import even_table, root_table

    p = AlgebraParams(AffineFamily.from_token(family), k, l)
    rc, out, err = _main_inprocess(["tables", "--family", family, "--k", str(k),
                                    "--l", str(l), "--format", "csv"])
    assert (rc, err) == (0, "")
    expected = ["table,dot_eps,dot_del,mod,residues"]
    for name, table in [("R", root_table(p)), ("R0_1", even_table(p, 1)),
                        ("R0_2", even_table(p, 2))]:
        for dot in sorted(table, key=RootVector.key):
            prog = table[dot]
            expected.append(",".join([
                name, " ".join(map(str, dot.eps)), " ".join(map(str, dot.dels)),
                str(prog.modulus), " ".join(map(str, prog.residues))]))
    assert out == "\n".join(expected) + "\n"
    assert (k == 0) == (not any(line.startswith("R0_2,") for line in expected))


def test_shadow_commands_on_an_invalid_config(tmp_path):
    from twistroots.rootsys import doubling_pairs
    from twistroots.shadow import FULL_IN, validate

    # a fully-ln odd class whose double is fully-in breaks the doubling rule
    p = AlgebraParams(AffineFamily.A_EVEN_2, 1, 1)
    _, doubled = doubling_pairs(p)[0]
    cfg = ShadowConfig.from_assignments(
        p, {d: FULL_IN if d == doubled else FULL_LN for d in real_dot_roots(p)})
    doc = cfg.to_json()
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    verdict = validate(ShadowConfig.from_json(p, doc))
    assert not verdict.ok
    failures = [f.to_json() for f in verdict.failures]
    base = ["--family", "a-even-2", "--k", "1", "--l", "1", "--config", str(cfg_file)]

    rc, out, err = _main_inprocess(["shadow-validate", *base])
    assert (rc, err) == (1, "")
    assert json.loads(out) == {"valid": False, "checks": verdict.checks, "failures": failures}
    rc, out, err = _main_inprocess(["shadow-derive-p", *base])
    assert (rc, err) == (1, "")
    assert json.loads(out) == {"valid": False, "failures": failures}
    rc, out, err = _main_inprocess(["parabolic-synth", *base])
    assert (rc, out) == (1, "")
    assert err == f"error: config invalid: {verdict.summary()}\n"


@pytest.mark.parametrize("family", ["a-even-2", "a-4", "d-2"])
def test_config_commands_at_k_zero_give_a_null_second_component(tmp_path, family):
    from twistroots.parabolic import dot_parabolic_from_config, synthesize_functional

    p = AlgebraParams(AffineFamily.from_token(family), 0, 2)
    cfg, _ = random_tight_config(p, Random(11))
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg.to_json()))
    dp = dot_parabolic_from_config(cfg, 1)
    dots = [d.to_json() for d in dp.sorted_members()]
    base = ["--family", family, "--k", "0", "--l", "2", "--config", str(cfg_file)]

    rc, out, err = _main_inprocess(["shadow-derive-p", *base])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["components"] == {
        "1": {"dots": dots, "proper": dp.proper, "parabolic": True}, "2": None}
    rc, out, err = _main_inprocess(["parabolic-synth", *base])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    zeta = synthesize_functional(dp).to_json()
    assert doc["components"] == {
        "1": {"dots": dots, "proper": dp.proper, "functional": zeta}, "2": None}
    assert doc["combined"] == zeta


def test_refusals_name_the_exponent_and_the_ambient(tmp_path):
    cases = _malformed_inputs(tmp_path)
    _, _, err = _main_inprocess(cases["exponent-functional-coefficient"])
    assert err == (f"error: functional file {tmp_path / 'exponent-coefficient.json'}: "
                   "a coefficient must not have an exponent, got '1e5000'\n")
    _, _, err = _main_inprocess(cases["decompose-other-ambient"])
    assert err == "error: vector ambient (2, 1) does not match params (1, 1)\n"
