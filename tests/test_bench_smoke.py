"""One short round of each benchmark workload: every call that ``bench/*.py``
makes into the package keeps its shape, and every op passes its check.
The workloads are cut to their first params (cold-query to the first 40
queries of its seeded order).  ``bench/`` is read and never written."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("structure_grid", "shadow_synth", "decompose_tail", "cold_query")
SEED = 1


def _package_modules():
    return {name: mod for name, mod in sys.modules.items() if name.startswith("twistroots")}


@pytest.fixture
def bench(monkeypatch):
    """The harness and the workload modules, imported from ``bench/`` with no
    bytecode written; the package modules the harness re-imports are swapped
    back afterwards, so later tests keep the modules they imported."""
    saved = _package_modules()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("harness", *WORKLOADS)
    yield {name: importlib.import_module(name) for name in names}
    for name in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    for name in (*names, "oracles"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_round_of_the_workload_has_no_unexpected_failure(bench, workload, tmp_path):
    harness, wl = bench["harness"], bench[workload]
    data = wl.prepare(harness.fresh_import(), SEED, tmp_path)
    if workload == "cold_query":
        data["queries"] = data["queries"][:40]
    else:
        data["params"] = data["params"][:1]
    rec = harness.Recorder()
    m = harness.fresh_import()
    state = wl.warm(m, rec, data)
    result = rec.run_round(wl.ops(m, rec, SEED, data, state))
    assert result.op_times and result.unexpected == []
