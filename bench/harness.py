"""Timing, calibration and tracing shared by every workload.

Every time the benchmark reports is calibrated.  A fixed pure-Python reference
kernel runs between consecutive ops, in the same process as the program, and
each raw time is scaled by

    (kernel calls * KERNEL_NOMINAL_S) / (measured time of those calls)

so a figure reads as seconds at the kernel's nominal speed ("cal-s").  On a
small shared machine the raw speed of the interpreter drifts by tens of
percent between runs and within one; the kernel drifts with it, and the
ratio stays put.  The kernel calls used are the ones made in the same phase
as the figure: the calls that bracket the set-ups calibrate set-up time, and
the calls between the ops of a round calibrate that round.

Ops run as a closed loop in one thread: each op starts when the previous op,
its kernel samples and its output check are done.  Op times exclude the
kernel and the checks.
"""

from __future__ import annotations

import gc
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

# The modules of the package, one per layer.
LAYERS = (
    "lattice", "progressions", "families", "tables", "rootsys", "shadow", "fm",
    "parabolic", "sampling", "verify", "reporting", "texout", "cli",
)

KERNEL_NOMINAL_S = 0.002
KERNEL_ITERATIONS = 1800
KERNEL_CHECKSUM = 16844

# Kernel calls after an op: one, plus one per 50 ms the op took, so that the
# calls fall in proportion to where the time goes (a 10 s op gets 200) and
# the calibration is weighted by time, not by op count.
KERNEL_REP_EVERY_S = 0.05

TAIL_LADDER = ("99.9", "99", "95", "90", "75")
TAIL_MIN_BEYOND = 10


def reference_kernel() -> int:
    """Fixed pure-Python work of about 2 ms: small tuples, dict updates and
    integer arithmetic, the operations the program itself spends time on.
    The collector is paused so a sample never pays for the program's garbage."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[tuple[int, int, int], int] = {}
        acc = 0
        for i in range(KERNEL_ITERATIONS):
            v = (i & 7, (i >> 3) & 7, i % 5 - 2)
            w = tuple(a + b for a, b in zip(v, (1, -1, 2)))
            table[w] = table.get(w, 0) + 1
            acc += w[0] * w[1] - w[2]
        return acc + len(table)
    finally:
        if was_enabled:
            gc.enable()


def fresh_import() -> SimpleNamespace:
    """Import every layer anew, so each set-up starts from cold module state
    (empty caches) exactly as a new process would."""
    for name in [n for n in sys.modules if n == "twistroots" or n.startswith("twistroots.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{layer: importlib.import_module(f"twistroots.{layer}") for layer in LAYERS}
    )


@dataclass
class Op:
    """One timed unit of work.

    ``run`` performs the layer calls and returns what ``check`` needs;
    ``check`` recomputes the expected outcome apart from the program and
    returns a reason when the output is wrong.  A ``known_fault`` op fails
    every time because of a fault in the program that is documented in the
    README, and ``known_fault`` is the start of the reason it fails with.
    Such a failure is counted but does not make the run incorrect; a failure
    with any other reason does, as does a failure of any other op.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: str | None = None


@dataclass
class Reference:
    """Kernel calls made in one phase and their measured time."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, other: Reference) -> None:
        self.seconds += other.seconds
        self.calls += other.calls

    @property
    def factor(self) -> float:
        """Raw seconds in this phase times this factor gives calibrated seconds."""
        return self.calls * KERNEL_NOMINAL_S / self.seconds


@dataclass
class RoundResult:
    op_times: list[float] = field(default_factory=list)
    ref: Reference = field(default_factory=Reference)
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    known: dict[str, int] = field(default_factory=dict)

    @property
    def verdict_s(self) -> float:
        return sum(self.op_times)


class Recorder:
    """Kernel sampling, op timing and, while ``tracing`` is on, spans.

    A span is (name, start, end, op id, calls, phase), recorded around each
    benchmark call into a layer; ``op id`` is the op the call belongs to (None
    outside ops).  Spans stay in memory and are written out when the run ends.
    """

    def __init__(self) -> None:
        self.ref = Reference()
        self.tracing = False
        self.spans: list[tuple[str, float, float, int | None, int, str]] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.phase = "setup"
        self.op_id: int | None = None
        self._ops_seen = 0

    def kernel(self, reps: int = 1) -> Reference:
        """Run the reference kernel ``reps`` times; the calls and their time."""
        ref = Reference()
        for _ in range(reps):
            t0 = time.perf_counter()
            out = reference_kernel()
            ref.seconds += time.perf_counter() - t0
            ref.calls += 1
            if out != KERNEL_CHECKSUM:
                raise RuntimeError(f"reference kernel returned {out}, not {KERNEL_CHECKSUM}")
        self.ref.add(ref)
        return ref

    def call(self, name: str, fn, *args):
        if not self.tracing:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, t0, time.perf_counter(), self.op_id, 1, self.phase))

    def batch(self, name: str, n: int, fn) -> None:
        """One span for ``n`` calls made by ``fn``; per-call figures divide by n."""
        t0 = time.perf_counter()
        fn()
        if self.tracing:
            self.spans.append((name, t0, time.perf_counter(), self.op_id, n, self.phase))

    def count(self, name: str, n: int) -> None:
        if self.tracing:
            key = (name, self.phase)
            self.counts[key] = self.counts.get(key, 0) + n

    def run_round(self, ops) -> RoundResult:
        result = RoundResult()
        for op in ops:
            self._ops_seen += 1
            self.op_id = self._ops_seen
            t0 = time.perf_counter()
            try:
                out: object = op.run()
            except Exception as exc:  # noqa: BLE001 - the op boundary records every failure
                out = exc
            t1 = time.perf_counter()
            if self.tracing:
                self.spans.append((f"op.{op.kind}", t0, t1, self.op_id, 1, self.phase))
            self.op_id = None
            result.op_times.append(t1 - t0)
            result.ref.add(self.kernel(1 + int((t1 - t0) / KERNEL_REP_EVERY_S)))
            if isinstance(out, Exception):
                reason = f"raised {type(out).__name__}: {out}"
            else:
                try:
                    reason = op.check(out)
                except Exception as exc:  # noqa: BLE001 - output the check cannot read
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None:
                continue
            result.failed += 1
            if op.known_fault is not None and reason.startswith(op.known_fault):
                result.known[op.kind] = result.known.get(op.kind, 0) + 1
            else:
                result.unexpected.append(f"{op.kind}: {reason}")
        return result


def warm_tables(m, rec: Recorder, params) -> None:
    """The table builds a verdict over ``params`` needs, done once in set-up."""
    rs = m.rootsys
    for p in params:
        rec.call("rootsys.root_table_cold", rs.root_table, p)
        for i in (1, 2):
            rs.even_table(p, i)
        rs.r_invariants(p)
        rs.real_dot_roots(p)
        rs.ns_dot_roots(p)


def make_params(m, specs):
    """AlgebraParams of module copy ``m`` from (family token, k, l) triples."""
    fam = m.families
    return [fam.AlgebraParams(fam.AffineFamily.from_token(t), k, l) for t, k, l in specs]


def param_specs(params):
    return [(p.family.token, p.k, p.l) for p in params]


# --- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics.  Where op times are sparse, as in a heavy tail, a
    single order statistic jumps with the noise of one op; this estimate
    averages the neighbouring ranks and moves far less between runs."""
    s = sorted(values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 4  # Simpson panels per rank interval
    h = 1.0 / (n * steps)
    total = weighted = 0.0
    for i, v in enumerate(s):
        w = 0.0
        for j in range(steps):
            x0 = (i * steps + j) * h
            w += h / 6 * (pdf(x0) + 4 * pdf(x0 + h / 2) + pdf(x0 + h))
        total += w
        weighted += w * v
    return weighted / total


def tail(values) -> tuple[str, float, int]:
    """The highest percentile of the ladder with at least ten values beyond
    it: (percentile, estimate, how many values lie beyond)."""
    n = len(values)
    for p in TAIL_LADDER:
        beyond = n - math.ceil(Fraction(p) * n / 100)
        if beyond >= TAIL_MIN_BEYOND:
            return p, percentile(values, float(Fraction(p) / 100)), beyond
    raise ValueError(f"{n} ops are too few for a tail with {TAIL_MIN_BEYOND} beyond it")
