"""Closed-loop runner: one client runs operations back to back and checks each.

A workload is a class built from ``(seed, workdir, recorder)`` with two
methods: ``warmup()`` returns one small operation of every kind, and
``cycle(i)`` returns the i-th fixed-mix batch of operations, whose inputs
are drawn from ``seed`` and ``i`` alone.  Inputs are generated between
operations, outside the timed calls.

The host this runs on is shared, and how fast it runs this process swings
by half and more, both within a second and from one minute to the next.
So a gauge, a fixed piece of the benchmark's own work, is timed just
before and just after every operation, and each latency is also given at
reference host speed: scaled by the gauge's reference time over the mean
of its two gauge times.  The gauge is not cmtk code, so a change to cmtk
cannot move it.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from reference import CheckError


@dataclass
class Op:
    """One library or CLI call and the check of its output.

    ``run`` makes the call.  ``check`` receives its return value (or the
    exception it raised, when that exception is an instance of ``raises``),
    raises CheckError on a wrong output, and returns the relative error
    against a closed form, or None where the output has no such error.
    ``key`` describes the inputs canonically, for the determinism test.
    """

    kind: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], float | None]
    raises: type | tuple | None = None


@dataclass(frozen=True)
class Gauge:
    """A fixed piece of work whose time shows how fast the host runs right
    now, and its time on the quiet reference host (a 2 GHz Xeon vCPU)."""

    name: str
    run: Callable[[], float]
    reference_s: float

    def scale(self, seconds: float, measured: float) -> float:
        """``seconds`` measured while this gauge took ``measured`` seconds,
        scaled to the reference host."""
        return seconds * self.reference_s / measured


# Fractions with distinct 30-bit denominators: big-int products and gcds
# on Python objects.  Of the loops tried (a plain integer loop, numpy
# streaming, BLAS, list sorting) its slowdown tracked the library
# workloads' best when the host got busy.
_GAUGE_TERMS = [Fraction(random.Random(f"gauge/{i}").randrange(1, 10**12), 10**9 + 7 * i)
                for i in range(60)]


def _fraction_sum_s() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    for term in _GAUGE_TERMS:
        total += term
    return time.perf_counter() - t0


def _spawn_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


FRACTIONS = Gauge("fractions", _fraction_sum_s, 150e-6)
# Start and end a bare interpreter: for work that is mostly process
# start-up and imports (a CLI child, a set-up), which the fraction sum
# tracks poorly.
SPAWN = Gauge("spawn", _spawn_s, 65e-3)


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # seconds per operation
    gauge: Gauge = FRACTIONS
    gauges: list = field(default_factory=list)  # gauge before the first op and after each
    kinds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    max_rel_err: float | None = None
    failures: list = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def ref_latencies(self) -> list:
        """Each latency at reference host speed, by the gauges on either side."""
        g = self.gauges
        return [self.gauge.scale(lat, (g[i] + g[i + 1]) / 2.0)
                for i, lat in enumerate(self.latencies)]

    @property
    def ref_busy_s(self) -> float:
        return sum(self.ref_latencies)


def input_key(*parts) -> str:
    """A digest of an op's inputs, for the determinism test."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    """A generator determined by the workload, the seed and the position."""
    return random.Random("/".join(str(p) for p in (workload, seed, *parts)))


def run_one(op: Op, result: LoopResult, recorder=None, index=0):
    """Time one operation, check it and record the outcome."""
    out, exc = None, None
    if recorder is not None:
        recorder.begin_op(index, op.kind)
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as e:  # judged below against op.raises
        exc = e
    dt = time.perf_counter() - t0
    if recorder is not None:
        recorder.end_op()
    result.attempted += 1
    result.latencies.append(dt)
    result.kinds.append(op.kind)
    try:
        if exc is not None:
            if op.raises is None or not isinstance(exc, op.raises):
                raise CheckError(f"raised {type(exc).__name__}: {exc}")
            out = exc
        elif op.raises is not None:
            raise CheckError(f"expected {op.raises} but returned")
        err = op.check(out)
    # a check that cannot even read the output (a missing key, a report
    # that is not JSON) has found a wrong output too
    except (CheckError, LookupError, TypeError, ValueError, AttributeError) as e:
        result.failed += 1
        if len(result.failures) < 5:
            result.failures.append(f"{op.kind}: {type(e).__name__}: {e}")
        return
    if err is not None:
        result.max_rel_err = err if result.max_rel_err is None else max(result.max_rel_err, err)


def run_loop(workload, seconds: float, recorder=None, max_ops=None) -> LoopResult:
    """Run whole cycles of operations until ``seconds`` of wall time have
    passed, or exactly ``max_ops`` operations.  Stopping only between
    cycles keeps the op mix of every run the same.  The workload's
    ``GAUGE`` is timed before the first operation and after each."""
    gauge = getattr(workload, "GAUGE", FRACTIONS)
    result = LoopResult(gauge=gauge, gauges=[gauge.run()])
    start = time.perf_counter()
    cycle = 0
    while True:
        for op in workload.cycle(cycle):
            if max_ops is not None and result.attempted >= max_ops:
                return result
            run_one(op, result, recorder, result.attempted)
            result.gauges.append(gauge.run())
        cycle += 1
        if max_ops is None and time.perf_counter() - start >= seconds:
            return result


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]
