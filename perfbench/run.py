"""cmtk benchmark: four seeded closed-loop workloads, with a traced run.

    python3 perfbench/run.py --workload exact-certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
One client runs operations back to back in this process (the ``cli``
workload runs one child process at a time), checks every output against
a reference built from how the input was made, and stops at the first
end of a cycle (a fixed mix of operations) after ``--seconds``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s         median of five set-ups (this process and four children):
                    import cmtk, generate inputs, one warm-up op of each kind
    ops_per_s       operations per second of time spent inside operations
    latency_gm_ms   geometric mean of the time per operation
    peak_rss_mb     ru_maxrss of this process; of the CLI children for ``cli``

The three times are given at reference host speed.  This shared host's
own speed swings by half and more from one minute to the next, more than
any bound could allow, so each time is scaled by a gauge timed on either
side of it (see harness.py): a fixed sum of fractions beside a library
operation, and the start of a bare interpreter beside a CLI child or a
set-up.  The whole run is pinned to one CPU, so an operation and its
gauges share that CPU's load.  The lines above the JSON line print the
same figures in plain wall time too, and latency_p50_ms, latency_p90_ms
(when at least 100 ops ran), error_rate and max_rel_err, which the JSON
line leaves out: the median jumps between the clusters of a mixed op mix,
and the others are zero or undefined on some workloads.  With ``--trace 1`` the run
spends half of ``--seconds`` untraced and repeats the same operations
traced (see spans.py), then reports the per-layer metrics, the CLI
start-up probes and the known-defect probes (see probes.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import geometric_mean

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import SPAWN, LoopResult, percentile, run_loop, run_one  # noqa: E402

WORKLOADS = {
    "exact-certify": ("exact_certify", "ExactCertify"),
    "float-fit": ("float_fit", "FloatFit"),
    "series": ("series", "Series"),
    "cli": ("cli_workload", "Cli"),
}
SETUP_CHILDREN = 4
CLI_PROBE_REPEATS = 3


def workload_class(name):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def measure_setup(name, seed, workdir, recorder=None):
    """Import cmtk, build the workload and run its warm-up ops; returns
    (wall seconds, workload)."""
    t0 = time.perf_counter()
    import cmtk

    if Path(cmtk.__file__).resolve().parent != ROOT / "src" / "cmtk":
        raise RuntimeError(f"cmtk imported from {cmtk.__file__}, not from this checkout")
    workload = workload_class(name)(seed, workdir, recorder)
    result = LoopResult()
    for op in workload.warmup():
        run_one(op, result)
    if result.failed:
        raise RuntimeError(f"warm-up failed: {result.failures}")
    return time.perf_counter() - t0, workload


def child_setup_seconds(name, seed):
    """Wall seconds of one set-up in a fresh process."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name,
                          "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def gauged(setup):
    """Run ``setup`` (which returns wall seconds first) between two SPAWN
    gauges; returns (seconds at reference speed, wall seconds, the rest)."""
    before = SPAWN.run()
    wall, *rest = setup()
    after = SPAWN.run()
    return SPAWN.scale(wall, (before + after) / 2.0), wall, rest


def _timed_child(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, proc.stderr


def cli_metrics(seed, workdir):
    """Start-up cost of a CLI child, and in-process command cost."""
    from cli_workload import Cli, child_env

    env = child_env(ROOT)
    interp = statistics.median(_timed_child([sys.executable, "-c", "pass"], env)[0]
                               for _ in range(CLI_PROBE_REPEATS))
    imp = statistics.median(_timed_child([sys.executable, "-c", "import cmtk"], env)[0]
                            for _ in range(CLI_PROBE_REPEATS))
    _, importtime = _timed_child([sys.executable, "-X", "importtime", "-c", "import cmtk"], env)
    scipy_us = 0
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            scipy_us = int(parts[1])
    probe = Cli(seed, workdir)
    probe.inprocess = True
    times, sizes = [], []
    for op in probe.cycle(0):
        t0 = time.perf_counter()
        out = op.run()
        times.append(time.perf_counter() - t0)
        op.check(out)
        sizes.append(len(out[1]))
    return {
        "cli.interpreter_ms": 1e3 * interp,
        "cli.import_ms": 1e3 * (imp - interp),
        "cli.import_scipy_ms": scipy_us / 1e3,
        "cli.command_ms": 1e3 * statistics.mean(times),
        "cli.report_bytes": statistics.mean(sizes),
    }


def plain_run(args, workdir):
    first = gauged(lambda: measure_setup(args.workload, args.seed, workdir))
    workload = first[2][0]
    result = run_loop(workload, args.seconds)
    if args.workload == "cli":
        rss_kb = workload.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [first] + [gauged(lambda: (child_setup_seconds(args.workload, args.seed),))
                        for _ in range(SETUP_CHILDREN)]
    lat, wall = result.ref_latencies, result.latencies
    metrics = {
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
        "ops_per_s": (len(lat) / result.ref_busy_s, "1/s"),
        "latency_gm_ms": (1e3 * geometric_mean(lat), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    n = len(lat)
    p90 = f"n/a ({n} ops < 100)"
    if n >= 100:
        p90 = f"{1e3 * percentile(lat, 90):.3f} ms ({n} ops; wall {1e3 * percentile(wall, 90):.3f} ms)"
    extra = {
        "latency_p50_ms": f"{1e3 * statistics.median(lat):.3f} ms (wall {1e3 * statistics.median(wall):.3f} ms)",
        "latency_p90_ms": p90,
        "error_rate": f"{result.failed / n:.4f} ({result.failed}/{n})",
        "max_rel_err": (f"{result.max_rel_err:.3e}" if result.max_rel_err is not None
                        else "n/a (exact outputs, no closed-form error)"),
        "wall setup_s": f"{statistics.median(s[1] for s in setups):.6g} s",
        "wall ops_per_s": f"{n / result.busy_s:.6g} 1/s",
        "wall latency_gm_ms": f"{1e3 * geometric_mean(wall):.6g} ms",
        f"gauge {result.gauge.name}": (f"{1e3 * statistics.median(result.gauges):.4g} ms median, "
                                       f"reference {1e3 * result.gauge.reference_s:.4g} ms"),
    }
    return result, metrics, extra


def traced_run(args, workdir):
    from probes import run_probes
    from spans import Recorder, instrument, layer_metrics

    recorder = Recorder()
    _, workload = measure_setup(args.workload, args.seed, workdir, recorder)
    plain = run_loop(workload, args.seconds / 2.0)
    restore = instrument(recorder)
    recorder.counting = True
    try:
        traced = run_loop(workload, None, recorder, max_ops=plain.attempted)
    finally:
        restore()
    layers = layer_metrics(recorder.spans, recorder.counters, traced.attempted)
    layers.update(cli_metrics(args.seed, workdir / "cli-probe"))
    layers["trace.overhead_pct"] = 100.0 * (1.0 - plain.ref_busy_s / traced.ref_busy_s)
    layers["check.max_rel_err"] = traced.max_rel_err or 0.0
    probes = run_probes(ROOT, workdir / "probes")
    layers["check.known_defects"] = sum(1 for ok, _ in probes.values() if not ok)
    result = LoopResult(latencies=plain.latencies + traced.latencies,
                        attempted=plain.attempted + traced.attempted,
                        failed=plain.failed + traced.failed,
                        failures=plain.failures + traced.failures)
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in units}
    extra = {f"probe {name}": ("ok" if ok else "DEFECT") + f" ({detail})"
             for name, (ok, detail) in probes.items()}
    return result, metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used by the parent run)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cmtk" / "__init__.py").is_file():
        print(f"error: no cmtk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one client on one CPU: the CLI children inherit this, so each op and
    # the gauges beside it run on the same, equally loaded, CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_work" / ("setup" if args.setup_only else "run")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            seconds, _ = measure_setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        run = traced_run if args.trace else plain_run
        result, metrics, extra = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result.attempted}  failed {result.failed}")
    for failure in result.failures:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for name, text in extra.items():
        print(f"  {name:28s} {text}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
