"""Steadiness runs: the benchmark ten times per workload, each with its own seed.

    python3 perfbench/steady.py --workloads float-fit,series --seeds 501-510 --seconds 20
    python3 perfbench/steady.py --seeds 501-510 --write perfbench/baseline.json

Runs ``run.py --trace 0`` one run at a time, and prints for each end-to-end
metric of each workload the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, beside a third of the metric's bound in BENCHMARK.json.  A spread
above that third (``setup_s`` excepted) is marked ``WIDE``.  With
``--write`` it also records the runs as the baseline, with the
environment, the git SHA and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[1:-1]:
        name, _, text = line.strip().partition("  ")
        if text and name not in result["metrics"]:
            printed[name] = text.strip()
    return result, printed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med}


def environment():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}"}


def git_sha():
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_range, default=seed_range("501-510"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--write", type=Path, help="record the runs as the baseline in this file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from run import workload_class

    started = time.perf_counter()
    workloads = {}
    for name in args.workloads.split(","):
        runs = [one_run(name, seed, args.seconds) for seed in args.seeds]
        metrics = {}
        for metric, m in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            metrics[metric] = {**spread(values), "unit": m["unit"], "values": values}
            wide = metric != "setup_s" and metrics[metric]["iqr_over_median"] > m["bound"] / 3
            print(f"{name:14s} {metric:16s} median {metrics[metric]['median']:12.6g} {m['unit']:4s} "
                  f"iqr/median {metrics[metric]['iqr_over_median']:.3f}  bound/3 {m['bound'] / 3:.3f}"
                  + ("  WIDE" if wide else ""), flush=True)
        mixdir = ROOT / ".perfbench_work" / "mix"
        mixdir.mkdir(parents=True, exist_ok=True)
        mix = [op.kind for op in workload_class(name)(args.seeds[0], mixdir).cycle(0)]
        shutil.rmtree(ROOT / ".perfbench_work")
        workloads[name] = {
            "why": why[name],
            "op_mix_per_cycle": mix,
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r, _ in runs),
            "ops_per_run": [r["attempted"] for r, _ in runs],
            "metrics": metrics,
            "printed_only": {key: [printed.get(key) for _, printed in runs] for key in runs[0][1]},
        }
    elapsed = time.perf_counter() - started
    print(f"{len(args.seeds) * len(workloads)} runs in {elapsed:.0f} s")
    if args.write:
        src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))
        args.write.write_text(json.dumps({
            "note": (f"Baseline of the cmtk benchmark: one run per seed and workload, --seconds "
                     f"{args.seconds}, --trace 0, {elapsed:.0f} s in all.  Quartiles as "
                     "statistics.quantiles(values, n=4) gives them.  Times are at reference host "
                     "speed (see README.md); printed_only holds the lines above the JSON line."),
            "src_git_sha": git_sha(),
            "src_lines": src_lines,
            "environment": environment(),
            "run_seconds": args.seconds,
            "workloads": workloads,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
