"""Determinism checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The same seed must give byte-identical inputs and identical work counts;
another seed must change the inputs but keep the op mix.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import LoopResult, run_one  # noqa: E402
from run import WORKLOADS, workload_class  # noqa: E402
from spans import Recorder, instrument  # noqa: E402


def _build(name, seed, tmp_path, recorder=None):
    return workload_class(name)(seed, tmp_path / f"{name}-{seed}", recorder)


def _counts(name, seed, tmp_path):
    """Work counts of one traced pass over the workload's warm-up ops and,
    except for the slow exact cycle, its first cycle."""
    recorder = Recorder()
    recorder.counting = True
    workload = _build(name, seed, tmp_path, recorder)
    ops = list(workload.warmup())
    if name != "exact-certify":
        workload.inprocess = True
        ops += workload.cycle(1)
    restore = instrument(recorder)
    try:
        result = LoopResult()
        for i, op in enumerate(ops):
            run_one(op, result, recorder, i)
    finally:
        restore()
    assert result.failed == 0, result.failures
    tables = [s.info for s in recorder.spans if s.name == "seqcore.difference_table"]
    return {
        "seqcore.tables_built": len(tables),
        "seqcore.entries_built": sum(t[1] for t in tables),
        "classify.certify_calls": sum(1 for s in recorder.spans if s.name == "classify.certify"),
        "funcops.handle_evals": recorder.counters["funcops.handle_evals"],
        "webster.g_evals": recorder.counters["webster.g_evals"],
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = [(op.kind, op.key) for op in _build(name, 7, tmp_path / "a").cycle(0)]
    b = [(op.kind, op.key) for op in _build(name, 7, tmp_path / "b").cycle(0)]
    assert a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs_same_mix(name, tmp_path):
    a = _build(name, 7, tmp_path / "a").cycle(1)
    b = _build(name, 8, tmp_path / "b").cycle(1)
    assert [op.kind for op in a] == [op.kind for op in b]
    assert sum(x.key != y.key for x, y in zip(a, b)) >= len(a) - 1


@pytest.mark.parametrize("name, cycles", [("exact-certify", 3), ("float-fit", 200), ("series", 15)])
def test_inputs_do_not_repeat_within_a_run(name, cycles, tmp_path):
    workload = _build(name, 7, tmp_path)
    keys = [op.key for i in range(cycles) for op in workload.cycle(i)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counts(name, tmp_path):
    first = _counts(name, 7, tmp_path / "a")
    assert first == _counts(name, 7, tmp_path / "b")
    assert first["seqcore.tables_built"] > 0
