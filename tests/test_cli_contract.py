"""The CLI contract of ``cli_contract.ROWS`` in tier-1: every row in-process,
the rows with modules in a ``python -m cmtk.cli`` child, the row check made to
fail on a wrong row, and the README's examples read off the table."""

import os
import sys
from pathlib import Path

import pytest

from cli_contract import GOLDEN, ROWS, check_row, problems, run_in_process

TESTS = Path(__file__).resolve().parent
CHILD = (sys.executable, "-m", "cmtk.cli")


@pytest.fixture
def child_env(monkeypatch):
    """PYTHONPATH for ``python -m cmtk.cli`` children: the tree's src first."""
    paths = (str(TESTS.parent / "src"), os.environ.get("PYTHONPATH"))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
def test_row_in_process(row, tmp_path, monkeypatch):
    monkeypatch.delenv("CMTK_MAX_EVALS", raising=False)
    assert problems(row, *run_in_process(row, tmp_path)) == []


@pytest.mark.parametrize("row", [row for row in ROWS if row.not_loaded], ids=lambda row: row.name)
def test_row_in_a_child(row, child_env):
    assert check_row(row, CHILD) == []


@pytest.mark.parametrize("wrong", ["exit-code", "golden-byte", "not-loaded"])
def test_row_check_fails_a_wrong_row(wrong, child_env, tmp_path):
    # a check that cannot fail keeps no contract; the certify row as it is
    # passes in test_row_in_a_child
    row, golden = next(row for row in ROWS if row.name == "certify"), GOLDEN
    if wrong == "exit-code":
        row = row._replace(code=1)
    elif wrong == "golden-byte":
        flipped = bytearray((GOLDEN / "certify.json").read_bytes())
        flipped[40] ^= 1
        (tmp_path / "certify.json").write_bytes(flipped)
        golden = tmp_path
    else:  # certify runs classify
        row = row._replace(not_loaded=row.not_loaded | {"cmtk.classify"})
    found = check_row(row, CHILD, golden)
    assert found and all(line.startswith("certify: ") for line in found), found


def test_every_golden_has_its_row():
    rows = {row.stdout: row.code for row in ROWS if row.stdout}
    assert sorted(rows) == sorted(path.stem for path in GOLDEN.iterdir())
    for name, code in rows.items():
        assert f'"exit_code": {code}'.encode() in (GOLDEN / f"{name}.json").read_bytes(), name
    assert len({row.name for row in ROWS}) == len(ROWS)


def test_readme_examples_are_the_readme_rows():
    # a sequence file reads as seq.csv there; --out is no parameter a report echoes
    readme = (TESTS.parent / "README.md").read_text().splitlines()
    examples = [line.partition("#")[0].split() for line in readme if line.startswith("cmtk ")]
    rows = [["cmtk", *("seq.csv" if arg.endswith(".csv") else arg for arg in row.argv)]
            for row in ROWS if row.readme]
    assert len(examples) == 14
    assert examples == rows
