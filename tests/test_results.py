"""The committed results are what the README's commands write now.

Each figure is run again in-process with the README's arguments and compared
with its committed CSV and ``.fit.json``, line by line: every number written
with a decimal point or an exponent (a float) must agree with the committed
one to 1e-12 relative, and all other text, integers included, must match
exactly.  The oracle's default grid is compared with ``oracle_validation.csv``
row by row: ``p_click_exact`` and ``diff_exact`` to 1e-12 relative,
``rel_error`` to 1e-12 absolute (NaN equal to NaN), every other cell exactly.
So a change that moves the bytes of either fails here until ``results/`` is
regenerated.  The README's Python blocks are run as written, each in a fresh
interpreter.
"""

import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wva_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def assert_current(fresh: str, committed: str, name: str) -> None:
    fresh_lines, committed_lines = fresh.splitlines(), committed.splitlines()
    assert len(fresh_lines) == len(committed_lines), name
    for line, (new, old) in enumerate(zip(fresh_lines, committed_lines), 1):
        # the split alternates text and numbers, so odd pieces are numbers
        new_parts, old_parts = NUMBER.split(new), NUMBER.split(old)
        where = f"{name}:{line}: {new!r} vs {old!r}"
        assert len(new_parts) == len(old_parts), where
        for i, (a, b) in enumerate(zip(new_parts, old_parts)):
            if i % 2 and any(c in b for c in ".eE"):
                assert math.isclose(float(a), float(b), rel_tol=1e-12), where
            else:
                assert a == b, where


@pytest.mark.parametrize(
    "command,stem", [("fig3", "phase_scan"), ("fig4", "differential_scan")]
)
def test_committed_monte_carlo_results_are_current(runner, tmp_path, command, stem):
    out = tmp_path / f"{stem}.csv"
    result = runner.invoke(
        main,
        [command, "--seed", "20260808", "--trials-scale", "1", "--workers", "2", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    for suffix in (".csv", ".fit.json"):
        name = stem + suffix
        assert_current((tmp_path / name).read_text(), (RESULTS / name).read_text(), name)


def oracle_rows(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def test_committed_oracle_results_are_current(runner, tmp_path):
    out = tmp_path / "oracle_validation.csv"
    result = runner.invoke(main, ["oracle-validate", "--out", str(out)])
    assert result.exit_code == 0, result.output
    fresh = oracle_rows(out.read_text())
    committed = oracle_rows((RESULTS / "oracle_validation.csv").read_text())
    assert len(fresh) == len(committed)
    tolerances = {"p_click_exact": (1e-12, 0.0), "diff_exact": (1e-12, 0.0), "rel_error": (0.0, 1e-12)}
    for i, (new, old) in enumerate(zip(fresh, committed)):
        assert list(new) == list(old), i
        for column, value in new.items():
            where = f"row {i}, {column}: {value} against committed {old[column]}"
            if column not in tolerances:
                assert value == old[column], where
                continue
            x, y = float(value), float(old[column])
            rel, abs_ = tolerances[column]
            if math.isnan(x) or math.isnan(y):
                assert math.isnan(x) and math.isnan(y), where
            else:
                assert x == y or abs(x - y) <= max(rel * abs(x), abs_), where


def test_readme_python_blocks_run_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for block in blocks:
        run = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120
        )
        assert run.returncode == 0, block + run.stderr
        outputs.append(run.stdout)
    # the fock block's first print, which its comment states
    assert outputs[1].splitlines()[0] == "(12, 3)"
