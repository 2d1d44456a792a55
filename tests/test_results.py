"""The committed results are what the README's commands write now.

Each ``wva-sim ... --out results/<file>`` line of the README's ``sh`` blocks
is run again in-process as written, but writing to a temporary directory.
A figure's CSV and ``.fit.json`` are compared with the committed ones line
by line: every number written with a decimal point or an exponent (a float)
must agree with the committed one to 1e-12 relative, and all other text,
integers included, must match exactly.  The oracle's ``#`` header must match
``oracle_validation.csv``'s exactly, and its rows are compared row by row:
``p_click_exact`` and ``diff_exact`` to 1e-12 relative, ``rel_error`` to
1e-12 absolute (NaN equal to NaN), every other cell exactly.
So a change that moves the bytes of either fails here until ``results/`` is
regenerated.  The README's Python blocks are run as written, each in a fresh
interpreter.
"""

import csv
import math
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def readme_args(name: str, out_dir: Path) -> list[str]:
    """The arguments of the README's ``wva-sim ... --out results/<name>`` line,
    with the output moved to ``out_dir``."""
    sh = "".join(re.findall(r"^```sh\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M))
    (args,) = re.findall(rf"^wva-sim (.*) --out results/{re.escape(name)}$", sh, re.M)
    return [*shlex.split(args), "--out", str(out_dir / name)]


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
def test_committed_monte_carlo_results_are_current(run_cli, tmp_path, command, stem):
    args = readme_args(f"{stem}.csv", tmp_path)
    assert args[0] == command
    result = run_cli(args)
    assert result.exit_code == 0, result.stderr
    for suffix in (".csv", ".fit.json"):
        name = stem + suffix
        assert_current((tmp_path / name).read_text(), (RESULTS / name).read_text(), name)


def oracle_header_and_rows(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    return header, list(csv.DictReader(line for line in lines if not line.startswith("#")))


def test_committed_oracle_results_are_current(run_cli, tmp_path):
    result = run_cli(readme_args("oracle_validation.csv", tmp_path))
    assert result.exit_code == 0, result.stderr
    fresh_header, fresh = oracle_header_and_rows((tmp_path / "oracle_validation.csv").read_text())
    header, committed = oracle_header_and_rows((RESULTS / "oracle_validation.csv").read_text())
    assert fresh_header == header
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


def test_readme_python_blocks_run_as_written(run_python):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 2
    outputs = []
    for block in blocks:
        run = run_python("-c", block, text=True)
        assert run.returncode == 0, block + run.stderr
        outputs.append(run.stdout)
    # the fock block's first print, which its comment states
    assert outputs[1].splitlines()[0] == "(12, 3)"
