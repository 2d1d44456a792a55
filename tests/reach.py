"""Statement reach: ``PYTHONPATH=src python -m pytest -p tests.reach`` fails
the session, naming each function-body statement of ``src/wva_sim``
(docstrings aside) of which no line ran in this process or its threads."""

import ast
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wva_sim"
# (file name, line) of a statement that only a child interpreter runs -> why
ALLOWED: dict[tuple[str, int], str] = {}
ran = set()


def _trace(frame, event, arg):  # at a call, traces the frame's lines if it runs the package
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def pytest_sessionstart(session):
    threading.settrace(_trace)
    sys.settrace(_trace)


def unreached(path):
    """``(file name, line, source)`` of each statement in a function of
    ``path`` of which no line ran; a constant's, such as a docstring, has none."""
    lines = path.read_text().splitlines()
    for function in ast.walk(ast.parse(path.read_text())):
        for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
            if (node is function or not isinstance(node, ast.stmt)
                    or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    or (path.name, node.lineno) in ALLOWED):
                continue
            if all((str(path), n) not in ran for n in range(node.lineno, node.end_lineno + 1)):
                yield path.name, node.lineno, lines[node.lineno - 1].strip()


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    missed = sorted({where for path in PACKAGE.glob("*.py") for where in unreached(path)})
    if missed:
        report = "".join("\nunreached: src/wva_sim/{}:{}: {}".format(*where) for where in missed)
        session.config.get_terminal_writer().line(report)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
