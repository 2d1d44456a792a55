import contextlib
import io
import json
from dataclasses import dataclass
from datetime import timedelta

import pytest
from hypothesis import settings

from wva_sim.cli import main

settings.register_profile(
    "default", max_examples=50, deadline=timedelta(milliseconds=20000)
)
settings.load_profile("default")


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(tmp_path):
    """``run_cli(args, *, config=None)`` runs the CLI in this process as the
    console script does, with its standard streams captured; any exception
    but SystemExit propagates.  A ``config`` dict is written as JSON to a
    file in ``tmp_path`` and passed as ``--config`` right after the command
    name, ``args[0]``."""

    def run(args, *, config=None):
        if config is not None:
            path = tmp_path / "run_cli_config.json"
            path.write_text(json.dumps(config))
            args = [args[0], "--config", str(path), *args[1:]]
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                main(args, prog_name="wva-sim")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return Result(code, stdout.getvalue(), stderr.getvalue())

    return run
