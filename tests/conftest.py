import contextlib
import io
from dataclasses import dataclass
from datetime import timedelta

import pytest
from hypothesis import settings

settings.register_profile(
    "default", max_examples=50, deadline=timedelta(milliseconds=20000)
)
settings.load_profile("default")


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str


class Runner:
    """Runs the CLI in this process as the console script does, with its
    standard streams captured; any exception but SystemExit propagates."""

    def invoke(self, entry, args):
        stdout, stderr = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                entry(args, prog_name="wva-sim")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return Result(code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture
def runner():
    return Runner()
