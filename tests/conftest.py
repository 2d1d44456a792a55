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


class _Capture(io.StringIO):
    """One standard stream, each write also copied to ``both``."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved as written


class Runner:
    """Runs the CLI in this process as the console script does, with its
    standard streams captured; any exception but SystemExit propagates."""

    def invoke(self, entry, args):
        both = io.StringIO()
        stdout, stderr = _Capture(both), _Capture(both)
        code = 0
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                entry(args, prog_name="wva-sim")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return Result(code, stdout.getvalue(), stderr.getvalue(), both.getvalue())


@pytest.fixture
def runner():
    return Runner()
