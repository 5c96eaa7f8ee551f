import contextlib
import io
import os
from unittest import mock

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "steinmle", max_examples=60, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("steinmle")


class _Captured(io.StringIO):
    """A captured stream that also copies each write into ``both``, so
    ``both`` holds the two streams interleaved as a terminal shows them."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, s):
        self.both.write(s)
        return super().write(s)


class Result:
    """One in-process CLI call: its exit code, its captured output, and the
    exception it ended with (None on success)."""

    def __init__(self, exit_code, exception, stdout, stderr, output):
        self.exit_code = exit_code
        self.exception = exception
        self.stdout = stdout
        self.stderr = stderr
        self.output = output

    @property
    def stdout_bytes(self):
        return self.stdout.encode()


class CliRunner:
    """Calls the CLI in process with stdout and stderr captured.

    ``exit_code`` is the code the call exits with (0 if it returns), and 1
    with ``exception`` set if it raises anything but ``SystemExit``; a
    ``SystemExit`` with a nonzero code is ``exception`` as well.  ``output``
    holds both streams interleaved.  ``env`` is laid over ``os.environ`` for
    the call.
    """

    def invoke(self, cli, args=(), env=None):
        both = io.StringIO()
        out, err = _Captured(both), _Captured(both)
        exit_code, exception = 0, None
        with mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            try:
                cli(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                exit_code = code if isinstance(code, int) else 1
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return Result(exit_code, exception, out.getvalue(), err.getvalue(), both.getvalue())


@pytest.fixture
def runner():
    return CliRunner()
