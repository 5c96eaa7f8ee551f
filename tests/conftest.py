import contextlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import hypothesis
import pytest

import steinmle

# The source tree whose package the tests import, for fresh interpreters too.
SRC = os.path.dirname(os.path.dirname(steinmle.__file__))

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


def strict_json(text):
    """``text`` parsed as strict JSON, which has no Infinity or NaN."""

    def refuse(constant):
        raise AssertionError(f"{constant} in the JSON output, which strict JSON cannot carry")

    return json.loads(text, parse_constant=refuse)


def run_python(*args, timeout=120, **kwargs):
    """``python *args`` in a fresh interpreter that imports the package from ``SRC``."""
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=timeout, **kwargs)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def mp():
    """mpmath, for the checks against it: they skip where it is not
    installed, and no other test imports it."""
    return pytest.importorskip("mpmath")


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` wraps ``owner.name`` for the test and returns the
    list it keeps of each call's arguments, positional then keyword values."""

    def wrap(owner, name):
        calls, original = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a + tuple(k.values()))
                            or original(*a, **k))
        return calls

    return wrap
