"""Run the `svsec` command line inside the test process."""

from __future__ import annotations

import contextlib
import io
import sys

from svsec.cli import main


class Result:
    """How a command line ended: its exit code, what it printed to stdout
    and stderr (interleaved, in one string), and the `SystemExit` that
    ended it with a nonzero code.  An exception that escapes `main`, a
    traceback in a real process, is raised to the test."""

    def __init__(self, exit_code: int, output: str,
                 exception: SystemExit | None):
        self.exit_code = exit_code
        self.output = output
        self.exception = exception


def invoke(*args: str) -> Result:
    """`svsec args`, run as the console script runs it:
    `sys.exit(main(argv))`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            sys.exit(main(list(args)))
        except SystemExit as exc:
            done = exc
    return Result(done.code, buf.getvalue(), done if done.code else None)
