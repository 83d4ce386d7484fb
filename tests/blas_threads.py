"""Run a snippet in fresh interpreters at one and at two BLAS threads."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def stdout_at_one_and_two_threads(snippet):
    """The snippet's stdout under OPENBLAS_NUM_THREADS=1, then under 2."""
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                             text=True, env=env)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    return out
