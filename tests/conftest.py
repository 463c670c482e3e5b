"""Fixtures shared by the test files."""

import os
import subprocess
import sys

import pytest


def _peak_rss_mb(argv, cwd):
    """Peak RSS in MB of ``alphasurf ARGV`` run in a child interpreter."""
    # an intermediate interpreter, so RUSAGE_CHILDREN sees that one child
    probe = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-m', 'alphasurf.cli', *{argv!r}],"
        " check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True).stdout
    return int(out) / 1024


@pytest.fixture
def peak_rss_mb():
    """``peak_rss_mb(argv, cwd)``, the peak RSS in MB of one CLI run; the
    test is skipped off Linux, where ``ru_maxrss`` is not in kilobytes."""
    if not sys.platform.startswith("linux"):
        pytest.skip("ru_maxrss is in kilobytes on Linux only")
    return _peak_rss_mb
