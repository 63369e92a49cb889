"""Helpers shared by the test modules.

``child_env`` is the environment of every Python child process a test
starts: this checkout's ``src`` comes first on its PYTHONPATH, ahead of any
value already set, so the child imports the beadcorr under test whether or
not the test run itself was given a PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
