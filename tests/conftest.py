"""Helpers shared by the test modules.

``child_env`` is the environment of every Python child process a test
starts: this checkout's ``src`` comes first on its PYTHONPATH, ahead of any
value already set, so the child imports the beadcorr under test whether or
not the test run itself was given a PYTHONPATH.

``gb_charts_ending_below`` gives GB charts whose boxes hold every GB
support end below half of a value: a fit whose noise is GB then has no
start at which the controls above that end have density.
"""

import math
import os
from pathlib import Path

from beadcorr import estimate
from beadcorr.dists import GBParams

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def gb_charts_ending_below(top):
    """The GB charts with a boxed above 1, c below 1/2 and d below top/4, so
    that every support end d/(1 - c)^(1/a) lies at or below top/2."""
    a, c, d, u, v = estimate._CHARTS[GBParams]
    return (a._replace(lo=0.0), c._replace(hi=0.0), d._replace(hi=math.log(top / 4.0)), u, v)
