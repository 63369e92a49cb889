"""``bfgs.minimize`` against SciPy's BFGS, which it ports step for step.

On each case both run from the same start with the same gradient tolerance,
iteration budget and first inverse Hessian, and must reach the same x and
value, bit for bit, with the same verdict, iterations and evaluations.  Two
cases go through SciPy's ``line_search_wolfe2`` fallback, once where it
fails too and once where it rescues the search.
"""

import math

import numpy as np
import pytest
from scipy import optimize
from scipy.optimize import _optimize

from beadcorr import bfgs


def rosenbrock(x):
    return optimize.rosen(x), optimize.rosen_der(x)


A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def quadratic(x):
    return float(0.5 * x @ A @ x - x.sum()), A @ x - 1.0


WALL_MIN = np.array([2.0, -1.0])


def walled(x):
    """A quadratic whose minimum, at x0 = 2, lies past a wall at x0 = 1
    where the value is +inf: no step along the wall meets the curvature
    condition."""
    if x[0] > 1.0:
        return math.inf, np.zeros_like(x)
    d = x - WALL_MIN
    return float(d @ d), 2.0 * d


def nan_past_wall(x):
    d = x - WALL_MIN
    return (math.nan if x[0] > 1.0 else float(d @ d)), 2.0 * d


def nan_gradient(x):
    return float(np.sum((x - 1.0) ** 2)), np.full_like(x, math.nan)


def scipy_bfgs(fun, x0, gtol, max_iter, hess_inv0, monkeypatch):
    """SciPy's result, and for each of its ``line_search_wolfe2`` fallbacks
    whether it rescued the search."""
    fallbacks = []
    inner = _optimize.line_search_wolfe2

    def fallback(*args, **kwargs):
        out = inner(*args, **kwargs)
        fallbacks.append(out[0] is not None)
        return out

    monkeypatch.setattr(_optimize, "line_search_wolfe2", fallback)
    res = optimize.minimize(fun, np.array(x0, dtype=float), method="BFGS", jac=True,
                            options={"gtol": gtol, "maxiter": max_iter,
                                     "hess_inv0": hess_inv0})
    return res, fallbacks


CASES = {
    # first trials fail on both Rosenbrocks, and dcstep interpolates
    "rosenbrock_2d": (rosenbrock, [-1.2, 1.0], 1e-5, 400, None, "gtol", []),
    "rosenbrock_5d": (rosenbrock, [1.3, 0.7, 0.8, 1.9, 1.2], 1e-5, 1000, None, "gtol", []),
    "quadratic_with_hess_inv0": (quadratic, [3.0, -2.0, 1.0], 1e-10, 600,
                                 0.7 * np.linalg.inv(A) + 0.05 * np.eye(3), "gtol", []),
    # both searches fail against the wall, and the start ends before it
    "inf_past_a_wall": (walled, [0.0, 0.0], 1e-8, 400, None, "line_search", [False]),
    # the fallback accepts a step onto the NaN, which then stops the start
    "nan_past_a_wall": (nan_past_wall, [0.0, 0.0], 1e-8, 400, None, "not_finite", [True]),
    "max_iter": (rosenbrock, [-1.2, 1.0], 1e-5, 7, None, "max_iter", []),
    "nan_gradient": (nan_gradient, [0.0, 3.0], 1e-8, 400, None, "not_finite", []),
}


@pytest.mark.parametrize("case", CASES)
def test_same_bits_as_scipy(case, monkeypatch):
    fun, x0, gtol, max_iter, h0, stop, fallbacks = CASES[case]
    ours = bfgs.minimize(fun, x0, gtol, max_iter, h0)
    ref, ref_fallbacks = scipy_bfgs(fun, x0, gtol, max_iter, h0, monkeypatch)
    assert ref_fallbacks == fallbacks
    assert ours.stop == stop
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.fun.hex() == float(ref.fun).hex()
    assert ours.success == ref.success == (stop == "gtol")
    assert ours.nit == ref.nit
    assert ours.nfev == ref.nfev
    if case.startswith("rosenbrock"):
        assert ours.nfev > ours.nit + 1

