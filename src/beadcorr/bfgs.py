"""BFGS with the Moré-Thuente line search, step for step as SciPy takes it.

``minimize`` follows SciPy's ``minimize(method="BFGS", jac=True)``
(SciPy's ``_minimize_bfgs`` and its ``_line_search_wolfe12``), in the same
floating-point order, so that it visits the same points and returns the same
bits:

* the inverse-Hessian update of Nocedal & Wright (Numerical Optimization,
  2nd ed., eq. 6.17), H <- A1 (H A2) + rho s s^T with A1 = I - rho s y^T,
  A2 = I - rho y s^T, and rho = 1000 where y^T s = 0;
* the first trial step min(1, 1.01 * 2 (f - f_prev)/g^T p), 1 where that
  is negative, with f_prev = f0 + |g0|/2 on the first iteration;
* the line search of Moré & Thuente (ACM TOMS 20 (1994) 286-307), a port of
  MINPACK-2's ``dcsrch`` and ``dcstep`` with c1 = 1e-4, c2 = 0.9,
  xtol = 1e-14, steps in [1e-100, 1e100] and at most 100 trials;
* where that search fails, SciPy's fallback ``scalar_search_wolfe2``:
  Nocedal & Wright's Algorithm 3.5, doubling the step up to 10 times, with
  its zoom (Algorithm 3.6) by cubic, quadratic or bisection steps over at
  most 11 trials;
* the stops: max |g| <= gtol, the iteration budget, a value that is not
  finite, and a search that fails both ways.  SciPy's step tolerance xrtol,
  0 by default, stops only on a step whose length underflows to 0; it is
  left out.

A trial at +inf fails the Armijo test, and since its cubic step is not
finite, the Moré-Thuente search fails there unless its interval has stalled
(then it bisects), as SciPy's ``dcsrch`` does; the fallback then bisects
back from it.  Where both searches fail, the minimization ends at
the last accepted point, as SciPy's does on "precision loss".  NumPy only;
the objective is evaluated once per new point, where SciPy would evaluate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: the line search's sufficient-decrease and curvature constants, its
#: relative width tolerance, step bounds and trial budget (SciPy's
#: ``line_search_wolfe1`` as its BFGS calls it)
_C1, _C2, _XTOL = 1e-4, 0.9, 1e-14
_STPMIN, _STPMAX = 1e-100, 1e100
_MAX_TRIALS = 100
#: the fallback's step doublings and zoom trials, and its zoom's margins for
#: a cubic and a quadratic step (SciPy's ``scalar_search_wolfe2``)
_MAX_DOUBLINGS, _MAX_ZOOM = 10, 11
_CUBIC_MARGIN, _QUAD_MARGIN = 0.2, 0.1


@dataclass(frozen=True)
class Result:
    """The last accepted point x, its value fun, the objective's evaluations
    nfev, the iterations nit, and why the minimization stopped: "gtol",
    "line_search" (both searches failed), "max_iter" or "not_finite"."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    stop: str

    @property
    def success(self):
        return self.stop == "gtol"


def minimize(fun, x0, gtol, max_iter, hess_inv0=None) -> Result:
    """Minimize fun(x) -> (value, gradient) from x0 by BFGS, starting from
    the inverse Hessian hess_inv0 (the identity where None), until
    max |gradient| <= gtol or max_iter iterations."""
    nfev = 0
    last = None

    def evaluate(x):
        # a point equal to the last one is not evaluated again
        nonlocal nfev, last
        if last is None or not np.array_equal(x, last[0]):
            f, g = fun(x)
            last = x, float(f), np.asarray(g, dtype=float)
            nfev += 1
        return last[1:]

    x = np.array(x0, dtype=float).ravel()
    f, g = evaluate(x)
    eye = np.eye(x.size)
    h = eye if hess_inv0 is None else hess_inv0
    f_prev = f + float(np.linalg.norm(g)) / 2
    gnorm, k, stop = np.amax(np.abs(g)), 0, None
    while gnorm > gtol and k < max_iter:
        p = -np.dot(h, g)
        step = (_line_search(evaluate, x, p, f, g, f_prev)
                or _fallback_search(evaluate, x, p, f, g, f_prev))
        if step is None:
            stop = "line_search"
            break
        alpha, f_new, g_new = step
        s = alpha * p
        x = x + s
        y = g_new - g
        f_prev, f, g = f, f_new, g_new
        k += 1
        gnorm = np.amax(np.abs(g))
        if gnorm <= gtol:
            break
        if not math.isfinite(f):
            stop = "not_finite"
            break
        rho_inv = float(np.dot(y, s))
        rho = 1000.0 if rho_inv == 0.0 else 1.0 / rho_inv
        a1 = eye - s[:, None] * y[None, :] * rho
        a2 = eye - y[:, None] * s[None, :] * rho
        h = np.dot(a1, np.dot(h, a2)) + (rho * s[:, None] * s[None, :])
    if stop is None:
        stop = ("max_iter" if k >= max_iter else
                "not_finite" if np.isnan(gnorm) or math.isnan(f) or np.isnan(x).any() else
                "gtol")
    return Result(x, f, nfev, k, stop)


def _line_search(evaluate, x, p, f0, g0, f_prev):
    """Moré-Thuente along p from x: (step, value, gradient) at a step that
    satisfies the strong Wolfe conditions, or None where the search fails
    (MINPACK-2's ``dcsrch``)."""
    d0 = float(np.dot(g0, p))
    stp = 1.0
    if d0 != 0:
        stp = min(1.0, 1.01 * 2 * (f0 - f_prev) / d0)
        if stp < 0:
            stp = 1.0
    if stp < _STPMIN or stp > _STPMAX or d0 >= 0:
        return None
    brackt, stage = False, 1
    gtest = _C1 * d0
    width, width1 = _STPMAX - _STPMIN, (_STPMAX - _STPMIN) / 0.5
    stx = sty = 0.0
    fx = fy = f0
    gx = gy = d0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for trial in range(_MAX_TRIALS):
        if trial:
            ftest = f0 + stp * gtest
            if stage == 1 and f <= ftest and d >= 0:
                stage = 2
            if f <= ftest and abs(d) <= _C2 * -d0:
                return stp, f, g
            if (brackt and (stp <= stmin or stp >= stmax or stmax - stmin <= _XTOL * stmax)
                    or stp == _STPMAX and f <= ftest and d <= gtest
                    or stp == _STPMIN and (f > ftest or d >= gtest)):
                return None
            with np.errstate(all="ignore"):
                if stage == 1 and f <= fx and f > ftest:
                    # the modified function psi(t) = f(t) - f0 - t gtest
                    stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                        stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest, gy - gtest,
                        stp, f - stp * gtest, d - gtest, brackt, stmin, stmax)
                    fx, fy = fxm + stx * gtest, fym + sty * gtest
                    gx, gy = gxm + gtest, gym + gtest
                else:
                    stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                        stx, fx, gx, sty, fy, gy, stp, f, d, brackt, stmin, stmax)
                if brackt:
                    if abs(sty - stx) >= 0.66 * width1:
                        stp = stx + 0.5 * (sty - stx)
                    width1, width = width, abs(sty - stx)
                    stmin, stmax = min(stx, sty), max(stx, sty)
                else:
                    stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
                stp = min(max(stp, _STPMIN), _STPMAX)
                if brackt and (stp <= stmin or stp >= stmax
                               or stmax - stmin <= _XTOL * stmax):
                    stp = stx
            if not math.isfinite(stp):
                return None
        f, g = evaluate(x + stp * p)
        d = float(np.dot(g, p))
    return None


def _fallback_search(evaluate, x, p, f0, g0, f_prev):
    """SciPy's ``scalar_search_wolfe2`` along p from x, where the
    Moré-Thuente search failed: (step, value, gradient), or None where it
    fails too.  After 10 doublings without a bracket it takes the last step,
    Wolfe or not, as SciPy does."""

    def phi(a):
        return evaluate(x + a * p)[0]

    def dphi(a):
        return np.dot(evaluate(x + a * p)[1], p)

    d0 = np.dot(g0, p)
    a1 = 1.0
    if d0 != 0:
        a1 = min(1.0, 1.01 * 2 * (f0 - f_prev) / d0)
    if a1 < 0:
        a1 = 1.0
    a1 = min(a1, _STPMAX)
    a0, fa0, da0 = 0, f0, d0
    fa1 = phi(a1)
    for i in range(_MAX_DOUBLINGS):
        if a1 == 0 or a0 > _STPMAX:
            return None
        if fa1 > f0 + _C1 * a1 * d0 or (fa1 >= fa0 and i > 0):
            a1 = _zoom(phi, dphi, a0, a1, fa0, fa1, da0, f0, d0)
            break
        da1 = dphi(a1)
        if abs(da1) <= -_C2 * d0:
            break
        if da1 >= 0:
            a1 = _zoom(phi, dphi, a1, a0, fa1, fa0, da1, f0, d0)
            break
        a0, a1 = a1, min(2 * a1, _STPMAX)
        fa0, fa1, da0 = fa1, phi(a1), da1
    if a1 is None:
        return None
    return (a1, *evaluate(x + a1 * p))


def _zoom(phi, dphi, a_lo, a_hi, f_lo, f_hi, d_lo, f0, d0):
    """The fallback's zoom into [a_lo, a_hi]: a step that satisfies the
    strong Wolfe conditions, or None after 11 trials."""
    f_rec, a_rec = f0, 0
    for i in range(_MAX_ZOOM):
        width = a_hi - a_lo
        a, b = (a_hi, a_lo) if width < 0 else (a_lo, a_hi)
        if i > 0:
            margin = _CUBIC_MARGIN * width
            a_j = _cubicmin(a_lo, f_lo, d_lo, a_hi, f_hi, a_rec, f_rec)
        if i == 0 or a_j is None or a_j > b - margin or a_j < a + margin:
            margin = _QUAD_MARGIN * width
            a_j = _quadmin(a_lo, f_lo, d_lo, a_hi, f_hi)
            if a_j is None or a_j > b - margin or a_j < a + margin:
                a_j = a_lo + 0.5 * width
        f_j = phi(a_j)
        if f_j > f0 + _C1 * a_j * d0 or f_j >= f_lo:
            f_rec, a_rec = f_hi, a_hi
            a_hi, f_hi = a_j, f_j
        else:
            d_j = dphi(a_j)
            if abs(d_j) <= -_C2 * d0:
                return a_j
            if d_j * (a_hi - a_lo) >= 0:
                f_rec, a_rec = f_hi, a_hi
                a_hi, f_hi = a_lo, f_lo
            else:
                f_rec, a_rec = f_lo, a_lo
            a_lo, f_lo, d_lo = a_j, f_j, d_j
    return None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """The minimizer of the cubic through (a, fa) with slope fpa, (b, fb)
    and (c, fc), or None where it is not finite or any step of it divides
    by zero, overflows or is undefined."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db, dc = b - a, c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0], d1[0, 1] = dc ** 2, -db ** 2
            d1[1, 0], d1[1, 1] = -dc ** 3, db ** 3
            q, r = np.dot(d1, np.asarray([fb - fa - fpa * db, fc - fa - fpa * dc]).flatten())
            q /= denom
            r /= denom
            xmin = a + (-r + np.sqrt(r * r - 3 * q * fpa)) / (3 * q)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """The minimizer of the parabola through (a, fa) with slope fpa and
    (b, fb), or None as for ``_cubicmin``."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a * 1.0
            q = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * q)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of Moré-Thuente (MINPACK-2's ``dcstep``): the
    new best step, the new other end of the interval, the trial step and
    whether a minimizer is bracketed, in NumPy's float arithmetic, where a
    division by zero or a NaN carries on as inf or NaN."""
    stx, fx, dx, sty, fy, dy, stp, fp, dp, stpmin, stpmax = np.array(
        [stx, fx, dx, sty, fy, dy, stp, fp, dp, stpmin, stpmax])
    sgnd = np.sign(dp) * np.sign(dx)
    if fp > fx:
        # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp < stx:
            gamma = -gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) <= abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # derivatives of opposite sign: the minimum is bracketed
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # same sign, smaller derivative: the cubic only if it reaches a minimum
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - (dx / s) * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    elif brackt:
        # same sign, no smaller derivative: the cubic through sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt
