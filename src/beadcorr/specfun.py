"""Special functions used by the densities, series, and score equations.

All gamma/beta evaluation happens in log space; callers exponentiate at the
boundary.  Everything here is pure and stateless.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError

#: Euler-Mascheroni constant (psi(1) = -EULER_GAMMA).
EULER_GAMMA = 0.5772156649015328606

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(x):
    """Natural log of the gamma function for x > 0."""
    if np.any(np.asarray(x) <= 0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return _sp.gammaln(x)


def beta_fn(u, v):
    """Beta function B(u, v) = Gamma(u)Gamma(v)/Gamma(u+v), computed in log space."""
    if u <= 0 or v <= 0:
        raise DomainError(f"beta_fn requires positive arguments, got ({u}, {v})")
    return math.exp(log_beta(u, v))


def log_beta(u, v):
    """log B(u, v); arguments may be scalars or arrays of positive reals."""
    return _sp.gammaln(u) + _sp.gammaln(v) - _sp.gammaln(u + v)


def digamma(x):
    """Digamma psi(x) for x > 0."""
    if np.any(np.asarray(x) <= 0):
        raise DomainError(f"digamma requires x > 0, got {x}")
    return _sp.psi(x)


def digamma_any(x):
    """Digamma extended to negative non-integer arguments by reflection.

    Needed by the score series, whose binomial-coefficient derivatives land on
    psi(v - l) with l exceeding v.  Poles (nonpositive integers) return +/-inf.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = _sp.psi(x[pos])
    neg = ~pos
    if np.any(neg):
        xn = x[neg]
        # psi(x) = psi(1-x) - pi/tan(pi*x)
        out[neg] = _sp.psi(1.0 - xn) - math.pi / np.tan(math.pi * xn)
    return out if out.ndim else float(out)


def log_lower_incomplete_gamma(s, x):
    """log of the unregularized lower incomplete gamma integral of
    t^(s-1)e^(-t) on (0, x); -inf at x = 0.  Finite where the integral
    itself underflows."""
    if s <= 0:
        raise DomainError(f"lower_incomplete_gamma requires s > 0, got s={s}")
    if x < 0:
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return -math.inf
    p = _sp.gammainc(s, x)
    if p > 1e-290:
        return _sp.gammaln(s) + math.log(p)
    # Regularized form underflowed (x << s): small-x series
    # gamma(s,x) = x^s e^{-x} sum_k x^k / (s(s+1)...(s+k)).
    term = 1.0 / s
    total = term
    k = 0
    while True:
        k += 1
        term *= x / (s + k)
        total += term
        if term < 1e-18 * total or k > 10000:
            break
    return s * math.log(x) - x + math.log(total)


def lower_incomplete_gamma(s, x):
    """Unregularized lower incomplete gamma integral of t^(s-1)e^(-t) on (0, x)."""
    return math.exp(log_lower_incomplete_gamma(s, x))


def std_normal_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / _SQRT_2PI
    return out if out.ndim else float(out)


def std_normal_cdf(z):
    """Standard normal CDF."""
    out = _sp.ndtr(z)
    return out if np.ndim(out) else float(out)


def std_normal_logpdf(z):
    z = np.asarray(z, dtype=float)
    out = -0.5 * z * z - _LOG_SQRT_2PI
    return out if out.ndim else float(out)


def std_normal_logcdf(z):
    out = _sp.log_ndtr(z)
    return out if np.ndim(out) else float(out)


def gen_binomial(r, k):
    """Generalized binomial coefficient r(r-1)...(r-k+1)/k! for real r, integer k >= 0."""
    if k < 0 or k != int(k):
        raise DomainError(f"gen_binomial requires integer k >= 0, got k={k}")
    k = int(k)
    out = 1.0
    for i in range(k):
        out *= (r - i) / (i + 1)
    return out


def gen_binomial_log_array(r, n):
    """(log|C(r,k)|, sign) for k = 0..n-1, by cumulative products.

    sign is 0 (with log -inf) once the coefficient is exactly zero, which
    happens iff r is a nonnegative integer < k; that exact cutoff is what the
    series code uses to terminate axes.  An array r gives one row per entry.
    """
    r = np.asarray(r, dtype=float)
    logs = np.zeros(r.shape + (n,))
    signs = np.ones(r.shape + (n,))
    if n == 1:
        return logs, signs
    fac = (r[..., None] - np.arange(n - 1)) / np.arange(1.0, n)
    with np.errstate(divide="ignore"):
        logs[..., 1:] = np.cumsum(np.log(np.abs(fac)), axis=-1)
    signs[..., 1:] = np.cumprod(np.sign(fac), axis=-1)
    logs[signs == 0] = -np.inf
    return logs, signs


def rising_binomial_log_array(q, n):
    """(log C(q+k-1, k), sign=+1) for k = 0..n-1 where q > 0.

    These are the coefficients of (1-t)^(-q); all positive, computed exactly
    through log-gamma.
    """
    k = np.arange(n)
    logs = _sp.gammaln(q + k) - _sp.gammaln(q) - _sp.gammaln(k + 1.0)
    return logs, np.ones(n)


def gaussian_moment_integral(n, lo, hi):
    """Integral of z^n * exp(-z^2/2) over [lo, hi] by exact recurrence.

    Unlike the incomplete-gamma formulation (which squares its arguments and
    loses the sign of negative limits), the recurrence
    I_n = [z^(n-1) e^(-z^2/2)]_(hi)^(lo) + (n-1) I_(n-2)
    is valid for all real limits.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"gaussian_moment_integral requires integer n >= 0, got {n}")
    if lo > hi:
        raise DomainError(f"gaussian_moment_integral requires lo <= hi, got ({lo}, {hi})")
    return gaussian_moment_table(int(n) + 1, lo, hi)[-1]


def _boundary_powers(z, nmax):
    """z^(n-1) * exp(-z^2/2) for n = 1..nmax-1, overflow-safe via logs."""
    out = np.zeros(max(nmax - 1, 0))
    if out.size == 0 or z == 0.0 or not math.isfinite(z):
        if out.size and z == 0.0:
            out[0] = 1.0  # z^0 e^0 with z=0 enters only at n=1
        return out
    n = np.arange(1, nmax)
    logs = (n - 1) * math.log(abs(z)) - 0.5 * z * z
    signs = np.sign(z) ** (n - 1)
    with np.errstate(over="ignore"):
        out = signs * np.exp(logs)
    return out


def _log_half_moment(n, t):
    """log of integral of z^n e^(-z^2/2) over (0, t), t >= 0; -inf at t = 0.

    Equals 2^((n-1)/2) * (lower incomplete gamma at ((n+1)/2, t^2/2)).
    """
    if t <= 0.0:
        return np.full(np.shape(n), -np.inf)
    n = np.asarray(n, dtype=float)
    s = 0.5 * (n + 1.0)
    x = 0.5 * t * t
    reg = _sp.gammainc(s, x)
    out = 0.5 * (n - 1.0) * math.log(2.0) + _sp.gammaln(s) + np.log(
        np.where(reg > 0, reg, 1.0))
    dead = reg <= 0.0
    if np.any(dead):
        for i in np.nonzero(dead)[0]:
            out[i] = (0.5 * (n[i] - 1.0) * math.log(2.0)
                      + log_lower_incomplete_gamma(s[i], x))
    return out


def gaussian_moment_table(count, lo, hi):
    """Vector of the integrals for n = 0..count-1; used by the series code.

    The two-term recurrence is exact but amplifies rounding error once
    n exceeds max(lo^2, hi^2); past that point each half-line piece is
    evaluated through the incomplete gamma function with its sign made
    explicit by splitting the range at zero.
    """
    if lo > hi:
        raise DomainError(f"gaussian moment limits out of order: ({lo}, {hi})")
    table = np.zeros(count)
    table[0] = _SQRT_2PI * (_sp.ndtr(hi) - _sp.ndtr(lo))
    if count == 1:
        return table
    blo = _boundary_powers(lo, count)
    bhi = _boundary_powers(hi, count)
    table[1] = blo[0] - bhi[0]
    z2 = max(lo * lo, hi * hi) if (math.isfinite(lo) and math.isfinite(hi)) \
        else float("inf")
    n_stable = min(count, int(z2) + 1)
    edge = (blo - bhi).tolist()
    run = table[:2].tolist()
    for n in range(2, n_stable):
        run.append(edge[n - 1] + (n - 1) * run[n - 2])
    table[2:n_stable] = run[2:]
    if n_stable < count:
        n_tail = np.arange(n_stable, count)
        with np.errstate(over="ignore"):
            if lo >= 0.0:
                vals = (np.exp(_log_half_moment(n_tail, hi))
                        - np.exp(_log_half_moment(n_tail, lo)))
            elif hi <= 0.0:
                vals = ((-1.0) ** n_tail
                        * (np.exp(_log_half_moment(n_tail, -lo))
                           - np.exp(_log_half_moment(n_tail, -hi))))
            else:
                vals = ((-1.0) ** n_tail * np.exp(_log_half_moment(n_tail, -lo))
                        + np.exp(_log_half_moment(n_tail, hi)))
        table[n_stable:] = vals
    return table
