"""Independent quadrature referee for marginals and posterior means.

This module deliberately knows nothing about the series code: it integrates
the convolution integrand directly (signal density times shifted noise
density) with adaptive quadrature, and is the ground truth every closed form
and series result is validated against.  It depends only on the special
functions and the densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .dists import (ExpParams, GammaParams, GBParams, ModelSpec, NormalParams,
                    dist_logpdf, dist_logpdf_scalar, dist_support)
from .errors import DomainError, NumericUnderflowError, QuadratureError

_LOG_TINY = math.log(1e-300)


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        # QUADPACK needs more subintervals than the (up to 3) interior knots
        if self.max_subdivisions < 4:
            raise DomainError("max_subdivisions must be >= 4")


def _signal_knots(signal):
    """Points at the signal's own scale: its mean, 12 standard deviations past
    it, and 40 scales past it, where its exponential tail has decayed by
    e^-40 (exponential, gamma); its scale d (GB)."""
    if isinstance(signal, ExpParams):
        mean = sd = scale = 1.0 / signal.theta
    elif isinstance(signal, GammaParams):
        scale = signal.beta
        mean, sd = signal.alpha * scale, math.sqrt(signal.alpha) * scale
    elif isinstance(signal, GBParams):
        return [signal.d]
    else:
        return []
    return [mean, mean + 12.0 * sd, mean + 40.0 * scale]


def _integration_domain(p, m: ModelSpec):
    """(lo, hi, interior knots) of the s-integral for observation p.

    Under normal noise the posterior mass lies at the noise centre p - mu
    when the noise is narrow against the signal, at the signal's own scale
    when it is wide, and within s0 = sigma^2/(|p - mu| + sigma) of s = 0 when
    the noise window reaches below 0 and the signal density is largest
    there.  All three get knots, and a ladder of knots a factor 8 apart runs
    from the smallest of them to the largest, so no QUADPACK piece is so
    wide against the mass at its ends that its nodes miss it.
    """
    sig_lo, sig_hi = dist_support(m.signal)
    noise = m.noise
    if isinstance(noise, NormalParams):
        lo, hi = 0.0, sig_hi
        center = p - noise.mu
        knots = [center - 8.0 * noise.sigma, center, center + 8.0 * noise.sigma]
        knots += _signal_knots(m.signal)
        if center - 8.0 * noise.sigma < 0.0:
            knots.append(noise.sigma ** 2 / (abs(center) + noise.sigma))
        inside = [k for k in knots if lo < k < hi]
        if inside:
            rung, top = min(inside), max(inside)
            while rung < top:
                knots.append(rung)
                rung *= 8.0
    else:
        _, noise_hi = dist_support(noise)
        lo = max(0.0, p - noise_hi)
        hi = min(p, sig_hi)
        knots = [lo + (hi - lo) * f for f in (0.25, 0.5, 0.75)] if hi > lo else []
    knots = sorted(k for k in knots if lo < k < hi)
    return lo, hi, knots


def _log_integrand_peak(p, m, lo, hi, extra=()):
    """Coarse scan for the largest log-integrand value, used as a scale shift."""
    if not math.isfinite(hi):
        span = [lo + 10.0 ** e for e in range(-3, 9)]
    else:
        span = list(np.linspace(lo, hi, 65)[1:-1])
    pts = np.array([x for x in list(span) + list(extra) if lo < x < hi])
    if pts.size == 0:
        return 0.0
    vals = dist_logpdf(m.signal, pts) + dist_logpdf(m.noise, p - pts)
    peak = float(np.max(vals))
    return peak if math.isfinite(peak) else 0.0


def _quad_piece(f, a, b, knots, q: QuadConfig):
    # full_output=1 keeps QUADPACK quiet; failures surface via the error estimate
    if math.isinf(b):
        res = quad(f, a, b, epsabs=q.abs_tol, epsrel=q.rel_tol,
                   limit=q.max_subdivisions, full_output=1)
    else:
        # QUADPACK needs more subintervals than knots
        pts = sorted({k for k in knots if a < k < b}) or None
        res = quad(f, a, b, points=pts, epsabs=q.abs_tol, epsrel=q.rel_tol,
                   limit=max(q.max_subdivisions, len(pts or ()) + 1), full_output=1)
    val, err = res[0], res[1]
    if abs(val) > 0 and err > max(q.abs_tol * 10.0, 10.0 * q.rel_tol * abs(val)):
        raise QuadratureError(
            f"quadrature error estimate {err:.2e} exceeds tolerance for value {val:.6e}")
    return val


def _convolution_integral(p, m, q, moment=0):
    """Scaled integral of s^moment f_S(s) f_B(p-s); returns (value, log_shift)."""
    lo, hi, knots = _integration_domain(p, m)
    if not (hi > lo):
        return 0.0, 0.0
    shift = _log_integrand_peak(p, m, lo, hi, extra=knots)
    lsig = dist_logpdf_scalar(m.signal)
    lnoise = dist_logpdf_scalar(m.noise)

    def f(s):
        ls = lsig(s) + lnoise(p - s) - shift
        if ls < -745.0:
            return 0.0
        v = math.exp(ls)
        return v * s ** moment if moment else v

    if math.isinf(hi):
        split = max([k for k in knots] + [lo + 1.0])
        val = _quad_piece(f, lo, split, knots, q) + _quad_piece(f, split, hi, [], q)
    else:
        val = _quad_piece(f, lo, hi, knots, q)
    return val, shift


def marginal_pdf_quadrature(p, m: ModelSpec, q: QuadConfig = QuadConfig()) -> float:
    """Density of P = S + B at p by direct adaptive integration."""
    val, shift = _convolution_integral(p, m, q, moment=0)
    if val <= 0.0:
        return 0.0
    return math.exp(math.log(val) + shift)


def marginal_log_pdf_quadrature(p, m: ModelSpec, q: QuadConfig = QuadConfig()) -> float:
    """log marginal density; -inf where no mass."""
    val, shift = _convolution_integral(p, m, q, moment=0)
    if val <= 0.0:
        return -math.inf
    return math.log(val) + shift


def posterior_mean_quadrature(p, m: ModelSpec, q: QuadConfig = QuadConfig()) -> float:
    """E[S | P = p]: the corrected intensity, computed from the definition.

    Numerator and denominator share the same scale shift, so the ratio stays
    accurate even where the marginal is far below the floating-point range;
    the marginal itself must still be representable, otherwise the result
    would be extrapolation and an underflow error is raised.
    """
    den, shift = _convolution_integral(p, m, q, moment=0)
    if den <= 0.0 or math.log(max(den, 1e-308)) + shift < _LOG_TINY:
        raise NumericUnderflowError(
            f"marginal density underflowed at p={p}; posterior mean undefined "
            f"in floating point")
    num, shift_num = _convolution_integral(p, m, q, moment=1)
    # both integrals used their own peak shift; reconcile
    return num / den * math.exp(shift_num - shift) if shift_num != shift else num / den
