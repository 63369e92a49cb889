"""Corrected background intensities E[S | P = p] for the seven models.

Closed forms where they exist, series where the model has one (with a
quadrature fallback outside the series convergence region), and direct
quadrature for the gamma-normal model.  Every corrector can report which path
produced its value; batch application never aborts on a single bad gene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import fft as sp_fft
from scipy import special as _sp
from scipy.integrate import quad

from . import oracle, series, specfun
from .dists import (ExpLognormal, ExpParams, GammaLognormal, GammaParams,
                    GBGB, GBNormal, GBParams, LognormalParams, ModelSpec,
                    NormalParams, dist_logpdf, gb_support_upper)
from .errors import (BeadcorrError, DomainError, InvalidParameterError,
                     NumericUnderflowError, SeriesError)


@dataclass(frozen=True)
class ExpNormalDerived:
    """Location of the conditional signal density under exponential + normal."""

    mu_sp: float

    @classmethod
    def derive(cls, p, e: ExpParams, b: NormalParams):
        return cls(mu_sp=p - b.mu - b.sigma ** 2 * e.theta)


@dataclass(frozen=True)
class CorrectionInfo:
    """How a corrected value was produced."""

    path: str                      # 'closed' | 'series' | 'quadrature'
    converged: bool = True
    fallback_reason: Optional[str] = None


_SERIES_INFO = CorrectionInfo(path="series")
_CLOSED_INFO = CorrectionInfo(path="closed")


def _with_info(value, info, with_info):
    return (value, info) if with_info else value


# ---------------------------------------------------------------------------
# Exponential signal + normal noise
# ---------------------------------------------------------------------------

def correct_rma(p, e: ExpParams, b: NormalParams) -> float:
    """Posterior mean with the conditional signal truncated to (0, p)."""
    if p <= 0:
        raise DomainError(f"correct_rma requires p > 0, got {p}")
    mu_sp = ExpNormalDerived.derive(p, e, b).mu_sp
    a = mu_sp / b.sigma
    bb = (p - mu_sp) / b.sigma
    # Phi(a) + Phi(bb) - 1 = Phi(a) - Phi(-bb), with -bb <= a always
    la = specfun.std_normal_logcdf(a)
    lmb = specfun.std_normal_logcdf(-bb)
    if la < math.log(1e-290):
        raise NumericUnderflowError(
            f"truncation probability underflowed at p={p} (both tails ~ 0)")
    denom = math.exp(la) * -math.expm1(min(lmb - la, 0.0))
    if denom <= 0.0:
        raise NumericUnderflowError(
            f"truncation probability vanished in floating point at p={p}")
    num = specfun.std_normal_pdf(a) - specfun.std_normal_pdf(bb)
    return mu_sp + b.sigma * num / denom


def correct_mbcb(p, e: ExpParams, b: NormalParams) -> float:
    """Posterior mean variant with the upper truncation bound sent to infinity."""
    if p <= 0:
        raise DomainError(f"correct_mbcb requires p > 0, got {p}")
    mu_sp = ExpNormalDerived.derive(p, e, b).mu_sp
    a = mu_sp / b.sigma
    # phi(a)/Phi(a) through logs; stable into the deep left tail
    mills = math.exp(specfun.std_normal_logpdf(a) - specfun.std_normal_logcdf(a))
    return mu_sp + b.sigma * mills


# ---------------------------------------------------------------------------
# Exponential signal + gamma noise
# ---------------------------------------------------------------------------

def _log_truncated_gamma_integral_nonpositive(a, lam, p):
    """log_truncated_gamma_integral at one float p > 0 for lam <= 0."""
    if lam == 0.0:
        return a * math.log(p) - math.log(a)
    mu = -lam
    x = mu * p
    if x < 700.0:
        # integral = p^a * sum_k x^k / (k! (a+k))
        term = 1.0 / a
        total = term
        k = 0
        while True:
            k += 1
            term *= x / k * (a + k - 1) / (a + k)
            total += term
            if term < 1e-18 * total and k > x:
                break
            if k > 100000:
                break
        return a * math.log(p) + math.log(total)
    # by parts: integral ~ e^x p^(a-1)/mu * sum_j (-1)^j prod_i (a-1-i) / x^j,
    # truncated at the smallest term (asymptotic, accurate for x >= 700)
    total, term, j = 1.0, 1.0, 0
    while True:
        j += 1
        new = -term * (a - j) / x
        if abs(new) >= abs(term) or j > 60:
            break
        total += new
        term = new
    return x + (a - 1.0) * math.log(p) - math.log(mu) + math.log(total)


def log_truncated_gamma_integral(a, lam, p):
    """log of integral of b^(a-1) exp(-lam*b) over (0, p); lam of any sign.

    p is a float (returns a float) or an array (returns an array).  lam > 0
    routes through the lower incomplete gamma, one call over all p; p where
    its regularized form underflows take the log-domain form.  lam <= 0 uses
    an all-positive-term series (entire in lam*p), switching to an
    integration-by-parts asymptotic expansion once -lam*p is large; both run
    per p.
    """
    if a <= 0:
        raise InvalidParameterError(f"shape must be positive, got {a}")
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0):
        raise DomainError(f"upper limit must be positive, got {arr.min()}")
    flat = arr.ravel()
    if lam > 0:
        x = lam * flat
        reg = _sp.gammainc(a, x)
        with np.errstate(divide="ignore"):
            out = -a * math.log(lam) + _sp.gammaln(a) + np.log(reg)
        low = reg <= 1e-290
        if low.any():
            # deep underflow of the regularized form
            out[low] = [-a * math.log(lam) + specfun.log_lower_incomplete_gamma(a, xi)
                        for xi in x[low].tolist()]
    else:
        out = np.array([_log_truncated_gamma_integral_nonpositive(a, lam, pi)
                        for pi in flat.tolist()])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def correct_exp_gamma(p, e: ExpParams, g: GammaParams) -> float:
    """Corrected intensity p - E[B | P = p] under exponential + gamma."""
    if p <= 0:
        raise DomainError(f"correct_exp_gamma requires p > 0, got {p}")
    lam = 1.0 / g.beta - e.theta
    num = log_truncated_gamma_integral(g.alpha + 1.0, lam, p)
    den = log_truncated_gamma_integral(g.alpha, lam, p)
    return p - math.exp(num - den)


# ---------------------------------------------------------------------------
# Gamma signal + normal noise (quadrature; optional FFT-grid backend)
# ---------------------------------------------------------------------------

#: ratio of the first knot to the integrand's peak location beyond which the
#: gamma-normal corrector adds a geometric ladder of knots below the first
_LADDER_GAP = 64.0


def _gamma_normal_integral(p, g: GammaParams, b: NormalParams, shape, qcfg):
    """Scaled integral of f_gamma(s; shape, beta) phi((p-s-mu)/sigma)/sigma over s>0.

    Returns (value, log shift).  The shift is the largest log integrand at the
    knots, at the analytic mode (the larger root of
    s^2 - c's - (shape-1) sigma^2 = 0 with c' = p - mu - sigma^2/beta) and,
    for shape <= 1, at s0 = sigma^2/(|c'| + sigma).  For shape > 1 the log
    integrand is concave and the mode is its maximum.  For shape <= 1 its
    largest values lie at s -> 0+ (or at a mode), and below s0 the log
    integrand exceeds its value at s0 by at most (1-shape) log(s0/s) + 1.5,
    so the scaled integrand cannot overflow.
    """
    sh1 = shape - 1.0
    inv_beta = 1.0 / g.beta
    inv_sig = 1.0 / b.sigma
    center = p - b.mu
    # the gamma knot is positive, so knots is never empty
    knots = sorted(k for k in (center - 8 * b.sigma, center, center + 8 * b.sigma,
                               sh1 * g.beta if shape > 1 else 0.5 * g.beta)
                   if k > 0)
    hi_knot = knots[-1]

    cp = center - b.sigma ** 2 * inv_beta
    disc = cp * cp + 4.0 * sh1 * b.sigma ** 2
    cand = list(knots)
    if disc >= 0.0:
        root = math.sqrt(disc)
        # the cancellation-free form of the larger root where c' < 0
        mode = (0.5 * (cp + root) if cp >= 0.0
                else 2.0 * sh1 * b.sigma ** 2 / (root - cp))
        if mode > 0.0:
            cand.append(mode)
    if shape <= 1.0:
        cand.append(b.sigma ** 2 / (abs(cp) + b.sigma))
    pts = np.array(cand)
    z = (pts - center) * inv_sig
    logf = sh1 * np.log(pts) - pts * inv_beta - 0.5 * z * z
    top = int(np.argmax(logf))
    peak, s_peak = float(logf[top]), float(pts[top])
    if s_peak * _LADDER_GAP < knots[0]:
        # the mass sits far below the first knot, where one wide QUADPACK
        # piece samples none of it: add knots s_peak * 8^j up to that knot
        knots[:0] = [s_peak * 8.0 ** j
                     for j in range(int(math.log(knots[0] / s_peak, 8.0)))]
    shift = (peak - shape * math.log(g.beta) - _sp.gammaln(shape)
             - math.log(b.sigma) - 0.5 * math.log(2.0 * math.pi))

    # scalar math: quad calls this thousands of times
    def f(s):
        if s <= 0.0:
            return 0.0
        z = (s - center) * inv_sig
        return math.exp(sh1 * math.log(s) - s * inv_beta - 0.5 * z * z - peak)

    span = 12.0 * max(b.sigma, g.beta)
    tail_start = hi_knot + span

    v1 = quad(f, 0.0, tail_start, points=knots,
              epsabs=0.0, epsrel=qcfg.rel_tol, limit=qcfg.max_subdivisions,
              full_output=1)[0]
    # remaining tail is pure gamma decay; negligible unless the shift sits there
    v2 = 0.0
    if f(tail_start) > math.exp(-700.0):
        v2 = quad(f, tail_start, np.inf, epsabs=qcfg.abs_tol, epsrel=qcfg.rel_tol,
                  limit=qcfg.max_subdivisions, full_output=1)[0]
    return v1 + v2, shift


def correct_gamma_normal(p, g: GammaParams, b: NormalParams,
                         qcfg: oracle.QuadConfig = None) -> float:
    """Posterior mean under gamma + normal by adaptive quadrature.

    The numerator uses the shape-shift identity s f(s; alpha) =
    alpha*beta f(s; alpha+1), so this path and the direct-integrand oracle
    check each other.
    """
    qcfg = qcfg or oracle.QuadConfig(rel_tol=1e-11)
    den, sd = _gamma_normal_integral(p, g, b, g.alpha, qcfg)
    if den <= 0.0 or math.log(den) + sd < math.log(1e-300):
        raise NumericUnderflowError(
            f"gamma-normal marginal underflowed at p={p}")
    num, sn = _gamma_normal_integral(p, g, b, g.alpha + 1.0, qcfg)
    return g.alpha * g.beta * num / den * math.exp(sn - sd)


def gamma_normal_grid(p_max, g: GammaParams, b: NormalParams, resolution,
                      max_points, with_mean=False):
    """Gamma-normal convolution integrals on a uniform grid of p, by FFT.

    Spacing h = min(sigma, beta)/resolution.  The noise grid spans
    mu +- 12 sigma; the signal grid s starts at 0 and ends at
    max(p_max - mu + 12 sigma, h).  That end is enough: the convolution at
    p = b + s reads signal nodes s = p - b with b >= mu - 12 sigma, so no p
    <= p_max reads a signal node past p_max - mu + 12 sigma, and the gamma
    mass beyond it never reaches a requested point.  Returns (p grid, the
    marginal density f_P on it) and, with_mean, also the integral of
    s f_S(s) f_B(p - s) on it.  Requires alpha >= 1 so the gridded signal
    density is bounded, and at most max_points signal nodes.
    """
    if g.alpha < 1.0:
        raise InvalidParameterError(
            "grid backend requires gamma shape >= 1 (bounded density)")
    h = min(b.sigma, g.beta) / resolution
    s_max = max(p_max - b.mu + 12.0 * b.sigma, h)
    n_s = int(s_max / h) + 1
    if n_s > max_points:
        raise InvalidParameterError(
            "grid backend resolution too fine for the parameter range")
    s = np.arange(n_s) * h
    fs = np.exp(dist_logpdf(g, s))
    b_lo = b.mu - 12.0 * b.sigma
    n_b = int(24.0 * b.sigma / h) + 1
    fb = np.exp(dist_logpdf(b, b_lo + np.arange(n_b) * h))
    n_p = n_s + n_b - 1
    p_grid = b_lo + np.arange(n_p) * h
    # full linear convolutions, zero-padded to a fast real-FFT length
    n_fft = sp_fft.next_fast_len(n_p, real=True)
    fb_hat = sp_fft.rfft(fb, n_fft)

    def convolve(x):
        return sp_fft.irfft(sp_fft.rfft(x, n_fft) * fb_hat, n_fft)[:n_p] * h

    if with_mean:
        return p_grid, convolve(fs), convolve(s * fs)
    return p_grid, convolve(fs)


def gamma_normal_grid_posterior(p_values, g: GammaParams, b: NormalParams,
                                resolution: int = 64):
    """Posterior means on a uniform grid via FFT convolution of the densities.

    Reproduces the grid-convolution approach for whole-array work; agrees with
    the quadrature path to ~1e-4 relative at the default resolution.  Requires
    alpha >= 1 so the gridded signal density is bounded.
    """
    p_values = np.asarray(p_values, dtype=float)
    p_grid, den, num = gamma_normal_grid(float(np.max(p_values)), g, b,
                                         resolution, 1 << 22, with_mean=True)
    den_i = np.interp(p_values, p_grid, den)
    num_i = np.interp(p_values, p_grid, num)
    if np.any(den_i <= 0):
        raise NumericUnderflowError("grid marginal vanished at a requested point")
    return num_i / den_i


# ---------------------------------------------------------------------------
# Series correctors with quadrature fallback
# ---------------------------------------------------------------------------

def _fallback(p, model, reason, qcfg, with_info):
    value = oracle.posterior_mean_quadrature(p, model, qcfg or oracle.QuadConfig())
    return _with_info(value, CorrectionInfo(path="quadrature", converged=True,
                                            fallback_reason=reason), with_info)


def _series_correct(p, model, den_series, num_series, value_of, cfg, qcfg,
                    with_info):
    """Series route shared by the series correctors, with quadrature fallback.

    value_of(log num, log den) turns the two kernel sums into the corrected
    value.  Genes outside the convergence region, series that cancel or fail,
    and values outside (0, p) go to quadrature with the reason recorded.
    """
    if not series.convergence_ok(model, p, cfg):
        return _fallback(p, model, "outside series convergence region", qcfg, with_info)
    try:
        den = den_series(p, model.signal, model.noise, cfg)
        num = num_series(p, model.signal, model.noise, cfg)
        if den.sign <= 0 or num.sign <= 0:
            return _fallback(p, model, "series cancellation", qcfg, with_info)
        value = value_of(num.log_abs, den.log_abs)
    except SeriesError as exc:
        return _fallback(p, model, str(exc), qcfg, with_info)
    if not (0.0 < value < p):
        return _fallback(p, model, "series value escaped (0, p)", qcfg, with_info)
    return _with_info(value, _SERIES_INFO, with_info)


def correct_exp_lognormal(p, e: ExpParams, l: LognormalParams,
                          cfg: series.SeriesConfig = series.SeriesConfig(),
                          qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity p - E[B | P = p] under exponential + lognormal."""
    if p <= 0:
        raise DomainError(f"correct_exp_lognormal requires p > 0, got {p}")
    shift = l.mu + 0.5 * l.sigma ** 2
    return _series_correct(
        p, ExpLognormal(e, l), series.exp_lognormal_den_series,
        series.exp_lognormal_num_series,
        lambda lnum, lden: p - math.exp(shift + lnum - lden), cfg, qcfg, with_info)


def correct_gamma_lognormal(p, g: GammaParams, l: LognormalParams,
                            cfg: series.SeriesConfig = series.SeriesConfig(),
                            qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under gamma + lognormal: p times the kernel ratio."""
    if p <= 0:
        raise DomainError(f"correct_gamma_lognormal requires p > 0, got {p}")
    return _series_correct(
        p, GammaLognormal(g, l), series.gamma_lognormal_den_series,
        series.gamma_lognormal_num_series,
        lambda lnum, lden: p * math.exp(lnum - lden), cfg, qcfg, with_info)


def correct_gb(p, s: GBParams, b: GBParams,
               cfg: series.SeriesConfig = series.SeriesConfig(),
               qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under the GB + GB convolution."""
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not (0 < p < upper):
        raise DomainError(f"p={p} outside the convolution support (0, {upper})")
    return _series_correct(
        p, GBGB(s, b), series.gb_pair_den_series, series.gb_pair_num_series,
        lambda lnum, lden: p * math.exp(lnum - lden), cfg, qcfg, with_info)


def correct_gb_normal(p, s: GBParams, b: NormalParams,
                      cfg: series.SeriesConfig = series.SeriesConfig(),
                      qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under the GB + normal convolution."""
    if p <= 0:
        raise DomainError(f"correct_gb_normal requires p > 0, got {p}")
    return _series_correct(
        p, GBNormal(s, b),  # validates b.mu > 0
        series.gb_normal_den_series, series.gb_normal_num_series,
        lambda lnum, lden: (p - b.mu) * math.exp(lnum - lden), cfg, qcfg, with_info)


# ---------------------------------------------------------------------------
# Whole-array application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneDiagnostic:
    index: int
    path: str           # 'closed' | 'series' | 'quadrature' | 'error'
    error: Optional[str] = None


def _correct_one(p, m: ModelSpec, cfg, variant, qcfg=None):
    """(value, CorrectionInfo) of one gene; variant picks the exp_normal form.

    qcfg sets the quadrature fallback of the series correctors.
    """
    kind = m.kind
    if kind == "exp_normal":
        fn = correct_mbcb if variant == "mbcb" else correct_rma
        return fn(p, m.signal, m.noise), _CLOSED_INFO
    if kind == "exp_gamma":
        return correct_exp_gamma(p, m.signal, m.noise), _CLOSED_INFO
    if kind == "gamma_normal":
        return correct_gamma_normal(p, m.signal, m.noise), CorrectionInfo("quadrature")
    if kind == "exp_lognormal":
        return correct_exp_lognormal(p, m.signal, m.noise, cfg, qcfg, with_info=True)
    if kind == "gamma_lognormal":
        return correct_gamma_lognormal(p, m.signal, m.noise, cfg, qcfg, with_info=True)
    if kind == "gb_gb":
        return correct_gb(p, m.signal, m.noise, cfg, qcfg, with_info=True)
    if kind == "gb_normal":
        return correct_gb_normal(p, m.signal, m.noise, cfg, qcfg, with_info=True)
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def correct_array(observed, m: ModelSpec,
                  cfg: series.SeriesConfig = series.SeriesConfig(),
                  exp_normal_variant: str = "rma",
                  qcfg: oracle.QuadConfig = None):
    """Apply the model's corrector gene by gene.

    Order is preserved and a failing gene never aborts the batch: its output
    is NaN and the diagnostic row records the error.  qcfg sets the
    quadrature fallback of the series correctors (default oracle.QuadConfig()).
    Returns (corrected array, list of GeneDiagnostic).
    """
    observed = np.asarray(observed, dtype=float)
    corrected = np.empty(observed.shape)
    diags = []
    for i, p in enumerate(observed):
        try:
            value, info = _correct_one(float(p), m, cfg, exp_normal_variant, qcfg)
            corrected[i] = value
            diags.append(GeneDiagnostic(index=i, path=info.path,
                                        error=info.fallback_reason))
        except BeadcorrError as exc:
            corrected[i] = math.nan
            diags.append(GeneDiagnostic(index=i, path="error",
                                        error=f"{type(exc).__name__}: {exc}"))
    return corrected, diags
