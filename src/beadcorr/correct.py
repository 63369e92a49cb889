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
from scipy import special as _sp
from scipy.integrate import quad
from scipy.signal import fftconvolve

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

def log_truncated_gamma_integral(a, lam, p):
    """log of integral of b^(a-1) exp(-lam*b) over (0, p); lam of any sign.

    lam > 0 routes through the lower incomplete gamma; lam <= 0 uses an
    all-positive-term series (entire in lam*p), switching to an integration-
    by-parts asymptotic expansion once lam*p is large.
    """
    if a <= 0:
        raise InvalidParameterError(f"shape must be positive, got {a}")
    if p <= 0:
        raise DomainError(f"upper limit must be positive, got {p}")
    if lam == 0.0:
        return a * math.log(p) - math.log(a)
    if lam > 0:
        x = lam * p
        reg = _sp.gammainc(a, x)
        if reg > 1e-290:
            return -a * math.log(lam) + _sp.gammaln(a) + math.log(reg)
        # deep underflow of the regularized form
        return -a * math.log(lam) + specfun.log_lower_incomplete_gamma(a, x)
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

def _gamma_normal_integral(p, g: GammaParams, b: NormalParams, shape, qcfg):
    """Scaled integral of f_gamma(s; shape, beta) phi((p-s-mu)/sigma)/sigma over s>0."""
    # scalar-math integrand: quad calls it thousands of times
    sh1 = shape - 1.0
    inv_beta = 1.0 / g.beta
    lnorm = -shape * math.log(g.beta) - _sp.gammaln(shape) \
        - math.log(b.sigma) - 0.5 * math.log(2.0 * math.pi)
    center = p - b.mu
    inv_sig = 1.0 / b.sigma

    def logf(s):
        if s <= 0.0:
            return -math.inf
        z = (s - center) * inv_sig
        return sh1 * math.log(s) - s * inv_beta - 0.5 * z * z + lnorm

    knots = sorted(k for k in (center - 8 * b.sigma, center, center + 8 * b.sigma,
                               sh1 * g.beta if shape > 1 else 0.5 * g.beta)
                   if k > 0)
    hi_knot = max(knots, default=1.0)
    probe = list(np.linspace(0, hi_knot * 1.5 + 1.0, 49)[1:]) + knots
    shift = max(logf(s) for s in probe)
    if not math.isfinite(shift):
        shift = 0.0

    def f(s):
        ls = logf(s) - shift
        return math.exp(ls) if ls > -745.0 else 0.0

    span = 12.0 * max(b.sigma, g.beta)
    tail_start = hi_knot + span

    v1 = quad(f, 0.0, tail_start, points=knots or None,
              epsabs=0.0, epsrel=qcfg.rel_tol, limit=qcfg.max_subdivisions,
              full_output=1)[0]
    # remaining tail is pure gamma decay; negligible unless the shift sits there
    v2 = 0.0
    if logf(tail_start) - shift > -700.0:
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
                      max_points):
    """Uniform grids for the FFT convolution of the gamma and normal densities.

    Spacing h = min(sigma, beta)/resolution; the signal grid s starts at 0 and
    reaches past both the gamma's 1 - 1e-13 quantile and p_max - mu + 12 sigma,
    the noise grid spans mu +- 12 sigma.  Returns (h, s, signal density,
    noise density, grid of p for the full convolution).  Requires alpha >= 1
    so the gridded signal density is bounded, and at most max_points signal
    nodes.
    """
    if g.alpha < 1.0:
        raise InvalidParameterError(
            "grid backend requires gamma shape >= 1 (bounded density)")
    h = min(b.sigma, g.beta) / resolution
    s_max = float(_sp.gammaincinv(g.alpha, 1.0 - 1e-13)) * g.beta
    s_max = max(s_max, p_max - b.mu + 12.0 * b.sigma)
    n_s = int(s_max / h) + 1
    if n_s > max_points:
        raise InvalidParameterError(
            "grid backend resolution too fine for the parameter range")
    s = np.arange(n_s) * h
    fs = np.exp(dist_logpdf(g, s))
    b_lo = b.mu - 12.0 * b.sigma
    n_b = int(24.0 * b.sigma / h) + 1
    fb = np.exp(dist_logpdf(b, b_lo + np.arange(n_b) * h))
    p_grid = b_lo + np.arange(n_s + n_b - 1) * h
    return h, s, fs, fb, p_grid


def gamma_normal_grid_posterior(p_values, g: GammaParams, b: NormalParams,
                                resolution: int = 64):
    """Posterior means on a uniform grid via FFT convolution of the densities.

    Reproduces the grid-convolution approach for whole-array work; agrees with
    the quadrature path to ~1e-4 relative at the default resolution.  Requires
    alpha >= 1 so the gridded signal density is bounded.
    """
    p_values = np.asarray(p_values, dtype=float)
    h, s, fs, fb, p_grid = gamma_normal_grid(float(np.max(p_values)), g, b,
                                             resolution, 1 << 22)
    den_i = np.interp(p_values, p_grid, fftconvolve(fs, fb) * h)
    num_i = np.interp(p_values, p_grid, fftconvolve(s * fs, fb) * h)
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
