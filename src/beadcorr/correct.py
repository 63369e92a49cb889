"""Corrected background intensities E[S | P = p] for the seven models.

Closed forms where they exist, series where the model has one (with a
quadrature fallback outside the series convergence region), and quadrature
for the gamma-normal model.  Both quadrature routes run the batched tanh-sinh
engine (``quadrature.log_integrals``), once per array, and hand the genes it
cannot certify to the referee's QUADPACK.  Every corrector can report which
path produced its value; batch application never aborts on a single bad gene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import fft as sp_fft
from scipy import special as _sp
from scipy.integrate import quad  # noqa: F401  (perfbench/tracing.py wraps correct.quad)

from . import oracle, quadrature, series, specfun
from .dists import (ExpLognormal, ExpParams, GammaLognormal, GammaNormal,
                    GammaParams, GBGB, GBNormal, GBParams, LognormalParams,
                    ModelSpec, NormalParams, dist_logpdf, gb_support_upper)
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
_QUADRATURE_INFO = CorrectionInfo(path="quadrature")


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
# Quadrature: the gamma-normal corrector and the series correctors' fallback
# ---------------------------------------------------------------------------

#: quadrature setting of the gamma-normal corrector, tighter than the default
_GAMMA_NORMAL_QCFG = oracle.QuadConfig(rel_tol=1e-11)

_LOG_TINY = math.log(1e-300)


def _quadrature_means(ps, m: ModelSpec, qcfg: oracle.QuadConfig):
    """Posterior means of the genes ps by the batched tanh-sinh engine.

    The engine's target is qcfg.rel_tol; genes whose error estimate misses
    it go to the referee's QUADPACK at qcfg.  Returns, per gene, the value or
    the BeadcorrError that refuses it.
    """
    logs, _, ok = quadrature.log_integrals(ps, m, (0, 1), qcfg.rel_tol)
    out = []
    for p, lden, lnum, good in zip(np.asarray(ps, dtype=float).tolist(),
                                   logs[0].tolist(), logs[1].tolist(), ok.tolist()):
        try:
            if not good:
                out.append(oracle.posterior_mean_quadrature(p, m, qcfg))
            elif lden < _LOG_TINY:
                raise NumericUnderflowError(
                    f"marginal density underflowed at p={p}; posterior mean "
                    f"undefined in floating point")
            else:
                out.append(math.exp(lnum - lden))
        except BeadcorrError as exc:
            out.append(exc)
    return out


def _quadrature_mean(p, m, qcfg):
    value = _quadrature_means([p], m, qcfg)[0]
    if isinstance(value, BeadcorrError):
        raise value
    return value


def correct_gamma_normal(p, g: GammaParams, b: NormalParams,
                         qcfg: oracle.QuadConfig = None) -> float:
    """Posterior mean under gamma + normal by tanh-sinh quadrature.

    qcfg.rel_tol is the engine's target (default 1e-11); a gene the engine
    cannot certify goes to the referee's QUADPACK at qcfg.
    """
    return _quadrature_mean(p, GammaNormal(g, b), qcfg or _GAMMA_NORMAL_QCFG)


def gamma_normal_grid(p_max, g: GammaParams, b: NormalParams, resolution,
                      max_points):
    """Gamma-normal marginal density on a uniform grid of p, by FFT.

    Spacing h = min(sigma, beta)/resolution.  The noise grid spans
    mu +- 12 sigma; the signal grid s starts at 0 and ends at
    max(p_max - mu + 12 sigma, h).  That end is enough: the convolution at
    p = b + s reads signal nodes s = p - b with b >= mu - 12 sigma, so no p
    <= p_max reads a signal node past p_max - mu + 12 sigma, and the gamma
    mass beyond it never reaches a requested point.  Returns (p grid, the
    marginal density f_P on it).  Requires alpha >= 1 so the gridded signal
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
    # full linear convolution, zero-padded to a fast real-FFT length
    n_fft = sp_fft.next_fast_len(n_p, real=True)
    den = sp_fft.irfft(sp_fft.rfft(fs, n_fft) * sp_fft.rfft(fb, n_fft), n_fft)
    return p_grid, den[:n_p] * h


# ---------------------------------------------------------------------------
# Series correctors with quadrature fallback
# ---------------------------------------------------------------------------

def _exp_lognormal_plan(p, e: ExpParams, l: LognormalParams):
    if p <= 0:
        raise DomainError(f"correct_exp_lognormal requires p > 0, got {p}")
    shift = l.mu + 0.5 * l.sigma ** 2
    return (series.exp_lognormal_den_series, series.exp_lognormal_num_series,
            lambda lnum, lden: p - math.exp(shift + lnum - lden))


def _gamma_lognormal_plan(p, g: GammaParams, l: LognormalParams):
    if p <= 0:
        raise DomainError(f"correct_gamma_lognormal requires p > 0, got {p}")
    return (series.gamma_lognormal_den_series, series.gamma_lognormal_num_series,
            lambda lnum, lden: p * math.exp(lnum - lden))


def _gb_plan(p, s: GBParams, b: GBParams):
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not (0 < p < upper):
        raise DomainError(f"p={p} outside the convolution support (0, {upper})")
    return (series.gb_pair_den_series, series.gb_pair_num_series,
            lambda lnum, lden: p * math.exp(lnum - lden))


def _gb_normal_plan(p, s: GBParams, b: NormalParams):
    if p <= 0:
        raise DomainError(f"correct_gb_normal requires p > 0, got {p}")
    return (series.gb_normal_den_series, series.gb_normal_num_series,
            lambda lnum, lden: (p - b.mu) * math.exp(lnum - lden))


#: per series family: (p, signal, noise) -> (den series, num series,
#: value_of(log num, log den)); raises DomainError outside the model's domain
_SERIES_PLANS = {
    "exp_lognormal": _exp_lognormal_plan,
    "gamma_lognormal": _gamma_lognormal_plan,
    "gb_gb": _gb_plan,
    "gb_normal": _gb_normal_plan,
}


def _series_value(p, m: ModelSpec, cfg):
    """(value, None) from the series, or (None, reason) for quadrature.

    Genes outside the convergence region, series that cancel or fail, and
    values outside (0, p) go to quadrature with the reason recorded.
    """
    den_series, num_series, value_of = _SERIES_PLANS[m.kind](p, m.signal, m.noise)
    if not series.convergence_ok(m, p, cfg):
        return None, "outside series convergence region"
    try:
        den = den_series(p, m.signal, m.noise, cfg)
        num = num_series(p, m.signal, m.noise, cfg)
        if den.sign <= 0 or num.sign <= 0:
            return None, "series cancellation"
        value = value_of(num.log_abs, den.log_abs)
    except SeriesError as exc:
        return None, str(exc)
    if not (0.0 < value < p):
        return None, "series value escaped (0, p)"
    return value, None


def _series_correct(p, m, cfg, qcfg, with_info):
    """Series route shared by the series correctors, with quadrature fallback."""
    value, reason = _series_value(p, m, cfg)
    if reason is None:
        return _with_info(value, _SERIES_INFO, with_info)
    value = _quadrature_mean(p, m, qcfg or oracle.QuadConfig())
    return _with_info(value, CorrectionInfo(path="quadrature", fallback_reason=reason),
                      with_info)


def correct_exp_lognormal(p, e: ExpParams, l: LognormalParams,
                          cfg: series.SeriesConfig = series.SeriesConfig(),
                          qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity p - E[B | P = p] under exponential + lognormal."""
    return _series_correct(p, ExpLognormal(e, l), cfg, qcfg, with_info)


def correct_gamma_lognormal(p, g: GammaParams, l: LognormalParams,
                            cfg: series.SeriesConfig = series.SeriesConfig(),
                            qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under gamma + lognormal: p times the kernel ratio."""
    return _series_correct(p, GammaLognormal(g, l), cfg, qcfg, with_info)


def correct_gb(p, s: GBParams, b: GBParams,
               cfg: series.SeriesConfig = series.SeriesConfig(),
               qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under the GB + GB convolution."""
    return _series_correct(p, GBGB(s, b), cfg, qcfg, with_info)


def correct_gb_normal(p, s: GBParams, b: NormalParams,
                      cfg: series.SeriesConfig = series.SeriesConfig(),
                      qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under the GB + normal convolution."""
    # GBNormal validates b.mu > 0
    return _series_correct(p, GBNormal(s, b), cfg, qcfg, with_info)


# ---------------------------------------------------------------------------
# Whole-array application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneDiagnostic:
    index: int
    path: str           # 'closed' | 'series' | 'quadrature' | 'error'
    error: Optional[str] = None


def _route(p, m: ModelSpec, cfg, variant):
    """(value, CorrectionInfo) of one gene's closed-form or series route.

    The value is None where quadrature must answer: every gamma_normal gene
    and the series genes that fall back.  variant picks the exp_normal form.
    """
    kind = m.kind
    if kind == "exp_normal":
        fn = correct_mbcb if variant == "mbcb" else correct_rma
        return fn(p, m.signal, m.noise), _CLOSED_INFO
    if kind == "exp_gamma":
        return correct_exp_gamma(p, m.signal, m.noise), _CLOSED_INFO
    if kind == "gamma_normal":
        return None, _QUADRATURE_INFO
    if kind in _SERIES_PLANS:
        value, reason = _series_value(p, m, cfg)
        if reason is None:
            return value, _SERIES_INFO
        return None, CorrectionInfo(path="quadrature", fallback_reason=reason)
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def _quadrature_cfg(m: ModelSpec, qcfg):
    """The gamma-normal corrector's own setting, else qcfg or the default."""
    if m.kind == "gamma_normal":
        return _GAMMA_NORMAL_QCFG
    return qcfg or oracle.QuadConfig()


def _correct_one(p, m: ModelSpec, cfg, variant, qcfg=None):
    """(value, CorrectionInfo) of one gene; variant picks the exp_normal form.

    qcfg sets the quadrature fallback of the series correctors.
    """
    value, info = _route(p, m, cfg, variant)
    if value is None:
        value = _quadrature_mean(p, m, _quadrature_cfg(m, qcfg))
    return value, info


def _error_diagnostic(i, exc):
    return GeneDiagnostic(index=i, path="error", error=f"{type(exc).__name__}: {exc}")


def correct_array(observed, m: ModelSpec,
                  cfg: series.SeriesConfig = series.SeriesConfig(),
                  exp_normal_variant: str = "rma",
                  qcfg: oracle.QuadConfig = None):
    """Apply the model's corrector to every gene of an array.

    Closed forms and series run gene by gene; the genes that need quadrature
    (every gamma_normal gene, the series genes that fall back) go to the
    tanh-sinh engine in one call.  Order is preserved and a failing gene
    never aborts the batch: its output is NaN and the diagnostic row records
    the error.  qcfg sets the quadrature fallback of the series correctors
    (default oracle.QuadConfig()).  Returns (corrected array, list of
    GeneDiagnostic).
    """
    observed = np.asarray(observed, dtype=float)
    corrected = np.full(observed.shape, math.nan)
    diags = []
    pending = []
    for i, p in enumerate(observed.tolist()):
        try:
            value, info = _route(p, m, cfg, exp_normal_variant)
        except BeadcorrError as exc:
            diags.append(_error_diagnostic(i, exc))
            continue
        if value is None:
            pending.append(i)
        else:
            corrected[i] = value
        diags.append(GeneDiagnostic(index=i, path=info.path, error=info.fallback_reason))
    if pending:
        values = _quadrature_means(observed[pending], m, _quadrature_cfg(m, qcfg))
        for i, value in zip(pending, values):
            if isinstance(value, BeadcorrError):
                diags[i] = _error_diagnostic(i, value)
            else:
                corrected[i] = value
    return corrected, diags
