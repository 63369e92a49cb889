"""Corrected background intensities E[S | P = p] for the seven models.

Closed forms where they exist, series where the model has one (with a
quadrature fallback outside the series convergence region), and quadrature
for the gamma-normal model.  A series array runs the array gate
(``series.gate``) and one den and one num kernel call on the genes it
accepts (``series.batch_series``, each gene on its own box); the public
correctors run the same route on one gene.  Both quadrature routes run the
batched tanh-sinh engine (``quadrature.log_integrals``), once per array, and
hand the genes it cannot certify to the referee's QUADPACK.  Every corrector can report which
path produced its value; batch application never aborts on a single bad gene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import special as _sp

from . import oracle, quadrature, series, specfun
from .dists import (ExpLognormal, ExpParams, GammaLognormal, GammaNormal,
                    GammaParams, GBGB, GBNormal, GBParams, LognormalParams,
                    ModelSpec, NormalParams, dist_logpdf, gb_support_upper)
from .errors import (BeadcorrError, DomainError, InvalidParameterError,
                     NumericUnderflowError)
# unused here: QUADPACK runs only inside the referee, but perfbench/tracing.py
# wraps correct.quad as well as oracle.quad, so the attribute must exist
from .oracle import quad  # noqa: F401


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
    """log_truncated_gamma_integral over a float array p > 0 for lam <= 0.

    Both sums run over all p at once; each p leaves its sum at its own
    stopping term, the one the sum would stop at alone.
    """
    if lam == 0.0:
        return a * np.log(p) - math.log(a)
    mu = -lam
    x = mu * p
    out = np.empty_like(x)
    small = x < 700.0
    # integral = p^a * sum_k x^k / (k! (a+k))
    xs = x[small]
    sums = np.empty_like(xs)
    live = np.arange(xs.size)
    term = np.full(xs.size, 1.0 / a)
    total = term.copy()
    k = 0
    while live.size:
        k += 1
        term *= xs[live] / k * (a + k - 1) / (a + k)
        total += term
        stop = ((term < 1e-18 * total) & (k > xs[live])) | (k > 100000)
        sums[live[stop]] = total[stop]
        live, term, total = live[~stop], term[~stop], total[~stop]
    out[small] = a * np.log(p[small]) + np.log(sums)
    # by parts: integral ~ e^x p^(a-1)/mu * sum_j (-1)^j prod_i (a-1-i) / x^j,
    # truncated at the smallest term (asymptotic, accurate for x >= 700)
    xl = x[~small]
    sums = np.empty_like(xl)
    live = np.arange(xl.size)
    term = np.ones(xl.size)
    total = term.copy()
    j = 0
    while live.size:
        j += 1
        new = -term * (a - j) / xl[live]
        stop = (np.abs(new) >= np.abs(term)) | (j > 60)
        sums[live[stop]] = total[stop]
        go = ~stop
        live, term, total = live[go], new[go], total[go] + new[go]
    out[~small] = xl + (a - 1.0) * np.log(p[~small]) - math.log(mu) + np.log(sums)
    return out


def log_truncated_gamma_integral(a, lam, p):
    """log of integral of b^(a-1) exp(-lam*b) over (0, p); lam of any sign.

    p is a float (returns a float) or an array (returns an array).  lam > 0
    routes through the lower incomplete gamma, one call over all p; p where
    its regularized form underflows take the log-domain form.  lam <= 0 uses
    an all-positive-term series (entire in lam*p), switching to an
    integration-by-parts asymptotic expansion once -lam*p is large; both sum
    over all p at once.
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
        out = _log_truncated_gamma_integral_nonpositive(a, lam, flat)
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


#: half-width, in noise standard deviations, of the grid's noise window
_GRID_WIDTHS = 12.0
#: endpoint terms of the generalized Euler-Maclaurin expansion the density
#: subtracts (k = 0..3)
_ENDPOINT_ORDERS = np.arange(4)
#: relative step in alpha of the central difference of zeta(1 - alpha - k)
_ZETA_STEP = 1e-6


def _grid_step(g: GammaParams, b: NormalParams, resolution):
    """The grid step h = min(sigma, beta)/resolution and its derivatives
    with respect to (alpha, beta, mu, sigma)."""
    by_sigma = b.sigma <= g.beta
    return (min(b.sigma, g.beta) / resolution,
            np.array([0.0, float(not by_sigma), 0.0, float(by_sigma)]) / resolution)


def gamma_normal_grid(p_max, g: GammaParams, b: NormalParams, resolution,
                      max_points, grad=False):
    """Gamma-normal marginal density on a uniform grid of p, by FFT.

    Spacing h = min(sigma, beta)/resolution.  The noise grid spans
    mu +- 12 sigma; the signal grid s starts at 0 and ends at
    max(p_max - mu + 12 sigma, h).  That end is enough: the convolution at
    p = b + s reads signal nodes s = p - b with b >= mu - 12 sigma, so no p
    <= p_max reads a signal node past p_max - mu + 12 sigma, and the gamma
    mass beyond it never reaches a requested point.  Node i sits at
    p_i = mu - 12 sigma + i h and holds the Riemann sum
    h sum_{k >= 1} f_S(kh) f_B(p_i - kh) (the s = 0 node reads 0);
    ``gamma_normal_density`` adds its endpoint terms.  Returns (p grid, the
    sums on it) and, with grad, a (4, nodes) array: the derivative of every
    node's sum with respect to (alpha, beta, mu, sigma) with the node held
    at its index i, so through h and the grid's start as well.  Requires
    alpha >= 1 so the gridded signal density is bounded, and at most
    max_points signal nodes.
    """
    if g.alpha < 1.0:
        raise InvalidParameterError(
            "grid backend requires gamma shape >= 1 (bounded density)")
    from scipy import fft as sp_fft

    h, d_h = _grid_step(g, b, resolution)
    s_max = max(p_max - b.mu + _GRID_WIDTHS * b.sigma, h)
    n_s = int(s_max / h) + 1
    if n_s > max_points:
        raise InvalidParameterError(
            "grid backend resolution too fine for the parameter range")
    s = np.arange(n_s) * h
    fs = np.exp(dist_logpdf(g, s))
    b_lo = b.mu - _GRID_WIDTHS * b.sigma
    n_b = int(2.0 * _GRID_WIDTHS * b.sigma / h) + 1
    y = np.arange(n_b) * h
    fb = np.exp(dist_logpdf(b, b_lo + y))
    n_p = n_s + n_b - 1
    p_grid = b_lo + np.arange(n_p) * h
    # full linear convolution, zero-padded to a fast real-FFT length
    n_fft = sp_fft.next_fast_len(n_p, real=True)
    f_s, f_b = sp_fft.rfft(fs, n_fft), sp_fft.rfft(fb, n_fft)
    den = sp_fft.irfft(f_s * f_b, n_fft)[:n_p] * h
    if not grad:
        return p_grid, den
    # with the node index held, the noise values phi(y/sigma - 12)/sigma do
    # not move with mu, and move with sigma through 1/sigma and y/sigma;
    # d/dh at a held index is D/h + conv(s f_S', f_B) + conv(f_S, y f_B')
    z = y / b.sigma - _GRID_WIDTHS
    log_s = np.log(np.where(s > 0.0, s, 1.0))
    f_alpha, f_beta, f_slope = sp_fft.rfft(np.stack([
        fs * (log_s - math.log(g.beta) - _sp.psi(g.alpha)),
        fs * (s / g.beta ** 2 - g.alpha / g.beta),
        fs * ((g.alpha - 1.0) - s / g.beta)]), n_fft)
    f_sigma, f_step = sp_fft.rfft(np.stack([
        fb * (z * z + _GRID_WIDTHS * z - 1.0) / b.sigma,
        -fb * z * y / b.sigma]), n_fft)
    conv = sp_fft.irfft(np.stack([f_alpha * f_b, f_beta * f_b, f_s * f_sigma,
                                  f_slope * f_b + f_s * f_step]), n_fft)[:, :n_p]
    dden = (np.stack([conv[0], conv[1], np.zeros(n_p), conv[2]]) * h
            + np.outer(d_h, den / h + conv[3]))
    return p_grid, den, dden


def _lagrange_weights(u):
    """Weights of the nodes at offsets -1, 0, 1, 2 of the cubic through them,
    at the fraction u of the step, and their derivatives in u; at u = 0 they
    are exactly (0, 1, 0, 0)."""
    w = np.stack([-u * (u - 1.0) * (u - 2.0) / 6.0,
                  (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
                  -(u + 1.0) * u * (u - 2.0) / 2.0,
                  (u + 1.0) * u * (u - 1.0) / 6.0])
    u2 = 3.0 * u * u
    dw = np.stack([-(u2 - 6.0 * u + 2.0) / 6.0, (u2 - 4.0 * u - 1.0) / 2.0,
                   -(u2 - 2.0 * u - 2.0) / 2.0, (u2 - 1.0) / 6.0])
    return w, dw


def _endpoint_terms(p, g: GammaParams, b: NormalParams, h, grad):
    """Endpoint terms of the grid's Riemann sum at every p, and with grad
    their derivatives at fixed p and h with respect to (alpha, beta, mu,
    sigma) and h, a (5, genes) array.

    The integrand is s^(alpha-1) psi(s) with
    psi(s) = exp(-s/beta) f_B(p - s)/(Gamma(alpha) beta^alpha), and
    h sum_{k>=1} f(kh) exceeds the integral by
    sum_k zeta(1 - alpha - k) h^(alpha+k) psi^(k)(0)/k! (Navot 1961).
    psi(s)/psi(0) = exp(a1 s - a2 s^2), whose Taylor coefficients t_k are
    polynomials in a1 = (p - mu)/sigma^2 - 1/beta and a2 = 1/(2 sigma^2).
    """
    c = p - b.mu
    sig2 = b.sigma ** 2
    a1 = c / sig2 - 1.0 / g.beta
    a2 = 0.5 / sig2
    ones, zero = np.ones_like(a1), np.zeros_like(a1)
    t = np.stack([ones, a1, 0.5 * a1 * a1 - a2, a1 ** 3 / 6.0 - a1 * a2])
    zeta = _sp.zeta(1.0 - g.alpha - _ENDPOINT_ORDERS)
    hk = h ** _ENDPOINT_ORDERS[:, None]
    # psi(0) h^alpha
    lead = np.exp(g.alpha * (math.log(h) - math.log(g.beta)) - _sp.gammaln(g.alpha)
                  + specfun.std_normal_logpdf(c / b.sigma) - math.log(b.sigma))
    terms = (zeta[:, None] * hk) * t
    e = lead * terms.sum(axis=0)
    if not grad:
        return e
    step = _ZETA_STEP * g.alpha
    d_zeta = (_sp.zeta(1.0 - (g.alpha + step) - _ENDPOINT_ORDERS)
              - _sp.zeta(1.0 - (g.alpha - step) - _ENDPOINT_ORDERS)) / (2.0 * step)
    dt_a1 = np.stack([zero, ones, a1, 0.5 * a1 * a1 - a2])
    dt_a2 = np.stack([zero, zero, -ones, -a1])
    s_a1 = lead * (zeta[:, None] * hk * dt_a1).sum(axis=0)
    s_a2 = lead * (zeta[:, None] * hk * dt_a2).sum(axis=0)
    d_alpha = (e * (math.log(h) - math.log(g.beta) - _sp.psi(g.alpha))
               + lead * (d_zeta[:, None] * hk * t).sum(axis=0))
    d_beta = -g.alpha / g.beta * e + s_a1 / g.beta ** 2
    d_mu = c / sig2 * e - s_a1 / sig2
    d_sigma = ((c * c / sig2 - 1.0) / b.sigma * e - 2.0 * c / (sig2 * b.sigma) * s_a1
               - s_a2 / (sig2 * b.sigma))
    d_h = lead * ((zeta * (g.alpha + _ENDPOINT_ORDERS))[:, None] * hk * t).sum(axis=0) / h
    return e, np.stack([d_alpha, d_beta, d_mu, d_sigma, d_h])


def gamma_normal_density(p, g: GammaParams, b: NormalParams, resolution,
                         max_points, grad=False):
    """Gamma-normal marginal density at every p from ``gamma_normal_grid``.

    The value at p is the cubic through the four grid nodes around it, less
    the endpoint terms (``_endpoint_terms``) at p.  Returns (densities,
    largest grid value) and, with grad, their exact derivatives with respect
    to (alpha, beta, mu, sigma), a (4, genes) array: the nodes' own
    derivatives, the grid's motion under the interpolation weights, and the
    endpoint terms' derivatives.  Raises as the grid does.
    """
    p = np.asarray(p, dtype=float)
    grid = gamma_normal_grid(float(np.max(p)), g, b, resolution, max_points, grad)
    den = grid[1]
    h, d_h = _grid_step(g, b, resolution)
    t = (p - grid[0][0]) / h
    i0 = np.clip(np.floor(t), 1, den.size - 3).astype(int)
    u = t - i0
    w, dw = _lagrange_weights(u)
    # below the second node the cubic would extrapolate: read 0 there
    w[:, t < 1.0] = dw[:, t < 1.0] = 0.0
    idx = i0 + np.arange(-1, 3)[:, None]
    nodes = den[idx]
    if not grad:
        return (w * nodes).sum(axis=0) - _endpoint_terms(p, g, b, h, False), np.max(den)
    e, de = _endpoint_terms(p, g, b, h, True)
    # the node under p moves with the grid start mu - 12 sigma and with h
    d_start = np.array([0.0, 0.0, 1.0, -_GRID_WIDTHS])
    d_t = -(d_start[:, None] + t * d_h[:, None]) / h
    slope = (dw * nodes).sum(axis=0)
    d_val = ((w * grid[2][:, idx]).sum(axis=1) + slope * d_t
             - de[:4] - de[4] * d_h[:, None])
    return (w * nodes).sum(axis=0) - e, np.max(den), d_val


# ---------------------------------------------------------------------------
# Series correctors with quadrature fallback
# ---------------------------------------------------------------------------

def _positive(label):
    def check(p, signal, noise):
        if p <= 0:
            raise DomainError(f"{label} requires p > 0, got {p}")
    return check


def _gb_domain(p, s: GBParams, b: GBParams):
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not (0 < p < upper):
        raise DomainError(f"p={p} outside the convolution support (0, {upper})")


def _exp_lognormal_value(p, lnum, lden, e: ExpParams, l: LognormalParams):
    return p - np.exp(l.mu + 0.5 * l.sigma ** 2 + lnum - lden)


def _ratio_value(p, lnum, lden, signal, noise):
    return p * np.exp(lnum - lden)


def _gb_normal_value(p, lnum, lden, s: GBParams, b: NormalParams):
    return (p - b.mu) * np.exp(lnum - lden)


class _Plan(NamedTuple):
    #: (p, signal, noise) -> None; raises DomainError outside the model's domain
    domain: Callable
    #: (p array, log num, log den, signal, noise) -> corrected values
    value: Callable


_SERIES_PLANS = {
    "exp_lognormal": _Plan(_positive("correct_exp_lognormal"), _exp_lognormal_value),
    "gamma_lognormal": _Plan(_positive("correct_gamma_lognormal"), _ratio_value),
    "gb_gb": _Plan(_gb_domain, _ratio_value),
    "gb_normal": _Plan(_positive("correct_gb_normal"), _gb_normal_value),
}


def _series_values(ps, m: ModelSpec, cfg):
    """Per gene of the array ps: (value, CorrectionInfo) from the series, with
    value None where quadrature must answer, or the DomainError that refuses
    the gene.

    The plan's domain checks run gene by gene; then the array gate, one den
    and one num kernel call on the genes the gate accepts (each on its own
    box), and the value formula.  Genes outside the convergence region,
    series that cancel or fail, and values outside (0, p) go to quadrature
    with the reason recorded.  A gene's outcome does not depend on the other
    genes of the array.
    """
    plan = _SERIES_PLANS[m.kind]
    out = [None] * ps.size
    reasons = {}
    inside = []
    for i, p in enumerate(ps.tolist()):
        try:
            plan.domain(p, m.signal, m.noise)
            inside.append(i)
        except DomainError as exc:
            out[i] = exc
    inside = np.array(inside, dtype=int)
    verdict = series.gate(m, ps[inside], cfg)
    for i in inside[~verdict.ok].tolist():
        reasons[i] = "outside series convergence region"
    genes = inside[verdict.ok]
    lden, sden, refused = series.batch_series(m, ps[genes], 0, verdict.den[verdict.ok], cfg)
    reasons.update((int(genes[j]), str(exc)) for j, exc in refused.items())
    live = np.array([j not in refused for j in range(genes.size)], dtype=bool)
    genes, lden, sden = genes[live], lden[live], sden[live]
    lnum, snum, refused = series.batch_series(m, ps[genes], 1,
                                              verdict.num[verdict.ok][live], cfg)
    reasons.update((int(genes[j]), str(exc)) for j, exc in refused.items())
    live = np.array([j not in refused for j in range(genes.size)], dtype=bool)
    cancel = live & ((sden <= 0) | (snum <= 0))
    reasons.update((i, "series cancellation") for i in genes[cancel].tolist())
    live &= ~cancel
    genes = genes[live]
    with np.errstate(over="ignore"):
        values = plan.value(ps[genes], lnum[live], lden[live], m.signal, m.noise)
    for i, value, p in zip(genes.tolist(), values.tolist(), ps[genes].tolist()):
        if 0.0 < value < p:
            out[i] = (value, _SERIES_INFO)
        else:
            reasons[i] = "series value escaped (0, p)"
    for i, reason in reasons.items():
        out[i] = (None, CorrectionInfo(path="quadrature", fallback_reason=reason))
    return out


def correct_exp_lognormal(p, e: ExpParams, l: LognormalParams,
                          cfg: series.SeriesConfig = series.SeriesConfig(),
                          qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity p - E[B | P = p] under exponential + lognormal."""
    return _with_info(*_correct_one(p, ExpLognormal(e, l), cfg, None, qcfg), with_info)


def correct_gamma_lognormal(p, g: GammaParams, l: LognormalParams,
                            cfg: series.SeriesConfig = series.SeriesConfig(),
                            qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under gamma + lognormal: p times the kernel ratio."""
    return _with_info(*_correct_one(p, GammaLognormal(g, l), cfg, None, qcfg),
                      with_info)


def correct_gb(p, s: GBParams, b: GBParams,
               cfg: series.SeriesConfig = series.SeriesConfig(),
               qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under the GB + GB convolution."""
    return _with_info(*_correct_one(p, GBGB(s, b), cfg, None, qcfg), with_info)


def correct_gb_normal(p, s: GBParams, b: NormalParams,
                      cfg: series.SeriesConfig = series.SeriesConfig(),
                      qcfg: oracle.QuadConfig = None, with_info=False):
    """Corrected intensity under the GB + normal convolution."""
    # GBNormal validates b.mu > 0
    return _with_info(*_correct_one(p, GBNormal(s, b), cfg, None, qcfg), with_info)


# ---------------------------------------------------------------------------
# Whole-array application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneDiagnostic:
    index: int
    path: str           # 'closed' | 'series' | 'quadrature' | 'error'
    error: Optional[str] = None


def _route(p, m: ModelSpec, variant):
    """(value, CorrectionInfo) of one gene of a closed-form or gamma_normal model.

    The value is None where quadrature must answer: every gamma_normal gene.
    variant picks the exp_normal form.
    """
    kind = m.kind
    if kind == "exp_normal":
        fn = correct_mbcb if variant == "mbcb" else correct_rma
        return fn(p, m.signal, m.noise), _CLOSED_INFO
    if kind == "exp_gamma":
        return correct_exp_gamma(p, m.signal, m.noise), _CLOSED_INFO
    if kind == "gamma_normal":
        return None, _QUADRATURE_INFO
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def _routes(ps, m: ModelSpec, cfg, variant):
    """_route, or _series_values for a series family, at every gene of ps:
    per gene (value, CorrectionInfo) or the BeadcorrError that refuses it."""
    if m.kind in _SERIES_PLANS:
        return _series_values(ps, m, cfg)
    out = []
    for p in ps.tolist():
        try:
            out.append(_route(p, m, variant))
        except BeadcorrError as exc:
            out.append(exc)
    return out


def _quadrature_cfg(m: ModelSpec, qcfg):
    """The gamma-normal corrector's own setting, else qcfg or the default."""
    if m.kind == "gamma_normal":
        return _GAMMA_NORMAL_QCFG
    return qcfg or oracle.QuadConfig()


def _correct_one(p, m: ModelSpec, cfg, variant, qcfg=None):
    """(value, CorrectionInfo) of one gene; variant picks the exp_normal form.

    qcfg sets the quadrature fallback of the series correctors.
    """
    outcome = _routes(np.array([p], dtype=float), m, cfg, variant)[0]
    if isinstance(outcome, BeadcorrError):
        raise outcome
    value, info = outcome
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

    Closed forms run gene by gene; a series family runs the array gate and
    one den and one num kernel call for the whole array; the genes that need
    quadrature (every gamma_normal gene, the series genes that fall back) go
    to the tanh-sinh engine in one call.  Order is preserved and a failing gene
    never aborts the batch: its output is NaN and the diagnostic row records
    the error.  qcfg sets the quadrature fallback of the series correctors
    (default oracle.QuadConfig()).  Returns (corrected array, list of
    GeneDiagnostic).
    """
    observed = np.asarray(observed, dtype=float)
    corrected = np.full(observed.shape, math.nan)
    diags = []
    pending = []
    for i, outcome in enumerate(_routes(observed, m, cfg, exp_normal_variant)):
        if isinstance(outcome, BeadcorrError):
            diags.append(_error_diagnostic(i, outcome))
            continue
        value, info = outcome
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
