"""Corrected background intensities E[S | P = p] for the seven models.

Each family has the paper's method (``PAPER_ROUTES``): closed forms where
they exist, series where the model has one (with quadrature outside the
series convergence region), and quadrature for the gamma-normal model.  The
public correctors and ``correct_array_series`` take it.  The series route
answers one gene at a time (``series.posterior_mean``).
``correct_array`` takes the route of ``ROUTES``, the cheapest evaluator that
meets the family's tolerance: the closed forms, fixed Gauss rules in the
noise's standard score for exp_lognormal, gamma_lognormal and gb_normal
(``_tilt_values``), the likelihood's FFT grid for gamma_normal
(``_grid_values``), and the batched tanh-sinh engine
(``quadrature.log_integrals``) for gb_gb.

Every entry point, for one gene or an array, answers in arrays
(``_outcomes``): one vectorized domain check, then the route on the genes
inside the domain, which returns their values, the genes it refuses and the
genes it leaves to the engine with the reason.  The engine takes those in
one call and refuses a gene it cannot certify with a QuadratureError.
``answer_array`` returns that answer for an array (the CLI writes its tables
from it); ``correct_array`` wraps it in one GeneDiagnostic per gene.
QUADPACK stays in ``oracle``, the independent referee, and answers no
production gene.  Every corrector can report which path produced its value
and why a gene left its route; batch application never aborts on a single
bad gene.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import special as _sp

from . import quadrature, series, specfun
from .dists import (ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                    GammaLognormal, GammaNormal, GammaParams, GBGB, GBNormal,
                    GBParams, LognormalParams, ModelSpec, NormalParams,
                    dist_logpdf, dist_support, gb_support_upper)
from .errors import (DomainError, InvalidParameterError, NumericUnderflowError,
                     QuadratureError, SeriesError)
# unused: no production gene reaches QUADPACK, but perfbench/tracing.py
# wraps correct.quad as well as oracle.quad, so the attribute must exist
from .oracle import quad  # noqa: F401


@dataclass(frozen=True)
class CorrectionInfo:
    """How a corrected value was produced."""

    path: str              # 'closed' | 'series' | 'tilt' | 'grid' | 'quadrature'
    fallback_reason: Optional[str] = None


def _with_info(value, info, with_info):
    return (value, info) if with_info else value


# ---------------------------------------------------------------------------
# Exponential signal + normal noise
# ---------------------------------------------------------------------------

def _refused(bad, ps, error, message):
    """{index: error(message(p))} of the genes of ps that bad marks."""
    return {i: error(message(p)) for i, p in zip(np.flatnonzero(bad).tolist(),
                                                  ps[bad].tolist())}


def _rma_kernel(ps, m: ModelSpec):
    e, b = m.signal, m.noise
    mu_sp = ps - b.mu - b.sigma ** 2 * e.theta
    a = mu_sp / b.sigma
    bb = (ps - mu_sp) / b.sigma
    # Phi(a) + Phi(bb) - 1 = Phi(a) - Phi(-bb), with -bb <= a always
    la = specfun.std_normal_logcdf(a)
    lmb = specfun.std_normal_logcdf(-bb)
    under = la < math.log(1e-290)
    denom = np.exp(la) * -np.expm1(np.minimum(lmb - la, 0.0))
    refused = _refused(
        under, ps, NumericUnderflowError,
        lambda p: f"truncation probability underflowed at p={p} (both tails ~ 0)")
    refused.update(_refused(
        ~under & (denom <= 0.0), ps, NumericUnderflowError,
        lambda p: f"truncation probability vanished in floating point at p={p}"))
    num = specfun.std_normal_pdf(a) - specfun.std_normal_pdf(bb)
    with np.errstate(divide="ignore", invalid="ignore"):
        return mu_sp + b.sigma * num / denom, refused, {}


def _mbcb_kernel(ps, m: ModelSpec):
    e, b = m.signal, m.noise
    mu_sp = ps - b.mu - b.sigma ** 2 * e.theta
    a = mu_sp / b.sigma
    # phi(a)/Phi(a) through logs; stable into the deep left tail
    mills = np.exp(specfun.std_normal_logpdf(a) - specfun.std_normal_logcdf(a))
    return mu_sp + b.sigma * mills, {}, {}


def correct_rma(p, e: ExpParams, b: NormalParams) -> float:
    """Posterior mean with the conditional signal truncated to (0, p)."""
    return _correct_one(p, ExpNormal(e, b), "rma")[0]


def correct_mbcb(p, e: ExpParams, b: NormalParams) -> float:
    """Posterior mean variant with the upper truncation bound sent to infinity."""
    return _correct_one(p, ExpNormal(e, b), "mbcb")[0]


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

    a is a shape or a 1-D array of shapes, p a float or an array; the result
    has a's shape, then p's.  lam > 0 routes through the lower incomplete
    gamma, one call over every shape and p; p where its regularized form
    underflows take the log-domain form.  lam <= 0 uses an
    all-positive-term series (entire in lam*p), switching to an
    integration-by-parts asymptotic expansion once -lam*p is large; both sum
    over all p at once, one shape at a time.
    """
    shapes = np.asarray(a, dtype=float)
    if (shapes <= 0).any():
        raise InvalidParameterError(f"shape must be positive, got {a}")
    arr = np.asarray(p, dtype=float)
    if (arr <= 0).any():
        raise DomainError(f"upper limit must be positive, got {arr.min()}")
    flat = arr.ravel()
    column = shapes.reshape(-1, 1)
    if lam > 0:
        x = lam * flat
        reg = _sp.gammainc(column, x)
        with np.errstate(divide="ignore"):
            out = -column * math.log(lam) + _sp.gammaln(column) + np.log(reg)
        low = reg <= 1e-290
        if low.any():
            # deep underflow of the regularized form
            i, j = np.nonzero(low)
            out[low] = [-a_i * math.log(lam) + specfun.log_lower_incomplete_gamma(a_i, xi)
                        for a_i, xi in zip(column[i, 0].tolist(), x[j].tolist())]
    else:
        out = np.array([_log_truncated_gamma_integral_nonpositive(a_i, lam, flat)
                        for a_i in column[:, 0].tolist()])
    out = out.reshape(shapes.shape + arr.shape)
    return float(out) if out.ndim == 0 else out


def _exp_gamma_kernel(ps, m: ModelSpec):
    e, g = m.signal, m.noise
    lam = 1.0 / g.beta - e.theta
    num, den = log_truncated_gamma_integral([g.alpha + 1.0, g.alpha], lam, ps)
    return ps - np.exp(num - den), {}, {}


def correct_exp_gamma(p, e: ExpParams, g: GammaParams) -> float:
    """Corrected intensity p - E[B | P = p] under exponential + gamma."""
    return _correct_one(p, ExpGamma(e, g), None)[0]


# ---------------------------------------------------------------------------
# Quadrature: the gamma-normal corrector and the series correctors' fallback
# ---------------------------------------------------------------------------

#: the engine's target: the gamma-normal corrector's, and every other family's
_GAMMA_NORMAL_REL_TOL = 1e-11
_REL_TOL = 1e-8


def _quadrature_means(ps, m: ModelSpec, rel_tol):
    """Posterior means of the float array ps by the tanh-sinh engine at
    the target rel_tol: (values; {index: the NumericUnderflowError of a
    marginal that is 0 even in logs, whatever the engine's certificate
    reads, or the QuadratureError, naming its half-step change, of any
    other gene the engine does not certify}).

    A mean is a ratio of sums scaled by the gene's own largest log
    integrand, so a marginal far below the smallest float still gives it.
    """
    res = quadrature.log_integrals(ps, m, lambda s, log_s, y: s[None], rel_tol)
    zero = res.log_f == -math.inf
    missed = ~res.means_ok & ~zero
    refused = {i: QuadratureError(
        f"the tanh-sinh engine did not certify the posterior mean at p={p} "
        f"(half-step change {change:.2e})")
        for i, p, change in zip(np.flatnonzero(missed).tolist(), ps[missed].tolist(),
                                res.change[missed].tolist())}
    refused.update(_refused(
        zero, ps, NumericUnderflowError,
        lambda p: f"marginal density underflowed at p={p}; posterior mean "
                  f"undefined in floating point"))
    return res.means[0], refused


def correct_gamma_normal(p, g: GammaParams, b: NormalParams) -> float:
    """Posterior mean under gamma + normal by tanh-sinh quadrature at the
    target 1e-11; raises the QuadratureError of a gene the engine cannot
    certify."""
    return _correct_one(p, GammaNormal(g, b), None)[0]


# ---------------------------------------------------------------------------
# The gamma-normal FFT grid: the likelihood's density and the grid route
# ---------------------------------------------------------------------------

#: half-width, in noise standard deviations, of the grid's noise window
_GRID_WIDTHS = 12.0
#: grid step h = min(sigma, beta)/_GRID_RESOLUTION
_GRID_RESOLUTION = 48
#: the most nodes a grid's convolution may hold
_GRID_MAX_POINTS = 1 << 21
#: upper tail of Gamma(alpha + 1, beta) a grid's extent leaves out
_GRID_TAIL = 1e-13
#: shares of a grid's peak below which its densities are not used.  The
#: likelihood reads a density below LIKELIHOOD_GRID_FLOOR as FFT rounding
#: noise, or as a p below the grid's second node, where the grid gives no
#: value.  The corrector divides two grid densities and needs both above
#: _CORRECTOR_GRID_FLOOR: on genes swept down to 9 noise sigmas below mu at
#: shapes 1 to 3, its values were within 7.1e-7 of the engine's where both
#: densities lay above 1e-9 of their peaks, and up to 1.6e-6 off between
#: 1e-10 and 1e-9.
LIKELIHOOD_GRID_FLOOR = 1e-13
_CORRECTOR_GRID_FLOOR = 1e-9
#: endpoint terms of the generalized Euler-Maclaurin expansion the density
#: subtracts (k = 0..3)
_ENDPOINT_ORDERS = np.arange(4)
#: relative step in alpha of the central difference of zeta(1 - alpha - k)
_ZETA_STEP = 1e-6
#: the motion of the grid's start mu - 12 sigma in (alpha, beta, mu, sigma)
_START_MOTION = np.array([0.0, 0.0, 1.0, -_GRID_WIDTHS])


def _grid_step(g: GammaParams, b: NormalParams):
    """The grid step h = min(sigma, beta)/48 and its derivatives with
    respect to (alpha, beta, mu, sigma)."""
    by_sigma = b.sigma <= g.beta
    return (min(b.sigma, g.beta) / _GRID_RESOLUTION,
            np.array([0.0, float(not by_sigma), 0.0, float(by_sigma)]) / _GRID_RESOLUTION)


def gamma_normal_extent(g: GammaParams, b: NormalParams):
    """The model's grid extent p_max = mu + 12 sigma + s_q, s_q the
    1 - 1e-13 quantile of Gamma(alpha + 1, beta).

    A grid of that extent ends its signal nodes at s_q + 24 sigma, so every
    p up to p_max finds all the signal nodes its noise window reads, at
    shape alpha + 1 and so at alpha.  The extent comes from the model alone:
    the corrector's grid ends there, the likelihood's ends at the largest
    gene within it, and the genes past it take the engine, so no gene moves
    the grid values of the others.
    """
    return (b.mu + _GRID_WIDTHS * b.sigma
            + float(_sp.gammainccinv(g.alpha + 1.0, _GRID_TAIL)) * g.beta)


def gamma_normal_range(g: GammaParams, b: NormalParams):
    """(the grid's first node mu - 12 sigma, the model's extent): the genes
    the grid reads.  Below the first node the grid reads 0, and far below it
    the cubic weights and Taylor terms of ``_Grid`` overflow."""
    return b.mu - _GRID_WIDTHS * b.sigma, gamma_normal_extent(g, b)


#: the cubic's node at offset j - 1 (``_STENCIL``) weighs the product of
#: the factors u + 1, u, u - 1, u - 2 (u + _CUBIC_SHIFTS) in column j of
#: _CUBIC_FACTORS over _CUBIC_DENOMINATORS[j]; its slope in u is
#: (3 u^2 - _SLOPES[0, j] u + _SLOPES[1, j]) over the same denominator
_STENCIL = np.arange(-1, 3)[:, None]
_CUBIC_SHIFTS = np.array([[1.0], [0.0], [-1.0], [-2.0]])
_CUBIC_FACTORS = np.array([[1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2]])
_CUBIC_DENOMINATORS = np.array([[-6.0], [2.0], [-2.0], [6.0]])
_SLOPES = np.array([[6.0, 4.0, 2.0, 0.0], [2.0, -1.0, -2.0, -1.0]])[:, :, None]


def _lagrange_cubic(u, slopes=False):
    """Weights of the nodes at offsets -1, 0, 1, 2 of the cubic through them,
    at the fraction u of the step, and with slopes their derivatives in u: a
    (1 or 2, 4, genes) array.  At u = 0 the weights are exactly (0, 1, 0, 0)."""
    f = (u + _CUBIC_SHIFTS).take(_CUBIC_FACTORS, axis=0)
    out = np.empty((1 + slopes,) + f.shape[1:])
    np.multiply(f[0] * f[1], f[2], out=out[0])
    if slopes:
        np.add(3.0 * u * u - _SLOPES[0] * u, _SLOPES[1], out=out[1])
    return np.divide(out, _CUBIC_DENOMINATORS, out=out)


def _log_zeta_one_minus(s):
    """(log|zeta(1 - s)|, sign of zeta(1 - s)) at every s >= 1 of an array.

    SciPy's zeta overflows once 1 - s falls below about -170; there the
    functional equation zeta(1 - s) = 2 (2 pi)^-s cos(pi s/2) Gamma(s) zeta(s)
    is taken in logs.  A trivial zero reads (-inf, 0).
    """
    z = _sp.zeta(1.0 - s)
    sign = np.sign(z)
    with np.errstate(divide="ignore"):
        log_z = np.log(np.abs(z))
        big = ~np.isfinite(z)
        if big.any():
            sb = s[big]
            # s mod 4 is exact, so cos sees the angle without rounding in s
            cos = np.cos(0.5 * np.pi * np.fmod(sb, 4.0))
            log_z[big] = (math.log(2.0) - sb * math.log(2.0 * math.pi)
                          + np.log(np.abs(cos)) + _sp.gammaln(sb) + np.log(_sp.zeta(sb)))
            sign[big] = np.sign(cos)
    return log_z, sign


class _Grid:
    """The gamma-normal grid of one scale beta, noise and extent p_max,
    read at the genes p, with grad also for its score.

    Spacing h = min(sigma, beta)/48.  The noise grid spans mu +- 12 sigma;
    the signal grid s starts at 0 and ends at max(p_max - mu + 12 sigma, h).
    That end is enough: the convolution at p = b + s reads signal nodes
    s = p - b with b >= mu - 12 sigma, so no p <= p_max reads a signal node
    past p_max - mu + 12 sigma, and the gamma mass beyond it never reaches a
    requested point.  Node i sits at p_i = mu - 12 sigma + i h and holds the
    Riemann sum h sum_{k >= 1} f_S(kh) f_B(p_i - kh) (the s = 0 node reads
    0).  Only the signal column depends on the shape, so the grids of every
    shape share the step, the nodes, the noise rows and their transform,
    each gene's four stencil nodes and cubic weights, and the shape-free
    parts of its endpoint terms: the corrector reads its densities at alpha
    and alpha + 1 from one grid.  Raises InvalidParameterError below
    alpha = 1, where the gridded signal density is unbounded, and where the
    convolution would exceed 2^21 nodes.
    """

    def __init__(self, p, p_max, g: GammaParams, b: NormalParams, grad=False):
        if g.alpha < 1.0:
            raise InvalidParameterError(
                "gamma-normal grid requires gamma shape >= 1 (bounded density)")
        from scipy import fft

        self.beta, self.noise = g.beta, b
        h, self.d_h = _grid_step(g, b)
        self.h = h
        s_max = max(p_max - b.mu + _GRID_WIDTHS * b.sigma, h)
        n_s = int(s_max / h) + 1
        n_b = int(2.0 * _GRID_WIDTHS * b.sigma / h) + 1
        self.n_p = n_s + n_b - 1
        if self.n_p > _GRID_MAX_POINTS:
            raise InvalidParameterError(
                f"gamma-normal grid would exceed {_GRID_MAX_POINTS} nodes")
        offsets = np.arange(float(max(n_s, n_b))) * h
        self.s, y = offsets[:n_s], offsets[:n_b]
        # log s, for the signal density and its alpha row (0 at s = 0)
        self.log_s = np.zeros(n_s)
        np.log(self.s[1:], out=self.log_s[1:])
        self.start = b.mu - _GRID_WIDTHS * b.sigma
        # the noise's standard log density at its nodes and at every p
        p = np.asarray(p, dtype=float)
        self.c = p - b.mu
        log_phi = specfun.std_normal_logpdf(
            np.concatenate([self.start + y - b.mu, self.c]) / b.sigma)
        self.log_noise = log_phi[n_b:]
        # the noise rows f_B and, with grad, z (z + 12) f_B (``sums``),
        # zero-padded to a fast real-FFT length for the full linear
        # convolution, below the rows of the first ``sums`` signal, so that
        # one transform takes both
        self.n_fft = fft.next_fast_len(self.n_p, real=True)
        self.n_noise = 1 + grad
        self.first_rows = np.zeros((1 + 2 * grad + self.n_noise, self.n_fft))
        noise = self.first_rows[1 + 2 * grad:]
        fb = np.exp(log_phi[:n_b] - math.log(b.sigma), out=noise[0, :n_b])
        if grad:
            z = y / b.sigma - _GRID_WIDTHS
            np.multiply(fb, z * (z + _GRID_WIDTHS), out=noise[1, :n_b])
        self.f_noise = None
        # the cubic through the four nodes around each p, and with grad its
        # slopes; below the second node it would extrapolate, and reads 0
        self.t = (p - self.start) / h
        i0 = np.minimum(np.maximum(self.t, 1.0), self.n_p - 3).astype(int)
        self.cubic = _lagrange_cubic(self.t - i0, grad)
        self.cubic[:, :, self.t < 1.0] = 0.0
        self.idx = i0 + _STENCIL
        # the endpoint terms' integrand is s^(alpha-1) psi(s) with
        # psi(s)/psi(0) = exp(a1 s - a2 s^2), whose Taylor coefficients are
        # polynomials in a1 = (p - mu)/sigma^2 - 1/beta and a2 = 1/(2 sigma^2)
        self.sig2 = b.sigma ** 2
        self.c_sig2 = self.c / self.sig2
        a1 = self.a1 = self.c_sig2 - 1.0 / g.beta
        self.a2 = 0.5 / self.sig2
        self.taylor = t = np.empty((4, p.size))
        t[0], t[1] = 1.0, a1
        np.subtract(0.5 * a1 * a1, self.a2, out=t[2])
        np.subtract(a1 ** 3 / 6.0, a1 * self.a2, out=t[3])
        self.log_h = math.log(h)

    def sums(self, alpha, grad=False):
        """The convolutions at every node under Gamma(alpha, beta), a (rows,
        nodes) array: R = f_S * f_B, the Riemann sums over h, and with grad
        (on a grid built with grad) the three their derivatives are linear
        in (``_node_rows``): L = (f_S (log s - log beta - psi(alpha))) * f_B;
        S = (s f_S) * f_B; and Q = f_S * (z (z + 12) f_B), z = y/sigma - 12
        the noise node's standard score.  The signal rows take one transform,
        with the noise rows' on the grid's first call, and the products one
        inverse."""
        from scipy import fft

        n_s, log_beta, n_rows = self.s.size, math.log(self.beta), 1 + 2 * grad
        first = self.f_noise is None
        signal = (self.first_rows[len(self.first_rows) - self.n_noise - n_rows:] if first
                  else np.zeros((n_rows, self.n_fft)))
        log_fs = ((alpha - 1.0) * self.log_s - self.s / self.beta
                  - alpha * log_beta - _sp.gammaln(alpha))
        log_fs[0] = -np.inf
        fs = np.exp(log_fs, out=signal[0, :n_s])
        if grad:
            np.multiply(fs, self.log_s - log_beta - _sp.psi(alpha), out=signal[1, :n_s])
            np.multiply(self.s, fs, out=signal[2, :n_s])
        f_signal = fft.rfft(signal)
        if first:
            f_signal, self.f_noise = f_signal[:n_rows], f_signal[n_rows:]
        products = np.empty((n_rows + grad, f_signal.shape[1]), dtype=complex)
        np.multiply(f_signal, self.f_noise[0], out=products[:n_rows])
        if grad:
            np.multiply(f_signal[0], self.f_noise[1], out=products[3])
        return fft.irfft(products, self.n_fft)[:, :self.n_p]

    def _node_rows(self, alpha, conv):
        """The derivatives of the sums with respect to (alpha, beta, mu,
        sigma) with each node held at its index, so through h and the grid's
        start as well, from the four convolutions of ``sums`` at the same
        points, a (4, points) array.

        With the index held, the noise values phi(y/sigma - 12)/sigma do not
        move with mu, and move with sigma through 1/sigma and y/sigma, by
        (Q - R)/sigma; s f_S' = f_S (alpha - 1 - s/beta) and
        y f_B' = -z (z + 12) f_B give d/dh = alpha R - S/beta - Q at a held
        index, which moves with beta or sigma through h.
        """
        R, L, S, Q = conv
        beta, h = self.beta, self.h
        rows = np.empty(conv.shape)
        np.multiply(h, L, out=rows[0])
        np.multiply(h, S / beta ** 2 - alpha / beta * R, out=rows[1])
        rows[2] = 0.0
        np.divide(h * (Q - R), self.noise.sigma, out=rows[3])
        rows += self.d_h[:, None] * (alpha * R - S / beta - Q)
        return rows

    def _endpoint_terms(self, alpha, grad=False):
        """Endpoint terms of the grid's Riemann sum at every p, and with grad
        their derivatives at fixed p and h with respect to (alpha, beta, mu,
        sigma) and h, a (5, genes) array.

        The integrand is s^(alpha-1) psi(s) with
        psi(s) = exp(-s/beta) f_B(p - s)/(Gamma(alpha) beta^alpha), and
        h sum_{k>=1} f(kh) exceeds the integral by
        sum_k zeta(1 - alpha - k) h^(alpha+k) psi^(k)(0)/k! (Navot 1961).
        The weights zeta(1 - alpha - k) psi(0) h^(alpha + k) are formed in
        logs: at large alpha zeta overflows where psi(0) h^alpha underflows,
        and their product is what the sum needs.
        """
        log_h, beta, t = self.log_h, self.beta, self.taylor
        # log of psi(0) h^alpha
        log_lead = (alpha * (log_h - math.log(beta)) - _sp.gammaln(alpha)
                    + self.log_noise - math.log(self.noise.sigma))
        step = _ZETA_STEP * alpha
        shapes = np.array([alpha, alpha + step, alpha - step] if grad else [alpha])
        log_z, sign = _log_zeta_one_minus(shapes[:, None] + _ENDPOINT_ORDERS)
        log_zh = log_z + _ENDPOINT_ORDERS * log_h
        if not grad:
            w = sign[0][:, None] * np.exp(log_lead + log_zh[0][:, None])
            return (w * t).sum(axis=0)
        # the central difference of zeta(1 - alpha - k) h^k in alpha, one
        # scalar per order scaled by the largest term, times each gene's
        # psi(0) h^alpha held at alpha
        logs = np.empty((5, 1))
        logs[:4, 0] = log_zh[0]
        shift = logs[4, 0] = log_zh[1:].max()
        scaled = np.exp(log_lead + logs)
        w = sign[0][:, None] * scaled[:4]
        e = (w * t).sum(axis=0)
        ends = sign[1:] * np.exp(log_zh[1:] - shift)
        d_zeta = (ends[0] - ends[1]) / (2.0 * step)
        c, sig2, sigma, a1 = self.c, self.sig2, self.noise.sigma, self.a1
        # w[1] + w[2] a1 + w[3] t[2] and -(w[2] + w[3] a1)
        pairs = w[1:3] + w[2:4] * a1
        s_a1, s_a2 = pairs[0] + w[3] * t[2], -pairs[1]
        d_alpha = (e * (log_h - math.log(beta) - _sp.psi(alpha))
                   + scaled[4] * (d_zeta @ t))
        d_beta = -alpha / beta * e + s_a1 / beta ** 2
        d_mu = self.c_sig2 * e - s_a1 / sig2
        d_sigma = ((c * c / sig2 - 1.0) / sigma * e - 2.0 * c / (sig2 * sigma) * s_a1
                   - s_a2 / (sig2 * sigma))
        d_h = ((alpha + _ENDPOINT_ORDERS)[:, None] * w * t).sum(axis=0) / self.h
        return e, np.array([d_alpha, d_beta, d_mu, d_sigma, d_h])

    def density(self, alpha, grad=False):
        """The density at every p under Gamma(alpha, beta) + noise: the cubic
        through the four grid nodes around p, less the endpoint terms at p.
        Returns (densities, largest grid value) and, with grad (on a grid
        built with grad), their exact derivatives with respect to (alpha,
        beta, mu, sigma), a (4, genes) array: the nodes' own derivatives,
        the grid's motion under the interpolation weights, and the endpoint
        terms' derivatives.  One gather reads every row of ``sums`` at the
        genes' stencil nodes."""
        conv = self.sums(alpha, grad)
        stencil = conv[:, self.idx]
        nodes = stencil[0] * self.h
        peak = conv[0].max() * self.h
        if not grad:
            return (self.cubic[0] * nodes).sum(axis=0) - self._endpoint_terms(alpha), peak
        e, de = self._endpoint_terms(alpha, True)
        # the node under p moves with the grid start and with h
        d_h = self.d_h[:, None]
        d_t = (_START_MOTION[:, None] + self.t * d_h) / -self.h
        value, slope = (self.cubic * nodes).sum(axis=1)
        rows = self._node_rows(alpha, (self.cubic[0] * stencil).sum(axis=1))
        rows += slope * d_t
        rows -= de[:4]
        rows -= de[4] * d_h
        return value - e, peak, rows


def gamma_normal_density(p, g: GammaParams, b: NormalParams, p_max, grad=False):
    """Gamma-normal marginal density at every p from the grid of extent
    p_max (``_Grid.density``).

    p_max is the grid's extent: a p above it reads a grid cut short of the
    signal nodes it needs.  Returns (densities, largest grid value) and,
    with grad, their exact derivatives with respect to (alpha, beta, mu,
    sigma), a (4, genes) array.  Raises as the grid does.
    """
    return _Grid(p, p_max, g, b, grad).density(g.alpha, grad)


def _grid_values(ps, m: ModelSpec):
    """The grid route: the gamma-normal posterior mean of every gene of ps
    on the likelihood's grid, in the route contract (``_outcomes``).

    s Gamma(s; alpha, beta) = alpha beta Gamma(s; alpha + 1, beta), so
    E[S | P = p] = alpha beta f_(alpha+1)(p)/f_alpha(p), both read from one
    grid of the model's extent (``gamma_normal_extent``), so a gene's bits
    do not depend on the other genes of the array, and the densities are
    read only at the genes within it, from the grid's first node
    mu - 12 sigma up to p_max.  Arrays the grid refuses (shape < 1, more
    than 2^21 nodes), genes below or past that range, genes where either
    density lies below _CORRECTOR_GRID_FLOOR of its grid's peak, and values
    that are not finite and positive go to the engine.
    """
    g, b = m.signal, m.noise
    start, p_max = gamma_normal_range(g, b)
    values = np.full(ps.shape, math.nan)
    low = ps < start
    near = ~low & (ps <= p_max)
    try:
        grid = _Grid(ps[near], p_max, g, b)
    except InvalidParameterError as exc:
        return values, {}, dict.fromkeys(range(ps.size), str(exc))
    den, den_peak = grid.density(g.alpha)
    num, num_peak = grid.density(g.alpha + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        values[near] = g.alpha * g.beta * num / den
    faint = ~((den >= _CORRECTOR_GRID_FLOOR * den_peak)
              & (num >= _CORRECTOR_GRID_FLOOR * num_peak))
    at = np.flatnonzero(near)
    # the first reason that applies is the one recorded
    reasons = dict.fromkeys(np.flatnonzero(low).tolist(), "below the grid's extent")
    reasons.update(dict.fromkeys(np.flatnonzero(ps > p_max).tolist(), "past the grid's extent"))
    reasons.update(dict.fromkeys(at[faint].tolist(), "grid density below the corrector floor"))
    wrong = ~faint & ~(np.isfinite(values[near]) & (values[near] > 0.0))
    reasons.update(dict.fromkeys(at[wrong].tolist(), "grid value not finite and positive"))
    return values, {}, reasons


# ---------------------------------------------------------------------------
# A fixed Gauss-Kronrod pair in the noise's z: the tilt route
# ---------------------------------------------------------------------------

def _tilt_values(ps, m: ModelSpec):
    """The tilt route: the posterior mean of every gene of ps by a fixed
    Gauss-Kronrod pair in the noise's standard score
    (``quadrature.tilt_integrals``), in the route contract (``_outcomes``).

    A model the rule does not take (``quadrature.tilt_refusal``: a signal
    density s^(k - 1) at 0 with k < 1) sends every gene to the engine.  A
    gene whose Kronrod rule the embedded Gauss rule does not certify to the
    engine's target, or whose value falls outside (0, p) under lognormal
    noise, or outside the signal's support under normal noise, goes to the
    engine.
    """
    refusal = quadrature.tilt_refusal(m)
    if refusal:
        return np.full(ps.shape, math.nan), {}, dict.fromkeys(range(ps.size), refusal)
    res = quadrature.tilt_integrals(ps, m, lambda s, log_s, y: s[None], _REL_TOL)
    values = res.means[0]
    missed = ~res.means_ok
    reasons = {i: f"tilt rule not certified (change {change:.2e})" for i, change
               in zip(np.flatnonzero(missed).tolist(), res.change[missed].tolist())}
    if isinstance(m.noise, LognormalParams):
        upper, bounds = ps, "(0, p)"
    else:
        upper = dist_support(m.signal)[1]
        bounds = f"(0, {upper})"
    escaped = np.flatnonzero(res.means_ok & ~((values > 0.0) & (values < upper)))
    reasons.update(dict.fromkeys(escaped.tolist(), f"tilt value escaped {bounds}"))
    return values, {}, reasons


# ---------------------------------------------------------------------------
# Series correctors with quadrature fallback
# ---------------------------------------------------------------------------

def _series_values(ps, m: ModelSpec):
    """The series route: every gene of ps from its series
    (``series.posterior_mean``), in the route contract (``_outcomes``).

    A gene the series refuses (outside the convergence region, a sum not
    confirmed, cancellation, a value outside (0, p)) goes to the engine with
    the refusal's message as the reason.
    """
    values = np.full(ps.shape, math.nan)
    reasons = {}
    for i, p in enumerate(ps.tolist()):
        try:
            values[i] = series.posterior_mean(m, p)
        except SeriesError as exc:
            reasons[i] = str(exc)
    return values, {}, reasons


def correct_exp_lognormal(p, e: ExpParams, l: LognormalParams, with_info=False):
    """Corrected intensity p - E[B | P = p] under exponential + lognormal."""
    return _with_info(*_correct_one(p, ExpLognormal(e, l), None), with_info)


def correct_gamma_lognormal(p, g: GammaParams, l: LognormalParams, with_info=False):
    """Corrected intensity under gamma + lognormal: p times the kernel ratio."""
    return _with_info(*_correct_one(p, GammaLognormal(g, l), None), with_info)


def correct_gb(p, s: GBParams, b: GBParams, with_info=False):
    """Corrected intensity under the GB + GB convolution."""
    return _with_info(*_correct_one(p, GBGB(s, b), None), with_info)


def correct_gb_normal(p, s: GBParams, b: NormalParams, with_info=False):
    """Corrected intensity under the GB + normal convolution."""
    # GBNormal validates b.mu > 0
    return _with_info(*_correct_one(p, GBNormal(s, b), None), with_info)


# ---------------------------------------------------------------------------
# Whole-array application
# ---------------------------------------------------------------------------

#: The paper's method for each family: its closed form, its series (with
#: quadrature where the series does not converge) or, for gamma_normal,
#: quadrature.  The public correctors and ``correct_array_series`` take it.
PAPER_ROUTES = {
    "exp_normal": "closed",
    "exp_gamma": "closed",
    "gamma_normal": "quadrature",
    "exp_lognormal": "series",
    "gamma_lognormal": "series",
    "gb_gb": "series",
    "gb_normal": "series",
}

#: The route ``correct_array`` takes for each family: the cheapest evaluator
#: that meets the family's tolerance, by measurement on the reference arrays.
#: No family takes the series.  ``tilt`` names a fixed Gauss-Kronrod pair
#: in the noise's standard score (``_tilt_values``), the exponential tilt of
#: the noise where the signal is exponential.  On the seed-7 reference
#: arrays (three runs of medians of 40 interleaved calls on a 2-core x86_64
#: machine), the tilt took 5.5-6.2 ms on exp_lognormal (1000 genes), within
#: 5.5e-13 of the series; 1.4-1.6 ms against the tanh-sinh engine's
#: 3.4-3.9 ms on gamma_lognormal (300 genes) and 1.4-1.9 ms against
#: 4.7-6.2 ms on gb_normal (250 genes), within 1.1e-15 and 1.5e-15 of it.
#: gamma_normal takes the likelihood's FFT grid (``_grid_values``): 0.59-0.61
#: ms against the engine's 6.9-7.2 ms (250 genes), within 5.1e-9 of it.  gb_gb
#: takes the engine.  The series route, one gene at a time, took 145 ms on
#: that exp_lognormal array and 169 ms on the gb_gb one (250 genes), where
#: the engine took 1.9 ms (medians of 20 interleaved calls).  The engine
#: answers the genes the tilt or the grid cannot; its gb_normal values
#: integrate the untruncated normal noise, as the referee does, and so does
#: the tilt.
ROUTES = {**PAPER_ROUTES, "exp_lognormal": "tilt", "gamma_lognormal": "tilt",
          "gb_normal": "tilt", "gamma_normal": "grid", "gb_gb": "quadrature"}


@dataclass(frozen=True)
class GeneDiagnostic:
    index: int
    path: str           # 'closed' | 'series' | 'tilt' | 'grid' | 'quadrature' | 'error'
    error: Optional[str] = None


def _corrector(m: ModelSpec, variant):
    """The family's public corrector; variant picks the exp_normal form."""
    if m.kind == "exp_normal":
        return "correct_mbcb" if variant == "mbcb" else "correct_rma"
    return "correct_gb" if m.kind == "gb_gb" else f"correct_{m.kind}"


def _domain_refusals(ps, m: ModelSpec, variant):
    """{index: DomainError} of the genes of ps outside the family's domain,
    on every route: p not finite; p <= 0 for every family but gamma_normal,
    whose normal noise reaches below 0; for gb_gb, p outside the support of
    the convolution."""
    name = _corrector(m, variant)
    finite = np.isfinite(ps)
    refused = _refused(~finite, ps, DomainError,
                       lambda p: f"{name} requires a finite p, got {p}")
    if m.kind == "gb_gb":
        upper = gb_support_upper(m.signal) + gb_support_upper(m.noise)
        refused.update(_refused(
            finite & ~((ps > 0) & (ps < upper)), ps, DomainError,
            lambda p: f"p={p} outside the convolution support (0, {upper})"))
    elif m.kind != "gamma_normal":
        refused.update(_refused(finite & (ps <= 0), ps, DomainError,
                                lambda p: f"{name} requires p > 0, got {p}"))
    return refused


#: every route in the contract of ``_outcomes``, the closed forms by corrector;
#: the quadrature route leaves every gene to the engine, with no reason
_ROUTE_VALUES = {
    "correct_rma": _rma_kernel, "correct_mbcb": _mbcb_kernel,
    "correct_exp_gamma": _exp_gamma_kernel,
    "series": _series_values, "tilt": _tilt_values, "grid": _grid_values,
    "quadrature": lambda ps, m: (np.full(ps.shape, math.nan), {},
                                 dict.fromkeys(range(ps.size)))}


def _outcomes(ps, m: ModelSpec, route, variant):
    """(values, NaN where refused; {index: the BeadcorrError that refuses the
    gene}; {index: the reason a gene left the route, None on the quadrature
    route}) of every gene of the float array ps by the route.

    The family's domain check (``_domain_refusals``) runs over the whole
    array.  Every route takes the genes inside the domain alone and answers
    in the same contract, by index into the genes it was given: their
    values, the genes it refuses and the genes it leaves to the engine with
    the reason.  variant picks the exp_normal form.  The genes the route
    leaves go to the tanh-sinh engine in one call, at the target 1e-8
    (1e-11 for gamma_normal); a gene it cannot certify is refused.
    """
    errors = _domain_refusals(ps, m, variant)
    inside = np.ones(ps.shape, dtype=bool)
    inside[list(errors)] = False
    at = np.flatnonzero(inside).tolist()
    values = np.full(ps.shape, math.nan)
    evaluate = _ROUTE_VALUES[_corrector(m, variant) if route == "closed" else route]
    values[inside], refused, left = evaluate(ps[inside], m)
    errors.update((at[j], exc) for j, exc in refused.items())
    reasons = {at[j]: reason for j, reason in left.items()}
    if reasons:
        pending = sorted(reasons)
        rel_tol = _GAMMA_NORMAL_REL_TOL if m.kind == "gamma_normal" else _REL_TOL
        values[pending], refused = _quadrature_means(ps[pending], m, rel_tol)
        errors.update((pending[j], exc) for j, exc in refused.items())
    values[list(errors)] = math.nan
    return values, errors, reasons


def _correct_one(p, m: ModelSpec, variant):
    """(value, CorrectionInfo) of one gene by the paper's method; raises the
    BeadcorrError that refuses it.  variant picks the exp_normal form."""
    route = PAPER_ROUTES[m.kind]
    values, errors, reasons = _outcomes(np.array([p], dtype=float), m, route, variant)
    if errors:
        raise errors[0]
    path = "quadrature" if reasons else route
    return float(values[0]), CorrectionInfo(path, reasons.get(0))


class ArrayAnswer(NamedTuple):
    """The route layer's answer for one array (``answer_array``)."""

    values: np.ndarray     # corrected values, NaN where refused
    errors: dict           # {gene index: the BeadcorrError that refuses it}
    reasons: dict          # {gene index: why it left the route for the engine,
                           #  None on the quadrature route}
    route: str             # the route every other gene took

    def paths(self):
        """Every gene's path: 'error' where refused, 'quadrature' where it
        left the route, else the route."""
        out = [self.route] * self.values.size
        for i in self.reasons:
            out[i] = "quadrature"
        for i in self.errors:
            out[i] = "error"
        return out

    def notes(self):
        """Every gene's error as '<type>: <message>' where refused, else the
        reason it left the route, else ''."""
        out = [""] * self.values.size
        for i, reason in self.reasons.items():
            out[i] = reason or ""
        for i, exc in self.errors.items():
            out[i] = f"{type(exc).__name__}: {exc}"
        return out


def _answer(observed, m: ModelSpec, route, variant):
    observed = np.asarray(observed, dtype=float)
    return ArrayAnswer(*_outcomes(observed, m, route, variant), route)


def _diagnosed(answer: ArrayAnswer):
    return answer.values, [GeneDiagnostic(i, path, note or None) for i, (path, note)
                           in enumerate(zip(answer.paths(), answer.notes()))]


def answer_array(observed, m: ModelSpec, exp_normal_variant: str = "rma") -> ArrayAnswer:
    """``correct_array``'s answer in arrays: the corrected values, the
    refused genes' errors and the reasons genes left the route, by index,
    and the family's route (``ROUTES``)."""
    return _answer(observed, m, ROUTES[m.kind], exp_normal_variant)


def correct_array(observed, m: ModelSpec, exp_normal_variant: str = "rma"):
    """Apply the family's route (``ROUTES``) to every gene of an array.

    Every route runs over the whole array (``_outcomes``): the closed
    forms, the tilt of the noise (``_tilt_values``), the two FFT grids built
    from the model alone (``_grid_values``) or the engine.  Order is
    preserved and a failing gene never aborts the batch: its output is NaN
    and the diagnostic row records the error, a DomainError outside the
    family's domain (p not finite included) and a QuadratureError where the
    engine cannot certify the gene.  Returns (corrected array, list of
    GeneDiagnostic), built from ``answer_array``.
    """
    return _diagnosed(answer_array(observed, m, exp_normal_variant))


def correct_array_series(observed, m: ModelSpec, exp_normal_variant: str = "rma"):
    """``correct_array`` by the paper's method (``PAPER_ROUTES``): every
    series family answers by its series, with quadrature where the series
    does not converge, as the public correctors do; the other families take
    the same route as in ``correct_array``."""
    return _diagnosed(_answer(observed, m, PAPER_ROUTES[m.kind], exp_normal_variant))
