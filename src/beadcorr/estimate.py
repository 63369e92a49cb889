"""Per-array parameter estimation: maximum likelihood, moments, plug-in.

The likelihood of an array is the sum of per-gene log marginal densities plus
the log density of the negative controls under the noise component, each
family's marginal on its correction's route (``correct.ROUTES``), which also
gives its score (``loglik_score``).  One pointwise score per distribution
(``_density_rows``) serves the controls and, by Fisher's identity on the
tanh-sinh engine's nodes, every gene the engine answers.  The gamma-normal
grid value at p is a cubic through the grid nodes less the endpoint terms of
the generalized Euler-Maclaurin expansion at s = 0
(``correct.gamma_normal_density``), and its score differentiates exactly
that.  exp_lognormal, gamma_lognormal and gb_normal take fixed Gauss rules
in the noise's standard score (``quadrature.tilt_integrals``), whose nodes
give value and score alike, by Fisher's identity as on the engine's; the
genes the rules do not certify take the engine.  One function
(``_integrals``) makes that choice for every integral of the likelihood and
of the GB score's gene block (``score_gb``), so the gene block takes the
likelihood's route: the tilt for gb_normal, the engine for gb_gb.  A gene
the engine cannot certify reads -inf, and its score rows NaN; the referee's
QUADPACK answers no gene of the likelihood.

Every family is fitted by BFGS on that score (``bfgs.minimize``: SciPy's
update and Moré-Thuente line search), started from the outer product of the
per-observation scores: 4 to 7 value-and-gradient evaluations per fit
of a 100-gene, 200-control exp_normal, exp_gamma or gamma_normal reference
array (5.4 on average), against 7 to 22 (15.3) from the identity.  Each
parameter moves on its class's chart (``_CHARTS``): the optimizer's
coordinate, its inverse and chain-rule factor, and the box the coordinate
is clipped to.  For the GB families the printed likelihood equations
estimate the noise block from the negative controls alone, so their fit
runs in two stages: noise from the controls, then signal from the gene
marginals with noise fixed.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Optional, get_type_hints

import numpy as np
from scipy import special as _sp

from . import bfgs, correct, quadrature, specfun
from .dists import (ExpParams, GammaNormal, GammaParams, GBParams,
                    LognormalParams, MODEL_KINDS, MODEL_TYPES, ModelSpec,
                    NormalParams, dist_logpdf, dist_support, gb_from_gamma,
                    gb_support_upper, model_from_values, model_to_values,
                    param_names)
from .errors import (BeadcorrError, DegenerateControlsError, DomainError,
                     InvalidParameterError, NumericUnderflowError, QuadratureError,
                     UnsupportedMethodError)


@dataclass(frozen=True, eq=False)
class EstimationProblem:
    """One array's data: regular gene intensities and negative controls.

    Problems compare and hash by identity: NumPy arrays have no single truth
    value for ==.
    """

    observed: np.ndarray
    negatives: np.ndarray
    model_kind: str

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=float)
        neg = np.asarray(self.negatives, dtype=float)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "negatives", neg)
        if obs.size < 1:
            raise InvalidParameterError("need at least one observed intensity")
        if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(neg))):
            raise InvalidParameterError("all intensities must be finite")
        if np.any(obs <= 0) or np.any(neg <= 0):
            raise InvalidParameterError("all intensities must be positive")
        if self.model_kind not in MODEL_KINDS:
            raise InvalidParameterError(f"unknown model kind {self.model_kind!r}")


@dataclass(frozen=True)
class FitResult:
    params: ModelSpec
    loglik: float
    converged: bool
    iterations: int
    method: str
    gradient_norm: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FitBudget:
    """The optimizer's budget: starts, BFGS iterations per start, and the
    seed of the extra starts' offsets."""

    n_starts: int = 5
    max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_starts", 1), ("max_iter", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise InvalidParameterError(
                    f"{name} must be at least {least}, got {getattr(self, name)}")


#: standard deviation of the random offsets of the extra optimizer starts
_START_JITTER = 0.15


# ---------------------------------------------------------------------------
# Marginal log densities per model (vectorized over p)
# ---------------------------------------------------------------------------

def _log_marginal_exp_normal(p, e: ExpParams, b: NormalParams, grad=False):
    """log f_P at every p and, with grad, its derivatives with respect to
    (theta, mu, sigma), a (3, genes) array.

    f_P = theta exp(theta^2 sigma^2/2 - (p - mu) theta) (Phi(a) - Phi(a - p/sigma))
    with a = (p - mu)/sigma - sigma theta; the score takes the two normal
    densities over that difference (Mills ratios) in logs.
    """
    p = np.asarray(p, dtype=float)
    c = p - b.mu
    mu_sp = c - b.sigma ** 2 * e.theta
    # a and bb, in one array: the normal cdf reads (a, -bb)
    ab = np.array([mu_sp, p - mu_sp]) / b.sigma
    la, lmb = _sp.log_ndtr(ab * [[1.0], [-1.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        ldiff = la + np.log(-np.expm1(np.minimum(lmb - la, 0.0)))
    ldiff = np.where(np.isnan(ldiff), -np.inf, ldiff)
    out = (math.log(e.theta) + e.theta ** 2 * b.sigma ** 2 / 2.0 - c * e.theta + ldiff)
    if not grad:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        ra, rb = np.exp(specfun.std_normal_logpdf(ab) - ldiff)
    diff = ra - rb
    # a and -bb move alike in theta and mu and apart in sigma
    rows = np.empty((3, p.size))
    rows[0] = 1.0 / e.theta + e.theta * b.sigma ** 2 - c - b.sigma * diff
    rows[1] = e.theta - diff / b.sigma
    rows[2] = (e.theta ** 2 * b.sigma - ra * (c / b.sigma ** 2 + e.theta)
               - rb * (b.mu / b.sigma ** 2 - e.theta))
    return out, rows


#: relative step in alpha of exp_gamma's central difference of log L
_ALPHA_STEP = 1e-6


def _log_marginal_exp_gamma(p, e: ExpParams, g: GammaParams, grad=False):
    """log f_P at every p (-inf at p <= 0) and, with grad, its derivatives
    with respect to (theta, alpha, beta), a (3, genes) array.

    f_P = theta e^(-theta p) / (Gamma(alpha) beta^alpha) L(alpha) with
    L(a) = integral of b^(a-1) e^(-lam b) over (0, p), lam = 1/beta - theta.
    dL/dlam = -L E[b], E[b] = L(alpha + 1)/L(alpha), gives the theta and beta
    scores; the alpha score takes a central difference of log L.
    """
    p = np.asarray(p, dtype=float)
    lam = 1.0 / g.beta - e.theta
    out = np.full(p.shape, -np.inf)
    pos = p > 0
    pp = p[pos]
    step = _ALPHA_STEP * g.alpha
    # log L at alpha and, with grad, at alpha + 1 and alpha +- step, in one call
    shapes = [g.alpha, g.alpha + 1.0, g.alpha + step, g.alpha - step] if grad else [g.alpha]
    log_l, *others = correct.log_truncated_gamma_integral(shapes, lam, pp)
    out[pos] = (math.log(e.theta) - e.theta * pp - g.alpha * math.log(g.beta)
                - _sp.gammaln(g.alpha) + log_l)
    if not grad:
        return out
    log_up, log_plus, log_minus = others
    mean = np.exp(log_up - log_l)
    d_log_l = (log_plus - log_minus) / (2.0 * step)
    rows = np.zeros((3, p.size))
    rows[:, pos] = [1.0 / e.theta - pp + mean,
                    d_log_l - math.log(g.beta) - _sp.psi(g.alpha),
                    mean / g.beta ** 2 - g.alpha / g.beta]
    return out, rows


def _log_marginal_gamma_normal(p, g: GammaParams, b: NormalParams, grad=False):
    """Grid-convolution marginal (bounded-density shapes); quadrature catches
    the rest: as in the corrector, the genes below the grid's first node
    mu - 12 sigma and past the model's grid extent
    (``correct.gamma_normal_extent``), and the genes whose grid density
    lies below the floor.  The grid ends at the largest gene within the
    extent.

    With grad, also the derivatives with respect to (alpha, beta, mu, sigma),
    a (4, genes) array: exact for the grid's value
    (``correct.gamma_normal_density``), by Fisher's identity on the engine's
    nodes for the rest, from the same engine call as their value
    (``_integrals``).  None where the grid refuses the array (shape below 1,
    or no memory for it): ``log_marginal`` then takes the engine for every
    gene.
    """
    p = np.asarray(p, dtype=float)
    start, extent = correct.gamma_normal_range(g, b)
    near = (p >= start) & (p <= extent)
    try:
        dens, peak, *d_dens = correct.gamma_normal_density(
            p[near], g, b, min(float(np.max(p)), extent), grad)
    except (InvalidParameterError, MemoryError):
        return None
    off = ~near
    off[near] = ~(dens >= correct.LIKELIHOOD_GRID_FLOOR * peak)
    out, rows = np.empty(p.shape), np.empty((4, p.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[near] = np.log(np.maximum(dens, 0.0))
        if grad:
            rows[:, near] = d_dens[0] / dens
    if off.any():
        m = GammaNormal(g, b)
        res = _integrals(p[off], m, _fisher_weights(m) if grad else None)
        out[off] = np.where(res.ok, res.log_f, -np.inf)
        if grad:
            rows[:, off] = np.where(res.means_ok, res.means, np.nan)
    return (out, rows) if grad else out


#: the target of the engine and of the tilt in the likelihood
_LIKELIHOOD_REL_TOL = 1e-6


def _fisher_weights(m: ModelSpec, noise=True):
    """The engine's weight rows whose posterior means are the score of
    log f_P(p), by Fisher's identity (Louis 1982):
    d log f_P(p)/dtheta = E[d log f_S(S)/dtheta + d log f_B(p - S)/dtheta | P = p].
    The signal's rows come first, then, with noise, the noise's."""
    def weights(s, log_s, y):
        rows = _density_rows(m.signal, s, log_s)
        return np.concatenate([rows, _density_rows(m.noise, y)]) if noise else rows
    return weights


#: Fisher's identity needs no boundary term at the GB signal's moving support
#: end d/(1 - c)^(1/a) only if the density vanishes there (v > 1); just above
#: 1 it rises in a layer too thin for the engine's nodes, so genes whose
#: integral reaches that end are refused up to this v
_FISHER_V_MIN = 1.01


def _at_signal_end(m: ModelSpec, p):
    """The genes of p whose score Fisher's identity cannot give: a GB signal
    with v <= _FISHER_V_MIN, and an integral that reaches the signal's
    support end, where the noise has density."""
    if not (isinstance(m.signal, GBParams) and m.signal.v <= _FISHER_V_MIN):
        return np.zeros(np.shape(p), dtype=bool)
    return dist_logpdf(m.noise, p - gb_support_upper(m.signal)) > -np.inf


def _integrals(p, m: ModelSpec, weights=None) -> quadrature.Integrals:
    """The likelihood's ``quadrature.Integrals`` of the genes p under m, at
    ``_LIKELIHOOD_REL_TOL``: the one path by which its value and its Fisher
    rows are integrated.

    A tilt family (``correct.ROUTES``) takes the Gauss rules in the noise's z
    (``quadrature.tilt_integrals``) unless ``quadrature.tilt_refusal`` leaves
    it to the tanh-sinh engine, as every other model is.  A gene whose means
    the rule does not certify takes the engine's, and its value too unless
    the rule certifies that.
    """
    if correct.ROUTES[m.kind] != "tilt" or quadrature.tilt_refusal(m):
        return quadrature.log_integrals(p, m, weights, _LIKELIHOOD_REL_TOL)
    res = quadrature.tilt_integrals(p, m, weights, _LIKELIHOOD_REL_TOL)
    rest = np.flatnonzero(~res.means_ok)
    if not rest.size:
        return res
    engine = quadrature.log_integrals(p[rest], m, weights, _LIKELIHOOD_REL_TOL)
    log_f, means, change, ok, means_ok = (a.copy() for a in res)
    kept = ok[rest]
    log_f[rest] = np.where(kept, log_f[rest], engine.log_f)
    ok[rest] = kept | engine.ok
    means[:, rest], change[rest], means_ok[rest] = engine.means, engine.change, engine.means_ok
    return quadrature.Integrals(log_f, means, change, ok, means_ok)


#: the log marginals of the closed and grid routes, with their scores
_SCORED_MARGINALS = {
    "exp_normal": _log_marginal_exp_normal,
    "exp_gamma": _log_marginal_exp_gamma,
    "gamma_normal": _log_marginal_gamma_normal,
}


def log_marginal(m: ModelSpec, p, grad=False):
    """log f_P(p) under model m; -inf outside support.  Vectorized over p.

    Each family takes its correction's route (``correct.ROUTES``): the
    closed forms, the gamma-normal grid, the Gauss rules in the noise's z
    (exp_lognormal, gamma_lognormal, gb_normal) or the tanh-sinh engine
    (gb_gb, and a gamma-normal model the grid refuses), the last two by
    ``_integrals``; a gene the engine cannot certify reads -inf: never fatal.

    With grad, also the derivatives in param_names order, a (parameters,
    genes) array, from the same route.  On the tilt and engine routes the
    rows are NaN where Fisher's identity misses a boundary term
    (``_at_signal_end``), so that an optimizer reads the point as not
    finite.
    """
    if correct.ROUTES[m.kind] in ("closed", "grid"):
        marginal = _SCORED_MARGINALS[m.kind](p, m.signal, m.noise, grad)
        if marginal is not None:
            return marginal
    p = np.asarray(p, dtype=float)
    res = _integrals(p, m, _fisher_weights(m) if grad else None)
    out = np.where(res.ok, res.log_f, -np.inf)
    if not grad:
        return out
    rows = np.where(res.means_ok, res.means, np.nan)
    rows[:, _at_signal_end(m, p)] = np.nan
    return out, rows


def noise_loglik(m: ModelSpec, problem: EstimationProblem) -> float:
    """Negative-control part of the likelihood (the printed noise equations
    are derivatives of exactly this sum)."""
    return float(np.sum(dist_logpdf(m.noise, problem.negatives)))


def loglik(params: ModelSpec, problem: EstimationProblem) -> float:
    """Full log-likelihood: gene marginals plus negative-control noise terms."""
    lm = log_marginal(params, problem.observed)
    total = float(np.sum(lm)) + noise_loglik(params, problem)
    return total if not math.isnan(total) else -math.inf


def _density_rows(dist, x, log_x=None):
    """d log f(x)/d(parameters) of any signal or noise distribution at
    every point of the array x, one row per parameter in field order.
    log_x, when given, stands for log x (x may have underflowed to 0).
    GB: l = log(x/d), t = (x/d)^a, q = c t/(1 + c t), r = (1 - c) t/(1 - (1 - c) t).
    """
    if isinstance(dist, NormalParams):
        z = (x - dist.mu) / dist.sigma
        return np.stack([z / dist.sigma, (z * z - 1.0) / dist.sigma])
    if isinstance(dist, ExpParams):
        return (1.0 / dist.theta - x)[None]
    log_x = np.log(x) if log_x is None else log_x
    if isinstance(dist, LognormalParams):
        z = (log_x - dist.mu) / dist.sigma
        return np.stack([z / dist.sigma, (z * z - 1.0) / dist.sigma])
    if isinstance(dist, GammaParams):
        return np.stack([log_x - math.log(dist.beta) - _sp.psi(dist.alpha),
                         x / dist.beta ** 2 - dist.alpha / dist.beta])
    a, c, d, u, v = dist.a, dist.c, dist.d, dist.u, dist.v
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        l = log_x - math.log(d)
        t = np.exp(a * l)
        log_rise = np.logaddexp(0.0, a * l + np.log(c))     # log(1 + c t)
        q = np.exp(np.log(c) + a * l - log_rise)
        fall = (1.0 - c) * t
        r = fall / (1.0 - fall)
        psi_uv = _sp.psi(u + v)
        return np.stack([
            1.0 / a + l * (u - (v - 1.0) * r - (u + v) * q),
            (v - 1.0) * t / (1.0 - fall) - (u + v) * t * np.exp(-log_rise),
            (a / d) * ((v - 1.0) * r + (u + v) * q - u),
            a * l - _sp.psi(u) + psi_uv - log_rise,
            np.log1p(-fall) - _sp.psi(v) + psi_uv - log_rise])


def _controls_score(params: ModelSpec, problem: EstimationProblem):
    """(``noise_loglik``, its gradient in param_names order, the
    per-control scores): a (parameters, controls) array, zero in the
    signal's rows."""
    noise, x = params.noise, problem.negatives
    rows = np.zeros((len(param_names(params.kind)), x.size))
    noise_rows = _density_rows(noise, x)
    rows[-noise_rows.shape[0]:] = noise_rows
    return float(dist_logpdf(noise, x).sum()), rows.sum(axis=1), rows


def loglik_score(params: ModelSpec, problem: EstimationProblem):
    """(loglik, its gradient in param_names order, the per-observation
    scores), every family on its ``log_marginal`` route.  The value equals
    ``loglik`` bit for bit.  The per-observation scores are the terms the
    gradient sums, a (parameters, genes + controls) array: the genes'
    columns, then the controls', which move only the noise parameters.
    """
    lm, gene_rows = log_marginal(params, problem.observed, grad=True)
    noise_ll, noise_score, noise_rows = _controls_score(params, problem)
    total = float(np.sum(lm)) + noise_ll
    return ((total if not math.isnan(total) else -math.inf),
            gene_rows.sum(axis=1) + noise_score,
            np.concatenate([gene_rows, noise_rows], axis=1))


# ---------------------------------------------------------------------------
# Scores of the GB families
# ---------------------------------------------------------------------------

def score_gb(params: ModelSpec, problem: EstimationProblem) -> np.ndarray:
    """The likelihood equations of a GB-signal model, ordered noise block
    then signal block: gb_gb (a2, c2, d2, u2, v2, a1, c1, d1, u1, v1),
    gb_normal (mu, sigma, a, c, d, u, v).

    The noise block differentiates the negative-control sum (as printed; for
    normal noise, closed-form zeros at the control mean and biased
    variance); the signal block differentiates the gene-marginal sum, each
    gene by Fisher's identity on the route ``log_marginal`` takes
    (``_integrals``: the tilt for gb_normal, the engine for gb_gb), gb_normal
    genes at or below mu included.  Raises DomainError for the first gene,
    in array order, outside the support, and QuadratureError for the first
    whose score is not certified.
    """
    p = problem.observed
    res = _integrals(p, params, _fisher_weights(params, noise=False))
    at_end = _at_signal_end(params, p)
    # an empty range reads -inf with NaN means
    for i in np.flatnonzero(~res.means_ok | np.isnan(res.means).any(axis=0) | at_end).tolist():
        if res.log_f[i] == -np.inf:
            raise DomainError(f"p={p[i]} lies outside the support of {params.kind}")
        reason = (f"its integral reaches the signal's support end, where v={params.signal.v} "
                  f"leaves Fisher's identity a boundary term" if at_end[i] else
                  f"its certificate's change {res.change[i]:.2e} misses the target")
        raise QuadratureError(f"gene {i} (p={p[i]}): its score is not certified ({reason})")
    return np.concatenate([_density_rows(params.noise, problem.negatives).sum(axis=1),
                           [math.fsum(row) for row in res.means.tolist()]])


#: the gb_normal name of ``score_gb``
score_gb_normal = score_gb


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _control_moments(problem):
    neg = problem.negatives
    if neg.size < 2:
        raise DegenerateControlsError(
            f"need at least 2 negative controls, got {neg.size}")
    m = float(np.mean(neg))
    v = float(np.var(neg))
    if v <= 0.0:
        raise DegenerateControlsError("negative controls have zero variance")
    return m, v


def _moment_block(ptype, m, v, sample):
    """The block of class ptype with mean m and variance v, a GB block near
    the gamma law's; a lognormal block takes the log moments of sample."""
    if ptype is ExpParams:
        return ExpParams(1.0 / m)
    if ptype is NormalParams:
        return NormalParams(m, math.sqrt(v))
    if ptype is LognormalParams:
        logs = np.log(sample)
        sd = float(np.std(logs))
        if sd <= 0:
            raise DegenerateControlsError("log negative controls have zero variance")
        return LognormalParams(float(np.mean(logs)), sd)
    gamma = GammaParams(alpha=m * m / v, beta=v / m)
    return gamma if ptype is GammaParams else gb_from_gamma(gamma, v_big=1e3)


def init_params(problem: EstimationProblem) -> ModelSpec:
    """Starting parameters: noise from control moments, signal from the
    control-mean-subtracted observations (floored at the 1% quantile)."""
    m, v = _control_moments(problem)
    diffs = problem.observed - m
    pos = diffs[diffs > 0]
    # floor at the 1% quantile of the positive differences so the shifted
    # sample stays positive without distorting its moments
    eps = float(np.quantile(pos, 0.01)) if pos.size else 1e-3 * float(np.mean(problem.observed))
    shifted = np.maximum(diffs, eps)
    sm = float(np.mean(shifted))
    sv = max(float(np.var(shifted)), 1e-12 * sm * sm)
    model = MODEL_TYPES[problem.model_kind]
    hints = get_type_hints(model)
    return model(_moment_block(hints["signal"], sm, sv, shifted),
                 _moment_block(hints["noise"], m, v, problem.negatives))


# ---------------------------------------------------------------------------
# The optimizer's coordinates: one chart per parameter
# ---------------------------------------------------------------------------

#: one parameter's coordinate x for the optimizer: x for a value (to_x), the
#: value and d value/dx at x (at), and the box [lo, hi] that x is clipped to
_Chart = namedtuple("_Chart", "to_x at lo hi", defaults=(-math.inf, math.inf))


def _log_odds(c):
    c = min(max(c, 1e-3), 1.0 - 1e-3)
    return math.log(c / (1.0 - c))


def _expit(x):
    c = 1.0 / (1.0 + math.exp(-x))
    return c, c * (1.0 - c)


_SAME = _Chart(lambda v: v, lambda x: (x, 1.0))
_LOG = _Chart(math.log, lambda x: (math.exp(x),) * 2)
_SHAPE = _LOG._replace(lo=math.log(1e-2), hi=math.log(1e4))

#: the charts of each parameter class, one per field in field order: mu as
#: is; c by its logit, c clipped to [1e-3, 1 - 1e-3] and x to +-6.9; every
#: other parameter on the log scale, GB's a boxed to [0.02, 50] and u and v
#: to [1e-2, 1e4]
_CHARTS = {
    NormalParams: (_SAME, _LOG),
    LognormalParams: (_SAME, _LOG),
    ExpParams: (_LOG,),
    GammaParams: (_LOG, _LOG),
    GBParams: (_LOG._replace(lo=math.log(0.02), hi=math.log(50.0)),
               _Chart(_log_odds, _expit, -6.9, 6.9), _LOG, _SHAPE, _SHAPE),
}

#: a parameter this close to a finite end of its chart's box, in the
#: optimizer's coordinates, or past it (where its coordinate no longer moves
#: the model), sits at it
_CAP_DISTANCE = 1e-6


def _at_cap(x, charts, labels):
    """The labels of the parameters of the vector x that sit at an end of
    their charts' boxes."""
    return [label for label, xi, ch in zip(labels, x, charts)
            if xi <= ch.lo + _CAP_DISTANCE or xi >= ch.hi - _CAP_DISTANCE]


def _codec(charts):
    """(to_vec(values) -> list, from_vec(x) -> (values, d values/dx), bounds)
    for parameters on the given charts (``_CHARTS``).  Each x is clipped to
    its chart's box, and the chain-rule factor d value/dx is 0 past the box,
    where x no longer moves the value; the boxes also clip the jittered
    starts."""
    def to_vec(values):
        return [min(max(ch.to_x(v), ch.lo), ch.hi) for ch, v in zip(charts, values)]

    def from_vec(x):
        at = [ch.at(min(max(xi, ch.lo), ch.hi)) + (ch.lo <= xi <= ch.hi,)
              for ch, xi in zip(charts, x)]
        return [v for v, _, _ in at], np.array([d if inside else 0.0 for _, d, inside in at])

    return to_vec, from_vec, [(ch.lo, ch.hi) for ch in charts]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _starts(x0, bounds, budget, rng):
    """The optimizer starts: x0, then x0 plus normal offsets, clipped to bounds."""
    starts = [np.asarray(x0, dtype=float)]
    for _ in range(budget.n_starts - 1):
        starts.append(np.asarray(x0) + rng.normal(0.0, _START_JITTER, len(x0)))
    lo, hi = np.array(bounds).T
    return [np.clip(st, lo, hi) for st in starts]


#: BFGS stops when every gradient entry per observation is below this
_GTOL = 1e-6


#: the longest first step, in any coordinate, that BFGS takes from the outer
#: product of the scores
_OPG_STEP_MAX = 1.0


def _opg_inverse(rows, n):
    """BFGS's first inverse Hessian of -loglik/n: the inverse of the outer
    product of the per-observation scores, R R^T/n (Berndt, Hall, Hall and
    Hausman 1974), symmetrized; None where it is not positive definite, or
    where its first step (it times the rows' sum over n) moves a coordinate
    by more than ``_OPG_STEP_MAX``: a product near singular (a GB start with
    c at the clip) sends that step where the line search accepts no point.
    """
    with np.errstate(all="ignore"):
        info = rows @ rows.T / n
    if not np.all(np.isfinite(info)):
        return None
    try:
        inv = np.linalg.inv(info)
        inv = (inv + inv.T) / 2.0
        np.linalg.cholesky(inv)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        step = inv @ rows.sum(axis=1) / n
    return inv if np.all(np.abs(step) <= _OPG_STEP_MAX) else None


def _bfgs_maximize(objective, x0, bounds, budget, rng, scale):
    """Multi-start BFGS (``bfgs.minimize``: SciPy's BFGS update, its
    Moré-Thuente line search and that search's fallback) on
    -objective/scale; objective(x) -> (value, gradient, per-observation
    score rows).

    Dividing by the number of observations makes the gradient tolerance a
    per-observation one.  Each start's own evaluation gives BFGS its first
    inverse Hessian (``_opg_inverse``; the identity where that fails), and
    BFGS reads that evaluation back rather than repeating it.  A point where
    the objective raises or is not finite reads +inf, which fails the line
    search's sufficient-decrease test; a start that reads +inf itself stops
    there ("not_finite").  The start with the least -objective wins.
    Returns the winning result, and for every start its first inverse
    Hessian ('opg' or 'identity'), its evaluations and its stop reason, and
    (value, gradient) of the objective at the winner.
    """
    seen = {}

    def evaluate(x):
        try:
            v, g, rows = objective(x)
        except (BeadcorrError, OverflowError, FloatingPointError):
            v, g, rows = -math.inf, None, None
        if not (math.isfinite(v) and np.all(np.isfinite(g))):
            v, g, rows = -math.inf, np.zeros(len(x)), None
        seen[x.tobytes()] = v, g
        return v, g, rows

    def neg(x):
        v, g = seen.get(x.tobytes()) or evaluate(x)[:2]
        return -v / scale, -g / scale

    hessians, results = [], []
    for start in _starts(x0, bounds, budget, rng):
        v, _, rows = evaluate(start)
        h0 = None if rows is None else _opg_inverse(rows, scale)
        hessians.append("identity" if h0 is None else "opg")
        results.append(bfgs.minimize(neg, start, _GTOL, budget.max_iter, h0) if v > -math.inf
                       else bfgs.Result(start, math.inf, 1, 0, "not_finite"))
    best = min(results, key=lambda res: res.fun)
    v, g = seen.get(best.x.tobytes()) or evaluate(best.x)[:2]
    return (best, tuple(hessians), tuple(res.nfev for res in results),
            tuple(res.stop for res in results), (v, g))


def _refusal(stage, m: ModelSpec, problem: EstimationProblem, genes):
    """The error of a fit stage whose winner m reads -inf: for the first gene
    (where the stage reads them) or control whose log density is -inf at m,
    a DomainError outside m's support, else a NumericUnderflowError."""
    (s_lo, s_hi), (lo, hi) = dist_support(m.signal), dist_support(m.noise)
    points = ([("gene", problem.observed, log_marginal(m, problem.observed), s_lo + lo, s_hi + hi)]
              if genes else [])
    points.append(("control", problem.negatives, dist_logpdf(m.noise, problem.negatives), lo, hi))
    head = f"every start of the {stage} stage reads -inf"
    for what, x, log_f, lo, hi in points:
        for i in np.flatnonzero(log_f == -np.inf)[:1].tolist():
            side = "inside" if lo < x[i] < hi else "outside"
            return (NumericUnderflowError if side == "inside" else DomainError)(
                f"{head}: {what} {i} (x={x[i]}) has log density -inf {side} the support "
                f"({lo}, {hi}) of {m}")
    return BeadcorrError(f"{head}: its likelihood or score is not finite at {m}")


def fit_mle(problem: EstimationProblem, budget: FitBudget = FitBudget()) -> FitResult:
    """Maximize the likelihood from the moment-based start by multi-start
    BFGS on its score (``loglik_score``, ``_bfgs_maximize``), each parameter
    on its class's chart (``_CHARTS``), all parameters in one stage, except
    that GB families estimate the noise block from the controls first (as
    the likelihood equations prescribe; a normal noise starts at its control
    MLE and stays there), then the signal block from the gene marginals.
    The gradient norm is that of the score in the model's parameters at the
    fit: ``score_gb`` for a GB fit, the winner's gradient less the codec's
    chain-rule factor otherwise.  A fit is not converged where a stage's
    winner stopped short of the gradient tolerance, or with a parameter at
    an end of its chart's box (``at_cap``: signal.a, noise.c, ...).  A
    stage whose every start reads -inf raises (``_refusal``).  The
    diagnostics give, per start in stage order, the first inverse Hessian
    (``start_hessian``), the evaluations (``start_nfev``) and why it stopped
    (``start_stop``: "gtol", "line_search", "max_iter" or "not_finite").
    """
    rng = np.random.default_rng(budget.seed)
    kind = problem.model_kind
    start = init_params(problem)
    values = np.array(model_to_values(start))
    blocks = (("signal", start.signal), ("noise", start.noise))
    charts = [ch for _, block in blocks for ch in _CHARTS[type(block)]]
    labels = [f"{label}.{f.name}" for label, block in blocks for f in fields(block)]
    every, n_signal = np.arange(len(charts)), len(fields(start.signal))
    n_obs = problem.observed.size + problem.negatives.size
    gb = kind in ("gb_gb", "gb_normal")
    stages = ([("noise", every[n_signal:], _controls_score, problem.negatives.size),
               ("signal", every[:n_signal], loglik_score, n_obs)]
              if gb else [("joint", every, loglik_score, n_obs)])

    converged, at_cap, hessians, nfevs, stops = True, [], (), (), ()
    for label, free, score, scale in stages:
        stage_charts = [charts[i] for i in free]
        to_vec, from_vec, bounds = _codec(stage_charts)

        def objective(x):
            block, factor = from_vec(x)
            trial = values.copy()
            trial[free] = block
            v, grad, rows = score(model_from_values(kind, trial), problem)
            # chain rule of the codec
            return v, grad[free] * factor, rows[free] * factor[:, None]

        best, h0, nfev, stop, (ll, grad) = _bfgs_maximize(
            objective, to_vec(values[free]), bounds, budget, rng, scale)
        values[free], factor = from_vec(best.x)
        if ll == -math.inf:
            raise _refusal(label, model_from_values(kind, values), problem,
                           genes=score is loglik_score)
        converged = converged and best.success
        at_cap += _at_cap(best.x, stage_charts, [labels[i] for i in free])
        hessians, nfevs, stops = hessians + h0, nfevs + nfev, stops + stop

    params = model_from_values(kind, values)
    try:
        # the score in the model's parameters, less the codec's chain rule
        grad_norm = float(np.linalg.norm(score_gb(params, problem) if gb else grad / factor))
    except (BeadcorrError, FloatingPointError):
        # wherever a gene's score is not certified
        grad_norm = None
    return FitResult(params=params, loglik=ll, converged=converged and not at_cap,
                     iterations=sum(nfevs), method="mle", gradient_norm=grad_norm,
                     diagnostics={"local_method": "BFGS", "start_hessian": hessians,
                                  "start_nfev": nfevs, "start_stop": stops,
                                  "at_cap": tuple(at_cap)})


def fit_moments(problem: EstimationProblem) -> FitResult:
    """Method of moments: noise from control moments, signal from the
    mean/variance differences implied by additivity."""
    kind = problem.model_kind
    if kind in ("gb_gb", "gb_normal"):
        raise UnsupportedMethodError(
            "GB families are not moment-identifiable (five parameters); "
            "use MLE or plug-in")
    mB, vB = _control_moments(problem)
    obs = problem.observed
    dm = float(np.mean(obs)) - mB
    dv = float(np.var(obs)) - vB
    clamped = False
    eps_m = float(np.quantile(obs, 0.01))
    if dm <= 0:
        dm, clamped = eps_m, True
    if dv <= 0:
        dv, clamped = eps_m ** 2, True

    model = MODEL_TYPES[kind]
    hints = get_type_hints(model)
    signal = _moment_block(hints["signal"], dm, dv, None)
    if hints["noise"] is LognormalParams:
        sig2 = math.log1p(vB / (mB * mB))
        noise = LognormalParams(math.log(mB) - sig2 / 2.0, math.sqrt(sig2))
    else:
        noise = _moment_block(hints["noise"], mB, vB, None)
    params = model(signal, noise)
    return FitResult(params=params, loglik=loglik(params, problem),
                     converged=True, iterations=0, method="moments",
                     diagnostics={"variance_clamped": clamped})


def fit_plugin(problem: EstimationProblem) -> FitResult:
    """Plug-in: control statistics as noise parameters, moment-matched signal,
    no optimization."""
    params = init_params(problem)
    return FitResult(params=params, loglik=loglik(params, problem),
                     converged=True, iterations=0, method="plugin")
