"""Per-array parameter estimation: maximum likelihood, moments, plug-in.

The likelihood of an array is the sum of per-gene log marginal densities plus
the log density of the negative controls under the noise component.  For the
GB families the printed likelihood equations estimate the noise block from
the negative controls alone, so maximum likelihood runs in two stages: noise
from the controls, then signal from the gene marginals with noise fixed.

exp_normal, exp_gamma and gamma_normal return their exact score with the
likelihood (``loglik_score``), and are fitted by BFGS on it: about 15
value-and-gradient evaluations per fit.  The gamma-normal grid value at p is
a cubic through the grid nodes less the endpoint terms of the generalized
Euler-Maclaurin expansion at s = 0 (``correct.gamma_normal_density``), and
its score differentiates exactly that.  The other families run Nelder-Mead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import special as _sp

from . import correct, oracle, quadrature, series, specfun
from .dists import (ExpParams, GammaNormal, GammaParams, GBGB, GBNormal,
                    GBParams, LognormalParams, MODEL_KINDS, MODEL_TYPES,
                    ModelSpec, NormalParams, dist_logpdf, gb_from_gamma,
                    model_from_values, model_to_values, param_names)
from .errors import (BeadcorrError, DegenerateControlsError, DomainError,
                     InvalidParameterError, UnsupportedMethodError)


@dataclass(frozen=True)
class EstimationProblem:
    """One array's data: regular gene intensities and negative controls."""

    observed: np.ndarray
    negatives: np.ndarray
    model_kind: str
    series_cfg: series.SeriesConfig = series.SeriesConfig()

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=float)
        neg = np.asarray(self.negatives, dtype=float)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "negatives", neg)
        if obs.size < 1:
            raise InvalidParameterError("need at least one observed intensity")
        if np.any(obs <= 0) or np.any(neg <= 0):
            raise InvalidParameterError("all intensities must be positive")
        if self.model_kind not in MODEL_KINDS:
            raise InvalidParameterError(f"unknown model kind {self.model_kind!r}")

    def __hash__(self):
        return hash((self.model_kind, self.observed.tobytes(), self.negatives.tobytes()))


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
    n_starts: int = 5
    max_iter: int = 500
    seed: int = 0


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
    mu_sp = p - b.mu - b.sigma ** 2 * e.theta
    a = mu_sp / b.sigma
    bb = (p - mu_sp) / b.sigma
    la = _sp.log_ndtr(a)
    lmb = _sp.log_ndtr(-bb)
    with np.errstate(divide="ignore", invalid="ignore"):
        ldiff = la + np.log(-np.expm1(np.minimum(lmb - la, 0.0)))
    ldiff = np.where(np.isnan(ldiff), -np.inf, ldiff)
    out = (math.log(e.theta) + e.theta ** 2 * b.sigma ** 2 / 2.0
           - (p - b.mu) * e.theta + ldiff)
    if not grad:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        ra = np.exp(specfun.std_normal_logpdf(a) - ldiff)
        rb = np.exp(specfun.std_normal_logpdf(bb) - ldiff)
    # a and -bb move alike in theta and mu and apart in sigma
    rows = np.stack([
        1.0 / e.theta + e.theta * b.sigma ** 2 - (p - b.mu) - b.sigma * (ra - rb),
        e.theta - (ra - rb) / b.sigma,
        e.theta ** 2 * b.sigma - ra * ((p - b.mu) / b.sigma ** 2 + e.theta)
        - rb * (b.mu / b.sigma ** 2 - e.theta)])
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
    log_l = correct.log_truncated_gamma_integral(g.alpha, lam, pp)
    out[pos] = (math.log(e.theta) - e.theta * pp - g.alpha * math.log(g.beta)
                - _sp.gammaln(g.alpha) + log_l)
    if not grad:
        return out
    mean = np.exp(correct.log_truncated_gamma_integral(g.alpha + 1.0, lam, pp) - log_l)
    step = _ALPHA_STEP * g.alpha
    d_log_l = (correct.log_truncated_gamma_integral(g.alpha + step, lam, pp)
               - correct.log_truncated_gamma_integral(g.alpha - step, lam, pp)) / (2.0 * step)
    rows = np.zeros((3, p.size))
    rows[:, pos] = [1.0 / e.theta - pp + mean,
                    d_log_l - math.log(g.beta) - _sp.psi(g.alpha),
                    mean / g.beta ** 2 - g.alpha / g.beta]
    return out, rows


#: grid densities below this share of the grid's peak are FFT rounding noise,
#: or lie below the grid's second node, where the grid gives no value
_GRID_DENSITY_FLOOR = 1e-13

#: engine target of the quadrature genes' gamma-normal scores
_SCORE_QUAD_TOL = 1e-10
#: step in t of the difference of log E[s^t] at t = 0
_LOG_MOMENT_STEP = 1e-5


def _log_marginal_gamma_normal(p, g: GammaParams, b: NormalParams, grad=False):
    """Grid-convolution marginal (bounded-density shapes); quadrature catches
    the rest, and the genes whose grid density lies below the floor.

    With grad, also the derivatives with respect to (alpha, beta, mu, sigma),
    a (4, genes) array: exact for the grid's value
    (``correct.gamma_normal_density``), from the engine for the rest.
    """
    p = np.asarray(p, dtype=float)
    m = GammaNormal(g, b)
    try:
        dens, peak, *d_dens = correct.gamma_normal_density(p, g, b, 48, 1 << 21, grad)
    except (InvalidParameterError, MemoryError):
        out = _quadrature_marginal_log(p, m)
        return (out, _gamma_normal_quadrature_score(p, g, b)) if grad else out
    faint = ~(dens >= _GRID_DENSITY_FLOOR * peak)
    with np.errstate(divide="ignore"):
        out = np.log(np.maximum(dens, 0.0))
    if faint.any():
        out[faint] = _quadrature_marginal_log(p[faint], m)
    if not grad:
        return out
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = d_dens[0] / dens
    if faint.any():
        rows[:, faint] = _gamma_normal_quadrature_score(p[faint], g, b)
    return out, rows


def _gamma_normal_quadrature_score(p, g: GammaParams, b: NormalParams):
    """d log f_P/d(alpha, beta, mu, sigma) by one tanh-sinh engine call.

    The posterior moments E[s] and E[s^2] give the beta, mu and sigma scores
    exactly; the alpha score E[log s] - log beta - psi(alpha) takes E[log s]
    as the derivative of K(t) = log E[s^t] at t = 0 by the second-order
    difference (4 K(t) - K(2t) - 3 K(0))/(2t), whose integrals share every
    node (a negative power would read the underflowed s = 0 nodes as inf).
    """
    t = _LOG_MOMENT_STEP
    (l0, l1, l2, lt, l2t), _, _ = quadrature.log_integrals(
        p, GammaNormal(g, b), (0, 1, 2, t, 2.0 * t), _SCORE_QUAD_TOL)
    with np.errstate(over="ignore", invalid="ignore"):
        m1, m2 = np.exp(l1 - l0), np.exp(l2 - l0)
    c = p - b.mu
    log_s = (4.0 * (lt - l0) - (l2t - l0)) / (2.0 * t)
    return np.stack([log_s - math.log(g.beta) - _sp.psi(g.alpha),
                     m1 / g.beta ** 2 - g.alpha / g.beta,
                     (c - m1) / b.sigma ** 2,
                     ((c * c - 2.0 * c * m1 + m2) / b.sigma ** 2 - 1.0) / b.sigma])


def _quadrature_marginal_log(p_vals, m):
    # likelihood fallback: looser tolerance than the referee, never fatal;
    # the tanh-sinh engine answers in one call, QUADPACK takes the genes it
    # cannot certify
    q = oracle.QuadConfig(abs_tol=1e-12, rel_tol=1e-6, max_subdivisions=300)
    (out,), _, ok = quadrature.log_integrals(p_vals, m, (0,), q.rel_tol)
    for i in np.flatnonzero(~ok):
        try:
            out[i] = oracle.marginal_log_pdf_quadrature(float(p_vals[i]), m, q)
        except BeadcorrError:
            out[i] = -np.inf
    return out


#: the families whose log marginal also returns its score, in param_names order
_SCORED_MARGINALS = {
    "exp_normal": _log_marginal_exp_normal,
    "exp_gamma": _log_marginal_exp_gamma,
    "gamma_normal": _log_marginal_gamma_normal,
}


def log_marginal(m: ModelSpec, p, cfg: series.SeriesConfig = series.SeriesConfig()):
    """log f_P(p) under model m; -inf outside support.  Vectorized over p.

    The series families sum the genes their gate accepts in one batch
    (``series.marginal_log_batch``); genes outside the convergence region,
    and genes whose sums are not confirmed, go to quadrature.
    """
    if m.kind in _SCORED_MARGINALS:
        return _SCORED_MARGINALS[m.kind](p, m.signal, m.noise)
    p = np.asarray(p, dtype=float)
    out, ok = series.marginal_log_batch(m, p, cfg)
    if not ok.all():
        # quadrature gives -inf outside the support
        out[~ok] = _quadrature_marginal_log(p[~ok], m)
    return out


def noise_loglik(m: ModelSpec, problem: EstimationProblem) -> float:
    """Negative-control part of the likelihood (the printed noise equations
    are derivatives of exactly this sum)."""
    if problem.negatives.size == 0:
        return 0.0
    return float(np.sum(dist_logpdf(m.noise, problem.negatives)))


def loglik(params: ModelSpec, problem: EstimationProblem) -> float:
    """Full log-likelihood: gene marginals plus negative-control noise terms."""
    lm = log_marginal(params, problem.observed, problem.series_cfg)
    total = float(np.sum(lm)) + noise_loglik(params, problem)
    return total if not math.isnan(total) else -math.inf


def _noise_score(noise, x):
    """d/d(noise parameters) of the summed noise log density at x: (mu,
    sigma) for normal noise, (alpha, beta) for gamma noise."""
    if isinstance(noise, NormalParams):
        z = (x - noise.mu) / noise.sigma
        return np.array([np.sum(z) / noise.sigma, np.sum(z * z - 1.0) / noise.sigma])
    return np.array([np.sum(np.log(x)) - x.size * (math.log(noise.beta) + _sp.psi(noise.alpha)),
                     np.sum(x) / noise.beta ** 2 - x.size * noise.alpha / noise.beta])


def loglik_score(params: ModelSpec, problem: EstimationProblem):
    """(loglik, its gradient in param_names order) for exp_normal, exp_gamma
    and gamma_normal.  The value equals ``loglik`` bit for bit."""
    lm, rows = _SCORED_MARGINALS[params.kind](problem.observed, params.signal,
                                              params.noise, True)
    total = float(np.sum(lm)) + noise_loglik(params, problem)
    score = rows.sum(axis=1)
    if problem.negatives.size:
        score[-2:] += _noise_score(params.noise, problem.negatives)
    return (total if not math.isnan(total) else -math.inf), score


# ---------------------------------------------------------------------------
# Analytic scores for the GB families
# ---------------------------------------------------------------------------

def _gb_density_grad(b_vals, g: GBParams):
    """Rows: d log f_GB(b)/d (a, c, d, u, v), summed over b_vals."""
    b_vals = np.asarray(b_vals, dtype=float)
    t = (b_vals / g.d) ** g.a
    ltd = np.log(b_vals / g.d)
    one_m = 1.0 - (1.0 - g.c) * t
    one_p = 1.0 + g.c * t
    da = (1.0 / g.a + g.u * np.log(b_vals)
          - (g.v - 1.0) * (1.0 - g.c) * ltd * t / one_m
          - g.u * math.log(g.d)
          - (g.u + g.v) * g.c * ltd * t / one_p)
    dc = (g.v - 1.0) * t / one_m - (g.u + g.v) * t / one_p
    dt_dd = -(g.a / g.d) * t
    dd = (-(g.a * g.u / g.d)
          - (g.v - 1.0) * (1.0 - g.c) * dt_dd / one_m
          - (g.u + g.v) * g.c * dt_dd / one_p)
    du = (g.a * np.log(b_vals) - g.a * math.log(g.d)
          - (_sp.psi(g.u) - _sp.psi(g.u + g.v)) - np.log(one_p))
    dv = (np.log(one_m) - (_sp.psi(g.v) - _sp.psi(g.u + g.v)) - np.log(one_p))
    return np.array([da.sum(), dc.sum(), dd.sum(), du.sum(), dv.sum()])


def _signal_score(params, problem):
    """The signal block of a GB score: column sums of the per-gene scores."""
    genes = series.gb_signal_score(params, problem.observed, problem.series_cfg)
    return np.array([math.fsum(col) for col in genes.T.tolist()])


def _check_interior(g: GBParams, label):
    if g.c in (0.0, 1.0):
        raise DomainError(
            f"{label}: score is singular at the mixture boundary c={g.c}; "
            f"use derivative-free steps there")


def score_gb(params: GBGB, problem: EstimationProblem) -> np.ndarray:
    """Ten likelihood-equation values, ordered noise block then signal block:
    (a2, c2, d2, u2, v2, a1, c1, d1, u1, v1).

    The noise block differentiates the negative-control sum (as printed); the
    signal block differentiates the gene-marginal sum.  Valid at interior
    points; at integer u/v the binomial axes truncate and one-sided
    derivative corrections are not applied.
    """
    s, b = params.signal, params.noise
    _check_interior(s, "score_gb")
    _check_interior(b, "score_gb")
    noise_part = (_gb_density_grad(problem.negatives, b)
                  if problem.negatives.size else np.zeros(5))
    return np.concatenate([noise_part, _signal_score(params, problem)])


def score_gb_normal(params: GBNormal, problem: EstimationProblem) -> np.ndarray:
    """Seven likelihood-equation values, ordered (mu, sigma, a, c, d, u, v).

    mu and sigma differentiate the negative-control sum (closed form zeros at
    the control mean and biased variance); the GB block differentiates the
    gene-marginal sum.
    """
    s, b = params.signal, params.noise
    _check_interior(s, "score_gb_normal")
    neg = problem.negatives
    if neg.size:
        d_mu = float(np.sum(neg - b.mu) / b.sigma ** 2)
        d_sigma = float(np.sum((neg - b.mu) ** 2 / b.sigma ** 3 - 1.0 / b.sigma))
    else:
        d_mu = d_sigma = 0.0
    return np.concatenate([[d_mu, d_sigma], _signal_score(params, problem)])


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


def _noise_block(problem, kind):
    m, v = _control_moments(problem)
    neg = problem.negatives
    if kind in ("exp_normal", "gamma_normal", "gb_normal"):
        return NormalParams(m, math.sqrt(v))
    if kind == "exp_gamma":
        return GammaParams(alpha=m * m / v, beta=v / m)
    if kind in ("exp_lognormal", "gamma_lognormal"):
        logs = np.log(neg)
        sd = float(np.std(logs))
        if sd <= 0:
            raise DegenerateControlsError("log negative controls have zero variance")
        return LognormalParams(float(np.mean(logs)), sd)
    if kind == "gb_gb":
        return gb_from_gamma(GammaParams(alpha=m * m / v, beta=v / m), v_big=1e3)
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def _signal_block(problem, kind):
    m, _ = _control_moments(problem)
    diffs = problem.observed - m
    pos = diffs[diffs > 0]
    # floor at the 1% quantile of the positive differences so the shifted
    # sample stays positive without distorting its moments
    eps = float(np.quantile(pos, 0.01)) if pos.size else 1e-3 * float(np.mean(problem.observed))
    shifted = np.maximum(diffs, eps)
    sm = float(np.mean(shifted))
    sv = max(float(np.var(shifted)), 1e-12 * sm * sm)
    if kind in ("exp_normal", "exp_gamma", "exp_lognormal"):
        return ExpParams(1.0 / sm)
    if kind in ("gamma_normal", "gamma_lognormal"):
        return GammaParams(alpha=sm * sm / sv, beta=sv / sm)
    if kind in ("gb_gb", "gb_normal"):
        return gb_from_gamma(GammaParams(alpha=sm * sm / sv, beta=sv / sm), v_big=1e3)
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def init_params(problem: EstimationProblem) -> ModelSpec:
    """Starting parameters: noise from control moments, signal from the
    control-mean-subtracted observations (floored at the 1% quantile)."""
    kind = problem.model_kind
    return MODEL_TYPES[kind](_signal_block(problem, kind),
                             _noise_block(problem, kind))


# ---------------------------------------------------------------------------
# Parameter vector transforms for the optimizer
# ---------------------------------------------------------------------------

_LOGIT_CLIP = 6.9  # c confined to ~(0.001, 0.999)


def _logit(c):
    c = min(max(c, 1e-3), 1.0 - 1e-3)
    return min(max(math.log(c / (1.0 - c)), -_LOGIT_CLIP), _LOGIT_CLIP)


def _inv_logit(x):
    return 1.0 / (1.0 + math.exp(-min(max(x, -_LOGIT_CLIP), _LOGIT_CLIP)))


def _gb_to_vec(g: GBParams):
    return [math.log(min(g.a, 50.0)), _logit(g.c), math.log(g.d),
            math.log(g.u), math.log(min(g.v, 1e4))]


def _gb_from_vec(x):
    return GBParams(a=min(math.exp(x[0]), 50.0), c=_inv_logit(x[1]),
                    d=math.exp(x[2]), u=math.exp(x[3]),
                    v=min(math.exp(x[4]), 1e4))


_GB_BOUNDS = [(math.log(0.02), math.log(50.0)), (-_LOGIT_CLIP, _LOGIT_CLIP),
              (None, None), (math.log(1e-2), math.log(1e4)),
              (math.log(1e-2), math.log(1e4))]


def _joint_codec(kind):
    """(to_vec(model) -> list, from_vec(list) -> model, bounds) for NM space.

    The vector holds the parameters in param_names order, each on the log
    scale except the location mu.
    """
    logged = [name != "mu" for name in param_names(kind)]

    def to_vec(m):
        return [math.log(v) if lg else v for v, lg in zip(model_to_values(m), logged)]

    def from_vec(x):
        return model_from_values(kind, [math.exp(v) if lg else v
                                        for v, lg in zip(x, logged)])

    return to_vec, from_vec, [(None, None)] * len(logged)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _starts(x0, bounds, budget, rng):
    """The optimizer starts: x0, then x0 plus normal offsets, clipped to bounds."""
    starts = [np.asarray(x0, dtype=float)]
    for _ in range(budget.n_starts - 1):
        starts.append(np.asarray(x0) + rng.normal(0.0, _START_JITTER, len(x0)))
    lo = np.array([-np.inf if b_ is None or b_[0] is None else b_[0] for b_ in bounds])
    hi = np.array([np.inf if b_ is None or b_[1] is None else b_[1] for b_ in bounds])
    return [np.clip(st, lo, hi) for st in starts]


def _nm_maximize(objective, x0, bounds, budget, rng):
    """Multi-start Nelder-Mead on -objective in transformed space."""
    from scipy import optimize as _opt

    def neg(x):
        try:
            v = objective(x)
        except (BeadcorrError, OverflowError, FloatingPointError):
            return 1e100
        if math.isnan(v):
            return 1e100
        return -v if v > -1e100 else 1e100

    best = None
    total_nfev = 0
    for start in _starts(x0, bounds, budget, rng):
        res = _opt.minimize(neg, start, method="Nelder-Mead", bounds=bounds,
                            options={"maxiter": budget.max_iter,
                                     "xatol": 1e-7, "fatol": 1e-9,
                                     "adaptive": len(x0) > 4})
        total_nfev += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    # profile flatness from the winning simplex
    verts = best.final_simplex[0]
    flat = float(np.max(np.ptp(verts, axis=0)))
    return best, total_nfev, flat


#: BFGS stops when every gradient entry per observation is below this
_GTOL = 1e-6


def _bfgs_maximize(objective, x0, bounds, budget, rng, scale):
    """Multi-start BFGS on -objective/scale; objective(x) -> (value, gradient).

    Dividing by the number of observations makes the gradient tolerance a
    per-observation one.  A point where the objective raises or is not
    finite reads +inf, and the line search steps back from it.  Returns the
    winning result, the evaluations of all starts and (value, gradient) of
    the objective at the winner.
    """
    from scipy import optimize as _opt

    seen = {}

    def neg(x):
        try:
            v, g = objective(x)
        except (BeadcorrError, OverflowError, FloatingPointError):
            v, g = -math.inf, np.zeros(len(x))
        if not (math.isfinite(v) and np.all(np.isfinite(g))):
            v, g = -math.inf, np.zeros(len(x))
        seen[x.tobytes()] = v, g
        return -v / scale, -g / scale

    best = None
    total_nfev = 0
    for start in _starts(x0, bounds, budget, rng):
        res = _opt.minimize(neg, start, method="BFGS", jac=True,
                            options={"maxiter": budget.max_iter, "gtol": _GTOL})
        total_nfev += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    return best, total_nfev, seen.get(best.x.tobytes()) or objective(best.x)


def fit_mle(problem: EstimationProblem, budget: FitBudget = FitBudget()) -> FitResult:
    """Maximize the likelihood from the moment-based start.

    Classical families optimize all parameters jointly; GB families estimate
    the noise block from the controls first (as the likelihood equations
    prescribe), then the signal block from the gene marginals.  exp_normal,
    exp_gamma and gamma_normal run BFGS on their exact scores
    (``loglik_score``); the others run Nelder-Mead.
    """
    rng = np.random.default_rng(budget.seed)
    kind = problem.model_kind
    start = init_params(problem)

    if kind in ("gb_gb", "gb_normal"):
        return _fit_mle_gb(problem, start, budget, rng)

    to_vec, from_vec, bounds = _joint_codec(kind)
    if kind in _SCORED_MARGINALS:
        logged = np.array([name != "mu" for name in param_names(kind)])

        def objective(x):
            m = from_vec(x)
            v, score = loglik_score(m, problem)
            # chain rule of the codec: d/d log v = v d/dv
            return v, score * np.where(logged, model_to_values(m), 1.0)

        n_obs = problem.observed.size + problem.negatives.size
        best, nfev, (ll, grad) = _bfgs_maximize(objective, to_vec(start), bounds,
                                                budget, rng, n_obs)
        return FitResult(params=from_vec(best.x), loglik=ll,
                         converged=bool(best.success), iterations=nfev, method="mle",
                         gradient_norm=float(np.linalg.norm(grad)),
                         diagnostics={"local_method": "BFGS"})

    def objective(x):
        return loglik(from_vec(x), problem)

    best, nfev, flat = _nm_maximize(objective, to_vec(start), bounds, budget, rng)
    params = from_vec(best.x)
    ll = -best.fun
    return FitResult(params=params, loglik=ll, converged=bool(best.success),
                     iterations=nfev, method="mle",
                     diagnostics={"local_method": "Nelder-Mead",
                                  "profile_flatness": flat})


def _fit_mle_gb(problem, start, budget, rng):
    kind = problem.model_kind
    cfg = problem.series_cfg

    # Stage 1: noise from the negative controls
    if kind == "gb_normal":
        neg = problem.negatives
        if neg.size < 2:
            raise DegenerateControlsError("gb_normal fit needs >= 2 controls")
        noise = NormalParams(float(np.mean(neg)), math.sqrt(float(np.var(neg))))
        noise_iters, noise_ok = 0, True
    else:
        def noise_obj(x):
            return float(np.sum(dist_logpdf(_gb_from_vec(x), problem.negatives)))

        x0 = _gb_to_vec(start.noise)
        best_n, noise_iters, _ = _nm_maximize(noise_obj, x0, _GB_BOUNDS, budget, rng)
        noise = _gb_from_vec(best_n.x)
        noise_ok = bool(best_n.success)

    # Stage 2: signal from the gene marginals with noise fixed
    builder = MODEL_TYPES[kind]

    def signal_obj(x):
        m = builder(_gb_from_vec(x), noise)
        return float(np.sum(log_marginal(m, problem.observed, cfg)))

    best_s, sig_iters, flat = _nm_maximize(signal_obj, _gb_to_vec(start.signal),
                                           _GB_BOUNDS, budget, rng)
    params = builder(_gb_from_vec(best_s.x), noise)
    ll = loglik(params, problem)

    # None at c in {0, 1} and wherever a gene's den series is refused
    try:
        score = (score_gb_normal(params, problem) if kind == "gb_normal"
                 else score_gb(params, problem))
        grad_norm = float(np.linalg.norm(score))
    except (BeadcorrError, FloatingPointError):
        grad_norm = None

    return FitResult(params=params, loglik=ll,
                     converged=bool(best_s.success) and noise_ok,
                     iterations=noise_iters + sig_iters, method="mle",
                     gradient_norm=grad_norm,
                     diagnostics={"local_method": "Nelder-Mead",
                                  "profile_flatness": flat})


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

    if kind in ("exp_normal", "exp_gamma", "exp_lognormal"):
        signal = ExpParams(1.0 / dm)
    else:
        signal = GammaParams(alpha=dm * dm / dv, beta=dv / dm)

    neg = problem.negatives
    if kind in ("exp_normal", "gamma_normal"):
        noise = NormalParams(mB, math.sqrt(vB))
    elif kind == "exp_gamma":
        noise = GammaParams(alpha=mB * mB / vB, beta=vB / mB)
    else:
        sig2 = math.log1p(vB / (mB * mB))
        noise = LognormalParams(math.log(mB) - sig2 / 2.0, math.sqrt(sig2))

    params = MODEL_TYPES[kind](signal, noise)
    return FitResult(params=params, loglik=loglik(params, problem),
                     converged=True, iterations=0, method="moments",
                     diagnostics={"variance_clamped": clamped})


def fit_plugin(problem: EstimationProblem) -> FitResult:
    """Plug-in: control statistics as noise parameters, moment-matched signal,
    no optimization."""
    params = init_params(problem)
    return FitResult(params=params, loglik=loglik(params, problem),
                     converged=True, iterations=0, method="plugin")
