"""Distribution family: parameter blocks, densities, supports, samplers.

The five-parameter generalized beta (GB) family nests gamma, exponential and
lognormal laws as limits; the classical families keep their own direct
implementations because the convolution models use both forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Union, get_type_hints

import numpy as np
from scipy import special as _sp

from . import specfun
from .errors import InvalidParameterError

#: log of the largest float; exp of anything above it overflows
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# Parameter blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GBParams:
    """Generalized beta parameters.

    a: shape power, c: mixture weight in [0, 1], d: scale, u/v: beta shapes.
    Support is 0 < x^a < d^a/(1-c), i.e. (0, d/(1-c)^(1/a)), unbounded at c=1.
    """

    a: float
    c: float
    d: float
    u: float
    v: float

    def __post_init__(self):
        if not (0.0 <= self.c <= 1.0):
            raise InvalidParameterError(f"GB mixture weight c must lie in [0,1], got {self.c}")
        for name in ("a", "d", "u", "v"):
            val = getattr(self, name)
            if not (val > 0) or not math.isfinite(val):
                raise InvalidParameterError(f"GB parameter {name} must be positive, got {val}")


@dataclass(frozen=True)
class NormalParams:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise InvalidParameterError(f"normal sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise InvalidParameterError(f"normal mu must be finite, got {self.mu}")


@dataclass(frozen=True)
class ExpParams:
    theta: float  # rate

    def __post_init__(self):
        if not (self.theta > 0) or not math.isfinite(self.theta):
            raise InvalidParameterError(f"exponential rate must be positive, got {self.theta}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma with shape alpha and *scale* beta (mean = alpha * beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            val = getattr(self, name)
            if not (val > 0) or not math.isfinite(val):
                raise InvalidParameterError(f"gamma {name} must be positive, got {val}")

    @classmethod
    def from_rate(cls, alpha, rate):
        """Accept the rate parameterization; stored internally as scale = 1/rate."""
        if not (rate > 0):
            raise InvalidParameterError(f"gamma rate must be positive, got {rate}")
        return cls(alpha=alpha, beta=1.0 / rate)


@dataclass(frozen=True)
class LognormalParams:
    mu: float     # log-location
    sigma: float  # log-scale

    def __post_init__(self):
        if not (self.sigma > 0) or not math.isfinite(self.sigma):
            raise InvalidParameterError(f"lognormal sigma must be positive, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise InvalidParameterError(f"lognormal mu must be finite, got {self.mu}")


# ---------------------------------------------------------------------------
# Model specifications: (signal distribution, noise distribution) pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpNormal:
    signal: ExpParams
    noise: NormalParams
    kind = "exp_normal"


@dataclass(frozen=True)
class ExpGamma:
    signal: ExpParams
    noise: GammaParams
    kind = "exp_gamma"


@dataclass(frozen=True)
class GammaNormal:
    signal: GammaParams
    noise: NormalParams
    kind = "gamma_normal"


@dataclass(frozen=True)
class ExpLognormal:
    signal: ExpParams
    noise: LognormalParams
    kind = "exp_lognormal"


@dataclass(frozen=True)
class GammaLognormal:
    signal: GammaParams
    noise: LognormalParams
    kind = "gamma_lognormal"


@dataclass(frozen=True)
class GBGB:
    signal: GBParams
    noise: GBParams
    kind = "gb_gb"


@dataclass(frozen=True)
class GBNormal:
    signal: GBParams
    noise: NormalParams
    kind = "gb_normal"

    def __post_init__(self):
        # The noise is treated as positive background; the series formulation
        # integrates over (0, p) and needs the noise bulk above zero.
        if not (self.noise.mu > 0):
            raise InvalidParameterError(
                f"gb_normal requires noise mu > 0, got {self.noise.mu}")


ModelSpec = Union[ExpNormal, ExpGamma, GammaNormal, ExpLognormal,
                  GammaLognormal, GBGB, GBNormal]

#: model class of every kind, in the documented order
MODEL_TYPES = {cls.kind: cls for cls in (ExpNormal, ExpGamma, GammaNormal,
                                         ExpLognormal, GammaLognormal, GBGB,
                                         GBNormal)}

MODEL_KINDS = tuple(MODEL_TYPES)


# ---------------------------------------------------------------------------
# Parameter (de)serialization, derived from the dataclass fields
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _layout(kind):
    """((parameter class, field names, name suffix) for signal, then noise).

    GB blocks carry the suffix 1 as signal and 2 as noise, so the two blocks
    of gb_gb get distinct names.
    """
    if kind not in MODEL_TYPES:
        raise InvalidParameterError(f"unknown model kind {kind!r}")
    hints = get_type_hints(MODEL_TYPES[kind])
    out = []
    for component, suffix in (("signal", "1"), ("noise", "2")):
        ptype = hints[component]
        out.append((ptype, tuple(f.name for f in fields(ptype)),
                    suffix if ptype is GBParams else ""))
    return tuple(out)


def param_names(kind):
    """Parameter names of a model kind: signal fields, then noise fields."""
    return tuple(name + suffix for _, names, suffix in _layout(kind)
                 for name in names)


def model_to_values(m: ModelSpec):
    """Parameter values of a model, in param_names(m.kind) order."""
    return [getattr(component, name)
            for component, (_, names, _) in zip((m.signal, m.noise), _layout(m.kind))
            for name in names]


def model_from_values(kind, values):
    """Model of the given kind from values in param_names(kind) order."""
    values = [float(x) for x in values]
    (signal_type, signal_names, _), (noise_type, _, _) = _layout(kind)
    n = len(signal_names)
    return MODEL_TYPES[kind](signal_type(*values[:n]), noise_type(*values[n:]))


# ---------------------------------------------------------------------------
# Densities (log form first, linear form exponentiates at the boundary)
# ---------------------------------------------------------------------------

def gb_support_upper(p: GBParams) -> float:
    """Upper support bound d/(1-c)^(1/a); +inf when c = 1."""
    if p.c == 1.0:
        return math.inf
    return p.d * (1.0 - p.c) ** (-1.0 / p.a)


def gb_logpdf(x, p: GBParams):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    upper = gb_support_upper(p)
    inside = (x > 0) & (x < upper)
    if np.any(inside):
        xi = x[inside]
        lt = p.a * (np.log(xi) - math.log(p.d))
        big = lt > _LOG_FLOAT_MAX   # (x/d)^a overflows: log1p(c t) in logs
        t = np.exp(np.where(big, 0.0, lt))
        rise = np.log1p(p.c * t)
        if np.any(big):
            rise[big] = np.logaddexp(0.0, math.log(p.c) + lt[big])
        lf = (math.log(p.a) + (p.a * p.u - 1.0) * np.log(xi)
              - p.a * p.u * math.log(p.d) - specfun.log_beta(p.u, p.v)
              - (p.u + p.v) * rise)
        if p.c != 1.0:
            # a few ulps below the upper end (1-c)(x/d)^a can round to 1 or
            # above, where the density is 0
            fall = (1.0 - p.c) * t
            lf = np.where(fall < 1.0,
                          lf + (p.v - 1.0) * np.log1p(-np.where(fall < 1.0, fall, 0.0)),
                          -np.inf)
        out[inside] = lf
    return out if out.ndim else float(out)


def gb_pdf(x, p: GBParams):
    out = np.exp(gb_logpdf(x, p))
    return out if np.ndim(out) else float(out)


def exp_logpdf(x, p: ExpParams):
    x = np.asarray(x, dtype=float)
    out = np.where(x >= 0, math.log(p.theta) - p.theta * x, -np.inf)
    return out if out.ndim else float(out)


def gamma_logpdf(x, p: GammaParams):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    if np.any(pos):
        xi = x[pos]
        out[pos] = ((p.alpha - 1.0) * np.log(xi) - xi / p.beta
                    - p.alpha * math.log(p.beta) - _sp.gammaln(p.alpha))
    return out if out.ndim else float(out)


def normal_logpdf(x, p: NormalParams):
    z = (np.asarray(x, dtype=float) - p.mu) / p.sigma
    out = specfun.std_normal_logpdf(z) - math.log(p.sigma)
    return out if np.ndim(out) else float(out)


def lognormal_logpdf(x, p: LognormalParams):
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    if np.any(pos):
        xi = x[pos]
        z = (np.log(xi) - p.mu) / p.sigma
        out[pos] = specfun.std_normal_logpdf(z) - np.log(xi) - math.log(p.sigma)
    return out if out.ndim else float(out)


_LOGPDF = {
    GBParams: gb_logpdf,
    ExpParams: exp_logpdf,
    GammaParams: gamma_logpdf,
    NormalParams: normal_logpdf,
    LognormalParams: lognormal_logpdf,
}


def dist_logpdf(params, x):
    return _LOGPDF[type(params)](x, params)


def dist_logpdf_scalar(params):
    """Closure computing log pdf of a single float, for quadrature hot loops."""
    if isinstance(params, ExpParams):
        th, lth = params.theta, math.log(params.theta)

        def f(x):
            return lth - th * x if x >= 0.0 else -math.inf
        return f
    if isinstance(params, GammaParams):
        al, ib = params.alpha, 1.0 / params.beta
        const = -params.alpha * math.log(params.beta) - math.lgamma(params.alpha)

        def f(x):
            if x <= 0.0:
                return -math.inf
            return (al - 1.0) * math.log(x) - x * ib + const
        return f
    if isinstance(params, NormalParams):
        mu, isig = params.mu, 1.0 / params.sigma
        const = -math.log(params.sigma) - 0.5 * math.log(2.0 * math.pi)

        def f(x):
            z = (x - mu) * isig
            return -0.5 * z * z + const
        return f
    if isinstance(params, LognormalParams):
        mu, isig = params.mu, 1.0 / params.sigma
        const = -math.log(params.sigma) - 0.5 * math.log(2.0 * math.pi)

        def f(x):
            if x <= 0.0:
                return -math.inf
            lx = math.log(x)
            z = (lx - mu) * isig
            return -0.5 * z * z - lx + const
        return f
    if isinstance(params, GBParams):
        a, c, u, v = params.a, params.c, params.u, params.v
        ld = math.log(params.d)
        upper = gb_support_upper(params)
        const = math.log(a) - a * u * ld - specfun.log_beta(u, v)
        omc = 1.0 - c

        def f(x):
            if x <= 0.0 or x >= upper:
                return -math.inf
            lx = math.log(x)
            lt = a * (lx - ld)
            if lt > _LOG_FLOAT_MAX:   # (x/d)^a overflows: log1p(c t) in logs
                lct = math.log(c) + lt
                return const + (a * u - 1.0) * lx - (u + v) * (lct + math.log1p(math.exp(-lct)))
            t = math.exp(lt)
            out = const + (a * u - 1.0) * lx - (u + v) * math.log1p(c * t)
            if omc > 0.0:
                out += (v - 1.0) * math.log1p(-omc * t)
            return out
        return f
    raise TypeError(f"no scalar logpdf for {type(params)}")


def dist_pdf(params, x):
    out = np.exp(dist_logpdf(params, x))
    return out if np.ndim(out) else float(out)


def dist_support(params):
    """(lower, upper) support bounds of the density."""
    if isinstance(params, NormalParams):
        return (-math.inf, math.inf)
    if isinstance(params, GBParams):
        return (0.0, gb_support_upper(params))
    return (0.0, math.inf)


def pdf(x, m: ModelSpec, component: str):
    """Density of the named component ('signal' or 'noise') of a model."""
    return dist_pdf(_component(m, component), x)


def _component(m: ModelSpec, component: str):
    if component == "signal":
        return m.signal
    if component == "noise":
        return m.noise
    raise ValueError(f"component must be 'signal' or 'noise', got {component!r}")


# ---------------------------------------------------------------------------
# GB limit-parameter mappings
# ---------------------------------------------------------------------------

def gb_from_gamma(g: GammaParams, v_big: float) -> GBParams:
    """GB parameters approaching the gamma law: c=1, a=1, v large, d = beta*v."""
    if v_big < 100:
        raise InvalidParameterError(f"v_big must be >= 100, got {v_big}")
    return GBParams(a=1.0, c=1.0, d=g.beta * v_big, u=g.alpha, v=v_big)


def gb_from_lognormal(l: LognormalParams, v_big: float, a_small: float) -> GBParams:
    """GB parameters approaching the lognormal law (a -> 0, v -> inf limit).

    The shape follows u = (a mu + 1)/(sigma^2 a^2); the scale is fixed by the
    log-moment identity E[ln X] = ln(beta) + psi(u)/a of the v -> inf limit,
    so beta = exp(mu - psi(u)/a).  Accuracy improves as a_small shrinks and
    requires v_big >> u (the beta-function tail approximation); log-density
    error is O(1/sqrt(u)) plus O(u/v_big).
    """
    if v_big < 100:
        raise InvalidParameterError(f"v_big must be >= 100, got {v_big}")
    if not (0 < a_small <= 0.1):
        raise InvalidParameterError(f"a_small must lie in (0, 0.1], got {a_small}")
    u = (a_small * l.mu + 1.0) / (l.sigma ** 2 * a_small ** 2)
    log_beta_scale = l.mu - float(_sp.psi(u)) / a_small
    log_d = log_beta_scale + math.log(v_big) / a_small
    if log_d > 709.0:
        raise OverflowError(
            "mapped scale d overflows; shrink v_big or enlarge a_small")
    return GBParams(a=a_small, c=1.0, d=math.exp(log_d), u=u, v=v_big)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample(m: ModelSpec, component: str, n: int, seed: int):
    """n independent draws from the named component; same seed, same output."""
    if n < 1:
        raise InvalidParameterError(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return dist_sample(_component(m, component), n, rng)


def dist_sample(params, n, rng):
    if isinstance(params, ExpParams):
        return rng.exponential(1.0 / params.theta, size=n)
    if isinstance(params, GammaParams):
        return rng.gamma(params.alpha, params.beta, size=n)
    if isinstance(params, NormalParams):
        return rng.normal(params.mu, params.sigma, size=n)
    if isinstance(params, LognormalParams):
        return rng.lognormal(params.mu, params.sigma, size=n)
    if isinstance(params, GBParams):
        return _gb_sample(params, n, rng)
    raise TypeError(f"no sampler for {type(params)}")


# GB sampling: inverse CDF on a quadrature-tabulated CDF.  The density is
# reduced to z in (0,1) where the Beta(u, v) backbone is explicit:
#   c < 1:  z = (1-c) (x/d)^a      density ~ z^(u-1)(1-z)^(v-1)/(1+kappa z)^(u+v)
#   c = 1:  z = y/(1+y), y=(x/d)^a density ~ z^(u-1)(1-z)^(v-1)
# Each panel integral handles the z^(u-1)/(1-z)^(v-1) endpoint singularities by
# an exact power substitution, so the tabulated CDF is accurate for u, v < 1 too.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_T = 0.5 * (_GL_NODES + 1.0)  # nodes on (0, 1)
_GL_W = 0.5 * _GL_WEIGHTS


def _gb_z_weight(z, p: GBParams):
    """Smooth factor w(z) multiplying the Beta(u,v) kernel, z in (0,1)."""
    if p.c == 1.0:
        return np.ones_like(z)
    kappa = p.c / (1.0 - p.c)
    return np.exp(-(p.u + p.v) * np.log1p(kappa * z))


def _gb_panel_mass(z0, z1, p: GBParams):
    """Integral of the z-space density over [z0, z1].

    For c < 1 the substitution z = (1-c)(x/d)^a leaves the normalizer
    (1-c)^u B(u,v); for c = 1 the map z = y/(1+y) gives an exact Beta(u, v).
    """
    lb = specfun.log_beta(p.u, p.v)
    if p.c < 1.0:
        lb += p.u * math.log1p(-p.c)
    if z0 == 0.0:
        # substitute z = z1 * t^(1/u): integral = z1^u/u * int h(z(t)) dt
        z = z1 * _GL_T ** (1.0 / p.u)
        h = np.exp((p.v - 1.0) * np.log1p(-z) - lb) * _gb_z_weight(z, p)
        return z1 ** p.u / p.u * float(np.sum(_GL_W * h))
    if z1 == 1.0:
        w = 1.0 - z0
        z = 1.0 - w * _GL_T ** (1.0 / p.v)
        h = np.exp((p.u - 1.0) * np.log(z) - lb) * _gb_z_weight(z, p)
        return w ** p.v / p.v * float(np.sum(_GL_W * h))
    z = z0 + (z1 - z0) * _GL_T
    h = np.exp((p.u - 1.0) * np.log(z) + (p.v - 1.0) * np.log1p(-z) - lb)
    h *= _gb_z_weight(z, p)
    return (z1 - z0) * float(np.sum(_GL_W * h))


@lru_cache(maxsize=64)
def _gb_inversion_table(p: GBParams):
    """z-knots, exact CDF values at the knots, and the z -> x back-transform."""
    half = np.linspace(0.0, 1.0, 257)
    left = 0.5 * half ** max(1.0, 1.0 / p.u)
    right = 1.0 - 0.5 * half[::-1] ** max(1.0, 1.0 / p.v)
    knots = np.unique(np.concatenate([left, right]))
    masses = np.array([_gb_panel_mass(knots[i], knots[i + 1], p)
                       for i in range(len(knots) - 1)])
    cdf = np.concatenate([[0.0], np.cumsum(masses)])
    total = cdf[-1]
    if not (0.99 < total < 1.01):
        raise InvalidParameterError(
            f"GB CDF tabulation failed to normalize (total={total}); "
            f"parameters {p} out of supported range")
    cdf = cdf / total

    if p.c == 1.0:
        def to_x(z):
            z = np.clip(z, 1e-300, 1.0 - 1e-16)
            return p.d * (z / (1.0 - z)) ** (1.0 / p.a)
    else:
        scale = 1.0 / (1.0 - p.c)

        def to_x(z):
            return p.d * (np.clip(z, 0.0, 1.0) * scale) ** (1.0 / p.a)

    return knots, cdf, to_x


#: bisection halvings of a knot panel; 2^-60 of a panel is below float spacing
_GB_HALVINGS = 60


def _gb_sample(p: GBParams, n, rng):
    """Inverse-CDF draws: every draw bisects the monotone PCHIP CDF on its
    own knot panel, all draws at once."""
    from scipy.interpolate import PchipInterpolator

    knots, cdf, to_x = _gb_inversion_table(p)
    interp = PchipInterpolator(knots, cdf)
    u = rng.uniform(size=n)
    # keep draws strictly inside the tabulated range
    u = np.clip(u, cdf[1] * 1e-6 + 1e-15, 1.0 - 1e-12)
    idx = np.searchsorted(cdf, u, side="right") - 1
    idx = np.clip(idx, 0, len(knots) - 2)
    lo, hi = knots[idx], knots[idx + 1]
    # a panel without mass has no root inside; its draw is the panel's left end
    hi = np.where(cdf[idx + 1] > cdf[idx], hi, lo)
    for _ in range(_GB_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = interp(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return to_x(0.5 * (lo + hi))
