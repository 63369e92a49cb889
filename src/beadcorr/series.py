"""Truncation-controlled evaluation of the convolution series.

Each convolution model whose marginal/posterior has no closed form is written
as an infinite sum of binomial-expansion terms.  This module evaluates those
sums with explicit convergence control:

* every term magnitude is handled as log-magnitude plus sign, because the
  coefficients mix huge gamma factors with tiny geometric ones;
* each summation index grows geometrically until enlarging it changes the
  total by less than ``rel_tol`` for ``stable_window`` consecutive sweeps;
* indices whose coefficients cut off exactly (integer binomials, degenerate
  mixture weights) are truncated at the cutoff;
* outside the documented convergence region the evaluators raise rather than
  return a silently wrong value -- callers fall back to quadrature.

Naming: the ``*_den`` series is the marginal-density kernel of a model, the
``*_num`` series the posterior-numerator kernel; corrected intensities are
ratios of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
import numpy as np
from scipy import special as _sp

from . import specfun
from .dists import (ExpParams, GammaParams, GBParams, LognormalParams,
                    ModelSpec, NormalParams, gb_support_upper)
from .errors import (DomainError, SeriesDivergenceError,
                     SeriesNonConvergenceError)

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SeriesConfig:
    """Stabilization policy for the infinite sums.

    rel_tol: relative agreement required between consecutive partial sums.
    max_terms_per_index: cap on each summation index.
    stable_window: consecutive stable enlargements before convergence is declared.
    literal_beta_args: audit mode for the GB-pair series; evaluates the
        uncorrected beta-function arguments (diverges for e.g. uniform
        components, kept only so the corrected form can be compared).
    """

    rel_tol: float = 1e-10
    max_terms_per_index: int = 200
    stable_window: int = 3
    literal_beta_args: bool = False

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise DomainError("rel_tol must be positive")
        if self.max_terms_per_index < 1 or self.stable_window < 1:
            raise DomainError("max_terms_per_index and stable_window must be >= 1")


@dataclass(frozen=True)
class SeriesValue:
    """Converged (or partial) sum in log-magnitude + sign form."""

    log_abs: float
    sign: float
    terms_used: tuple
    converged: bool

    @property
    def value(self) -> float:
        if self.sign == 0.0 or self.log_abs == _NEG_INF:
            return 0.0
        if self.log_abs > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_abs)


# ---------------------------------------------------------------------------
# Shared growth controller
# ---------------------------------------------------------------------------

def _rel_change(log_new, sign_new, log_old, sign_old):
    if log_new == _NEG_INF and log_old == _NEG_INF:
        return 0.0
    m = max(log_new, log_old)
    a = sign_new * math.exp(log_new - m)
    b = sign_old * math.exp(log_old - m)
    return abs(a - b) / max(abs(a), 1e-300)


def _abs_delta_log(log_new, sign_new, log_old, sign_old):
    m = max(log_new, log_old)
    if m == _NEG_INF:
        return _NEG_INF
    d = abs(sign_new * math.exp(log_new - m) - sign_old * math.exp(log_old - m))
    return m + math.log(d) if d > 0 else _NEG_INF


def _next_size(size, cap, hard, gentle=False):
    limit = cap if hard is None else min(cap, hard)
    if gentle:
        # confirmation step after a stable enlargement: just past the edge
        return min(limit, size + max(1, size // 8))
    return min(limit, max(size + 1, int(size * 1.6) + 1))


def _adaptive_sum(total_fn, hards, cfg: SeriesConfig, label: str,
                  alternating=None) -> SeriesValue:
    """Grow a multi-index rectangular partial sum until it stabilizes.

    total_fn(sizes) must return (log_abs, sign) of the partial sum over the
    box ``[0, sizes[0]) x ... x [0, sizes[-1])``.  Axes flagged alternating
    get a divergence guard (growing contributions mean the binomial expansion
    is outside its radius); positive axes may legitimately grow to a peak
    before their factorial decay sets in.
    """
    cap = cfg.max_terms_per_index
    naxes = len(hards)
    if alternating is None:
        alternating = [True] * naxes
    sizes = [1 if h is None else min(1, h) or 1 for h in hards]
    frozen = [h is not None and sizes[ax] >= h for ax, h in enumerate(hards)]
    streak = [0] * naxes
    grow_hist = [[] for _ in range(naxes)]  # log|delta| per growth, divergence guard

    log_tot, sign_tot = total_fn(tuple(sizes))
    sweeps = 0
    while True:
        if all(frozen):
            vsizes = [s if hards[ax] is not None and s >= hards[ax]
                      else _next_size(s, cap, hards[ax], gentle=True)
                      for ax, s in enumerate(sizes)]
            if vsizes == sizes:
                return SeriesValue(log_tot, sign_tot, tuple(sizes), True)
            vlog, vsign = total_fn(tuple(vsizes))
            if _rel_change(vlog, vsign, log_tot, sign_tot) < cfg.rel_tol:
                return SeriesValue(vlog, vsign, tuple(vsizes), True)
            # verification failed: keep growing
            sizes = vsizes
            log_tot, sign_tot = vlog, vsign
            frozen = [hards[ax] is not None and sizes[ax] >= hards[ax]
                      for ax in range(naxes)]
            streak = [0] * naxes

        sweeps += 1
        if sweeps > 400:
            raise SeriesNonConvergenceError(
                f"{label}: growth loop exceeded sweep budget",
                partial=SeriesValue(log_tot, sign_tot, tuple(sizes), False))

        for ax in range(naxes):
            if frozen[ax]:
                continue
            new = _next_size(sizes[ax], cap, hards[ax], gentle=streak[ax] > 0)
            if new == sizes[ax]:
                # cannot grow further
                if hards[ax] is not None and sizes[ax] >= hards[ax]:
                    frozen[ax] = True
                    continue
                raise SeriesNonConvergenceError(
                    f"{label}: index {ax} hit the cap ({cap}) before stabilizing",
                    partial=SeriesValue(log_tot, sign_tot, tuple(sizes), False))
            old_log, old_sign = log_tot, sign_tot
            sizes[ax] = new
            log_tot, sign_tot = total_fn(tuple(sizes))
            if log_tot > 690.0:
                raise SeriesDivergenceError(
                    f"{label}: partial sums overflowing; expansion outside "
                    f"its convergence region")
            delta = _rel_change(log_tot, sign_tot, old_log, old_sign)
            dlog = _abs_delta_log(log_tot, sign_tot, old_log, old_sign)
            hist = grow_hist[ax]
            if delta >= cfg.rel_tol:
                hist.append(dlog)
            # within the documented convergence gates, alternating-axis term
            # peaks sit below index 48; sustained substantial growth past it
            # means the binomial expansion is outside its radius (plateaus
            # with ~unit ratio wobble by less than the 0.1 log-unit step)
            if (alternating[ax] and sizes[ax] >= 48 and len(hist) >= 3
                    and hist[-3] > _NEG_INF
                    and hist[-1] > hist[-2] + 0.1 > hist[-3] + 0.2):
                raise SeriesDivergenceError(
                    f"{label}: term contributions growing along index {ax}; "
                    f"expansion outside its convergence region",
                    partial=SeriesValue(log_tot, sign_tot, tuple(sizes), False))
            if delta < cfg.rel_tol:
                streak[ax] += 1
                if streak[ax] >= cfg.stable_window or sizes[ax] >= (
                        cap if hards[ax] is None else min(cap, hards[ax])):
                    frozen[ax] = True
            else:
                streak[ax] = 0
                if sizes[ax] >= cap:
                    partial = SeriesValue(log_tot, sign_tot, tuple(sizes), False)
                    if (alternating[ax] and len(hist) >= 2
                            and hist[-1] > hist[-2] > _NEG_INF):
                        raise SeriesDivergenceError(
                            f"{label}: index {ax} capped with growing terms; "
                            f"expansion outside its convergence region",
                            partial=partial)
                    raise SeriesNonConvergenceError(
                        f"{label}: index {ax} hit the cap ({cap}) while still "
                        f"moving by {delta:.2e} relative", partial=partial)


def _scaled_exp(logs, signs):
    """(floats, scale): signs*exp(logs - scale) with scale = max(logs)."""
    m = float(np.max(logs))
    if m == _NEG_INF:
        return np.zeros_like(logs), 0.0
    with np.errstate(under="ignore"):
        return signs * np.exp(logs - m), m


def _finish(sum_float, scale):
    if sum_float == 0.0 or not math.isfinite(sum_float):
        if math.isnan(sum_float) or math.isinf(sum_float):
            raise SeriesDivergenceError("series accumulation overflowed")
        return _NEG_INF, 0.0
    return scale + math.log(abs(sum_float)), math.copysign(1.0, sum_float)


def _geometric_logs(n, log_ratio):
    with np.errstate(invalid="ignore"):
        out = np.arange(n, dtype=float) * log_ratio
    out[0] = 0.0
    return out


def _hard_from(signs, g):
    """Exact truncation index: first zero coefficient, or 1 if the geometric
    ratio is exactly zero (0^0 = 1 convention keeps the first term)."""
    if g == 0.0:
        return 1
    zero = np.nonzero(signs == 0.0)[0]
    return int(zero[0]) if zero.size else None


# ---------------------------------------------------------------------------
# Cached p-independent coefficient tables
# ---------------------------------------------------------------------------

class _BinomTable:
    """Lazily grown (log|C(r, k)|, sign) rows for a fixed real r."""

    def __init__(self, r):
        self.r = r
        self.logs, self.signs = specfun.gen_binomial_log_array(r, 8)

    def get(self, n):
        if n > self.logs.size:
            self.logs, self.signs = specfun.gen_binomial_log_array(self.r, n + 8)
        return self.logs[:n], self.signs[:n]


class _RisingTable:
    """Lazily grown log C(q+k-1, k) rows for a fixed q > 0 (all positive)."""

    def __init__(self, q):
        self.q = q
        self.logs = specfun.rising_binomial_log_array(q, 8)[0]

    def get(self, n):
        if n > self.logs.size:
            self.logs = specfun.rising_binomial_log_array(self.q, n + 8)[0]
        return self.logs[:n]


@lru_cache(maxsize=64)
def _gb_pair_workspace(s: GBParams, b: GBParams, off1: int, off2: int):
    return _GBPairWorkspace(s, b, off1, off2)


class _GBPairWorkspace:
    """p-independent tables for the GB + GB quadruple series.

    The quadruple sum couples the four indices only through i = l+n and
    j = m+r, so partial sums over a box reduce to a bilinear form between two
    truncated coefficient convolutions and a log-beta grid.
    """

    def __init__(self, s, b, off1, off2):
        self.s, self.b = s, b
        self.off1, self.off2 = off1, off2
        self.fall1 = _BinomTable(s.v - 1.0)
        self.fall2 = _BinomTable(b.v - 1.0)
        self.rise1 = _RisingTable(s.u + s.v)
        self.rise2 = _RisingTable(b.u + b.v)
        self._grid = np.zeros((0, 0))
        self._grid_exp = np.zeros((0, 0))
        self._gmax = 0.0

    def arg1(self, i):
        return self.s.a * (self.s.u + i) + self.off1

    def arg2(self, j):
        return self.b.a * (self.b.u + j) + self.off2

    def lbeta_grid_exp(self, imax, jmax):
        """exp(lbeta grid - gmax) cached; returns (slice, gmax)."""
        g = self._grid
        if g.shape[0] < imax or g.shape[1] < jmax:
            ni = max(imax, g.shape[0] * 2, 16)
            nj = max(jmax, g.shape[1] * 2, 16)
            a1 = self.arg1(np.arange(ni))
            a2 = self.arg2(np.arange(nj))
            if np.any(a1 <= 0) or np.any(a2 <= 0):
                raise DomainError(
                    "beta-function argument nonpositive in the GB-pair series; "
                    "the literal (uncorrected) argument mode is undefined here")
            g = specfun.log_beta(a1[:, None], a2[None, :])
            gmax = float(g[0, 0])
            with np.errstate(under="ignore"):
                self._grid_exp = np.exp(g - gmax)
            self._grid, self._gmax = g, gmax
        return self._grid_exp[:imax, :jmax], self._gmax


@lru_cache(maxsize=64)
def _gb_normal_workspace(s: GBParams, off: int):
    return _GBNormalWorkspace(s, off)


class _GBNormalWorkspace:
    """p-independent tables for the GB + normal triple series.

    The l and m indices couple to n only through i = l+m, giving a
    (i, n) binomial grid C(a(u+i) - 1 + off, n).
    """

    def __init__(self, s, off):
        self.s = s
        self.off = off
        self.fall = _BinomTable(s.v - 1.0)
        self.rise = _RisingTable(s.u + s.v)
        self._blocks = {}

    def binom_grid_exp(self, imax, nmax):
        """(signs * exp(log grid - gmax), gmax) over the leading imax x nmax block.

        The request is served from the smallest square power-of-two block
        (at least 16) that holds it, scaled by that block's largest entry.
        The result therefore depends only on the request, not on how far
        earlier genes grew the grid, and no entry overflows.
        """
        size = max(16, 1 << (max(imax, nmax) - 1).bit_length())
        hit = self._blocks.get(size)
        if hit is None:
            logs = np.empty((size, size))
            signs = np.empty((size, size))
            for i in range(size):
                r = self.s.a * (self.s.u + i) - 1.0 + self.off
                logs[i], signs[i] = specfun.gen_binomial_log_array(r, size)
            live = logs[signs != 0]
            gmax = float(np.max(live)) if live.size else 0.0
            with np.errstate(under="ignore"):
                hit = self._blocks[size] = (signs * np.exp(logs - gmax), gmax)
        return hit[0][:imax, :nmax], hit[1]


# ---------------------------------------------------------------------------
# Exponential-lognormal pair (single index)
# ---------------------------------------------------------------------------

def _lognormal_weight_terms(p, theta, l: LognormalParams, shift, n):
    """log-terms of sum_k theta^k/k! E[B^(k+shift) 1(B<p)] / E[B]^shift-style kernels.

    shift = 0 gives the marginal kernel, shift = 1 the posterior-numerator
    kernel (its common factor exp(mu + sigma^2/2) is applied by the caller).
    """
    k = np.arange(n, dtype=float)
    lam = math.log(theta) if theta > 0 else _NEG_INF
    lt = (_geometric_logs(n, lam) - _sp.gammaln(k + 1.0)
          + k * (l.mu + 0.5 * (k + 2.0 * shift) * l.sigma ** 2)
          + _sp.log_ndtr((math.log(p) - (l.mu + (k + shift) * l.sigma ** 2)) / l.sigma))
    return lt


def _eval_lognormal_exp_series(p, e: ExpParams | None, l, shift, cfg, label):
    if p <= 0:
        raise DomainError(f"{label} requires p > 0, got {p}")
    theta = 0.0 if e is None else e.theta
    cache = {"n": 0, "lt": np.zeros(0)}

    def terms(n):
        if cache["n"] < n:
            cache["lt"] = _lognormal_weight_terms(p, theta, l, shift, n)
            cache["n"] = n
        return cache["lt"][:n]

    def total(sizes):
        lt = terms(sizes[0])
        m = float(np.max(lt))
        if m == _NEG_INF:
            return _NEG_INF, 0.0
        with np.errstate(under="ignore"):
            vals = np.exp(lt - m)
        return _finish(math.fsum(vals.tolist()), m)

    hard = 1 if theta == 0.0 else None
    return _adaptive_sum(total, [hard], cfg, label, alternating=[False])


def exp_lognormal_den_series(p, e: ExpParams, l: LognormalParams,
                             cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Marginal kernel of the exponential-signal, lognormal-noise model."""
    return _eval_lognormal_exp_series(p, e, l, 0, cfg, "exp_lognormal_den")


def exp_lognormal_num_series(p, e: ExpParams, l: LognormalParams,
                             cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel of the same model (noise conditional mean)."""
    return _eval_lognormal_exp_series(p, e, l, 1, cfg, "exp_lognormal_num")


# ---------------------------------------------------------------------------
# Gamma-lognormal pair (two indices)
# ---------------------------------------------------------------------------

def _eval_gamma_lognormal(p, g: GammaParams, l: LognormalParams, top_shift,
                          cfg, label):
    """top_shift = 0 uses C(alpha-1, k) (marginal), 1 uses C(alpha, k)."""
    if p <= 0:
        raise DomainError(f"{label} requires p > 0, got {p}")
    binom = _BinomTable(g.alpha - 1.0 + top_shift)
    log_p = math.log(p)
    state = {"n": 0, "E": np.zeros(0)}

    def exptable(n):
        if state["n"] < n:
            t = np.arange(n, dtype=float)
            state["E"] = (t * (l.mu + 0.5 * t * l.sigma ** 2)
                          + _sp.log_ndtr((log_p - (l.mu + t * l.sigma ** 2)) / l.sigma))
            state["n"] = n
        return state["E"][:n]

    def total(sizes):
        K, N = sizes
        blogs, bsigns = binom.get(K)
        kk = np.arange(K, dtype=float)
        nn = np.arange(N, dtype=float)
        bk = blogs - kk * log_p
        sk = bsigns * np.where(kk % 2 == 0, 1.0, -1.0)
        bn = -_sp.gammaln(nn + 1.0) - nn * math.log(g.beta)
        E = exptable(K + N - 1)
        te = bk[:, None] + bn[None, :] + E[(np.arange(K)[:, None] + np.arange(N)[None, :])]
        m = float(np.max(te))
        if m == _NEG_INF:
            return _NEG_INF, 0.0
        with np.errstate(under="ignore"):
            grid = sk[:, None] * np.exp(te - m)
        return _finish(math.fsum(np.sum(grid, axis=1).tolist()), m)

    blogs0, bsigns0 = binom.get(cfg.max_terms_per_index)
    hard_k = _hard_from(bsigns0, 1.0)
    return _adaptive_sum(total, [hard_k, None], cfg, label,
                         alternating=[True, False])


def gamma_lognormal_den_series(p, g: GammaParams, l: LognormalParams,
                               cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Marginal kernel of the gamma-signal, lognormal-noise model."""
    return _eval_gamma_lognormal(p, g, l, 0, cfg, "gamma_lognormal_den")


def gamma_lognormal_num_series(p, g: GammaParams, l: LognormalParams,
                               cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = p * num/den."""
    return _eval_gamma_lognormal(p, g, l, 1, cfg, "gamma_lognormal_num")


# ---------------------------------------------------------------------------
# GB + GB quadruple series
# ---------------------------------------------------------------------------

def _gb_axis_arrays(table, rising, n, log_ratio):
    """Signed, geometric-folded coefficient arrays for one GB expansion axis."""
    if rising:
        logs = table.get(n).copy()
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    else:
        blogs, bsigns = table.get(n)
        logs = blogs.copy()
        signs = bsigns * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    logs += _geometric_logs(n, log_ratio)
    signs = np.where(np.isneginf(logs), np.where(np.arange(n) == 0, signs, 0.0), signs)
    return logs, signs


def _gb_pair_eval(p, s, b, off1, off2, cfg, label, want_grad=False):
    if off1 == 0 and off2 == 0 and cfg.literal_beta_args:
        off1, off2 = -1, -1
    elif off1 == 1 and cfg.literal_beta_args:
        off1, off2 = 0, -1
    ws = _gb_pair_workspace(s, b, off1, off2)
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not (0 < p < upper):
        raise DomainError(f"{label}: p={p} outside the convolution support (0, {upper})")

    lx1 = s.a * (math.log(p) - math.log(s.d))
    lx2 = b.a * (math.log(p) - math.log(b.d))
    lg1 = (math.log1p(-s.c) if s.c < 1 else _NEG_INF) + lx1   # (1-c1) x1 per l
    lg3 = (math.log(s.c) if s.c > 0 else _NEG_INF) + lx1      # c1 x1 per n
    lg2 = (math.log1p(-b.c) if b.c < 1 else _NEG_INF) + lx2
    lg4 = (math.log(b.c) if b.c > 0 else _NEG_INF) + lx2

    def axes(sizes):
        L, M, N, R = sizes
        a1 = _gb_axis_arrays(ws.fall1, False, L, lg1)
        a3 = _gb_axis_arrays(ws.rise1, True, N, lg3)
        a2 = _gb_axis_arrays(ws.fall2, False, M, lg2)
        a4 = _gb_axis_arrays(ws.rise2, True, R, lg4)
        return a1, a2, a3, a4

    def parts(sizes):
        (l1, s1), (l2, s2), (l3, s3), (l4, s4) = axes(sizes)
        v1, m1 = _scaled_exp(l1, s1)
        v3, m3 = _scaled_exp(l3, s3)
        v2, m2 = _scaled_exp(l2, s2)
        v4, m4 = _scaled_exp(l4, s4)
        conv13 = np.convolve(v1, v3)
        conv24 = np.convolve(v2, v4)
        E, gmax = ws.lbeta_grid_exp(conv13.size, conv24.size)
        scale = m1 + m3 + m2 + m4 + gmax
        return (v1, v3, v2, v4, conv13, conv24, E, scale)

    def total(sizes):
        _, _, _, _, conv13, conv24, E, scale = parts(sizes)
        rows = conv13 * (E @ conv24)
        return _finish(math.fsum(rows.tolist()), scale)

    # exact truncation of each axis
    capn = cfg.max_terms_per_index
    h_l = _hard_from(_gb_axis_arrays(ws.fall1, False, capn, lg1)[1], 1.0)
    h_m = _hard_from(_gb_axis_arrays(ws.fall2, False, capn, lg2)[1], 1.0)
    h_n = 1 if s.c == 0.0 else None
    h_r = 1 if b.c == 0.0 else None
    if s.c == 1.0:
        h_l = 1
    if b.c == 1.0:
        h_m = 1

    result = _adaptive_sum(total, [h_l, h_m, h_n, h_r], cfg, label)
    if not want_grad:
        return result

    # Signal-block derivative sums on the converged box, shared scale cancels
    # in the returned ratios d(log series)/d(param).
    sizes = result.terms_used
    v1, v3, v2, v4, conv13, conv24, E, _ = parts(sizes)
    L, M, N, R = sizes
    base_rows = E @ conv24
    S0 = float(np.sum(conv13 * base_rows))
    if S0 == 0.0:
        raise SeriesDivergenceError(f"{label}: zero base sum in gradient evaluation")

    i_idx = np.arange(conv13.size, dtype=float)
    A1 = ws.arg1(np.arange(conv13.size))
    A2 = ws.arg2(np.arange(conv24.size))
    psi1 = _sp.psi(A1)
    psi12 = _sp.psi(A1[:, None] + A2[None, :])
    l_arr = np.arange(L, dtype=float)
    n_arr = np.arange(N, dtype=float)

    # d/da: i*log(p/d) from the folded power, plus the beta-grid term
    ld1 = math.log(p) - math.log(s.d)
    Sa_power = float(np.sum(conv13 * i_idx * base_rows))
    grid_a = E * ((s.u + np.arange(E.shape[0])[:, None]) * (psi1[:, None] - psi12))
    Sa_beta = float(np.sum(conv13 * (grid_a @ conv24)))
    d_a = (ld1 * Sa_power + Sa_beta) / S0

    # d/dc: n/c - l/(1-c) axis weights
    conv_n = np.convolve(v1, n_arr * v3)
    conv_l = np.convolve(l_arr * v1, v3)
    t_n = float(np.sum(conv_n * base_rows)) / s.c if s.c > 0 else 0.0
    t_l = float(np.sum(conv_l * base_rows)) / (1.0 - s.c) if s.c < 1 else 0.0
    d_c = (t_n - t_l) / S0

    # d/dd: -a*i/d from the folded power
    d_d = -s.a / s.d * Sa_power / S0

    # d/du: rising-binomial term (per n) plus the beta-grid term
    g_n = _sp.psi(s.u + s.v + n_arr) - _sp.psi(s.u + s.v)
    conv_g = np.convolve(v1, g_n * v3)
    Su_rise = float(np.sum(conv_g * base_rows))
    grid_u = E * (psi1[:, None] - psi12)
    d_u = (Su_rise + s.a * float(np.sum(conv13 * (grid_u @ conv24)))) / S0

    # d/dv: falling-binomial term (per l) plus the same rising term as d/du
    h_lw = _sp.psi(s.v) - specfun.digamma_any(s.v - l_arr)
    conv_h = np.convolve(h_lw * v1, v3)
    d_v = (float(np.sum(conv_h * base_rows)) + Su_rise) / S0

    grad = np.array([d_a, d_c, d_d, d_u, d_v])
    return result, grad


def gb_pair_den_series(p, s: GBParams, b: GBParams,
                       cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Marginal kernel of the GB-signal, GB-noise convolution."""
    return _gb_pair_eval(p, s, b, 0, 0, cfg, "gb_pair_den")


def gb_pair_num_series(p, s: GBParams, b: GBParams,
                       cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = p * num/den."""
    return _gb_pair_eval(p, s, b, 1, 0, cfg, "gb_pair_num")


def gb_pair_den_series_with_grad(p, s, b, cfg=SeriesConfig()):
    """(SeriesValue, d log(series)/d(a,c,d,u,v) of the signal block)."""
    return _gb_pair_eval(p, s, b, 0, 0, cfg, "gb_pair_den", want_grad=True)


# ---------------------------------------------------------------------------
# GB + normal triple series
# ---------------------------------------------------------------------------

def _gb_normal_eval(p, s, b: NormalParams, off, cfg, label, want_grad=False):
    if p <= 0:
        raise DomainError(f"{label} requires p > 0, got {p}")
    if p <= b.mu:
        raise DomainError(
            f"{label}: series formulation requires p > noise mu, got p={p}, mu={b.mu}")
    ws = _gb_normal_workspace(s, off)

    pm = p - b.mu
    lyd = s.a * (math.log(pm) - math.log(s.d))
    lg1 = (math.log1p(-s.c) if s.c < 1 else _NEG_INF) + lyd
    lg2 = (math.log(s.c) if s.c > 0 else _NEG_INF) + lyd
    log_t = math.log(b.sigma) - math.log(pm)
    lo, hi = -pm / b.sigma, b.mu / b.sigma
    state = {"n": 0, "vlog": np.zeros(0), "vsign": np.zeros(0)}

    def moment_axis(n):
        if state["n"] < n:
            table = specfun.gaussian_moment_table(n, lo, hi)
            with np.errstate(divide="ignore"):
                state["vlog"] = np.arange(n) * log_t + np.log(np.abs(table))
            state["vsign"] = np.sign(table)
            state["n"] = n
        return state["vlog"][:n], state["vsign"][:n]

    def parts(sizes):
        L, M, N = sizes
        l1, s1 = _gb_axis_arrays(ws.fall, False, L, lg1)
        l2, s2 = _gb_axis_arrays(ws.rise, True, M, lg2)
        v1, m1 = _scaled_exp(l1, s1)
        v2, m2 = _scaled_exp(l2, s2)
        conv12 = np.convolve(v1, v2)
        vlog, vsign = moment_axis(N)
        vn, mv = _scaled_exp(vlog, vsign)
        Gm, gmax = ws.binom_grid_exp(conv12.size, N)
        return v1, v2, conv12, vn, Gm, m1 + m2 + mv + gmax

    def total(sizes):
        _, _, conv12, vn, Gm, scale = parts(sizes)
        rows = conv12 * (Gm @ vn)
        return _finish(math.fsum(rows.tolist()), scale)

    capn = cfg.max_terms_per_index
    h_l = _hard_from(_gb_axis_arrays(ws.fall, False, capn, lg1)[1], 1.0)
    h_m = 1 if s.c == 0.0 else None
    if s.c == 1.0:
        h_l = 1

    result = _adaptive_sum(total, [h_l, h_m, None], cfg, label)
    if not want_grad:
        return result

    sizes = result.terms_used
    v1, v2, conv12, vn, Gm, _ = parts(sizes)
    L, M, N = sizes
    base_rows = Gm @ vn
    S0 = float(np.sum(conv12 * base_rows))
    if S0 == 0.0:
        raise SeriesDivergenceError(f"{label}: zero base sum in gradient evaluation")

    i_idx = np.arange(conv12.size, dtype=float)
    l_arr = np.arange(L, dtype=float)
    m_arr = np.arange(M, dtype=float)
    n_arr = np.arange(N, dtype=float)
    A = s.a * (s.u + np.arange(conv12.size, dtype=float)) + off
    psiA = _sp.psi(A)
    psiAn = specfun.digamma_any(A[:, None] - n_arr[None, :])
    # entries with zero coefficient contribute nothing to the derivative sums
    dgrid = Gm * np.nan_to_num(psiA[:, None] - psiAn, nan=0.0, posinf=0.0, neginf=0.0)

    Sa_power = float(np.sum(conv12 * i_idx * base_rows))
    Sa_grid = float(np.sum(conv12 * (s.u + i_idx) * (dgrid @ vn)))
    d_a = ((math.log(pm) - math.log(s.d)) * Sa_power + Sa_grid) / S0

    conv_m = np.convolve(v1, m_arr * v2)
    conv_l = np.convolve(l_arr * v1, v2)
    t_m = float(np.sum(conv_m * base_rows)) / s.c if s.c > 0 else 0.0
    t_l = float(np.sum(conv_l * base_rows)) / (1.0 - s.c) if s.c < 1 else 0.0
    d_c = (t_m - t_l) / S0

    d_d = -s.a / s.d * Sa_power / S0

    g_m = _sp.psi(s.u + s.v + m_arr) - _sp.psi(s.u + s.v)
    conv_g = np.convolve(v1, g_m * v2)
    S_rise = float(np.sum(conv_g * base_rows))
    d_u = (S_rise + s.a * float(np.sum(conv12 * (dgrid @ vn)))) / S0

    h_lw = _sp.psi(s.v) - specfun.digamma_any(s.v - l_arr)
    conv_h = np.convolve(h_lw * v1, v2)
    d_v = (float(np.sum(conv_h * base_rows)) + S_rise) / S0

    return result, np.array([d_a, d_c, d_d, d_u, d_v])


def gb_normal_den_series(p, s: GBParams, b: NormalParams,
                         cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Marginal kernel of the GB-signal, normal-noise convolution."""
    return _gb_normal_eval(p, s, b, 0, cfg, "gb_normal_den")


def gb_normal_num_series(p, s: GBParams, b: NormalParams,
                         cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = (p - mu) * num/den."""
    return _gb_normal_eval(p, s, b, 1, cfg, "gb_normal_num")


def gb_normal_den_series_with_grad(p, s, b, cfg=SeriesConfig()):
    """(SeriesValue, d log(series)/d(a,c,d,u,v) of the GB block)."""
    return _gb_normal_eval(p, s, b, 0, cfg, "gb_normal_den", want_grad=True)


# ---------------------------------------------------------------------------
# Marginal densities assembled from the series
# ---------------------------------------------------------------------------

def marginal_gb_log(p, s: GBParams, b: GBParams, cfg=SeriesConfig()):
    den = gb_pair_den_series(p, s, b, cfg)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            "gb_pair_den series converged to a nonpositive value; cancellation "
            "has destroyed the result")
    log_k1 = (math.log(s.a) + math.log(b.a)
              - s.a * s.u * math.log(s.d) - b.a * b.u * math.log(b.d)
              - specfun.log_beta(s.u, s.v) - specfun.log_beta(b.u, b.v))
    return log_k1 + (s.a * s.u + b.a * b.u - 1.0) * math.log(p) + den.log_abs


def marginal_gb(p, s: GBParams, b: GBParams, cfg=SeriesConfig()) -> float:
    """Series marginal density of P = S + B with GB signal and GB noise."""
    return math.exp(marginal_gb_log(p, s, b, cfg))


def marginal_gb_normal_log(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()):
    den = gb_normal_den_series(p, s, b, cfg)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            "gb_normal_den series converged to a nonpositive value")
    pm = p - b.mu
    log_k2 = (math.log(s.a) + (s.a * s.u - 1.0) * math.log(pm)
              - s.a * s.u * math.log(s.d) - specfun.log_beta(s.u, s.v)
              - 0.5 * math.log(2.0 * math.pi))
    return log_k2 + den.log_abs


def marginal_gb_normal(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()) -> float:
    """Series marginal density of P = S + B with GB signal and normal noise."""
    return math.exp(marginal_gb_normal_log(p, s, b, cfg))


# ---------------------------------------------------------------------------
# Convergence region ("safe range") predicates
# ---------------------------------------------------------------------------

#: geometric-ratio ceiling for the GB binomial expansions; 0.8^200 leaves
#: ample headroom below the default rel_tol within the default index cap
GB_RATIO_MAX = 0.80
#: cancellation ceiling: log of (sum of |terms| / |sum|) tolerated before
#: float64 noise erodes the alternating sums (1e-16 * e^26 ~ 2e-5 relative)
GB_SPREAD_LOG_MAX = 26.0
#: lognormal-noise gates: noise density must be negligible at p, and the
#: factorial-damped index must peak within the caps
LN_TAIL_Z_MIN = 4.5
LN_DEPTH_MAX = 55.0
#: GB-normal gates on the Gaussian-moment index
GBN_ENDPOINT_RATIO_MAX = 0.85
GBN_SIGMA_SEP_MIN = 3.0


def _rising_axis_deep_enough(q, r, cfg):
    """The alternating sum of C(q+n-1, n) r^n must fall below rel_tol of its
    value (1+r)^(-q) within ~85% of the index cap."""
    n = int(0.85 * cfg.max_terms_per_index)
    log_term = (_sp.gammaln(q + n) - _sp.gammaln(q) - _sp.gammaln(n + 1.0)
                + n * math.log(r))
    log_total = -q * math.log1p(r)
    return log_term - log_total <= math.log(cfg.rel_tol) - 2.3


def _falling_axis_deep_enough(v, r, cfg):
    """Same for C(v-1, l) r^l against (1-r)^(v-1); the coefficient magnitude
    is bounded by 2^(v-1)."""
    n = int(0.85 * cfg.max_terms_per_index)
    log_term = max(v - 1.0, 0.0) * math.log(2.0) + n * math.log(r)
    log_total = (v - 1.0) * math.log1p(-r)
    return log_term - log_total <= math.log(cfg.rel_tol) - 2.3


def _gb_component_ok(g: GBParams, p, cfg: SeriesConfig) -> bool:
    lx = g.a * (math.log(p) - math.log(g.d))
    cx = g.c * math.exp(lx) if lx < 700 else math.inf
    ox = (1.0 - g.c) * math.exp(lx) if lx < 700 else math.inf
    if max(cx, ox) > GB_RATIO_MAX:
        return False
    # alternating-sum cancellation: sum |terms| / |sum| per expansion axis
    spread = 0.0
    if cx > 0:
        spread += (g.u + g.v) * (math.log1p(cx) - math.log1p(-cx))
    if ox > 0:
        spread += max(g.v - 1.0, 0.0) * (math.log1p(ox) - math.log1p(-ox))
    if spread > GB_SPREAD_LOG_MAX:
        return False
    if cx > 0 and not _rising_axis_deep_enough(g.u + g.v, cx, cfg):
        return False
    if ox > 0 and not _falling_axis_deep_enough(g.v, ox, cfg):
        return False
    return True


def convergence_ok(m: ModelSpec, p, cfg: SeriesConfig = SeriesConfig()) -> bool:
    """True when the series expansions for model m converge at observation p
    within the truncation policy cfg.

    Outside this region the series evaluators raise and callers must use the
    quadrature path; the gates are deliberately conservative.
    """
    if p <= 0:
        return False
    kind = m.kind
    if kind == "exp_lognormal":
        return m.signal.theta * p <= LN_DEPTH_MAX and m.noise.sigma <= 3.0
    if kind == "gamma_lognormal":
        zl = (math.log(p) - m.noise.mu) / m.noise.sigma
        if zl < LN_TAIL_Z_MIN or p / m.signal.beta > LN_DEPTH_MAX:
            return False
        # the noise-power axis decays only polynomially times the noise tail
        # weight; evaluate its term magnitude at 85% of the cap directly,
        # allowing for the exp(b/beta) factor (bounded by exp(p/beta)) that
        # the cross terms carry
        g, l = m.signal, m.noise
        k = int(0.85 * cfg.max_terms_per_index)
        lead = float(_sp.log_ndtr((math.log(p) - l.mu) / l.sigma))
        lt = (specfun.gen_binomial_log_array(g.alpha - 1.0, k + 1)[0][k]
              - k * math.log(p) + k * (l.mu + 0.5 * k * l.sigma ** 2)
              + float(_sp.log_ndtr((math.log(p) - (l.mu + k * l.sigma ** 2))
                                   / l.sigma))
              + p / g.beta)
        return lt - lead <= math.log(cfg.rel_tol) - 4.6
    if kind == "gb_gb":
        return (_gb_component_ok(m.signal, p, cfg)
                and _gb_component_ok(m.noise, p, cfg))
    if kind == "gb_normal":
        b = m.noise
        if not (b.mu > 0 and p > b.mu):
            return False
        if b.mu / (p - b.mu) > GBN_ENDPOINT_RATIO_MAX:
            return False
        if (p - b.mu) / b.sigma < GBN_SIGMA_SEP_MIN:
            return False
        return _gb_component_ok(m.signal, p, cfg)
    return True
