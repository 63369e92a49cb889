"""Truncated evaluation of the convolution series on one box per gene.

Each convolution model whose marginal/posterior has no closed form is written
as an infinite sum of binomial-expansion terms, handled as log-magnitude plus
sign because the coefficients mix huge gamma factors with tiny geometric ones.

* The truncation box is computed from (model, p, cfg) before anything is
  summed: per summation index, the first index past which the remaining terms
  are below ``rel_tol`` of the total, judged from closed-form axis values and
  the index's own term magnitudes (exact cutoffs give -inf magnitudes).
* An evaluator sums on that box and on a confirmation box one eighth deeper
  along every index.  It raises -- callers fall back to quadrature -- when
  the two differ by ``rel_tol`` or more, when a depth lies past
  ``max_terms_per_index``, or when the sum overflows.
* The gate (``convergence_ok``) accepts a gene when every depth of both
  kernels lies within 85% of the cap, besides its ratio and cancellation
  checks; the batched GB likelihood sums on the largest box of its genes.

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
from .dists import (ExpParams, GammaParams, GBGB, GBNormal, GBParams,
                    LognormalParams, ModelSpec, NormalParams, gb_support_upper)
from .errors import (DomainError, SeriesDivergenceError,
                     SeriesNonConvergenceError)

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation policy for the infinite sums.

    rel_tol: bound on the neglected tail of every summation index, relative
        to the total; also the agreement required between the sums on the
        truncation box and on the confirmation box.
    max_terms_per_index: cap on each summation index; a gene whose box needs
        a deeper index is refused (the gate already refuses past 85% of it).
    literal_beta_args: audit mode for the GB-pair series; evaluates the
        uncorrected beta-function arguments (diverges for e.g. uniform
        components, kept only so the corrected form can be compared).
    """

    rel_tol: float = 1e-10
    max_terms_per_index: int = 200
    literal_beta_args: bool = False

    def __post_init__(self):
        if not (self.rel_tol > 0):
            raise DomainError("rel_tol must be positive")
        if self.max_terms_per_index < 1:
            raise DomainError("max_terms_per_index must be >= 1")


@dataclass(frozen=True)
class SeriesValue:
    """Confirmed (or partial) sum in log-magnitude + sign form.

    terms_used is the truncation box; the value is the sum on its
    confirmation box, one eighth deeper along every index.
    """

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
# Truncation boxes
# ---------------------------------------------------------------------------

#: margin (log units) between a term and rel_tol; a geometric tail with ratio
#: up to 0.9 sums to at most ten times its first term
TAIL_MARGIN = 2.3
#: wider margin for the gamma-lognormal noise-power axis, which decays only
#: polynomially times the noise tail weight
LN_TAIL_MARGIN = 4.6
#: the gate accepts a gene when every depth lies within this share of the cap
GATE_DEPTH_FRACTION = 0.85


def _depth(log_terms, log_limit):
    """First index past which every term is at most log_limit (at least 1).

    Terms past an exact cutoff are -inf.  The depth equals len(log_terms)
    when the last term is still above the limit: it then lies past them.
    """
    above = np.flatnonzero(~(log_terms <= log_limit))
    return int(above[-1]) + 1 if above.size else 1


def _grow(box):
    """The confirmation box: every index one eighth deeper (at least one)."""
    return tuple(n + max(1, n // 8) for n in box)


def _rising_terms(table: _CoefTable, log_r, n):
    """log |C(q+k-1, k) r^k| relative to the axis value (1+r)^(-q), k < n."""
    return (table.get(n)[0] + _geometric_logs(n, log_r)
            + table.arg * float(np.logaddexp(0.0, log_r)))


def _falling_terms(table: _CoefTable, log_r, n):
    """log |C(v-1, l) r^l| relative to the axis value (1-r)^(v-1), l < n.

    Past the expansion radius (r >= 1) the value gives no scale, and the raw
    magnitudes are returned; they then grow unless v is an integer.
    """
    logs = table.get(n)[0] + _geometric_logs(n, log_r)
    if log_r < 0.0:
        logs -= table.arg * math.log1p(-math.exp(log_r))
    return logs


def _gb_log_ratios(g: GBParams, log_x):
    """log of the falling-axis ratio (1-c)x and the rising-axis ratio cx."""
    return ((math.log1p(-g.c) if g.c < 1 else _NEG_INF) + log_x,
            (math.log(g.c) if g.c > 0 else _NEG_INF) + log_x)


def _max_convolve(a, b):
    """out[i] = max over j + k = i of a[j] + b[k] (log-magnitude convolution)."""
    shifted = np.full((a.size, a.size + b.size - 1), _NEG_INF)
    rows = np.arange(a.size)[:, None]
    shifted[rows, rows + np.arange(b.size)] = a[:, None] + b
    return np.max(shifted, axis=0)


def _exp_lognormal_boxes(p, e: ExpParams | None, l: LognormalParams, cfg):
    # positive terms: the tail is judged against the largest one
    theta = 0.0 if e is None else e.theta
    terms = [_lognormal_weight_terms(p, theta, l, shift, cfg.max_terms_per_index + 1)
             for shift in (0, 1)]
    return tuple((_depth(lt, float(np.max(lt)) + math.log(cfg.rel_tol) - TAIL_MARGIN),)
                 for lt in terms)


def _gamma_lognormal_boxes(p, g: GammaParams, l: LognormalParams, cfg):
    n = cfg.max_terms_per_index + 1
    limit = math.log(cfg.rel_tol) - LN_TAIL_MARGIN
    log_p = math.log(p)
    k = np.arange(n, dtype=float)
    # binomial axis: term magnitude with n = 0 against the leading term,
    # allowing for the exp(b/beta) factor (bounded by exp(p/beta)) that the
    # cross terms carry
    lead = float(_sp.log_ndtr((log_p - l.mu) / l.sigma))
    common = (-k * log_p + k * (l.mu + 0.5 * k * l.sigma ** 2)
              + _sp.log_ndtr((log_p - (l.mu + k * l.sigma ** 2)) / l.sigma)
              + p / g.beta - lead)
    # factorial axis: sum_n (b/beta)^n / n! against exp(b/beta) leaves at most
    # the Poisson(p/beta) upper tail
    with np.errstate(divide="ignore"):
        tail = np.log(_sp.pdtrc(k - 1.0, p / g.beta))
    tail[0] = 0.0
    return tuple((_depth(specfun.gen_binomial_log_array(g.alpha - 1.0 + top, n)[0]
                         + common, limit), _depth(tail, limit))
                 for top in (0, 1))


def _gb_pair_boxes(p, s: GBParams, b: GBParams, cfg):
    # the beta-grid factor decreases along every index, so each axis is
    # judged by its own terms; the num kernel's offsets change no index
    n = cfg.max_terms_per_index + 1
    limit = math.log(cfg.rel_tol) - TAIL_MARGIN
    ws = _gb_pair_workspace(s, b, 0, 0)
    fall1, rise1 = _gb_log_ratios(s, s.a * (math.log(p) - math.log(s.d)))
    fall2, rise2 = _gb_log_ratios(b, b.a * (math.log(p) - math.log(b.d)))
    box = (_depth(_falling_terms(ws.fall1, fall1, n), limit),
           _depth(_falling_terms(ws.fall2, fall2, n), limit),
           _depth(_rising_terms(ws.rise1, rise1, n), limit),
           _depth(_rising_terms(ws.rise2, rise2, n), limit))
    return box, box


def _gb_normal_boxes(p, s: GBParams, b: NormalParams, cfg):
    n = cfg.max_terms_per_index + 1
    limit = math.log(cfg.rel_tol) - TAIL_MARGIN
    pm = p - b.mu
    fall, rise = _gb_log_ratios(s, s.a * (math.log(pm) - math.log(s.d)))
    lv = _moment_logs(pm, b, n)[0]
    top = float(np.max(lv))
    with np.errstate(under="ignore"):
        ev = np.exp(lv - top)
    ws = _gb_normal_workspace(s, 0)
    fall_terms = _falling_terms(ws.fall, fall, n)
    rise_terms = _rising_terms(ws.rise, rise, n)
    boxes = []
    for off in (0, 1):
        ws = _gb_normal_workspace(s, off)
        # row i = l + m carries the moment sum over n, which grows with i;
        # the sum of its term magnitudes stands for it
        _, scaled, peak = ws.log_grid(n, n)
        with np.errstate(divide="ignore"):
            row = np.log(scaled @ ev) + peak + top
        growth = row - row[0]
        L = _depth(fall_terms + growth, limit)
        M = _depth(rise_terms + growth, limit)
        if max(L, M) >= n:
            boxes.append((L, M, n))
            continue
        # moment axis: every (l, m) row of the box, weighted by its axis terms
        weight = _max_convolve(fall_terms[:L], rise_terms[:M])
        cols = np.max(weight[:, None] + ws.log_grid(L + M - 1, n)[0], axis=0) + lv
        boxes.append((L, M, _depth(cols, row[0] + limit)))
    return tuple(boxes)


_BOX_BUILDERS = {
    "exp_lognormal": _exp_lognormal_boxes,
    "gamma_lognormal": _gamma_lognormal_boxes,
    "gb_gb": _gb_pair_boxes,
    "gb_normal": _gb_normal_boxes,
}


@lru_cache(maxsize=64)
def _boxes(kind, p, signal, noise, cfg):
    """(den box, num box) of a series family at observation p.

    Cached so the gate and the two kernels of one gene share the decision.
    """
    return _BOX_BUILDERS[kind](p, signal, noise, cfg)


# ---------------------------------------------------------------------------
# Summation on a box
# ---------------------------------------------------------------------------

def _confirmed_sum(total_fn, box, cfg, label) -> SeriesValue:
    """The sum on the grown box, confirmed against the sum on the box.

    total_fn(sizes) returns (log_abs, sign) of the partial sum over
    ``[0, sizes[0]) x ... x [0, sizes[-1])``.
    """
    if max(box) > cfg.max_terms_per_index:
        raise SeriesNonConvergenceError(
            f"{label}: truncation depths {box} lie past the cap "
            f"({cfg.max_terms_per_index})")
    log_tot, sign_tot = total_fn(box)
    wide_log, wide_sign = total_fn(_grow(box))
    if max(log_tot, wide_log) > 690.0:
        raise SeriesDivergenceError(
            f"{label}: partial sums overflowing; expansion outside its "
            f"convergence region")
    if log_tot != _NEG_INF or wide_log != _NEG_INF:
        m = max(log_tot, wide_log)
        a, b = sign_tot * math.exp(log_tot - m), wide_sign * math.exp(wide_log - m)
        moved = abs(a - b) / max(abs(b), 1e-300)
        if not moved < cfg.rel_tol:
            raise SeriesNonConvergenceError(
                f"{label}: confirmation box {_grow(box)} moved the sum by "
                f"{moved:.2e} relative",
                partial=SeriesValue(wide_log, wide_sign, box, False))
    return SeriesValue(wide_log, wide_sign, box, True)


def _confirmed_batch(total_fn, box, cfg):
    """Per-gene (log sum on the grown box, ok) for a shared box.

    total_fn(sizes) returns (per-gene sums, common log scale); ok marks genes
    whose sum is finite, positive and within rel_tol of the sum on the box.
    """
    base, base_scale = total_fn(box)
    wide, scale = total_fn(_grow(box))
    with np.errstate(all="ignore"):
        moved = np.abs(wide - base * np.exp(base_scale - scale))
        ok = np.isfinite(wide) & (wide > 0) & (moved < cfg.rel_tol * wide)
        return np.where(ok, np.log(np.where(ok, wide, 1.0)) + scale, -np.inf), ok


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


# ---------------------------------------------------------------------------
# Cached p-independent coefficient tables
# ---------------------------------------------------------------------------

class _CoefTable:
    """Lazily grown (log|coefficient|, sign) rows of fn(arg, n): falling
    binomials C(arg, k) or rising ones C(arg+k-1, k)."""

    def __init__(self, fn, arg):
        self.fn, self.arg = fn, arg
        self.logs, self.signs = fn(arg, 8)

    def get(self, n):
        if n > self.logs.size:
            self.logs, self.signs = self.fn(self.arg, n + 8)
        return self.logs[:n], self.signs[:n]


def _falling_table(v):
    return _CoefTable(specfun.gen_binomial_log_array, v - 1.0)


def _rising_table(q):
    return _CoefTable(specfun.rising_binomial_log_array, q)


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
        self.fall1, self.fall2 = _falling_table(s.v), _falling_table(b.v)
        self.rise1, self.rise2 = _rising_table(s.u + s.v), _rising_table(b.u + b.v)
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

    def parts(self, lg1, lg2, lg3, lg4, sizes):
        """Scaled axis vectors, their convolutions, beta grid and log scale.

        lg1..lg4 are the log geometric ratios of the l, m, n and r axes.
        """
        L, M, N, R = sizes
        v1, m1 = _scaled_exp(*_gb_axis_arrays(self.fall1, L, lg1))
        v3, m3 = _scaled_exp(*_gb_axis_arrays(self.rise1, N, lg3))
        v2, m2 = _scaled_exp(*_gb_axis_arrays(self.fall2, M, lg2))
        v4, m4 = _scaled_exp(*_gb_axis_arrays(self.rise2, R, lg4))
        conv13 = np.convolve(v1, v3)
        conv24 = np.convolve(v2, v4)
        E, gmax = self.lbeta_grid_exp(conv13.size, conv24.size)
        return v1, v3, v2, v4, conv13, conv24, E, m1 + m3 + m2 + m4 + gmax


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
        self.fall, self.rise = _falling_table(s.v), _rising_table(s.u + s.v)
        self._blocks = {}
        self._log_grid = (np.zeros((0, 0)),) * 3

    def _rows(self, i, n):
        return specfun.gen_binomial_log_array(self.s.a * (self.s.u + i) - 1.0 + self.off, n)

    def log_grid(self, imax, n):
        """(log|C|, |C| over its row's largest entry, log of that entry) for
        C = C(a(u+i) - 1 + off, k) over the leading imax rows, k < n."""
        logs = self._log_grid[0]
        if logs.shape[0] < imax or logs.shape[1] != n:
            logs = self._rows(np.arange(max(imax, 2 * logs.shape[0])), n)[0]
            peak = np.max(logs, axis=1)
            with np.errstate(under="ignore"):
                self._log_grid = (logs, np.exp(logs - peak[:, None]), peak)
        return tuple(part[:imax] for part in self._log_grid)

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
            logs, signs = self._rows(np.arange(size), size)
            live = logs[signs != 0]
            gmax = float(np.max(live)) if live.size else 0.0
            with np.errstate(under="ignore"):
                hit = self._blocks[size] = (signs * np.exp(logs - gmax), gmax)
        return hit[0][:imax, :nmax], hit[1]


@lru_cache(maxsize=8)
def _moment_logs(pm, b: NormalParams, n):
    """(log |t^k I_k|, sign I_k), k < n: t = sigma/(p - mu) times the Gaussian
    moments I_k over [-(p - mu)/sigma, mu/sigma]."""
    table = specfun.gaussian_moment_table(n, -pm / b.sigma, b.mu / b.sigma)
    with np.errstate(divide="ignore"):
        logs = np.arange(n) * (math.log(b.sigma) - math.log(pm)) + np.log(np.abs(table))
    return logs, np.sign(table)


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

    def total(sizes):
        lt = _lognormal_weight_terms(p, theta, l, shift, sizes[0])
        m = float(np.max(lt))
        if m == _NEG_INF:
            return _NEG_INF, 0.0
        with np.errstate(under="ignore"):
            vals = np.exp(lt - m)
        return _finish(math.fsum(vals.tolist()), m)

    box = _boxes("exp_lognormal", p, e, l, cfg)[shift]
    return _confirmed_sum(total, box, cfg, label)


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
    log_p = math.log(p)

    def total(sizes):
        K, N = sizes
        blogs, bsigns = specfun.gen_binomial_log_array(g.alpha - 1.0 + top_shift, K)
        kk = np.arange(K, dtype=float)
        nn = np.arange(N, dtype=float)
        t = np.arange(K + N - 1, dtype=float)
        E = (t * (l.mu + 0.5 * t * l.sigma ** 2)
             + _sp.log_ndtr((log_p - (l.mu + t * l.sigma ** 2)) / l.sigma))
        bk = blogs - kk * log_p
        sk = bsigns * np.where(kk % 2 == 0, 1.0, -1.0)
        bn = -_sp.gammaln(nn + 1.0) - nn * math.log(g.beta)
        te = bk[:, None] + bn[None, :] + E[(np.arange(K)[:, None] + np.arange(N)[None, :])]
        m = float(np.max(te))
        if m == _NEG_INF:
            return _NEG_INF, 0.0
        with np.errstate(under="ignore"):
            grid = sk[:, None] * np.exp(te - m)
        return _finish(math.fsum(np.sum(grid, axis=1).tolist()), m)

    box = _boxes("gamma_lognormal", p, g, l, cfg)[top_shift]
    return _confirmed_sum(total, box, cfg, label)


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

def _gb_axis_arrays(table, n, log_ratio):
    """Signed, geometric-folded coefficient arrays for one GB expansion axis."""
    blogs, bsigns = table.get(n)
    logs = blogs + _geometric_logs(n, log_ratio)
    signs = bsigns * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    signs = np.where(np.isneginf(logs), np.where(np.arange(n) == 0, signs, 0.0), signs)
    return logs, signs


def _gb_pair_eval(p, s, b, off1, off2, cfg, label, want_grad=False):
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not (0 < p < upper):
        raise DomainError(f"{label}: p={p} outside the convolution support (0, {upper})")
    box = _boxes("gb_gb", p, s, b, cfg)[off1]
    if off1 == 0 and off2 == 0 and cfg.literal_beta_args:
        off1, off2 = -1, -1
    elif off1 == 1 and cfg.literal_beta_args:
        off1, off2 = 0, -1
    ws = _gb_pair_workspace(s, b, off1, off2)

    lg1, lg3 = _gb_log_ratios(s, s.a * (math.log(p) - math.log(s.d)))
    lg2, lg4 = _gb_log_ratios(b, b.a * (math.log(p) - math.log(b.d)))

    def total(sizes):
        _, _, _, _, conv13, conv24, E, scale = ws.parts(lg1, lg2, lg3, lg4, sizes)
        rows = conv13 * (E @ conv24)
        return _finish(math.fsum(rows.tolist()), scale)

    result = _confirmed_sum(total, box, cfg, label)
    if not want_grad:
        return result

    # Signal-block derivative sums on the confirmed box, shared scale cancels
    # in the returned ratios d(log series)/d(param).
    sizes = result.terms_used
    v1, v3, v2, v4, conv13, conv24, E, _ = ws.parts(lg1, lg2, lg3, lg4, sizes)
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

def _gb_normal_parts(ws, lg1, lg2, L, M):
    """Scaled l and m axis vectors, their convolution, and its log scale."""
    v1, m1 = _scaled_exp(*_gb_axis_arrays(ws.fall, L, lg1))
    v2, m2 = _scaled_exp(*_gb_axis_arrays(ws.rise, M, lg2))
    return v1, v2, np.convolve(v1, v2), m1 + m2


def _gb_normal_eval(p, s, b: NormalParams, off, cfg, label, want_grad=False):
    if p <= 0:
        raise DomainError(f"{label} requires p > 0, got {p}")
    if p <= b.mu:
        raise DomainError(
            f"{label}: series formulation requires p > noise mu, got p={p}, mu={b.mu}")
    ws = _gb_normal_workspace(s, off)
    box = _boxes("gb_normal", p, s, b, cfg)[off]
    pm = p - b.mu
    lg1, lg2 = _gb_log_ratios(s, s.a * (math.log(pm) - math.log(s.d)))
    wide = _grow(box)

    def parts(sizes):
        L, M, N = sizes
        v1, v2, conv12, scale = _gb_normal_parts(ws, lg1, lg2, L, M)
        # the gate read the same (cached) moment table to fix the box
        vlog, vsign = _moment_logs(pm, b, max(wide[2], cfg.max_terms_per_index + 1))
        vn, mv = _scaled_exp(vlog[:N], vsign[:N])
        # both sums read one scaled grid, so the confirmation sees truncation only
        grid, gmax = ws.binom_grid_exp(wide[0] + wide[1] - 1, wide[2])
        return v1, v2, conv12, vn, grid[:conv12.size, :N], scale + mv + gmax

    def total(sizes):
        _, _, conv12, vn, Gm, scale = parts(sizes)
        rows = conv12 * (Gm @ vn)
        return _finish(math.fsum(rows.tolist()), scale)

    result = _confirmed_sum(total, box, cfg, label)
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

def _gb_pair_log_const(s: GBParams, b: GBParams):
    return (math.log(s.a) + math.log(b.a)
            - s.a * s.u * math.log(s.d) - b.a * b.u * math.log(b.d)
            - specfun.log_beta(s.u, s.v) - specfun.log_beta(b.u, b.v))


def _gb_normal_log_const(s: GBParams):
    return (math.log(s.a) - s.a * s.u * math.log(s.d) - specfun.log_beta(s.u, s.v)
            - 0.5 * math.log(2.0 * math.pi))


def marginal_gb_log(p, s: GBParams, b: GBParams, cfg=SeriesConfig()):
    den = gb_pair_den_series(p, s, b, cfg)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            "gb_pair_den series converged to a nonpositive value; cancellation "
            "has destroyed the result")
    return (_gb_pair_log_const(s, b) + (s.a * s.u + b.a * b.u - 1.0) * math.log(p)
            + den.log_abs)


def marginal_gb(p, s: GBParams, b: GBParams, cfg=SeriesConfig()) -> float:
    """Series marginal density of P = S + B with GB signal and GB noise."""
    return math.exp(marginal_gb_log(p, s, b, cfg))


def marginal_gb_normal_log(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()):
    den = gb_normal_den_series(p, s, b, cfg)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            "gb_normal_den series converged to a nonpositive value")
    return (_gb_normal_log_const(s) + (s.a * s.u - 1.0) * math.log(p - b.mu)
            + den.log_abs)


def marginal_gb_normal(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()) -> float:
    """Series marginal density of P = S + B with GB signal and normal noise."""
    return math.exp(marginal_gb_normal_log(p, s, b, cfg))


def _marginal_log_batch(model, p, cfg, kernel):
    """Series log marginals of model at every observation of the array p.

    The genes the gate accepts are summed together on one box, the
    elementwise largest of their own den boxes, with shared coefficient
    tables: kernel(accepted p, box) returns the batch total function and
    the per-gene log prefactor.  Returns (values, ok); ok is False where the
    gate refuses the gene or its sum is not positive or fails the
    confirmation, and values there are -inf, so callers can route those
    genes elsewhere.
    """
    p = np.asarray(p, dtype=float)
    ok = np.zeros(p.shape, dtype=bool)
    boxes = []
    for i, pi in enumerate(p.tolist()):
        if convergence_ok(model, pi, cfg):
            ok[i] = True
            boxes.append(_boxes(model.kind, pi, model.signal, model.noise, cfg)[0])
    out = np.full(p.shape, -np.inf)
    if boxes:
        box = tuple(map(max, zip(*boxes)))
        total, prefactor = kernel(p[ok], box)
        log_den, good = _confirmed_batch(total, box, cfg)
        out[ok] = prefactor + log_den
        ok[ok] = good
    return out, ok


def marginal_gb_log_batch(p, s: GBParams, b: GBParams, cfg=SeriesConfig()):
    """``marginal_gb_log`` at every observation of the array p, as
    (values, ok); see ``_marginal_log_batch``."""
    def kernel(pk, box):
        ws = _gb_pair_workspace(s, b, 0, 0)
        lg1, lg3 = _gb_log_ratios(s, 0.0)
        lg2, lg4 = _gb_log_ratios(b, 0.0)
        lx1 = s.a * (np.log(pk) - math.log(s.d))
        lx2 = b.a * (np.log(pk) - math.log(b.d))

        def total(sizes):
            _, _, _, _, conv13, conv24, E, scale = ws.parts(lg1, lg2, lg3, lg4, sizes)
            with np.errstate(under="ignore"):
                X1 = np.exp(np.outer(lx1, np.arange(conv13.size)))
                X2 = np.exp(np.outer(lx2, np.arange(conv24.size)))
            return np.einsum("ij,ij->i", (X1 * conv13) @ E, X2 * conv24), scale

        return total, (_gb_pair_log_const(s, b)
                       + (s.a * s.u + b.a * b.u - 1.0) * np.log(pk))

    return _marginal_log_batch(GBGB(s, b), p, cfg, kernel)


def marginal_gb_normal_log_batch(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()):
    """``marginal_gb_normal_log`` at every observation of the array p, as
    (values, ok); see ``_marginal_log_batch``."""
    def kernel(pk, box):
        pm = pk - b.mu
        ws = _gb_normal_workspace(s, 0)
        lg1, lg2 = _gb_log_ratios(s, 0.0)
        ly = s.a * (np.log(pm) - math.log(s.d))
        L, M, N = _grow(box)
        grid, gmax = ws.binom_grid_exp(L + M - 1, N)
        vn = np.empty((pm.size, N))   # per-gene moment columns t^n I_n
        for gi, y in enumerate(pm.tolist()):
            vlog, vsign = _moment_logs(y, b, N)
            with np.errstate(under="ignore"):
                vn[gi] = vsign * np.exp(vlog)

        def total(sizes):
            L, M, N = sizes
            _, _, conv12, scale = _gb_normal_parts(ws, lg1, lg2, L, M)
            with np.errstate(under="ignore"):
                Y = np.exp(np.outer(ly, np.arange(conv12.size)))
            return (np.einsum("ij,ij->i", (Y * conv12) @ grid[:conv12.size, :N],
                              vn[:, :N]), scale + gmax)

        return total, _gb_normal_log_const(s) + (s.a * s.u - 1.0) * np.log(pm)

    return _marginal_log_batch(GBNormal(s, b), p, cfg, kernel)


# ---------------------------------------------------------------------------
# Convergence region ("safe range")
# ---------------------------------------------------------------------------

#: geometric-ratio ceiling for the GB binomial expansions; 0.8^200 leaves
#: ample headroom below the default rel_tol within the default index cap
GB_RATIO_MAX = 0.80
#: cancellation ceiling: log of (sum of |terms| / |sum|) tolerated before
#: float64 noise erodes the alternating sums (1e-16 * e^26 ~ 2e-5 relative)
GB_SPREAD_LOG_MAX = 26.0
#: lognormal-noise gates: the noise density must be negligible at p
#: (gamma signal), and the noise spread bounded (exponential signal)
LN_TAIL_Z_MIN = 4.5
LN_SIGMA_MAX = 3.0
#: GB-normal gates on the Gaussian-moment index
GBN_ENDPOINT_RATIO_MAX = 0.85
GBN_SIGMA_SEP_MIN = 3.0


def _gb_in_region(g: GBParams, p) -> bool:
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
    return spread <= GB_SPREAD_LOG_MAX


def _in_region(m: ModelSpec, p) -> bool:
    """The gate's checks other than the truncation depths."""
    kind = m.kind
    if kind == "exp_lognormal":
        return m.noise.sigma <= LN_SIGMA_MAX
    if kind == "gamma_lognormal":
        return (math.log(p) - m.noise.mu) / m.noise.sigma >= LN_TAIL_Z_MIN
    if kind == "gb_gb":
        return _gb_in_region(m.signal, p) and _gb_in_region(m.noise, p)
    if kind == "gb_normal":
        b = m.noise
        return (b.mu > 0 and p > b.mu
                and b.mu / (p - b.mu) <= GBN_ENDPOINT_RATIO_MAX
                and (p - b.mu) / b.sigma >= GBN_SIGMA_SEP_MIN
                and _gb_in_region(m.signal, p))
    return True


def convergence_ok(m: ModelSpec, p, cfg: SeriesConfig = SeriesConfig()) -> bool:
    """True when the series expansions for model m converge at observation p
    within the truncation policy cfg.

    Beyond the ratio and cancellation checks, every truncation depth of the
    den and num kernels must lie within 85% of the index cap; these are the
    boxes the evaluators then sum on.  Outside this region the series
    evaluators may raise and callers must use the quadrature path.
    """
    if p <= 0 or not _in_region(m, p):
        return False
    if m.kind not in _BOX_BUILDERS:
        return True
    limit = int(GATE_DEPTH_FRACTION * cfg.max_terms_per_index)
    return all(max(box) <= limit
               for box in _boxes(m.kind, p, m.signal, m.noise, cfg))
