"""Truncated evaluation of the convolution series on one box per gene.

Each convolution model whose marginal/posterior has no closed form is written
as an infinite sum of binomial-expansion terms, handled as log-magnitude plus
sign because the coefficients mix huge gamma factors with tiny geometric ones.

* The truncation box is computed from (model, p, cfg) before anything is
  summed: per summation index, the first index past which the remaining terms
  are below ``rel_tol`` of the total, judged from closed-form axis values and
  the index's own term magnitudes (exact cutoffs give -inf magnitudes).
* Each family has one kernel, which sums its den or num series for an array
  of genes on one box.  A gene's axis vectors are scaled once, on the
  confirmation box (one eighth deeper along every index); the sum on the box
  reads slices of the same scaled arrays, so the two sums see identical
  entries, and each gene's rows are added with ``math.fsum``.  A gene is
  confirmed when its two sums differ by less than ``rel_tol`` and the sum
  does not overflow.
* The per-gene evaluators (``*_den_series``, ``*_num_series``) run the kernel
  on one gene and its own box, and raise -- callers fall back to quadrature --
  when a depth lies past ``max_terms_per_index`` or the gene is not
  confirmed.  ``marginal_log_batch`` runs it on every gene the gate accepts,
  on the elementwise largest of their den boxes, for the likelihood.
* The gate (``convergence_ok``) accepts a gene when every depth of both
  kernels lies within 85% of the cap, besides its ratio and cancellation
  checks.

Naming: the ``*_den`` series is the marginal-density kernel of a model, the
``*_num`` series the posterior-numerator kernel; corrected intensities are
ratios of the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _sp

from . import specfun
from .dists import (ExpParams, GammaParams, GBParams, LognormalParams, ModelSpec,
                    NormalParams, gb_support_upper)
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
    """

    rel_tol: float = 1e-10
    max_terms_per_index: int = 200

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
    terms = [_lognormal_weight_terms(math.log(p), theta, l, shift,
                                     cfg.max_terms_per_index + 1)
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
    ws = _gb_pair_workspace(s, b, 0)
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


@lru_cache(maxsize=64)
def _boxes(kind, p, signal, noise, cfg):
    """(den box, num box) of a series family at observation p.

    Cached so the gate and the two kernels of one gene share the decision.
    """
    return _FAMILIES[kind].boxes(p, signal, noise, cfg)


# ---------------------------------------------------------------------------
# Summation on a box
# ---------------------------------------------------------------------------

def _scaled_rows(logs, signs):
    """(signs * exp(logs - scale), scale), gene by gene along the first axis.

    A gene's scale is the largest of its logs (0 when they are all -inf).
    """
    axes = tuple(range(1, logs.ndim))
    m = np.max(logs, axis=axes)
    m = np.where(m == _NEG_INF, 0.0, m)
    with np.errstate(under="ignore"):
        return signs * np.exp(logs - m.reshape(m.shape + (1,) * len(axes))), m


def _convolve_rows(a, b):
    """out[g] = np.convolve(a[g], b[g]) for two stacks of vectors.

    Loops over the genes or over the shorter vector's entries, whichever
    are fewer.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    if a.shape[0] < a.shape[1]:
        return np.array([np.convolve(x, y) for x, y in zip(a, b)])
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for k in range(a.shape[1]):
        out[:, k:k + b.shape[1]] += a[:, k:k + 1] * b
    return out


def _row_fsums(rows):
    """math.fsum of each gene's row of a genes x terms array."""
    return np.array([math.fsum(r) for r in rows.tolist()])


def _box_sums(rows, box):
    """Per-gene sums of rows(sizes) on the box and on the grown box."""
    return _row_fsums(rows(box)), _row_fsums(rows(_grow(box)))


def _confirmed_batch(base, wide, scale, cfg):
    """Per-gene (log |sum on the grown box|, its sign, ok) from a kernel.

    base and wide are a kernel's sums on the box and on the grown box, both
    relative to exp(scale); ok marks genes whose sum is finite, below
    exp(690) and within rel_tol of the sum on the box (two zero sums agree).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = scale + np.log(np.abs(wide))
        agree = np.abs(wide - base) < cfg.rel_tol * np.abs(wide)
    ok = (log_abs <= 690.0) & (agree | ((wide == 0.0) & (base == 0.0)))
    return log_abs, np.sign(wide), ok


def _evaluate(kind, p, signal, noise, off, cfg, label) -> SeriesValue:
    """The family's kernel on one gene and its own box (off 0: den, 1: num).

    Raises when a depth lies past the cap, when the sum overflows, and when
    the confirmation box moves the sum by rel_tol or more.
    """
    if p <= 0:
        raise DomainError(f"{label} requires p > 0, got {p}")
    box = _boxes(kind, p, signal, noise, cfg)[off]
    if max(box) > cfg.max_terms_per_index:
        raise SeriesNonConvergenceError(
            f"{label}: truncation depths {box} lie past the cap "
            f"({cfg.max_terms_per_index})")
    base, wide, scale = _FAMILIES[kind].kernel(
        np.array([float(p)]), signal, noise, off, box, cfg)
    log_abs, sign, ok = _confirmed_batch(base, wide, scale, cfg)
    value = SeriesValue(float(log_abs[0]), float(sign[0]), box, bool(ok[0]))
    if value.converged:
        return value
    base, wide = float(base[0]), float(wide[0])
    if not (math.isfinite(base) and math.isfinite(wide) and value.log_abs <= 690.0):
        raise SeriesDivergenceError(
            f"{label}: partial sums overflowing; expansion outside its "
            f"convergence region")
    moved = abs(wide - base) / max(abs(wide), 1e-300)
    raise SeriesNonConvergenceError(
        f"{label}: confirmation box {_grow(box)} moved the sum by "
        f"{moved:.2e} relative", partial=value)


def _geometric_logs(n, log_ratio):
    """k * log_ratio for k < n, 0 at k = 0; an array of ratios gives a row each."""
    with np.errstate(invalid="ignore"):
        out = np.arange(n, dtype=float) * np.asarray(log_ratio, dtype=float)[..., None]
    out[..., 0] = 0.0
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
def _gb_pair_workspace(s: GBParams, b: GBParams, off: int):
    return _GBPairWorkspace(s, b, off)


class _GBPairWorkspace:
    """p-independent tables for the GB + GB quadruple series.

    The quadruple sum couples the four indices only through i = l+n and
    j = m+r, so partial sums over a box reduce to a bilinear form between two
    truncated coefficient convolutions and a log-beta grid.  off = 1 shifts
    the signal's beta argument for the posterior-numerator kernel.
    """

    def __init__(self, s, b, off):
        self.s, self.b, self.off = s, b, off
        self.fall1, self.fall2 = _falling_table(s.v), _falling_table(b.v)
        self.rise1, self.rise2 = _rising_table(s.u + s.v), _rising_table(b.u + b.v)
        self._grid = np.zeros((0, 0))
        self._grid_exp = np.zeros((0, 0))
        self._gmax = 0.0

    def arg1(self, i):
        return self.s.a * (self.s.u + i) + self.off

    def arg2(self, j):
        return self.b.a * (self.b.u + j)

    def lbeta_grid_exp(self, imax, jmax):
        """exp(lbeta grid - gmax) cached; returns (slice, gmax)."""
        g = self._grid
        if g.shape[0] < imax or g.shape[1] < jmax:
            ni = max(imax, g.shape[0] * 2, 16)
            nj = max(jmax, g.shape[1] * 2, 16)
            g = specfun.log_beta(self.arg1(np.arange(ni))[:, None],
                                 self.arg2(np.arange(nj))[None, :])
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


#: holds the tables of every gene of an array, so the likelihood's kernel
#: reads the tables its gate computed, and a fit with fixed noise reuses them
@lru_cache(maxsize=4096)
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

def _lognormal_weight_terms(log_p, theta, l: LognormalParams, shift, n):
    """log-terms of sum_k theta^k/k! E[B^(k+shift) 1(B<p)] / E[B]^shift-style kernels.

    shift = 0 gives the marginal kernel, shift = 1 the posterior-numerator
    kernel (its common factor exp(mu + sigma^2/2) is applied by the caller).
    A column of log p values gives one row of terms per gene.
    """
    k = np.arange(n, dtype=float)
    lam = math.log(theta) if theta > 0 else _NEG_INF
    return (_geometric_logs(n, lam) - _sp.gammaln(k + 1.0)
            + k * (l.mu + 0.5 * (k + 2.0 * shift) * l.sigma ** 2)
            + _sp.log_ndtr((log_p - (l.mu + (k + shift) * l.sigma ** 2)) / l.sigma))


def _exp_lognormal_kernel(p, e: ExpParams | None, l: LognormalParams, shift, box, cfg):
    theta = 0.0 if e is None else e.theta
    terms, scale = _scaled_rows(
        _lognormal_weight_terms(np.log(p)[:, None], theta, l, shift, _grow(box)[0]), 1.0)
    return (*_box_sums(lambda sizes: terms[:, :sizes[0]], box), scale)


def _exp_lognormal_log_prefactor(e: ExpParams, l: LognormalParams, p):
    return math.log(e.theta) - e.theta * p


def exp_lognormal_den_series(p, e: ExpParams, l: LognormalParams,
                             cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Marginal kernel of the exponential-signal, lognormal-noise model."""
    return _evaluate("exp_lognormal", p, e, l, 0, cfg, "exp_lognormal_den")


def exp_lognormal_num_series(p, e: ExpParams, l: LognormalParams,
                             cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel of the same model (noise conditional mean)."""
    return _evaluate("exp_lognormal", p, e, l, 1, cfg, "exp_lognormal_num")


# ---------------------------------------------------------------------------
# Gamma-lognormal pair (two indices)
# ---------------------------------------------------------------------------

#: entries of the per-gene (k, n) term grids the gamma-lognormal kernel
#: holds at once; larger batches are summed in slices of genes
_GRID_BUDGET = 1 << 18


def _gamma_lognormal_kernel(p, g: GammaParams, l: LognormalParams, top, box, cfg):
    """top = 0 uses C(alpha-1, k) (marginal), 1 uses C(alpha, k)."""
    K, N = _grow(box)
    blogs, bsigns = specfun.gen_binomial_log_array(g.alpha - 1.0 + top, K)
    kk = np.arange(K, dtype=float)
    nn = np.arange(N, dtype=float)
    t = np.arange(K + N - 1, dtype=float)
    sk = (bsigns * np.where(kk % 2 == 0, 1.0, -1.0))[:, None]
    bn = -_sp.gammaln(nn + 1.0) - nn * math.log(g.beta)
    diag = np.arange(K)[:, None] + np.arange(N)
    base, wide, scale = np.empty(p.size), np.empty(p.size), np.empty(p.size)
    step = max(1, _GRID_BUDGET // (K * N))
    for lo in range(0, p.size, step):
        part = slice(lo, lo + step)
        log_p = np.log(p[part])[:, None]
        E = (t * (l.mu + 0.5 * t * l.sigma ** 2)
             + _sp.log_ndtr((log_p - (l.mu + t * l.sigma ** 2)) / l.sigma))
        te = (blogs - kk * log_p)[:, :, None] + bn + E[:, diag]
        grid, scale[part] = _scaled_rows(te, sk)
        base[part], wide[part] = _box_sums(
            lambda sizes: grid[:, :sizes[0], :sizes[1]].sum(axis=2), box)
    return base, wide, scale


def _gamma_lognormal_log_prefactor(g: GammaParams, l: LognormalParams, p):
    return ((g.alpha - 1.0) * np.log(p) - p / g.beta
            - g.alpha * math.log(g.beta) - _sp.gammaln(g.alpha))


def gamma_lognormal_den_series(p, g: GammaParams, l: LognormalParams,
                               cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Marginal kernel of the gamma-signal, lognormal-noise model."""
    return _evaluate("gamma_lognormal", p, g, l, 0, cfg, "gamma_lognormal_den")


def gamma_lognormal_num_series(p, g: GammaParams, l: LognormalParams,
                               cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = p * num/den."""
    return _evaluate("gamma_lognormal", p, g, l, 1, cfg, "gamma_lognormal_num")


# ---------------------------------------------------------------------------
# GB + GB quadruple series
# ---------------------------------------------------------------------------

def _gb_axis_arrays(table, n, log_ratio):
    """Signed, geometric-folded coefficient arrays for one GB expansion axis,
    one row per entry of the log_ratio array."""
    blogs, bsigns = table.get(n)
    return (blogs + _geometric_logs(n, log_ratio),
            bsigns * np.where(np.arange(n) % 2 == 0, 1.0, -1.0))


def _gb_pair_parts(p, s, b, off, sizes):
    """The scaled l, m, n and r axis vectors of every gene on sizes =
    (L, M, N, R), the scaled beta grid, and each gene's log scale."""
    ws = _gb_pair_workspace(s, b, off)
    lg1, lg3 = _gb_log_ratios(s, s.a * (np.log(p) - math.log(s.d)))
    lg2, lg4 = _gb_log_ratios(b, b.a * (np.log(p) - math.log(b.d)))
    L, M, N, R = sizes
    v1, m1 = _scaled_rows(*_gb_axis_arrays(ws.fall1, L, lg1))
    v3, m3 = _scaled_rows(*_gb_axis_arrays(ws.rise1, N, lg3))
    v2, m2 = _scaled_rows(*_gb_axis_arrays(ws.fall2, M, lg2))
    v4, m4 = _scaled_rows(*_gb_axis_arrays(ws.rise2, R, lg4))
    E, gmax = ws.lbeta_grid_exp(L + N - 1, M + R - 1)
    return (v1, v2, v3, v4, E), m1 + m3 + m2 + m4 + gmax


def _gb_pair_kernel(p, s: GBParams, b: GBParams, off, box, cfg):
    parts, scale = _gb_pair_parts(p, s, b, off, _grow(box))

    def rows(sizes):
        v1, v2, v3, v4 = (v[:, :n] for v, n in zip(parts, sizes))
        conv13, conv24 = _convolve_rows(v1, v3), _convolve_rows(v2, v4)
        return conv13 * (conv24 @ parts[4][:conv13.shape[1], :conv24.shape[1]].T)

    return (*_box_sums(rows, box), scale)


def _gb_pair_log_prefactor(s: GBParams, b: GBParams, p):
    return (math.log(s.a) + math.log(b.a)
            - s.a * s.u * math.log(s.d) - b.a * b.u * math.log(b.d)
            - specfun.log_beta(s.u, s.v) - specfun.log_beta(b.u, b.v)
            + (s.a * s.u + b.a * b.u - 1.0) * np.log(p))


def _gb_pair_eval(p, s, b, off, cfg, label, want_grad=False):
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not (0 < p < upper):
        raise DomainError(f"{label}: p={p} outside the convolution support (0, {upper})")
    result = _evaluate("gb_gb", p, s, b, off, cfg, label)
    if not want_grad:
        return result

    # Signal-block derivative sums on the confirmed box, read from the
    # kernel's scaled vectors; the shared scale cancels in the returned
    # ratios d(log series)/d(param).
    sizes = result.terms_used
    parts, _ = _gb_pair_parts(np.array([float(p)]), s, b, off, _grow(sizes))
    v1, v2, v3, v4 = (v[0, :n] for v, n in zip(parts, sizes))
    L, M, N, R = sizes
    conv13, conv24 = np.convolve(v1, v3), np.convolve(v2, v4)
    E = parts[4][:conv13.size, :conv24.size]
    base_rows = E @ conv24
    S0 = float(np.sum(conv13 * base_rows))
    if S0 == 0.0:
        raise SeriesDivergenceError(f"{label}: zero base sum in gradient evaluation")

    ws = _gb_pair_workspace(s, b, off)
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
    return _gb_pair_eval(p, s, b, 0, cfg, "gb_pair_den")


def gb_pair_num_series(p, s: GBParams, b: GBParams,
                       cfg: SeriesConfig = SeriesConfig()) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = p * num/den."""
    return _gb_pair_eval(p, s, b, 1, cfg, "gb_pair_num")


def gb_pair_den_series_with_grad(p, s, b, cfg=SeriesConfig()):
    """(SeriesValue, d log(series)/d(a,c,d,u,v) of the signal block)."""
    return _gb_pair_eval(p, s, b, 0, cfg, "gb_pair_den", want_grad=True)


# ---------------------------------------------------------------------------
# GB + normal triple series
# ---------------------------------------------------------------------------

def _gb_normal_parts(p, s, b: NormalParams, off, sizes, cfg):
    """The scaled l and m axis vectors and moment columns t^n I_n of every
    gene on sizes = (L, M, N), the scaled binomial grid, and each gene's log
    scale."""
    ws = _gb_normal_workspace(s, off)
    pm = p - b.mu
    lg1, lg2 = _gb_log_ratios(s, s.a * (np.log(pm) - math.log(s.d)))
    L, M, N = sizes
    v1, m1 = _scaled_rows(*_gb_axis_arrays(ws.fall, L, lg1))
    v2, m2 = _scaled_rows(*_gb_axis_arrays(ws.rise, M, lg2))
    # the gate read the same (cached) moment tables to fix the boxes
    n = max(N, cfg.max_terms_per_index + 1)
    tables = [_moment_logs(y, b, n) for y in pm.tolist()]
    vn, mv = _scaled_rows(np.array([t[0][:N] for t in tables]),
                          np.array([t[1][:N] for t in tables]))
    grid, gmax = ws.binom_grid_exp(L + M - 1, N)
    return (v1, v2, vn, grid), m1 + m2 + mv + gmax


def _gb_normal_kernel(p, s: GBParams, b: NormalParams, off, box, cfg):
    (v1, v2, vn, grid), scale = _gb_normal_parts(p, s, b, off, _grow(box), cfg)

    def rows(sizes):
        L, M, N = sizes
        conv12 = _convolve_rows(v1[:, :L], v2[:, :M])
        return conv12 * (vn[:, :N] @ grid[:conv12.shape[1], :N].T)

    return (*_box_sums(rows, box), scale)


def _gb_normal_log_prefactor(s: GBParams, b: NormalParams, p):
    return (math.log(s.a) - s.a * s.u * math.log(s.d) - specfun.log_beta(s.u, s.v)
            - 0.5 * math.log(2.0 * math.pi) + (s.a * s.u - 1.0) * np.log(p - b.mu))


def _gb_normal_eval(p, s, b: NormalParams, off, cfg, label, want_grad=False):
    if p <= b.mu:
        raise DomainError(
            f"{label}: series formulation requires p > noise mu, got p={p}, mu={b.mu}")
    result = _evaluate("gb_normal", p, s, b, off, cfg, label)
    if not want_grad:
        return result

    sizes = result.terms_used
    (v1, v2, vn, grid), _ = _gb_normal_parts(np.array([float(p)]), s, b, off,
                                             _grow(sizes), cfg)
    L, M, N = sizes
    v1, v2, vn = v1[0, :L], v2[0, :M], vn[0, :N]
    conv12 = np.convolve(v1, v2)
    Gm = grid[:conv12.size, :N]
    base_rows = Gm @ vn
    S0 = float(np.sum(conv12 * base_rows))
    if S0 == 0.0:
        raise SeriesDivergenceError(f"{label}: zero base sum in gradient evaluation")

    pm = p - b.mu
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
# Family registry and marginal densities assembled from the series
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    #: (p, signal, noise, cfg) -> (den box, num box)
    boxes: Callable
    #: (p array, signal, noise, off, box, cfg) -> per-gene (sum on the box,
    #: sum on the grown box, log scale of both); off 0 is den, 1 is num
    kernel: Callable
    #: (signal, noise, p array) -> log marginal density minus log den sum
    log_prefactor: Callable


_FAMILIES = {
    "exp_lognormal": _Family(_exp_lognormal_boxes, _exp_lognormal_kernel,
                             _exp_lognormal_log_prefactor),
    "gamma_lognormal": _Family(_gamma_lognormal_boxes, _gamma_lognormal_kernel,
                               _gamma_lognormal_log_prefactor),
    "gb_gb": _Family(_gb_pair_boxes, _gb_pair_kernel, _gb_pair_log_prefactor),
    "gb_normal": _Family(_gb_normal_boxes, _gb_normal_kernel, _gb_normal_log_prefactor),
}


def marginal_gb_log(p, s: GBParams, b: GBParams, cfg=SeriesConfig()):
    den = gb_pair_den_series(p, s, b, cfg)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            "gb_pair_den series converged to a nonpositive value; cancellation "
            "has destroyed the result")
    return float(_gb_pair_log_prefactor(s, b, p)) + den.log_abs


def marginal_gb(p, s: GBParams, b: GBParams, cfg=SeriesConfig()) -> float:
    """Series marginal density of P = S + B with GB signal and GB noise."""
    return math.exp(marginal_gb_log(p, s, b, cfg))


def marginal_gb_normal_log(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()):
    den = gb_normal_den_series(p, s, b, cfg)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            "gb_normal_den series converged to a nonpositive value")
    return float(_gb_normal_log_prefactor(s, b, p)) + den.log_abs


def marginal_gb_normal(p, s: GBParams, b: NormalParams, cfg=SeriesConfig()) -> float:
    """Series marginal density of P = S + B with GB signal and normal noise."""
    return math.exp(marginal_gb_normal_log(p, s, b, cfg))


def marginal_log_batch(model: ModelSpec, p, cfg: SeriesConfig = SeriesConfig()):
    """Series log marginal density of model at every observation of the array p.

    model is of a series family.  The genes the gate accepts are summed
    together by the family's kernel on one box, the elementwise largest of
    their den boxes.  Returns (values, ok); ok is False where the gate
    refuses the gene or its sum is not positive or is not confirmed, and
    values there are -inf, so callers can route those genes elsewhere.
    """
    family = _FAMILIES[model.kind]
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
        pk = p[ok]
        log_den, sign, good = _confirmed_batch(
            *family.kernel(pk, model.signal, model.noise, 0, box, cfg), cfg)
        good &= sign > 0
        out[ok] = np.where(good, family.log_prefactor(model.signal, model.noise, pk)
                           + log_den, -np.inf)
        ok[ok] = good
    return out, ok


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
    if m.kind not in _FAMILIES:
        return True
    limit = int(GATE_DEPTH_FRACTION * cfg.max_terms_per_index)
    return all(max(box) <= limit
               for box in _boxes(m.kind, p, m.signal, m.noise, cfg))
