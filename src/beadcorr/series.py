"""Truncated evaluation of the convolution series, one gene at a time.

Each convolution model whose marginal/posterior has no closed form is written
as an infinite sum of binomial-expansion terms, handled as log-magnitude plus
sign because the coefficients mix huge gamma factors with tiny geometric ones.

* The truncation box is computed from (model, p) before anything is
  summed: per summation index, the first index past which the remaining terms
  are below ``REL_TOL`` of the total, judged from closed-form axis values and
  the index's own term magnitudes (exact cutoffs give -inf magnitudes).
* The convergence gate (``convergence_ok``) runs the family's ratio,
  cancellation and tail checks, then computes the den and num boxes, and
  accepts the gene when every depth of both lies within 85% of the cap.
* Each family has one kernel, which sums its den or num series on the
  gene's box and on its confirmation box, one eighth deeper along every
  index.  The axis vectors are built and scaled on the confirmation box; the
  sum on the box reads their leading entries.  Convolutions and contractions
  are accumulated elementwise in a fixed order of the summed index (no
  matrix product), and the gene's row is added with ``math.fsum``.  A sum is
  confirmed when its two sums differ by less than ``REL_TOL`` and it does
  not overflow.
* ``posterior_mean`` is the series corrector of one gene: the gate, both
  kernels, the cancellation check and the value formula.  It raises a
  SeriesError that names the step refusing the gene.  The per-gene
  evaluators (``*_den_series``, ``*_num_series``) run one kernel after the
  family's domain check.  The series is the paper's route
  (``correct.PAPER_ROUTES``): the public correctors,
  ``correct.correct_array_series`` and validation take it, and neither
  ``correct.ROUTES`` nor the likelihood does.

Internally a gene's observation is a one-element array ``q``, and the
helpers work row by row on it.  The cached coefficient workspaces serve
every gene of an array.

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
from .errors import (DomainError, InvalidParameterError, SeriesDivergenceError,
                     SeriesNonConvergenceError)

_NEG_INF = float("-inf")


# The truncation policy of every sum, two constants read at each call.

#: bound on the neglected tail of every summation index, relative to the
#: total; also the agreement required between the sums on the truncation
#: box and on the confirmation box
REL_TOL = 1e-10
#: cap on each summation index: a gene whose box needs a deeper index is
#: refused (the gate already refuses past 85% of it)
MAX_TERMS = 200


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

#: margin (log units) between a term and REL_TOL; a geometric tail with ratio
#: up to 0.9 sums to at most ten times its first term
TAIL_MARGIN = 2.3
#: wider margin for the gamma-lognormal noise-power axis, which decays only
#: polynomially times the noise tail weight
LN_TAIL_MARGIN = 4.6
#: the gate accepts a gene when every depth lies within this share of the cap
GATE_DEPTH_FRACTION = 0.85


def _depth(log_terms, log_limit):
    """Per row of a genes x terms array: the first index past which every
    term is at most the row's log_limit (at least 1).

    log_limit is one value or one per row.  Terms past an exact cutoff are
    -inf.  The depth equals the row length when its last term is still above
    the limit: it then lies past them.
    """
    above = ~(log_terms <= np.asarray(log_limit, dtype=float)[..., None])
    last = log_terms.shape[-1] - np.argmax(above[..., ::-1], axis=-1)
    return np.where(above.any(axis=-1), last, 1)


def _grow(box):
    """The confirmation box: every index one eighth deeper (at least one)."""
    return tuple(n + max(1, n // 8) for n in box)


def _box_tuple(box):
    return tuple(int(n) for n in box)


def _rising_terms(table: _CoefTable, log_r, n):
    """log |C(q+k-1, k) r^k| relative to the axis value (1+r)^(-q), k < n,
    one row per entry of the log_r array."""
    log_r = np.asarray(log_r, dtype=float)
    return (table.get(n)[0] + _geometric_logs(n, log_r)
            + table.arg * np.logaddexp(0.0, log_r)[..., None])


def _falling_terms(table: _CoefTable, log_r, n):
    """log |C(v-1, l) r^l| relative to the axis value (1-r)^(v-1), l < n,
    one row per entry of the log_r array.

    Past the expansion radius (r >= 1) the value gives no scale, and the raw
    magnitudes are returned; they then grow unless v is an integer.
    """
    log_r = np.asarray(log_r, dtype=float)
    with np.errstate(divide="ignore"):
        axis = table.arg * np.log1p(-np.exp(np.minimum(log_r, 0.0)))
    return (table.get(n)[0] + _geometric_logs(n, log_r)
            - np.where(log_r < 0.0, axis, 0.0)[..., None])


def _gb_log_ratios(g: GBParams, log_x):
    """log of the falling-axis ratio (1-c)x and the rising-axis ratio cx."""
    return ((math.log1p(-g.c) if g.c < 1 else _NEG_INF) + log_x,
            (math.log(g.c) if g.c > 0 else _NEG_INF) + log_x)


def _max_convolve(a, b):
    """out[g, i] = max over j + k = i of a[g, j] + b[g, k], row by row
    (log-magnitude convolution)."""
    out = np.full((a.shape[0], a.shape[1] + b.shape[1] - 1), _NEG_INF)
    for j in range(a.shape[1]):
        part = out[:, j:j + b.shape[1]]
        np.maximum(part, a[:, j:j + 1] + b, out=part)
    return out


#: first number of exp-lognormal terms the gate scans; it doubles until the
#: scan has passed the gene's peak and tail
_LN_SCAN_START = 32


def _exp_lognormal_boxes(q, e: ExpParams | None, l: LognormalParams):
    """Positive terms: the tail is judged against the largest one.

    log_ndtr is concave with slope above -x, so the ratio of terms k + 1 and
    k is at most theta p exp(sigma^2/2)/(k + 1): past k + 1 > theta p
    exp(sigma^2/2) the terms fall.  A scan of n terms that ends past that
    point and on a term below the limit therefore holds the largest term
    and every term above the limit, and gives the depth of the full scan.
    """
    theta = 0.0 if e is None else e.theta
    log_p = np.log(q)[:, None]
    falling = theta * q[0] * math.exp(0.5 * l.sigma ** 2)
    cap = MAX_TERMS + 1
    boxes = []
    for shift in (0, 1):
        n = _LN_SCAN_START
        while True:
            n = min(n, cap)
            lt = _lognormal_weight_terms(log_p, theta, l, shift, n)
            limit = np.max(lt, axis=1) + math.log(REL_TOL) - TAIL_MARGIN
            if n == cap or (falling < n - 1 and lt[0, -1] <= limit[0]):
                break
            n *= 2
        boxes.append(_depth(lt, limit)[:, None])
    return tuple(boxes)


def _gamma_lognormal_boxes(q, g: GammaParams, l: LognormalParams):
    n = MAX_TERMS + 1
    limit = math.log(REL_TOL) - LN_TAIL_MARGIN
    log_p = np.log(q)[:, None]
    k = np.arange(n, dtype=float)
    # binomial axis: term magnitude with n = 0 against the leading term,
    # allowing for the exp(b/beta) factor (bounded by exp(p/beta)) that the
    # cross terms carry
    lead = _sp.log_ndtr((log_p - l.mu) / l.sigma)
    common = (-k * log_p + k * (l.mu + 0.5 * k * l.sigma ** 2)
              + _sp.log_ndtr((log_p - (l.mu + k * l.sigma ** 2)) / l.sigma)
              + q[:, None] / g.beta - lead)
    # factorial axis: sum_n (b/beta)^n / n! against exp(b/beta) leaves at most
    # the Poisson(p/beta) upper tail
    with np.errstate(divide="ignore"):
        tail = np.log(_sp.pdtrc(k - 1.0, q[:, None] / g.beta))
    tail[:, 0] = 0.0
    depth = _depth(tail, limit)
    return tuple(np.stack([_depth(specfun.gen_binomial_log_array(g.alpha - 1.0 + top, n)[0]
                                  + common, limit), depth], axis=1)
                 for top in (0, 1))


def _gb_pair_boxes(q, s: GBParams, b: GBParams):
    # the beta-grid factor decreases along every index, so each axis is
    # judged by its own terms; the num kernel's offsets change no index
    n = MAX_TERMS + 1
    limit = math.log(REL_TOL) - TAIL_MARGIN
    ws = _gb_pair_workspace(s, b, 0)
    fall1, rise1 = _gb_log_ratios(s, s.a * (np.log(q) - math.log(s.d)))
    fall2, rise2 = _gb_log_ratios(b, b.a * (np.log(q) - math.log(b.d)))
    box = np.stack([_depth(_falling_terms(ws.fall1, fall1, n), limit),
                    _depth(_falling_terms(ws.fall2, fall2, n), limit),
                    _depth(_rising_terms(ws.rise1, rise1, n), limit),
                    _depth(_rising_terms(ws.rise2, rise2, n), limit)], axis=1)
    return box, box


def _gb_normal_boxes(q, s: GBParams, b: NormalParams):
    n = MAX_TERMS + 1
    limit = math.log(REL_TOL) - TAIL_MARGIN
    pm = q - b.mu
    fall, rise = _gb_log_ratios(s, s.a * (np.log(pm) - math.log(s.d)))
    lv = _moment_logs(pm, b, n)[0]
    top = np.max(lv, axis=1)
    with np.errstate(under="ignore"):
        ev = np.exp(lv - top[:, None])
    ws = _gb_normal_workspace(s, 0)
    fall_terms = _falling_terms(ws.fall, fall, n)
    rise_terms = _rising_terms(ws.rise, rise, n)
    boxes = []
    for off in (0, 1):
        ws = _gb_normal_workspace(s, off)
        # row i = l + m carries the moment sum over n, which grows with i;
        # the sum of its term magnitudes stands for it (one matrix-vector
        # product per gene)
        logs, scaled, peak = ws.log_grid(n, n)
        with np.errstate(divide="ignore"):
            row = np.log(np.matmul(scaled, ev[:, :, None])[:, :, 0]) + peak + top[:, None]
        growth = row - row[:, :1]
        L = _depth(fall_terms + growth, limit)
        M = _depth(rise_terms + growth, limit)
        N = np.full(q.shape, n)
        if max(L[0], M[0]) < n:
            N = _gb_normal_moment_depth(ws, fall_terms[:, :L[0]], rise_terms[:, :M[0]],
                                        lv, row[:, 0] + limit)
        boxes.append(np.stack([L, M, N], axis=1))
    return tuple(boxes)


def _gb_normal_moment_depth(ws, fall_terms, rise_terms, lv, log_limit):
    """Moment-axis depth of the gene: each (l, m) row of its box, weighted
    by its axis terms (fall_terms and rise_terms on the box), bounds the
    moment column."""
    weight = _max_convolve(fall_terms, rise_terms)
    logs = ws.log_grid(weight.shape[1], lv.shape[1])[0]
    return _depth(np.max(weight[:, :, None] + logs, axis=1) + lv, log_limit)


def _boxes(kind, p, signal, noise):
    """(den box, num box) of a series family at one observation p, as tuples."""
    return tuple(_box_tuple(box[0]) for box in
                 _FAMILIES[kind].boxes(np.array([float(p)]), signal, noise))


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

    Each entry is accumulated over a's index in increasing order, whatever
    the shapes, so a row's bits do not depend on the other rows.
    """
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for k in range(a.shape[1]):
        out[:, k:k + b.shape[1]] += a[:, k:k + 1] * b
    return out


def _contract_rows(x, mat):
    """out[g, i] = sum over j of mat[i, j] * x[g, j], added in order of j.

    Elementwise, not a matrix product: a row's bits do not depend on the
    other rows, and zero entries of x add nothing.
    """
    cols = np.ascontiguousarray(mat.T)
    out = np.zeros((x.shape[0], mat.shape[0]))
    term = np.empty_like(out)
    for j in range(x.shape[1]):
        np.multiply(x[:, j:j + 1], cols[j], out=term)
        out += term
    return out


def _sum_last(x):
    """Sum over the last axis, added in order of its index (as _contract_rows)."""
    out = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        out += x[..., j]
    return out


def _row_fsums(rows):
    """math.fsum of each gene's row of a genes x terms array."""
    return np.array([math.fsum(r) for r in rows.tolist()])


def _box_sums(rows, vectors, box):
    """The gene's sums of rows(vectors) on its box and on its grown box.

    vectors hold one 1 x terms array per summation index, scaled over the
    grown box; the sum on the box reads the leading entries of each.
    """
    base = _row_fsums(rows([v[:, :n] for v, n in zip(vectors, box)]))
    return base[0], _row_fsums(rows(vectors))[0]


def _label(family, off):
    """The name of a family's den (off 0) or num (off 1) evaluator, less
    "_series": the prefix of its error messages."""
    return f"{family.label}_{('den', 'num')[off]}"


def _sum(family, q, signal, noise, off, box) -> SeriesValue:
    """The family's kernel (off 0: den, 1: num) at the gene q on its box,
    confirmed on the grown box.

    Raises when a depth lies past the cap, when the sum overflows, and when
    the confirmation box moves the sum by REL_TOL or more.
    """
    label = _label(family, off)
    if max(box) > MAX_TERMS:
        raise SeriesNonConvergenceError(
            f"{label}: truncation depths {box} lie past the cap ({MAX_TERMS})")
    base, wide, scale = (float(x) for x in family.kernel(q, signal, noise, off, box))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_abs = float(scale + np.log(abs(wide)))
    sign = float(np.sign(wide))
    if not (math.isfinite(base) and math.isfinite(wide) and log_abs <= 690.0):
        raise SeriesDivergenceError(
            f"{label}: partial sums overflowing; expansion outside its "
            f"convergence region")
    if not (abs(wide - base) < REL_TOL * abs(wide) or wide == base == 0.0):
        moved = abs(wide - base) / max(abs(wide), 1e-300)
        raise SeriesNonConvergenceError(
            f"{label}: confirmation box {_grow(box)} moved the sum by "
            f"{moved:.2e} relative", partial=SeriesValue(log_abs, sign, box, False))
    return SeriesValue(log_abs, sign, box, True)


def _evaluate(kind, p, signal, noise, off) -> SeriesValue:
    """The family's kernel on one gene and its own box (off 0: den, 1: num).

    Raises outside the family's domain, and as ``_sum`` does.
    """
    family = _FAMILIES[kind]
    p = float(p)
    refusal = family.domain(p, signal, noise, _label(family, off))
    if refusal:
        raise DomainError(refusal)
    return _sum(family, np.array([p]), signal, noise, off, _boxes(kind, p, signal, noise)[off])


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

    def lbeta_grid_exp(self, imax, jmax):
        """exp(lbeta grid - gmax) cached; returns (slice, gmax).

        The grid grows to the largest request so far, and the genes of an
        array reuse it.
        """
        g = self._grid
        if g.shape[0] < imax or g.shape[1] < jmax:
            ni = max(imax, g.shape[0], 16)
            nj = max(jmax, g.shape[1], 16)
            s, b = self.s, self.b
            g = specfun.log_beta((s.a * (s.u + np.arange(ni)) + self.off)[:, None],
                                 b.a * (b.u + np.arange(nj)))
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

    @staticmethod
    def block_size(imax, nmax):
        """Side of the block binom_grid_exp serves an imax x nmax request from."""
        return max(16, 1 << (max(int(imax), int(nmax)) - 1).bit_length())

    def binom_grid_exp(self, imax, nmax):
        """(signs * exp(log grid - gmax), gmax) over the leading imax x nmax block.

        The request is served from the smallest square power-of-two block
        (at least 16) that holds it, scaled by that block's largest entry.
        The result therefore depends only on the request, not on how far
        earlier genes grew the grid, and no entry overflows.
        """
        size = self.block_size(imax, nmax)
        hit = self._blocks.get(size)
        if hit is None:
            logs, signs = self._rows(np.arange(size), size)
            live = logs[signs != 0]
            gmax = float(np.max(live)) if live.size else 0.0
            with np.errstate(under="ignore"):
                hit = self._blocks[size] = (signs * np.exp(logs - gmax), gmax)
        return hit[0][:imax, :nmax], hit[1]


def _moment_logs(pm, b: NormalParams, n):
    """(log |t^k I_k|, sign I_k), k < n, one row per entry of the array pm:
    t = sigma/(p - mu) times the Gaussian moments I_k over
    [-(p - mu)/sigma, mu/sigma].  A row does not depend on n past its length
    nor on the other rows."""
    table = specfun.gaussian_moment_table(n, -pm / b.sigma, b.mu / b.sigma)
    with np.errstate(divide="ignore"):
        logs = (np.arange(n) * (math.log(b.sigma) - np.log(pm))[:, None]
                + np.log(np.abs(table)))
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


def _exp_lognormal_kernel(q, e: ExpParams | None, l: LognormalParams, shift, box):
    theta = 0.0 if e is None else e.theta
    logs = _lognormal_weight_terms(np.log(q)[:, None], theta, l, shift, _grow(box)[0])
    terms, scale = _scaled_rows(logs, 1.0)
    return (*_box_sums(lambda vectors: vectors[0], (terms,), box), scale[0])


def _positive_domain(p, signal, noise, label):
    return f"{label} requires p > 0, got {p}" if p <= 0 else None


def _exp_lognormal_log_prefactor(e: ExpParams, l: LognormalParams, p):
    return math.log(e.theta) - e.theta * p


def _exp_lognormal_value(p, lnum, lden, e: ExpParams, l: LognormalParams):
    return p - np.exp(l.mu + 0.5 * l.sigma ** 2 + lnum - lden)


def exp_lognormal_den_series(p, e: ExpParams, l: LognormalParams) -> SeriesValue:
    """Marginal kernel of the exponential-signal, lognormal-noise model."""
    return _evaluate("exp_lognormal", p, e, l, 0)


def exp_lognormal_num_series(p, e: ExpParams, l: LognormalParams) -> SeriesValue:
    """Posterior-numerator kernel of the same model (noise conditional mean)."""
    return _evaluate("exp_lognormal", p, e, l, 1)


# ---------------------------------------------------------------------------
# Gamma-lognormal pair (two indices)
# ---------------------------------------------------------------------------

def _gamma_lognormal_kernel(q, g: GammaParams, l: LognormalParams, top, box):
    """top = 0 uses C(alpha-1, k) (marginal), 1 uses C(alpha, k).

    The (k, n) term grid is summed over n in order of n, then its k-rows
    with math.fsum.
    """
    K, N = _grow(box)
    blogs, bsigns = specfun.gen_binomial_log_array(g.alpha - 1.0 + top, K)
    kk = np.arange(K, dtype=float)
    nn = np.arange(N, dtype=float)
    t = np.arange(K + N - 1, dtype=float)
    sk = (bsigns * np.where(kk % 2 == 0, 1.0, -1.0))[:, None]
    bn = -_sp.gammaln(nn + 1.0) - nn * math.log(g.beta)
    log_p = np.log(q)[:, None]
    E = (t * (l.mu + 0.5 * t * l.sigma ** 2)
         + _sp.log_ndtr((log_p - (l.mu + t * l.sigma ** 2)) / l.sigma))
    te = (blogs - kk * log_p)[:, :, None] + bn + E[:, np.arange(K)[:, None] + np.arange(N)]
    grid, scale = _scaled_rows(te, sk)
    base = _row_fsums(_sum_last(grid[:, :box[0], :box[1]]))
    return base[0], _row_fsums(_sum_last(grid))[0], scale[0]


def _gamma_lognormal_log_prefactor(g: GammaParams, l: LognormalParams, p):
    return ((g.alpha - 1.0) * np.log(p) - p / g.beta
            - g.alpha * math.log(g.beta) - _sp.gammaln(g.alpha))


def _ratio_value(p, lnum, lden, signal, noise):
    return p * np.exp(lnum - lden)


def gamma_lognormal_den_series(p, g: GammaParams, l: LognormalParams) -> SeriesValue:
    """Marginal kernel of the gamma-signal, lognormal-noise model."""
    return _evaluate("gamma_lognormal", p, g, l, 0)


def gamma_lognormal_num_series(p, g: GammaParams, l: LognormalParams) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = p * num/den."""
    return _evaluate("gamma_lognormal", p, g, l, 1)


# ---------------------------------------------------------------------------
# GB + GB quadruple series
# ---------------------------------------------------------------------------

def _gb_axis_arrays(table, n, log_ratio):
    """Signed, geometric-folded coefficient arrays for one GB expansion axis,
    one row per entry of the log_ratio array."""
    blogs, bsigns = table.get(n)
    return (blogs + _geometric_logs(n, log_ratio),
            bsigns * np.where(np.arange(n) % 2 == 0, 1.0, -1.0))


def _gb_pair_kernel(q, s: GBParams, b: GBParams, off, box):
    """The l, m, n and r axis vectors are built and scaled on the grown box
    (L, M, N, R), and contracted through the scaled beta grid."""
    ws = _gb_pair_workspace(s, b, off)
    lg1, lg3 = _gb_log_ratios(s, s.a * (np.log(q) - math.log(s.d)))
    lg2, lg4 = _gb_log_ratios(b, b.a * (np.log(q) - math.log(b.d)))
    L, M, N, R = _grow(box)
    v1, m1 = _scaled_rows(*_gb_axis_arrays(ws.fall1, L, lg1))
    v3, m3 = _scaled_rows(*_gb_axis_arrays(ws.rise1, N, lg3))
    v2, m2 = _scaled_rows(*_gb_axis_arrays(ws.fall2, M, lg2))
    v4, m4 = _scaled_rows(*_gb_axis_arrays(ws.rise2, R, lg4))
    E, gmax = ws.lbeta_grid_exp(L + N - 1, M + R - 1)

    def rows(vectors):
        v1, v2, v3, v4 = vectors
        conv13, conv24 = _convolve_rows(v1, v3), _convolve_rows(v2, v4)
        return conv13 * _contract_rows(conv24, E[:conv13.shape[1], :conv24.shape[1]])

    return (*_box_sums(rows, (v1, v2, v3, v4), box), (m1 + m3 + m2 + m4 + gmax)[0])


def _gb_pair_log_prefactor(s: GBParams, b: GBParams, p):
    return (math.log(s.a) + math.log(b.a)
            - s.a * s.u * math.log(s.d) - b.a * b.u * math.log(b.d)
            - specfun.log_beta(s.u, s.v) - specfun.log_beta(b.u, b.v)
            + (s.a * s.u + b.a * b.u - 1.0) * np.log(p))


def _gb_pair_domain(p, s: GBParams, b: GBParams, label):
    upper = gb_support_upper(s) + gb_support_upper(b)
    if not 0 < p < upper:
        return f"{label}: p={p} outside the convolution support (0, {upper})"
    return None


def gb_pair_den_series(p, s: GBParams, b: GBParams) -> SeriesValue:
    """Marginal kernel of the GB-signal, GB-noise convolution."""
    return _evaluate("gb_gb", p, s, b, 0)


def gb_pair_num_series(p, s: GBParams, b: GBParams) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = p * num/den."""
    return _evaluate("gb_gb", p, s, b, 1)


# ---------------------------------------------------------------------------
# GB + normal triple series
# ---------------------------------------------------------------------------

def _gb_normal_kernel(q, s: GBParams, b: NormalParams, off, box):
    """The l and m axis vectors and the moment column t^n I_n are built and
    scaled on the grown box (L, M, N), and contracted through the binomial
    grid block served for it."""
    ws = _gb_normal_workspace(s, off)
    lg1, lg2 = _gb_log_ratios(s, s.a * (np.log(q - b.mu) - math.log(s.d)))
    L, M, N = _grow(box)
    v1, m1 = _scaled_rows(*_gb_axis_arrays(ws.fall, L, lg1))
    v2, m2 = _scaled_rows(*_gb_axis_arrays(ws.rise, M, lg2))
    vn, mv = _scaled_rows(*_moment_logs(q - b.mu, b, N))
    grid, gmax = ws.binom_grid_exp(L + M - 1, N)

    def rows(vectors):
        v1, v2, vn = vectors
        conv12 = _convolve_rows(v1, v2)
        return conv12 * _contract_rows(vn, grid[:conv12.shape[1], :vn.shape[1]])

    return (*_box_sums(rows, (v1, v2, vn), box), (m1 + m2 + mv + gmax)[0])


def _gb_normal_log_prefactor(s: GBParams, b: NormalParams, p):
    return (math.log(s.a) - s.a * s.u * math.log(s.d) - specfun.log_beta(s.u, s.v)
            - 0.5 * math.log(2.0 * math.pi) + (s.a * s.u - 1.0) * np.log(p - b.mu))


def _gb_normal_domain(p, s: GBParams, b: NormalParams, label):
    if p <= b.mu:
        return f"{label}: series formulation requires p > noise mu, got p={p}, mu={b.mu}"
    return None


def _gb_normal_value(p, lnum, lden, s: GBParams, b: NormalParams):
    return (p - b.mu) * np.exp(lnum - lden)


def gb_normal_den_series(p, s: GBParams, b: NormalParams) -> SeriesValue:
    """Marginal kernel of the GB-signal, normal-noise convolution."""
    return _evaluate("gb_normal", p, s, b, 0)


def gb_normal_num_series(p, s: GBParams, b: NormalParams) -> SeriesValue:
    """Posterior-numerator kernel; corrected intensity = (p - mu) * num/den."""
    return _evaluate("gb_normal", p, s, b, 1)


# ---------------------------------------------------------------------------
# Convergence region ("safe range")
# ---------------------------------------------------------------------------

#: geometric-ratio ceiling for the GB binomial expansions; 0.8^MAX_TERMS
#: (4e-20 at 200 terms) leaves ample headroom below REL_TOL (1e-10)
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


def _gb_in_region(g: GBParams, q):
    """Ratio and cancellation checks of a GB expansion at the gene q > 0."""
    lx = g.a * (np.log(q) - math.log(g.d))
    finite = lx < 700
    with np.errstate(over="ignore"):
        x = np.exp(np.minimum(lx, 700.0))
    cx = np.where(finite, g.c * x, np.inf)
    ox = np.where(finite, (1.0 - g.c) * x, np.inf)
    # alternating-sum cancellation: sum |terms| / |sum| per expansion axis
    # (past the ratio ceiling the logs are NaN, and the gene is refused)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = (np.where(cx > 0, (g.u + g.v) * (np.log1p(cx) - np.log1p(-cx)), 0.0)
                  + np.where(ox > 0, max(g.v - 1.0, 0.0)
                             * (np.log1p(ox) - np.log1p(-ox)), 0.0))
    return bool(((np.maximum(cx, ox) <= GB_RATIO_MAX) & (spread <= GB_SPREAD_LOG_MAX))[0])


def _gb_normal_in_region(s: GBParams, b: NormalParams, q):
    p = float(q[0])
    return (b.mu > 0 and p > b.mu and b.mu / (p - b.mu) <= GBN_ENDPOINT_RATIO_MAX
            and (p - b.mu) / b.sigma >= GBN_SIGMA_SEP_MIN and _gb_in_region(s, q))


# ---------------------------------------------------------------------------
# Family registry and marginal densities assembled from the series
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    #: prefix of the per-gene evaluators' names and of their error messages
    label: str
    #: (p, signal, noise, label) -> the evaluators' DomainError message, or
    #: None inside the domain
    domain: Callable
    #: (signal, noise, gene q with p > 0) -> the gate's other checks, a bool
    in_region: Callable
    #: (gene q, signal, noise) -> (den box, num box), 1 x indices int arrays
    boxes: Callable
    #: (gene q, signal, noise, off, box) -> (sum on the box, sum on the
    #: grown box, log scale of both); off 0 is den, 1 is num
    kernel: Callable
    #: (signal, noise, p) -> log marginal density minus log den sum
    log_prefactor: Callable
    #: (p, log num sum, log den sum, signal, noise) -> the corrected value
    value: Callable


_FAMILIES = {
    "exp_lognormal": _Family("exp_lognormal", _positive_domain,
                             lambda e, l, q: l.sigma <= LN_SIGMA_MAX,
                             _exp_lognormal_boxes, _exp_lognormal_kernel,
                             _exp_lognormal_log_prefactor, _exp_lognormal_value),
    "gamma_lognormal": _Family("gamma_lognormal", _positive_domain,
                               lambda g, l, q: bool(((np.log(q) - l.mu) / l.sigma)[0]
                                                    >= LN_TAIL_Z_MIN),
                               _gamma_lognormal_boxes, _gamma_lognormal_kernel,
                               _gamma_lognormal_log_prefactor, _ratio_value),
    "gb_gb": _Family("gb_pair", _gb_pair_domain,
                     lambda s, b, q: _gb_in_region(s, q) and _gb_in_region(b, q),
                     _gb_pair_boxes, _gb_pair_kernel, _gb_pair_log_prefactor,
                     _ratio_value),
    "gb_normal": _Family("gb_normal", _gb_normal_domain, _gb_normal_in_region,
                         _gb_normal_boxes, _gb_normal_kernel, _gb_normal_log_prefactor,
                         _gb_normal_value),
}


def _family(kind):
    family = _FAMILIES.get(kind)
    if family is None:
        raise InvalidParameterError(f"model kind {kind!r} has no series")
    return family


def _marginal_log(kind, p, signal, noise):
    family = _FAMILIES[kind]
    den = _evaluate(kind, p, signal, noise, 0)
    if den.sign <= 0:
        raise SeriesDivergenceError(
            f"{family.label}_den series converged to a nonpositive value; "
            f"cancellation has destroyed the result")
    return float(family.log_prefactor(signal, noise, p)) + den.log_abs


def marginal_gb_log(p, s: GBParams, b: GBParams):
    return _marginal_log("gb_gb", p, s, b)


def marginal_gb(p, s: GBParams, b: GBParams) -> float:
    """Series marginal density of P = S + B with GB signal and GB noise."""
    return math.exp(marginal_gb_log(p, s, b))


def marginal_gb_normal_log(p, s: GBParams, b: NormalParams):
    return _marginal_log("gb_normal", p, s, b)


def marginal_gb_normal(p, s: GBParams, b: NormalParams) -> float:
    """Series marginal density of P = S + B with GB signal and normal noise."""
    return math.exp(marginal_gb_normal_log(p, s, b))


# ---------------------------------------------------------------------------
# The convergence gate and the series corrector
# ---------------------------------------------------------------------------

def _gate(m: ModelSpec, p):
    """(den box, num box) of model m at the observation p when the
    convergence gate accepts the gene, else None.

    The ratio, cancellation and tail checks, p > 0 among them, run first;
    a gene they keep is accepted when every depth of both boxes lies within
    85% of the index cap.
    """
    family = _family(m.kind)
    p = float(p)
    if not (p > 0 and family.in_region(m.signal, m.noise, np.array([p]))):
        return None
    boxes = _boxes(m.kind, p, m.signal, m.noise)
    return boxes if max(map(max, boxes)) <= int(GATE_DEPTH_FRACTION * MAX_TERMS) else None


def convergence_ok(m: ModelSpec, p) -> bool:
    """True when the series expansions for model m converge at observation p
    within the truncation policy (``REL_TOL``, ``MAX_TERMS``).

    Beyond the ratio and cancellation checks, every truncation depth of the
    den and num kernels must lie within 85% of the index cap; these are the
    boxes the evaluators then sum on.  Outside this region the series
    evaluators may raise and callers must use the quadrature path.
    """
    return _gate(m, p) is not None


def posterior_mean(m: ModelSpec, p) -> float:
    """E[S | P = p] of one gene from model m's den and num series.

    In order: the convergence gate (``convergence_ok``), the den and num
    kernels on the gate's boxes, the cancellation check (either sum's sign
    at most 0) and the value formula, which must fall in (0, p).  Raises a
    SeriesError naming the step that refuses the gene; the caller then
    takes quadrature.
    """
    boxes = _gate(m, p)
    if boxes is None:
        raise SeriesDivergenceError("outside series convergence region")
    family, p = _FAMILIES[m.kind], float(p)
    q = np.array([p])
    den = _sum(family, q, m.signal, m.noise, 0, boxes[0])
    num = _sum(family, q, m.signal, m.noise, 1, boxes[1])
    if den.sign <= 0 or num.sign <= 0:
        raise SeriesDivergenceError("series cancellation")
    with np.errstate(over="ignore"):
        value = float(family.value(p, num.log_abs, den.log_abs, m.signal, m.noise))
    if not 0.0 < value < p:
        raise SeriesDivergenceError("series value escaped (0, p)")
    return value
