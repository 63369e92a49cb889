"""Batched tanh-sinh quadrature of the convolution integrals.

For the genes p of one model this integrates s^k f_S(s) f_B(p - s) over the
signal s with the double-exponential rule of Takahasi & Mori (1974).  On a
piece [a, b] the substitution s = a + (b - a) / (1 + exp(-pi sinh t)) makes
the integrand decay double exponentially in t, so the trapezoidal rule in t
converges geometrically in 1/h and tolerates integrable singularities at the
ends of a piece.

* Every gene is evaluated as one row of a genes x nodes array over
  ``dists.dist_logpdf``, scaled by the gene's own largest log integrand, and
  accumulated piece by piece.
* Each gene gets its own pieces, from the integrand's structure.  Positive
  noise: the support (max(0, p - noise upper), min(p, signal upper)), split
  for lognormal noise at p - exp(mu).  Normal noise: the noise window
  p - mu +- 12 sigma, extended up to 64 s0, where s0 = sigma^2/(|c'| + sigma)
  is the scale on which the integrand varies near s = 0.  A gamma (or
  exponential) signal adds the analytic mode of the integrand +- 12 widths
  and, at shape <= 1, a ladder of knots s0 * 8^j; another signal splits the
  window at its centre.  The half-step estimate below cannot see mass that
  no piece samples, so pieces come from this structure and never from a
  scan.
* A gamma signal of shape alpha < 1 has an s^(alpha - 1) singularity at 0.
  On the first piece [0, b] the rule integrates over v = (s/b)^alpha, where
  that power and the Jacobian cancel exactly and the integrand is smooth.
* The nodes of step h = 2^-j (j = 0..5, |t| <= 3.2) are nested.  A gene's
  value is the sum at the first level j >= 2 whose change from level j - 1
  is within ``rel_tol`` of it, for every requested moment; genes that reach
  no such level are reported, and callers hand them to per-gene QUADPACK.

A gene's result depends only on its own p: rows never mix, and padding
pieces add exact zeros.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .dists import (ExpParams, GammaParams, LognormalParams, ModelSpec,
                    NormalParams, dist_logpdf, dist_support)

_H = 1.0 / 32.0      # finest step in t
_T_MAX = 3.2         # nodes at |t| <= _T_MAX
_LEVELS = 6          # steps 1, 1/2, ..., 1/32; each level's nodes hold the last's
_FIRST_LEVEL = 2     # first level whose half-step change may accept a gene
_WIDTHS = 12.0       # half-width of the noise window and of the mode piece
_LADDER = 8.0        # ratio of successive ladder knots
_TOP = 64.0          # the integration ends no lower than _TOP * s0


def _node_table():
    """Nodes ordered by the level where they first appear.

    Returns the fraction dl = (s - a)/(b - a) of every node, its complement
    dr = (b - s)/(b - a), log dl, the log weight (per unit interval and unit
    step), the right-half mask and the index where each level's nodes start.
    """
    n = int(round(_T_MAX / _H))
    k = np.arange(-n, n + 1)
    finest = 2 ** (_LEVELS - 1)
    level = np.array([min(j for j in range(_LEVELS) if ki % (finest >> j) == 0)
                      for ki in k])
    order = np.lexsort((k, level))
    t = k[order] * _H
    u2 = math.pi * np.sinh(t)               # twice the tanh argument
    dl = 1.0 / (1.0 + np.exp(-u2))
    dr = 1.0 / (1.0 + np.exp(u2))
    log_w = np.log(math.pi * np.cosh(t) * dl * dr)
    starts = np.searchsorted(level[order], np.arange(_LEVELS))
    return dl, dr, -np.log1p(np.exp(-u2)), log_w, t > 0.0, starts


_DL, _DR, _LOG_DL, _LOG_W, _RIGHT, _STARTS = _node_table()
_STEPS = 0.5 ** np.arange(_LEVELS)


def _gamma_shape(signal):
    """(shape, scale) of a gamma or exponential signal; None for others."""
    if isinstance(signal, GammaParams):
        return signal.alpha, signal.beta
    if isinstance(signal, ExpParams):
        return 1.0, 1.0 / signal.theta
    return None


def _breakpoints(p, m: ModelSpec):
    """Sorted knots of every gene, one row each; NaN pads the shorter rows.

    Consecutive knots bound the pieces; the first knot is the lower end of
    the integral and the last finite one its upper end.
    """
    s_hi = dist_support(m.signal)[1]
    noise = m.noise
    if not isinstance(noise, NormalParams):
        lo = np.maximum(0.0, p - dist_support(noise)[1])
        hi = np.minimum(p, s_hi)
        knots = [np.where(hi > lo, hi, np.nan)]
        if isinstance(noise, LognormalParams):
            # the noise peak, at a piece end where the nodes crowd
            mid = p - math.exp(noise.mu)
            knots.append(np.where((mid > lo) & (mid < hi), mid, np.nan))
        return np.column_stack([lo, np.sort(np.column_stack(knots), axis=1)])
    sig, sig2 = noise.sigma, noise.sigma ** 2
    c = p - noise.mu
    shape = _gamma_shape(m.signal)
    # the drift of the log integrand at s = 0+ is c'/sigma^2
    cp = c - sig2 / shape[1] if shape else c
    s0 = sig2 / (np.abs(cp) + sig)
    knots = [c - _WIDTHS * sig, np.maximum(c + _WIDTHS * sig, _TOP * s0)]
    if not shape:
        knots.append(c)
    else:
        sh1 = shape[0] - 1.0
        disc = cp * cp + 4.0 * sh1 * sig2
        root = np.sqrt(np.maximum(disc, 0.0))
        # the larger root of s^2 - c's - (shape - 1) sigma^2 = 0, in the
        # cancellation-free form where c' < 0
        mode = np.where(cp >= 0.0, 0.5 * (cp + root),
                        2.0 * sh1 * sig2 / (root - np.minimum(cp, 0.0)))
        mode = np.where((disc >= 0.0) & (mode > 0.0), mode, np.nan)
        curv = sh1 / mode ** 2 + 1.0 / sig2
        width = np.where(curv > 0.0, 1.0 / np.sqrt(np.abs(curv)), sig)
        knots += [mode - _WIDTHS * width, mode, mode + _WIDTHS * width]
        if shape[0] <= 1.0:
            # knots s0 * 8^j up to the first knot above s0
            above = np.column_stack(knots)
            nxt = np.nanmin(np.where(above > s0[:, None], above, np.nan), axis=1)
            rungs = np.ceil(np.log(nxt / s0) / math.log(_LADDER))
            j = np.arange(int(rungs.max()))
            knots.append(np.where(j < rungs[:, None], s0[:, None] * _LADDER ** j, np.nan))
    bp = np.column_stack(knots)
    upper = np.minimum(np.nanmax(bp, axis=1), s_hi)
    bp = np.where((bp > 0.0) & (bp < upper[:, None]), bp, np.nan)
    return np.column_stack([np.zeros_like(p),
                            np.sort(np.column_stack([bp, upper]), axis=1)])


def _piece_logs(p, m, a, b, power):
    """(log integrand + log weight, s) at every node of the pieces [a, b].

    power < 1 is the shape of a gamma signal on a first piece starting at 0,
    integrated over v = (s/b)^power.  Empty pieces read -inf.
    """
    width = b - a
    lwidth = np.log(width)[:, None]
    if power is None:
        s = a[:, None] + width[:, None] * _DL
        right = width[:, None] * _DR
        lsig = dist_logpdf(m.signal, s) + lwidth
    else:
        # s = b v^(1/power): the density's s^(power - 1) and the Jacobian
        # (b/power) v^(1/power - 1) multiply to b^power / power
        e = _LOG_DL / power
        s = width[:, None] * np.exp(e)
        right = width[:, None] * -np.expm1(e)
        g = m.signal
        lsig = (power * (lwidth - math.log(g.beta)) - math.log(power)
                - _sp.gammaln(power) - s / g.beta)
    y = np.where(_RIGHT, (p - b)[:, None] + right, p[:, None] - s)
    logs = lsig + dist_logpdf(m.noise, y) + _LOG_W
    # a node that rounding puts past the end of a bounded support reads NaN
    # there (GB: log1p of less than -1); the density is 0 or its weight is
    return np.where(np.isnan(logs), -np.inf, logs), s


def log_integrals(p, m: ModelSpec, moments=(0,), rel_tol=1e-8):
    """log of the integral of s^k f_S(s) f_B(p - s) ds for every gene and k.

    Returns (logs, estimate, ok): logs[i] holds moments[i] for every gene;
    estimate is each gene's relative half-step change at the level it took;
    ok is False for the genes that reached no level within rel_tol, whose
    logs the caller must replace.  Genes with an empty integration range
    read -inf and are ok.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    if n == 0:
        return np.empty((len(moments), 0)), np.empty(0), np.ones(0, dtype=bool)
    g = m.signal
    power = g.alpha if isinstance(g, GammaParams) and g.alpha < 1.0 else None
    with np.errstate(all="ignore"):
        bp = _breakpoints(p, m)
        sums = np.zeros((len(moments), n, _LEVELS))
        peak = np.full(n, -np.inf)
        nonempty = np.zeros(n, dtype=bool)
        for j in range(bp.shape[1] - 1):
            a, b = bp[:, j], bp[:, j + 1]
            live = b > a
            if not live.any():
                continue
            nonempty |= live
            a, b = np.where(live, a, 0.0), np.where(live, b, 0.0)
            logs, s = _piece_logs(p, m, a, b, power if j == 0 else None)
            new = np.maximum(peak, logs.max(axis=1))
            shift = np.where(np.isfinite(new), new, 0.0)
            sums *= np.exp(peak - shift)[:, None]
            vals = np.exp(logs - shift[:, None])
            for i, k in enumerate(moments):
                sums[i] += np.add.reduceat(vals * s ** k if k else vals,
                                           _STARTS, axis=1)
            peak = new
        levels = np.cumsum(sums, axis=2) * _STEPS
        change = np.max(np.abs(np.diff(levels, axis=2)) / np.abs(levels[:, :, 1:]),
                        axis=0)
        good = change[:, _FIRST_LEVEL - 1:] <= rel_tol
        ok = good.any(axis=1) | ~nonempty
        pick = np.where(good.any(axis=1), good.argmax(axis=1) + _FIRST_LEVEL,
                        _LEVELS - 1)
        rows = np.arange(n)
        out = np.log(levels[:, rows, pick]) + peak
        out[:, ~nonempty] = -np.inf
        return out, change[rows, pick - 1], ok
