"""Batched tanh-sinh quadrature of the convolution integrals.

For the genes p of one model this integrates f_S(s) f_B(p - s), and its
products with weight rows w(s), over the signal s with the double-exponential
rule of Takahasi & Mori (1974).  On a piece [a, b] the substitution
s = a + (b - a) / (1 + exp(-pi sinh t)) makes the integrand decay double
exponentially in t, so the trapezoidal rule in t converges geometrically in
1/h and tolerates integrable singularities at the ends of a piece.

* Every (gene, piece) pair with b > a is evaluated as one row of a
  pairs x nodes array over ``dists.dist_logpdf``, one array per block of
  genes, scaled by the gene's own largest log integrand; a gene's pieces
  are summed in order.
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
* A signal whose density behaves as s^(k - 1) at 0 with k < 1 (gamma of
  shape alpha, k = alpha; GB, k = a u) has a singularity there.  On a first
  piece [0, b] the rule integrates over v = (s/b)^k, where that power and
  the Jacobian cancel exactly and the integrand is smooth.
* The nodes of step h = 2^-j (j = 0..6, |t| <= 3.2) are nested.  A gene's
  value is the sum at the first level j >= 2 whose change from level j - 1
  is within ``rel_tol`` of it (for a posterior mean E[w(S) | P = p], of
  E[|w|]); genes that reach no such level are reported, and callers refuse
  them.  The node table is ordered by level, and the engine runs it in
  three rounds: levels 0-4 for every gene, then the nodes of level 5 (half
  of them) for the genes that have not converged by level 4, then those of
  level 6 for the genes still open.  Where no weight is negative on a
  round's nodes (the corrector's row s), the E[|w|] sums are the w f sums.

A gene's result depends only on its own p: rows never mix.

``tilt_integrals`` answers the same question for any signal over normal or
lognormal noise by a fixed Gauss-Kronrod pair in the noise's standard score
z on two panels per gene, the top one graded at s = 0 where the signal
density behaves there as s^(k - 1) with k != 1; with an exponential signal
over lognormal noise that integral is the exponential tilt of the noise.
The 49-node Kronrod rule answers, and its change from the 24-node Gauss
rule it embeds, summed from the same densities, certifies a gene; the
genes it does not certify, and the signals with k < 1 (``tilt_refusal``),
are left to the engine.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import special as _sp

from . import specfun
from .dists import (ExpParams, GammaParams, GBParams, LognormalParams,
                    ModelSpec, NormalParams, dist_logpdf, dist_support,
                    gb_log_regular)

_H = 1.0 / 64.0      # finest step in t
_T_MAX = 3.2         # nodes at |t| <= _T_MAX
_LEVELS = 7          # steps 1, 1/2, ..., 1/64; each level's nodes hold the last's
_FIRST_LEVEL = 2     # first level whose half-step change may accept a gene
_WIDTHS = 12.0       # half-width of the noise window and of the mode piece;
                     # the tilt's range below z_p
_LADDER = 8.0        # ratio of successive ladder knots
_TOP = 64.0          # the integration ends no lower than _TOP * s0
#: genes per block of the engine.  Per gene, on 2048-gene arrays of the
#: gb_normal, gamma_lognormal and gb_gb reference models, correct_array took
#: 20.0, 11.5 and 8.3 us in blocks of 128; 18.8, 10.8 and 7.6 us in blocks
#: of 256; 18.9, 10.8 and 7.4 us in blocks of 512; and 31.5, 17.6 and
#: 11.3 us in one block.  At 12,000 genes, peak RSS stayed at 62-65 MB in
#: blocks of 256 against 157-234 MB in one block.
_BLOCK = 256


def _node_table():
    """Nodes ordered by the level where they first appear.

    Returns the fraction dl = (s - a)/(b - a) of every node, its complement
    dr = (b - s)/(b - a), log dl, the log weight (per unit interval and unit
    step), the right-half mask and the index where each level's nodes start,
    closed by the number of nodes.
    """
    n = int(_T_MAX / _H)
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
    starts = np.searchsorted(level[order], np.arange(_LEVELS + 1))
    return dl, dr, -np.log1p(np.exp(-u2)), log_w, t > 0.0, starts


_DL, _DR, _LOG_DL, _LOG_W, _RIGHT, _STARTS = _node_table()
_STEPS = 0.5 ** np.arange(_LEVELS)
#: levels [lo, hi) of each round; a gene converged by the end of a round
#: skips the next
_ROUNDS = ((0, _LEVELS - 2), (_LEVELS - 2, _LEVELS - 1), (_LEVELS - 1, _LEVELS))


def _gamma_shape(signal):
    """(shape, scale) of a gamma or exponential signal; None for others."""
    if isinstance(signal, GammaParams):
        return signal.alpha, signal.beta
    if isinstance(signal, ExpParams):
        return 1.0, 1.0 / signal.theta
    return None


def _power(signal):
    """k < 1 where the signal density behaves as s^(k - 1) at 0
    (``_order``), else None."""
    k = _order(signal)
    return k if k < 1.0 else None


def _order(signal):
    """k where the signal density behaves as s^(k - 1) at 0: the shape of a
    gamma signal, 1 for an exponential one, a u for a GB one."""
    if isinstance(signal, GBParams):
        return signal.a * signal.u
    return (_gamma_shape(signal) or (1.0,))[0]


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
            span = np.log(nxt / s0)
            # in logs where the ratio overflows (p far above the noise)
            span = np.where(span < np.inf, span, np.log(nxt) - np.log(s0))
            rungs = np.ceil(span / math.log(_LADDER))
            j = np.arange(int(rungs.max()))
            knots.append(np.where(j < rungs[:, None], s0[:, None] * _LADDER ** j, np.nan))
    bp = np.column_stack(knots)
    upper = np.minimum(np.nanmax(bp, axis=1), s_hi)
    bp = np.where((bp > 0.0) & (bp < upper[:, None]), bp, np.nan)
    return np.column_stack([np.zeros_like(p),
                            np.sort(np.column_stack([bp, upper]), axis=1)])


def _piece_logs(p, m, a, b, power, nodes):
    """(log integrand + log weight, s, log s, p - s) at the nodes ``nodes``
    (a slice of the node table) of the pieces [a, b], one row per piece.

    power = k < 1 (``_power``) marks first pieces starting at 0, integrated
    over v = (s/b)^k; there s = b v^(1/k) can underflow to 0 where the
    integrand does not vanish, so log s comes in logs.  On the other pieces
    log s is None.  Empty pieces read -inf.
    """
    width = b - a
    lwidth = np.log(width)[:, None]
    log_s = None
    if power is None:
        s = a[:, None] + width[:, None] * _DL[nodes]
        right = width[:, None] * _DR[nodes]
        lsig = dist_logpdf(m.signal, s) + lwidth
    else:
        # s = b v^(1/power): the density's s^(power - 1) and the Jacobian
        # (b/power) v^(1/power - 1) multiply to b^power / power, times the
        # density's regular factor f(s)/s^(power - 1)
        e = _LOG_DL[nodes] / power
        log_s = lwidth + e
        s = width[:, None] * np.exp(e)
        right = width[:, None] * -np.expm1(e)
        g = m.signal
        if isinstance(g, GammaParams):
            lsig = (power * (lwidth - math.log(g.beta)) - math.log(power)
                    - _sp.gammaln(power) - s / g.beta)
        else:
            lsig = power * lwidth - math.log(power) + gb_log_regular(log_s, g)
    y = np.where(_RIGHT[nodes], (p - b)[:, None] + right, p[:, None] - s)
    logs = lsig + dist_logpdf(m.noise, y) + _LOG_W[nodes]
    # a node that rounding puts past the end of a bounded support reads NaN
    # there (GB: log1p of less than -1); the density is 0 or its weight is
    return np.where(np.isnan(logs), -np.inf, logs), s, log_s, y


def _sums(p, m, weights, rows, bp, power, levels, peak):
    """The sums of the levels [lo, hi) = ``levels`` over every piece of the
    genes p, each of which has a piece with b > a.

    Returns each gene's log scale, the larger of peak and its largest log
    integrand on these nodes, and, scaled by it, the sums of f, gene x
    level, and of w f, then |w| f, row x gene x level.
    """
    live = bp[:, 1:] > bp[:, :-1]
    gene, piece = np.nonzero(live)
    count = live.sum(axis=1)
    first = np.cumsum(count) - count        # each gene's first pair
    a, b = bp[gene, piece], bp[gene, piece + 1]
    lo, hi = levels
    nodes = slice(_STARTS[lo], _STARTS[hi])
    cuts = _STARTS[lo:hi] - _STARTS[lo]
    logs, s, log_s, y = _piece_logs(p[gene], m, a, b, None, nodes)
    w = np.asarray(weights(s, log_s, y)) if rows else None
    if power is not None:
        # the first pieces, where they start at 0, are integrated in
        # v = (s/b)^power: their rows again (GB + GB can start above 0)
        on = (piece == 0) & (a == 0.0)
        first_logs, s, log_s, y = _piece_logs(p[gene[on]], m, a[on], b[on], power, nodes)
        logs[on] = first_logs
        if rows:
            w = np.array(w)                 # weights may return a view of s
            w[:, on] = weights(s, log_s, y)
    top = np.maximum(peak, np.maximum.reduceat(logs.max(axis=1), first))
    shift = np.where(np.isfinite(top), top, 0.0)
    vals = np.exp(logs - shift[gene, None])
    den = np.add.reduceat(np.add.reduceat(vals, cuts, axis=1), first)
    if not rows:
        return top, den, np.zeros((0,) + den.shape)
    wf = w * vals
    part = np.add.reduceat(wf, cuts, axis=2)
    if np.isnan(part).any():
        # a weight that is not finite where the integrand underflowed:
        # those nodes add 0
        wf = np.where(vals > 0.0, wf, 0.0)
        part = np.add.reduceat(wf, cuts, axis=2)
    # |w f| = w f, bit for bit, where no value is negative (the corrector's
    # row s)
    spread = np.add.reduceat(np.abs(wf), cuts, axis=2) if np.signbit(wf).any() else part
    return top, den, np.add.reduceat(np.concatenate([part, spread]), first, axis=1)


class Integrals(NamedTuple):
    """The engine's answer for an array of genes (see ``log_integrals``)."""

    log_f: np.ndarray      # log f_P(p) per gene
    means: np.ndarray      # E[w(S) | P = p], rows x genes
    change: np.ndarray     # half-step change at the level the means took
    ok: np.ndarray         # log_f met the target
    means_ok: np.ndarray   # log_f and means met the target


def _first_level(change, rel_tol):
    """(level, found) per gene: the first level j >= _FIRST_LEVEL whose
    change from level j - 1 is within rel_tol, else the last level."""
    good = change[:, _FIRST_LEVEL - 1:] <= rel_tol
    found = good.any(axis=1)
    return np.where(found, good.argmax(axis=1) + _FIRST_LEVEL, change.shape[1]), found


def _decide(den, num, rel_tol):
    """The value, the means and their level's change, and the two flags of
    every gene, from its sums of f, w f and |w| f at the levels given."""
    rows = num.shape[0] // 2
    total = np.cumsum(den, axis=1)
    levels = total * _STEPS[:den.shape[1]]
    change = np.abs(levels[:, 1:] - levels[:, :-1]) / np.abs(levels[:, 1:])
    pick, ok = _first_level(change, rel_tol)
    genes = np.arange(den.shape[0])
    value = levels[genes, pick]
    # the means at every level, then each row's E[|w|]
    sums = np.cumsum(num, axis=2) / total
    means = sums[:rows]
    if rows:
        change = np.maximum(change, np.max(
            np.abs(means[:, :, 1:] - means[:, :, :-1]) / sums[rows:, :, 1:], axis=0))
    pick, means_ok = _first_level(change, rel_tol)
    return value, ok, means[:, genes, pick], change[genes, pick - 1], means_ok


def log_integrals(p, m: ModelSpec, weights=None, rel_tol=1e-8) -> Integrals:
    """log f_P(p) and the posterior means of weight rows for every gene.

    weights(s, log s, p - s) -> rows x genes x nodes array is evaluated on
    the nodes of every piece, with log s None except on the first piece of
    a signal with an s^(k - 1) singularity (``_power``), where s may have
    underflowed; weights None asks for log f_P alone.  A
    mean is the linear ratio sum(w f)/sum(f) over the nodes; a node whose
    integrand underflows adds 0 to both sums, whatever its weight.  log_f
    takes the first level whose half-step change is within rel_tol of it;
    the means take the first level where log_f's sum and every row's mean
    have converged, a row's change measured against its E[|w| | P = p].
    Genes that reach no such level take the last one and are reported in ok
    or means_ok, and the caller must refuse what it needs of them.  Genes
    with an empty integration range read -inf, with NaN means, and are ok.
    Genes run in blocks of ``_BLOCK``, so an array's temporaries stay the
    size of one block's.
    """
    p = np.asarray(p, dtype=float)
    # the number of weight rows, from a call on no nodes
    empty = np.empty((p.size, 0))
    rows = 0 if weights is None else len(weights(empty, empty, empty))
    power = _power(m.signal)
    return _in_blocks(lambda q: _engine_block(q, m, weights, rows, power, rel_tol),
                      p, _BLOCK)


def _engine_block(p, m: ModelSpec, weights, rows, power, rel_tol):
    """``log_integrals`` for the genes p of one block."""
    n = p.size
    with np.errstate(all="ignore"):
        bp = _breakpoints(p, m) if n else np.zeros((0, 1))
        nonempty = (bp[:, 1:] > bp[:, :-1]).any(axis=1)
        den = np.zeros((n, _LEVELS))
        # sums of w f, then of |w| f, per row
        num = np.zeros((2 * rows, n, _LEVELS))
        peak = np.full(n, -np.inf)
        todo = np.flatnonzero(nonempty)
        for lo, hi in _ROUNDS:
            if todo.size:
                top, den[todo, lo:hi], num[:, todo, lo:hi] = _sums(
                    p[todo], m, weights, rows, bp[todo], power, (lo, hi), peak[todo])
                # the earlier levels' sums move to the new scale
                scale = np.exp(peak[todo] - np.where(np.isfinite(top), top, 0.0))
                den[todo, :lo] *= scale[:, None]
                num[:, todo, :lo] *= scale[:, None]
                peak[todo] = top
            value, ok, means, change, means_ok = _decide(den[:, :hi], num[:, :, :hi], rel_tol)
            todo = todo[~means_ok[todo]]
            if not todo.size:
                break
        log_f = np.log(value) + peak
        log_f[~nonempty] = -np.inf
        return Integrals(log_f, means, change, ok | ~nonempty, means_ok | ~nonempty)


def _in_blocks(integrate, p, size):
    """integrate(genes) over the genes p in blocks of size, joined into one
    Integrals; at most size genes (none included) make one block.  A gene's
    bits do not depend on its block, since rows never mix."""
    blocks = [integrate(p[lo:lo + size]) for lo in range(0, p.size or 1, size)]
    if len(blocks) == 1:
        return Integrals(*blocks[0])
    return Integrals(*(np.concatenate(part, axis=-1) for part in zip(*blocks)))


# ---------------------------------------------------------------------------
# A fixed Gauss-Kronrod pair in the noise's z: the tilt
# ---------------------------------------------------------------------------

#: n, the nodes of the tilt's Gauss rule on each of its two panels; the
#: Kronrod rule that answers holds them among its 2n + 1
_TILT_NODES = 24
#: the top panel ends no lower than where the log integrand, at its slope
#: at z_p, has fallen by this much
_TILT_PEAK = 36.0
#: a top panel that starts at s = 0 under a signal density s^(k - 1) with
#: k != 1 takes its nodes at gap = y^g below its top, y on the rule's
#: nodes, so the integrand s^(k - 1) ds ~ y^(g k - 1) dy is smoother in y.
#: The grade g stretches the panel's far end g-fold, where the normal
#: noise's peak lies for z_p < 12.  Of 300-gene draws (seeds 0-2) at 1e-8,
#: grades 1, 2 and 3 certified 300, 300 and 176-191 genes of the gb_normal
#: reference model and 211-218, 300 and 187-196 of GB(1.2, 0.5, 2, 1.5, 2) +
#: N(0.5, 0.2); on the gamma_lognormal reference model grade 3 certified all
#: 300 within 1.3e-15 of the engine, grade 2 all 300 within 4.8e-12, and
#: grade 1 none
_TILT_GRADE = {LognormalParams: 3, NormalParams: 2}
#: genes per block of the tilt: 94 genes at 2 (2n + 1) = 98 nodes, about
#: 9,200 values per temporary (``tilt_integrals``)
_TILT_BLOCK = 94


def _gauss_kronrod(n):
    """The (2n + 1)-node Gauss-Kronrod rule on [-1, 1] that extends the
    n-node Gauss-Legendre rule: (nodes, ascending; their Kronrod weights;
    their Gauss weights, nonzero only on the n Gauss nodes, every second
    node from the second).

    Laurie's algorithm (Math. Comp. 66, 1997, 1133-1145) extends the
    Legendre recurrence, a_k = 0, b_0 = 2 and b_k = k^2/(4k^2 - 1), to the
    Jacobi-Kronrod matrix of order 2n + 1: its eigenvalues are the nodes,
    and b_0 times the squared first components of its eigenvectors the
    weights (Golub & Welsch 1969).  Its leading n x n block is the Gauss
    rule's own matrix.  The weight is symmetric, so every a_k stays 0 and
    only the b_k past ceil(3n/2) are new, from the mixed moments s and t.
    """
    b = [2.0] + [k * k / (4.0 * k * k - 1.0) for k in range(1, (3 * n + 1) // 2 + 1)]
    b += [0.0] * (2 * n + 1 - len(b))
    s, t = [0.0] * (n // 2 + 2), [0.0] * (n // 2 + 2)
    t[1] = b[n + 1]
    for i in range(n - 1):
        acc = 0.0
        for k in range((i + 1) // 2, -1, -1):
            acc += b[k + n + 1] * s[k] - b[i - k] * s[k + 1]
            s[k + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for i in range(n - 1, 2 * n - 2):
        acc = 0.0
        for k in range(i + 1 - n, (i - 1) // 2 + 1):
            j = n - 1 - i + k
            acc += b[i - k] * s[j + 2] - b[k + n + 1] * s[j + 1]
            s[j + 1] = acc
        if i % 2:
            b[(i + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    root = np.sqrt(b[1:])
    jacobi = np.diag(root, 1) + np.diag(root, -1)
    x, v = np.linalg.eigh(jacobi)
    gauss = np.zeros(2 * n + 1)
    gauss[1::2] = b[0] * np.linalg.eigh(jacobi[:n, :n])[1][0] ** 2
    return x, b[0] * v[0] ** 2, gauss


_KRONROD_X, _KRONROD_W, _GAUSS_W = _gauss_kronrod(_TILT_NODES)
#: the Gauss weight over the Kronrod one at every node of both panels
#: (``_tilt_rules``), 0 off the Gauss nodes
_TILT_GAUSS = np.tile(_GAUSS_W / _KRONROD_W, 2)


def _tilt_rules(grade):
    """The nodes of the Kronrod rule on the top panel, then on the bottom
    one, one column each: the rows (upper, full) with d - lo = upper * (the
    top panel's width) + full * (the full width) at the node, d = z_p - z
    and lo the range's lower end, whether the node lies on the top panel,
    and the log of its Kronrod weight per unit width.  The top panel's
    nodes sit at gap = y^grade below its top, with weight
    grade y^(grade - 1), y on the rule's nodes."""
    gap = (1.0 - _KRONROD_X) / 2.0          # the node's place below its panel's top
    w = _KRONROD_W / 2.0
    return (np.concatenate([gap ** grade, 1.0 - gap]),
            np.concatenate([np.zeros_like(gap), gap]),
            np.arange(2 * gap.size) < gap.size,
            np.concatenate([np.log(w * grade * gap ** (grade - 1)), np.log(w)]))


def _rule_sums(a):
    """The Gauss and the Kronrod sums over the last axis of a, its values at
    the nodes of ``_tilt_rules`` times their Kronrod weights."""
    return (a * _TILT_GAUSS).sum(axis=-1), a.sum(axis=-1)


_TILT_UPPER, _TILT_FULL, _TILT_TOP, _TILT_LOG_W = _tilt_rules(1)
#: the (upper, log weight) rows of each noise's graded rule
_TILT_GRADED = {noise: _tilt_rules(g)[::3] for noise, g in _TILT_GRADE.items()}


def _tilt_rate(signal):
    """The rate of a signal density's factor e^(-rate s): theta for an
    exponential signal, 1/beta for a gamma one; None for a GB one."""
    if isinstance(signal, ExpParams):
        return signal.theta
    return 1.0 / signal.beta if isinstance(signal, GammaParams) else None


def tilt_refusal(m: ModelSpec):
    """Why the callers of ``tilt_integrals`` leave the model m to the
    engine, or None: its signal density behaves as s^(k - 1) at 0 with
    k < 1 (``_power``), where the engine's first piece integrates in s^k.
    On Gamma(0.7, 5) + LN(1, 0.5) the rule certified 19-34 of 300 genes."""
    k = _power(m.signal)
    return None if k is None else f"signal power {k:.3g} at s = 0 below 1"


def _tilt_block(p, m: ModelSpec, weights, rows, rel_tol):
    """``tilt_integrals``' (log_f, means, change, ok, means_ok) for the genes
    p of one block."""
    signal, noise = m.signal, m.noise
    sig = noise.sigma
    lognormal = isinstance(noise, LognormalParams)
    if lognormal:
        live = p > 0.0
        q = np.where(live, p, 1.0)[:, None]
        z_p = (np.log(q) - noise.mu) / sig
        lo = 0.0
        span = z_p - np.minimum(-_WIDTHS, z_p - _WIDTHS)
        rate = _tilt_rate(signal)
    else:
        q = p[:, None]
        z_p = (q - noise.mu) / sig
        # the noise window with s > 0, down to z_p - 12 where that lies
        # lower, and no further than the signal's support end (the engine
        # reaches 64 s0, ``_breakpoints``: on 300-gene draws of the gb_normal
        # reference model that wider range left 8-12 genes to the engine)
        lo = np.maximum(0.0, z_p - _WIDTHS)
        hi = np.minimum(np.maximum(z_p + _WIDTHS, _WIDTHS), dist_support(signal)[1] / sig)
        span = hi - lo
        live = span[:, 0] > 0.0
        rate = None
    if rate is not None:
        # the log integrand's slope at z_p; the top panel is the upper half,
        # or narrower where the integrand falls steeply from z_p
        slope = rate * sig * q - z_p
        split = np.minimum(span / 2.0, np.where(slope > 0.0, _TILT_PEAK / slope, np.inf))
    else:
        split = span / 2.0
    upper, log_w = _TILT_UPPER, _TILT_LOG_W
    if _order(signal) != 1.0:
        # graded where the top panel starts at s = 0
        graded_upper, graded_log_w = _TILT_GRADED[type(noise)]
        upper = np.where(lo == 0.0, graded_upper, upper)
        log_w = np.where(lo == 0.0, graded_log_w, log_w)
    d = split * upper + span * _TILT_FULL               # z_p - z at every node
    if lognormal:
        s = -q * np.expm1(-sig * d)
    else:
        d += lo
        s = sig * d
    logs = (dist_logpdf(signal, s) + specfun.std_normal_logpdf(z_p - d)
            + np.where(_TILT_TOP, np.log(split), np.log(span - split)) + log_w)
    if math.isfinite(dist_support(signal)[1]):
        # a node that rounding puts past the support's end reads NaN there
        logs = np.where(np.isnan(logs), -np.inf, logs)
    top = logs.max(axis=1)
    vals = np.exp(logs - np.where(np.isfinite(top), top, 0.0)[:, None])
    den = _rule_sums(vals)
    change = np.abs(den[1] - den[0]) / den[1]
    ok = (change <= rel_tol) & live
    # an empty range: no density at p <= 0 under lognormal noise; under
    # normal noise, a gene past the signal's support end, left to the engine
    void = ~live if lognormal else np.zeros(p.size, dtype=bool)
    log_f = np.where(live, np.log(den[1]) + top, -np.inf)
    means = np.zeros((rows, p.size))
    if rows:
        y = q * np.exp(-sig * d) if lognormal else q - s
        wf = np.asarray(weights(s, None, y)) * vals
        part = _rule_sums(wf)
        if np.isnan(part).any():
            # a weight that is not finite where the integrand underflowed:
            # those nodes add 0
            wf = np.where(vals > 0.0, wf, 0.0)
            part = _rule_sums(wf)
        # E[|w|], equal to E[w] bit for bit where no value is negative
        spread = np.abs(wf).sum(axis=2) / den[1]
        means = part[1] / den[1]
        change = np.maximum(change, (np.abs(means - part[0] / den[0]) / spread).max(axis=0))
        means[:, ~live] = np.nan
    return log_f, means, change, ok | void, ok & (change <= rel_tol) | void


def tilt_integrals(p, m: ModelSpec, weights=None, rel_tol=1e-8) -> Integrals:
    """``log_integrals`` by a fixed Gauss-Kronrod pair in the noise's
    standard score z, for any signal over normal or lognormal noise.

    With b = p - s the noise's argument, f_P(p) is the integral of
    f_S(p - b(z)) phi(z) dz, taken in d = z_p - z >= 0, the distance below
    the gene's own score z_p: s = sigma d under normal noise, and
    s = -p expm1(-sigma d) under lognormal noise, exact as b -> p.  Under an
    exponential signal this is the exponential tilt of the noise.  The range
    in d reaches down to z = min(-12, z_p - 12): [0, max(z_p + 12, 12)]
    under lognormal noise; under normal noise [max(0, z_p - 12),
    max(z_p + 12, 12)], the noise window with s > 0, cut at the signal's
    support end.  It is split in two panels, at the middle, or,
    under lognormal noise and a signal e^(-rate s) (exponential: theta;
    gamma: 1/beta), nearer z_p where the log integrand falls from z_p at a
    slope above 72/width.  Where the range starts at s = 0 and the signal
    density behaves as s^(k - 1) with k != 1 (gamma: alpha; GB: a u), the
    top panel's nodes sit at y^g of its width, g = 3 under lognormal and
    2 under normal noise (``_TILT_GRADE``), so the integrand is smoother
    in y.  On each panel the Gauss-Kronrod rule of 2n + 1 nodes
    (n = ``_TILT_NODES``, ``_gauss_kronrod``) answers, and its change from
    the n-node Gauss rule it embeds (relative to f_P, and for a mean to
    E[|w|]) is the certificate: the densities and weight rows are evaluated
    once per node, and the two rules' sums weight the same values.  The
    contract is ``log_integrals``', with log s always None.  Sums are
    elementwise products reduced per row, so a gene's bits depend on its
    own p alone.  Genes at p <= 0 under lognormal noise read -inf, with NaN
    means, and are ok; under normal noise a gene whose range is empty (past
    a GB signal's support end) reads -inf and is not ok.  Signals with
    k < 1 are left to the engine by the callers (``tilt_refusal``).

    Genes run in blocks of ``_TILT_BLOCK``: on the 1000 genes of the seed-7
    exp_lognormal reference array the score took 5.2 ms in blocks of 94 and
    10.5 ms in one block, its temporaries too large for the allocator to
    reuse freed memory (medians of 15 interleaved calls on a 2-core x86_64
    machine).
    """
    p = np.asarray(p, dtype=float)
    empty = np.empty((p.size, 0))
    rows = 0 if weights is None else len(weights(empty, empty, empty))
    with np.errstate(all="ignore"):
        return _in_blocks(lambda q: _tilt_block(q, m, weights, rows, rel_tol),
                          p, _TILT_BLOCK)
