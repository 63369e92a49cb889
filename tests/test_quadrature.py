"""The batched tanh-sinh engine, called directly so no rescue can mask a miss."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

from beadcorr import estimate, oracle, quadrature, simulate, validation
from beadcorr.errors import QuadratureError
from beadcorr.dists import (GammaNormal, GammaParams, GBGB, GBNormal, GBParams,
                            NormalParams, dist_sample)

Q = oracle.QuadConfig(abs_tol=1e-14, rel_tol=1e-10)
KINDS = ("exp_normal", "exp_gamma", "gamma_normal", "exp_lognormal",
         "gamma_lognormal", "gb_gb", "gb_normal")


def _mean(s, log_s, y):
    """The weight row of the posterior mean E[S | P = p]."""
    return s[None]


def _cases(kind, rng, n_models):
    """(model, p values): a gate-accepted validation draw, then p drawn from
    the model itself, which the series gate may refuse."""
    out = []
    for _ in range(n_models):
        m, p = validation.draw_case(kind, rng)
        ps = [p]
        while len(ps) < 4:
            q = float(dist_sample(m.signal, 1, rng)[0] + dist_sample(m.noise, 1, rng)[0])
            if q > 0:
                ps.append(q)
        out.append((m, np.array(ps)))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_engine_matches_the_referee(kind):
    # the corrector default target; every gene must be certified, and agree
    # with the referee far inside the family's validation tolerance
    tol = min(validation.TOLERANCES[kind], 1e-9)
    rng = np.random.default_rng(23)
    for m, ps in _cases(kind, rng, 12):
        res = quadrature.log_integrals(ps, m, _mean, 1e-8)
        assert res.ok.all() and res.means_ok.all() and np.all(res.change <= 1e-8), \
            (m, ps, res.change)
        for p, lden, got in zip(ps, res.log_f, res.means[0]):
            mean = oracle.posterior_mean_quadrature(float(p), m, Q)
            assert got == pytest.approx(mean, rel=tol), (m, p)
            lref = oracle.marginal_log_pdf_quadrature(float(p), m, Q)
            assert lden == pytest.approx(lref, abs=tol), (m, p)


@pytest.mark.parametrize("kind", KINDS)
def test_gene_bits_do_not_depend_on_the_batch(kind, monkeypatch):
    m = simulate.REFERENCE_MODELS[kind][0]
    d = simulate.simulate_experiment(m, 40, 2, 3)
    ps = d.observed[d.observed > 0]
    rounds, real = [], quadrature._sums

    def spy(*args):
        rounds.append(args[-2])
        return real(*args)

    monkeypatch.setattr(quadrature, "_sums", spy)
    for weights in (_mean, estimate._fisher_weights(m)):
        whole = quadrature.log_integrals(ps, m, weights)
        rev = quadrature.log_integrals(ps[::-1], m, weights)
        np.testing.assert_array_equal(rev.log_f[::-1], whole.log_f)
        np.testing.assert_array_equal(rev.means[:, ::-1], whole.means)
        np.testing.assert_array_equal(rev.change[::-1], whole.change)
        level_5 = []
        for i, p in enumerate(ps):
            rounds.clear()
            alone = quadrature.log_integrals(ps[i:i + 1], m, weights)
            level_5.append((5, 6) in rounds)
            assert alone.log_f[0] == whole.log_f[i]
            np.testing.assert_array_equal(alone.means[:, 0], whole.means[:, i])
            assert alone.change[0] == whole.change[i] and alone.ok[0] == whole.ok[i]
            assert alone.means_ok[0] == whole.means_ok[i]
        if kind == "gb_normal" and weights is _mean:
            # the batch mixes genes that stop at level 4 with genes that
            # need level 5 (with the Fisher rows, every gene needs it)
            assert any(level_5) and not all(level_5)


PINS = json.loads((Path(__file__).parent / "data" / "engine_pins.json").read_text())
PIN_MODELS = {
    **{kind: simulate.REFERENCE_MODELS[kind][0]
       for kind in ("gb_gb", "gb_normal", "gamma_lognormal", "exp_lognormal")},
    "gb_normal_tight": simulate.REFERENCE_MODELS["gb_normal"][0],
    # shape < 1: the first piece is integrated in s^alpha
    "gamma_normal": GammaNormal(GammaParams(0.5, 40.0), NormalParams(100.0, 15.0)),
}


@pytest.mark.parametrize("case", sorted(PIN_MODELS))
@pytest.mark.parametrize("setting", ["none", "mean", "fisher"])
def test_values_are_pinned(case, setting):
    # every gene keeps its level: the values read at the same level as
    # when all six levels ran on every piece, up to the rounding of the
    # log scale, and the flags are equal
    m, pin = PIN_MODELS[case], PINS[case][setting]
    weights = {"none": None, "mean": _mean,
               "fisher": estimate._fisher_weights(m)}[setting]
    res = quadrature.log_integrals(np.array(PINS[case]["ps"]), m, weights, pin["rel_tol"])
    np.testing.assert_array_equal(res.ok, pin["ok"])
    np.testing.assert_array_equal(res.means_ok, pin["means_ok"])
    np.testing.assert_allclose(res.log_f, pin["log_f"], rtol=0, atol=1e-14)
    if setting == "mean":
        np.testing.assert_allclose(res.means, pin["means"], rtol=1e-14, atol=0)
    elif setting == "fisher":
        scale = 1e-12 * np.array(pin["abs_means"])
        assert np.all(np.abs(res.means - np.array(pin["means"])) <= scale)
    else:
        assert res.means.shape == (0, len(pin["log_f"]))


#: signal-density nodes of the seed-7 reference arrays at 1e-8 when all six
#: levels ran on every piece column of every gene, and the share of them
#: the engine may still evaluate
FULL_NODES = {"gb_gb": (51250, 0.51), "gamma_lognormal": (123000, 0.51),
              "gb_normal": (153750, 0.65)}


@pytest.mark.parametrize("kind", sorted(FULL_NODES))
def test_the_last_level_runs_only_where_it_is_read(kind, monkeypatch):
    m, genes = simulate.REFERENCE_MODELS[kind]
    d = simulate.simulate_experiment(m, genes, max(genes // 4, 50), 7)
    ps = d.observed[d.observed > 0]
    count, real = [0], quadrature.dist_logpdf

    def counted(dist, x):
        if dist is m.signal:
            count[0] += np.size(x)
        return real(dist, x)

    monkeypatch.setattr(quadrature, "dist_logpdf", counted)
    counts = []
    for _ in range(2):
        count[0] = 0
        assert quadrature.log_integrals(ps, m, _mean, 1e-8).means_ok.all()
        counts.append(count[0])
    full, share = FULL_NODES[kind]
    assert counts[0] == counts[1] and counts[0] <= share * full, counts


def test_loose_target_takes_an_earlier_level():
    m = simulate.REFERENCE_MODELS["gamma_lognormal"][0]
    ps = np.array([5.0, 12.3, 40.0])
    tight = quadrature.log_integrals(ps, m, _mean, 1e-8)
    loose = quadrature.log_integrals(ps, m, _mean, 1e-3)
    assert tight.means_ok.all() and loose.means_ok.all()
    assert np.all(loose.change <= 1e-3) and np.any(loose.change > tight.change)
    np.testing.assert_allclose(loose.log_f, tight.log_f, rtol=1e-6)
    np.testing.assert_allclose(loose.means, tight.means, rtol=1e-6)


def test_empty_range_reads_minus_inf():
    # the GB pair has support (0, 4): p = 5 leaves nothing to integrate
    m = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
    res = quadrature.log_integrals(np.array([5.0, 1.0]), m)
    assert res.log_f[0] == -math.inf and res.ok[0]
    assert math.isfinite(res.log_f[1]) and res.ok[1]
    assert res.means.shape == (0, 2)


def test_tilt_matches_the_referee():
    # exp_lognormal's Gauss rule on the tilt of the noise, certified at the
    # corrector's target, agrees with the referee as the engine does
    rng = np.random.default_rng(23)
    for m, ps in _cases("exp_lognormal", rng, 12):
        res = quadrature.tilt_integrals(ps, m, _mean, 1e-8)
        assert res.ok.all() and res.means_ok.all() and np.all(res.change <= 1e-8), \
            (m, ps, res.change)
        for p, lden, got in zip(ps, res.log_f, res.means[0]):
            mean = oracle.posterior_mean_quadrature(float(p), m, Q)
            assert got == pytest.approx(mean, rel=1e-9), (m, p)
            lref = oracle.marginal_log_pdf_quadrature(float(p), m, Q)
            assert lden == pytest.approx(lref, abs=1e-9), (m, p)


def test_tilt_reads_minus_inf_at_p_at_most_zero():
    m = simulate.REFERENCE_MODELS["exp_lognormal"][0]
    res = quadrature.tilt_integrals(np.array([-2.0, 0.0, 5.0]), m, _mean)
    assert res.log_f[:2].tolist() == [-math.inf] * 2 and math.isfinite(res.log_f[2])
    assert res.ok.all() and res.means_ok.all()
    assert np.isnan(res.means[0, :2]).all() and 0.0 < res.means[0, 2] < 5.0
    empty = quadrature.tilt_integrals(np.array([]), m)
    assert empty.log_f.shape == empty.ok.shape == (0,) and empty.means.shape == (0, 0)


def _legendre_moment(d):
    """The integral of x^d over [-1, 1]."""
    return 2.0 / (d + 1) if d % 2 == 0 else 0.0


def test_gauss_kronrod_rule():
    # the 15-node rule is QUADPACK's qk15: its tabulated outermost node and
    # weight
    x, w, _ = quadrature._gauss_kronrod(7)
    assert x[-1] == pytest.approx(0.991455371120813, rel=0, abs=1e-15)
    assert w[-1] == pytest.approx(0.022935322010529, rel=0, abs=1e-15)
    # the tilt's rule: positive weights, the Gauss nodes every second node,
    # exact to degree 3n + 1, and its Gauss weights to degree 2n - 1
    n = 24
    x, w, gauss = quadrature._gauss_kronrod(n)
    assert x.size == w.size == gauss.size == 2 * n + 1
    assert np.all(w > 0.0) and np.all(gauss[1::2] > 0.0) and not gauss[::2].any()
    np.testing.assert_allclose(x[1::2], np.polynomial.legendre.leggauss(n)[0], rtol=0, atol=1e-15)
    for d in range(3 * n + 2):
        assert abs(np.sum(w * x ** d) - _legendre_moment(d)) <= 1e-14, d
    for d in range(2 * n):
        assert abs(np.sum(gauss * x ** d) - _legendre_moment(d)) <= 1e-14, d


@pytest.mark.parametrize("p, g, b, want", [
    # the mass is at the left end of the mode piece, 0.09 wide
    (196.35, GammaParams(1.92, 1158.0), NormalParams(200.91, 0.667),
     0.1770344378731895),
    # shape far below 1: s^(alpha - 1) at 0, integrated in v = s^alpha
    (9.74, GammaParams(0.066, 0.0175), NormalParams(308.8, 198.8),
     1.1548470620805799e-3),
])
def test_gamma_normal_regimes_the_old_knots_missed(p, g, b, want):
    # values from 40-digit mpmath; the second also from the convergent
    # series in s^2 of exp(-s^2 / 2 sigma^2) at the tilted gamma scale
    res = quadrature.log_integrals(np.array([p]), GammaNormal(g, b), _mean, 1e-11)
    assert res.means_ok[0]
    assert res.means[0, 0] == pytest.approx(want, rel=1e-9)


def test_log_s_rows_where_the_nodes_underflow():
    # at shape 0.03 the first piece's nodes s = b v^(1/alpha) underflow to 0
    # where the integrand does not vanish; the rows read log s in logs, so
    # E[log S | P = p] is finite, and by Fisher's identity
    # E[log S] - log beta - psi(alpha) is d log f_P/d alpha, a difference of
    # terms near -38, so the check is absolute
    p, b = np.array([9.74]), NormalParams(308.8, 198.8)
    g = GammaParams(0.03, 0.0175)
    def log_s_row(s, log_s, y):
        # log s comes in logs on the shape < 1 piece alone
        return (np.log(s) if log_s is None else log_s)[None]

    res = quadrature.log_integrals(p, GammaNormal(g, b), log_s_row, 1e-10)
    assert res.means_ok[0] and math.isfinite(res.means[0, 0])
    h = 1e-4 * g.alpha

    def log_f(alpha):
        shifted = quadrature.log_integrals(p, GammaNormal(GammaParams(alpha, g.beta), b),
                                           None, 1e-12)
        assert shifted.ok[0]
        return shifted.log_f[0]

    fd = (log_f(g.alpha + h) - log_f(g.alpha - h)) / (2 * h)
    score = res.means[0, 0] - math.log(g.beta) - sp.psi(g.alpha)
    assert score == pytest.approx(fd, rel=0, abs=1e-7)


def test_signed_rows_take_a_linear_ratio():
    # E[S - c | P = p] changes sign across the genes; the means are the
    # ratio sum(w f)/sum(f), equal to E[S | P = p] - c
    m = simulate.REFERENCE_MODELS["gamma_normal"][0]
    ps = np.array([90.0, 150.0, 400.0])
    both = quadrature.log_integrals(ps, m, lambda s, log_s, y: np.stack([s, s - 60.0]), 1e-8)
    assert both.means_ok.all()
    assert np.any(both.means[1] < 0) and np.any(both.means[1] > 0)
    np.testing.assert_allclose(both.means[1], both.means[0] - 60.0, rtol=1e-12, atol=1e-9)


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _wide_gb(rng):
    """a, d, u and v log-uniform over 0.5-50, 1-50, 0.5-20 and 0.5-20; c
    uniform on [0, 1]."""
    return GBParams(_log_uniform(rng, 0.5, 50.0), float(rng.uniform(0.0, 1.0)),
                    _log_uniform(rng, 1.0, 50.0), _log_uniform(rng, 0.5, 20.0),
                    _log_uniform(rng, 0.5, 20.0))


def _wide_draws(kind, seed, genes=120):
    """Wide GB draws: each gene its own model, a wide GB signal plus a wide
    GB noise (gb_gb) or N(U(1, 50), logU(0.1, 20)) noise (gb_normal), at p
    one signal draw plus one noise draw.  Genes with p <= 0 lie outside the
    gb_normal domain and are dropped."""
    rng = np.random.default_rng([seed, 0 if kind == "gb_gb" else 1])
    out = []
    for _ in range(genes):
        signal = _wide_gb(rng)
        noise = (_wide_gb(rng) if kind == "gb_gb" else
                 NormalParams(float(rng.uniform(1.0, 50.0)), _log_uniform(rng, 0.1, 20.0)))
        p = float(dist_sample(signal, 1, rng)[0] + dist_sample(noise, 1, rng)[0])
        if p > 0:
            out.append(((GBGB if kind == "gb_gb" else GBNormal)(signal, noise), p))
    return out


#: the referee, tight, and a step looser where the tight one misses its own
#: error bound (one gb_gb gene, by 1.49e-11 against 1.38e-11)
REFEREES = (oracle.QuadConfig(1e-14, 1e-11, 5000), oracle.QuadConfig(1e-14, 1e-10, 5000))


def _referee_mean(m, p):
    try:
        return oracle.posterior_mean_quadrature(p, m, REFEREES[0])
    except QuadratureError:
        return oracle.posterior_mean_quadrature(p, m, REFEREES[1])


@pytest.mark.parametrize("kind", ["gb_gb", "gb_normal"])
def test_wide_gb_draws_are_all_certified(kind):
    # the engine certifies every gene at the corrector's target (row s,
    # 1e-8) and at the likelihood's (value, 1e-6), each certified mean lies
    # within 1e-8 of the referee, and the likelihood is finite
    for seed in (0, 1):
        for m, p in _wide_draws(kind, seed):
            ps = np.array([p])
            res = quadrature.log_integrals(ps, m, _mean, 1e-8)
            assert res.means_ok[0], (m, p, res.change[0])
            assert quadrature.log_integrals(ps, m, None, estimate._LIKELIHOOD_REL_TOL).ok[0], \
                (m, p)
            assert res.means[0, 0] == pytest.approx(_referee_mean(m, p), rel=1e-8), (m, p)
            assert math.isfinite(estimate.log_marginal(m, ps)[0]), (m, p)


def test_wide_gb_normal_draws_through_the_rule():
    # the tilt's Gauss rules on the same draws: every gene they certify
    # lies within 1e-8 of the engine, small powers included (the corrector
    # and the likelihood send those to the engine whole).  The rule
    # certified 108 of the 234 genes; the others take the engine
    certified = 0
    for seed in (0, 1):
        for m, p in _wide_draws("gb_normal", seed):
            ps = np.array([p])
            res = quadrature.tilt_integrals(ps, m, _mean, 1e-8)
            if res.means_ok[0]:
                certified += 1
                engine = quadrature.log_integrals(ps, m, _mean, 1e-8)
                assert engine.means_ok[0]
                assert res.means[0, 0] == pytest.approx(engine.means[0, 0], rel=1e-8), (m, p)
    assert certified >= 100


def test_gb_signal_of_power_below_one_meets_its_target():
    # a u = 0.50: the signal density behaves as s^(a u - 1) at 0, and the
    # first piece is integrated in v = (s/b)^(a u).  Integrated in s, the
    # engine certified this gene 1.05e-8 off the referee, past its target
    m = GBNormal(GBParams(0.9539218010201326, 0.2120769682601089, 8.750234893266152,
                          0.5264916348065067, 6.998233409452407),
                 NormalParams(23.154756619068397, 9.280451250716554))
    p = 2.1664005006548823
    res = quadrature.log_integrals(np.array([p]), m, _mean, 1e-8)
    assert res.means_ok[0] and res.change[0] <= 1e-8
    assert res.means[0, 0] == pytest.approx(_referee_mean(m, p), rel=1e-12)
