"""The batched tanh-sinh engine, called directly so no rescue can mask a miss."""

import math

import numpy as np
import pytest

from beadcorr import oracle, quadrature, simulate, validation
from beadcorr.dists import (GammaNormal, GammaParams, GBGB, GBParams,
                            NormalParams, dist_sample)

Q = oracle.QuadConfig(abs_tol=1e-14, rel_tol=1e-10)
KINDS = ("exp_normal", "exp_gamma", "gamma_normal", "exp_lognormal",
         "gamma_lognormal", "gb_gb", "gb_normal")


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
        logs, est, ok = quadrature.log_integrals(ps, m, (0, 1), 1e-8)
        assert ok.all() and np.all(est <= 1e-8), (m, ps, est)
        for p, lden, lnum in zip(ps, logs[0], logs[1]):
            mean = oracle.posterior_mean_quadrature(float(p), m, Q)
            assert math.exp(lnum - lden) == pytest.approx(mean, rel=tol), (m, p)
            lref = oracle.marginal_log_pdf_quadrature(float(p), m, Q)
            assert lden == pytest.approx(lref, abs=tol), (m, p)


@pytest.mark.parametrize("kind", KINDS)
def test_gene_bits_do_not_depend_on_the_batch(kind):
    m = simulate.REFERENCE_MODELS[kind][0]
    d = simulate.simulate_experiment(m, 40, 2, 3)
    ps = d.observed[d.observed > 0]
    whole, est, ok = quadrature.log_integrals(ps, m, (0, 1))
    rev = quadrature.log_integrals(ps[::-1], m, (0, 1))
    np.testing.assert_array_equal(rev[0][:, ::-1], whole)
    np.testing.assert_array_equal(rev[1][::-1], est)
    for i, p in enumerate(ps):
        alone = quadrature.log_integrals(ps[i:i + 1], m, (0, 1))
        np.testing.assert_array_equal(alone[0][:, 0], whole[:, i])
        assert alone[1][0] == est[i] and alone[2][0] == ok[i]


def test_loose_target_takes_an_earlier_level():
    m = simulate.REFERENCE_MODELS["gamma_lognormal"][0]
    ps = np.array([5.0, 12.3, 40.0])
    tight = quadrature.log_integrals(ps, m, (0, 1), 1e-8)
    loose = quadrature.log_integrals(ps, m, (0, 1), 1e-3)
    assert tight[2].all() and loose[2].all()
    assert np.all(loose[1] <= 1e-3) and np.any(loose[1] > tight[1])
    np.testing.assert_allclose(loose[0], tight[0], rtol=1e-6)


def test_empty_range_reads_minus_inf():
    # the GB pair has support (0, 4): p = 5 leaves nothing to integrate
    m = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
    logs, _, ok = quadrature.log_integrals(np.array([5.0, 1.0]), m)
    assert logs[0, 0] == -math.inf and ok[0]
    assert math.isfinite(logs[0, 1]) and ok[1]


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
    logs, _, ok = quadrature.log_integrals(np.array([p]), GammaNormal(g, b), (0, 1), 1e-11)
    assert ok[0]
    assert math.exp(logs[1, 0] - logs[0, 0]) == pytest.approx(want, rel=1e-9)
