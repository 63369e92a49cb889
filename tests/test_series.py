import math

import numpy as np
import pytest
from scipy import special as sp

from beadcorr import series
from beadcorr import simulate, validation
from beadcorr.dists import (ExpParams, GammaParams, GBGB, GBNormal, GBParams,
                            LognormalParams, NormalParams)
from beadcorr.errors import (DomainError, SeriesError,
                             SeriesNonConvergenceError)
from beadcorr.oracle import QuadConfig, marginal_pdf_quadrature
from beadcorr.specfun import gaussian_moment_table, std_normal_cdf

CFG = series.SeriesConfig()
UNIFORM = GBParams(a=1, c=0, d=1, u=1, v=1)


def brute_lognormal_exp(p, theta, mu, sigma, shift, n_terms=500):
    """Reference partial sum in log space; independent of the adaptive engine."""
    k = np.arange(n_terms, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = k * math.log(theta) if theta > 0 else np.where(k == 0, 0.0, -np.inf)
    lt = (lt - sp.gammaln(k + 1.0)
          + k * (mu + 0.5 * (k + 2.0 * shift) * sigma ** 2)
          + sp.log_ndtr((math.log(p) - (mu + (k + shift) * sigma ** 2)) / sigma))
    return float(np.exp(sp.logsumexp(lt)))


def brute_gamma_lognormal(p, alpha, beta, mu, sigma, top_shift, K=400, N=400):
    """400 x 400 rectangular reference sum in signed log space."""
    from beadcorr.specfun import gen_binomial_log_array
    kk = np.arange(K, dtype=float)
    nn = np.arange(N, dtype=float)
    blog, bsig = gen_binomial_log_array(alpha - 1.0 + top_shift, K)
    t = kk[:, None] + nn[None, :]
    E = t * (mu + 0.5 * t * sigma ** 2) + sp.log_ndtr(
        (math.log(p) - (mu + t * sigma ** 2)) / sigma)
    te = (blog - kk * math.log(p))[:, None] \
        + (-sp.gammaln(nn + 1.0) - nn * math.log(beta))[None, :] + E
    sk = (bsig * np.where(kk % 2 == 0, 1.0, -1.0))[:, None]
    m = float(np.max(te))
    total = float(np.sum(sk * np.exp(te - m)))
    return math.exp(m + math.log(abs(total))) * math.copysign(1.0, total)


class TestExpLognormalSeries:
    # (p, theta, mu, sigma) = (10, 0.1, 0, 0.5); frozen from the 500-term
    # reference sum above
    FROZEN_DEN = 1.1220983337572052

    def test_matches_reference(self):
        val = series.exp_lognormal_den_series(10.0, ExpParams(0.1),
                                              LognormalParams(0.0, 0.5), CFG)
        ref = brute_lognormal_exp(10.0, 0.1, 0.0, 0.5, 0)
        assert val.value == pytest.approx(self.FROZEN_DEN, rel=1e-12)
        assert val.value == pytest.approx(ref, rel=1e-10)

    def test_num_matches_reference(self):
        val = series.exp_lognormal_num_series(10.0, ExpParams(0.1),
                                              LognormalParams(0.0, 0.5), CFG)
        ref = brute_lognormal_exp(10.0, 0.1, 0.0, 0.5, 1)
        assert val.value == pytest.approx(ref, rel=1e-10)

    def test_theta_zero_collapse(self):
        # rate exactly zero: only the k = 0 term survives (0^0 = 1)
        l = LognormalParams(0.2, 0.7)
        val = series.exp_lognormal_den_series(5.0, None, l, CFG)
        assert val.terms_used == (1,)
        assert val.converged
        assert val.value == pytest.approx(
            std_normal_cdf((math.log(5.0) - 0.2) / 0.7), rel=1e-12)
        # a vanishingly small positive rate agrees with the collapsed value
        near = series.exp_lognormal_den_series(5.0, ExpParams(1e-300), l, CFG)
        assert near.value == pytest.approx(val.value, rel=1e-14)

    def test_num_theta_zero_collapse(self):
        l = LognormalParams(0.2, 0.7)
        val = series.exp_lognormal_num_series(5.0, None, l, CFG)
        assert val.value == pytest.approx(
            std_normal_cdf((math.log(5.0) - 0.2 - 0.49) / 0.7), rel=1e-12)

    def test_truncation_depth(self):
        val = series.exp_lognormal_den_series(10.0, ExpParams(0.1),
                                              LognormalParams(0.0, 0.5), CFG)
        assert val.converged and val.terms_used[0] <= 60

    def test_cap_raises(self):
        tiny = series.SeriesConfig(rel_tol=1e-10, max_terms_per_index=3)
        with pytest.raises(SeriesNonConvergenceError):
            series.exp_lognormal_den_series(10.0, ExpParams(2.0),
                                            LognormalParams(1.0, 0.5), tiny)


class TestGammaLognormalSeries:
    def test_matches_rectangular_reference(self):
        g, l = GammaParams(1.5, 2.0), LognormalParams(0.0, 0.4)
        val = series.gamma_lognormal_den_series(20.0, g, l, CFG)
        ref = brute_gamma_lognormal(20.0, 1.5, 2.0, 0.0, 0.4, 0)
        assert val.value == pytest.approx(ref, rel=1e-8)

    def test_alpha_one_reduces_to_exp(self):
        # gamma(1, beta) is exponential with theta = 1/beta
        l = LognormalParams(0.3, 0.5)
        for p in (6.0, 15.0, 40.0):
            c3 = series.gamma_lognormal_den_series(p, GammaParams(1.0, 4.0), l, CFG)
            c1 = series.exp_lognormal_den_series(p, ExpParams(0.25), l, CFG)
            assert c3.value == pytest.approx(c1.value, rel=1e-9)
            c4 = series.gamma_lognormal_num_series(p, GammaParams(1.0, 4.0), l, CFG)
            c2 = series.exp_lognormal_num_series(p, ExpParams(0.25), l, CFG)
            # num kernels differ by the marginal prefactor shift; compare the
            # corrector-relevant ratios
            lhs = p * math.exp(c4.log_abs - c3.log_abs)
            rhs = p - math.exp(0.3 + 0.125 + c2.log_abs - c1.log_abs)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_alpha_one_k_axis_collapses(self):
        val = series.gamma_lognormal_den_series(
            20.0, GammaParams(1.0, 4.0), LognormalParams(0.3, 0.5), CFG)
        assert val.terms_used[0] == 1

    def test_integer_alpha_k_axis_terminates(self):
        val = series.gamma_lognormal_num_series(
            20.0, GammaParams(2.0, 4.0), LognormalParams(0.3, 0.5), CFG)
        assert val.terms_used[0] <= 3  # C(2, k) = 0 beyond k = 2


class TestGBPairSeries:
    def test_uniform_pair_is_triangular(self):
        den = series.gb_pair_den_series(0.5, UNIFORM, UNIFORM, CFG)
        assert den.value == pytest.approx(1.0, abs=1e-12)
        assert den.terms_used == (1, 1, 1, 1)
        assert series.marginal_gb(0.5, UNIFORM, UNIFORM, CFG) == pytest.approx(
            0.5, abs=1e-12)

    def test_uniform_pair_num(self):
        num = series.gb_pair_num_series(0.5, UNIFORM, UNIFORM, CFG)
        assert num.value == pytest.approx(0.5, abs=1e-12)  # B(2, 1)
        den = series.gb_pair_den_series(0.5, UNIFORM, UNIFORM, CFG)
        assert 0.5 * num.value / den.value == pytest.approx(0.25, abs=1e-12)

    def test_marginal_matches_oracle(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        got = series.marginal_gb(0.8, s, b, CFG)
        ref = marginal_pdf_quadrature(0.8, GBGB(s, b), QuadConfig())
        assert got == pytest.approx(ref, rel=1e-4)

    def test_degenerate_collapse_axes(self):
        # c = 0 kills the n axis; c = 1 kills the l axis
        s0 = GBParams(1, 0.0, 1, 1.5, 2.5)
        b1 = GBParams(1, 1.0, 5, 1.5, 6.0)
        den = series.gb_pair_den_series(0.6, s0, b1, CFG)
        l_used, m_used, n_used, r_used = den.terms_used
        assert n_used == 1   # signal c = 0
        assert m_used == 1   # noise c = 1
        assert den.converged

    def test_literal_beta_args_diverge_on_uniform(self):
        literal = series.SeriesConfig(literal_beta_args=True)
        with pytest.raises(DomainError):
            series.gb_pair_den_series(0.5, UNIFORM, UNIFORM, literal)

    def test_literal_mode_differs_and_corrected_matches_oracle(self):
        # both arguments stay positive in literal mode for these shapes
        s = GBParams(2.0, 0.4, 1.2, 1.5, 2.2)
        b = GBParams(2.0, 0.5, 1.1, 1.4, 2.0)
        corrected = series.gb_pair_den_series(0.7, s, b, CFG)
        literal = series.gb_pair_den_series(
            0.7, s, b, series.SeriesConfig(literal_beta_args=True))
        assert literal.value != pytest.approx(corrected.value, rel=1e-3)
        k1p = math.exp(series.marginal_gb_log(0.7, s, b, CFG))
        ref = marginal_pdf_quadrature(0.7, GBGB(s, b), QuadConfig())
        assert k1p == pytest.approx(ref, rel=1e-4)

    def test_out_of_support_raises(self):
        with pytest.raises(DomainError):
            series.gb_pair_den_series(5.0, UNIFORM, UNIFORM, CFG)

    def test_truncation_monotonicity(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        base = series.gb_pair_den_series(0.8, s, b, CFG)
        doubled = series.SeriesConfig(max_terms_per_index=400)
        more = series.gb_pair_den_series(0.8, s, b, doubled)
        rel = abs(more.value - base.value) / abs(more.value)
        assert rel < CFG.rel_tol * 10


class TestGBNormalSeries:
    def test_tight_noise_uniform_corrector(self):
        # posterior mean of a symmetric truncated kernel sits at p - mu
        b = NormalParams(0.25, 0.02)
        den = series.gb_normal_den_series(0.75, UNIFORM, b, CFG)
        num = series.gb_normal_num_series(0.75, UNIFORM, b, CFG)
        corrected = (0.75 - 0.25) * math.exp(num.log_abs - den.log_abs)
        assert corrected == pytest.approx(0.5, abs=1e-3)

    def test_uniform_signal_n_axis_terminates(self):
        b = NormalParams(0.25, 0.02)
        den = series.gb_normal_den_series(0.75, UNIFORM, b, CFG)
        # C(a(u+l+m)-1, n) = C(0, n) kills n >= 1 at l = m = 0, so the moment
        # axis contributes exactly its first term
        tab = gaussian_moment_table(1, -(0.75 - 0.25) / 0.02, 0.25 / 0.02)
        assert den.value == pytest.approx(tab[0], rel=1e-10)

    def test_marginal_matches_oracle(self):
        s = GBParams(1.0, 0.5, 2.0, 1.5, 2.0)
        b = NormalParams(0.3, 0.06)
        got = series.marginal_gb_normal(1.4, s, b, CFG)
        ref = marginal_pdf_quadrature(1.4, GBNormal(s, b), QuadConfig())
        assert got == pytest.approx(ref, rel=1e-3)

    def test_divergent_point_raises(self):
        # mass beyond the signal-scale expansion radius: c (p/d)^a = 2 > 1
        s = GBParams(1.0, 1.0, 2.0, 1.5, 2.0)
        b = NormalParams(1.0, 0.3)
        assert not series.convergence_ok(GBNormal(s, b), 4.0)
        with pytest.raises(SeriesError):
            series.gb_normal_den_series(4.0, s, b, CFG)

    def test_requires_p_above_mu(self):
        with pytest.raises(DomainError):
            series.gb_normal_den_series(0.1, UNIFORM, NormalParams(0.25, 0.02), CFG)

    def test_large_a_grid_finite_and_history_free(self):
        # at a = 50 the log binomial grid spans hundreds of e-folds: a served
        # block must not overflow, and a small request must keep its bits
        # after a large one has been served
        s = GBParams(50.0, 1.0, 20.0, 2.0, 10.0)
        small, _ = series._GBNormalWorkspace(s, 0).binom_grid_exp(40, 30)
        ws = series._GBNormalWorkspace(s, 0)
        big, _ = ws.binom_grid_exp(399, 200)
        assert np.all(np.isfinite(big)) and np.max(np.abs(big)) <= 1.0
        again, _ = ws.binom_grid_exp(40, 30)
        np.testing.assert_array_equal(again, small)


class TestConvergenceRegion:
    def test_safe_inside(self):
        m = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
        assert series.convergence_ok(m, 0.8)
        assert not series.convergence_ok(m, 3.9)

    def test_series_oracle_agreement_on_safe_draws(self):
        # random safe-range draws per series family against the referee
        from beadcorr import validation
        for kind in ("exp_lognormal", "gamma_lognormal", "gb_gb", "gb_normal"):
            rows, tol = validation.run_validation(kind, 12, seed=99)
            for r in rows:
                assert r.rel_error <= tol, (kind, r)


class TestOneBoxPerGene:
    FAMILIES = {
        "exp_lognormal": (series.exp_lognormal_den_series, series.exp_lognormal_num_series),
        "gamma_lognormal": (series.gamma_lognormal_den_series,
                            series.gamma_lognormal_num_series),
        "gb_gb": (series.gb_pair_den_series, series.gb_pair_num_series),
        "gb_normal": (series.gb_normal_den_series, series.gb_normal_num_series),
    }

    def test_gate_accepts_exactly_when_every_depth_fits(self):
        # the gate judges the boxes the evaluators then sum on
        rng = np.random.default_rng(7)
        limit = int(series.GATE_DEPTH_FRACTION * CFG.max_terms_per_index)
        refused_by_depth = 0
        for kind, kernels in self.FAMILIES.items():
            for _ in range(12):
                m, p = validation.draw_case(kind, rng)
                for q in (p, 2.0 * p, 4.0 * p):
                    in_region = series._in_region(m, q)
                    boxes = (series._boxes(kind, q, m.signal, m.noise, CFG)
                             if in_region else ())
                    fits = all(max(box) <= limit for box in boxes)
                    assert series.convergence_ok(m, q, CFG) == (in_region and fits)
                    refused_by_depth += in_region and not fits
                    if in_region and fits:
                        for kernel, box in zip(kernels, boxes):
                            value = kernel(q, m.signal, m.noise, CFG)
                            assert value.terms_used == box
        assert refused_by_depth > 0

    @pytest.mark.parametrize("kind", ["gb_gb", "gb_normal"])
    def test_gate_accepted_reference_draws_evaluate(self, kind):
        m = simulate.REFERENCE_MODELS[kind][0]
        den, num = self.FAMILIES[kind]
        data = simulate.simulate_experiment(m, 3000, 10, seed=99)
        accepted = 0
        for p in data.observed:
            p = float(p)
            if series.convergence_ok(m, p, CFG):
                accepted += 1
                den(p, m.signal, m.noise, CFG)
                num(p, m.signal, m.noise, CFG)
        assert accepted > 2000

    def test_depth_past_the_cap_raises(self):
        tiny = series.SeriesConfig(max_terms_per_index=20)
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        assert series.convergence_ok(GBGB(s, b), 0.8, CFG)
        assert not series.convergence_ok(GBGB(s, b), 0.8, tiny)
        with pytest.raises(SeriesNonConvergenceError, match="past the cap"):
            series.gb_pair_den_series(0.8, s, b, tiny)

    def test_batch_flags_genes_the_gate_refuses(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        ps = np.array([0.5, 0.8, 3.0])
        vals, ok = series.marginal_gb_log_batch(ps, s, b, CFG)
        assert ok.tolist() == [True, True, False] and vals[2] == -np.inf
        for p, got in zip(ps[:2], vals[:2]):
            assert got == pytest.approx(series.marginal_gb_log(float(p), s, b, CFG),
                                        rel=1e-10)
