import math

import numpy as np
import pytest

from beadcorr import correct, estimate, oracle, quadrature, series, simulate
from beadcorr.dists import (ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                            GammaLognormal, GammaNormal, GammaParams, GBGB,
                            GBNormal, GBParams, LognormalParams, NormalParams,
                            dist_sample, model_to_values, param_names)
from beadcorr.errors import (DegenerateControlsError, InvalidParameterError,
                             QuadratureError, UnsupportedMethodError)

CFG = series.SeriesConfig()


def _simulate(m, I, W, seed):
    rng = np.random.default_rng(seed)
    s = dist_sample(m.signal, I, rng)
    b = dist_sample(m.noise, I, rng)
    neg = dist_sample(m.noise, W, rng)
    obs = s + b
    keep = obs > 0
    return obs[keep], neg, s[keep]


def _safe_gb_obs(m, n, rng):
    out = []
    while len(out) < n:
        p = float(dist_sample(m.signal, 1, rng)[0] + dist_sample(m.noise, 1, rng)[0])
        if p > 0 and series.convergence_ok(m, p):
            out.append(p)
    return np.array(out)


#: (model, p values, abs tolerance in log) against the quadrature referee
_MARGINAL_CASES = [
    # exp_gamma, lam = 1/beta - theta > 0: regularized incomplete gamma
    (ExpGamma(ExpParams(0.05), GammaParams(2.0, 4.0)), (5.0, 20.0, 60.0), 1e-8),
    # lam < 0, -lam p < 700: series
    (ExpGamma(ExpParams(0.5), GammaParams(2.0, 4.0)), (5.0, 30.0), 1e-8),
    # lam p < -700: asymptotic expansion
    (ExpGamma(ExpParams(30.0), GammaParams(1.5, 2.0)), (40.0, 100.0), 1e-8),
    # gamma_normal, shape >= 1: FFT grid
    (GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0)),
     (110.0, 150.0, 250.0, 400.0), 1e-4),
    # shape < 1: quadrature at the likelihood tolerance
    (GammaNormal(GammaParams(0.8, 50.0), NormalParams(100.0, 15.0)),
     (150.0, 250.0, 400.0), 1e-6),
    # grid density far below its peak, or genes below the noise grid:
    # quadrature at the likelihood tolerance
    (GammaNormal(GammaParams(2.0, 50.0), NormalParams(500.0, 10.0)),
     (100.0, 300.0, 380.0, 400.0, 420.0), 1e-6),
    # lognormal noise: genes the series gate accepts (checked in the test)
    (ExpLognormal(ExpParams(0.08), LognormalParams(1.3, 0.5)),
     (2.0, 5.0, 20.0, 60.0), 1e-6),
    (GammaLognormal(GammaParams(0.7, 20.0), LognormalParams(0.5, 0.3)),
     (20.0, 50.0, 150.0), 1e-6),
]


class TestProblemValidation:
    def test_requires_positive_intensities(self):
        with pytest.raises(InvalidParameterError):
            estimate.EstimationProblem(np.array([1.0, -2.0]), np.array([1.0]),
                                       "exp_normal")

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            estimate.EstimationProblem(np.array([1.0]), np.array([1.0]), "bogus")

    def test_empty_controls_allowed_for_loglik(self):
        prob = estimate.EstimationProblem(np.array([120.0]), np.array([]),
                                          "exp_normal")
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        ll = estimate.loglik(m, prob)
        per_gene = estimate.log_marginal(m, prob.observed)
        assert ll == pytest.approx(float(np.sum(per_gene)), rel=1e-14)


class TestInitParams:
    def test_normal_noise_moments(self):
        rng = np.random.default_rng(1)
        neg = rng.normal(100.0, 15.0, 1000)
        obs = rng.exponential(100.0, 2000) + rng.normal(100.0, 15.0, 2000)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        init = estimate.init_params(prob)
        se_mu = 15.0 / math.sqrt(1000)
        assert abs(init.noise.mu - 100.0) < 3 * se_mu
        se_sd = 15.0 / math.sqrt(2 * 1000)
        assert abs(init.noise.sigma - 15.0) < 3 * se_sd

    def test_signal_rate_from_moment_identity(self):
        rng = np.random.default_rng(2)
        neg = rng.normal(100.0, 15.0, 1000)
        obs = rng.normal(100.0, 15.0, 10000) + rng.exponential(100.0, 10000)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        init = estimate.init_params(prob)
        assert abs(init.signal.theta - 0.01) / 0.01 < 0.2

    def test_single_control_degenerate(self):
        prob = estimate.EstimationProblem(np.array([120.0, 130.0]),
                                          np.array([100.0]), "exp_normal")
        with pytest.raises(DegenerateControlsError):
            estimate.init_params(prob)

    def test_constant_controls_degenerate(self):
        prob = estimate.EstimationProblem(np.array([120.0, 130.0]),
                                          np.full(10, 100.0), "exp_normal")
        with pytest.raises(DegenerateControlsError):
            estimate.init_params(prob)


class TestLoglik:
    def test_single_observation_matches_quadrature(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        for p in (150.0, 250.0, 400.0):
            lm = float(estimate.log_marginal(m, [p])[0])
            lq = oracle.marginal_log_pdf_quadrature(p, m)
            assert lm == pytest.approx(lq, abs=1e-8)
        for m, ps, tol in _MARGINAL_CASES:
            for p in ps:
                if m.kind in ("exp_lognormal", "gamma_lognormal"):
                    assert series.convergence_ok(m, p, CFG), (m, p)
                lm = float(estimate.log_marginal(m, [p])[0])
                lq = oracle.marginal_log_pdf_quadrature(p, m)
                assert lm == pytest.approx(lq, abs=tol), (m, p)

    def test_exp_gamma_outside_support_is_neg_inf(self):
        m = simulate.REFERENCE_MODELS["exp_gamma"][0]
        got = estimate.log_marginal(m, [0.0, 5.0, -3.0])
        assert got[0] == got[2] == -math.inf
        assert got[1] == float(estimate.log_marginal(m, [5.0])[0])
        assert math.isfinite(got[1])

    def test_gamma_normal_genes_below_the_noise_grid(self):
        # every p lies below mu - 12 sigma: the grid keeps its first signal
        # nodes and the likelihood neither raises nor reads NaN
        g, b = GammaParams(2.0, 50.0), NormalParams(500.0, 10.0)
        ps = np.array([100.0, 200.0, 300.0])
        p_grid, den = correct.gamma_normal_grid(300.0, g, b, 48, 1 << 21)
        assert p_grid.size == den.size > 0
        assert p_grid[0] == b.mu - 12.0 * b.sigma
        got = estimate.log_marginal(GammaNormal(g, b), ps)
        assert got.shape == ps.shape
        assert not np.any(np.isnan(got))

    def test_gamma_normal_far_above_the_gamma_bulk(self):
        # the largest p reaches past the gamma's 1 - 1e-13 quantile, where
        # the trimmed grid equals the one the quantile set before
        m = simulate.REFERENCE_MODELS["gamma_normal"][0]
        got = estimate.log_marginal(m, [150.0, 300.0, 800.0, 2500.0])
        want = [-4.961221802814089, -6.5034856314308715, -15.234414999492877]
        np.testing.assert_allclose(got[:3], want, rtol=1e-12)
        assert not math.isnan(got[3]) and got[3] < got[2]

    def test_gamma_normal_trimmed_grid_matches_a_longer_grid(self):
        # a gene far out lengthens the grid; the other genes keep their
        # values up to FFT rounding
        m = simulate.REFERENCE_MODELS["gamma_normal"][0]
        ps = np.linspace(120.0, 500.0, 20)
        short = estimate.log_marginal(m, ps)
        long = estimate.log_marginal(m, np.append(ps, 3000.0))[:-1]
        np.testing.assert_allclose(short, long, rtol=1e-12)

    def test_uncertified_genes_go_to_quadpack_and_never_raise(self, monkeypatch):
        # shape < 1: every gene takes the engine; a gene it cannot certify
        # takes the referee's value, and -inf where the referee fails
        m = GammaNormal(GammaParams(0.8, 50.0), NormalParams(100.0, 15.0))
        ps = np.array([150.0, 250.0, 400.0])
        engine = estimate.log_marginal(m, ps)
        real_engine = quadrature.log_integrals
        real_referee = oracle.marginal_log_pdf_quadrature

        def refuse_last_two(p, model, moments=(0,), rel_tol=1e-8):
            logs, est, ok = real_engine(p, model, moments, rel_tol)
            ok[1:] = False
            return logs, est, ok

        def fail_at_400(p, model, q=oracle.QuadConfig()):
            if p == 400.0:
                raise QuadratureError("budget exhausted")
            return real_referee(p, model, q)

        monkeypatch.setattr(quadrature, "log_integrals", refuse_last_two)
        monkeypatch.setattr(oracle, "marginal_log_pdf_quadrature", fail_at_400)
        got = estimate.log_marginal(m, ps)
        assert got[0] == engine[0]
        assert got[1] == real_referee(250.0, m, oracle.QuadConfig(
            abs_tol=1e-12, rel_tol=1e-6, max_subdivisions=300))
        assert got[1] == pytest.approx(engine[1], abs=1e-6)
        assert got[2] == -math.inf

    def test_true_params_beat_perturbed(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        wins = 0
        for seed in range(20):
            obs, neg, _ = _simulate(m, 2000, 500, seed)
            prob = estimate.EstimationProblem(obs, neg, "exp_normal")
            bad = ExpNormal(ExpParams(0.015), NormalParams(150.0, 22.5))
            wins += estimate.loglik(m, prob) > estimate.loglik(bad, prob)
        assert wins >= 19

    def test_support_violation_gives_neg_inf(self):
        s, b = GBParams(1, 0, 1, 1, 1), GBParams(1, 0, 1, 1, 1)
        prob = estimate.EstimationProblem(np.array([0.5, 5.0]), np.array([0.4, 0.6]),
                                          "gb_gb")
        ll = estimate.loglik(GBGB(s, b), prob)
        assert ll == -math.inf

    @pytest.mark.parametrize("kind", ["gb_gb", "gb_normal"])
    def test_gb_loglik_finite_at_truth(self, kind):
        # the batched series must not raise, nor give -inf, where the model
        # has density
        m, genes = simulate.REFERENCE_MODELS[kind]
        for seed in range(12):
            data = simulate.simulate_experiment(m, genes, 100, seed)
            prob = estimate.EstimationProblem(data.observed[data.observed > 0],
                                              data.negatives[data.negatives > 0], kind)
            assert math.isfinite(estimate.loglik(m, prob)), seed

    def test_gb_batch_matches_scalar_series(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        m = GBGB(s, b)
        ps = np.array([0.3, 0.8, 1.2])
        batch = estimate.log_marginal(m, ps)
        for pi, got in zip(ps, batch):
            want = series.marginal_gb_log(float(pi), s, b, CFG)
            assert got == pytest.approx(want, rel=1e-10)


class TestScores:
    def test_gb_normal_noise_block_closed_form_zero(self):
        rng = np.random.default_rng(3)
        s = GBParams(1.1, 0.45, 1.2, 1.7, 2.6)
        neg = np.abs(rng.normal(0.35, 0.07, 50)) + 1e-3
        mu_hat = float(np.mean(neg))
        sig_hat = math.sqrt(float(np.var(neg)))
        m = GBNormal(s, NormalParams(mu_hat, sig_hat))
        obs = _safe_gb_obs(m, 5, rng)
        prob = estimate.EstimationProblem(obs, neg, "gb_normal")
        score = estimate.score_gb_normal(m, prob)
        assert abs(score[0]) < 1e-10 * len(neg)
        assert abs(score[1]) < 1e-10 * len(neg)

    def test_gb_normal_signal_block_fd(self):
        rng = np.random.default_rng(11)
        s = GBParams(1.15, 0.45, 1.2, 1.7, 2.6)
        bn = NormalParams(0.35, 0.07)
        m = GBNormal(s, bn)
        obs = _safe_gb_obs(m, 20, rng)
        neg = np.abs(rng.normal(bn.mu, bn.sigma, 40)) + 0.01
        prob = estimate.EstimationProblem(obs, neg, "gb_normal")
        score = estimate.score_gb_normal(m, prob)
        names = ["a", "c", "d", "u", "v"]
        for i, nm in enumerate(names):
            h = 1e-6 * max(1.0, getattr(s, nm))
            kw = {k: getattr(s, k) for k in names}
            kw[nm] += h
            up = estimate.loglik(GBNormal(GBParams(**kw), bn), prob)
            kw[nm] -= 2 * h
            dn = estimate.loglik(GBNormal(GBParams(**kw), bn), prob)
            fd = (up - dn) / (2 * h)
            tol = max(1e-4, 1e-3 * abs(fd))
            assert abs(score[2 + i] - fd) < tol, nm

    def test_gb_pair_all_blocks_fd(self):
        rng = np.random.default_rng(7)
        s = GBParams(1.1, 0.4, 1.3, 1.8, 2.7)
        b = GBParams(0.9, 0.6, 0.45, 1.3, 2.2)
        m = GBGB(s, b)
        obs = _safe_gb_obs(m, 10, rng)
        neg = dist_sample(b, 30, rng)
        prob = estimate.EstimationProblem(obs, neg, "gb_gb")
        score = estimate.score_gb(m, prob)
        names = ["a", "c", "d", "u", "v"]
        # noise block differentiates the control sum
        for i, nm in enumerate(names):
            h = 1e-7 * max(1.0, getattr(b, nm))
            kw = {k: getattr(b, k) for k in names}
            kw[nm] += h
            up = estimate.noise_loglik(GBGB(s, GBParams(**kw)), prob)
            kw[nm] -= 2 * h
            dn = estimate.noise_loglik(GBGB(s, GBParams(**kw)), prob)
            fd = (up - dn) / (2 * h)
            assert abs(score[i] - fd) < max(1e-4, 1e-3 * abs(fd)), f"noise {nm}"
        # signal block differentiates the gene-marginal sum (the full
        # likelihood moves identically in these directions)
        for i, nm in enumerate(names):
            h = 1e-6 * max(1.0, getattr(s, nm))
            kw = {k: getattr(s, k) for k in names}
            kw[nm] += h
            up = estimate.loglik(GBGB(GBParams(**kw), b), prob)
            kw[nm] -= 2 * h
            dn = estimate.loglik(GBGB(GBParams(**kw), b), prob)
            fd = (up - dn) / (2 * h)
            assert abs(score[5 + i] - fd) < max(1e-4, 1e-3 * abs(fd)), f"signal {nm}"

    def test_blocks_depend_only_on_their_data(self):
        rng = np.random.default_rng(9)
        s = GBParams(1.1, 0.4, 1.3, 1.8, 2.7)
        b = GBParams(0.9, 0.6, 0.45, 1.3, 2.2)
        m = GBGB(s, b)
        neg = dist_sample(b, 30, rng)
        obs_a = _safe_gb_obs(m, 4, rng)
        obs_b = _safe_gb_obs(m, 4, rng)
        sa = estimate.score_gb(m, estimate.EstimationProblem(obs_a, neg, "gb_gb"))
        sb = estimate.score_gb(m, estimate.EstimationProblem(obs_b, neg, "gb_gb"))
        # the noise block reads only the controls, so it is identical across
        # different gene vectors; the signal block is not
        np.testing.assert_allclose(sa[:5], sb[:5], rtol=1e-12)
        assert not np.allclose(sa[5:], sb[5:])

    def test_boundary_c_rejected(self):
        s = GBParams(1, 0.0, 1, 1.5, 2.5)
        b = GBParams(1, 0.5, 1, 1.3, 2.2)
        prob = estimate.EstimationProblem(np.array([0.5]), np.array([0.3]), "gb_gb")
        from beadcorr.errors import DomainError
        with pytest.raises(DomainError):
            estimate.score_gb(GBGB(s, b), prob)


class TestJointCodec:
    @pytest.mark.parametrize("kind", ["exp_normal", "exp_gamma", "gamma_normal",
                                      "exp_lognormal", "gamma_lognormal"])
    def test_round_trip(self, kind):
        m = simulate.REFERENCE_MODELS[kind][0]
        to_vec, from_vec, bounds = estimate._joint_codec(kind)
        x = to_vec(m)
        assert len(x) == len(bounds) == len(param_names(kind))
        # mu is optimized as is, every other parameter on the log scale
        for name, xi, v in zip(param_names(kind), x, model_to_values(m)):
            assert xi == (v if name == "mu" else math.log(v))
        back = from_vec(x)
        assert type(back) is type(m)
        assert model_to_values(back) == pytest.approx(model_to_values(m), rel=1e-15)


class TestFitMle:
    def test_exp_normal_recovery(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 5000, 1000, seed=42)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        fit = estimate.fit_mle(prob)
        assert fit.converged
        assert abs(fit.params.signal.theta - 0.01) / 0.01 < 0.10
        assert abs(fit.params.noise.mu - 100.0) / 100.0 < 0.10
        assert abs(fit.params.noise.sigma - 15.0) / 15.0 < 0.10
        assert fit.loglik >= estimate.loglik(m, prob) - 0.1

    def test_gamma_normal_recovery(self):
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 5000, 1000, seed=7)
        prob = estimate.EstimationProblem(obs, neg, "gamma_normal")
        fit = estimate.fit_mle(prob, estimate.FitBudget(n_starts=3))
        assert abs(fit.params.signal.alpha - 2.0) / 2.0 < 0.15
        assert abs(fit.params.signal.beta - 50.0) / 50.0 < 0.15
        assert abs(fit.params.noise.mu - 100.0) / 100.0 < 0.05
        assert abs(fit.params.noise.sigma - 15.0) / 15.0 < 0.05

    def test_determinism(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 1000, 200, seed=3)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        budget = estimate.FitBudget(seed=5)
        a = estimate.fit_mle(prob, budget)
        b = estimate.fit_mle(prob, budget)
        assert a.params == b.params and a.loglik == b.loglik

    def test_gb_normal_fit_smoke(self):
        # the five-parameter signal block is weakly identified at this sample
        # size; the fit must land near (or above) the true-parameter
        # likelihood, not on it
        s = GBParams(1.0, 0.5, 2.0, 1.5, 2.0)
        bn = NormalParams(0.4, 0.08)
        m = GBNormal(s, bn)
        rng = np.random.default_rng(13)
        obs = dist_sample(s, 150, rng) + rng.normal(bn.mu, bn.sigma, 150)
        obs = obs[obs > 0]
        neg = np.abs(rng.normal(bn.mu, bn.sigma, 150)) + 1e-4
        prob = estimate.EstimationProblem(obs, neg, "gb_normal")
        fit = estimate.fit_mle(prob, estimate.FitBudget(n_starts=2, max_iter=300))
        assert math.isfinite(fit.loglik)
        assert fit.loglik >= estimate.loglik(m, prob) - 5.0
        assert "profile_flatness" in fit.diagnostics
        # noise block is the closed-form control fit
        assert fit.params.noise.mu == pytest.approx(float(np.mean(neg)))


class TestMomentsAndPlugin:
    def test_exp_normal_moment_identity(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 5000, 1000, seed=11)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        fit = estimate.fit_moments(prob)
        expected_theta = 1.0 / (np.mean(obs) - np.mean(neg))
        assert fit.params.signal.theta == pytest.approx(expected_theta, rel=1e-12)
        assert abs(fit.params.signal.theta - 0.01) / 0.01 < 0.10

    def test_gamma_moment_inversion_exact(self):
        # noise-free synthetic moments invert exactly
        rng = np.random.default_rng(23)
        m = GammaNormal(GammaParams(3.0, 20.0), NormalParams(50.0, 10.0))
        obs, neg, _ = _simulate(m, 4000, 2000, seed=23)
        prob = estimate.EstimationProblem(obs, neg, "gamma_normal")
        fit = estimate.fit_moments(prob)
        dm = float(np.mean(obs) - np.mean(neg))
        dv = float(np.var(obs) - np.var(neg))
        assert fit.params.signal.alpha == pytest.approx(dm * dm / dv, rel=1e-12)
        assert fit.params.signal.beta == pytest.approx(dv / dm, rel=1e-12)

    def test_gb_moments_unsupported(self):
        prob = estimate.EstimationProblem(np.array([0.5, 0.8]),
                                          np.array([0.3, 0.4]), "gb_gb")
        with pytest.raises(UnsupportedMethodError):
            estimate.fit_moments(prob)

    def test_plugin_equals_init(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 2000, 500, seed=2)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        assert estimate.fit_plugin(prob).params == estimate.init_params(prob)

    @staticmethod
    def _estimator_errors(n_seeds):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        true = np.array([0.01, 100.0, 15.0])
        errs_mle, errs_mom = [], []
        for seed in range(n_seeds):
            obs, neg, _ = _simulate(m, 2000, 500, seed=seed + 100)
            prob = estimate.EstimationProblem(obs, neg, "exp_normal")
            fm = estimate.fit_mle(prob, estimate.FitBudget(n_starts=2))
            fo = estimate.fit_moments(prob)
            for fit, sink in ((fm, errs_mle), (fo, errs_mom)):
                est = np.array([fit.params.signal.theta, fit.params.noise.mu,
                                fit.params.noise.sigma])
                sink.append(np.sum(((est - true) / true) ** 2))
        return np.array(errs_mle), np.array(errs_mom)

    def test_mle_beats_moments_in_aggregate(self):
        errs_mle, errs_mom = self._estimator_errors(30)
        assert np.mean(errs_mle) < np.mean(errs_mom)
        # the two estimators are highly correlated, so per-seed wins are a
        # weaker ~60-65% majority
        assert np.mean(errs_mle <= errs_mom) > 0.5

    @pytest.mark.xfail(reason="per-replication win rate sits near 65% for this "
                              "model and sample size; only the aggregate MSE "
                              "ordering is a sound property", strict=False)
    def test_mle_beats_moments_per_replication_rate(self):
        errs_mle, errs_mom = self._estimator_errors(30)
        assert np.mean(errs_mle <= errs_mom) >= 0.70
