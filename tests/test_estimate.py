import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from scipy import special

from beadcorr import correct, estimate, oracle, quadrature, series, simulate
from beadcorr.dists import (MODEL_KINDS, ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                            GammaLognormal, GammaNormal, GammaParams, GBGB,
                            GBNormal, GBParams, LognormalParams, NormalParams,
                            dist_logpdf, dist_sample, gb_support_upper,
                            model_from_values, model_to_values, param_names)
from beadcorr.errors import (BeadcorrError, DegenerateControlsError,
                             InvalidParameterError, QuadratureError,
                             SeriesNonConvergenceError, UnsupportedMethodError)



def _simulate(m, I, W, seed):
    rng = np.random.default_rng(seed)
    s = dist_sample(m.signal, I, rng)
    b = dist_sample(m.noise, I, rng)
    neg = dist_sample(m.noise, W, rng)
    obs = s + b
    keep = obs > 0
    return obs[keep], neg, s[keep]


@functools.lru_cache(maxsize=None)
def _gb_recovery_fits(kind):
    """One-start fits of the kind's reference model on seeds 0-2, 200 genes
    and 50 controls each: a list of (fit, problem, dataset)."""
    out = []
    for seed in (0, 1, 2):
        data = simulate.simulate_experiment(simulate.REFERENCE_MODELS[kind][0], 200, 50,
                                            seed=seed)
        prob = estimate.EstimationProblem(data.observed, data.negatives, kind)
        out.append((estimate.fit_mle(prob, estimate.FitBudget(n_starts=1)), prob, data))
    return out


def _safe_gb_obs(m, n, rng):
    out = []
    while len(out) < n:
        p = float(dist_sample(m.signal, 1, rng)[0] + dist_sample(m.noise, 1, rng)[0])
        if p > 0 and series.convergence_ok(m, p):
            out.append(p)
    return np.array(out)


def engine_marginal(ps, m, grad=False):
    """log f_P at every p by the tanh-sinh engine at the likelihood's target,
    -inf where it does not certify the value, and with grad the Fisher rows,
    NaN where it does not certify them."""
    res = quadrature.log_integrals(np.asarray(ps, dtype=float), m,
                                   estimate._fisher_weights(m) if grad else None,
                                   estimate._LIKELIHOOD_REL_TOL)
    out = np.where(res.ok, res.log_f, -np.inf)
    return (out, np.where(res.means_ok, res.means, np.nan)) if grad else out


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_requires_finite_intensities(self, bad):
        good = np.array([150.0, 170.0, 200.0])
        for obs, neg in ((np.array([150.0, bad, 200.0]), good),
                         (good, np.array([95.0, bad]))):
            with pytest.raises(InvalidParameterError, match="finite"):
                estimate.EstimationProblem(obs, neg, "exp_normal")

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError):
            estimate.EstimationProblem(np.array([1.0]), np.array([1.0]), "bogus")

    def test_problems_compare_by_identity(self):
        # equal arrays of more than one gene have no single truth value, so
        # problems compare (and hash) by identity, never raising
        obs, neg = np.array([120.0, 130.0]), np.array([95.0, 105.0])
        a = estimate.EstimationProblem(obs, neg, "exp_normal")
        b = estimate.EstimationProblem(obs.copy(), neg.copy(), "exp_normal")
        assert a == a and a != b
        table = {a: 1}
        assert table[a] == 1 and b not in table

    @pytest.mark.parametrize("field,value", [("n_starts", 0), ("n_starts", -4),
                                             ("max_iter", 0), ("max_iter", -1),
                                             ("seed", -1)])
    def test_budget_out_of_range_refused(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            estimate.FitBudget(**{field: value})

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
                    assert series.convergence_ok(m, p), (m, p)
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
        p_grid, den = correct.gamma_normal_grid(300.0, g, b)
        assert p_grid.size == den.size > 0
        assert p_grid[0] == b.mu - 12.0 * b.sigma
        got = estimate.log_marginal(GammaNormal(g, b), ps)
        assert got.shape == ps.shape
        assert not np.any(np.isnan(got))

    def test_gamma_normal_far_above_the_gamma_bulk(self):
        # the largest p reaches past the gamma's 1 - 1e-13 quantile, where
        # the trimmed grid equals the one the quantile set before; p = 150
        # lies close enough to mu for the endpoint terms at s = 0 to count
        m = simulate.REFERENCE_MODELS["gamma_normal"][0]
        got = estimate.log_marginal(m, [150.0, 300.0, 800.0, 2500.0])
        want = [-4.96122175503868, -6.5034856314308715, -15.234414999492877]
        np.testing.assert_allclose(got[:3], want, rtol=1e-12)
        assert got[0] == pytest.approx(oracle.marginal_log_pdf_quadrature(150.0, m),
                                       rel=1e-12)
        assert not math.isnan(got[3]) and got[3] < got[2]

    def test_gamma_normal_trimmed_grid_matches_a_longer_grid(self):
        # a gene far out lengthens the grid; the other genes keep their
        # values up to FFT rounding
        m = simulate.REFERENCE_MODELS["gamma_normal"][0]
        ps = np.linspace(120.0, 500.0, 20)
        short = estimate.log_marginal(m, ps)
        long = estimate.log_marginal(m, np.append(ps, 3000.0))[:-1]
        np.testing.assert_allclose(short, long, rtol=1e-12)

    def test_a_gene_past_the_grid_extent_takes_the_engine(self):
        # one far gene neither stretches the grid past the model's extent
        # nor sends the array to the engine: the other genes keep their grid
        # values, and the far gene reads the engine's
        m = GammaNormal(GammaParams(2.0, 20.0), NormalParams(100.0, 15.0))
        g, b = m.signal, m.noise
        ps = np.random.default_rng(0).uniform(60.0, 400.0, 300)
        far = np.append(ps, 1e6)
        extent = correct.gamma_normal_extent(g, b)
        assert ps.max() < extent < far[-1]
        dens, _ = correct.gamma_normal_density(ps, g, b, extent)
        for grad in (False, True):
            short = estimate.log_marginal(m, ps, grad)
            long = estimate.log_marginal(m, far, grad)
            engine = engine_marginal(far[-1:], m, grad)
            if grad:
                (short, short_rows), (long, long_rows) = short, long
                engine, engine_rows = engine
                # the rows keep the grid's FFT rounding, which moves with
                # its length (up to 5e-10 of a row's scale here)
                scale = np.max(np.abs(short_rows), axis=1, keepdims=True)
                assert np.all(np.abs(long_rows[:, :-1] - short_rows) <= 1e-8 * scale)
                np.testing.assert_array_equal(long_rows[:, -1:], engine_rows)
            np.testing.assert_array_equal(long[:-1], np.log(dens))
            np.testing.assert_allclose(long[:-1], short, rtol=1e-12)
            assert math.isfinite(engine[0]) and long[-1] == engine[0]

    def test_uncertified_genes_read_minus_inf(self, monkeypatch):
        # shape < 1: every gene takes the engine; a gene whose value it
        # cannot certify reads -inf, and a gene whose score rows it cannot
        # certify reads NaN rows, so the score is not finite; nothing raises
        # and the referee's QUADPACK answers no gene
        m = GammaNormal(GammaParams(0.8, 50.0), NormalParams(100.0, 15.0))
        ps = np.array([150.0, 250.0, 400.0])
        engine, engine_rows = estimate.log_marginal(m, ps, grad=True)
        real = quadrature.log_integrals

        def refuse(p, model, weights=None, rel_tol=1e-8):
            res = real(p, model, weights, rel_tol)
            res.ok[p == 250.0] = False
            res.means_ok[p >= 250.0] = False
            return res

        def no_quadpack(*args, **kwargs):
            raise AssertionError("QUADPACK called for a production gene")

        monkeypatch.setattr(quadrature, "log_integrals", refuse)
        monkeypatch.setattr(oracle, "quad", no_quadpack)
        got = estimate.log_marginal(m, ps)
        assert got[0] == engine[0] and got[2] == engine[2]
        assert got[1] == -math.inf
        got, rows = estimate.log_marginal(m, ps, grad=True)
        assert got[0] == engine[0] and got[1] == -math.inf and got[2] == engine[2]
        np.testing.assert_array_equal(rows[:, 0], engine_rows[:, 0])
        assert np.isnan(rows[:, 1:]).all()
        prob = estimate.EstimationProblem(ps[[0, 2]], np.array([95.0, 105.0]), m.kind)
        value, score, _ = estimate.loglik_score(m, prob)
        assert math.isfinite(value) and np.isnan(score).any()

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

    @pytest.mark.parametrize("kind", ["gamma_lognormal", "gb_gb", "gb_normal"])
    def test_engine_routed_likelihoods_match_the_referee(self, kind):
        # the engine's likelihood: gb_gb's route, and for gamma_lognormal and
        # gb_normal the genes their tilt leaves to it, called directly here
        m = simulate.REFERENCE_MODELS[kind][0]
        ps = simulate.simulate_experiment(m, 12, 2, seed=3).observed
        got = engine_marginal(ps, m)
        if correct.ROUTES[kind] == "quadrature":
            np.testing.assert_array_equal(estimate.log_marginal(m, ps), got)
        want = [oracle.marginal_log_pdf_quadrature(float(p), m) for p in ps]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


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

    def test_array_score_is_the_sum_of_its_genes(self):
        # on the criterion-5 draws: each gene's score is the one it has alone,
        # in any order
        import test_acceptance
        draws = test_acceptance.TestCriterion5Scores()
        for seed, draw, score in ((505, draws._draw_gb_pair_problem, estimate.score_gb),
                                  (515, draws._draw_gb_normal_problem,
                                   estimate.score_gb_normal)):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                m, prob = draw(rng)
                whole = score(m, prob)
                alone = sum(score(m, estimate.EstimationProblem(
                    prob.observed[i:i + 1], prob.negatives, prob.model_kind))
                    for i in range(prob.observed.size))
                # the control block enters every one-gene problem
                k = 5 if m.kind == "gb_gb" else 2
                np.testing.assert_allclose(whole[k:], alone[k:], rtol=1e-12)
                rev = score(m, estimate.EstimationProblem(
                    prob.observed[::-1], prob.negatives, prob.model_kind))
                np.testing.assert_allclose(rev, whole, rtol=1e-12)

    @staticmethod
    def _reference_problem(kind, signal_c, noise_c=None):
        m, genes = simulate.REFERENCE_MODELS[kind]
        data = simulate.simulate_experiment(m, genes, max(genes // 4, 50), seed=7)
        noise = m.noise if noise_c is None else dataclasses.replace(m.noise, c=noise_c)
        return (type(m)(dataclasses.replace(m.signal, c=signal_c), noise),
                estimate.EstimationProblem(data.observed, data.negatives, kind))

    @staticmethod
    def _assert_blocks_match_central_differences(m, prob, score):
        """Criterion 5's check: the noise block against central differences
        of the control sum, the signal block against those of loglik; at
        c = 0 or 1 the difference in c steps inside [0, 1] only."""
        signal_at = 5 if m.kind == "gb_gb" else 2
        blocks = [(m.signal, signal_at, estimate.loglik, lambda g: type(m)(g, m.noise))]
        if m.kind == "gb_gb":
            blocks.append((m.noise, 0, estimate.noise_loglik,
                           lambda g: type(m)(m.signal, g)))
        for g, first, f, build in blocks:
            for i, name in enumerate(("a", "c", "d", "u", "v")):
                h = 1e-6 * max(1.0, getattr(g, name))
                lo, hi = getattr(g, name) - h, getattr(g, name) + h
                if name == "c":
                    lo, hi = max(lo, 0.0), min(hi, 1.0)
                up = f(build(dataclasses.replace(g, **{name: hi})), prob)
                dn = f(build(dataclasses.replace(g, **{name: lo})), prob)
                fd = (up - dn) / (hi - lo)
                got = score[first + i]
                assert abs(got - fd) <= max(1e-4, 1e-3 * abs(fd)), (name, got, fd)

    def test_gb_normal_score_takes_genes_at_or_below_the_noise_mean(self):
        # the series has no formulation at p <= mu; Fisher's identity on the
        # engine's nodes scores every gene the likelihood answers
        m, prob = self._reference_problem("gb_normal", 0.5)
        assert np.sum(prob.observed <= m.noise.mu) == 2
        score = estimate.score_gb_normal(m, prob)
        assert np.all(np.isfinite(score))
        self._assert_blocks_match_central_differences(m, prob, score)

    @pytest.mark.parametrize("kind", ["gb_normal", "gb_gb"])
    def test_gb_score_is_the_likelihoods_gradient_on_its_route(self, kind):
        # score_gb's signal block and loglik_score's signal gradient average
        # the same Fisher rows on the same route, the tilt for gb_normal and
        # the engine for gb_gb: they differ in the order of the sum alone
        m, genes = simulate.REFERENCE_MODELS[kind]
        for seed in (0, 1, 2, 7):
            data = simulate.simulate_experiment(m, genes, max(genes // 4, 50), seed)
            prob = estimate.EstimationProblem(data.observed, data.negatives, kind)
            _, grad, rows = estimate.loglik_score(m, prob)
            scale = np.abs(rows[:5, :data.observed.size]).sum(axis=1)
            gap = np.abs(estimate.score_gb(m, prob)[-5:] - grad[:5])
            assert np.all(gap <= 1e-15 * scale), (seed, gap / scale)

    def test_gb_score_takes_genes_past_the_series_cap(self):
        m, prob = self._reference_problem("gb_gb", 0.999, 0.999)
        with pytest.raises(SeriesNonConvergenceError, match="past the cap"):
            for p in prob.observed.tolist():
                series.gb_pair_den_series(p, m.signal, m.noise)
        score = estimate.score_gb(m, prob)
        assert np.all(np.isfinite(score))
        self._assert_blocks_match_central_differences(m, prob, score)

    def test_uncertified_gene_refuses_the_score_and_the_gradient_norm(self, monkeypatch):
        # a gene whose score the engine does not certify: the score names it,
        # and a fit reports no gradient norm
        real = quadrature.log_integrals

        def refuse_second(p, m, weights=None, rel_tol=1e-8):
            res = real(p, m, weights, rel_tol)
            if res.means.shape[0] == 5:
                # the score's signal block alone: the likelihood's ten rows
                # stay certified, so the fit has points to step to
                res.means_ok[1:2] = False
            return res

        rng = np.random.default_rng(5)
        s, b = GBParams(1.1, 0.4, 1.3, 1.8, 2.7), GBParams(0.9, 0.6, 0.45, 1.3, 2.2)
        m = GBGB(s, b)
        prob = estimate.EstimationProblem(_safe_gb_obs(m, 6, rng), dist_sample(b, 20, rng),
                                          "gb_gb")
        assert np.all(np.isfinite(estimate.score_gb(m, prob)))
        monkeypatch.setattr(quadrature, "log_integrals", refuse_second)
        with pytest.raises(QuadratureError, match=r"gene 1 \(p="):
            estimate.score_gb(m, prob)
        fit = estimate.fit_mle(prob, estimate.FitBudget(n_starts=1, max_iter=30))
        assert math.isfinite(fit.loglik) and fit.gradient_norm is None

    @pytest.mark.parametrize("v", [0.8, 1.0, 2.0])
    def test_signal_support_end_against_central_differences(self, v):
        # for c < 1 the signal's support ends at d/(1 - c)^(1/a), which moves
        # with a, c and d.  Its density vanishes there only for v > 1, where
        # Fisher's identity needs no boundary term; with v <= 1 the genes
        # whose integral reaches that end are refused, and the others agree
        s = GBParams(1.2, 0.5, 2.0, 1.5, v)
        m = GBGB(s, GBParams(1.0, 0.5, 0.5, 1.5, 2.0))
        end = gb_support_upper(s)
        below = estimate.EstimationProblem(np.array([0.3 * end, 0.6 * end]),
                                           np.array([0.3, 0.4]), "gb_gb")
        past = estimate.EstimationProblem(np.array([0.6 * end, end + 0.2]),
                                          np.array([0.3, 0.4]), "gb_gb")
        self._assert_blocks_match_central_differences(m, below, estimate.score_gb(m, below))
        if v > 1.0:
            self._assert_blocks_match_central_differences(m, past, estimate.score_gb(m, past))
        else:
            with pytest.raises(QuadratureError, match="gene 1"):
                estimate.score_gb(m, past)
        # the likelihood's score follows the same rule: a refused gene's rows
        # read NaN, so the optimizer reads the point as not finite.  Under
        # normal noise every gene's integral reaches the end.
        gn = GBNormal(s, NormalParams(0.5, 0.2))
        for model, prob, refused in ((m, below, ()), (m, past, (1,)),
                                     (gn, dataclasses.replace(past, model_kind="gb_normal"),
                                      (0, 1))):
            _, grad, rows = estimate.loglik_score(model, prob)
            if v > 1.0 or not refused:
                self._assert_gradient_matches_central_differences(model, prob, grad)
            else:
                n = prob.observed.size
                assert [i for i in range(n) if np.isnan(rows[:, i]).all()] == list(refused)
                assert np.isnan(grad).all()

    @staticmethod
    def _assert_gradient_matches_central_differences(m, prob, grad):
        """``loglik_score``'s gradient against central differences of
        loglik in every parameter."""
        values = np.array(model_to_values(m))
        for i, name in enumerate(param_names(m.kind)):
            h = 1e-6 * max(1.0, abs(values[i]))
            lo, hi = values.copy(), values.copy()
            lo[i] -= h
            hi[i] += h
            if name.startswith("c"):
                lo[i], hi[i] = max(lo[i], 0.0), min(hi[i], 1.0)
            fd = (estimate.loglik(model_from_values(m.kind, hi), prob)
                  - estimate.loglik(model_from_values(m.kind, lo), prob)) / (hi[i] - lo[i])
            assert abs(grad[i] - fd) <= max(1e-4, 1e-3 * abs(fd)), (name, grad[i], fd)

    def test_gb_normal_score_at_integer_grid_arguments(self):
        # a(u + i) is an integer at every grid row, so the binomial grid's
        # digamma factors land on poles at its zero coefficients
        m, prob = self._reference_problem("gb_normal", 0.999)
        keep = []
        for p in prob.observed.tolist():
            try:
                series.gb_normal_den_series(p, m.signal, m.noise)
                keep.append(p)
            except BeadcorrError:
                pass
        assert len(keep) > 200
        prob = estimate.EstimationProblem(np.array(keep), prob.negatives, "gb_normal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = estimate.score_gb_normal(m, prob)
        assert np.all(np.isfinite(score))

    @pytest.mark.parametrize("kind", ["gamma_lognormal", "gb_normal"])
    def test_tilt_scores_against_central_differences(self, kind):
        # every gene of the seed-7 reference array takes its score from the
        # tilt's Fisher rows; the gradient against central differences of
        # loglik in every parameter
        m, genes = simulate.REFERENCE_MODELS[kind]
        data = simulate.simulate_experiment(m, genes, max(genes // 4, 50), seed=7)
        prob = estimate.EstimationProblem(data.observed, data.negatives, kind)
        res = quadrature.tilt_integrals(prob.observed, m, estimate._fisher_weights(m),
                                        estimate._LIKELIHOOD_REL_TOL)
        assert res.means_ok.all()
        _, grad, _ = estimate.loglik_score(m, prob)
        self._assert_gradient_matches_central_differences(m, prob, grad)

    @pytest.mark.parametrize("kind, c", [("gb_gb", 1.0), ("gb_normal", 1.0),
                                         ("gb_gb", 0.0)])
    def test_score_at_the_ends_of_c(self, kind, c):
        # every reference GB block has c = 1; Fisher's identity holds at either
        # end of [0, 1], where the difference in c is one-sided
        m, prob = self._reference_problem(kind, c, c if kind == "gb_gb" else None)
        score = (estimate.score_gb if kind == "gb_gb" else estimate.score_gb_normal)(m, prob)
        assert np.all(np.isfinite(score))
        self._assert_blocks_match_central_differences(m, prob, score)


def _fd_score(m, prob, rel_step=1e-6):
    """Central differences of estimate.loglik in every parameter."""
    values = model_to_values(m)
    out = []
    for k, v in enumerate(values):
        step = rel_step * abs(v)
        up, down = list(values), list(values)
        up[k] += step
        down[k] -= step
        out.append((estimate.loglik(model_from_values(m.kind, up), prob)
                    - estimate.loglik(model_from_values(m.kind, down), prob)) / (2 * step))
    return np.array(out)


def _twelve_fft_rows(p_max, g, b):
    """The grid's sums and their derivative rows at every node, with the
    node held at its index, by the twelve-transform formula that the four
    convolutions replaced: the reference of ``_Grid._node_rows``."""
    from scipy import fft
    h, d_h = correct._grid_step(g, b)
    n_s = int(max(p_max - b.mu + 12.0 * b.sigma, h) / h) + 1
    n_b = int(24.0 * b.sigma / h) + 1
    n_p = n_s + n_b - 1
    s = np.arange(n_s) * h
    fs = np.exp(dist_logpdf(g, s))
    y = np.arange(n_b) * h
    fb = np.exp(dist_logpdf(b, b.mu - 12.0 * b.sigma + y))
    n = fft.next_fast_len(n_p, real=True)
    f_s, f_b = fft.rfft(fs, n), fft.rfft(fb, n)
    den = fft.irfft(f_s * f_b, n)[:n_p] * h
    z = y / b.sigma - 12.0
    log_s = np.log(np.where(s > 0.0, s, 1.0))
    f_alpha, f_beta, f_slope = fft.rfft(np.stack([
        fs * (log_s - math.log(g.beta) - special.psi(g.alpha)),
        fs * (s / g.beta ** 2 - g.alpha / g.beta),
        fs * ((g.alpha - 1.0) - s / g.beta)]), n)
    f_sigma, f_step = fft.rfft(np.stack([fb * (z * z + 12.0 * z - 1.0) / b.sigma,
                                         -fb * z * y / b.sigma]), n)
    conv = fft.irfft(np.stack([f_alpha * f_b, f_beta * f_b, f_s * f_sigma,
                               f_slope * f_b + f_s * f_step]), n)[:, :n_p]
    rows = (np.stack([conv[0], conv[1], np.zeros(n_p), conv[2]]) * h
            + np.outer(d_h, den / h + conv[3]))
    return den, rows


def _per_gene_endpoint_alpha(p, g, b, h):
    """d/dalpha of the grid's endpoint terms at every p by the central
    difference of every gene's weights zeta(1 - alpha - k) psi(0) h^(alpha + k):
    the reference of the per-order difference in ``_Grid._endpoint_terms``."""
    k = np.arange(4)
    a1 = (p - b.mu) / b.sigma ** 2 - 1.0 / g.beta
    a2 = 0.5 / b.sigma ** 2
    t = np.stack([np.ones_like(a1), a1, 0.5 * a1 * a1 - a2, a1 ** 3 / 6.0 - a1 * a2])
    log_h = math.log(h)
    log_lead = (g.alpha * (log_h - math.log(g.beta)) - special.gammaln(g.alpha)
                + dist_logpdf(b, p))

    def weights(alpha):
        log_z, sign = correct._log_zeta_one_minus(alpha + k)
        return sign[:, None] * np.exp(log_lead + (log_z + k * log_h)[:, None])

    step = 1e-6 * g.alpha
    d_w = (weights(g.alpha + step) - weights(g.alpha - step)) / (2.0 * step)
    e = (weights(g.alpha) * t).sum(axis=0)
    return e * (log_h - math.log(g.beta) - special.psi(g.alpha)) + (d_w * t).sum(axis=0)


class TestClosedFormScores:
    """loglik_score against central differences of the likelihood itself."""

    CASES = [
        ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0)),
        # lam = 1/beta - theta > 0, and lam < 0
        ExpGamma(ExpParams(0.05), GammaParams(2.0, 4.0)),
        ExpGamma(ExpParams(0.5), GammaParams(2.0, 4.0)),
        # the grid step h = min(sigma, beta)/48: sigma < beta, sigma > beta,
        # sigma = beta, sigma just below beta
        GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0)),
        GammaNormal(GammaParams(3.0, 10.0), NormalParams(100.0, 30.0)),
        GammaNormal(GammaParams(2.0, 15.0), NormalParams(100.0, 15.0)),
        GammaNormal(GammaParams(2.0, 15.2), NormalParams(100.0, 15.0)),
        # shape below 1: every gene takes the engine
        GammaNormal(GammaParams(0.8, 50.0), NormalParams(100.0, 15.0)),
        # the exp_lognormal tilt, and the engine's Fisher rows
        simulate.REFERENCE_MODELS["exp_lognormal"][0],
        simulate.REFERENCE_MODELS["gamma_lognormal"][0],
        # sigma past the series gate's limit, which the tilt does not read
        ExpLognormal(ExpParams(0.08), LognormalParams(1.3, series.LN_SIGMA_MAX + 0.5)),
    ]

    @pytest.mark.parametrize("m", CASES, ids=lambda m: f"{m.kind}-{model_to_values(m)}")
    def test_score_matches_central_differences(self, m):
        obs, neg, _ = _simulate(m, 300, 100, seed=1)
        prob = estimate.EstimationProblem(obs, neg, m.kind)
        value, score, _ = estimate.loglik_score(m, prob)
        assert value == estimate.loglik(m, prob)
        fd = _fd_score(m, prob)
        np.testing.assert_allclose(score, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))

    #: the grid's models: CASES at shape >= 1, a shape near 1, and large
    #: shapes with the step set by beta
    GRID_CASES = [m for m in CASES if m.kind == "gamma_normal" and m.signal.alpha >= 1.0] + [
        GammaNormal(GammaParams(1.05, 20.0), NormalParams(100.0, 20.0)),
        GammaNormal(GammaParams(30.0, 1.0 / 30.0), NormalParams(100.0, 15.0)),
        GammaNormal(GammaParams(300.0, 1.0 / 30.0), NormalParams(100.0, 15.0)),
    ]

    @pytest.mark.parametrize("m", GRID_CASES, ids=lambda m: f"{model_to_values(m)}")
    def test_grid_rows_from_four_convolutions(self, m):
        # the derivative rows are linear in four convolutions; they agree
        # with the twelve-transform rows at every node, and the sums and
        # densities read the same bits with and without grad
        g, b = m.signal, m.noise
        p_max = correct.gamma_normal_extent(g, b)
        want_den, want = _twelve_fft_rows(p_max, g, b)
        grid = correct._Grid(np.empty(0), p_max, g, b, grad=True)
        conv = grid.sums(g.alpha, grad=True)
        np.testing.assert_array_equal(conv[0] * grid.h, want_den)
        np.testing.assert_array_equal(grid.sums(g.alpha)[0], conv[0])
        got = grid._node_rows(g.alpha, conv)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        obs, _, _ = _simulate(m, 300, 1, seed=1)
        plain = correct.gamma_normal_density(obs, g, b, float(np.max(obs)))
        graded = correct.gamma_normal_density(obs, g, b, float(np.max(obs)), grad=True)
        np.testing.assert_array_equal(graded[0], plain[0])
        assert graded[1] == plain[1]

    @pytest.mark.parametrize("m", GRID_CASES, ids=lambda m: f"{model_to_values(m)}")
    def test_endpoint_derivative_per_order(self, m):
        # one central difference per order, times each gene's psi(0) h^alpha,
        # against the per-gene difference of the weights: both carry the
        # difference's rounding, up to about 1e-10 of the row's scale
        g, b = m.signal, m.noise
        obs, _, _ = _simulate(m, 300, 1, seed=1)
        grid = correct._Grid(obs, float(np.max(obs)), g, b)
        e, de = grid._endpoint_terms(g.alpha, True)
        np.testing.assert_array_equal(e, grid._endpoint_terms(g.alpha, False))
        want = _per_gene_endpoint_alpha(obs, g, b, grid.h)
        assert np.all(np.abs(de[0] - want) <= 1e-9 * np.max(np.abs(want)))

    def test_exp_lognormal_tilt_scores_its_genes(self):
        # the tilt certifies every gene of the reference model, value and
        # score, at the likelihood's target; the likelihood reads its
        # answer, and its Fisher rows are the engine's
        m = simulate.REFERENCE_MODELS["exp_lognormal"][0]
        obs, _, _ = _simulate(m, 300, 1, seed=1)
        res = quadrature.tilt_integrals(obs, m, estimate._fisher_weights(m),
                                        estimate._LIKELIHOOD_REL_TOL)
        assert res.ok.all() and res.means_ok.all() and np.all(np.isfinite(res.means))
        lm, rows = estimate.log_marginal(m, obs, grad=True)
        np.testing.assert_array_equal(lm, res.log_f)
        np.testing.assert_array_equal(rows, res.means)
        _, engine = engine_marginal(obs, m, True)
        np.testing.assert_allclose(rows, engine, rtol=1e-5, atol=1e-6 * np.max(np.abs(rows)))

    def test_exp_lognormal_genes_the_tilt_does_not_certify_take_the_engine(self):
        # far above the noise the mass sits both at the noise's mode and at
        # z_p, and the bottom panel cannot resolve the first: the tilt
        # certifies neither value nor score at p = 800, and the value alone
        # at p = 450, which keeps the tilt's value; p <= 0 reads -inf
        m = simulate.REFERENCE_MODELS["exp_lognormal"][0]
        obs = np.array([3.0, 800.0, -1.0, 450.0, 10.0])
        res = quadrature.tilt_integrals(obs, m, estimate._fisher_weights(m),
                                        estimate._LIKELIHOOD_REL_TOL)
        assert res.ok.tolist() == [True, False, True, True, True]
        assert res.means_ok.tolist() == [True, False, True, False, True]
        lm, rows = estimate.log_marginal(m, obs, grad=True)
        engine, engine_rows = engine_marginal(obs[[1, 3]], m, True)
        assert lm[1] == engine[0] and lm[3] == res.log_f[3]
        np.testing.assert_array_equal(rows[:, [1, 3]], engine_rows)
        np.testing.assert_array_equal(rows[:, [0, 4]], res.means[:, [0, 4]])
        assert lm[2] == -np.inf and np.all(np.isfinite(rows[:, [0, 1, 3, 4]]))
        np.testing.assert_array_equal(estimate.log_marginal(m, obs), lm)

    def test_faint_gamma_normal_genes(self):
        # genes below the noise grid and far in the grid's tail take the engine
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(500.0, 10.0))
        prob = estimate.EstimationProblem(
            np.array([100.0, 300.0, 380.0, 400.0, 420.0, 600.0, 700.0]),
            np.array([495.0, 505.0, 500.0]), "gamma_normal")
        _, score, _ = estimate.loglik_score(m, prob)
        np.testing.assert_allclose(score, _fd_score(m, prob), rtol=1e-6)

    @pytest.mark.parametrize("grad", [False, True])
    @pytest.mark.parametrize("far", [-1e300, -1e200, -1e100, 100.0 - 13.0 * 15.0])
    def test_gamma_normal_genes_below_the_grid_take_the_engine(self, far, grad):
        # the likelihood's grid reads no gene below its first node
        # mu - 12 sigma, where its cubic weights and Taylor terms overflowed:
        # the engine reads such a gene, -inf where its marginal is 0 even in
        # logs, and the gene on the grid keeps its bits
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        parts = [estimate.log_marginal(m, np.array([far, 120.0]), grad),
                 engine_marginal(np.array([far]), m, grad),
                 estimate.log_marginal(m, np.array([120.0]), grad)]
        got, engine, on_grid = parts if grad else [[part] for part in parts]
        for got_part, engine_part, grid_part in zip(got, engine, on_grid):
            np.testing.assert_array_equal(got_part[..., :1], engine_part)
            np.testing.assert_array_equal(got_part[..., 1:], grid_part)
        assert got[0][0] == -np.inf or far > -1e99

    @pytest.mark.parametrize("m, ps", [
        # lam > 0, and p where the regularized gamma underflows below 1e-290
        (ExpGamma(ExpParams(0.5), GammaParams(50.0, 1.0)), [1e-5, 2e-5, 40.0, 60.0, -1.0]),
        (ExpGamma(ExpParams(0.05), GammaParams(2.0, 4.0)), [5.0, 20.0, 60.0]),
        # lam < 0: the series and the asymptotic expansion
        (ExpGamma(ExpParams(0.5), GammaParams(2.0, 4.0)), [5.0, 30.0, 3000.0, 0.0]),
    ])
    def test_exp_gamma_score_from_four_integrals(self, m, ps):
        # log L at alpha, alpha + 1 and alpha +- step in one call gives the
        # bits of four separate calls, one shape each
        e, g = m.signal, m.noise
        p = np.array(ps)
        lam, pos = 1.0 / g.beta - e.theta, p > 0
        pp = p[pos]
        if g.alpha == 50.0:
            reg = special.gammainc(g.alpha, lam * pp)
            assert np.any(reg <= 1e-290) and np.any(reg > 1e-290)
        step = estimate._ALPHA_STEP * g.alpha
        log_l, log_up, log_plus, log_minus = (
            correct.log_truncated_gamma_integral(a, lam, pp)
            for a in (g.alpha, g.alpha + 1.0, g.alpha + step, g.alpha - step))
        want = np.full(p.shape, -np.inf)
        want[pos] = (math.log(e.theta) - e.theta * pp - g.alpha * math.log(g.beta)
                     - special.gammaln(g.alpha) + log_l)
        mean = np.exp(log_up - log_l)
        want_rows = np.zeros((3, p.size))
        want_rows[:, pos] = [1.0 / e.theta - pp + mean,
                             (log_plus - log_minus) / (2.0 * step) - math.log(g.beta)
                             - special.psi(g.alpha),
                             mean / g.beta ** 2 - g.alpha / g.beta]
        out, rows = estimate._log_marginal_exp_gamma(p, e, g, grad=True)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(estimate._log_marginal_exp_gamma(p, e, g), want)

    def test_noise_score_is_zero_at_the_control_fit(self):
        neg = np.array([90.0, 97.0, 104.0, 111.0, 125.0])
        mu, sd = float(np.mean(neg)), float(np.std(neg))
        score = estimate._density_rows(NormalParams(mu, sd), neg).sum(axis=1)
        np.testing.assert_allclose(score, 0.0, atol=1e-12)

    @pytest.mark.parametrize("noise", [NormalParams(100.0, 15.0), GammaParams(2.0, 4.0),
                                       LognormalParams(3.0, 1.5), ExpParams(0.05)],
                             ids=["normal", "gamma", "lognormal", "exp"])
    def test_noise_rows_match_central_differences(self, noise):
        # one row per control: the derivatives of that control's log density
        x = np.array([3.0, 8.0, 90.0, 104.0, 131.0])
        rows = estimate._density_rows(noise, x)
        values = list(dataclasses.astuple(noise))
        assert rows.shape == (len(values), x.size)
        for k in range(len(values)):
            step = 1e-6 * values[k]
            up, down = list(values), list(values)
            up[k] += step
            down[k] -= step
            fd = (dist_logpdf(type(noise)(*up), x)
                  - dist_logpdf(type(noise)(*down), x)) / (2 * step)
            np.testing.assert_allclose(rows[k], fd, rtol=1e-6, atol=1e-9)

    def test_score_rows_sum_to_the_score(self):
        m = simulate.REFERENCE_MODELS["gamma_normal"][0]
        obs, neg, _ = _simulate(m, 50, 20, seed=2)
        prob = estimate.EstimationProblem(obs, neg, m.kind)
        value, score, rows = estimate.loglik_score(m, prob)
        assert value == estimate.loglik(m, prob)
        assert rows.shape == (4, obs.size + neg.size)
        # a control moves only the two noise parameters
        assert np.all(rows[:2, obs.size:] == 0.0)
        np.testing.assert_allclose(rows.sum(axis=1), score, rtol=1e-12)

    def test_one_engine_call_per_gamma_normal_evaluation(self, monkeypatch):
        # shape < 1: the grid refuses the array, and one engine call gives
        # every gene's value and score
        m = GammaNormal(GammaParams(0.8, 50.0), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 300, 100, seed=1)
        prob = estimate.EstimationProblem(obs, neg, m.kind)
        real, calls = quadrature.log_integrals, []

        def counted(*args, **kwargs):
            calls.append(args[0].size)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "log_integrals", counted)
        value, _, _ = estimate.loglik_score(m, prob)
        assert calls == [obs.size]
        assert value == estimate.loglik(m, prob)

    def test_gamma_normal_at_large_shape(self):
        # zeta(1 - alpha - k) overflows where psi(0) h^alpha underflows; the
        # endpoint terms take their product in logs, so the grid reads no
        # NaN and warns of nothing
        m = GammaNormal(GammaParams(300.0, 1.0 / 30.0), NormalParams(50.0, 20.0))
        ps = np.array([30.0, 60.0, 90.0])
        prob = estimate.EstimationProblem(ps, np.array([45.0, 55.0]), m.kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dens, _ = correct.gamma_normal_density(ps, m.signal, m.noise, float(np.max(ps)))
            value, score, _ = estimate.loglik_score(m, prob)
        assert np.all(np.isfinite(score)) and math.isfinite(value)
        want = [oracle.marginal_log_pdf_quadrature(p, m) for p in ps]
        np.testing.assert_allclose(np.log(dens), want, rtol=0, atol=1e-8)


class TestJointCodec:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip(self, kind):
        m = simulate.REFERENCE_MODELS[kind][0]
        # GB values inside the caps and off the c clip
        inside = GBParams(1.1, 0.4, 1.3, 1.8, 2.7)
        m = type(m)(*(inside if isinstance(g, GBParams) else g for g in (m.signal, m.noise)))
        names, values = param_names(kind), model_to_values(m)
        to_vec, from_vec, bounds = estimate._codec(names)
        x = to_vec(values)
        assert len(x) == len(bounds) == len(names)
        # mu is optimized as is, c through the logit, every other parameter
        # on the log scale
        for name, xi, v in zip(names, x, values):
            key = name.rstrip("12")
            assert xi == (v if key == "mu" else estimate._logit(v) if key == "c"
                          else math.log(v))
        back, factor = from_vec(x)
        assert back == pytest.approx(values, rel=1e-14)
        # the chain-rule factor is d value/dx
        for i in range(len(x)):
            up, down = list(x), list(x)
            up[i] += 1e-6
            down[i] -= 1e-6
            fd = (from_vec(up)[0][i] - from_vec(down)[0][i]) / 2e-6
            assert factor[i] == pytest.approx(fd, rel=1e-6), names[i]

    def test_factor_vanishes_past_a_cap(self):
        to_vec, from_vec, _ = estimate._codec(param_names("gb_normal"))
        clip = estimate._LOGIT_CLIP
        # past the upper ends of a, c and v, and below the lower end of u
        x = [math.log(60.0), clip + 0.5, 0.0, math.log(5e-3), math.log(2e4), 1.0, 0.0]
        values, factor = from_vec(x)
        assert values[:5] == pytest.approx([50.0, 1.0 / (1.0 + math.exp(-clip)), 1.0, 1e-2, 1e4],
                                           rel=1e-14)
        assert factor[[0, 1, 3, 4]].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert factor[[2, 5, 6]].tolist() == [1.0, 1.0, 1.0]
        # below the lower ends of a, c and v, and past the upper end of u
        x = [math.log(0.01), -clip - 0.5, 0.0, math.log(2e4), math.log(5e-3), 1.0, 0.0]
        values, factor = from_vec(x)
        assert values[:5] == pytest.approx([0.02, 1.0 / (1.0 + math.exp(clip)), 1.0, 1e4, 1e-2],
                                           rel=1e-14)
        assert factor[[0, 1, 3, 4]].tolist() == [0.0, 0.0, 0.0, 0.0]
        # to_vec clips into the bounds, which _at_cap then reports
        x = to_vec([60.0, 0.9999, 1.0, 5e-3, 2e4, 1.0, 1.0])
        assert x[:5] == pytest.approx([math.log(50.0), clip, 0.0, math.log(1e-2), math.log(1e4)])
        assert estimate._at_cap(x[:5], "signal") == ["signal.a", "signal.c", "signal.u",
                                                     "signal.v"]


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

    @pytest.mark.parametrize("m", [
        GammaNormal(GammaParams(2.0, 15.0), NormalParams(100.0, 15.0)),
        GammaNormal(GammaParams(1.05, 20.0), NormalParams(100.0, 20.0)),
    ], ids=["sigma-equals-beta", "shape-near-one"])
    def test_bfgs_converges_where_the_grid_step_switches(self, m):
        # h = min(sigma, beta)/48 switches between sigma and beta along the
        # path, and shape near 1 puts the endpoint terms at their largest
        for seed in (0, 1):
            obs, neg, _ = _simulate(m, 1000, 300, seed=seed)
            prob = estimate.EstimationProblem(obs, neg, "gamma_normal")
            fit = estimate.fit_mle(prob, estimate.FitBudget(n_starts=1))
            assert fit.converged, seed
            assert fit.diagnostics["local_method"] == "BFGS"
            assert fit.iterations < 60
            assert fit.loglik == estimate.loglik(fit.params, prob)
            assert fit.loglik >= estimate.loglik(m, prob)
            # BFGS stops below 1e-6 per observation in every coordinate of
            # its log scale (mu as is); the score in the model's parameters
            # divides those by alpha, beta and sigma, none below 0.7 here,
            # and its norm stays below 2e-6 per observation
            assert fit.gradient_norm < 2e-6 * (obs.size + neg.size)

    @pytest.mark.parametrize("kind", ["exp_normal", "exp_gamma", "gamma_normal",
                                      "exp_lognormal", "gamma_lognormal"])
    def test_gradient_norm_is_the_score_norm_in_the_model_parameters(self, kind):
        # as for the GB families, the norm of loglik's gradient in the
        # model's own parameters at the fit, not in the optimizer's log scale
        m = simulate.REFERENCE_MODELS[kind][0]
        data = simulate.simulate_experiment(m, 100, 200, seed=7)
        prob = estimate.EstimationProblem(data.observed, data.negatives, kind)
        fit = estimate.fit_mle(prob, estimate.FitBudget(n_starts=1))
        want = np.linalg.norm(estimate.loglik_score(fit.params, prob)[1])
        assert fit.gradient_norm == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("kind", ["exp_normal", "exp_gamma", "gamma_normal"])
    def test_opg_start_matches_the_identity_start(self, kind, monkeypatch):
        # BFGS started from the outer product of the per-observation scores
        # reaches the identity start's optimum in a handful of evaluations
        m = simulate.REFERENCE_MODELS[kind][0]
        obs, neg, _ = _simulate(m, 100, 200, seed=7)
        prob = estimate.EstimationProblem(obs, neg, kind)
        budget = estimate.FitBudget(n_starts=1)
        fit = estimate.fit_mle(prob, budget)
        assert fit.converged
        assert fit.diagnostics["start_hessian"] == ("opg",)
        assert fit.diagnostics["start_nfev"] == (fit.iterations,)
        assert fit.diagnostics["start_stop"] == ("gtol",)
        assert fit.iterations <= 12
        monkeypatch.setattr(estimate, "_opg_inverse", lambda rows, n: None)
        plain = estimate.fit_mle(prob, budget)
        assert plain.diagnostics["start_hessian"] == ("identity",)
        assert fit.loglik >= plain.loglik - 1e-6

    def test_starts_that_end_on_a_failed_line_search_say_so(self):
        # on the seed-7 gb_normal reference array three of the signal
        # stage's five starts end where both line searches find no step
        # (SciPy's "precision loss"), the winner among them, so the fit is
        # not converged although no parameter sits at a cap
        m, genes = simulate.REFERENCE_MODELS["gb_normal"]
        data = simulate.simulate_experiment(m, genes, max(genes // 4, 50), seed=7)
        prob = estimate.EstimationProblem(data.observed, data.negatives, "gb_normal")
        fit = estimate.fit_mle(prob)
        assert fit.diagnostics["start_stop"] == ("gtol",) * 6 + ("line_search",) * 3 + ("gtol",)
        assert len(fit.diagnostics["start_nfev"]) == 10
        assert not fit.converged and fit.diagnostics["at_cap"] == ()

    def test_opg_inverse_refuses_a_singular_product(self):
        rows = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        assert estimate._opg_inverse(rows, 3) is None
        assert estimate._opg_inverse(np.array([[1.0, np.nan]]), 2) is None
        inv = estimate._opg_inverse(np.array([[1.0, -1.0], [1.0, 1.0]]), 2)
        np.testing.assert_allclose(inv, np.eye(2))

    def test_gb_parameters_at_a_cap_are_listed(self):
        # a at 50, c at the logit clip, u and v at 1e-2 or 1e4
        top = [math.log(50.0), estimate._LOGIT_CLIP, 3.0, 0.0, math.log(1e4)]
        assert estimate._at_cap(top, "signal") == ["signal.a", "signal.c", "signal.v"]
        bottom = [0.0, -estimate._LOGIT_CLIP, -3.0, math.log(1e-2), 1.0]
        assert estimate._at_cap(bottom, "noise") == ["noise.c", "noise.u"]
        assert estimate._at_cap([0.0, 6.8, 40.0, 9.2, 9.2], "signal") == []
        # a coordinate a hair short of a bound, or past it, sits at it
        assert estimate._at_cap([0.0, 7.5, 0.0, 0.0, 10.0], "signal") == ["signal.c",
                                                                          "signal.v"]
        assert estimate._at_cap([0.0, 6.8999999997, 0.0, 0.0, 0.0], "signal") == ["signal.c"]

    def test_determinism(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        obs, neg, _ = _simulate(m, 1000, 200, seed=3)
        prob = estimate.EstimationProblem(obs, neg, "exp_normal")
        budget = estimate.FitBudget(seed=5)
        a = estimate.fit_mle(prob, budget)
        b = estimate.fit_mle(prob, budget)
        assert a.params == b.params and a.loglik == b.loglik

    @pytest.mark.parametrize("kind", ["gb_gb", "gb_normal"])
    def test_gb_fit_beats_the_truth(self, kind):
        for seed, (fit, prob, data) in enumerate(_gb_recovery_fits(kind)):
            assert fit.loglik >= estimate.loglik(data.model, prob), seed

    @pytest.mark.parametrize("kind", [
        pytest.param("gb_gb", marks=pytest.mark.xfail(
            strict=False, reason="a five-parameter GB noise from 50 controls costs the "
            "corrections up to a quarter of their MSE at this size: 1.25, 1.24 and 1.00 "
            "times the truth's on seeds 0-2")),
        "gb_normal"])
    def test_gb_recovery(self, kind):
        # (a, d, u, v) are weakly identified, so a fit is judged by its
        # corrections, not by its parameters
        for seed, (fit, prob, data) in enumerate(_gb_recovery_fits(kind)):
            def mse(params):
                corrected, _ = correct.correct_array(data.observed, params)
                return float(np.mean((corrected - data.true_signal) ** 2))

            assert mse(fit.params) <= 1.05 * mse(data.model), seed

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
        assert fit.diagnostics["local_method"] == "BFGS"
        assert not (fit.converged and fit.diagnostics["at_cap"])
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
