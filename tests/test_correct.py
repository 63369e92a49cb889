import dataclasses
import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from beadcorr import (correct, estimate, oracle, quadrature, series, simulate,
                     validation)
from beadcorr.dists import (ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                            GammaLognormal, GammaNormal, GammaParams, GBGB,
                            GBNormal, GBParams, LognormalParams, NormalParams,
                            gb_from_gamma, gb_logpdf, gb_support_upper,
                            normal_logpdf)
from beadcorr.errors import DomainError, NumericUnderflowError, QuadratureError

Q = oracle.QuadConfig()
UNIFORM = GBParams(1, 0, 1, 1, 1)


def _rma_formula(p, e, b):
    """correct_rma in scalar arithmetic; ValueError where it refuses p."""
    if p <= 0:
        raise ValueError(p)
    mu_sp = p - b.mu - b.sigma ** 2 * e.theta
    a, bb = mu_sp / b.sigma, (p - mu_sp) / b.sigma
    la, lmb = float(special.log_ndtr(a)), float(special.log_ndtr(-bb))
    denom = math.exp(la) * -math.expm1(min(lmb - la, 0.0))
    if la < math.log(1e-290) or denom <= 0.0:
        raise ValueError(p)
    num = (math.exp(-0.5 * a * a) - math.exp(-0.5 * bb * bb)) / math.sqrt(2.0 * math.pi)
    return mu_sp + b.sigma * num / denom


def _mbcb_formula(p, e, b):
    if p <= 0:
        raise ValueError(p)
    a = (p - b.mu - b.sigma ** 2 * e.theta) / b.sigma
    return b.sigma * (a + math.exp(-0.5 * a * a - 0.5 * math.log(2.0 * math.pi)
                                   - float(special.log_ndtr(a))))


def _exp_gamma_formula(p, e, g):
    if p <= 0:
        raise ValueError(p)
    lam = 1.0 / g.beta - e.theta
    return p - math.exp(correct.log_truncated_gamma_integral(g.alpha + 1.0, lam, p)
                        - correct.log_truncated_gamma_integral(g.alpha, lam, p))


class TestRma:
    def test_symmetric_point_is_half(self):
        # choose mu so the conditional location sits at p/2
        p, theta, sigma = 10.0, 0.05, 1.2
        mu = p / 2.0 - sigma ** 2 * theta
        got = correct.correct_rma(p, ExpParams(theta), NormalParams(mu, sigma))
        assert got == pytest.approx(p / 2.0, abs=1e-12)

    def test_against_oracle(self):
        e, b = ExpParams(0.01), NormalParams(10.0, 2.0)
        got = correct.correct_rma(100.0, e, b)
        ref = oracle.posterior_mean_quadrature(100.0, ExpNormal(e, b), Q)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_range_property(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            mu = float(rng.uniform(20, 150))
            sigma = mu * float(rng.uniform(0.05, 0.25))
            theta = 1.0 / float(rng.uniform(20, 300))
            e, b = ExpParams(theta), NormalParams(mu, sigma)
            p = float(rng.uniform(mu * 0.5, mu + 8 / theta))
            val = correct.correct_rma(p, e, b)
            assert 0.0 < val < p

    def test_underflow_raises(self):
        with pytest.raises(NumericUnderflowError):
            correct.correct_rma(1.0, ExpParams(0.001), NormalParams(500.0, 4.0))

    def test_monotone_in_p(self):
        e, b = ExpParams(0.01), NormalParams(100.0, 15.0)
        grid = np.linspace(40.0, 400.0, 200)
        vals = [correct.correct_rma(float(p), e, b) for p in grid]
        assert np.all(np.diff(vals) >= -1e-9)


class TestMbcb:
    def test_mu_sp_zero(self):
        sigma = 3.0
        e = ExpParams(0.1)
        b = NormalParams(5.0 - sigma ** 2 * 0.1, sigma)
        p = b.mu + sigma ** 2 * e.theta  # conditional location exactly zero
        got = correct.correct_mbcb(p, e, b)
        assert got == pytest.approx(0.79788456 * sigma, abs=1e-8)

    def test_tail_asymptote(self):
        # five sigmas in: within 1e-4 sigma of the location itself
        sigma = 2.0
        e, b = ExpParams(0.01), NormalParams(10.0, sigma)
        p = b.mu + sigma ** 2 * e.theta + 5 * sigma
        mu_sp = p - b.mu - sigma ** 2 * e.theta
        assert correct.correct_mbcb(p, e, b) == pytest.approx(mu_sp, abs=1e-4 * sigma)

    def test_converges_to_rma_for_large_p(self):
        # the gap at large p is sigma*phi(mu/sigma + sigma*theta); vanishing
        # requires the noise bulk well above zero (mu/sigma >= ~6)
        e, b = ExpParams(0.01), NormalParams(15.0, 2.0)
        p = b.mu + b.sigma ** 2 * e.theta + 12 * b.sigma
        gap = abs(correct.correct_rma(p, e, b) - correct.correct_mbcb(p, e, b))
        assert gap < 1e-8 * b.sigma


class TestExpNormalHugeGenes:
    @pytest.mark.parametrize("variant, first", [("rma", "47.78774260615371"),
                                                ("mbcb", "47.7877426066401")])
    def test_no_overflow_warning(self, variant, first):
        # z * z overflows in the normal density past p ~ 1.3e155; under the
        # RuntimeWarning filter that raised before the density read 0
        m = simulate.REFERENCE_MODELS["exp_normal"][0]
        corrected, diags = correct.correct_array(np.array([150.0, 1e160, 1e300]), m,
                                                 variant)
        assert repr(float(corrected[0])) == first
        assert corrected[1] == pytest.approx(1e160, rel=1e-15) and corrected[2] == 1e300
        assert [d.path for d in diags] == ["closed"] * 3


class TestExpGamma:
    def test_exact_polynomial_cases(self):
        # rate cancellation leaves pure power integrals
        for p in (7.0, 33.0):
            beta = 4.0
            got1 = correct.correct_exp_gamma(p, ExpParams(1.0 / beta),
                                             GammaParams(1.0, beta))
            assert got1 == pytest.approx(p / 2.0, rel=1e-13)
            got2 = correct.correct_exp_gamma(p, ExpParams(1.0 / beta),
                                             GammaParams(2.0, beta))
            assert got2 == pytest.approx(p / 3.0, rel=1e-13)

    def test_against_oracle(self):
        e, g = ExpParams(0.05), GammaParams(2.0, 4.0)
        got = correct.correct_exp_gamma(50.0, e, g)
        ref = oracle.posterior_mean_quadrature(50.0, ExpGamma(e, g), Q)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_negative_rate_branch(self):
        # theta > 1/beta flips the exponent sign; series branch
        e, g = ExpParams(0.5), GammaParams(2.0, 4.0)
        got = correct.correct_exp_gamma(30.0, e, g)
        ref = oracle.posterior_mean_quadrature(30.0, ExpGamma(e, g), Q)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_large_negative_rate_asymptotic_branch(self):
        e, g = ExpParams(30.0), GammaParams(1.5, 2.0)
        got = correct.correct_exp_gamma(40.0, e, g)   # lam*p ~ -1180
        ref = oracle.posterior_mean_quadrature(40.0, ExpGamma(e, g), Q)
        assert got == pytest.approx(ref, rel=1e-5)


    @pytest.mark.parametrize("a, lam, ps", [
        (2.0, 0.2, [0.5, 5.0, 60.0, 400.0]),          # regularized incomplete gamma
        (200.0, 1.0, [1.0, 2.0, 3.0, 10.0, 150.0]),   # ... underflowing at p <= 2
        (2.5, 0.0, [0.5, 7.0]),                       # pure power
        (2.0, -0.25, [5.0, 30.0, 2900.0]),            # series, then asymptotic
        (1.5, -29.5, [10.0, 40.0, 100.0]),            # asymptotic
    ])
    def test_log_truncated_gamma_integral_array_matches_scalar(self, a, lam, ps):
        ps = np.array(ps)
        if (a, lam) == (200.0, 1.0):
            assert np.any(special.gammainc(a, lam * ps) <= 1e-290)
            assert np.any(special.gammainc(a, lam * ps) > 1e-290)
        got = correct.log_truncated_gamma_integral(a, lam, ps)
        assert isinstance(got, np.ndarray) and got.shape == ps.shape
        for p, v in zip(ps, got):
            one = correct.log_truncated_gamma_integral(a, lam, float(p))
            assert isinstance(one, float)
            assert v == pytest.approx(one, rel=1e-14)

    # values of the one-p-at-a-time sums; x = -lam p crosses the switch from
    # the series to the asymptotic expansion at 700 inside every row
    _PINNED_NONPOSITIVE = {
        (0.5, -0.25): [(1.0, 0.7793012144726473), (40.0, 9.600832366249524),
                       (2799.0, 697.1685014382141), (2801.0, 697.6681437833057),
                       (8000.0, 1996.8929461072319)],
        (2.0, -0.25): [(1.0, -0.5247639799907607), (40.0, 14.969818343999918),
                       (2799.0, 709.071881746709), (2801.0, 709.5725970543218),
                       (8000.0, 2010.37299105674)],
        (7.5, -3.0): [(0.01, -36.52720391723413), (5.0, 23.987802653546403),
                      (233.3, 734.2322441307797), (233.4, 734.535033599664),
                      (1000.0, 3043.7996319823064)],
        (1.0, -3.0): [(0.01, -4.590132686269337), (5.0, 13.90138740542952),
                      (233.3, 698.801387711332), (233.4, 699.1013877113319),
                      (1000.0, 2998.901387711332)],
    }

    @pytest.mark.parametrize("a, lam", list(_PINNED_NONPOSITIVE))
    def test_log_truncated_gamma_integral_nonpositive_rate_pinned(self, a, lam):
        ps, want = map(np.array, zip(*self._PINNED_NONPOSITIVE[(a, lam)]))
        # shuffled, so each sum stops at a different place in the array
        order = np.array([3, 0, 4, 2, 1])
        got = correct.log_truncated_gamma_integral(a, lam, ps[order])
        np.testing.assert_allclose(got, want[order], rtol=1e-14, atol=0)
        for p, v in zip(ps, want):
            assert correct.log_truncated_gamma_integral(a, lam, float(p)) == pytest.approx(
                v, rel=1e-14, abs=0)

    def test_log_truncated_gamma_integral_rejects_nonpositive_p(self):
        from beadcorr.errors import DomainError
        with pytest.raises(DomainError):
            correct.log_truncated_gamma_integral(2.0, 0.2, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            correct.log_truncated_gamma_integral(2.0, 0.2, -1.0)


class TestGammaNormal:
    def test_alpha_one_matches_exp_normal(self):
        b = NormalParams(10.0, 2.0)
        got = correct.correct_gamma_normal(100.0, GammaParams(1.0, 100.0), b)
        ref = oracle.posterior_mean_quadrature(
            100.0, ExpNormal(ExpParams(0.01), b), Q)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_sigma_to_zero_limit(self):
        g, b = GammaParams(3.0, 2.0), NormalParams(5.0, 2e-4)
        got = correct.correct_gamma_normal(11.0, g, b)
        assert got == pytest.approx(11.0 - 5.0, abs=1e-3 * g.beta)

    def test_shifted_shape_path_matches_direct(self):
        g, b = GammaParams(3.0, 2.0), NormalParams(5.0, 1.5)
        got = correct.correct_gamma_normal(30.0, g, b)
        ref = oracle.posterior_mean_quadrature(30.0, GammaNormal(g, b), Q)
        assert got == pytest.approx(ref, rel=1e-6)

    def test_unit_shape_far_below_the_noise_matches_rma(self):
        # p = mu - 16 sigma with beta = 50 sigma: the integrand is largest at
        # s -> 0, 25 beta-units below its only knot
        b = NormalParams(100.0, 1.0)
        got = correct.correct_gamma_normal(84.0, GammaParams(1.0, 50.0), b)
        ref = correct.correct_rma(84.0, ExpParams(1.0 / 50.0), b)
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p, g, b", [
        # shape < 1: the integrand is unbounded at s -> 0 and, below the
        # noise centre, has no interior mode
        (20.0, GammaParams(0.8, 50.0), NormalParams(100.0, 15.0)),
        (150.0, GammaParams(0.8, 50.0), NormalParams(100.0, 15.0)),
        (400.0, GammaParams(0.8, 50.0), NormalParams(100.0, 15.0)),
        (84.0, GammaParams(0.8, 50.0), NormalParams(100.0, 1.0)),
        # the mass lies within about 0.05 of s = 0, the first knot at 0.5 beta
        (120.0, GammaParams(0.27, 660.0), NormalParams(140.0, 0.6)),
        (356.0, GammaParams(0.5, 1100.0), NormalParams(366.0, 0.5)),
        (73.6, GammaParams(1.0, 400.0), NormalParams(80.0, 0.3)),
    ])
    def test_shape_at_most_one_matches_direct(self, p, g, b):
        got = correct.correct_gamma_normal(p, g, b)
        ref = oracle.posterior_mean_quadrature(p, GammaNormal(g, b), Q)
        assert got == pytest.approx(ref, rel=1e-8)


    def test_mass_at_the_left_end_of_a_wide_piece(self):
        # the old knots left 1e-4 of the mass at the left end of the piece
        # [p - mu + 8 sigma, (alpha - 1) beta] and read 0.17599; the value is
        # from 40-digit mpmath
        got = correct.correct_gamma_normal(196.35, GammaParams(1.92, 1158.0),
                                           NormalParams(200.91, 0.667))
        assert got == pytest.approx(0.1770344378731895, rel=1e-9)

    def test_shape_far_below_one(self):
        # the old corrector read 6.2e-5 and QUADPACK on (0, inf) reads 1.40;
        # 40-digit mpmath, with the s^(alpha - 1) end integrated in s^alpha,
        # and the series in s^2 of exp(-s^2 / 2 sigma^2) at the tilted gamma
        # scale both give this value
        got = correct.correct_gamma_normal(9.74, GammaParams(0.066, 0.0175),
                                           NormalParams(308.8, 198.8))
        assert got == pytest.approx(1.1548470620805799e-3, rel=1e-9)


    @pytest.mark.parametrize("p,g,b,want", [
        # the engine certifies the first gene; the second misses the 1e-11
        # target and takes the referee's value, which read 2.48 while the
        # referee's knots missed the gamma mass (30-digit mpmath values)
        (26.55557015243313, GammaParams(2.768484019547243, 0.00723977254093289),
         NormalParams(35.895369943422544, 34.35813740443723), 0.0200420432225054),
        (133.87216281769633, GammaParams(3.168352637544194, 0.015183361434622072),
         NormalParams(351.445645558385, 313.29136371939455), 0.0481046237137679),
    ])
    def test_narrow_gamma_signal_under_wide_noise(self, p, g, b, want):
        assert correct.correct_gamma_normal(p, g, b) == pytest.approx(want, rel=1e-9)


class TestSeriesCorrectors:
    def test_exp_lognormal_against_oracle(self):
        e, l = ExpParams(0.05), LognormalParams(1.0, 0.6)
        got, info = correct.correct_exp_lognormal(40.0, e, l, with_info=True)
        ref = oracle.posterior_mean_quadrature(40.0, ExpLognormal(e, l), Q)
        assert info.path == "series"
        assert got == pytest.approx(ref, rel=1e-4)

    def test_exp_lognormal_theta_collapse_paths_agree(self):
        l = LognormalParams(1.0, 0.6)
        got = correct.correct_exp_lognormal(40.0, ExpParams(1e-12), l)
        den = series.exp_lognormal_den_series(40.0, None, l)
        num = series.exp_lognormal_num_series(40.0, None, l)
        collapsed = 40.0 - math.exp(1.0 + 0.18 + num.log_abs - den.log_abs)
        assert got == pytest.approx(collapsed, rel=1e-9)

    def test_exp_lognormal_range(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            theta = 1.0 / float(rng.uniform(10, 60))
            mu = float(rng.uniform(0.3, 1.5))
            sig = float(rng.uniform(0.3, 0.7))
            noise_q1 = math.exp(mu + sig * (-2.33))
            p = float(rng.uniform(noise_q1 + 0.2, 5.0 / theta))
            val = correct.correct_exp_lognormal(p, ExpParams(theta),
                                                LognormalParams(mu, sig))
            assert 0.0 < val < p

    def test_gamma_lognormal_alpha_one_nesting(self):
        l = LognormalParams(0.4, 0.35)
        got = correct.correct_gamma_lognormal(26.0, GammaParams(1.0, 12.0), l)
        want = correct.correct_exp_lognormal(26.0, ExpParams(1.0 / 12.0), l)
        assert got == pytest.approx(want, rel=1e-8)

    def test_gamma_lognormal_against_oracle(self):
        g, l = GammaParams(2.0, 10.0), LognormalParams(0.5, 0.4)
        got, info = correct.correct_gamma_lognormal(60.0, g, l, with_info=True)
        ref = oracle.posterior_mean_quadrature(60.0, GammaLognormal(g, l), Q)
        assert info.path == "series"
        assert got == pytest.approx(ref, rel=1e-4)

    def test_gb_uniform_pair(self):
        assert correct.correct_gb(0.5, UNIFORM, UNIFORM) == pytest.approx(
            0.25, abs=1e-9)

    def test_gb_limit_reduction_to_exp_gamma(self):
        s = gb_from_gamma(GammaParams(1.0, 10.0), 1e4)   # exponential, theta=0.1
        b = gb_from_gamma(GammaParams(2.0, 5.0), 1e4)
        got = correct.correct_gb(30.0, s, b)
        want = correct.correct_exp_gamma(30.0, ExpParams(0.1), GammaParams(2.0, 5.0))
        assert got == pytest.approx(want, rel=1e-2)

    def test_gb_against_oracle(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        got, info = correct.correct_gb(0.8, s, b, with_info=True)
        ref = oracle.posterior_mean_quadrature(0.8, GBGB(s, b), Q)
        assert info.path == "series"
        assert got == pytest.approx(ref, rel=1e-3)

    def test_gb_normal_symmetric_tight_noise(self):
        got = correct.correct_gb_normal(0.9, UNIFORM, NormalParams(0.45, 0.05))
        assert got == pytest.approx(0.45, abs=1e-6)

    def test_gb_normal_limit_reduction_to_gamma_normal(self):
        s = gb_from_gamma(GammaParams(3.0, 2.0), 1e4)
        b = NormalParams(5.0, 1.5)
        got = correct.correct_gb_normal(30.0, s, b)
        want = correct.correct_gamma_normal(30.0, GammaParams(3.0, 2.0), b)
        assert got == pytest.approx(want, rel=1e-2)

    def test_gb_normal_against_oracle(self):
        s, b = GBParams(1.0, 0.5, 2.0, 1.5, 2.0), NormalParams(0.3, 0.06)
        got, info = correct.correct_gb_normal(1.4, s, b, with_info=True)
        ref = oracle.posterior_mean_quadrature(1.4, GBNormal(s, b), Q)
        assert info.path == "series"
        assert got == pytest.approx(ref, rel=1e-3)

    def test_gb_normal_divergent_point_falls_back(self):
        # outside the expansion radius the corrector must still be right,
        # via quadrature, and must say so
        s, b = GBParams(1.0, 1.0, 2.0, 1.5, 2.0), NormalParams(1.0, 0.3)
        got, info = correct.correct_gb_normal(4.0, s, b, with_info=True)
        ref = oracle.posterior_mean_quadrature(4.0, GBNormal(s, b), Q)
        assert info.path == "quadrature"
        assert info.fallback_reason is not None
        assert got == pytest.approx(ref, rel=1e-6)

    def test_gb_normal_bits_independent_of_history(self):
        # a deeper gene grows the cached coefficient grid; a shallower gene
        # corrected afterwards must keep the bits it has in a fresh workspace
        m = simulate.REFERENCE_MODELS["gb_normal"][0]
        series._gb_normal_workspace.cache_clear()
        fresh = correct.correct_gb_normal(5.0, m.signal, m.noise)
        series._gb_normal_workspace.cache_clear()
        correct.correct_gb_normal(11.6, m.signal, m.noise)
        after = correct.correct_gb_normal(5.0, m.signal, m.noise)
        assert after == fresh

    @pytest.mark.parametrize("a", [20.0, 50.0])
    def test_gb_normal_large_a(self, a):
        # the series keeps the noise positive, so its reference integrates
        # the signal over (0, p); a deeper gene first must not move the bits
        s, b, p = GBParams(a, 1.0, 20.0, 2.0, 10.0), NormalParams(1.0, 0.3), 14.0

        def f(x):
            return math.exp(gb_logpdf(x, s) + normal_logpdf(p - x, b))

        opts = dict(points=[p - b.mu], epsabs=0.0, epsrel=1e-13, limit=500)
        ref = quad(lambda x: x * f(x), 0.0, p, **opts)[0] / quad(f, 0.0, p, **opts)[0]
        series._gb_normal_workspace.cache_clear()
        got, info = correct.correct_gb_normal(p, s, b, with_info=True)
        assert info.path == "series"
        assert got == pytest.approx(ref, rel=1e-9)
        with np.errstate(over="ignore"):  # density tail in the deeper gene's fallback
            correct.correct_gb_normal(19.0, s, b)
        assert correct.correct_gb_normal(p, s, b) == got


class TestSeriesBatchInvariance:
    """A series gene's corrected value has the same bits alone, in any array
    and in any order, and equals the public corrector's, on the series entry
    point."""

    CORRECTORS = {"exp_lognormal": correct.correct_exp_lognormal,
                  "gamma_lognormal": correct.correct_gamma_lognormal,
                  "gb_gb": correct.correct_gb,
                  "gb_normal": correct.correct_gb_normal}

    def cases(self, kind):
        from beadcorr import validation
        rng = np.random.default_rng(23)
        out = []
        for _ in range(3):
            m, p = validation.draw_case(kind, rng)
            out.append((m, np.array([p, 0.7 * p, 1.3 * p, 2.0 * p, 4.0 * p])))
        m = simulate.REFERENCE_MODELS[kind][0]
        out.append((m, simulate.simulate_experiment(m, 14, 2, seed=5).observed))
        return out

    @pytest.mark.parametrize("kind", ["exp_lognormal", "gamma_lognormal", "gb_gb",
                                      "gb_normal"])
    def test_alone_in_any_order_and_public(self, kind):
        public = self.CORRECTORS[kind]
        paths = set()
        for m, obs in self.cases(kind):
            with np.errstate(over="ignore"):  # density tails of far-out genes
                corrected, diags = correct.correct_array_series(obs, m)
                rev, rev_diags = correct.correct_array_series(obs[::-1], m)
            np.testing.assert_array_equal(rev[::-1], corrected)
            assert [d.error for d in rev_diags[::-1]] == [d.error for d in diags]
            for i, p in enumerate(obs.tolist()):
                paths.add(diags[i].path)
                if diags[i].path == "error":
                    continue
                with np.errstate(over="ignore"):
                    alone, one = correct.correct_array_series(np.array([p]), m)
                    value, info = public(p, m.signal, m.noise, with_info=True)
                assert alone[0] == corrected[i] == value
                assert one[0].path == diags[i].path == info.path
                assert one[0].error == diags[i].error == info.fallback_reason
        assert "series" in paths


class TestEngineRoute:
    """The tanh-sinh engine answers a gamma_lognormal, gb_gb or gb_normal
    gene with the same bits alone, in any array and in any order.  gb_gb's
    route is the engine: correct_array's values equal _quadrature_means, and
    genes outside the family's domain stay DomainError rows.
    gamma_lognormal and gb_normal take the tilt and leave the engine the
    genes it does not certify, so the engine is called directly for them."""

    @staticmethod
    def cases(kind):
        from beadcorr import validation
        rng = np.random.default_rng(23)
        out = []
        for _ in range(3):
            m, p = validation.draw_case(kind, rng)
            # GB + GB draws have c < 1, so a bounded support to step outside
            bad = 1.5 * gb_support_upper(m.signal) + 1.5 * gb_support_upper(m.noise) \
                if kind == "gb_gb" else -0.5
            out.append((m, np.array([p, 0.7 * p, bad, 1.3 * p, 2.0 * p, 4.0 * p]), bad))
        m = simulate.REFERENCE_MODELS[kind][0]
        out.append((m, simulate.simulate_experiment(m, 14, 2, seed=5).observed, None))
        return out

    @pytest.mark.parametrize("kind", ["gamma_lognormal", "gb_gb", "gb_normal"])
    def test_alone_in_any_order_and_engine(self, kind):
        for m, obs, bad in self.cases(kind):
            inside = obs[obs != bad]
            engine, refused = correct._quadrature_means(inside, m, 1e-8)
            rev, rev_refused = correct._quadrature_means(inside[::-1], m, 1e-8)
            np.testing.assert_array_equal(rev[::-1], engine)
            assert sorted(inside.size - 1 - j for j in rev_refused) == sorted(refused)
            for i, p in enumerate(inside.tolist()):
                alone, alone_refused = correct._quadrature_means(np.array([p]), m, 1e-8)
                np.testing.assert_array_equal(alone, engine[i:i + 1])
                assert bool(alone_refused) == (i in refused)
        if correct.ROUTES[kind] != "quadrature":
            return
        for m, obs, bad in self.cases(kind):
            corrected, diags = correct.correct_array(obs, m)
            rev, rev_diags = correct.correct_array(obs[::-1], m)
            np.testing.assert_array_equal(rev[::-1], corrected)
            for i, p in enumerate(obs.tolist()):
                j = obs.size - 1 - i
                assert rev_diags[j] == dataclasses.replace(diags[i], index=j)
                if diags[i].path == "error":
                    assert diags[i].error.startswith("DomainError:")
                    assert math.isnan(corrected[i])
                    continue
                assert p != bad
                assert diags[i].path == "quadrature" and diags[i].error is None
                alone, _ = correct.correct_array(np.array([p]), m)
                engine = correct._quadrature_means(np.array([p]), m, 1e-8)[0][0]
                assert alone[0] == corrected[i] == engine


    def test_marginals_below_the_smallest_float_are_answered(self):
        # the engine's means are ratios of sums scaled by the gene's own
        # peak: an exponential signal (alpha = 1) far above normal noise
        # reads the closed form, and gb_gb near 0 reads the series
        g, b = GammaParams(1.0, 50.0), NormalParams(100.0, 15.0)
        ps = np.array([1e5, 1e6])
        values, diags = correct.correct_array(ps, GammaNormal(g, b))
        assert [d.path for d in diags] == ["quadrature"] * 2
        for p, value in zip(ps.tolist(), values.tolist()):
            assert value == pytest.approx(correct.correct_rma(p, ExpParams(1.0 / g.beta), b),
                                          rel=1e-9)
        m = simulate.REFERENCE_MODELS["gb_gb"][0]
        values, diags = correct.correct_array(np.array([1e-300]), m)
        assert diags[0].path == "quadrature"
        assert values[0] == pytest.approx(correct.correct_gb(1e-300, m.signal, m.noise),
                                          rel=1e-8)


class TestBlocks:
    @pytest.mark.parametrize("kind, block", [("gb_gb", "_BLOCK"),
                                             ("exp_lognormal", "_TILT_BLOCK")])
    def test_three_blocks_equal_each_gene_alone(self, kind, block):
        # the engine and the tilt run an array in blocks of genes
        m = simulate.REFERENCE_MODELS[kind][0]
        n = 2 * getattr(quadrature, block) + 9
        obs = simulate.simulate_experiment(m, n, 1, seed=6).observed
        corrected, diags = correct.correct_array(obs, m)
        for i, p in enumerate(obs.tolist()):
            alone, one = correct.correct_array(np.array([p]), m)
            assert alone.tobytes() == corrected[i:i + 1].tobytes()
            assert one[0] == dataclasses.replace(diags[i], index=0)


class TestTiltRoute:
    """correct_array answers an exp_lognormal gene by one fixed Gauss rule on
    the exponential tilt of its noise; a gene the rule does not certify, or
    whose value escapes (0, p), takes the engine with the tilt's reason.  No
    gene is silently wrong."""

    TOL = validation.TOLERANCES["exp_lognormal"]
    REASONS = ("tilt rule not certified (change ", "tilt value escaped (0, p)")

    def _paths(self, m, obs):
        """The path of every gene of obs, each checked against the referee:
        a tilt value, or an engine value with the tilt's reason."""
        corrected, diags = correct.correct_array(obs, m)
        for p, value, d in zip(obs.tolist(), corrected.tolist(), diags):
            assert d.path == "tilt" and d.error is None or (
                d.path == "quadrature" and d.error.startswith(self.REASONS)), (m, p, d)
            ref = oracle.posterior_mean_quadrature(p, m, Q)
            assert abs(value - ref) <= self.TOL * abs(ref), (m, p, d, value, ref)
        return [d.path for d in diags]

    def test_drawn_cases_within_tolerance_of_the_referee(self):
        assert correct.ROUTES["exp_lognormal"] == "tilt"
        rng = np.random.default_rng(21)
        paths = []
        for _ in range(300):
            m, p = validation.draw_case("exp_lognormal", rng)
            paths += self._paths(m, np.array([p]))
        # the genes far above the noise (z_p up to 15) stay on the rule too:
        # each of its panels spans half the range
        assert paths == ["tilt"] * 300

    @pytest.mark.parametrize("sigma", [0.5, series.LN_SIGMA_MAX, 1.5 * series.LN_SIGMA_MAX],
                             ids=["sigma-0.5", "sigma-max", "sigma-1.5max"])
    @pytest.mark.parametrize("theta", [0.5, 0.08, 0.01])
    def test_wide_corners(self, theta, sigma):
        # z_p <= -8 (p far below e^mu), and p up to 2000, where theta p >> 1
        # narrows the integrand to 1/(theta p sigma) at z_p: those genes
        # stay on the rule, on its narrow top panel
        m = ExpLognormal(ExpParams(theta), LognormalParams(1.3, sigma))
        low = np.exp(1.3 + sigma * np.array([-14.0, -10.0, -8.0]))
        obs = np.concatenate([low, [0.5, 3.0, 10.0, 50.0, 200.0, 800.0, 2000.0]])
        paths = self._paths(m, obs)
        assert "tilt" in paths[:4]
        if theta == 0.5:
            assert paths[-3:] == ["tilt"] * 3

    def test_reference_arrays_match_the_series(self):
        m, genes = simulate.REFERENCE_MODELS["exp_lognormal"]
        for seed in range(8):
            obs = simulate.simulate_experiment(m, genes, max(genes // 4, 50), seed=seed).observed
            tilt, diags = correct.correct_array(obs, m)
            paper, paper_diags = correct.correct_array_series(obs, m)
            assert {d.path for d in diags} == {"tilt"}
            assert {d.path for d in paper_diags} == {"series"}
            np.testing.assert_allclose(tilt, paper, rtol=1e-10, atol=0)

    def test_same_bits_alone_in_an_array_and_reversed(self):
        # 300 genes span several blocks of the rule; the last array holds a
        # gene that leaves it for the engine, and one outside the domain
        ref = simulate.REFERENCE_MODELS["exp_lognormal"][0]
        cases = [(ref, simulate.simulate_experiment(ref, 300, 2, seed=5).observed),
                 (ref, np.array([3.0, -1.0, 800.0, 10.0, 2000.0, 0.01]))]
        for m, obs in cases:
            corrected, diags = correct.correct_array(obs, m)
            rev, rev_diags = correct.correct_array(obs[::-1], m)
            np.testing.assert_array_equal(rev[::-1], corrected)
            for i, p in enumerate(obs.tolist()):
                j = obs.size - 1 - i
                assert rev_diags[j] == dataclasses.replace(diags[i], index=j)
                alone, one = correct.correct_array(np.array([p]), m)
                np.testing.assert_array_equal(alone, corrected[i:i + 1])
                assert one[0] == dataclasses.replace(diags[i], index=0)
        assert [d.path for d in diags] == ["tilt", "error", "quadrature", "tilt", "tilt",
                                           "tilt"]
        assert diags[1].error.startswith("DomainError:")


    #: the families on the tilt route
    KINDS = ("exp_lognormal", "gamma_lognormal", "gb_normal")

    @pytest.mark.parametrize("kind", KINDS)
    def test_family_bits_alone_and_in_any_order(self, kind):
        # a reference draw over three of the rule's blocks, a gene outside
        # the domain, one whose marginal underflows and one far above the
        # noise
        m = simulate.REFERENCE_MODELS[kind][0]
        obs = np.concatenate([simulate.simulate_experiment(m, 150, 2, seed=5).observed,
                              [-1.0, 1e-300, 2000.0]])
        corrected, diags = correct.correct_array(obs, m)
        rev, rev_diags = correct.correct_array(obs[::-1], m)
        np.testing.assert_array_equal(rev[::-1], corrected)
        for i, p in enumerate(obs.tolist()):
            j = obs.size - 1 - i
            assert rev_diags[j] == dataclasses.replace(diags[i], index=j)
            alone, one = correct.correct_array(np.array([p]), m)
            np.testing.assert_array_equal(alone, corrected[i:i + 1])
            assert one[0] == dataclasses.replace(diags[i], index=0)
        assert {d.path for d in diags[:-3]} == {"tilt"}
        assert diags[-3].error.startswith("DomainError:")

    @pytest.mark.parametrize("kind", KINDS)
    def test_reference_genes_stay_on_the_rule_near_the_engine(self, kind):
        m, genes = simulate.REFERENCE_MODELS[kind]
        for seed in range(8):
            obs = simulate.simulate_experiment(m, genes, max(genes // 4, 50), seed=seed).observed
            values, diags = correct.correct_array(obs, m)
            assert {d.path for d in diags} == {"tilt"}, seed
            engine, refused = correct._quadrature_means(obs, m, 1e-8)
            assert not refused
            np.testing.assert_allclose(values, engine, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_likelihood_matches_the_referee(self, kind):
        # the likelihood reads the rule's value wherever the rule certifies it
        m = simulate.REFERENCE_MODELS[kind][0]
        ps = simulate.simulate_experiment(m, 12, 2, seed=3).observed
        res = quadrature.tilt_integrals(ps, m, None, estimate._LIKELIHOOD_REL_TOL)
        assert res.ok.all()
        got = estimate.log_marginal(m, ps)
        np.testing.assert_array_equal(got, res.log_f)
        want = [oracle.marginal_log_pdf_quadrature(float(p), m) for p in ps]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("m", [
        GammaLognormal(GammaParams(0.7, 5.0), LognormalParams(1.0, 0.5)),
        GBNormal(GBParams(0.9, 1.0, 20.0, 0.8, 10.0), NormalParams(1.0, 0.3)),
    ], ids=["gamma_lognormal", "gb_normal"])
    def test_small_powers_take_the_engine(self, m):
        # a signal density s^(k - 1) at 0 with k < 1: every gene takes the
        # engine, with the recorded reason, in one call, as on the engine
        # route; the likelihood takes the engine whole
        reason = quadrature.tilt_refusal(m)
        assert reason.startswith("signal power ")
        obs = simulate.simulate_experiment(m, 60, 2, seed=4).observed
        obs = obs[obs > 0]
        values, diags = correct.correct_array(obs, m)
        assert {(d.path, d.error) for d in diags} == {("quadrature", reason)}
        engine, refused = correct._quadrature_means(obs, m, 1e-8)
        assert not refused
        np.testing.assert_array_equal(values, engine)
        lm, rows = estimate.log_marginal(m, obs, grad=True)
        want = quadrature.log_integrals(obs, m, estimate._fisher_weights(m),
                                        estimate._LIKELIHOOD_REL_TOL)
        np.testing.assert_array_equal(lm, np.where(want.ok, want.log_f, -np.inf))
        np.testing.assert_array_equal(rows, np.where(want.means_ok, want.means, np.nan))


class TestGridRoute:
    """correct_array answers a gamma_normal gene of shape >= 1 on the
    likelihood's FFT grid, alpha beta f_(alpha+1)(p)/f_alpha(p), and sends
    the genes the grid cannot answer to the engine with the reason."""

    def test_within_tolerance_of_the_referee(self):
        from beadcorr import validation
        assert correct.ROUTES["gamma_normal"] == "grid"
        tol = validation.TOLERANCES["gamma_normal"]
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(4):
            m, p = validation.draw_case("gamma_normal", rng)
            cases.append((m, np.array([p, 0.5 * p, 0.8 * p, 1.5 * p, 3.0 * p])))
        m, genes = simulate.REFERENCE_MODELS["gamma_normal"]
        cases.append((m, simulate.simulate_experiment(m, genes, max(genes // 4, 50),
                                                      seed=7).observed))
        for m, obs in cases:
            corrected, diags = correct.correct_array(obs, m)
            assert all(d.path == "grid" for d in diags)
            ref = [oracle.posterior_mean_quadrature(p, m, Q) for p in obs.tolist()]
            np.testing.assert_allclose(corrected, ref, rtol=tol, atol=0)

    def test_unit_shape_is_rma(self):
        # Gamma(1, 1/theta) is Exp(theta); far above the noise the truncated
        # closed form and the untruncated integral agree
        rng = np.random.default_rng(303)
        for _ in range(4):
            mu = rng.uniform(40, 200)
            b = NormalParams(mu, mu * rng.uniform(0.05, 0.13))
            theta = 1.0 / rng.uniform(30, 300)
            obs = mu + rng.uniform(0.2, 3.0, 20) / theta
            corrected, diags = correct.correct_array(
                obs, GammaNormal(GammaParams(1.0, 1.0 / theta), b))
            assert all(d.path == "grid" for d in diags)
            want = [correct.correct_rma(p, ExpParams(theta), b) for p in obs.tolist()]
            np.testing.assert_allclose(corrected, want, rtol=1e-6, atol=0)

    def test_same_bits_alone_and_beside_far_genes(self):
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        obs = np.array([60.0, 100.0, 150.0, 400.0, 700.0])
        far = np.array([1e6, m.noise.mu - 13.0 * m.noise.sigma])
        batch, diags = correct.correct_array(np.concatenate([far, obs, far]), m)
        assert [d.path for d in diags[2:-2]] == ["grid"] * obs.size
        # the engine answers the gene past the grid's extent and the one
        # below the noise
        assert diags[0].path == diags[1].path == "quadrature"
        for i, p in enumerate(obs.tolist()):
            alone, _ = correct.correct_array(np.array([p]), m)
            assert alone[0] == batch[i + 2]

    @pytest.mark.parametrize("m, reason", [
        (GammaNormal(GammaParams(0.8, 50.0), NormalParams(100.0, 15.0)), "shape >= 1"),
        (GammaNormal(GammaParams(0.5, 1100.0), NormalParams(366.0, 0.5)), "shape >= 1"),
        (GammaNormal(GammaParams(1.5, 1100.0), NormalParams(366.0, 0.5)), "exceed"),
    ], ids=["shape-0.8", "shape-0.5", "too-many-nodes"])
    def test_arrays_the_grid_refuses_take_the_engine(self, m, reason):
        obs = np.array([356.0, 370.0, 420.0])
        corrected, diags = correct.correct_array(obs, m)
        engine, _ = correct.correct_array_series(obs, m)
        assert all(d.path == "quadrature" and reason in d.error for d in diags)
        np.testing.assert_array_equal(corrected, engine)

    def test_genes_off_the_grid_take_the_engine(self):
        # a gene far below the noise, where the densities fall under the
        # corrector floor, and a gene past the grid's extent
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        obs = np.array([100.0 - 7.0 * 15.0, 150.0, 2200.0])
        corrected, diags = correct.correct_array(obs, m)
        engine, _ = correct.correct_array_series(obs, m)
        assert [d.path for d in diags] == ["quadrature", "grid", "quadrature"]
        assert diags[0].error == "grid density below the corrector floor"
        assert diags[2].error == "past the grid's extent"
        assert corrected[0] == engine[0] and corrected[2] == engine[2]
        assert corrected[1] == pytest.approx(engine[1], rel=1e-7)

    @pytest.mark.parametrize("far", [-1e300, -1e200, 100.0 - 13.0 * 15.0])
    def test_genes_below_the_grid_take_the_engine(self, far):
        # the grid reads no gene below its first node mu - 12 sigma; far
        # below it, its cubic weights and Taylor terms would overflow
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        corrected, diags = correct.correct_array(np.array([far, 120.0]), m)
        alone, one = correct.correct_array(np.array([120.0]), m)
        assert corrected[1] == alone[0] and diags[1] == dataclasses.replace(one[0], index=1)
        assert diags[0].path == "error" or diags[0] == correct.GeneDiagnostic(
            0, "quadrature", "below the grid's extent")


    def test_a_marginal_zero_in_logs_is_an_underflow(self):
        # every log integrand of the two genes far below the noise is -inf:
        # the engine's certificate reads NaN there, and the error names the
        # zero marginal, not the certificate
        m = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        corrected, diags = correct.correct_array(np.array([-1e300, -1e200, 120.0]), m)
        for d, p in zip(diags[:2], ("-1e+300", "-1e+200")):
            assert d.path == "error" and d.error == (
                f"NumericUnderflowError: marginal density underflowed at p={p}; "
                f"posterior mean undefined in floating point")
        assert np.isnan(corrected[:2]).all() and diags[2].path == "grid"


class TestCorrectArray:
    def test_empty(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        corrected, diags = correct.correct_array(np.array([]), m)
        assert corrected.size == 0 and diags == []

    def test_identical_inputs_identical_outputs(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        corrected, _ = correct.correct_array(np.full(5, 123.0), m)
        assert np.all(corrected == corrected[0])

    def test_batch_equals_serial(self):
        rng = np.random.default_rng(4)
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        obs = rng.exponential(100, 10000) + rng.normal(100, 15, 10000)
        batch, _ = correct.correct_array(obs, m)
        one_by_one = np.array([correct.correct_rma(float(p), m.signal, m.noise)
                               for p in obs])
        np.testing.assert_array_equal(batch, one_by_one)
        assert np.all((batch > 0) & (batch < obs))

    @pytest.mark.parametrize("m, variant", [
        (ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0)), "rma"),
        (ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0)), "mbcb"),
        (ExpNormal(ExpParams(0.001), NormalParams(500.0, 4.0)), "rma"),
        (ExpGamma(ExpParams(0.05), GammaParams(2.0, 4.0)), "rma"),
        (ExpGamma(ExpParams(0.5), GammaParams(2.0, 4.0)), "rma"),
    ], ids=["rma", "mbcb", "rma-underflow", "exp_gamma", "exp_gamma-negative-rate"])
    def test_array_closed_forms_match_the_scalar_formulas(self, m, variant):
        # the closed forms run over the whole array; gene by gene in scalar
        # arithmetic they agree to a few ulps, and refuse the same genes
        obs = np.concatenate([[-1.0, -np.inf, 1.0, 5000.0, 5200.0],
                              np.random.default_rng(7).exponential(80.0, 200) + 10.0])
        got, diags = correct.correct_array(obs, m, exp_normal_variant=variant)
        formula = _exp_gamma_formula if m.kind == "exp_gamma" else (
            _mbcb_formula if variant == "mbcb" else _rma_formula)
        for p, value, diag in zip(obs.tolist(), got.tolist(), diags):
            try:
                want = formula(float(p), m.signal, m.noise)
            except ValueError:
                assert diag.path == "error", p
                continue
            assert diag.path == "closed", p
            assert value == pytest.approx(want, rel=1e-14), p
        assert diags[0].error.startswith("DomainError")
        assert diags[1].error.startswith("DomainError")

    def test_errors_collected_not_raised(self):
        m = ExpNormal(ExpParams(0.001), NormalParams(500.0, 4.0))
        obs = np.array([5000.0, 1.0, 5200.0])   # middle point underflows
        corrected, diags = correct.correct_array(obs, m)
        assert math.isnan(corrected[1])
        assert diags[1].path == "error"
        assert np.isfinite(corrected[0]) and np.isfinite(corrected[2])

    def test_series_model_diagnostics(self):
        m = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
        obs = np.array([0.5, 0.8, 3.0])   # last one outside series region
        corrected, diags = correct.correct_array_series(obs, m)
        assert diags[0].path == "series" and diags[1].path == "series"
        assert diags[2].path == "quadrature"
        assert np.all(np.isfinite(corrected))

    def test_bad_genes_do_not_poison_the_batch(self):
        # a gene the engine cannot certify, and a GB gene outside the
        # support, are error rows; every other gene, marginals far below the
        # smallest float among them, keeps the bits it has alone; the GB
        # genes take the series, as the public corrector does, and the public
        # correctors give the paper's method's bits
        gn = GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0))
        gb = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
        for m, obs, bad, cls, apply in [
                (gn, [150.0, 1e10, 80.0, -4000.0, 300.0, 1e6], {1}, "QuadratureError",
                 correct.correct_array),
                (gb, [0.5, 5.0, 3.0, 0.8, 3.9], {1}, "DomainError",
                 correct.correct_array_series)]:
            corrected, diags = apply(np.array(obs), m)
            paper, paper_diags = correct.correct_array_series(np.array(obs), m)
            for i, p in enumerate(obs):
                if i in bad:
                    assert math.isnan(corrected[i]) and diags[i].path == "error"
                    assert diags[i].error.startswith(cls + ":")
                    continue
                alone, one = apply(np.array([p]), m)
                assert alone[0] == corrected[i] and one[0].path == diags[i].path
                value, info = correct._correct_one(p, m, "rma")
                assert value == paper[i] and info.path == paper_diags[i].path

    def test_uncertified_genes_are_refused(self, monkeypatch):
        # a gene whose error estimate misses the target is a QuadratureError
        # row that names its half-step change; the others keep the engine's
        # bits, and the referee's QUADPACK answers none of them
        real = quadrature.log_integrals

        def refuse_3_5(p, m, weights=None, rel_tol=1e-8):
            res = real(p, m, weights, rel_tol)
            res.means_ok[p == 3.5] = False
            res.change[p == 3.5] = 3e-5
            return res

        def no_quadpack(*args, **kwargs):
            raise AssertionError("QUADPACK called for a production gene")

        m = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
        obs = np.array([3.0, 3.5, 3.9])   # all outside the series region
        engine, _ = correct.correct_array(obs, m)
        monkeypatch.setattr(quadrature, "log_integrals", refuse_3_5)
        monkeypatch.setattr(oracle, "quad", no_quadpack)
        for apply in (correct.correct_array, correct.correct_array_series):
            corrected, diags = apply(obs, m)
            assert [d.path for d in diags] == ["quadrature", "error", "quadrature"]
            assert diags[1].error == (
                "QuadratureError: the tanh-sinh engine did not certify the posterior "
                "mean at p=3.5 (half-step change 3.00e-05)")
            assert math.isnan(corrected[1])
            assert corrected[0] == engine[0] and corrected[2] == engine[2]
        with pytest.raises(QuadratureError, match=r"half-step change 3\.00e-05"):
            correct.correct_gb(3.5, m.signal, m.noise)


class TestDomain:
    #: the public correctors of each family, by the paper's method
    PUBLIC = {"exp_normal": ("correct_rma", "correct_mbcb"),
              "exp_gamma": ("correct_exp_gamma",),
              "gamma_normal": ("correct_gamma_normal",),
              "exp_lognormal": ("correct_exp_lognormal",),
              "gamma_lognormal": ("correct_gamma_lognormal",),
              "gb_gb": ("correct_gb",), "gb_normal": ("correct_gb_normal",)}

    @pytest.mark.parametrize("kind", sorted(simulate.REFERENCE_MODELS))
    def test_non_finite_p_is_a_domain_error(self, kind):
        # on every family and route: the gene's row is a DomainError, and the
        # finite gene beside it keeps the bits it has alone
        m = simulate.REFERENCE_MODELS[kind][0]
        obs = np.array([5.0, np.nan, np.inf, -np.inf])
        for apply in (correct.correct_array, correct.correct_array_series):
            for variant in ("rma", "mbcb"):
                corrected, diags = apply(obs, m, variant)
                alone, one = apply(obs[:1], m, variant)
                assert corrected[0] == alone[0] and diags[0] == one[0]
                assert one[0].path != "error"
                assert np.isnan(corrected[1:]).all()
                assert [d.path for d in diags[1:]] == ["error"] * 3
                assert all(d.error.startswith("DomainError: ") for d in diags[1:])
        for name in self.PUBLIC[kind]:
            for p in (np.nan, np.inf, -np.inf):
                with pytest.raises(DomainError, match=name):
                    getattr(correct, name)(p, m.signal, m.noise)

    def test_finite_messages_name_the_corrector(self):
        m = simulate.REFERENCE_MODELS["exp_normal"][0]
        for variant in ("rma", "mbcb"):
            _, diags = correct.correct_array(np.array([-1.0, np.nan]), m, variant)
            assert [d.error for d in diags] == [
                f"DomainError: correct_{variant} requires p > 0, got -1.0",
                f"DomainError: correct_{variant} requires a finite p, got nan"]
        gb = GBGB(GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2))
        _, diags = correct.correct_array(np.array([5.0]), gb)
        assert diags[0].error == "DomainError: p=5.0 outside the convolution support (0, 4.0)"

    @pytest.mark.parametrize("alpha", [0.7, 2.0])
    def test_a_huge_intensity_is_one_error_row(self, alpha):
        # p far above the noise: the grid reads only the genes within its
        # extent, and the engine's ladder of knots near 0 (shape < 1) is
        # counted in logs, where its ratio overflows
        m = GammaNormal(GammaParams(alpha, 20.0), NormalParams(100.0, 15.0))
        corrected, diags = correct.correct_array(np.array([150.0, 1e300]), m)
        alone, one = correct.correct_array(np.array([150.0]), m)
        assert corrected[0] == alone[0] and diags[0].path == one[0].path != "error"
        assert diags[1].path == "error" and math.isnan(corrected[1])
        log_f = estimate.log_marginal(m, np.array([150.0, 1e300]))
        assert np.isfinite(log_f[0]) and log_f[1] == -np.inf
