import math

import numpy as np
import pytest
from scipy.integrate import quad

from beadcorr import dists
from beadcorr.dists import (ExpNormal, ExpParams, GammaParams, GBParams,
                            LognormalParams, NormalParams, dist_pdf,
                            dist_sample, gb_from_gamma, gb_from_lognormal,
                            gb_pdf, gb_support_upper, lognormal_logpdf, pdf,
                            sample)
from beadcorr.errors import InvalidParameterError

UNIFORM = GBParams(a=1, c=0, d=2, u=1, v=1)


class TestParamValidation:
    def test_gb_invariants(self):
        with pytest.raises(InvalidParameterError):
            GBParams(a=1, c=1.2, d=1, u=1, v=1)
        with pytest.raises(InvalidParameterError):
            GBParams(a=-1, c=0.5, d=1, u=1, v=1)
        with pytest.raises(InvalidParameterError):
            GBParams(a=1, c=0.5, d=0, u=1, v=1)

    def test_other_families(self):
        with pytest.raises(InvalidParameterError):
            NormalParams(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            ExpParams(-1.0)
        with pytest.raises(InvalidParameterError):
            LognormalParams(0.0, -0.1)

    def test_gamma_rate_constructor(self):
        g = GammaParams.from_rate(2.0, 0.25)
        assert g.beta == pytest.approx(4.0)

    def test_gb_normal_requires_positive_mu(self):
        s = GBParams(1, 0.5, 1, 1, 2)
        with pytest.raises(InvalidParameterError):
            dists.GBNormal(s, NormalParams(-1.0, 1.0))


class TestGBPdf:
    def test_c1_collapse(self):
        # a=c=d=u=v=1 reduces to 1/(1+x)^2
        p = GBParams(1, 1, 1, 1, 1)
        xs = np.linspace(0.01, 10, 100)
        np.testing.assert_allclose(gb_pdf(xs, p), 1.0 / (1.0 + xs) ** 2, atol=1e-12)
        assert gb_pdf(1.0, p) == pytest.approx(0.25, abs=1e-14)

    def test_uniform_case(self):
        assert gb_pdf(1.0, UNIFORM) == pytest.approx(0.5, abs=1e-14)
        assert gb_pdf(5.0, UNIFORM) == 0.0
        assert gb_pdf(-1.0, UNIFORM) == 0.0

    def test_log_density_where_the_power_overflows(self):
        # (x/d)^a overflows a float at these x; the log density does not
        g = GBParams(50, 1, 20, 2, 10)
        scalar = dists.dist_logpdf_scalar(g)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for x in (1e8, 1e10):
                vec = dists.gb_logpdf(x, g)
                assert math.isfinite(vec)
                assert scalar(x) == pytest.approx(vec, rel=1e-14)
                # log1p(x^50 / 20^50) is 50 log(x / 20) to double precision here
                assert vec == pytest.approx(
                    math.log(50) + 99 * math.log(x) - 100 * math.log(20)
                    - dists.specfun.log_beta(2, 10) - 12 * 50 * math.log(x / 20),
                    rel=1e-12)

    def test_log_density_a_few_ulps_below_the_upper_end(self):
        # (1 - c)(x/d)^a rounds to 1 or above there: the density is 0, read
        # without a warning (the suite turns RuntimeWarnings into errors)
        g = GBParams(2.3236176503996253, 0.013239383924497528, 14.468213890275774,
                     1.9215913111513332, 6.515490898541306)
        upper = gb_support_upper(g)
        xs = np.array([upper - 1e-15, upper - 2e-15])
        assert dists.gb_logpdf(xs, g).tolist() == [-math.inf, -math.inf]
        assert all(dists.gb_logpdf(float(x), g) == -math.inf for x in xs)
        assert dists.gb_logpdf(upper - 4e-15, g) == pytest.approx(-191.9066, abs=1e-3)

    def test_support_upper(self):
        assert gb_support_upper(UNIFORM) == pytest.approx(2.0)
        assert gb_support_upper(GBParams(2, 0.75, 1, 1, 1)) == pytest.approx(2.0)
        assert gb_support_upper(GBParams(1, 1, 1, 1, 1)) == math.inf

    @pytest.mark.parametrize("p", [
        GBParams(1, 0.5, 1, 2, 3),
        GBParams(0.7, 0.3, 1.5, 0.8, 2.0),   # singular at 0 (au < 1)
        GBParams(2.0, 1.0, 3.0, 1.5, 4.0),   # unbounded support
        GBParams(1.3, 0.0, 2.0, 2.0, 0.7),   # singular at the upper edge (v < 1)
    ])
    def test_normalization(self, p):
        hi = gb_support_upper(p)
        if math.isinf(hi):
            total, _ = quad(lambda x: gb_pdf(x, p), 0, np.inf, limit=400)
        else:
            total, _ = quad(lambda x: gb_pdf(x, p), 0, hi, limit=400,
                            points=[hi * 1e-6, hi * 0.5, hi * (1 - 1e-6)])
        assert total == pytest.approx(1.0, abs=1e-6)


class TestFamilyPdfs:
    def test_examples(self):
        m = ExpNormal(ExpParams(2.0), NormalParams(0.0, 1.0))
        assert pdf(0.0, m, "signal") == pytest.approx(2.0)
        assert dist_pdf(LognormalParams(0.0, 1.0), 1.0) == pytest.approx(
            0.3989422804014327, rel=1e-12)
        assert dist_pdf(GammaParams(2.0, 1.0), 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_normalization_random_families(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(50):
            cases.append(ExpParams(float(rng.uniform(0.01, 2.0))))
            cases.append(GammaParams(float(rng.uniform(0.3, 5.0)),
                                     float(rng.uniform(0.5, 20.0))))
            cases.append(NormalParams(float(rng.uniform(-5, 50)),
                                      float(rng.uniform(0.2, 10.0))))
            cases.append(LognormalParams(float(rng.uniform(-1, 2)),
                                         float(rng.uniform(0.2, 1.2))))
        for params in cases:
            knots = None
            if isinstance(params, NormalParams):
                lo, hi = params.mu - 12 * params.sigma, params.mu + 12 * params.sigma
            elif isinstance(params, LognormalParams):
                lo = math.exp(params.mu - 10 * params.sigma)
                hi = math.exp(params.mu + 10 * params.sigma)
                knots = [math.exp(params.mu + k * params.sigma) for k in (-2, 0, 2)]
            else:
                lo, hi = dists.dist_support(params)
            total, _ = quad(lambda x: dist_pdf(params, x), lo, hi, limit=300,
                            points=knots)
            assert total == pytest.approx(1.0, abs=1e-6), params

    def test_scalar_closures_match(self):
        rng = np.random.default_rng(3)
        cases = [ExpParams(0.3), GammaParams(2.2, 3.0), NormalParams(5.0, 2.0),
                 LognormalParams(0.4, 0.8), GBParams(1.2, 0.4, 2.0, 1.5, 2.5)]
        for params in cases:
            f = dists.dist_logpdf_scalar(params)
            for x in rng.uniform(0.05, 4.0, 20):
                assert f(float(x)) == pytest.approx(
                    float(dists.dist_logpdf(params, float(x))), rel=1e-12, abs=1e-12)


class TestLimitMappings:
    def test_gamma_mapping_values(self):
        g = gb_from_gamma(GammaParams(2.0, 1.0), 1e4)
        assert (g.a, g.c, g.u, g.v) == (1.0, 1.0, 2.0, 1e4)
        assert g.d == pytest.approx(1e4)

    def test_gamma_mapping_density_close(self):
        target = GammaParams(2.0, 1.0)
        xs = np.linspace(1e-3, 20.0, 400)
        exact = dist_pdf(target, xs)
        g = gb_from_gamma(target, 1e4)
        assert np.max(np.abs(gb_pdf(xs, g) - exact)) < 1e-3

    def test_gamma_mapping_converges_in_v(self):
        target = GammaParams(2.0, 1.0)
        xs = np.linspace(1e-3, 20.0, 400)
        exact = dist_pdf(target, xs)
        gaps = [np.max(np.abs(gb_pdf(xs, gb_from_gamma(target, v)) - exact))
                for v in (1e2, 1e3, 1e4)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_gamma_mapping_normalizes(self):
        g = gb_from_gamma(GammaParams(2.0, 1.0), 1e4)
        total, _ = quad(lambda x: gb_pdf(x, g), 0, 60.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_exponential_special_case(self):
        g = gb_from_gamma(GammaParams(1.0, 1.0), 1e4)
        assert g.u == 1.0 and g.a == 1.0 and g.c == 1.0

    def test_lognormal_mapping_close(self):
        l = LognormalParams(0.0, 0.5)
        g = gb_from_lognormal(l, v_big=1e6, a_small=0.05)
        xs = np.linspace(0.1, 5.0, 200)
        gap = np.max(np.abs(gb_pdf(xs, g) - np.exp(lognormal_logpdf(xs, l))))
        assert gap < 5e-2

    def test_lognormal_mapping_improves_with_smaller_a(self):
        l = LognormalParams(0.0, 0.5)
        xs = np.linspace(0.1, 5.0, 200)
        gaps = []
        for a_small, v_big in ((0.1, 1e6), (0.05, 1e6), (0.02, 1e8)):
            g = gb_from_lognormal(l, v_big=v_big, a_small=a_small)
            gaps.append(np.max(np.abs(gb_pdf(xs, g) - np.exp(lognormal_logpdf(xs, l)))))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_lognormal_mapping_normalizes(self):
        g = gb_from_lognormal(LognormalParams(0.0, 0.5), 1e6, 0.05)
        total, _ = quad(lambda x: gb_pdf(x, g), 0, 30.0, limit=400)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            gb_from_lognormal(LognormalParams(0.0, 0.2), v_big=1e30, a_small=0.02)


class TestSampling:
    def test_determinism(self):
        m = ExpNormal(ExpParams(1.0), NormalParams(0.0, 1.0))
        a = sample(m, "signal", 1000, seed=7)
        b = sample(m, "signal", 1000, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_exponential_mean(self):
        m = ExpNormal(ExpParams(1.0), NormalParams(0.0, 1.0))
        draws = sample(m, "signal", 100000, seed=7)
        se = 1.0 / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_gb_uniform_support(self):
        draws = dist_sample(UNIFORM, 2000, np.random.default_rng(3))
        assert np.all((draws > 0) & (draws < 2))

    @pytest.mark.parametrize("params", [
        ExpParams(0.7),
        GammaParams(2.5, 3.0),
        NormalParams(10.0, 2.0),
        LognormalParams(0.3, 0.6),
        GBParams(1.15, 0.45, 1.2, 1.7, 2.6),
        GBParams(1.0, 1.0, 5.0, 1.5, 6.0),
    ])
    def test_ks_against_quadrature_cdf(self, params):
        n = 10000
        draws = np.sort(dist_sample(params, n, np.random.default_rng(11)))
        lo, _ = dists.dist_support(params)
        lo = max(lo, -np.inf)
        # CDF at ~60 probe points by direct quadrature of the density
        idx = np.linspace(0, n - 1, 60).astype(int)
        start = lo if math.isfinite(lo) else draws[0] - 10 * np.std(draws)
        ks = 0.0
        prev_x, prev_cdf = start, 0.0
        for i in idx:
            x = draws[i]
            seg, _ = quad(lambda t: dist_pdf(params, t), prev_x, x, limit=300)
            cdf = prev_cdf + seg
            emp_lo, emp_hi = i / n, (i + 1) / n
            ks = max(ks, abs(cdf - emp_lo), abs(cdf - emp_hi))
            prev_x, prev_cdf = x, cdf
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value


#: 20 draws at seed 20131220 of each reference GB component and one c < 1
#: component, each solved on its knot panel by Brent's method (xtol 1e-15,
#: rtol 1e-14): an independent inversion of the same PCHIP CDF
_PINNED_GB_DRAWS = {
    "gb_gb signal": (GBParams(1.0, 1.0, 30.0, 2.0, 8.0), [
        8.759152704229386, 1.1624628040624747, 0.582118235273878, 7.704031069934835,
        11.58210986158773, 6.162346342066004, 11.101451806145315, 10.467707703406164,
        7.318239710103783, 3.8862518556240353, 3.1954424742875673, 2.563150217084207,
        3.894139916795, 10.941962519431264, 15.918307423860853, 2.0991172995105263,
        0.9845878108826842, 12.658257205243261, 20.710759497414788, 10.379189127164105]),
    "gb_gb noise": (GBParams(1.0, 1.0, 30.0, 1.5, 12.0), [
        4.189245154971942, 0.38350830740222563, 0.15912384460791285, 3.63641393355955,
        5.667981820647475, 2.8320065521112006, 5.416641251238066, 5.084873452384242,
        3.4345999083844645, 1.6655879442895272, 1.3221440912860674, 1.0155570329931531,
        1.669549949461349, 5.333185206957344, 7.918498136681959, 0.7971914370486345,
        0.3111269811752252, 6.2295850411560885, 10.359534199685513, 5.038504528115132]),
    "gb_normal signal": (GBParams(1.0, 1.0, 20.0, 2.0, 10.0), [
        4.603625841641506, 0.6246590883242071, 0.31338000604633903, 4.060769668414255,
        6.042136644995928, 3.2622093718304845, 5.798586130157438, 5.47661446746981,
        3.861544593720894, 2.070960114123008, 1.7063617609171637, 1.371350461645188,
        2.0751150948320256, 5.717649792891476, 8.215343532503304, 1.12468681294376,
        0.529377542122692, 6.5854439999086996, 10.57107635666334, 5.4315650218864295]),
    "c = 0.5": (GBParams(1.0, 0.5, 1.0, 2.0, 3.0), [
        0.6112427981659726, 0.09314065457076633, 0.04708915813871638, 0.5485948094846941,
        0.7650889772496352, 0.45177949783011245, 0.7402614166055851, 0.7066846682871839,
        0.5249618044883775, 0.2970524533905149, 0.24726761532230643, 0.20054493205489984,
        0.29761331504528427, 0.7319022760836663, 0.9657816889638111, 0.16555592168505334,
        0.07912109604191023, 0.8187294292339733, 1.1448571337865485, 0.7019175777922337]),
}


class TestGBSampler:
    def test_reference_components_are_pinned(self):
        from beadcorr.simulate import REFERENCE_MODELS
        gb_gb, gb_normal = REFERENCE_MODELS["gb_gb"][0], REFERENCE_MODELS["gb_normal"][0]
        assert _PINNED_GB_DRAWS["gb_gb signal"][0] == gb_gb.signal
        assert _PINNED_GB_DRAWS["gb_gb noise"][0] == gb_gb.noise
        assert _PINNED_GB_DRAWS["gb_normal signal"][0] == gb_normal.signal

    @pytest.mark.parametrize("name", list(_PINNED_GB_DRAWS))
    def test_matches_pinned_root_finder_draws(self, name):
        params, want = _PINNED_GB_DRAWS[name]
        got = dist_sample(params, 20, np.random.default_rng(20131220))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", list(_PINNED_GB_DRAWS))
    def test_same_seed_same_bytes(self, name):
        params, _ = _PINNED_GB_DRAWS[name]
        a = dist_sample(params, 500, np.random.default_rng(4))
        b = dist_sample(params, 500, np.random.default_rng(4))
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("params", [
        GBParams(1.0, 0.5, 1.0, 2.0, 3.0),
        GBParams(2.0, 0.9, 1.0, 0.7, 0.4),     # v < 1: mass piled at the upper end
        GBParams(0.5, 0.3, 2.0, 0.6, 5.0),     # u < 1: mass piled at zero
    ])
    def test_draws_inside_support(self, params):
        draws = dist_sample(params, 20000, np.random.default_rng(9))
        assert np.all(np.isfinite(draws))
        assert np.all((draws > 0.0) & (draws < gb_support_upper(params)))
