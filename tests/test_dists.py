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
#: component: each uniform's exact quantile, solved in x by mpmath's findroot
#: at 40 digits on the CDF betainc(u, v, 0, z(x)), z = t/(1 + c t) and
#: t = (x/d)^a, with the first three of each checked against mpmath's quad of
#: the GB density; no part of it shares code with the sampler
_PINNED_GB_DRAWS = {
    "gb_gb signal": (GBParams(1.0, 1.0, 30.0, 2.0, 8.0), [
        8.759152924795874, 1.162460118141278, 0.58213057487996, 7.704031204086058,
        11.58211002734465, 6.162346094968821, 11.101451536895224, 10.467707610577909,
        7.318239591262512, 3.8862522031188655, 3.195441978140076, 2.563149513975403,
        3.8941402907794416, 10.941962799681338, 15.918307401283403, 2.099117121813601,
        0.984582821987667, 12.658257405934792, 20.710758940377005, 10.379189271161327]),
    "gb_gb noise": (GBParams(1.0, 1.0, 30.0, 1.5, 12.0), [
        4.189245517464406, 0.3835009448928908, 0.1591380107018895, 3.6364136490073395,
        5.6679815274302845, 2.8320061348774743, 5.416640884522797, 5.084873040530389,
        3.4346000824841454, 1.665588387920725, 1.3221445894032295, 1.0155587143112608,
        1.669550015597903, 5.333184817802719, 7.918498483723035, 0.7971882035216238,
        0.3111025560298045, 6.229584884641264, 10.35953389812435, 5.038504766751606]),
    "gb_normal signal": (GBParams(1.0, 1.0, 20.0, 2.0, 10.0), [
        4.603626051064243, 0.624658787451568, 0.31339031919616417, 4.0607695704756335,
        6.042136891454673, 3.2622095899278776, 5.798585976792793, 5.476614343933379,
        3.8615447818625013, 2.0709599745822658, 1.7063612577755984, 1.3713511264043545,
        2.0751147767240954, 5.7176500215920685, 8.215343316435993, 1.1246857199213698,
        0.5293723636547835, 6.585444259736006, 10.571076163894565, 5.431564856622997]),
    "c = 0.5": (GBParams(1.0, 0.5, 1.0, 2.0, 3.0), [
        0.611242797624943, 0.09314077856997935, 0.047088875959453345, 0.5485948080507638,
        0.7650889811762505, 0.45177950158376257, 0.7402614167204107, 0.7066846712349346,
        0.5249618019271738, 0.2970524490359098, 0.24726760129292577, 0.20054491263211083,
        0.2976133044391699, 0.7319022732697662, 0.9657816835617018, 0.16555589791782963,
        0.07912089952376122, 0.8187294313845528, 1.1448571289332654, 0.7019175813755398]),
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
        GBParams(2.02, 0.999, 2.79, 11.5, 4.67),   # c near 1 with large u
    ] + [GBParams(a, c, 2.0, u, v)   # the corners of the fit's box
         for a in (0.02, 50.0) for c in (0.0, 1.0) for u in (0.01, 1e4) for v in (0.01, 1e4)])
    def test_draws_inside_support(self, params):
        # the suite turns RuntimeWarnings into errors: none is raised either
        draws = dist_sample(params, 20000, np.random.default_rng(9))
        assert np.all(np.isfinite(draws))
        assert np.all((draws > 0.0) & (draws < gb_support_upper(params)))

    def test_quantile_rounding_onto_the_support_end_moves_inside(self):
        class Uniforms:
            def uniform(self, size):
                return np.full(size, 1.0 - 1e-9)

        params = GBParams(2.0, 0.9, 1.0, 0.7, 0.4)
        upper = gb_support_upper(params)
        assert upper == 3.1622776601683795
        assert dist_sample(params, 1, Uniforms()).tolist() == [np.nextafter(upper, 0.0)]

    def test_lower_tail_matches_quadrature_cdf(self):
        # the 20 smallest of 10^5 draws of the gb_gb reference noise: each
        # one's CDF, by quadrature of the density, is its own uniform
        params = GBParams(1.0, 1.0, 30.0, 1.5, 12.0)
        n = 100000
        draws = dist_sample(params, n, np.random.default_rng(5))
        uniforms = np.random.default_rng(5).uniform(size=n)
        for i in np.argsort(draws)[:20]:
            cdf, _ = quad(lambda t: dist_pdf(params, t), 0.0, draws[i],
                          epsabs=0.0, epsrel=1e-13, limit=200)
            assert cdf == pytest.approx(uniforms[i], rel=1e-9, abs=0.0)

    def test_one_uniform_per_draw(self):
        # a shared generator's stream moves on exactly as by rng.uniform(size=n)
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        dist_sample(GBParams(1.15, 0.45, 1.2, 1.7, 2.6), 1000, rng)
        ref.uniform(size=1000)
        assert rng.bit_generator.state == ref.bit_generator.state
