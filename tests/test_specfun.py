import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from beadcorr import specfun
from beadcorr.errors import DomainError


class TestLogGamma:
    def test_known_values(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)
        assert specfun.log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-13)

    def test_relative_error_over_range(self):
        # lgamma in the stdlib is an independent implementation
        for x in np.logspace(-6, 6, 200):
            assert specfun.log_gamma(float(x)) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.log_gamma(0.0)
        with pytest.raises(DomainError):
            specfun.log_gamma(-3.2)


class TestBetaFn:
    def test_known_values(self):
        assert specfun.beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert specfun.beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert specfun.beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.beta_fn(1.0, -1.0)

    @given(st.floats(0.01, 1e3), st.floats(0.01, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, u, v):
        assert specfun.beta_fn(u, v) == pytest.approx(specfun.beta_fn(v, u), rel=1e-12)


class TestDigamma:
    def test_known_values(self):
        assert specfun.digamma(1.0) == pytest.approx(-specfun.EULER_GAMMA, abs=1e-12)
        assert specfun.digamma(2.0) == pytest.approx(1.0 - specfun.EULER_GAMMA, abs=1e-12)
        assert specfun.digamma(0.5) == pytest.approx(
            -specfun.EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)

    @given(st.floats(0.1, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert specfun.digamma(x + 1.0) == pytest.approx(
            specfun.digamma(x) + 1.0 / x, abs=1e-10)

    def test_harmonic_numbers(self):
        # psi(n) - psi(1) equals the (n-1)-th harmonic number at integers
        for n in range(2, 60):
            harmonic = sum(1.0 / k for k in range(1, n))
            diff = specfun.digamma(float(n)) - specfun.digamma(1.0)
            assert diff == pytest.approx(harmonic, abs=1e-12)

    def test_negative_extension(self):
        # reflection agrees with the recurrence pushed below zero
        x = -0.7
        via_recurrence = specfun.digamma(x + 2.0) - 1.0 / (x + 1.0) - 1.0 / x
        assert specfun.digamma_any(x) == pytest.approx(via_recurrence, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.digamma(-1.0)


class TestLowerIncompleteGamma:
    def test_known_values(self):
        assert specfun.lower_incomplete_gamma(1.0, 1.0) == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12)
        assert specfun.lower_incomplete_gamma(3.7, 0.0) == 0.0
        assert specfun.lower_incomplete_gamma(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi) * math.erf(1.0), rel=1e-12)

    def test_limit_to_gamma(self):
        for s in (0.3, 1.0, 2.5, 7.0, 20.0):
            x = 50.0 + 10.0 * s
            assert specfun.lower_incomplete_gamma(s, x) == pytest.approx(
                math.gamma(s), rel=1e-8)

    def test_underflow_branch(self):
        # x << s forces the series path; compare against direct quadrature
        val = specfun.lower_incomplete_gamma(80.0, 1.0)
        ref, _ = quad(lambda t: t ** 79.0 * math.exp(-t), 0.0, 1.0)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_log_form_where_the_value_underflows(self):
        # gamma(300, 1e-3) ~ 1e-1514: only its log is representable
        s, x = 300.0, 1e-3
        log_val = specfun.log_lower_incomplete_gamma(s, x)
        assert log_val == pytest.approx(s * math.log(x) - x - math.log(s)
                                        + math.log1p(x / (s + 1)), rel=1e-12)
        assert specfun.lower_incomplete_gamma(s, x) == 0.0
        assert specfun.log_lower_incomplete_gamma(2.0, 0.0) == -math.inf
        assert math.exp(specfun.log_lower_incomplete_gamma(80.0, 1.0)) == \
            specfun.lower_incomplete_gamma(80.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            specfun.lower_incomplete_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.lower_incomplete_gamma(1.0, -0.5)


class TestStdNormal:
    def test_values(self):
        assert specfun.std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, rel=1e-12)
        assert specfun.std_normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert specfun.std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, rel=1e-10)

    def test_symmetry(self):
        for z in np.linspace(-8, 8, 101):
            assert specfun.std_normal_cdf(z) + specfun.std_normal_cdf(-z) == pytest.approx(
                1.0, abs=1e-14)

    def test_monotone(self):
        z = np.linspace(-10, 10, 2001)
        assert np.all(np.diff(specfun.std_normal_cdf(z)) >= 0)


class TestGenBinomial:
    def test_values(self):
        assert specfun.gen_binomial(0.5, 2) == pytest.approx(-0.125, rel=1e-14)
        assert specfun.gen_binomial(-3.7, 0) == 1.0
        assert specfun.gen_binomial(3.0, 2) == pytest.approx(3.0, rel=1e-14)

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_matches_integer_binomial(self, n, k):
        assert specfun.gen_binomial(float(n), k) == pytest.approx(
            float(math.comb(n, k)) if k <= n else 0.0, abs=1e-9)

    def test_log_array_matches_direct(self):
        for r in (0.5, -1.3, 4.0, 7.25):
            logs, signs = specfun.gen_binomial_log_array(r, 12)
            for k in range(12):
                direct = specfun.gen_binomial(r, k)
                recon = signs[k] * math.exp(logs[k]) if signs[k] != 0 else 0.0
                assert recon == pytest.approx(direct, rel=1e-12, abs=1e-300)

    def test_integer_cutoff(self):
        logs, signs = specfun.gen_binomial_log_array(3.0, 8)
        assert np.all(signs[4:] == 0.0)
        assert np.all(np.isneginf(logs[4:]))


class TestGaussianMomentIntegral:
    def test_odd_symmetry(self):
        for a in (0.5, 1.7, 4.0):
            assert specfun.gaussian_moment_integral(1, -a, a) == pytest.approx(0.0, abs=1e-14)

    def test_zeroth_moment(self):
        got = specfun.gaussian_moment_integral(0, -1.0, 1.0)
        want = math.sqrt(2 * math.pi) * (specfun.std_normal_cdf(1.0) - specfun.std_normal_cdf(-1.0))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(1.7112487837842976, rel=1e-10)

    def test_half_line_first_moment(self):
        assert specfun.gaussian_moment_integral(1, 0.0, 8.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(0, 9))
            lo = float(rng.uniform(-6, 5.5))
            hi = lo + float(rng.uniform(0.01, 6))
            got = specfun.gaussian_moment_integral(n, lo, hi)
            ref, _ = quad(lambda z: z ** n * math.exp(-z * z / 2.0), lo, hi, limit=200)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_limit_order(self):
        with pytest.raises(DomainError):
            specfun.gaussian_moment_integral(2, 1.0, 0.0)

    def test_tiny_upper_limit_table(self):
        # the (0, 1e-4) half-line pieces underflow far below the smallest float
        table = specfun.gaussian_moment_table(200, -5.0, 1e-4)
        assert np.all(np.isfinite(table))
        for n in (0, 3, 30, 40, 120):
            ref, _ = quad(lambda z: z ** n * math.exp(-z * z / 2.0), -5.0, 1e-4,
                          epsabs=0.0, epsrel=1e-12, limit=200)
            assert table[n] == pytest.approx(ref, rel=1e-9)
