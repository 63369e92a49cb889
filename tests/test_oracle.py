import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from beadcorr import oracle
from beadcorr.dists import (ExpGamma, ExpNormal, ExpParams, GammaNormal,
                            GammaParams, GBGB, GBParams, NormalParams,
                            gb_support_upper)
from beadcorr.errors import NumericUnderflowError

Q = oracle.QuadConfig()
UNIFORM = GBParams(1, 0, 1, 1, 1)


def exp_normal_marginal_closed(p, theta, mu, sigma):
    mu_sp = p - mu - sigma ** 2 * theta
    return (theta * math.exp(theta ** 2 * sigma ** 2 / 2 - (p - mu) * theta)
            * (ndtr(mu_sp / sigma) + ndtr((p - mu_sp) / sigma) - 1.0))


class TestMarginal:
    def test_triangular(self):
        m = GBGB(UNIFORM, UNIFORM)
        assert oracle.marginal_pdf_quadrature(0.5, m, Q) == pytest.approx(0.5, rel=1e-9)
        assert oracle.marginal_pdf_quadrature(1.5, m, Q) == pytest.approx(0.5, rel=1e-9)

    def test_exp_normal_closed_form(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        got = oracle.marginal_pdf_quadrature(250.0, m, Q)
        want = exp_normal_marginal_closed(250.0, 0.01, 100.0, 15.0)
        assert got == pytest.approx(want, rel=1e-8)

    def test_normalization_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = float(rng.uniform(0.01, 0.2))
            alpha = float(rng.uniform(1.2, 4.0))
            beta = float(rng.uniform(1.0, 8.0))
            m = ExpGamma(ExpParams(theta), GammaParams(alpha, beta))
            hi = 1.0 / theta * 30 + alpha * beta * 10
            total, _ = quad(lambda p: oracle.marginal_pdf_quadrature(p, m, Q),
                            0, hi, limit=300)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_gb_normalization(self):
        s = GBParams(0.9, 0.4, 1.2, 0.9, 2.1)
        b = GBParams(1.1, 0.6, 0.8, 1.3, 1.7)
        m = GBGB(s, b)
        hi = gb_support_upper(s) + gb_support_upper(b)
        total, _ = quad(lambda p: oracle.marginal_pdf_quadrature(p, m, Q),
                        0, hi, limit=400, points=[hi * 0.01, hi * 0.5])
        assert total == pytest.approx(1.0, abs=1e-6)


class TestPosteriorMean:
    def test_triangular_posterior(self):
        m = GBGB(UNIFORM, UNIFORM)
        assert oracle.posterior_mean_quadrature(0.5, m, Q) == pytest.approx(0.25, rel=1e-9)

    def test_result_within_support(self):
        rng = np.random.default_rng(5)
        m = GammaNormal(GammaParams(2.0, 5.0), NormalParams(10.0, 2.0))
        for _ in range(30):
            p = float(rng.uniform(5.0, 60.0))
            val = oracle.posterior_mean_quadrature(p, m, Q)
            assert 0.0 < val

    def test_underflow_raises(self):
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        with pytest.raises(NumericUnderflowError):
            oracle.posterior_mean_quadrature(1e5, m, Q)

    @pytest.mark.parametrize("p,g,b,want", [
        # 30-digit mpmath values; the gamma mass sits at the signal's own
        # scale, far inside the noise window p - mu +- 8 sigma
        (26.55557015243313, GammaParams(2.768484019547243, 0.00723977254093289),
         NormalParams(35.895369943422544, 34.35813740443723), 0.0200420432225054),
        (133.87216281769633, GammaParams(3.168352637544194, 0.015183361434622072),
         NormalParams(351.445645558385, 313.29136371939455), 0.0481046237137679),
    ])
    def test_narrow_gamma_signal_under_wide_noise(self, p, g, b, want):
        got = oracle.posterior_mean_quadrature(p, GammaNormal(g, b), Q)
        assert got == pytest.approx(want, rel=1e-9)

    def test_self_consistency_tightening(self):
        m = GammaNormal(GammaParams(3.0, 2.0), NormalParams(5.0, 1.5))
        loose = oracle.posterior_mean_quadrature(
            30.0, m, oracle.QuadConfig(abs_tol=1e-8, rel_tol=1e-6))
        tight = oracle.posterior_mean_quadrature(
            30.0, m, oracle.QuadConfig(abs_tol=1e-12, rel_tol=1e-10))
        assert loose == pytest.approx(tight, rel=1e-6)


class TestIndependence:
    def test_no_series_dependency(self):
        # the referee must not consume the code paths it referees: its only
        # package imports are the special functions and the densities
        import ast
        import beadcorr.oracle as omod
        tree = ast.parse(open(omod.__file__).read())
        internal = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                internal.add(node.module)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("beadcorr"):
                        internal.add(alias.name.split(".", 1)[1])
        assert internal <= {"dists", "errors", "specfun"}, internal
