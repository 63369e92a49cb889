import math
import re

import numpy as np
import pytest
from scipy import special as sp

from beadcorr import correct, series, simulate, validation
from beadcorr.dists import (ExpParams, GammaParams, GBGB, GBNormal, GBParams,
                            LognormalParams, NormalParams)
from beadcorr.errors import (DomainError, InvalidParameterError, SeriesDivergenceError,
                             SeriesError, SeriesNonConvergenceError)
from beadcorr.oracle import QuadConfig, marginal_pdf_quadrature
from beadcorr.specfun import gaussian_moment_table, std_normal_cdf

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
                                              LognormalParams(0.0, 0.5))
        ref = brute_lognormal_exp(10.0, 0.1, 0.0, 0.5, 0)
        assert val.value == pytest.approx(self.FROZEN_DEN, rel=1e-12)
        assert val.value == pytest.approx(ref, rel=1e-10)

    def test_num_matches_reference(self):
        val = series.exp_lognormal_num_series(10.0, ExpParams(0.1),
                                              LognormalParams(0.0, 0.5))
        ref = brute_lognormal_exp(10.0, 0.1, 0.0, 0.5, 1)
        assert val.value == pytest.approx(ref, rel=1e-10)

    def test_theta_zero_collapse(self):
        # rate exactly zero: only the k = 0 term survives (0^0 = 1)
        l = LognormalParams(0.2, 0.7)
        val = series.exp_lognormal_den_series(5.0, None, l)
        assert val.terms_used == (1,)
        assert val.converged
        assert val.value == pytest.approx(
            std_normal_cdf((math.log(5.0) - 0.2) / 0.7), rel=1e-12)
        # a vanishingly small positive rate agrees with the collapsed value
        near = series.exp_lognormal_den_series(5.0, ExpParams(1e-300), l)
        assert near.value == pytest.approx(val.value, rel=1e-14)

    def test_num_theta_zero_collapse(self):
        l = LognormalParams(0.2, 0.7)
        val = series.exp_lognormal_num_series(5.0, None, l)
        assert val.value == pytest.approx(
            std_normal_cdf((math.log(5.0) - 0.2 - 0.49) / 0.7), rel=1e-12)

    def test_truncation_depth(self):
        val = series.exp_lognormal_den_series(10.0, ExpParams(0.1),
                                              LognormalParams(0.0, 0.5))
        assert val.converged and val.terms_used[0] <= 60

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(series, "MAX_TERMS", 3)
        with pytest.raises(SeriesNonConvergenceError):
            series.exp_lognormal_den_series(10.0, ExpParams(2.0),
                                            LognormalParams(1.0, 0.5))


class TestGammaLognormalSeries:
    def test_matches_rectangular_reference(self):
        g, l = GammaParams(1.5, 2.0), LognormalParams(0.0, 0.4)
        val = series.gamma_lognormal_den_series(20.0, g, l)
        ref = brute_gamma_lognormal(20.0, 1.5, 2.0, 0.0, 0.4, 0)
        assert val.value == pytest.approx(ref, rel=1e-8)

    def test_alpha_one_reduces_to_exp(self):
        # gamma(1, beta) is exponential with theta = 1/beta
        l = LognormalParams(0.3, 0.5)
        for p in (6.0, 15.0, 40.0):
            c3 = series.gamma_lognormal_den_series(p, GammaParams(1.0, 4.0), l)
            c1 = series.exp_lognormal_den_series(p, ExpParams(0.25), l)
            assert c3.value == pytest.approx(c1.value, rel=1e-9)
            c4 = series.gamma_lognormal_num_series(p, GammaParams(1.0, 4.0), l)
            c2 = series.exp_lognormal_num_series(p, ExpParams(0.25), l)
            # num kernels differ by the marginal prefactor shift; compare the
            # corrector-relevant ratios
            lhs = p * math.exp(c4.log_abs - c3.log_abs)
            rhs = p - math.exp(0.3 + 0.125 + c2.log_abs - c1.log_abs)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_alpha_one_k_axis_collapses(self):
        val = series.gamma_lognormal_den_series(
            20.0, GammaParams(1.0, 4.0), LognormalParams(0.3, 0.5))
        assert val.terms_used[0] == 1

    def test_integer_alpha_k_axis_terminates(self):
        val = series.gamma_lognormal_num_series(
            20.0, GammaParams(2.0, 4.0), LognormalParams(0.3, 0.5))
        assert val.terms_used[0] <= 3  # C(2, k) = 0 beyond k = 2


class TestGBPairSeries:
    def test_uniform_pair_is_triangular(self):
        den = series.gb_pair_den_series(0.5, UNIFORM, UNIFORM)
        assert den.value == pytest.approx(1.0, abs=1e-12)
        assert den.terms_used == (1, 1, 1, 1)
        assert series.marginal_gb(0.5, UNIFORM, UNIFORM) == pytest.approx(
            0.5, abs=1e-12)

    def test_uniform_pair_num(self):
        num = series.gb_pair_num_series(0.5, UNIFORM, UNIFORM)
        assert num.value == pytest.approx(0.5, abs=1e-12)  # B(2, 1)
        den = series.gb_pair_den_series(0.5, UNIFORM, UNIFORM)
        assert 0.5 * num.value / den.value == pytest.approx(0.25, abs=1e-12)

    def test_marginal_matches_oracle(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        got = series.marginal_gb(0.8, s, b)
        ref = marginal_pdf_quadrature(0.8, GBGB(s, b), QuadConfig())
        assert got == pytest.approx(ref, rel=1e-4)

    def test_degenerate_collapse_axes(self):
        # c = 0 kills the n axis; c = 1 kills the l axis
        s0 = GBParams(1, 0.0, 1, 1.5, 2.5)
        b1 = GBParams(1, 1.0, 5, 1.5, 6.0)
        den = series.gb_pair_den_series(0.6, s0, b1)
        l_used, m_used, n_used, r_used = den.terms_used
        assert n_used == 1   # signal c = 0
        assert m_used == 1   # noise c = 1
        assert den.converged

    def test_shape_two_marginal_matches_oracle(self):
        s = GBParams(2.0, 0.4, 1.2, 1.5, 2.2)
        b = GBParams(2.0, 0.5, 1.1, 1.4, 2.0)
        k1p = math.exp(series.marginal_gb_log(0.7, s, b))
        ref = marginal_pdf_quadrature(0.7, GBGB(s, b), QuadConfig())
        assert k1p == pytest.approx(ref, rel=1e-4)

    def test_out_of_support_raises(self):
        with pytest.raises(DomainError):
            series.gb_pair_den_series(5.0, UNIFORM, UNIFORM)

    def test_truncation_monotonicity(self, monkeypatch):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        base = series.gb_pair_den_series(0.8, s, b)
        monkeypatch.setattr(series, "MAX_TERMS", 2 * series.MAX_TERMS)
        more = series.gb_pair_den_series(0.8, s, b)
        rel = abs(more.value - base.value) / abs(more.value)
        assert rel < series.REL_TOL * 10


class TestGBNormalSeries:
    def test_tight_noise_uniform_corrector(self):
        # posterior mean of a symmetric truncated kernel sits at p - mu
        b = NormalParams(0.25, 0.02)
        den = series.gb_normal_den_series(0.75, UNIFORM, b)
        num = series.gb_normal_num_series(0.75, UNIFORM, b)
        corrected = (0.75 - 0.25) * math.exp(num.log_abs - den.log_abs)
        assert corrected == pytest.approx(0.5, abs=1e-3)

    def test_uniform_signal_n_axis_terminates(self):
        b = NormalParams(0.25, 0.02)
        den = series.gb_normal_den_series(0.75, UNIFORM, b)
        # C(a(u+l+m)-1, n) = C(0, n) kills n >= 1 at l = m = 0, so the moment
        # axis contributes exactly its first term
        tab = gaussian_moment_table(1, -(0.75 - 0.25) / 0.02, 0.25 / 0.02)
        assert den.value == pytest.approx(tab[0], rel=1e-10)

    def test_marginal_matches_oracle(self):
        s = GBParams(1.0, 0.5, 2.0, 1.5, 2.0)
        b = NormalParams(0.3, 0.06)
        got = series.marginal_gb_normal(1.4, s, b)
        ref = marginal_pdf_quadrature(1.4, GBNormal(s, b), QuadConfig())
        assert got == pytest.approx(ref, rel=1e-3)

    def test_divergent_point_raises(self):
        # mass beyond the signal-scale expansion radius: c (p/d)^a = 2 > 1
        s = GBParams(1.0, 1.0, 2.0, 1.5, 2.0)
        b = NormalParams(1.0, 0.3)
        assert not series.convergence_ok(GBNormal(s, b), 4.0)
        with pytest.raises(SeriesError):
            series.gb_normal_den_series(4.0, s, b)

    def test_requires_p_above_mu(self):
        with pytest.raises(DomainError):
            series.gb_normal_den_series(0.1, UNIFORM, NormalParams(0.25, 0.02))

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


class TestArrayGate:
    """An array through the series route gets, gene by gene, the verdict,
    boxes, sums and refusals of the per-gene entry (``posterior_mean``)."""

    KINDS = ("exp_lognormal", "gamma_lognormal", "gb_gb", "gb_normal")
    LABELS = {"exp_lognormal": "exp_lognormal", "gamma_lognormal": "gamma_lognormal",
              "gb_gb": "gb_pair", "gb_normal": "gb_normal"}

    def cases(self, kind):
        rng = np.random.default_rng(11)
        out = []
        for _ in range(4):
            m, p = validation.draw_case(kind, rng)
            out.append((m, np.array([p, 0.5 * p, 1.5 * p, 2.0 * p, 4.0 * p, 9.0 * p, -p])))
        m = simulate.REFERENCE_MODELS[kind][0]
        out.append((m, simulate.simulate_experiment(m, 40, 2, seed=3).observed))
        return out

    @pytest.mark.parametrize("kind", KINDS)
    def test_gate_equals_per_gene(self, kind):
        # the series path exactly where the gate accepts and the sums
        # confirm; the refusal's message as the reason elsewhere; the value
        # and the reason the gene has alone and in reversed order
        accepted = refused = 0
        for m, p in self.cases(kind):
            values, diags = correct.correct_array_series(p, m)
            rev, rev_diags = correct.correct_array_series(p[::-1], m)
            for i, q in enumerate(p.tolist()):
                j = p.size - 1 - i
                assert rev_diags[j].path == diags[i].path
                assert rev_diags[j].error == diags[i].error
                np.testing.assert_array_equal(rev[j], values[i])
                try:
                    want = series.posterior_mean(m, q)
                except SeriesError as exc:
                    # a gene outside the corrector's domain is an error row
                    if diags[i].path != "error":
                        assert diags[i].path == "quadrature" and diags[i].error == str(exc)
                    refused += 1
                    continue
                assert series.convergence_ok(m, q)
                assert diags[i].path == "series" and values[i] == want
                accepted += 1
        assert accepted and refused

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_sums_equal_the_evaluators(self, kind):
        # posterior_mean sums on the gate's boxes, as the evaluators do, and
        # refuses a gene with the error an evaluator raises
        family = series._FAMILIES[kind]
        den_fn, num_fn = (getattr(series, f"{self.LABELS[kind]}_{part}_series")
                          for part in ("den", "num"))
        for m, p in self.cases(kind):
            for q in p.tolist():
                if not series.convergence_ok(m, q):
                    continue
                try:
                    den, num = den_fn(q, m.signal, m.noise), num_fn(q, m.signal, m.noise)
                except SeriesError as exc:
                    with pytest.raises(SeriesError, match=re.escape(str(exc))):
                        series.posterior_mean(m, q)
                    continue
                assert (den.terms_used, num.terms_used) == series._boxes(
                    kind, q, m.signal, m.noise)
                with np.errstate(over="ignore", invalid="ignore"):
                    want = float(family.value(q, num.log_abs, den.log_abs, m.signal, m.noise))
                if den.sign > 0 and num.sign > 0 and 0.0 < want < q:
                    assert series.posterior_mean(m, q) == want
                else:
                    with pytest.raises(SeriesError, match="cancellation|escaped"):
                        series.posterior_mean(m, q)


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
        limit = int(series.GATE_DEPTH_FRACTION * series.MAX_TERMS)
        refused_by_depth = 0
        for kind, kernels in self.FAMILIES.items():
            for _ in range(12):
                m, p = validation.draw_case(kind, rng)
                for q in (p, 2.0 * p, 4.0 * p):
                    in_region = q > 0 and series._FAMILIES[kind].in_region(
                        m.signal, m.noise, np.array([q]))
                    boxes = (series._boxes(kind, q, m.signal, m.noise)
                             if in_region else ())
                    fits = all(max(box) <= limit for box in boxes)
                    assert series.convergence_ok(m, q) == (in_region and fits)
                    refused_by_depth += in_region and not fits
                    if in_region and fits:
                        for kernel, box in zip(kernels, boxes):
                            value = kernel(q, m.signal, m.noise)
                            assert value.terms_used == box
        assert refused_by_depth > 0

    @pytest.mark.parametrize("kind", list(FAMILIES))
    def test_gate_accepted_reference_draws_evaluate(self, kind):
        # the gate and the evaluators agree: every gene the gate accepts
        # takes the series path, so its den and num series were summed on
        # the gate's boxes without a refusal (TestArrayGate ties those sums
        # to the per-gene evaluators)
        m = simulate.REFERENCE_MODELS[kind][0]
        data = simulate.simulate_experiment(m, 3000, 10, seed=99)
        diags = correct.correct_array_series(data.observed, m)[1]
        accepted = [series.convergence_ok(m, p) for p in data.observed.tolist()]
        assert [d.path == "series" for d in diags] == accepted
        # the tail check refuses every gamma_lognormal reference gene: its
        # lognormal noise reaches past them (TestArrayGate draws accepted ones)
        assert kind == "gamma_lognormal" or sum(accepted) > 2000

    def test_exp_lognormal_scan_stops_with_the_full_scan_boxes(self, monkeypatch):
        # the gate scans the terms only until they fall below the limit past
        # their peak; every box equals the one of all MAX_TERMS + 1 terms
        def full_scan(p, e, l):
            out = []
            for shift in (0, 1):
                lt = series._lognormal_weight_terms(np.log(p)[:, None], e.theta, l, shift,
                                                    series.MAX_TERMS + 1)
                limit = np.max(lt, axis=1) + math.log(series.REL_TOL) - series.TAIL_MARGIN
                out.append(series._depth(lt, limit)[:, None])
            return tuple(out)

        rng = np.random.default_rng(5)
        cases = [validation.draw_case("exp_lognormal", rng) for _ in range(40)]
        models = [(m, np.array([p, 0.3 * p, 3.0 * p, 30.0 * p, 300.0 * p]))
                  for m, p in cases]
        ref = simulate.REFERENCE_MODELS["exp_lognormal"][0]
        models.append((ref, simulate.simulate_experiment(ref, 500, 2, seed=7).observed))
        models.append((ref, np.geomspace(1e-3, 1e5, 60)))
        for cap in (series.MAX_TERMS, 20):
            monkeypatch.setattr(series, "MAX_TERMS", cap)
            for m, p in models:
                want = full_scan(p, m.signal, m.noise)
                for i, q in enumerate(p.tolist()):
                    got = series._exp_lognormal_boxes(np.array([q]), m.signal, m.noise)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w[i:i + 1])

    def test_depth_past_the_cap_raises(self, monkeypatch):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        assert series.convergence_ok(GBGB(s, b), 0.8)
        monkeypatch.setattr(series, "MAX_TERMS", 20)
        assert not series.convergence_ok(GBGB(s, b), 0.8)
        with pytest.raises(SeriesNonConvergenceError, match="past the cap"):
            series.gb_pair_den_series(0.8, s, b)

    def test_batch_flags_genes_the_gate_refuses(self):
        s, b = GBParams(1, 0.5, 1, 2, 3), GBParams(1, 0.5, 1, 1, 2)
        ps = [0.5, 0.8, 3.0]
        assert [series.convergence_ok(GBGB(s, b), p) for p in ps] == [True, True, False]
        with pytest.raises(SeriesDivergenceError, match="outside series convergence region"):
            series.posterior_mean(GBGB(s, b), ps[2])
        for p in ps[:2]:
            den = series.gb_pair_den_series(p, s, b)
            num = series.gb_pair_num_series(p, s, b)
            assert den.sign > 0 and num.sign > 0
            assert series.posterior_mean(GBGB(s, b), p) == pytest.approx(
                p * math.exp(num.log_abs - den.log_abs), rel=1e-14)

    def test_models_without_a_series_are_refused(self):
        # the gate and the series corrector read one family table; a model
        # outside it is an error, not a refusal
        closed = simulate.REFERENCE_MODELS["exp_normal"][0]
        for call in (lambda: series.convergence_ok(closed, 150.0),
                     lambda: series.posterior_mean(closed, 150.0)):
            with pytest.raises(InvalidParameterError, match="exp_normal"):
                call()
