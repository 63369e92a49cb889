import math

import numpy as np
import pytest

from beadcorr import simulate
from beadcorr.dists import ExpNormal, ExpParams, NormalParams
from beadcorr.errors import InvalidParameterError

MODEL = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))


class TestSimulateExperiment:
    def test_determinism(self):
        a = simulate.simulate_experiment(MODEL, 500, 100, seed=9)
        b = simulate.simulate_experiment(MODEL, 500, 100, seed=9)
        np.testing.assert_array_equal(a.observed, b.observed)
        np.testing.assert_array_equal(a.true_signal, b.true_signal)
        np.testing.assert_array_equal(a.negatives, b.negatives)

    def test_additivity_is_exact(self):
        d = simulate.simulate_experiment(MODEL, 200, 50, seed=1)
        noise = d.observed - d.true_signal
        assert np.all(np.isfinite(noise))
        # reconstruction is bit-exact by construction
        np.testing.assert_array_equal(d.true_signal + noise, d.observed)

    def test_observed_mean(self):
        d = simulate.simulate_experiment(MODEL, 10000, 100, seed=3)
        se = math.sqrt((100.0 ** 2 + 15.0 ** 2) / 10000)
        assert abs(np.mean(d.observed) - 200.0) < 3 * se

    def test_negatives_variance(self):
        d = simulate.simulate_experiment(MODEL, 10, 10000, seed=5)
        sd_of_var = 15.0 ** 2 * math.sqrt(2.0 / 10000)
        assert abs(np.var(d.negatives) - 225.0) < 3 * sd_of_var

    def test_size_validation(self):
        with pytest.raises(InvalidParameterError):
            simulate.simulate_experiment(MODEL, 0, 10, seed=0)


class TestBenchmark:
    def test_perfect_corrector(self):
        d = simulate.simulate_experiment(MODEL, 300, 50, seed=2)
        rep = simulate.benchmark_mse(d, d.true_signal)
        assert rep.mse == 0.0 and rep.bias == 0.0

    def test_identity_gives_noise_power(self):
        d = simulate.simulate_experiment(MODEL, 300, 50, seed=2)
        rep = simulate.benchmark_mse(d, d.observed)
        realized_noise = d.observed - d.true_signal
        assert rep.mse == pytest.approx(float(np.mean(realized_noise ** 2)), rel=1e-12)
        assert rep.bias == pytest.approx(float(np.mean(realized_noise)), rel=1e-12)

    def test_length_mismatch(self):
        d = simulate.simulate_experiment(MODEL, 300, 50, seed=2)
        with pytest.raises(InvalidParameterError):
            simulate.benchmark_mse(d, d.observed[:-1])

    def test_deciles_cover_all_genes(self):
        d = simulate.simulate_experiment(MODEL, 505, 50, seed=4)
        rep = simulate.benchmark_mse(d, d.observed)
        assert len(rep.decile_mse) == 10
        assert all(math.isfinite(v) for v in rep.decile_mse)


class TestModelMatchedDominance:
    def test_corrector_beats_naive_exp_normal(self):
        from beadcorr import correct
        wins = 0
        for seed in range(10):
            d = simulate.simulate_experiment(MODEL, 1500, 300, seed=seed)
            corrected, _ = correct.correct_array(d.observed, MODEL)
            mse_c = simulate.benchmark_mse(d, corrected).mse
            naive = simulate.naive_correction(d.observed, d.negatives)
            mse_n = simulate.benchmark_mse(d, naive).mse
            wins += mse_c < mse_n
        assert wins == 10
