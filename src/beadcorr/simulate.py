"""Ground-truth simulation and corrector benchmarking.

Stands in for spike-in benchmark data: draws (signal, noise) pairs from a
model, keeps the true signal, and scores correctors by mean squared error
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dists import (ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                    GammaLognormal, GammaNormal, GammaParams, GBGB, GBNormal,
                    GBParams, LognormalParams, ModelSpec, NormalParams,
                    dist_sample)
from .errors import InvalidParameterError

#: Documented reference parameters for benchmarking each family.  The GB
#: entries keep nearly all simulated intensities inside the series
#: convergence region; values: (model, genes per replication).
REFERENCE_MODELS = {
    "exp_normal": (ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0)), 2000),
    "exp_gamma": (ExpGamma(ExpParams(0.05), GammaParams(2.0, 4.0)), 2000),
    "gamma_normal": (GammaNormal(GammaParams(2.0, 50.0), NormalParams(100.0, 15.0)), 250),
    "exp_lognormal": (ExpLognormal(ExpParams(0.08), LognormalParams(1.3, 0.5)), 1000),
    "gamma_lognormal": (GammaLognormal(GammaParams(1.8, 3.5), LognormalParams(1.0, 0.5)), 300),
    "gb_gb": (GBGB(GBParams(1.0, 1.0, 30.0, 2.0, 8.0),
                   GBParams(1.0, 1.0, 30.0, 1.5, 12.0)), 250),
    "gb_normal": (GBNormal(GBParams(1.0, 1.0, 20.0, 2.0, 10.0),
                           NormalParams(1.0, 0.3)), 250),
}

#: floor of the naive control-mean-subtraction baseline, in intensity units
NAIVE_FLOOR = 1.0


@dataclass(frozen=True)
class SimDataset:
    """One simulated array: observed = true_signal + noise draw, exactly."""

    observed: np.ndarray
    true_signal: np.ndarray
    negatives: np.ndarray
    model: ModelSpec
    seed: int


def simulate_experiment(m: ModelSpec, I: int, W: int, seed: int) -> SimDataset:
    """Draw I (signal, noise) gene pairs and W negative controls."""
    if I < 1 or W < 1:
        raise InvalidParameterError(f"need I, W >= 1, got I={I}, W={W}")
    root = np.random.SeedSequence(seed)
    rs, rb, rw = (np.random.default_rng(s) for s in root.spawn(3))
    signal = dist_sample(m.signal, I, rs)
    noise = dist_sample(m.noise, I, rb)
    negatives = dist_sample(m.noise, W, rw)
    return SimDataset(observed=signal + noise, true_signal=signal,
                      negatives=negatives, model=m, seed=seed)


def naive_correction(observed, negatives):
    """Control-mean subtraction floored at NAIVE_FLOOR: the no-model baseline."""
    return np.maximum(np.asarray(observed, dtype=float)
                      - float(np.mean(negatives)), NAIVE_FLOOR)


@dataclass(frozen=True)
class MseReport:
    mse: float
    bias: float
    decile_mse: tuple  # ten entries, gene deciles ordered by true signal


def benchmark_mse(d: SimDataset, corrected) -> MseReport:
    """Score corrector outputs against the stored true signal."""
    corrected = np.asarray(corrected, dtype=float)
    if corrected.shape != d.true_signal.shape:
        raise InvalidParameterError(
            f"corrected vector length {corrected.shape} does not match "
            f"dataset length {d.true_signal.shape}")
    err = corrected - d.true_signal
    ok = np.isfinite(err)
    err = err[ok]
    mse = float(np.mean(err ** 2))
    bias = float(np.mean(err))
    order = np.argsort(d.true_signal[ok], kind="stable")
    bins = np.array_split(order, 10)
    decile = tuple(float(np.mean(err[b] ** 2)) if b.size else math.nan
                   for b in bins)
    return MseReport(mse=mse, bias=bias, decile_mse=decile)
