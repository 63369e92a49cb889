"""Randomized corrector-versus-oracle validation.

Draws model parameters from documented reference ranges, samples an
observation from the model itself, keeps draws that satisfy the accuracy
preconditions (series convergence region; far-tail separation where the two
exponential-normal correctors coincide), and compares each corrector against
the quadrature referee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import correct, oracle, series
from .dists import (ExpGamma, ExpLognormal, ExpNormal, ExpParams,
                    GammaLognormal, GammaNormal, GammaParams, GBGB, GBNormal,
                    GBParams, LognormalParams, ModelSpec, NormalParams,
                    dist_sample)
from .errors import InvalidParameterError

#: relative tolerance of each corrector against the quadrature referee
TOLERANCES = {
    "exp_normal": 1e-6,
    "exp_normal_mbcb": 1e-6,
    "exp_gamma": 1e-6,
    "gamma_normal": 1e-6,
    "exp_lognormal": 1e-3,
    "gamma_lognormal": 1e-3,
    "gb_gb": 1e-3,
    "gb_normal": 1e-3,
}

VALIDATABLE = tuple(TOLERANCES)


def draw_case(kind: str, rng) -> tuple[ModelSpec, float]:
    """One (model, observation) pair from the documented safe ranges.

    Resamples until the observation satisfies the family's validation gate,
    so every returned case is one the non-oracle path should handle at its
    stated tolerance.
    """
    base = kind[:-5] if kind.endswith("_mbcb") else kind
    for _ in range(4000):
        m = _draw_model(base, rng)
        p = float(dist_sample(m.signal, 1, rng)[0] + dist_sample(m.noise, 1, rng)[0])
        if p <= 0:
            continue
        if _case_ok(kind, m, p):
            return m, p
    raise InvalidParameterError(f"could not draw a valid {kind} case")


def _draw_model(kind, rng):
    if kind == "exp_normal":
        mu = rng.uniform(40.0, 200.0)
        sigma = mu * rng.uniform(0.05, 0.13)
        theta = 1.0 / rng.uniform(30.0, 300.0)
        return ExpNormal(ExpParams(theta), NormalParams(mu, sigma))
    if kind == "exp_gamma":
        return ExpGamma(ExpParams(1.0 / rng.uniform(10.0, 60.0)),
                        GammaParams(rng.uniform(1.2, 4.0), rng.uniform(2.0, 8.0)))
    if kind == "gamma_normal":
        mu = rng.uniform(40.0, 200.0)
        sigma = mu * rng.uniform(0.05, 0.13)
        return GammaNormal(GammaParams(rng.uniform(1.3, 4.0), rng.uniform(15.0, 80.0)),
                           NormalParams(mu, sigma))
    if kind == "exp_lognormal":
        return ExpLognormal(ExpParams(1.0 / rng.uniform(10.0, 60.0)),
                            LognormalParams(rng.uniform(0.3, 1.5),
                                            rng.uniform(0.3, 0.7)))
    if kind == "gamma_lognormal":
        return GammaLognormal(GammaParams(rng.uniform(1.3, 3.0), rng.uniform(6.0, 20.0)),
                              LognormalParams(rng.uniform(0.2, 0.8),
                                              rng.uniform(0.25, 0.45)))
    if kind == "gb_gb":
        def comp():
            return GBParams(a=rng.uniform(0.8, 1.5), c=rng.uniform(0.15, 0.85),
                            d=rng.uniform(0.8, 2.0), u=rng.uniform(0.9, 2.5),
                            v=rng.uniform(1.2, 3.5))
        return GBGB(comp(), comp())
    if kind == "gb_normal":
        s = GBParams(a=rng.uniform(0.9, 1.5), c=rng.uniform(0.2, 0.8),
                     d=rng.uniform(1.5, 3.0), u=rng.uniform(1.0, 2.5),
                     v=rng.uniform(1.2, 3.0))
        mu = rng.uniform(0.25, 0.55)
        return GBNormal(s, NormalParams(mu, mu * rng.uniform(0.08, 0.2)))
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def _case_ok(kind, m, p):
    if kind in ("exp_normal", "exp_normal_mbcb", "gamma_normal"):
        # far-tail separation: the truncated and untruncated posterior means
        # coincide to ~1e-10 relative, and the marginal cannot underflow
        b = m.noise
        return b.mu / b.sigma >= 7.0 and p > b.mu * 0.2
    if kind == "exp_gamma":
        return True
    return series.convergence_ok(m, p)


@dataclass(frozen=True)
class ValidationRow:
    index: int
    p: float
    corrected: float
    reference: float
    rel_error: float
    path: str
    within_tol: bool


def run_validation(kind: str, n_draws: int, seed: int,
                   cfg: series.SeriesConfig = series.SeriesConfig()):
    """n corrector-vs-oracle comparisons; returns (rows, tolerance)."""
    if kind not in TOLERANCES:
        raise InvalidParameterError(
            f"unknown model kind {kind!r}; choose from {sorted(TOLERANCES)}")
    tol = TOLERANCES[kind]
    rng = np.random.default_rng(seed)
    qcfg = oracle.QuadConfig()
    variant = "mbcb" if kind == "exp_normal_mbcb" else "rma"
    rows = []
    for i in range(n_draws):
        m, p = draw_case(kind, rng)
        value, info = correct._correct_one(p, m, cfg, variant)
        ref = oracle.posterior_mean_quadrature(p, m, qcfg)
        rel = abs(value - ref) / abs(ref)
        rows.append(ValidationRow(index=i, p=p, corrected=value, reference=ref,
                                  rel_error=rel, path=info.path,
                                  within_tol=bool(rel <= tol)))
    return rows, tol


def validation_report_tsv(rows) -> str:
    cols = ["index", "p", "corrected", "reference", "rel_error", "path", "within_tol"]
    lines = ["\t".join(cols)]
    for r in rows:
        lines.append("\t".join([str(r.index), repr(r.p), repr(r.corrected),
                                repr(r.reference), repr(r.rel_error), r.path,
                                "1" if r.within_tol else "0"]))
    return "\n".join(lines) + "\n"
