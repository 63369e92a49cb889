"""The fits' bits, pinned.

``fit_pins.json`` holds, per case, ``float.hex`` of the fitted parameters
(param_names order) and of the log-likelihood, and the fit's
``iterations``:

* for ``estimate.fit_mle`` on the seed-7 draw of each family's reference
  model, 100 genes and 200 controls, with one start and with the default
  budget;
* for the default-budget gb_gb fit of the seed-7 and seed-0 reference
  arrays (``simulate.REFERENCE_MODELS``, a quarter as many controls as
  genes, at least 50), with its ``converged`` verdict and ``at_cap``.  Their
  noise stages lean on the line search's fallback: 6 fallbacks (1 rescue)
  at seed 7, 12 (4 rescues) at seed 0.

Every pin was taken with SciPy's BFGS (``scipy.optimize.minimize``) before
``bfgs.minimize`` replaced it, so the pins check that the port keeps SciPy's
bits.  Do not regenerate them from ``bfgs.minimize``.
"""

import json
from pathlib import Path

import pytest

from beadcorr import estimate, simulate
from beadcorr.dists import model_to_values

PIN_FILE = Path(__file__).parent / "data" / "fit_pins.json"
KINDS = ["exp_normal", "exp_gamma", "gamma_normal", "exp_lognormal", "gamma_lognormal"]
BUDGETS = {"one_start": estimate.FitBudget(n_starts=1), "default": estimate.FitBudget()}
SEED, GENES, CONTROLS = 7, 100, 200
CASES = [f"{kind}/{budget}" for kind in KINDS for budget in BUDGETS]
GB_SEEDS = [7, 0]


def bits(fit):
    return {"params": [float(v).hex() for v in model_to_values(fit.params)],
            "loglik": float(fit.loglik).hex(), "iterations": fit.iterations}


def fit(kind, model, genes, controls, seed, budget=estimate.FitBudget()):
    data = simulate.simulate_experiment(model, genes, controls, seed)
    return estimate.fit_mle(estimate.EstimationProblem(data.observed, data.negatives, kind),
                            budget)


@pytest.mark.parametrize("case", CASES)
def test_fit_is_pinned(case):
    kind, budget = case.split("/")
    got = bits(fit(kind, simulate.REFERENCE_MODELS[kind][0], GENES, CONTROLS, SEED,
                   BUDGETS[budget]))
    assert got == json.loads(PIN_FILE.read_text())[case]


@pytest.mark.parametrize("seed", GB_SEEDS)
def test_gb_gb_reference_fit_is_pinned(seed):
    model, genes = simulate.REFERENCE_MODELS["gb_gb"]
    res = fit("gb_gb", model, genes, max(genes // 4, 50), seed)
    got = bits(res) | {"converged": res.converged, "at_cap": list(res.diagnostics["at_cap"])}
    assert got == json.loads(PIN_FILE.read_text())[f"gb_gb/reference_seed_{seed}"]
