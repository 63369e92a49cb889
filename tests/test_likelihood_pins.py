"""The likelihood layer's bits, pinned by hash.

``likelihood_pins.json`` holds, per model, the SHA-256 of
``estimate.loglik_score`` at the model itself (``repr`` of the value, then
the bytes of the gradient and of the per-observation rows) on the draws of
seeds 0-2: 100 genes and 50 controls each.  The models are the exp_normal,
exp_gamma, exp_lognormal, gamma_lognormal, gb_normal and gb_gb reference
models and the five gamma_normal models of the route pins.  Regenerate
with ``PYTHONPATH=src python tests/test_likelihood_pins.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from beadcorr import estimate, simulate
from test_route_pins import MODELS

PIN_FILE = Path(__file__).parent / "data" / "likelihood_pins.json"
CASES = (["exp_normal", "exp_gamma", "exp_lognormal", "gamma_lognormal", "gb_normal", "gb_gb"]
         + sorted(k for k in MODELS if k.startswith("gamma_normal")))
SEEDS, GENES, CONTROLS = (0, 1, 2), 100, 50


def digest(case):
    m = MODELS[case]
    h = hashlib.sha256()
    for seed in SEEDS:
        data = simulate.simulate_experiment(m, GENES, CONTROLS, seed)
        prob = estimate.EstimationProblem(data.observed, data.negatives, m.kind)
        value, grad, rows = estimate.loglik_score(m, prob)
        h.update(repr(value).encode())
        h.update(grad.tobytes())
        h.update(rows.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_likelihood_is_pinned(case):
    assert digest(case) == json.loads(PIN_FILE.read_text())[case]


if __name__ == "__main__":
    PIN_FILE.write_text(json.dumps({case: digest(case) for case in CASES}, indent=1) + "\n")
