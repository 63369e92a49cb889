"""The series' den and num sums, boxes and values, pinned bit for bit.

``series_pins.json`` holds, per series family and gene source, the SHA-256
of one line per gene: for the den and the num evaluator ``repr(log_abs)``,
``repr(sign)`` and ``terms_used`` (or the refusal's type and message), then
``repr(series.posterior_mean)`` and, for the GB families, ``repr`` of the
series marginal log density.  The genes are ``validation.draw_case`` draws
(``DRAWS`` per seed of ``SEEDS``) and those of the reference model's first
``REFERENCE_GENES`` simulated genes that the convergence gate accepts (the
tail check refuses every gamma_lognormal reference gene, so that source is
empty and the family's draws carry its pins).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from beadcorr import series, simulate, validation
from beadcorr.errors import BeadcorrError

PINS = json.loads((Path(__file__).parent / "data" / "series_pins.json").read_text())

SEEDS, DRAWS = (0, 1, 2), 8
#: simulated genes of the reference model (seed 0) the gate is asked about
REFERENCE_GENES = 60

#: series family -> (evaluator prefix, marginal log density or None)
FAMILIES = {
    "exp_lognormal": ("exp_lognormal", None),
    "gamma_lognormal": ("gamma_lognormal", None),
    "gb_gb": ("gb_pair", series.marginal_gb_log),
    "gb_normal": ("gb_normal", series.marginal_gb_normal_log),
}


def cases(kind, source):
    """(model, p) pairs of one gene source."""
    if source == "draws":
        out = []
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            out += [validation.draw_case(kind, rng) for _ in range(DRAWS)]
        return out
    m = simulate.REFERENCE_MODELS[kind][0]
    ps = simulate.simulate_experiment(m, REFERENCE_GENES, 1, 0).observed.tolist()
    return [(m, p) for p in ps if series.convergence_ok(m, p)]


def _cell(fn, fmt):
    try:
        return fmt(fn())
    except BeadcorrError as exc:
        return f"{type(exc).__name__}: {exc}"


def _sum_cell(v):
    return f"{v.log_abs!r} {v.sign!r} {v.terms_used}"


def gene_line(kind, m, p):
    prefix, marginal = FAMILIES[kind]
    cells = [repr(p)]
    for part in ("den", "num"):
        evaluator = getattr(series, f"{prefix}_{part}_series")
        cells.append(_cell(lambda: evaluator(p, m.signal, m.noise), _sum_cell))
    cells.append(_cell(lambda: series.posterior_mean(m, p), repr))
    if marginal is not None:
        cells.append(_cell(lambda: marginal(p, m.signal, m.noise), repr))
    return "\t".join(cells)


def digest(kind, source):
    lines = [gene_line(kind, m, p) for m, p in cases(kind, source)]
    return {"genes": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


@pytest.mark.parametrize("source", ["draws", "reference"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_series_is_pinned(kind, source):
    assert digest(kind, source) == PINS[kind][source]
