"""Every gene's value, path and error on every route, pinned by hash.

``route_pins.json`` holds, per model and entry point, the SHA-256 of one
line per gene, ``repr(value)``, path and error, as the route layer gave them
before it answered in arrays.  The genes are finite: draws of three seeds
and edge values around and far outside each family's domain.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from beadcorr import correct, simulate
from beadcorr.dists import (ExpLognormal, ExpParams, GammaNormal, GammaParams,
                            GBGB, GBNormal, GBParams, LognormalParams,
                            NormalParams)
from beadcorr.errors import BeadcorrError

PINS = json.loads((Path(__file__).parent / "data" / "route_pins.json").read_text())

_GB_EDGE = GBParams(1.2, 0.5, 2.0, 1.5, 2.0)
MODELS = {
    **{kind: m for kind, (m, _) in simulate.REFERENCE_MODELS.items()},
    # bounded supports: the GB + GB support check refuses genes past its end
    "gb_gb_edge": GBGB(_GB_EDGE, GBParams(1.0, 0.5, 0.5, 1.5, 2.0)),
    "gb_normal_edge": GBNormal(_GB_EDGE, NormalParams(0.5, 0.2)),
    # shape < 1: the grid refuses the array
    "gamma_normal_edge": GammaNormal(GammaParams(0.7, 50.0), NormalParams(100.0, 15.0)),
    "exp_lognormal_edge": ExpLognormal(ExpParams(0.08), LognormalParams(1.3, 2.5)),
    # the grid route: a step set by beta (beta < sigma), a shape in (1, 2)
    # and a large shape
    "gamma_normal_narrow_beta": GammaNormal(GammaParams(3.0, 5.0), NormalParams(100.0, 15.0)),
    "gamma_normal_low_shape": GammaNormal(GammaParams(1.5, 40.0), NormalParams(100.0, 15.0)),
    "gamma_normal_large_shape": GammaNormal(GammaParams(300.0, 1.0), NormalParams(100.0, 15.0)),
}
#: below, at and far above every family's domain end, and the exp_lognormal
#: reference model's genes that its tilt rule does not certify
EDGE_GENES = [-1.0, 0.0, 1e-300, 1e6] + np.linspace(400.0, 1000.0, 7).tolist()
SEEDS, DRAWS = (0, 1, 2), 100

#: the public correctors of each family: (name, takes with_info)
PUBLIC = {
    "exp_normal": [("correct_rma", False), ("correct_mbcb", False)],
    "exp_gamma": [("correct_exp_gamma", False)],
    "gamma_normal": [("correct_gamma_normal", False)],
    "exp_lognormal": [("correct_exp_lognormal", True)],
    "gamma_lognormal": [("correct_gamma_lognormal", True)],
    "gb_gb": [("correct_gb", True)],
    "gb_normal": [("correct_gb_normal", True)],
}


def genes(m):
    draws = [simulate.simulate_experiment(m, DRAWS, 1, seed).observed for seed in SEEDS]
    return np.concatenate(draws + [np.array(EDGE_GENES)])


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _array_lines(corrected, diags):
    return [f"{float(v)!r}\t{d.path}\t{d.error}" for v, d in zip(corrected.tolist(), diags)]


def _public_lines(name, with_info, ps, m):
    fn = getattr(correct, name)
    lines = []
    for p in ps.tolist():
        try:
            out = fn(p, m.signal, m.noise, with_info=True) if with_info else fn(
                p, m.signal, m.noise)
        except BeadcorrError as exc:
            lines.append(f"nan\terror\t{type(exc).__name__}: {exc}")
            continue
        value, info = out if with_info else (out, None)
        lines.append(f"{float(value)!r}\t{info and info.path}\t"
                     f"{info and info.fallback_reason}")
    return lines


def digests(case):
    """{entry point: hash} of one model's genes."""
    m = MODELS[case]
    ps = genes(m)
    out = {}
    variants = ("rma", "mbcb") if m.kind == "exp_normal" else ("rma",)
    for variant in variants:
        for entry in ("correct_array", "correct_array_series"):
            res = getattr(correct, entry)(ps, m, variant)
            out[f"{entry}:{variant}"] = _digest(_array_lines(*res))
    for name, with_info in PUBLIC[m.kind]:
        out[name] = _digest(_public_lines(name, with_info, ps, m))
    return out


@pytest.mark.parametrize("case", sorted(MODELS))
def test_routes_are_pinned(case):
    assert digests(case) == PINS[case]
