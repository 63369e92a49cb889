"""The benchmark's tracer wraps module attributes of the package by name.

``perfbench/tracing.py`` is loaded by path, as the benchmark loads it, and
every (module, attribute) it names must exist: ``Tracer.install`` reads each
with a bare ``getattr``, so a renamed or deleted function breaks the traced
benchmark run, not this package's own tests.
"""

import importlib
import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from beadcorr import series, validation

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "correct", "series", "oracle", "estimate", "specfun", "simulate")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_exists():
    tracing = load_tracing()
    pkg = {m: importlib.import_module(f"beadcorr.{m}") for m in MODULES}
    targets = tracing.targets(pkg)
    assert targets
    missing = [name for module, attr, name, _ in targets if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("kind,prefix", [("exp_lognormal", "exp_lognormal"),
                                         ("gamma_lognormal", "gamma_lognormal"),
                                         ("gb_gb", "gb_pair"), ("gb_normal", "gb_normal")])
def test_series_terms_used_feed_the_note(kind, prefix):
    # the tracer's note on a series evaluator is (math.prod, max) of its
    # terms_used, written out as JSON: the box must be a tuple of Python ints
    note = load_tracing()._series_note
    m, p = validation.draw_case(kind, np.random.default_rng(0))
    for part in ("den", "num"):
        value = getattr(series, f"{prefix}_{part}_series")(p, m.signal, m.noise)
        assert type(value.terms_used) is tuple and value.terms_used
        assert all(type(n) is int for n in value.terms_used)
        assert json.loads(json.dumps(note(value))) == [math.prod(value.terms_used),
                                                       max(value.terms_used)]
