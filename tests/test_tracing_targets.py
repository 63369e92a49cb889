"""The benchmark's tracer wraps module attributes of the package by name.

``perfbench/tracing.py`` is loaded by path, as the benchmark loads it, and
every (module, attribute) it names must exist: ``Tracer.install`` reads each
with a bare ``getattr``, so a renamed or deleted function breaks the traced
benchmark run, not this package's own tests.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("cli", "correct", "series", "oracle", "estimate", "specfun", "simulate")


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pkg = {m: importlib.import_module(f"beadcorr.{m}") for m in MODULES}
    targets = tracing.targets(pkg)
    assert targets
    missing = [name for module, attr, name, _ in targets if not hasattr(module, attr)]
    assert missing == []
