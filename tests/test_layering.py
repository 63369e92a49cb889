"""Layering rules of the package, checked on its syntax trees.

QUADPACK is the referee's alone.  Outside the referee (``oracle``) and the
validation harness that runs it (``validation``), no module of the package
refers to one of the referee's ``*_quadrature`` functions, so no production
value comes from QUADPACK.  The package namespace re-exports them for users
and calls none.

The series' truncation policy is its own.  Only ``series`` refers to its two
constants (``REL_TOL``, ``MAX_TERMS``), so no caller steers the truncation,
and no module refers to the removed ``SeriesConfig``.

The likelihood integrates on one path.  In ``estimate`` only ``_integrals``
refers to the quadrature module's integrators (``log_integrals``,
``tilt_integrals``), so the likelihood's value, its score and the GB score's
gene block choose between the tilt and the engine in one place.

The series is the paper's route alone.  Only ``correct`` (for
``PAPER_ROUTES``), ``validation`` and the package's re-exports refer to the
``series`` module, so the likelihood never sums one, and no route of
``correct.ROUTES`` is the series.
"""

import ast
from pathlib import Path

import beadcorr
from beadcorr import correct

PACKAGE = Path(beadcorr.__file__).parent
REFEREE_USERS = {"oracle.py", "validation.py"}
RE_EXPORTS = {"__init__.py"}
TRUNCATION = {"REL_TOL", "MAX_TERMS"}
SERIES_USERS = {"correct.py", "validation.py"}
INTEGRATORS = {"log_integrals", "tilt_integrals"}


def _referee_names(path, imports=True):
    """The referee's *_quadrature names a module refers to as oracle.<name>
    or, with imports, imports from oracle."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr.endswith("_quadrature")
                and isinstance(node.value, ast.Name) and node.value.id == "oracle"):
            names.add(node.attr)
        elif (imports and isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "oracle"):
            names.update(a.name for a in node.names if a.name.endswith("_quadrature"))
    return names


def test_only_the_referee_and_validation_refer_to_its_quadrature():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {m.name for m in modules} >= REFEREE_USERS | RE_EXPORTS | {"correct.py",
                                                                      "estimate.py"}
    users = {m.name for m in modules
             if _referee_names(m, imports=m.name not in RE_EXPORTS)}
    assert users == {"validation.py"}


def test_the_check_sees_both_spellings(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import oracle\nx = oracle.posterior_mean_quadrature\n")
    assert _referee_names(module) == {"posterior_mean_quadrature"}
    module.write_text("from .oracle import marginal_log_pdf_quadrature as f, quad\n")
    assert _referee_names(module) == {"marginal_log_pdf_quadrature"}
    assert _referee_names(module, imports=False) == set()


def _identifiers(path):
    """Every identifier a module mentions: names, attributes, imported names
    and the names it defines."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        for field in ("id", "attr", "name", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                found.add(value)
    return found


def test_only_the_series_refers_to_its_truncation_policy():
    for module in sorted(PACKAGE.glob("*.py")):
        names = _identifiers(module)
        assert "SeriesConfig" not in names, module.name
        if module.name != "series.py":
            assert not names & TRUNCATION, module.name
    assert TRUNCATION <= _identifiers(PACKAGE / "series.py")


def test_the_identifier_check_sees_every_spelling(tmp_path):
    module = tmp_path / "m.py"
    for text in ("from . import series\nx = series.MAX_TERMS\n",
                 "from .series import REL_TOL as tol\n",
                 "def f(cfg=SeriesConfig()):\n    pass\n",
                 "class SeriesConfig:\n    pass\n"):
        module.write_text(text)
        assert _identifiers(module) & (TRUNCATION | {"SeriesConfig"}), text


def _integrator_users(path):
    """The top-level definitions of a module that refer to an integrator of
    the quadrature module, as quadrature.<name> or by an imported name;
    "<module>" for a reference outside any definition."""
    users = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr in INTEGRATORS
                 and isinstance(node.value, ast.Name) and node.value.id == "quadrature")
                    or (isinstance(node, ast.Name) and node.id in INTEGRATORS)
                    or (isinstance(node, ast.ImportFrom)
                        and (node.module or "").split(".")[-1] == "quadrature"
                        and any(a.name in INTEGRATORS for a in node.names))):
                users.add(getattr(top, "name", "<module>"))
    return users


def test_only_one_function_of_the_likelihood_integrates():
    assert _integrator_users(PACKAGE / "estimate.py") == {"_integrals"}


def test_the_integrator_check_sees_every_spelling(tmp_path):
    module = tmp_path / "m.py"
    for text, users in (("def f(p):\n    return quadrature.log_integrals(p)\n", {"f"}),
                        ("from .quadrature import tilt_integrals as t\n", {"<module>"}),
                        ("def g(p):\n    return log_integrals(p)\n", {"g"}),
                        ("class C:\n    run = quadrature.tilt_integrals\n", {"C"}),
                        ("def h(p):\n    return quadrature.Integrals(p)\n", set())):
        module.write_text(text)
        assert _integrator_users(module) == users, text


def _refers_to_series(path):
    """Whether a module imports the series module, or from it, or names it."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                (node.module or "").split(".")[-1] == "series"
                or any(a.name == "series" for a in node.names)):
            return True
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[-1] == "series" for a in node.names):
            return True
        if isinstance(node, ast.Name) and node.id == "series":
            return True
    return False


def test_only_the_paper_route_and_validation_refer_to_the_series():
    modules = sorted(PACKAGE.glob("*.py"))
    users = {m.name for m in modules if _refers_to_series(m)}
    assert users - RE_EXPORTS == SERIES_USERS


def test_the_series_check_sees_every_spelling(tmp_path):
    module = tmp_path / "m.py"
    for text in ("from . import series\n", "from .series import posterior_mean\n",
                 "from beadcorr.series import posterior_mean\n", "import beadcorr.series\n",
                 "x = series.posterior_mean\n"):
        module.write_text(text)
        assert _refers_to_series(module), text
    module.write_text("from . import quadrature\nx = quadrature.series_like\n")
    assert not _refers_to_series(module)


def test_no_production_route_is_the_series():
    assert "series" not in correct.ROUTES.values()
    assert set(correct.ROUTES) == set(correct.PAPER_ROUTES)
