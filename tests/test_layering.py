"""QUADPACK is the referee's alone.

Outside the referee (``oracle``) and the validation harness that runs it
(``validation``), no module of the package refers to one of the referee's
``*_quadrature`` functions, so no production value comes from QUADPACK.  The
package namespace re-exports them for users and calls none.
"""

import ast
from pathlib import Path

import beadcorr

PACKAGE = Path(beadcorr.__file__).parent
REFEREE_USERS = {"oracle.py", "validation.py"}
RE_EXPORTS = {"__init__.py"}


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
