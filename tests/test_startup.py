"""Cold start: what importing the CLI loads, and the traced quad boundary.

Importing beadcorr loads numpy and scipy.special only; scipy.optimize,
scipy.integrate, scipy.interpolate and scipy.fft load where they are first
used, so a ``correct`` that never fits or calls QUADPACK never pays for them.
"""

import subprocess
import sys

import numpy as np

from beadcorr import correct, oracle
from beadcorr.dists import ExpLognormal, ExpParams, LognormalParams

DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.fft")


def run_python(code):
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout


def test_importing_the_cli_loads_no_deferred_scipy_module():
    out = run_python("import sys, beadcorr.cli\n"
                     f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    assert out.strip() == "[]"


def test_correct_with_inline_params_never_loads_the_optimizer(tmp_path):
    obs, neg, dest = (tmp_path / n for n in ("observed.tsv", "negatives.tsv", "out.tsv"))
    obs.write_text("ProbeID\tA1\np1\t5.0\np2\t12.0\np3\t20.0\n")
    neg.write_text("ProbeID\tA1\nn1\t3.5\nn2\t4.0\nn3\t4.5\n")
    out = run_python(
        "import sys\n"
        "from beadcorr import cli\n"
        f"code = cli.main(['correct', {str(obs)!r}, {str(neg)!r}, '--model', "
        "'exp_lognormal', '--params', 'theta=0.08,mu=1.3,sigma=0.5', "
        f"'--out', {str(dest)!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)")
    assert out.split() == ["0", "False"]
    assert len(dest.read_text().splitlines()) == 4


class TestTracedQuadBoundary:
    """Span tracers replace ``oracle.quad`` and ``correct.quad`` by wrappers;
    the referee must call QUADPACK through that attribute."""

    def test_correct_quad_is_the_referee_quad(self):
        assert correct.quad is oracle.quad

    def test_referee_calls_through_the_module_attribute(self, monkeypatch):
        calls = []
        inner = oracle.quad

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(oracle, "quad", counting)
        m = ExpLognormal(ExpParams(0.08), LognormalParams(1.3, 0.5))
        assert np.isfinite(oracle.posterior_mean_quadrature(12.0, m))
        assert calls

    def test_full_output_reports_evaluations(self):
        # the tracer's span note reads QUADPACK's infodict["neval"]
        assert oracle.quad(lambda x: x * x, 0.0, 1.0, full_output=1)[2]["neval"] > 0

