"""Cold start: what importing the CLI loads, and the traced quad boundary.

Importing beadcorr loads numpy and scipy.special only; scipy.integrate and
scipy.fft load where they are first used, so a ``correct`` that never calls
QUADPACK never pays for the first, nor one without a gamma-normal grid for
the second.  Nothing imports scipy.interpolate, and nothing in the package
imports scipy.optimize: the fit runs on the package's own BFGS.
"""

import subprocess
import sys

import numpy as np

from beadcorr import correct, oracle, simulate
from beadcorr.dists import (ExpLognormal, ExpParams, LognormalParams,
                            model_to_values, param_names)
from conftest import child_env

DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.fft")


def run_python(code):
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=child_env())
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


def test_fit_never_loads_the_scipy_optimizer(tmp_path):
    m = simulate.REFERENCE_MODELS["exp_normal"][0]
    data = simulate.simulate_experiment(m, 60, 40, seed=3)
    obs, neg, dest = (tmp_path / n for n in ("observed.tsv", "negatives.tsv", "fit.tsv"))
    obs.write_text("ProbeID\tA1\n" + "".join(
        f"p{i}\t{v!r}\n" for i, v in enumerate(data.observed.tolist())))
    neg.write_text("ProbeID\tA1\n" + "".join(
        f"n{i}\t{v!r}\n" for i, v in enumerate(data.negatives.tolist())))
    out = run_python(
        "import sys\n"
        "from beadcorr import cli\n"
        f"code = cli.main(['fit', {str(obs)!r}, {str(neg)!r}, '--model', 'exp_normal', "
        f"'--method', 'mle', '--out', {str(dest)!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)")
    assert out.split() == ["0", "False"]
    assert len(dest.read_text().splitlines()) == 2


def test_gb_simulation_loads_no_deferred_scipy_module():
    out = run_python(
        "import sys\n"
        "from beadcorr import simulate\n"
        "for kind in ('gb_gb', 'gb_normal'):\n"
        "    simulate.simulate_experiment(simulate.REFERENCE_MODELS[kind][0], 20, 5, seed=1)\n"
        f"print(sorted(m for m in {DEFERRED!r} if m in sys.modules))")
    assert out.strip() == "[]"


def test_gb_correct_at_the_truth_never_calls_quadpack(tmp_path):
    # the tanh-sinh engine certifies every reference gene, so neither the
    # referee's QUADPACK nor the optimizer is imported
    m = simulate.REFERENCE_MODELS["gb_gb"][0]
    data = simulate.simulate_experiment(m, 6, 3, seed=3)
    params = ",".join(f"{n}={v!r}" for n, v in zip(param_names("gb_gb"),
                                                     model_to_values(m)))
    obs, neg, dest = (tmp_path / n for n in ("observed.tsv", "negatives.tsv", "out.tsv"))
    obs.write_text("ProbeID\tA1\n" + "".join(
        f"p{i}\t{v!r}\n" for i, v in enumerate(data.observed.tolist())))
    neg.write_text("ProbeID\tA1\n" + "".join(
        f"n{i}\t{v!r}\n" for i, v in enumerate(data.negatives.tolist())))
    out = run_python(
        "import sys\n"
        "from beadcorr import cli\n"
        f"code = cli.main(['correct', {str(obs)!r}, {str(neg)!r}, '--model', 'gb_gb', "
        f"'--params', {params!r}, '--out', {str(dest)!r}])\n"
        "print(code, 'scipy.integrate' in sys.modules, 'scipy.optimize' in sys.modules)")
    assert out.split() == ["0", "False", "False"]
    assert len(dest.read_text().splitlines()) == 7


#: wide-draw GB genes (a u < 1, or a >= 20) that the engine of five levels,
#: without the power piece for GB signals, could not certify; each its own
#: array: (signal, noise, p)
HARD_GB_GB = [
    ((0.6025476912298234, 0.7320061956565608, 11.061186579228908, 0.5551534216762514,
      7.099098913582353),
     (0.5382121075661214, 0.7579510023564281, 7.432958196123216, 15.397517425200595,
      0.6380256350483711), 45.04157029032358),
    ((0.6279982301032754, 0.26639909373329085, 1.2956626633310184, 0.5828397912013076,
      3.8412937888715315),
     (1.1658422207082277, 0.07425772206542136, 36.09697828518996, 0.8654672188313408,
      0.7094056125124435), 30.375856407215586),
    ((48.64335786313811, 0.7811905020763782, 6.682048704707064, 2.3770923229480085,
      12.729869621691718),
     (0.7457611387929135, 0.708418756913866, 21.915431924882057, 9.535216307024388,
      1.6416957420072933), 53.80111125594652),
    ((3.799481320943047, 0.9545904936907372, 7.068186378590628, 2.4000029270250627,
      4.927074872161714),
     (48.88358121036405, 0.9489436749377653, 6.047876196501742, 8.182708339691175,
      3.1323551974141983), 12.013244479980749),
]
HARD_GB_NORMAL = [
    ((22.719186027172423, 0.7603760213109487, 2.7321659750143277, 8.848479944232038,
      6.796458054376317), (42.33508337555168, 1.67119657653972), 46.14368606377951),
    ((36.6543660218563, 0.9784634933577017, 13.155587397940378, 0.7604851955431183,
      0.5356318901270777), (39.46207474747711, 17.066769957644528), 67.90382458995295),
    ((40.95218000193367, 0.9082292157313898, 6.970713193951701, 1.029817143127772,
      6.64814726532554), (34.795432268506616, 5.002590004006205), 42.84531435545944),
    # a u = 0.50: certified before, but off the referee by 1.05e-8
    ((0.9539218010201326, 0.2120769682601089, 8.750234893266152, 0.5264916348065067,
      6.998233409452407), (23.154756619068397, 9.280451250716554), 2.1664005006548823),
]


def test_hard_wide_draw_gb_genes_never_load_quadpack(tmp_path):
    # the engine certifies every one of them, so correct neither calls nor
    # imports the referee's QUADPACK
    runs = []
    for kind, genes in (("gb_gb", HARD_GB_GB), ("gb_normal", HARD_GB_NORMAL)):
        names = [f"A{j}" for j in range(len(genes))]
        obs, neg, fit, dest, diag = (tmp_path / f"{kind}_{n}" for n in (
            "observed.tsv", "negatives.tsv", "fit.tsv", "out.tsv", "diag.tsv"))
        header = "ProbeID\t" + "\t".join(names) + "\n"
        obs.write_text(header + "p1\t" + "\t".join(repr(p) for *_, p in genes) + "\n")
        neg.write_text(header + "n1\t" + "\t".join(["1.0"] * len(genes)) + "\n")
        fit.write_text("\t".join(["array"] + list(param_names(kind))) + "\n" + "".join(
            "\t".join([name] + [repr(v) for v in signal + noise]) + "\n"
            for name, (signal, noise, _) in zip(names, genes)))
        runs.append([str(obs), str(neg), "--model", kind, "--fit-table", str(fit),
                     "--out", str(dest), "--diagnostics", str(diag)])
    out = run_python(
        "import sys\n"
        "from beadcorr import cli\n"
        f"codes = [cli.main(['correct'] + args) for args in {runs!r}]\n"
        "print(*codes, 'scipy.integrate' in sys.modules)")
    assert out.split() == ["0", "0", "False"]
    for args in runs:
        rows = [line.split("\t") for line in open(args[-1]).read().splitlines()[1:]]
        assert [r[2] for r in rows] == ["quadrature"] * len(rows), rows


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

