import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from beadcorr import cli, simulate
from beadcorr.errors import DataFormatError, InvalidParameterError


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "beadcorr.cli"] + list(args),
                          capture_output=True, text=True)


def write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


@pytest.fixture
def tables(tmp_path):
    obs = tmp_path / "observed.tsv"
    neg = tmp_path / "negatives.tsv"
    write(obs, "ProbeID\tA1\tA2\n"
               "p1\t150.0\t160.0\n"
               "p2\t210.5\t190.25\n"
               "p3\t120.0\t125.0\n")
    write(neg, "ProbeID\tA1\tA2\n"
               "n1\t95.0\t101.0\n"
               "n2\t110.0\t97.5\n")
    return obs, neg


class TestIngest:
    def test_shapes(self, tables):
        ds = cli.ingest(*tables)
        assert ds.observed.shape == (3, 2)
        assert ds.negatives.shape == (2, 2)
        assert ds.array_names == ["A1", "A2"]
        assert ds.probe_ids == ["p1", "p2", "p3"]

    def test_nonpositive_cell_names_row(self, tmp_path, tables):
        obs, neg = tables
        bad = tmp_path / "bad.tsv"
        write(bad, "ProbeID\tA1\tA2\n"
                   "p1\t150.0\t160.0\n"
                   "p2\t-5\t190.25\n")
        with pytest.raises(DataFormatError, match="bad.tsv:3"):
            cli.ingest(bad, neg)

    def test_malformed_row_names_line(self, tmp_path, tables):
        obs, neg = tables
        bad = tmp_path / "bad.tsv"
        write(bad, "ProbeID\tA1\tA2\n"
                   "p1\t150.0\thello\n")
        with pytest.raises(DataFormatError, match="bad.tsv:2"):
            cli.ingest(bad, neg)

    def test_header_mismatch(self, tmp_path, tables):
        obs, _ = tables
        neg = tmp_path / "neg2.tsv"
        write(neg, "ProbeID\tA2\tA1\nn1\t95.0\t101.0\n")
        with pytest.raises(DataFormatError, match="columns differ"):
            cli.ingest(obs, neg)

    def test_short_row_rejected(self, tmp_path, tables):
        _, neg = tables
        bad = tmp_path / "bad.tsv"
        write(bad, "ProbeID\tA1\tA2\np1\t150.0\n")
        with pytest.raises(DataFormatError, match="expected 3 columns"):
            cli.ingest(bad, neg)


class TestConfig:
    def test_defaults(self):
        cfg = cli.load_config(None)
        assert cfg.series_cfg.rel_tol == 1e-10
        assert cfg.quad_cfg.max_subdivisions == 2000

    def test_parse_and_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        write(path, "series_rel_tol=1e-8\noptimizer_starts=2\n")
        cfg = cli.load_config(str(path))
        assert cfg.series_cfg.rel_tol == 1e-8
        assert cfg.budget.n_starts == 2
        write(path, "not_a_key=3\n")
        with pytest.raises(DataFormatError, match="unknown key"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("line", ["quad_abs_tol=0", "quad_max_subdivisions=1"])
    def test_bad_quad_value_rejected(self, tmp_path, line):
        path = tmp_path / "cfg"
        write(path, line + "\n")
        with pytest.raises(DataFormatError, match=line.partition("=")[0]):
            cli.load_config(str(path))

    def test_quad_keys_reach_the_fallback(self, tmp_path):
        # the reference gamma_lognormal gene lies outside the series region,
        # so it is corrected by the quadrature fallback the quad_* keys govern
        m = simulate.REFERENCE_MODELS["gamma_lognormal"][0]
        obs, neg = tmp_path / "obs.tsv", tmp_path / "neg.tsv"
        write(obs, "ProbeID\tA1\ng1\t12.28949685\n")
        write(neg, "ProbeID\tA1\nn1\t2.5\nn2\t3.5\n")
        ds = cli.ingest(obs, neg)
        cfg = tmp_path / "cfg"
        write(cfg, "quad_abs_tol=1e-3\nquad_rel_tol=1e-3\n")
        default_tsv, default_diag = cli.cmd_correct(ds, m, cli.load_config(None))
        loose_tsv, loose_diag = cli.cmd_correct(ds, m, cli.load_config(str(cfg)))
        assert "\tquadrature\t" in default_diag
        assert loose_diag == default_diag
        assert loose_tsv != default_tsv

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        write(path, "optimizer_seed=9\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        assert cli.load_config(None).budget.seed == 9


class TestParamsRoundTrip:
    @pytest.mark.parametrize("kind,text", [
        ("exp_normal", "theta=0.01,mu=100,sigma=15"),
        ("exp_gamma", "theta=0.05,alpha=2,beta=4"),
        ("gamma_normal", "alpha=2,beta=50,mu=100,sigma=15"),
        ("exp_lognormal", "theta=0.08,mu=1.3,sigma=0.5"),
        ("gamma_lognormal", "alpha=1.8,beta=3.5,mu=1,sigma=0.5"),
        ("gb_gb", "a1=1,c1=0.5,d1=1,u1=2,v1=3,a2=1,c2=0.5,d2=1,u2=1,v2=2"),
        ("gb_normal", "a1=1,c1=0.5,d1=2,u1=1.5,v1=2,mu=0.3,sigma=0.06"),
    ])
    def test_inline_then_values(self, kind, text):
        m = cli.parse_inline_params(kind, text)
        values = cli.model_to_values(m)
        m2 = cli.model_from_values(kind, values)
        assert m == m2

    def test_missing_param_rejected(self):
        with pytest.raises(InvalidParameterError, match="missing"):
            cli.parse_inline_params("exp_normal", "theta=0.01,mu=100")

    def test_non_numeric_param_rejected(self):
        with pytest.raises(InvalidParameterError, match="theta"):
            cli.parse_inline_params("exp_normal", "theta=abc,mu=100,sigma=15")


class TestReadFitTable:
    HEADER = "array\ttheta\tmu\tsigma\tloglik\tconverged\n"

    @pytest.mark.parametrize("text,match", [
        (HEADER + "A1\t0.01\t100.0\n", "fit.tsv:2: expected at least 4 columns"),
        (HEADER + "A1\t0.01\tlots\t15.0\t-5.0\t1\n", "fit.tsv:2: non-numeric"),
        ("", "empty fit table"),
    ], ids=["short_row", "non_numeric_cell", "empty"])
    def test_malformed_table_rejected(self, tmp_path, text, match):
        path = tmp_path / "fit.tsv"
        write(path, text)
        with pytest.raises(DataFormatError, match=match):
            cli.read_fit_table(path, "exp_normal")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            cli.read_fit_table(tmp_path / "absent.tsv", "exp_normal")


class TestPipeline:
    def test_simulate_fit_correct_roundtrip(self, tmp_path):
        out = tmp_path / "sim"
        r = run_cli("simulate", "--model", "exp_normal",
                    "--params", "theta=0.01,mu=100,sigma=15",
                    "--genes", "300", "--controls", "80", "--seed", "4",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        fit_path = tmp_path / "fit.tsv"
        r = run_cli("fit", str(out / "observed.tsv"), str(out / "negatives.tsv"),
                    "--model", "exp_normal", "--out", str(fit_path), "--threads", "1")
        assert r.returncode == 0, r.stderr
        lines = open(fit_path).read().strip().split("\n")
        assert lines[0].split("\t") == ["array", "theta", "mu", "sigma",
                                        "loglik", "converged"]
        assert len(lines) == 2

        corr_path = tmp_path / "corrected.tsv"
        r = run_cli("correct", str(out / "observed.tsv"), str(out / "negatives.tsv"),
                    "--model", "exp_normal", "--fit-table", str(fit_path),
                    "--out", str(corr_path), "--diagnostics", str(tmp_path / "d.tsv"))
        assert r.returncode == 0, r.stderr
        rows = open(corr_path).read().strip().split("\n")
        assert len(rows) == 301
        obs_rows = open(out / "observed.tsv").read().strip().split("\n")[1:]
        for obs_line, corr_line in zip(obs_rows, rows[1:]):
            p = float(obs_line.split("\t")[1])
            c = float(corr_line.split("\t")[1])
            assert 0.0 < c < p

    def test_symmetric_construction_gives_half(self, tmp_path):
        # with the conditional location at p/2, the corrected value is p/2
        p, theta, sigma = 100.0, 0.001, 4.0
        mu = p / 2.0 - sigma ** 2 * theta
        obs = tmp_path / "obs.tsv"
        neg = tmp_path / "neg.tsv"
        write(obs, f"ProbeID\tA1\ng1\t{p!r}\n")
        write(neg, f"ProbeID\tA1\nn1\t{mu!r}\n")
        out = tmp_path / "c.tsv"
        r = run_cli("correct", str(obs), str(neg), "--model", "exp_normal",
                    "--params", f"theta={theta},mu={mu},sigma={sigma}",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        val = float(open(out).read().strip().split("\n")[1].split("\t")[1])
        assert val == pytest.approx(p / 2.0, abs=1e-9)

    def test_identical_runs_identical_bytes(self, tmp_path):
        args = ("simulate", "--model", "exp_gamma",
                "--params", "theta=0.05,alpha=2,beta=4",
                "--genes", "100", "--controls", "40", "--seed", "12")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for f in ("observed.tsv", "negatives.tsv", "truth.tsv"):
            ha = hashlib.sha256(open(tmp_path / "a" / f, "rb").read()).hexdigest()
            hb = hashlib.sha256(open(tmp_path / "b" / f, "rb").read()).hexdigest()
            assert ha == hb

    def test_roundtrip_reproduces_benchmark_mse(self, tmp_path):
        # correcting the simulated files through the CLI gives exactly the
        # same benchmark numbers as the in-process pipeline
        from beadcorr import correct, simulate
        from beadcorr.dists import ExpNormal, ExpParams, NormalParams
        m = ExpNormal(ExpParams(0.01), NormalParams(100.0, 15.0))
        out = tmp_path / "sim"
        r = run_cli("simulate", "--model", "exp_normal",
                    "--params", "theta=0.01,mu=100,sigma=15",
                    "--genes", "200", "--controls", "60", "--seed", "31",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        corr_path = tmp_path / "c.tsv"
        r = run_cli("correct", str(out / "observed.tsv"),
                    str(out / "negatives.tsv"), "--model", "exp_normal",
                    "--params", "theta=0.01,mu=100,sigma=15",
                    "--out", str(corr_path))
        assert r.returncode == 0, r.stderr
        corrected_cli = np.array(
            [float(l.split("\t")[1])
             for l in open(corr_path).read().strip().split("\n")[1:]])
        data = simulate.simulate_experiment(m, 200, 60, seed=31)
        corrected_direct, _ = correct.correct_array(data.observed, m)
        np.testing.assert_array_equal(corrected_cli, corrected_direct)
        rep_cli = simulate.benchmark_mse(data, corrected_cli)
        rep_direct = simulate.benchmark_mse(data, corrected_direct)
        assert rep_cli == rep_direct

    def test_partial_convergence_exit_code(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--model", "exp_normal",
                "--params", "theta=0.01,mu=100,sigma=15",
                "--genes", "150", "--controls", "50", "--seed", "2",
                "--out", str(out))
        cfg = tmp_path / "cfg"
        write(cfg, "optimizer_max_iter=1\noptimizer_starts=1\n")
        r = run_cli("fit", str(out / "observed.tsv"), str(out / "negatives.tsv"),
                    "--model", "exp_normal", "--config", str(cfg),
                    "--out", str(tmp_path / "fit.tsv"))
        assert r.returncode == 2
        # rows are still emitted
        assert len(open(tmp_path / "fit.tsv").read().strip().split("\n")) == 2

    def test_inputs_not_mutated(self, tables):
        obs, neg = tables
        before = open(obs, "rb").read(), open(neg, "rb").read()
        out = str(obs) + ".fit"
        run_cli("fit", str(obs), str(neg), "--model", "exp_normal",
                "--method", "plugin", "--out", out)
        assert (open(obs, "rb").read(), open(neg, "rb").read()) == before


class TestExitCodes:
    def test_usage_unknown_model(self):
        assert run_cli("validate", "--model", "nope").returncode == 64

    def test_usage_missing_args(self):
        assert run_cli("fit").returncode == 64

    def test_unsupported_method(self, tmp_path, tables):
        obs, neg = tables
        r = run_cli("fit", str(obs), str(neg), "--model", "gb_gb",
                    "--method", "moments", "--out", str(tmp_path / "x.tsv"))
        assert r.returncode == 3

    def test_malformed_fit_table_exit_code(self, tmp_path, tables):
        obs, neg = tables
        fit = tmp_path / "fit.tsv"
        write(fit, "array\ttheta\tmu\tsigma\nA1\t0.01\n")
        r = run_cli("correct", str(obs), str(neg), "--model", "exp_normal",
                    "--fit-table", str(fit), "--out", str(tmp_path / "c.tsv"))
        assert r.returncode == 65, r.stderr
        assert "Traceback" not in r.stderr

    def test_non_numeric_params_exit_code(self, tmp_path, tables):
        obs, neg = tables
        r = run_cli("correct", str(obs), str(neg), "--model", "exp_normal",
                    "--params", "theta=abc,mu=100,sigma=15",
                    "--out", str(tmp_path / "c.tsv"))
        assert r.returncode == 64, r.stderr
        assert "Traceback" not in r.stderr

    def test_bad_config_value_exit_code(self, tmp_path, tables):
        obs, neg = tables
        cfg = tmp_path / "cfg"
        write(cfg, "quad_abs_tol=0\n")
        r = run_cli("correct", str(obs), str(neg), "--model", "exp_normal",
                    "--params", "theta=0.01,mu=100,sigma=15", "--config", str(cfg),
                    "--out", str(tmp_path / "c.tsv"))
        assert r.returncode == 65, r.stderr
        assert "quad_abs_tol" in r.stderr and "Traceback" not in r.stderr

    def test_underflowing_gb_normal_gene_completes(self, tmp_path):
        # the Gaussian moments of these genes underflow the incomplete gamma
        obs, neg = tmp_path / "obs.tsv", tmp_path / "neg.tsv"
        write(obs, "ProbeID\tA1\ng1\t3.0\ng2\t5.0\n")
        write(neg, "ProbeID\tA1\nn1\t0.5\nn2\t1.5\n")
        out = tmp_path / "c.tsv"
        r = run_cli("correct", str(obs), str(neg), "--model", "gb_normal",
                    "--params", "a1=1,c1=0.5,d1=10,u1=1.5,v1=2,mu=0.01,sigma=1",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        rows = open(out).read().strip().split("\n")[1:]
        cells = [float(row.split("\t")[1]) for row in rows]
        assert len(cells) == 2 and all(0.0 < c < p for c, p in zip(cells, (3.0, 5.0)))

    def test_data_format_error(self, tmp_path, tables):
        _, neg = tables
        bad = tmp_path / "bad.tsv"
        write(bad, "ProbeID\tA1\tA2\np1\t-3\t4\n")
        r = run_cli("fit", str(bad), str(neg), "--model", "exp_normal",
                    "--out", str(tmp_path / "x.tsv"))
        assert r.returncode == 65

    def test_validate_exit_zero(self):
        r = run_cli("validate", "--model", "exp_gamma", "--draws", "5", "--seed", "3")
        assert r.returncode == 0
        header = r.stdout.split("\n")[0].split("\t")
        assert header == ["index", "p", "corrected", "reference", "rel_error",
                          "path", "within_tol"]
