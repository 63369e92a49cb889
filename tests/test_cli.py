import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from beadcorr import cli, correct, estimate, simulate
from beadcorr.dists import GBParams
from beadcorr.errors import DataFormatError, InvalidParameterError
from conftest import child_env, gb_charts_ending_below


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "beadcorr.cli"] + list(args),
                          capture_output=True, text=True, env=child_env())


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


def _reference_read(path):
    """The table reader as it was before it read in bulk: one float() and
    one check per cell, in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split("\t")
    if len(header) < 2:
        raise DataFormatError(
            f"{path}: header must be ProbeID plus at least one array column")
    ids, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
        ids.append(cells[0])
        row = []
        for col, cell in enumerate(cells[1:], start=2):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric cell {cell!r} in column {col}"
                ) from exc
            if not math.isfinite(value) or value <= 0.0:
                raise DataFormatError(
                    f"{path}:{lineno}: nonpositive intensity {cell} in column "
                    f"{header[col - 1]}")
            row.append(value)
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return ids, header[1:], np.array(rows, dtype=float)


#: cells float() accepts as positive intensities, and cells it refuses or
#: that are not finite and positive
GOOD_CELLS = ["1_000", " 2.5", "+3", "1e3"]
BAD_CELLS = ["nan", "inf", "0", "-1", "0x10", "abc"]


@st.composite
def tables_text(draw):
    """A table's text: short and long rows, any number of faults."""
    width = draw(st.integers(1, 3))
    cells = st.sampled_from(GOOD_CELLS + BAD_CELLS if draw(st.booleans()) else GOOD_CELLS)
    lengths = st.integers(width, width) | st.integers(0, width + 2)
    rows = draw(st.lists(st.tuples(st.sampled_from(["p1", "p 2", ""]),
                                   lengths.flatmap(lambda n: st.lists(cells, min_size=n,
                                                                      max_size=n))),
                         max_size=6))
    lines = ["\t".join(["ProbeID"] + [f"A{j}" for j in range(width)])]
    lines += ["\t".join([pid] + row) for pid, row in rows]
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


class TestBulkRead:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=tables_text())
    @example(text="")
    @example(text="ProbeID\tA1\n")
    @example(text="ProbeID\n")
    @example(text="ProbeID\tA1\tA2\np1\t1\t2\np2\t3\np3\tabc\t-1\n")
    @example(text="ProbeID\tA1\tA2\np1\t1\tabc\np2\t-1\n")
    @example(text="ProbeID\tA1\tA2\np1\t0\tabc\n")
    def test_same_values_or_same_first_fault(self, tmp_path, text):
        path = tmp_path / "t.tsv"
        write(path, text)
        try:
            expected = _reference_read(path)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as got:
                cli._read_table(path)
            assert str(got.value) == str(exc)
            return
        ids, names, values = cli._read_table(path)
        assert (ids, names) == expected[:2]
        assert values.dtype == expected[2].dtype and values.shape == expected[2].shape
        np.testing.assert_array_equal(values, expected[2])


class TestCorrectFromAnswers:
    """cmd_correct writes both tables from the route layer's answer; they
    equal the rows built from correct_array's GeneDiagnostic list."""

    @staticmethod
    def expected(dataset, m, variant):
        results = [correct.correct_array(dataset.observed[:, j], m, variant)
                   for j in range(len(dataset.array_names))]
        lines = ["\t".join(["ProbeID"] + dataset.array_names)]
        lines += ["\t".join([pid] + [repr(float(v)) for v, _ in cells])
                  for pid, *cells in zip(dataset.probe_ids,
                                         *[zip(values, diags) for values, diags in results])]
        dlines = ["ProbeID\tarray\tpath\terror"]
        for name, (_, diags) in zip(dataset.array_names, results):
            dlines += [f"{dataset.probe_ids[d.index]}\t{name}\t{d.path}\t{d.error or ''}"
                       for d in diags]
        return "\n".join(lines) + "\n", "\n".join(dlines) + "\n"

    def test_route_pin_models_with_edge_genes(self):
        from test_route_pins import EDGE_GENES, MODELS
        paths = set()
        for m in MODELS.values():
            draws = simulate.simulate_experiment(m, 40, 1, seed=4).observed
            obs = np.column_stack([np.concatenate([draws, EDGE_GENES]),
                                   np.concatenate([EDGE_GENES, draws])])
            ids = [f"g{i}" for i in range(obs.shape[0])]
            dataset = cli.ArrayDataset(ids, ["A1", "A2"], obs, ["n1"], obs[:1])
            for variant in (("rma", "mbcb") if m.kind == "exp_normal" else ("rma",)):
                got = cli.cmd_correct(dataset, m, variant)
                assert got == self.expected(dataset, m, variant), (m, variant)
                paths.update((row.split("\t")[2], row.split("\t")[3] != "")
                             for row in got[1].splitlines()[1:])
        # error rows, engine rows with a reason, and rows on every route
        assert {("error", True), ("quadrature", True), ("quadrature", False),
                ("closed", False), ("tilt", False), ("grid", False)} <= paths

    def test_no_diagnostics_table_without_the_flag(self, tmp_path, tables, monkeypatch):
        # without --diagnostics the corrected bytes are those of a run with
        # it, and no gene's path or note is built
        obs, neg = tables
        args = ["correct", str(obs), str(neg), "--model", "gamma_normal",
                "--params", "alpha=2,beta=50,mu=100,sigma=15"]
        with_diag = [tmp_path / "with.tsv", tmp_path / "with_diag.tsv"]
        assert cli.main(args + ["--out", str(with_diag[0]),
                                "--diagnostics", str(with_diag[1])]) == 0

        def unasked(self):
            raise AssertionError("diagnostics built without --diagnostics")

        monkeypatch.setattr(correct.ArrayAnswer, "paths", unasked)
        monkeypatch.setattr(correct.ArrayAnswer, "notes", unasked)
        without = tmp_path / "without.tsv"
        assert cli.main(args + ["--out", str(without)]) == 0
        assert without.read_bytes() == with_diag[0].read_bytes()
        assert cli.cmd_correct(cli.ingest(obs, neg), cli.parse_inline_params(
            "gamma_normal", "alpha=2,beta=50,mu=100,sigma=15"), diagnostics=False)[1] is None


class TestParserReuse:
    def test_usage_error_then_command_writes_fresh_bytes(self, tmp_path, tables):
        obs, neg = tables
        args = ["correct", str(obs), str(neg), "--model", "exp_normal",
                "--params", "theta=0.01,mu=100,sigma=15"]
        fresh = [tmp_path / "fresh.tsv", tmp_path / "fresh_diag.tsv"]
        r = run_cli(*args, "--out", str(fresh[0]), "--diagnostics", str(fresh[1]))
        assert r.returncode == 0, r.stderr
        # usage errors inside the subcommand's parse, then a valid command
        for bad in (["--variant", "bogus"], ["--threads", "x"], []):
            with pytest.raises(SystemExit) as exc:
                cli.main(args + bad)
            assert exc.value.code == cli.EXIT_USAGE
        again = [tmp_path / "again.tsv", tmp_path / "again_diag.tsv"]
        assert cli.main(args + ["--out", str(again[0]), "--diagnostics", str(again[1])]) == 0
        for a, b in zip(fresh, again):
            assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_defaults(self):
        budget = cli.load_config(None)
        assert budget == estimate.FitBudget()
        assert budget.n_starts == 5
        assert sorted(cli.CONFIG_FIELDS) == [
            "optimizer_max_iter", "optimizer_seed", "optimizer_starts"]

    def test_parse_and_unknown_key(self, tmp_path):
        path = tmp_path / "cfg"
        write(path, "optimizer_max_iter=40\noptimizer_starts=2\n")
        budget = cli.load_config(str(path))
        assert budget.max_iter == 40
        assert budget.n_starts == 2
        write(path, "not_a_key=3\n")
        with pytest.raises(DataFormatError, match="unknown key"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("line", ["quad_abs_tol=0", "quad_max_subdivisions=1"])
    def test_bad_quad_value_rejected(self, tmp_path, line):
        path = tmp_path / "cfg"
        write(path, line + "\n")
        with pytest.raises(DataFormatError, match=line.partition("=")[0]):
            cli.load_config(str(path))

    @pytest.mark.parametrize("line", ["quad_abs_tol=1e-3", "quad_rel_tol=1e-3",
                                      "quad_max_subdivisions=300"])
    def test_removed_quad_keys_are_unknown(self, tmp_path, line):
        # the tanh-sinh engine answers every production gene, so no key
        # steers QUADPACK; a file that still sets one is rejected, valid
        # value or not
        path = tmp_path / "cfg"
        write(path, line + "\n")
        key = line.partition("=")[0]
        with pytest.raises(DataFormatError, match=f"unknown key '{key}'"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("line", ["series_rel_tol=1e-10", "series_max_terms=200"])
    def test_removed_series_keys_are_unknown(self, tmp_path, tables, line):
        # the series' truncation policy is two constants of the series
        # module; a file that still sets one is rejected, even at its value
        obs, neg = tables
        path = tmp_path / "cfg"
        write(path, line + "\n")
        key = line.partition("=")[0]
        with pytest.raises(DataFormatError, match=f"unknown key '{key}'"):
            cli.load_config(str(path))
        r = run_cli("correct", str(obs), str(neg), "--model", "exp_normal",
                    "--params", "theta=0.01,mu=100,sigma=15", "--config", str(path),
                    "--out", str(tmp_path / "c.tsv"))
        assert r.returncode == 65, r.stderr
        assert f"unknown key '{key}'" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("line", ["optimizer_seed=-1", "optimizer_starts=0",
                                      "optimizer_starts=-4", "optimizer_max_iter=0",
                                      "optimizer_max_iter=-1"])
    def test_out_of_range_optimizer_value_rejected(self, tmp_path, tables, line):
        obs, neg = tables
        path = tmp_path / "cfg"
        write(path, "optimizer_starts=2\n" + line + "\n")
        key = line.partition("=")[0]
        with pytest.raises(DataFormatError, match=f"cfg:2: bad value for {key}"):
            cli.load_config(str(path))
        out = tmp_path / "fit.tsv"
        r = run_cli("fit", str(obs), str(neg), "--model", "exp_normal",
                    "--config", str(path), "--out", str(out))
        assert r.returncode == 65, r.stderr
        assert f"bad value for {key}" in r.stderr and "Traceback" not in r.stderr
        assert not out.exists()

    def test_diagnostics_say_why_a_gene_left_the_grid(self, tmp_path):
        # g2 lies ten noise sigmas below mu, where the grid's densities fall
        # under the corrector floor
        m = cli.parse_inline_params("gamma_normal", "alpha=2,beta=50,mu=500,sigma=10")
        obs, neg = tmp_path / "obs.tsv", tmp_path / "neg.tsv"
        write(obs, "ProbeID\tA1\ng1\t600\ng2\t400\n")
        write(neg, "ProbeID\tA1\nn1\t495\nn2\t505\n")
        _, diag = cli.cmd_correct(cli.ingest(obs, neg), m)
        assert diag.splitlines()[1:] == [
            "g1\tA1\tgrid\t", "g2\tA1\tquadrature\tgrid density below the corrector floor"]

    def test_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        write(path, "optimizer_seed=9\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        assert cli.load_config(None).seed == 9


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
        # a blank line 3 is skipped, and the bad cell is still on line 4
        (HEADER + "A1\t0.01\t100.0\t15.0\t-5.0\t1\n\nA2\t0.01\tlots\t15.0\t-5.0\t1\n",
         "fit.tsv:4: non-numeric"),
        # a second row for one array would silently replace the first
        (HEADER + "A\t0.01\t100.0\t15.0\t-5.0\t1\nB\t0.02\t90.0\t10.0\t-5.0\t1\n"
         "A\t0.03\t80.0\t12.0\t-5.0\t1\n", "fit.tsv:4: array 'A' already has a row on line 2"),
    ], ids=["short_row", "non_numeric_cell", "empty", "after_blank_line", "repeated_array"])
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

    def test_simulate_gb_signal_near_c_one_with_large_u(self, tmp_path):
        # a signal the fit can reach: c near 1 with large u
        out = tmp_path / "sim"
        r = run_cli("simulate", "--model", "gb_normal",
                    "--params", "a1=2.02,c1=0.999,d1=2.79,u1=11.5,v1=4.67,mu=1,sigma=0.3",
                    "--genes", "200", "--controls", "50", "--seed", "3",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        truth = [float(l.split("\t")[1])
                 for l in open(out / "truth.tsv").read().strip().split("\n")[1:]]
        assert len(truth) == 200
        assert all(0.0 < s < 2.79 * 0.001 ** (-1 / 2.02) for s in truth)

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

    def test_fit_whose_every_start_reads_minus_inf_exits_70(self, tmp_path, monkeypatch,
                                                            capsys):
        out = tmp_path / "sim"
        cli.cmd_simulate(simulate.REFERENCE_MODELS["gb_gb"][0], 100, 50, 7, str(out))
        obs, neg = str(out / "observed.tsv"), str(out / "negatives.tsv")
        top = float(cli.ingest(obs, neg).negatives.max())
        monkeypatch.setitem(estimate._CHARTS, GBParams, gb_charts_ending_below(top))
        code = cli.main(["fit", obs, neg, "--model", "gb_gb", "--out", str(tmp_path / "fit.tsv")])
        assert code == cli.EXIT_NUMERIC == 70
        assert "every start of the noise stage reads -inf: control " in capsys.readouterr().err

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
        for line, key in [("optimizer_starts=0", "bad value for optimizer_starts"),
                          ("quad_rel_tol=1e-8", "unknown key 'quad_rel_tol'")]:
            write(cfg, line + "\n")
            r = run_cli("correct", str(obs), str(neg), "--model", "exp_normal",
                        "--params", "theta=0.01,mu=100,sigma=15", "--config", str(cfg),
                        "--out", str(tmp_path / "c.tsv"))
            assert r.returncode == 65, r.stderr
            assert key in r.stderr and "Traceback" not in r.stderr

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

    @pytest.mark.parametrize("alpha", ["0.7", "2"])
    def test_huge_gamma_normal_cell_is_one_error_row(self, tmp_path, alpha):
        # ingest accepts any finite positive cell; the gene far above the
        # noise is an error row, and no warning reaches stderr
        obs, neg = tmp_path / "obs.tsv", tmp_path / "neg.tsv"
        write(obs, "ProbeID\tA1\ng1\t150\ng2\t1e300\n")
        write(neg, "ProbeID\tA1\nn1\t95\nn2\t105\n")
        out, diag = tmp_path / "c.tsv", tmp_path / "d.tsv"
        r = run_cli("correct", str(obs), str(neg), "--model", "gamma_normal",
                    "--params", f"alpha={alpha},beta=20,mu=100,sigma=15",
                    "--out", str(out), "--diagnostics", str(diag))
        assert r.returncode == 0 and r.stderr == "", r.stderr
        rows = [row.split("\t") for row in open(diag).read().splitlines()[1:]]
        assert [row[2] for row in rows] == ["quadrature" if alpha == "0.7" else "grid", "error"]

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
