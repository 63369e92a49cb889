"""Batch front end: ingest TSV tables, fit, correct, simulate, validate.

All tables are tab-separated with a header row, LF line endings, dot
decimals, and no quoting.  Intensities are bead-summary level, one column per
array.  Arrays are fitted and corrected one after another; the ``--threads``
flag is accepted for compatibility and ignored, because the per-gene work
holds the interpreter lock.  Exit codes: 0 ok, 2 partial convergence,
3 unsupported method, 64 usage error, 65 data format error, 70 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import correct, estimate, oracle, series, simulate, validation
from .dists import MODEL_KINDS, model_from_values, model_to_values, param_names
from .errors import (BeadcorrError, DataFormatError, DegenerateControlsError,
                     DomainError, InvalidParameterError, UnsupportedMethodError)

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_UNSUPPORTED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERIC = 70

CONFIG_ENV_VAR = "BEADCORR_CONFIG"

#: config file keys and defaults (flat key=value lines; unknown keys rejected)
CONFIG_DEFAULTS = {
    "series_rel_tol": 1e-10,
    "series_max_terms": 200,
    "quad_abs_tol": 1e-10,
    "quad_rel_tol": 1e-8,
    "quad_max_subdivisions": 2000,
    "optimizer_starts": 5,
    "optimizer_max_iter": 500,
    "optimizer_seed": 0,
}

_INT_KEYS = {"series_max_terms", "quad_max_subdivisions", "optimizer_starts",
             "optimizer_max_iter", "optimizer_seed"}


@dataclass(frozen=True)
class RunConfig:
    series_cfg: series.SeriesConfig
    quad_cfg: oracle.QuadConfig
    budget: estimate.FitBudget


def load_config(path=None) -> RunConfig:
    """Parse a key=value config file; every key has a default."""
    values = dict(CONFIG_DEFAULTS)
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, raw in enumerate(fh, 1):
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise DataFormatError(
                            f"{path}:{lineno}: expected key=value, got {line!r}")
                    key, _, val = line.partition("=")
                    key = key.strip()
                    if key not in CONFIG_DEFAULTS:
                        raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
                    try:
                        values[key] = (int(val) if key in _INT_KEYS else float(val))
                    except ValueError as exc:
                        raise DataFormatError(
                            f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
        except OSError as exc:
            raise DataFormatError(f"cannot read config {path}: {exc}") from exc

    def section(cls, prefix, **kwargs):
        # the defaults are valid, so a rejected section names the keys the file set
        try:
            return cls(**kwargs)
        except DomainError as exc:
            keys = ", ".join(k for k in values
                             if k.startswith(prefix) and values[k] != CONFIG_DEFAULTS[k])
            raise DataFormatError(f"{path}: bad value for {keys}: {exc}") from exc

    return RunConfig(
        series_cfg=section(
            series.SeriesConfig, "series_",
            rel_tol=values["series_rel_tol"],
            max_terms_per_index=values["series_max_terms"]),
        quad_cfg=section(
            oracle.QuadConfig, "quad_",
            abs_tol=values["quad_abs_tol"], rel_tol=values["quad_rel_tol"],
            max_subdivisions=values["quad_max_subdivisions"]),
        budget=estimate.FitBudget(
            n_starts=values["optimizer_starts"],
            max_iter=values["optimizer_max_iter"],
            seed=values["optimizer_seed"]))


# ---------------------------------------------------------------------------
# TSV ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayDataset:
    """Observed gene table plus negative-control table, same array columns."""

    probe_ids: list
    array_names: list
    observed: np.ndarray          # genes x arrays
    control_ids: list
    negatives: np.ndarray         # controls x arrays


def _read_table(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split("\t")
    if len(header) < 2:
        raise DataFormatError(
            f"{path}: header must be ProbeID plus at least one array column")
    names = header[1:]
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
    return ids, names, np.array(rows, dtype=float)


def ingest(observed_path, negatives_path) -> ArrayDataset:
    """Load the observed and negative-control tables; columns must match."""
    ids, names, observed = _read_table(observed_path)
    cids, cnames, negatives = _read_table(negatives_path)
    if names != cnames:
        raise DataFormatError(
            f"array columns differ between {observed_path} ({names}) and "
            f"{negatives_path} ({cnames})")
    return ArrayDataset(probe_ids=ids, array_names=names, observed=observed,
                        control_ids=cids, negatives=negatives)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# Model parameters for the fit table / --params flag
# ---------------------------------------------------------------------------

def parse_inline_params(kind, text):
    """--params 'theta=0.01,mu=100,sigma=15' -> ModelSpec."""
    fields = param_names(kind)
    given = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise InvalidParameterError(f"bad --params entry {piece!r}")
        key, _, val = piece.partition("=")
        key = key.strip()
        if key not in fields:
            raise InvalidParameterError(
                f"unknown parameter {key!r} for {kind}; expected {fields}")
        try:
            given[key] = float(val)
        except ValueError as exc:
            raise InvalidParameterError(
                f"non-numeric value {val!r} for {key} in --params") from exc
    missing = [f for f in fields if f not in given]
    if missing:
        raise InvalidParameterError(f"--params missing {missing} for {kind}")
    return model_from_values(kind, [given[f] for f in fields])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(dataset: ArrayDataset, model_kind, method, run_cfg: RunConfig):
    """Fit every array independently, in order; returns (tsv text, exit code)."""
    def fit_one(j):
        problem = estimate.EstimationProblem(
            dataset.observed[:, j], dataset.negatives[:, j], model_kind,
            run_cfg.series_cfg)
        if method == "mle":
            return estimate.fit_mle(problem, run_cfg.budget)
        if method == "moments":
            return estimate.fit_moments(problem)
        if method == "plugin":
            return estimate.fit_plugin(problem)
        raise UnsupportedMethodError(f"unknown method {method!r}")

    results = [fit_one(j) for j in range(len(dataset.array_names))]
    lines = ["\t".join(["array"] + list(param_names(model_kind))
                       + ["loglik", "converged"])]
    all_ok = True
    for name, res in zip(dataset.array_names, results):
        vals = model_to_values(res.params)
        lines.append("\t".join([name] + [_fmt(v) for v in vals]
                               + [_fmt(res.loglik), "1" if res.converged else "0"]))
        all_ok = all_ok and res.converged
    return "\n".join(lines) + "\n", (EXIT_OK if all_ok else EXIT_PARTIAL)


def read_fit_table(path, model_kind):
    """Fit-table TSV -> {array name: ModelSpec}."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [l for l in fh.read().split("\n") if l]
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataFormatError(f"{path}: empty fit table")
    header = lines[0].split("\t")
    expected = ["array"] + list(param_names(model_kind))
    if header[:len(expected)] != expected:
        raise DataFormatError(
            f"{path}: fit table header {header} does not start with {expected}")
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) < len(expected):
            raise DataFormatError(
                f"{path}:{lineno}: expected at least {len(expected)} columns, "
                f"got {len(cells)}")
        try:
            values = [float(cell) for cell in cells[1:len(expected)]]
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric parameter cell") from exc
        out[cells[0]] = model_from_values(model_kind, values)
    return out


def cmd_correct(dataset: ArrayDataset, models, run_cfg: RunConfig, variant="rma"):
    """Correct every array, in order; returns (corrected tsv, diagnostics tsv)."""
    def one(j):
        name = dataset.array_names[j]
        m = models[name] if isinstance(models, dict) else models
        return correct.correct_array(dataset.observed[:, j], m,
                                     run_cfg.series_cfg,
                                     exp_normal_variant=variant,
                                     qcfg=run_cfg.quad_cfg)

    results = [one(j) for j in range(len(dataset.array_names))]
    lines = ["\t".join(["ProbeID"] + dataset.array_names)]
    for i, pid in enumerate(dataset.probe_ids):
        row = [pid] + [_fmt(results[j][0][i]) for j in range(len(results))]
        lines.append("\t".join(row))
    corrected_tsv = "\n".join(lines) + "\n"

    dlines = ["\t".join(["ProbeID", "array", "path", "error"])]
    for j, name in enumerate(dataset.array_names):
        for diag in results[j][1]:
            dlines.append("\t".join([dataset.probe_ids[diag.index], name,
                                     diag.path, diag.error or ""]))
    return corrected_tsv, "\n".join(dlines) + "\n"


def cmd_simulate(model, I, W, seed, out_dir):
    """Write observed/negatives/truth tables for one simulated array."""
    data = simulate.simulate_experiment(model, I, W, seed)
    os.makedirs(out_dir, exist_ok=True)
    obs_lines = ["ProbeID\tarray1"]
    truth_lines = ["ProbeID\ttrue_signal"]
    for i, (p, s) in enumerate(zip(data.observed, data.true_signal)):
        obs_lines.append(f"gene_{i:06d}\t{_fmt(p)}")
        truth_lines.append(f"gene_{i:06d}\t{_fmt(s)}")
    neg_lines = ["ProbeID\tarray1"]
    for w, b in enumerate(data.negatives):
        neg_lines.append(f"neg_{w:06d}\t{_fmt(b)}")
    paths = {}
    for fname, text in (("observed.tsv", "\n".join(obs_lines) + "\n"),
                        ("negatives.tsv", "\n".join(neg_lines) + "\n"),
                        ("truth.tsv", "\n".join(truth_lines) + "\n")):
        full = os.path.join(out_dir, fname)
        _write_text(full, text)
        paths[fname] = full
    return paths


def cmd_validate(model_kind, n_draws, seed, run_cfg: RunConfig):
    rows, tol = validation.run_validation(model_kind, n_draws, seed,
                                          run_cfg.series_cfg)
    tsv = validation.validation_report_tsv(rows)
    ok = all(r.within_tol for r in rows)
    return tsv, (EXIT_OK if ok else EXIT_NUMERIC)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="beadcorr",
                     description="Background correction for bead-array intensities")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate model parameters per array")
    fit.add_argument("observed")
    fit.add_argument("negatives")
    fit.add_argument("--model", required=True)
    fit.add_argument("--method", default="mle", choices=["mle", "moments", "plugin"])
    fit.add_argument("--config")
    fit.add_argument("--out", required=True)
    fit.add_argument("--threads", type=int, help="accepted and ignored")

    corr = sub.add_parser("correct", help="apply the corrector per array")
    corr.add_argument("observed")
    corr.add_argument("negatives")
    corr.add_argument("--model", required=True)
    corr.add_argument("--fit-table")
    corr.add_argument("--params", help="inline parameters, e.g. theta=0.01,mu=100,sigma=15")
    corr.add_argument("--variant", default="rma", choices=["rma", "mbcb"])
    corr.add_argument("--config")
    corr.add_argument("--out", required=True)
    corr.add_argument("--diagnostics")
    corr.add_argument("--threads", type=int, help="accepted and ignored")

    sim = sub.add_parser("simulate", help="write a simulated dataset")
    sim.add_argument("--model", required=True)
    sim.add_argument("--params", required=True)
    sim.add_argument("--genes", type=int, default=1000)
    sim.add_argument("--controls", type=int, default=200)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="output directory")

    val = sub.add_parser("validate", help="compare correctors against quadrature")
    val.add_argument("--model", required=True)
    val.add_argument("--draws", type=int, default=100)
    val.add_argument("--seed", type=int, default=0)
    val.add_argument("--config")
    val.add_argument("--out")
    return parser


def _check_model_kind(kind, allowed, parser):
    if kind not in allowed:
        parser.exit(EXIT_USAGE,
                    f"beadcorr: error: unknown model {kind!r}; choose from "
                    f"{sorted(allowed)}\n")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            _check_model_kind(args.model, validation.VALIDATABLE, parser)
            run_cfg = load_config(args.config)
            tsv, code = cmd_validate(args.model, args.draws, args.seed, run_cfg)
            if args.out:
                _write_text(args.out, tsv)
            else:
                sys.stdout.write(tsv)
            return code

        if args.command == "simulate":
            _check_model_kind(args.model, MODEL_KINDS, parser)
            model = parse_inline_params(args.model, args.params)
            cmd_simulate(model, args.genes, args.controls, args.seed, args.out)
            return EXIT_OK

        if args.command == "fit":
            _check_model_kind(args.model, MODEL_KINDS, parser)
            run_cfg = load_config(args.config)
            dataset = ingest(args.observed, args.negatives)
            tsv, code = cmd_fit(dataset, args.model, args.method, run_cfg)
            _write_text(args.out, tsv)
            return code

        if args.command == "correct":
            _check_model_kind(args.model, MODEL_KINDS, parser)
            run_cfg = load_config(args.config)
            dataset = ingest(args.observed, args.negatives)
            if args.params:
                models = parse_inline_params(args.model, args.params)
            elif args.fit_table:
                models = read_fit_table(args.fit_table, args.model)
                missing = [n for n in dataset.array_names if n not in models]
                if missing:
                    raise DataFormatError(
                        f"fit table lacks arrays {missing}")
            else:
                parser.exit(EXIT_USAGE,
                            "beadcorr: error: correct needs --params or --fit-table\n")
            corrected, diags = cmd_correct(dataset, models, run_cfg,
                                           variant=args.variant)
            _write_text(args.out, corrected)
            if args.diagnostics:
                _write_text(args.diagnostics, diags)
            return EXIT_OK

        parser.error(f"unknown command {args.command!r}")
    except UnsupportedMethodError as exc:
        sys.stderr.write(f"beadcorr: {exc}\n")
        return EXIT_UNSUPPORTED
    except (DataFormatError,) as exc:
        sys.stderr.write(f"beadcorr: {exc}\n")
        return EXIT_DATA
    except (DegenerateControlsError, InvalidParameterError) as exc:
        sys.stderr.write(f"beadcorr: {exc}\n")
        return EXIT_USAGE
    except BeadcorrError as exc:
        sys.stderr.write(f"beadcorr: {exc}\n")
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
