"""Batch front end: ingest TSV tables, fit, correct, simulate, validate.

All tables are tab-separated with a header row, LF line endings, dot
decimals, and no quoting.  Intensities are bead-summary level, one column per
array.  Arrays are fitted and corrected one after another; the ``--threads``
flag is accepted for compatibility and ignored.  A two-thread pool over the
arrays was measured slower than this loop on tables of 30-80 genes per array
(a ``correct --params`` pass over gb_gb, gb_normal, exp_lognormal and
gamma_lognormal tables of three arrays each: 0.033 s serial against 0.041 s
in reference seconds), because the threads contend for the interpreter lock
between their NumPy calls.  The same holds for ``fit``: the three one-start
``fit --method mle`` commands of 6-array exp_normal, exp_gamma and
gamma_normal tables of 100 genes and 200 controls took 47 ms serial
(interquartile range 40-60 ms), against 70 ms (65-75) on a two-thread pool
over the arrays and 59 ms (55-67) split between two forked processes
(medians of 30 interleaved in-process runs on a 2-core x86_64 machine).  The
parser is built once per process, on the first ``main`` call.  Exit codes: 0 ok, 2 partial convergence, 3 unsupported
method, 64 usage error, 65 data format error, 70 internal numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import operator
import os
import sys
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import correct, estimate, simulate, validation
from .dists import MODEL_KINDS, model_from_values, model_to_values, param_names
from .errors import (BeadcorrError, DataFormatError, DegenerateControlsError,
                     InvalidParameterError, UnsupportedMethodError)

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_UNSUPPORTED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NUMERIC = 70

CONFIG_ENV_VAR = "BEADCORR_CONFIG"

#: config file keys (flat key=integer lines; unknown keys rejected) and the
#: ``estimate.FitBudget`` fields they set; a key the file omits keeps the
#: budget's default
CONFIG_FIELDS = {
    "optimizer_starts": "n_starts",
    "optimizer_max_iter": "max_iter",
    "optimizer_seed": "seed",
}


def load_config(path=None) -> estimate.FitBudget:
    """Parse a key=value config file into the fit's budget."""
    budget = estimate.FitBudget()
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
                    if key not in CONFIG_FIELDS:
                        raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
                    try:
                        budget = replace(budget, **{CONFIG_FIELDS[key]: int(val)})
                    except (ValueError, InvalidParameterError) as exc:
                        raise DataFormatError(
                            f"{path}:{lineno}: bad value for {key}: {exc}") from exc
        except OSError as exc:
            raise DataFormatError(f"cannot read config {path}: {exc}") from exc
    return budget


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
    """(probe ids, array names, values) of one table, read in bulk.

    Cells are parsed by float() itself, mapped over every cell at once, and
    checked as one array.  A table at fault raises the DataFormatError of its
    first fault in file order: a row of the wrong width before any of its
    cells, and a cell that float() refuses or that is not finite and
    positive.
    """
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
    names, width = header[1:], len(header)
    rows = lines[1:]
    widths = np.fromiter(map(str.count, rows, repeat("\t")), dtype=np.intp,
                         count=len(rows)) + 1
    misfit = np.flatnonzero(widths != width)
    # the cells of the rows above the first of the wrong width, row by row
    whole = int(misfit[0]) if misfit.size else len(rows)
    cells = "\t".join(rows[:whole]).split("\t") if whole else []
    ids = cells[::width]
    del cells[::width]
    values, unparsed = _floats(cells)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        lineno, col = divmod(int(bad[0]), width - 1)
        raise DataFormatError(
            f"{path}:{lineno + 2}: nonpositive intensity {cells[bad[0]]} in column "
            f"{names[col]}")
    if unparsed < len(cells):
        lineno, col = divmod(unparsed, width - 1)
        raise DataFormatError(
            f"{path}:{lineno + 2}: non-numeric cell {cells[unparsed]!r} in column "
            f"{col + 2}")
    if misfit.size:
        raise DataFormatError(
            f"{path}:{whole + 2}: expected {width} columns, got {widths[whole]}")
    if not ids:
        raise DataFormatError(f"{path}: no data rows")
    return ids, names, values.reshape(whole, width - 1)


def _floats(cells):
    """(the float() values of cells up to the first that float() refuses,
    that cell's index or len(cells))."""
    rest = iter(cells)
    try:
        return np.fromiter(map(float, rest), dtype=float, count=len(cells)), len(cells)
    except ValueError:
        # the refused cell is the last one map drew from rest
        at = len(cells) - operator.length_hint(rest) - 1
        return np.fromiter(map(float, cells[:at]), dtype=float, count=at), at


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

def cmd_fit(dataset: ArrayDataset, model_kind, method, budget: estimate.FitBudget):
    """Fit every array independently, in order; returns (tsv text, exit code)."""
    def fit_one(j):
        problem = estimate.EstimationProblem(
            dataset.observed[:, j], dataset.negatives[:, j], model_kind)
        if method == "mle":
            return estimate.fit_mle(problem, budget)
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
            text = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    # blank lines are skipped, but the line numbers are the file's
    lines = [(lineno, line) for lineno, line in enumerate(text.split("\n"), start=1)
             if line]
    if not lines:
        raise DataFormatError(f"{path}: empty fit table")
    header = lines[0][1].split("\t")
    expected = ["array"] + list(param_names(model_kind))
    if header[:len(expected)] != expected:
        raise DataFormatError(
            f"{path}: fit table header {header} does not start with {expected}")
    out, first_line = {}, {}
    for lineno, line in lines[1:]:
        cells = line.split("\t")
        if len(cells) < len(expected):
            raise DataFormatError(
                f"{path}:{lineno}: expected at least {len(expected)} columns, "
                f"got {len(cells)}")
        if cells[0] in first_line:
            raise DataFormatError(
                f"{path}:{lineno}: array {cells[0]!r} already has a row on line "
                f"{first_line[cells[0]]}")
        first_line[cells[0]] = lineno
        try:
            values = [float(cell) for cell in cells[1:len(expected)]]
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: non-numeric parameter cell") from exc
        out[cells[0]] = model_from_values(model_kind, values)
    return out


def cmd_correct(dataset: ArrayDataset, models, variant="rma", diagnostics=True):
    """Correct every array, in order; returns (corrected tsv, diagnostics
    tsv), the diagnostics tsv None without diagnostics.

    Both tables are written from the route layer's answer for each array
    (``correct.answer_array``), column by column.
    """
    def one(j):
        name = dataset.array_names[j]
        m = models[name] if isinstance(models, dict) else models
        return correct.answer_array(dataset.observed[:, j], m, exp_normal_variant=variant)

    answers = [one(j) for j in range(len(dataset.array_names))]
    # one column of cells per array, formatted as _fmt does
    cols = [map(repr, ans.values.tolist()) for ans in answers]
    lines = ["\t".join(["ProbeID"] + dataset.array_names)]
    lines += map("\t".join, zip(dataset.probe_ids, *cols))
    corrected_tsv = "\n".join(lines) + "\n"
    if not diagnostics:
        return corrected_tsv, None

    dlines = ["\t".join(["ProbeID", "array", "path", "error"])]
    for name, ans in zip(dataset.array_names, answers):
        dlines += map("\t".join, zip(dataset.probe_ids, repeat(name), ans.paths(),
                                     ans.notes()))
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


def cmd_validate(model_kind, n_draws, seed):
    rows, tol = validation.run_validation(model_kind, n_draws, seed)
    tsv = validation.validation_report_tsv(rows)
    ok = all(r.within_tol for r in rows)
    return tsv, (EXIT_OK if ok else EXIT_NUMERIC)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser():
    """The CLI's parser, built on the first call and reused: argparse keeps
    no state between parses."""
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
            load_config(args.config)  # the budget is unused, but the file is checked
            tsv, code = cmd_validate(args.model, args.draws, args.seed)
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
            budget = load_config(args.config)
            dataset = ingest(args.observed, args.negatives)
            tsv, code = cmd_fit(dataset, args.model, args.method, budget)
            _write_text(args.out, tsv)
            return code

        if args.command == "correct":
            _check_model_kind(args.model, MODEL_KINDS, parser)
            load_config(args.config)  # the budget is unused, but the file is checked
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
            corrected, diags = cmd_correct(dataset, models, variant=args.variant,
                                           diagnostics=bool(args.diagnostics))
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
