"""Workload definitions and input generation for the beadcorr benchmark.

A workload is a list of tables, one per model family.  Each table is a pair of
multi-array TSV files (observed genes, negative controls) simulated with
``simulate.simulate_experiment`` at ``simulate.REFERENCE_MODELS`` parameters.
One pass of a workload runs, table by table, the CLI commands a user would
run: ``correct --params <truth>``, or ``fit --method mle`` followed by
``correct --fit-table``.  Each command starts only after the previous one
returned (a closed loop with one client).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    kind: str          # model family, a key of simulate.REFERENCE_MODELS
    arrays: int        # array columns in the TSV files
    genes: int         # observed genes per array
    controls: int      # negative controls per array


@dataclass(frozen=True)
class Workload:
    name: str
    tables: tuple
    fit: bool          # fit then correct with the fit table; else correct at the truth
    config: tuple = ()  # (key, value) lines of the --config file; () means no file

    def scaled(self, genes, arrays):
        """The same workload at another size (the self-test uses tiny ones)."""
        return dataclasses.replace(self, tables=tuple(
            dataclasses.replace(t, genes=genes, arrays=arrays, controls=min(t.controls, 50))
            for t in self.tables))


#: The workloads; README.md gives the reason for each.  Sizes are for a 2-core
#: machine; the gated workloads have more arrays than threads so the CLI's per-array
#: pool has work.  pipeline_closed has many small arrays so its pass time, which
#: follows the optimizer's evaluation count per fit, averages over more fits.
#: fit_series is not in BENCHMARK.json (see README.md).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="correct_series",
        tables=(Table("gb_gb", 3, 30, 200),
                Table("gb_normal", 3, 40, 200),
                Table("exp_lognormal", 3, 80, 200),
                Table("gamma_lognormal", 3, 80, 200)),
        fit=False),
    Workload(
        name="pipeline_closed",
        tables=(Table("exp_normal", 6, 100, 200),
                Table("exp_gamma", 6, 100, 200),
                Table("gamma_normal", 6, 100, 200)),
        fit=True,
        config=(("optimizer_starts", "1"),)),
    Workload(
        name="fit_series",
        tables=(Table("exp_lognormal", 2, 10, 200),
                Table("gamma_lognormal", 2, 10, 200)),
        fit=True,
        config=(("optimizer_starts", "1"),)),
)}


@dataclass
class TableData:
    """One simulated table: files on disk plus the truth kept in memory."""

    table: Table
    model: object
    observed: np.ndarray       # genes x arrays
    true_signal: np.ndarray    # genes x arrays
    negatives: np.ndarray      # controls x arrays
    observed_path: str
    negatives_path: str


def _positive_draw(simulate, model, genes, controls, seed):
    """First `genes` genes and `controls` controls with positive intensities.

    The TSV format admits only positive intensities, and normal noise can put
    a draw at or below zero, so draws are oversampled and filtered in order.
    """
    extra_g, extra_c = genes // 10 + 10, controls // 10 + 10
    d = simulate.simulate_experiment(model, genes + extra_g, controls + extra_c, seed)
    keep = np.flatnonzero(d.observed > 0)[:genes]
    negs = d.negatives[d.negatives > 0][:controls]
    if keep.size < genes or negs.size < controls:
        raise RuntimeError(f"too few positive draws for {model.kind} at seed {seed}")
    return d.observed[keep], d.true_signal[keep], negs


def _write_tsv(path, prefix, matrix):
    lines = ["\t".join(["ProbeID"] + [f"array{j + 1}" for j in range(matrix.shape[1])])]
    for i, row in enumerate(matrix):
        lines.append("\t".join([f"{prefix}_{i:06d}"] + [repr(float(x)) for x in row]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def generate(workload: Workload, seed: int, work_dir: str, simulate):
    """Simulate and write every table of the workload; same seed, same files."""
    out = []
    for t_idx, table in enumerate(workload.tables):
        model = simulate.REFERENCE_MODELS[table.kind][0]
        cols = []
        for a in range(table.arrays):
            sub_seed = int(np.random.SeedSequence([seed, t_idx, a]).generate_state(1)[0])
            cols.append(_positive_draw(simulate, model, table.genes, table.controls, sub_seed))
        obs, truth, neg = (np.column_stack([c[k] for c in cols]) for k in range(3))
        stem = os.path.join(work_dir, f"t{t_idx}_{table.kind}")
        obs_path, neg_path = stem + "_observed.tsv", stem + "_negatives.tsv"
        _write_tsv(obs_path, "gene", obs)
        _write_tsv(neg_path, "neg", neg)
        out.append(TableData(table, model, obs, truth, neg, obs_path, neg_path))
    if workload.config:
        with open(config_path(work_dir), "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k}={v}\n" for k, v in workload.config))
    return out


def config_path(work_dir):
    return os.path.join(work_dir, "beadcorr.conf")


def params_arg(model):
    """--params text for a model: GB components take suffix 1 (signal) or 2 (noise)."""
    parts = []
    for idx, comp in enumerate((model.signal, model.noise), start=1):
        suffix = str(idx) if type(comp).__name__ == "GBParams" else ""
        parts += [f"{f.name}{suffix}={getattr(comp, f.name)!r}"
                  for f in dataclasses.fields(comp)]
    return ",".join(parts)


@dataclass(frozen=True)
class Outputs:
    corrected: str
    diagnostics: str
    fit_table: str     # written only by fit workloads


def outputs(work_dir, t_idx, table: Table):
    stem = os.path.join(work_dir, f"t{t_idx}_{table.kind}")
    return Outputs(stem + "_corrected.tsv", stem + "_diag.tsv", stem + "_fit.tsv")


def commands(workload: Workload, work_dir, tables):
    """[(table index, argv)] for one pass, in run order, without --threads."""
    cfg = ["--config", config_path(work_dir)] if workload.config else []
    cmds = []
    for t_idx, data in enumerate(tables):
        out = outputs(work_dir, t_idx, data.table)
        io = [data.observed_path, data.negatives_path, "--model", data.table.kind]
        if workload.fit:
            cmds.append((t_idx, ["fit"] + io + ["--method", "mle", "--out", out.fit_table] + cfg))
            source = ["--fit-table", out.fit_table]
        else:
            source = ["--params", params_arg(data.model)]
        cmds.append((t_idx, ["correct"] + io + source + cfg
                     + ["--out", out.corrected, "--diagnostics", out.diagnostics]))
    return cmds
