"""Output checks: failed cells, the quadrature-referee subsample, MSE, routes.

A check that cannot run (an output missing or unparsable, the referee
raising) raises CheckError, and the benchmark exits nonzero without a result.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


class CheckError(Exception):
    """An output check could not run."""


def read_matrix(path, rows, cols):
    """The numeric body of a genes x arrays TSV written by the CLI."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        body = [line.split("\t")[1:] for line in lines[1:] if line]
        out = np.array(body, dtype=float)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if out.shape != (rows, cols):
        raise CheckError(f"{path}: shape {out.shape}, expected {(rows, cols)}")
    return out


def read_diagnostics(path, probe_count, arrays):
    """Per-cell (path, error text) from the --diagnostics TSV, as a genes x arrays grid."""
    grid = [[None] * arrays for _ in range(probe_count)]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    for line in lines[1:]:
        if not line:
            continue
        probe, array, route, error = line.split("\t")
        grid[int(probe.split("_")[1])][int(array[len("array"):]) - 1] = (route, error)
    if any(cell is None for row in grid for cell in row):
        raise CheckError(f"{path}: diagnostics do not cover every cell")
    return grid


def failed_cells(corrected, diag, exit_codes):
    """Boolean genes x arrays mask of the cells that failed in one pass.

    A cell fails when it is NaN, its diagnostics path is 'error', or a
    command of its table exited nonzero.
    """
    if any(code != 0 for code in exit_codes):
        return np.ones(corrected.shape, dtype=bool)
    errors = np.array([[cell[0] == "error" for cell in row] for row in diag], dtype=bool)
    return np.isnan(corrected) | errors


def diff_mask(a, b, shape):
    """genes x arrays mask of the cells whose text differs between two versions
    (bytes, or None when missing) of a corrected TSV; all set if the shapes differ."""
    if a is None or b is None:
        return np.ones(shape, dtype=bool)
    rows_a, rows_b = a.split(b"\n")[1:-1], b.split(b"\n")[1:-1]
    cells_a = [r.split(b"\t")[1:] for r in rows_a]
    cells_b = [r.split(b"\t")[1:] for r in rows_b]
    if len(rows_a) != shape[0] or cells_a and len(cells_a[0]) != shape[1] \
            or [len(r) for r in cells_a] != [len(r) for r in cells_b]:
        return np.ones(shape, dtype=bool)
    return np.array(cells_a, dtype=object) != np.array(cells_b, dtype=object)


def reference_misses(rng, count, corrected, observed, models, tolerance, oracle):
    """(misses, checked) over a seed-drawn subsample of cells, against the referee."""
    rows, cols = corrected.shape
    picks = rng.choice(rows * cols, size=min(count, rows * cols), replace=False)
    q = oracle.QuadConfig()
    misses = 0
    for flat in picks:
        i, j = divmod(int(flat), cols)
        try:
            ref = oracle.posterior_mean_quadrature(float(observed[i, j]), models[j], q)
        except Exception as exc:
            raise CheckError(f"referee failed at cell ({i}, {j}): "
                             f"{type(exc).__name__}: {exc}") from exc
        value = corrected[i, j]
        if not (math.isfinite(value) and abs(value - ref) <= tolerance * abs(ref)):
            misses += 1
    return misses, len(picks)


def squared_errors(corrected, truth, observed, negatives, simulate):
    """(sum of corrected SE, sum of naive-subtraction SE) over finite cells."""
    ok = np.isfinite(corrected)
    naive = np.column_stack([simulate.naive_correction(observed[:, j], negatives[:, j])
                             for j in range(observed.shape[1])])
    return (float(np.sum((corrected[ok] - truth[ok]) ** 2)),
            float(np.sum((naive[ok] - truth[ok]) ** 2)))


def route_summary(diag, kind):
    """Route counts, per-array route mix and fallback-reason histogram."""
    routes = Counter()
    reasons = Counter()
    per_array = [Counter() for _ in diag[0]]
    for row in diag:
        for j, (route, error) in enumerate(row):
            routes[route] += 1
            per_array[j][route] += 1
            if route == "quadrature" and error:
                reasons[f"{kind}: {error}"] += 1
    return routes, per_array, reasons
