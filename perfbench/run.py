"""beadcorr benchmark: one workload, timed end to end through the real CLI.

    python3 perfbench/run.py --workload correct_series --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout.  The workload's tables are simulated
from --seed and written as multi-array TSV files; each pass then runs the
workload's CLI commands in process through ``beadcorr.cli.main``, alternately
at the CLI's default --threads (the CPU count) and at --threads 1, until
--seconds have passed.  Outputs are checked after the timed passes.

The host's processor speed drifts (on the 2-core machine the benchmark was
written on, a fixed loop's time moved by a factor of 1.6 within 30 seconds),
so the gated times are in reference seconds: every CLI command and every
set-up is followed by a run of a fixed calibration routine (calibrate()), in
as many threads as the command runs, and the wall time of a pass or set-up is
scaled by CAL_REF_S over the median of its calibrations.  The raw wall times
are printed and stored beside them.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 also
runs traced passes (see tracing.py) and prints its per-layer metrics.  Lines
before the last describe the run; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  Per-run reports and spans go to
.perfbench_work/ in the checkout.  The exit code is 0 when every check
passed, 1 when a check failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy import special

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MODULES = ("cli", "correct", "series", "oracle", "estimate", "specfun", "simulate",
           "validation")

SETUP_REPS = 5          # set-ups per run; setup_s is their median
WARM_GENES = 5          # genes per array of the warm-up tables
TRACED_PASSES = 2       # traced passes per --trace 1 run
REF_CELLS = 24          # referee-checked cells per table
SERIES_KINDS = ("gb_gb", "gb_normal", "exp_lognormal", "gamma_lognormal")
#: typical seconds of calibrate() on the machine the benchmark was written on
#: (2-core Intel Xeon at 2.0 GHz); a reference second is a second at that speed
CAL_REF_S = 0.03
_CAL_X = np.linspace(0.1, 5.0, 2000)


def _calibration_work():
    acc = 0.0
    for i in range(200_000):
        acc += math.sqrt(i) * 0.5
    for k in range(200):
        acc += float(np.sum(special.gammaln(_CAL_X + k) - np.log1p(_CAL_X) * k))
    return acc


def calibrate(threads=1):
    """Wall seconds of a fixed routine, over the number of threads running it.

    The routine is an interpreter loop, then numpy/scipy vector arithmetic,
    the two kinds of work beadcorr's passes are made of; it uses no beadcorr
    code, so a change to the program cannot move it.  With threads > 1 every
    thread runs it at once and they share the GIL, as the CLI's pool threads
    do, so the time also follows how fast the host hands the GIL between
    processors.
    """
    if threads <= 1:
        t0 = perf_counter()
        _calibration_work()
        return perf_counter() - t0
    workers = [threading.Thread(target=_calibration_work) for _ in range(threads)]
    t0 = perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return (perf_counter() - t0) / threads


def timed_ref(calls, threads=1):
    """Run (fn, args) calls in order; (raw s, reference s, results).

    calibrate(threads) runs before the first call and after each call,
    outside the timed region.  The calls' summed wall time is scaled by
    CAL_REF_S over the median calibration: the median follows the host's
    speed over the calls and ignores a calibration that was itself
    interrupted.
    """
    cals = [calibrate(threads)]
    raw = 0.0
    results = []
    for fn, args in calls:
        t0 = perf_counter()
        results.append(fn(*args))
        raw += perf_counter() - t0
        cals.append(calibrate(threads))
    return raw, raw * CAL_REF_S / statistics.median(cals), results


def call_cli(cli, argv):
    """Exit code of one in-process CLI command (argparse exits become codes)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_pass(cli, cmds, threads):
    """(raw s, reference s) and per-table exit codes of one pass.

    threads None = the CLI default, the CPU count.
    """
    extra = [] if threads is None else ["--threads", str(threads)]
    raw, ref, results = timed_ref([(call_cli, (cli, argv + extra)) for _, argv in cmds],
                                  threads or os.cpu_count() or 1)
    codes = {}
    for (t_idx, _), code in zip(cmds, results):
        codes.setdefault(t_idx, []).append(code)
    return (raw, ref), codes


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, pkg, workload, seed, work_dir):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.tables = None
        self.cmds = None
        self.outs = [workloads.outputs(work_dir, t, table)
                     for t, table in enumerate(workload.tables)]
        self.first = None           # output bytes of the untimed first pass, per table
        self.reference = None       # output bytes of the first timed pass, per table
        self.ref_failed = None      # failed-cell mask of the first timed pass, per table
        self.attempted = 0
        self.failed = 0
        self.mismatched_passes = 0

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        """Child-process import, simulate and write, warm-up corrections."""
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", "import beadcorr.cli"], env=env,
                       check=True, timeout=120)
        simulate = self.pkg["simulate"]
        self.tables = workloads.generate(self.workload, self.seed, self.work_dir, simulate)
        self.cmds = workloads.commands(self.workload, self.work_dir, self.tables)
        warm_dir = os.path.join(self.work_dir, "warm")
        os.makedirs(warm_dir, exist_ok=True)
        # correct only, at the truth: a fit on a few genes is ill-posed and can
        # wander for minutes (gamma_normal did on 5 genes)
        warm = dataclasses.replace(self.workload.scaled(genes=WARM_GENES, arrays=2), fit=False)
        warm_tables = workloads.generate(warm, self.seed, warm_dir, simulate)
        for _, argv in workloads.commands(warm, warm_dir, warm_tables):
            call_cli(self.pkg["cli"], argv)

    # -- passes --------------------------------------------------------------

    def _snapshot(self):
        snap = []
        for out in self.outs:
            paths = [out.corrected, out.diagnostics] + (
                [out.fit_table] if self.workload.fit else [])
            parts = []
            for path in paths:
                try:
                    with open(path, "rb") as fh:
                        parts.append(fh.read())
                except OSError:
                    parts.append(None)
            snap.append(parts)
        return snap

    def _grids(self, t_idx):
        data = self.tables[t_idx]
        rows, cols = data.observed.shape
        out = self.outs[t_idx]
        return (checks.read_matrix(out.corrected, rows, cols),
                checks.read_diagnostics(out.diagnostics, rows, cols))

    def first_pass(self):
        """The process's first full pass, untimed; it fills lazily grown caches."""
        (wall, _), _ = run_pass(self.pkg["cli"], self.cmds, None)
        self.first = self._snapshot()
        return wall

    def timed_pass(self, threads):
        """One pass; its outputs are compared with the first timed pass's bytes.

        Differing corrected cells fail; a differing diagnostics or fit table
        fails its whole table.  Returns (raw s, reference s).
        """
        wall, codes = run_pass(self.pkg["cli"], self.cmds, threads)
        snap = self._snapshot()
        if self.reference is None:
            self.reference = snap
            self.ref_failed = [checks.failed_cells(*self._grids(t), codes[t])
                               for t in range(len(self.tables))]
        mismatch = False
        for t_idx, mask in enumerate(self.ref_failed):
            new, ref = snap[t_idx], self.reference[t_idx]
            if any(code != 0 for code in codes[t_idx]) or new[1:] != ref[1:]:
                failed = np.ones(mask.shape, dtype=bool)
            else:
                failed = mask | checks.diff_mask(new[0], ref[0], mask.shape)
            mismatch |= new != ref
            self.attempted += mask.size
            self.failed += int(failed.sum())
        self.mismatched_passes += mismatch
        return wall

    def first_pass_diff_cells(self):
        """Corrected cells whose bytes differ between the first pass and the timed ones."""
        return sum(int(checks.diff_mask(f[0], r[0], d.observed.shape).sum())
                   for f, r, d in zip(self.first, self.reference, self.tables))

    def io_bytes(self):
        """(bytes read, bytes written) by the CLI commands of one pass."""
        cfg = workloads.config_path(self.work_dir) if self.workload.config else None
        size = os.path.getsize
        read = written = 0
        for t_idx, argv in self.cmds:
            data, out = self.tables[t_idx], self.outs[t_idx]
            read += size(data.observed_path) + size(data.negatives_path)
            read += size(cfg) if cfg else 0
            if argv[0] == "fit":
                written += size(out.fit_table)
            else:
                read += size(out.fit_table) if self.workload.fit else 0
                written += size(out.corrected) + size(out.diagnostics)
        return read, written

    # -- checks --------------------------------------------------------------

    def quality(self):
        """Referee misses, MSE ratio, fit loglik and routes from the last outputs.

        The MSE ratio is the geometric mean over tables of each table's
        pooled ratio: tables hold families on different intensity scales, so
        one pooled sum would be the largest-scale family's ratio.
        """
        pkg = self.pkg
        rng = np.random.default_rng([self.seed, 2])
        misses = checked = 0
        log_ratios = []
        loglik = 0.0
        routes, reasons = Counter(), Counter()
        route_mix, yields = {}, {}
        for t_idx, data in enumerate(self.tables):
            kind = data.table.kind
            corrected, diag = self._grids(t_idx)
            names = [f"array{j + 1}" for j in range(data.table.arrays)]
            if self.workload.fit:
                fitted = pkg["cli"].read_fit_table(self.outs[t_idx].fit_table, kind)
                models = [fitted[n] for n in names]
                loglik += fit_table_loglik(self.outs[t_idx].fit_table)
            else:
                models = [data.model] * len(names)
            missed, drawn = checks.reference_misses(
                rng, REF_CELLS, corrected, data.observed, models,
                pkg["validation"].TOLERANCES[kind], pkg["oracle"])
            misses += missed
            checked += drawn
            se_corr, se_naive = checks.squared_errors(corrected, data.true_signal,
                                                      data.observed, data.negatives,
                                                      pkg["simulate"])
            log_ratios.append(math.log(se_corr / se_naive))
            r, per_array, why = checks.route_summary(diag, kind)
            routes.update(r)
            reasons.update(re.sub(r"[-+]?\d[\d.e+-]*", "#", k) for k in why.elements())
            route_mix[f"t{t_idx}_{kind}"] = {n: dict(mix) for n, mix in zip(names, per_array)}
            if kind in SERIES_KINDS:
                yields[kind] = r["series"] / corrected.size
        return {"misses": misses, "checked": checked,
                "mse_ratio": math.exp(statistics.fmean(log_ratios)),
                "fit_loglik": loglik if self.workload.fit else None,
                "routes": routes, "reasons": dict(reasons.most_common()),
                "route_mix": route_mix, "yields": yields}


def fit_table_loglik(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [line.split("\t") for line in fh.read().split("\n") if line]
        col = lines[0].index("loglik")
        return sum(float(row[col]) for row in lines[1:])
    except (OSError, ValueError) as exc:
        raise checks.CheckError(f"cannot read fit table {path}: {exc}") from exc


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


@dataclass
class Measured:
    env: dict
    e2e: dict            # every end-to-end metric, printed or gated
    layer: dict | None   # every per-layer metric of a traced run
    samples: dict        # the timings behind each median
    attempted: int       # gene x array cells over all timed passes
    failed: int
    correct: bool
    report: dict | None  # route mix and fallback reasons of a traced run


def measure(pkg, workload, seed, seconds, trace, work_dir):
    """Run set-up, timed passes, traced passes (if asked) and checks."""
    run = Run(pkg, workload, seed, work_dir)
    tracer = tracing.Tracer(workload.name) if trace else None
    if tracer:
        tracer.install(pkg)
    setup = []
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.pass_id = f"setup{rep}"
        setup.append(timed_ref([(run.setup_once, ())])[:2])
    if tracer:
        tracer.uninstall()
    first_pass_s = run.first_pass()

    walls = {"default": [], "1t": []}
    start = perf_counter()
    pairs = 0
    while True:
        order = ("default", "1t") if pairs % 2 == 0 else ("1t", "default")
        for mode in order:
            walls[mode].append(run.timed_pass(None if mode == "default" else 1))
        pairs += 1
        if perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_walls = []
    if tracer:
        tracer.install(pkg)
        try:
            for k in range(TRACED_PASSES):
                tracer.pass_id = f"traced{k}"
                traced_walls.append(run.timed_pass(None))
        finally:
            tracer.uninstall()

    q = run.quality()
    fail_frac = run.failed / run.attempted
    ref_miss_frac = q["misses"] / q["checked"]
    raw = {k: [w[0] for w in v] for k, v in walls.items()}
    ref = {k: [w[1] for w in v] for k, v in walls.items()}
    e2e = {
        "setup_s": statistics.median(s[1] for s in setup),
        "setup_raw_s": statistics.median(s[0] for s in setup),
        "wall_ref_s": statistics.median(ref["default"]),
        "wall_1t_ref_s": statistics.median(ref["1t"]),
        "wall_s": statistics.median(raw["default"]),
        "wall_1t_s": statistics.median(raw["1t"]),
        "fail_frac": fail_frac,
        "ok_frac": 1.0 - fail_frac,
        "ref_miss_frac": ref_miss_frac,
        "ref_ok_frac": 1.0 - ref_miss_frac,
        "mse_ratio": q["mse_ratio"],
        "fit_loglik": q["fit_loglik"],
        "peak_rss_mb": peak_rss_mb,
        "first_pass_s": first_pass_s,
    }
    first_diff = run.first_pass_diff_cells()
    samples = {"setup_s": [s[1] for s in setup], "setup_raw_s": [s[0] for s in setup],
               "wall_ref_s": ref["default"], "wall_1t_ref_s": ref["1t"],
               "wall_s": raw["default"], "wall_1t_s": raw["1t"]}
    layer = report = None
    if tracer:
        layer = tracing.layer_metrics(tracer, [f"traced{k}" for k in range(TRACED_PASSES)],
                                      [f"setup{r}" for r in range(SETUP_REPS)])
        layer["cli.bytes_in"], layer["cli.bytes_out"] = run.io_bytes()
        for route in ("closed", "series", "quadrature", "error"):
            layer[f"correct.route.{route}"] = q["routes"].get(route, 0)
        for kind in SERIES_KINDS:
            layer[f"correct.{kind}.series_yield"] = q["yields"].get(kind, 0.0)
        layer["correct.first_pass_diff_cells"] = first_diff
        layer["fit_loglik"] = q["fit_loglik"] or 0.0
        layer["trace.wall_ref_s"] = statistics.median(w[1] for w in traced_walls)
        layer["trace.overhead_ref_s"] = layer["trace.wall_ref_s"] - e2e["wall_ref_s"]
        samples["trace.wall_ref_s"] = [w[1] for w in traced_walls]
        report = {"route_mix": q["route_mix"], "fallback_reasons": q["reasons"]}
        tracer.write(os.path.join(WORK, f"{workload.name}-seed{seed}-spans.jsonl"))

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "samples": {k: len(v) for k, v in samples.items()},
        "tables": [{"kind": t.kind, "arrays": t.arrays, "genes": t.genes,
                    "controls": t.controls} for t in workload.tables],
        "mismatched_passes": run.mismatched_passes,
        "first_pass_diff_cells": first_diff,
    }
    correct = run.failed == 0 and q["misses"] == 0 and run.mismatched_passes == 0
    return Measured(env, e2e, layer, samples, run.attempted, run.failed, correct, report)


def unit_of(name):
    """Unit of a metric, from its name (BENCHMARK.json must agree)."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_ratio", "series_yield")):
        return "ratio"
    if name == "fit_loglik":
        return "nats"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "count"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_package():
    """The beadcorr modules, imported from the checkout's sources; None if absent."""
    if not os.path.isdir(os.path.join(SRC, "beadcorr")):
        return None
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.environ.pop("BEADCORR_CONFIG", None)
    return {m: importlib.import_module(f"beadcorr.{m}") for m in MODULES}


def result_line(spec, trace, measured):
    """The last output line: the BENCHMARK.json metrics of this kind of run."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = measured.layer if trace else measured.e2e
    return {"correct": bool(measured.correct), "attempted": int(measured.attempted),
            "failed": int(measured.failed),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in listed}}


def describe(measured):
    """Human-readable lines: environment, every metric with its unit, routes."""
    lines = ["env " + json.dumps(measured.env, sort_keys=True)]
    for name, value in {**measured.e2e, **(measured.layer or {})}.items():
        extra = ""
        if name in measured.samples:
            s = measured.samples[name]
            extra = f"  (median of {len(s)}; min {min(s):.4f}, max {max(s):.4f})"
        shown = "n/a (no fit in this workload)" if value is None else f"{value:.6g}"
        lines.append(f"{name} {shown} {unit_of(name)}{extra}")
    if measured.report:
        lines.append("route_mix " + json.dumps(measured.report["route_mix"], sort_keys=True))
        lines.append("fallback_reasons " + json.dumps(measured.report["fallback_reasons"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_package()
    if pkg is None:
        sys.stderr.write(f"perfbench: no beadcorr sources under {SRC}\n")
        return 2
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        measured = measure(pkg, workload, args.seed, args.seconds, args.trace, work_dir)
    except checks.CheckError as exc:
        sys.stderr.write(f"perfbench: check could not run: {exc}\n")
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("\n".join(describe(measured)))
    result = result_line(spec, args.trace, measured)
    report = os.path.join(WORK, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({**dataclasses.asdict(measured), "result": result}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps(result))
    return 0 if measured.correct else 1


if __name__ == "__main__":
    sys.exit(main())
