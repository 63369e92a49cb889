"""Fast self-test of the benchmark: every workload at tiny sizes, traced and not.

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric is reported, that
BENCHMARK.json names only reported metrics with the units the benchmark
gives them, that pipeline_closed makes no series call and correct_series no
estimate call, and that the exact counts repeat across two traced runs with
the same seed.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import tracing
import workloads

E2E = ("setup_s", "setup_raw_s", "wall_ref_s", "wall_1t_ref_s", "wall_s", "wall_1t_s",
       "fail_frac", "ref_miss_frac", "mse_ratio", "fit_loglik", "peak_rss_mb", "ok_frac",
       "ref_ok_frac")
EXACT = ("series.gb_pair.box_terms", "series.gb_normal.box_terms",
         "series.exp_lognormal.box_terms", "series.gamma_lognormal.box_terms",
         "estimate.fit.nfev", "oracle.quad.neval", "correct.quad.neval",
         "correct.route.closed", "correct.route.series", "correct.route.quadrature",
         "correct.route.error")


#: genes per array of the tiny runs; pipeline_closed fits need a few dozen
#: genes to be well-posed, and cost little per gene
TINY_GENES = {"correct_series": 6, "pipeline_closed": 40, "fit_series": 6}


def tiny_run(pkg, workload, trace, seed=3):
    work_dir = os.path.join(run.WORK, f"selftest-{workload.name}-{trace}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run.measure(pkg, workload.scaled(genes=TINY_GENES[workload.name], arrays=3),
                           seed, 0.0, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def check(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def main():
    pkg = run.load_package()
    if pkg is None:
        sys.stderr.write("selftest: no beadcorr sources\n")
        return 2
    os.makedirs(run.WORK, exist_ok=True)
    spec = run.load_spec()
    failures = []
    layer_names = set(tracing.metric_names()) | {m["name"] for m in spec["per_layer"]}

    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            check(m["unit"] == run.unit_of(m["name"]),
                  f"BENCHMARK.json {m['name']} unit {m['unit']} is the reported unit",
                  failures)
    check({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
          "BENCHMARK.json workloads exist", failures)

    for name, workload in workloads.WORKLOADS.items():
        plain = tiny_run(pkg, workload, 0)
        traced = tiny_run(pkg, workload, 1)
        again = tiny_run(pkg, workload, 1)
        check(set(E2E) <= set(plain.e2e), f"{name}: every end-to-end metric reported",
              failures)
        check(layer_names <= set(traced.layer), f"{name}: every per-layer metric reported",
              failures)
        for trace, measured in ((0, plain), (1, traced)):
            line = run.result_line(spec, trace, measured)
            check(set(line) == {"correct", "attempted", "failed", "metrics"}
                  and line["attempted"] >= 1,
                  f"{name}: result line keys (trace {trace})", failures)
        check(all(traced.layer[k] == again.layer[k] for k in EXACT),
              f"{name}: exact counts repeat across traced runs", failures)
        series_calls = sum(v for k, v in traced.layer.items()
                           if k.startswith("series.") and k.endswith(".calls"))
        estimate_calls = sum(v for k, v in traced.layer.items()
                             if k.startswith("estimate.") and k.endswith(".calls"))
        if name == "pipeline_closed":
            check(series_calls == 0, f"{name}: zero series.* calls", failures)
        if name == "correct_series":
            check(estimate_calls == 0, f"{name}: zero estimate.* calls", failures)
        print(f"     {name}: correct={plain.correct} fail_frac={plain.e2e['fail_frac']:.4f} "
              f"series calls={series_calls} estimate calls={estimate_calls}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
