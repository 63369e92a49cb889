"""Span tracing of beadcorr's layers from outside the package.

Every cross-module call in beadcorr goes through a module attribute
(``series.convergence_ok``, ``oracle.quad``, ``estimate.loglik``, ...), so
replacing the attribute with a wrapper records every such call.  The package
itself is not edited.  Spans are kept in memory and written out once.

A span is (id, name, start, end, parent id, workload, pass id, note).  The
parent is the innermost open span of the same thread; a call that starts a
thread's stack (a CLI pool worker) takes the main thread's innermost span,
which is the ``cli.cmd_*`` span that submitted it.  The note carries the
count the boundary knows: terms used by a series evaluator, QUADPACK
``neval``, optimizer evaluations, the gate's verdict, or "raised".
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
from time import perf_counter

SERIES_FAMILIES = ("exp_lognormal", "gamma_lognormal", "gb_pair", "gb_normal")
CORRECTORS = ("correct_gb", "correct_gb_normal", "correct_exp_lognormal",
              "correct_gamma_lognormal", "correct_gamma_normal", "correct_exp_gamma",
              "correct_rma")
SPECFUN = ("gen_binomial_log_array", "rising_binomial_log_array", "gaussian_moment_table")


def _series_note(value):
    terms = value.terms_used
    return (math.prod(terms), max(terms))


def _quad_note(result):
    # every caller passes full_output=1, so the third element is QUADPACK's infodict
    return result[2]["neval"]


def _loglik_note(value):
    return "reject" if not math.isfinite(value) else None


def targets(pkg):
    """(module, attribute, span name, note function) for every traced boundary."""
    cli, correct, series, oracle, estimate, specfun, simulate = (
        pkg[m] for m in ("cli", "correct", "series", "oracle", "estimate", "specfun",
                         "simulate"))
    out = [(cli, f, f"cli.{f}", None)
           for f in ("ingest", "read_fit_table", "cmd_fit", "cmd_correct")]
    out += [(correct, f, f"correct.{f}", None) for f in ("correct_array",) + CORRECTORS]
    out.append((correct, "quad", "correct.quad", _quad_note))
    out.append((series, "convergence_ok", "series.convergence_ok", bool))
    out += [(series, f"{fam}_{part}_series", f"series.{fam}_{part}_series", _series_note)
            for fam in SERIES_FAMILIES for part in ("den", "num")]
    out += [(oracle, f, f"oracle.{f}", None)
            for f in ("posterior_mean_quadrature", "marginal_log_pdf_quadrature")]
    out.append((oracle, "quad", "oracle.quad", _quad_note))
    out.append((estimate, "fit_mle", "estimate.fit_mle", lambda r: r.iterations))
    out.append((estimate, "loglik", "estimate.loglik", _loglik_note))
    out.append((estimate, "log_marginal", "estimate.log_marginal", None))
    out += [(specfun, f, f"specfun.{f}", None) for f in SPECFUN]
    out.append((simulate, "simulate_experiment", "simulate.simulate_experiment", None))
    return out


class Tracer:
    """Installs span-recording wrappers on module attributes and removes them."""

    def __init__(self, workload):
        self.workload = workload
        self.pass_id = None
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = []
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread()
                else [])
        return stack

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append((sid, name, t0, perf_counter(), parent,
                                     tracer.workload, tracer.pass_id, "raised"))
                raise
            finally:
                stack.pop()
            t1 = perf_counter()
            tracer.spans.append((sid, name, t0, t1, parent, tracer.workload,
                                 tracer.pass_id, note(result) if note else None))
            return result
        return traced

    def install(self, pkg):
        for module, attr, name, note in targets(pkg):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, workload, pass_id, note in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "workload": workload,
                                     "pass": pass_id, "note": note}) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def pass_metrics(spans, pass_id):
    """Per-function calls, busy_s, self_s and raised, plus the boundary counts."""
    mine = [s for s in spans if s[6] == pass_id]
    children = {}
    for sid, _, t0, t1, parent, *_ in mine:
        children.setdefault(parent, []).append((t0, t1))
    m = {}
    notes = {}
    for sid, name, t0, t1, _, _, _, note in mine:
        dur = t1 - t0
        m[f"{name}.calls"] = m.get(f"{name}.calls", 0) + 1
        m[f"{name}.busy_s"] = m.get(f"{name}.busy_s", 0.0) + dur
        m[f"{name}.self_s"] = (m.get(f"{name}.self_s", 0.0)
                               + dur - _covered(children.get(sid, ()), t0, t1))
        m[f"{name}.raised"] = m.get(f"{name}.raised", 0) + (note == "raised")
        notes.setdefault(name, []).append(note)

    def ok_notes(name):
        return [n for n in notes.get(name, ()) if n is not None and n != "raised"]

    for fam in SERIES_FAMILIES:
        terms = [n for part in ("den", "num")
                 for n in ok_notes(f"series.{fam}_{part}_series")]
        m[f"series.{fam}.box_terms"] = sum(t[0] for t in terms)
        m[f"series.{fam}.terms_max"] = max((t[1] for t in terms), default=0)
    gate = notes.get("series.convergence_ok", [])
    m["series.convergence_ok.accept_frac"] = (sum(n is True for n in gate) / len(gate)
                                              if gate else 0.0)
    for q in ("oracle.quad", "correct.quad"):
        m[f"{q}.neval"] = sum(ok_notes(q))
    m["estimate.fit.nfev"] = sum(ok_notes("estimate.fit_mle"))
    ll = notes.get("estimate.loglik", [])
    m["estimate.loglik.reject_frac"] = (sum(n is not None for n in ll) / len(ll)
                                        if ll else 0.0)
    m["estimate.optimizer.self_s"] = m.get("estimate.fit_mle.self_s", 0.0)
    return m


def layer_metrics(tracer, traced_passes, setup_passes):
    """Median over the traced passes of each per-pass metric.

    Counts repeat exactly from pass to pass once caches are warm, so their
    median is the per-pass count.  Functions never called read 0.
    """
    per_pass = [pass_metrics(tracer.spans, p) for p in traced_passes]
    out = {}
    for name in metric_names():
        values = [p.get(name, 0) for p in per_pass]
        exact = all(isinstance(v, int) for v in values)
        out[name] = (statistics.median_low if exact else statistics.median)(values)
    key = "simulate.simulate_experiment.busy_s"
    out[key] = statistics.median(pass_metrics(tracer.spans, p).get(key, 0.0)
                                 for p in setup_passes)
    return out


def metric_names():
    """Names of every per-layer metric the traced run reports."""
    names = [f"cli.{f}.{s}" for f in ("ingest", "read_fit_table", "cmd_fit", "cmd_correct")
             for s in ("calls", "busy_s", "self_s")]
    names += ["correct.correct_array.calls", "correct.correct_array.busy_s",
              "correct.correct_array.self_s"]
    names += [f"correct.{f}.{s}" for f in CORRECTORS for s in ("calls", "busy_s", "self_s")]
    names += ["series.convergence_ok.calls", "series.convergence_ok.busy_s",
              "series.convergence_ok.accept_frac"]
    names += [f"series.{fam}_{part}_series.{s}" for fam in SERIES_FAMILIES
              for part in ("den", "num") for s in ("calls", "busy_s", "raised")]
    names += [f"series.{fam}.{s}" for fam in SERIES_FAMILIES for s in ("box_terms", "terms_max")]
    names += [f"oracle.{f}.{s}" for f in ("posterior_mean_quadrature",
                                          "marginal_log_pdf_quadrature")
              for s in ("calls", "busy_s", "self_s")]
    names += [f"{q}.{s}" for q in ("oracle.quad", "correct.quad")
              for s in ("calls", "busy_s", "neval")]
    names += [f"estimate.{f}.{s}" for f in ("fit_mle", "loglik", "log_marginal")
              for s in ("calls", "busy_s")]
    names += ["estimate.optimizer.self_s", "estimate.fit.nfev", "estimate.loglik.reject_frac"]
    names += [f"specfun.{f}.{s}" for f in SPECFUN for s in ("calls", "busy_s")]
    return names
