"""Runs one workload in this process and computes its metrics.

A run sets up every unit of the workload (each set-up timed on its own),
then times one operation per unit in rounds until the run's seconds are
used up, at least one round. Every output is checked; every check counts
as an operation toward ``failed``. Untraced runs report the end-to-end
metrics. Traced runs first time the first few units untraced (the baseline
for the tracing overhead), then install the tracer's wrappers and report
the per-layer metrics from the spans.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from collections import defaultdict

import numpy as np
import scipy

import workloads as wl
from tracing import BENCHMARK_CLASSES, Tracer, self_times

# metric -> span names whose self time it sums (per operation for the
# timed phase, per set-up with the "setup." prefix)
LAYER_TIMES = {
    "lasso.path_s": ("lasso.path", "lasso.descent", "lasso.bic"),
    "design.build_s": ("design.build", "design.thresholds"),
    "model.self_s": ("model.fit",),
    "model.save_s": ("model.save",),
    "model.load_s": ("model.load",),
    "basis.eval_s": ("basis.eval",),
    "forecast.simulate_s": ("forecast.simulate",),
    "forecast.init_s": ("forecast.init",),
    "forecast.filter_s": ("forecast.filter",),
    "forecast.point_s": ("forecast.point",),
    "forecast.bootstrap_s": ("forecast.bootstrap",),
    **{f"benchmarks.{b}.{k}_s": (f"benchmarks.{b}.{k}",)
       for b in BENCHMARK_CLASSES for k in ("fit", "forecast")},
    "evaluation.self_s": ("evaluation.backtest",),
    "trace.untraced_s": ("_untraced",),
    "trace.span_s": ("_span",),
}
SETUP_ONLY = ("model.save_s", "model.load_s", "forecast.simulate_s")
TIMED_TIMES = tuple(k for k in LAYER_TIMES if k not in SETUP_ONLY)
SETUP_TIMES = ("lasso.path_s", "design.build_s", "model.self_s", "basis.eval_s",
               "forecast.init_s") + SETUP_ONLY + ("trace.untraced_s", "trace.span_s")
# exact counts of the first traced round, summed over its units
ADDITIVE_COUNTS = ("lasso.sweeps", "lasso.lambdas", "lasso.unconverged",
                   "lasso.nnz", "lasso.grid_edge", "design.columns",
                   "design.bytes", "forecast.path_steps", "forecast.filter_rows",
                   "evaluation.failures")
# units timed untraced before a traced run, as the overhead's baseline
BASELINE_UNITS = 4
UNITS = {"design.bytes": "B", "lasso.kkt_max": "1", "lasso.converged_share": "ratio",
         "trace.overhead_share": "ratio", "model.bic_sum": "bic",
         "evaluation.dmae_kw": "kW"}


class Tally:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


def host_facts(blas_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas": blas_name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree (read, not run)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


# The reference kernel's median time on the reference box (2-core VM,
# Python 3.11, NumPy 2.4, one OpenBLAS thread). Times are rescaled to it.
REF_NOMINAL_S = 0.011


def reference_kernel(block: np.ndarray) -> float:
    """Wall time of a fixed amount of interpreted float arithmetic plus one
    scaled copy and column reduction of ``block`` (a memory-bound pass).

    Timed alongside the program on the reference box, the sum of the two
    tracked the program's speed better than either alone or than small
    NumPy calls: over twelve 20-second windows, rescaling by it cut the
    spread of a fit's and a fan's time from 0.11 and 0.10 to 0.05."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(100_000):
        s += i * 0.5
    s += float(np.einsum("ij,ij->j", block * 1.0001, block).sum())
    return time.perf_counter() - t0


class _SpeedProbe:
    """Times the reference kernel twice after every set-up and every
    operation. The shared machine's speed drifts by 15-20% over tens of
    seconds; the run's times are rescaled by ``REF_NOMINAL_S`` over the
    median kernel time of the run."""

    def __init__(self) -> None:
        self.block = np.random.default_rng(0).standard_normal((12_000, 176))
        self.refs: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.refs += [reference_kernel(self.block) for _ in range(2)]

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.refs)


def _phase(tracer: Tracer | None, name: str):
    return tracer.phase(name) if tracer else contextlib.nullcontext()


def _installed(tracer: Tracer | None):
    return tracer.installed() if tracer else contextlib.nullcontext()


class _Rounds:
    """Per-unit wall times and the repeat checks against each unit's first
    outcome."""

    def __init__(self, n_units: int, tally: Tally, probe: _SpeedProbe):
        self.tally, self.probe = tally, probe
        self.n_units = n_units
        self.first: dict[int, wl.Outcome] = {}
        self.reset()

    def reset(self) -> None:
        self.samples: list[list[float]] = [[] for _ in range(self.n_units)]
        self.subs: dict[str, list[list[float]]] = defaultdict(
            lambda: [[] for _ in range(self.n_units)])

    def run(self, w, units, tracer: Tracer | None, timed: bool = True) -> None:
        for i, unit in enumerate(units):
            t0 = time.perf_counter()
            try:
                with _phase(tracer, "timed"):
                    out = w.run(unit)
            except Exception:  # noqa: BLE001 - counted as a failed operation
                traceback.print_exc(file=sys.stderr)
                self.tally.check("operation raised", False)
                self.probe.sample()
                continue
            elapsed = time.perf_counter() - t0
            self.probe.sample()
            if timed:
                self.samples[i].append(elapsed)
                for key, value in out.times.items():
                    self.subs[key][i].append(value)
            self.record(i, out)

    def record(self, i: int, out: wl.Outcome) -> None:
        t = self.tally
        t.attempted += out.ops
        t.failed += out.failed
        if out.failed:
            t.failures.append(f"{out.failed} operation(s) failed")
        for name, ok in out.checks.items():
            t.check(name, ok)
        if i in self.first:
            t.check("counts repeat exactly", out.counts == self.first[i].counts)
            t.check("output repeats bit for bit", out.digest == self.first[i].digest)
        else:
            self.first[i] = out


def _unit_mean(per_unit: list[list[float]]) -> float:
    """Geometric mean over units of each unit's median time."""
    return statistics.geometric_mean(statistics.median(s) for s in per_unit if s)


def run(name: str, seed: int, seconds: float, trace: bool, sizes: wl.Sizes,
        outdir: str, blas_threads: int) -> dict:
    """Run one workload; returns the result record (see ``run.py``)."""
    os.makedirs(outdir, exist_ok=True)
    tracer = Tracer() if trace else None
    tally = Tally()
    probe = _SpeedProbe()
    with tempfile.TemporaryDirectory(dir=outdir) as workdir, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = wl.make(name, sizes, seed, workdir)
        units, setup_times = [], []
        with _installed(tracer):
            for k in range(w.n_setups):
                t0 = time.perf_counter()
                with _phase(tracer, "setup"):
                    new, checks = w.setup(k)
                setup_times.append(time.perf_counter() - t0)
                probe.sample()
                units += new
                for check, ok in checks.items():
                    tally.check(check, ok)

        rounds = _Rounds(len(units), tally, probe)
        start = time.perf_counter()
        baseline = None
        if tracer is not None:  # untraced baseline for the tracing overhead
            rounds.run(w, units[:BASELINE_UNITS], None)
            baseline = [s[0] for s in rounds.samples if s]
            rounds.reset()
        warn_from = len(caught)
        round1: dict[str, float] = {}
        n_rounds = 0
        with _installed(tracer):
            while True:
                before = dict(tracer.counts["timed"]) if tracer else {}
                rounds.run(w, units, tracer)
                n_rounds += 1
                if tracer is not None:
                    delta = {k: tracer.counts["timed"].get(k, 0) - before.get(k, 0)
                             for k in ADDITIVE_COUNTS}
                    if n_rounds == 1:
                        round1 = delta
                    else:
                        tally.check("traced counts repeat exactly", delta == round1)
                if n_rounds == 1:
                    lasso_warnings = sum(
                        1 for m in caught[warn_from:]
                        if m.category.__name__ == "LassoConvergenceWarning")
                if time.perf_counter() - start >= seconds:
                    break
        if len(rounds.samples[0]) + (baseline is not None) < 2:
            rounds.run(w, units[:1], None, timed=False)  # for the repeat checks

    if not any(rounds.samples):
        raise RuntimeError("every operation failed")
    quality = [o.quality for o in rounds.first.values()]
    scale = probe.scale()
    op_wall_s = _unit_mean(rounds.samples)
    setup_wall_s = statistics.median(setup_times)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": host_facts(blas_threads),
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
        "n_setups": len(setup_times), "n_units": len(units),
        "n_ops": sum(len(s) for s in rounds.samples),
        "op_s": op_wall_s * scale,
        "op_wall_s": op_wall_s,
        "setup_s": setup_wall_s * scale,
        "setup_wall_s": setup_wall_s,
        "ref_s": statistics.median(probe.refs),
        "n_refs": len(probe.refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "subs": {k: _unit_mean(v) * scale for k, v in rounds.subs.items()},
        "quality": float(np.mean(quality)) if quality else 0.0,
        "lasso_warnings": lasso_warnings,
    }
    if tracer is not None:
        record["layers"] = _layer_metrics(tracer, record, round1, lasso_warnings,
                                          baseline, rounds.samples, name)
        record["predictions"] = _predictions(name, record["layers"])
        path = os.path.join(outdir, f"spans_{name}_seed{seed}.json")
        with open(path, "w") as fh:
            json.dump(record | {"spans": tracer.dump()}, fh)
        record["spans_file"] = path
    return record


def _layer_metrics(tracer: Tracer, record: dict, round1: dict, lasso_warnings: int,
                   baseline, samples, name: str) -> dict[str, float]:
    tables = self_times(tracer.spans)
    out: dict[str, float] = {}
    for phase, per, keys, prefix in (
            ("timed", record["n_ops"], TIMED_TIMES, ""),
            ("setup", record["n_setups"], SETUP_TIMES, "setup.")):
        table = tables.get(phase, {})
        for key in keys:
            out[prefix + key] = sum(table.get(s, 0.0) for s in LAYER_TIMES[key]) / per
    out.update({k: float(round1.get(k, 0)) for k in ADDITIVE_COUNTS})
    lam = out["lasso.lambdas"]
    out["lasso.converged_share"] = (lam - out["lasso.unconverged"]) / lam if lam else 0.0
    out["lasso.kkt_max"] = float(tracer.counts["timed"].get("lasso.kkt_max", 0.0))
    out["lasso.warnings"] = float(lasso_warnings)
    out["model.bic_sum"] = record["quality"] if name == "fit_wide" else 0.0
    out["evaluation.dmae_kw"] = record["quality"] if name == "backtest" else 0.0
    traced = sum(statistics.median(s) for s in samples[:len(baseline)])
    out["trace.overhead_share"] = traced / sum(baseline) - 1.0
    return out


def _predictions(name: str, m: dict[str, float]) -> list[tuple[str, bool]]:
    """The predictions, stated before measuring, of where each workload
    spends its time."""
    if name == "fit_wide":
        share = m["lasso.path_s"] / m["trace.span_s"]
        return [(f"lasso.path_s >= 90% of fit_s ({100 * share:.1f}%)", share >= 0.9)]
    if name == "fan":
        return [("lasso.* and forecast.filter_rows are zero in the timed part",
                 m["lasso.path_s"] == 0.0 and m["lasso.sweeps"] == 0
                 and m["forecast.filter_rows"] == 0)]
    return [("filtering and the lasso fit both show up",
             m["forecast.filter_rows"] > 0 and m["forecast.filter_s"] > 0
             and m["lasso.sweeps"] > 0 and m["lasso.path_s"] > 0)]


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"
