"""In-memory span tracer that wraps parkcast's public functions from outside.

Each wrapped attribute is replaced, on the object its caller looks it up on,
by a wrapper that records a span (name, layer, start, end, parent id) and
the exact work counts its return value carries. Nothing under ``src/`` is
edited: ``parkcast.model.fit_path_bic`` is wrapped because that is the name
``fit_joint_model`` calls. Leaving ``Tracer.installed()`` puts every
original attribute back, also on error.

A span's self time is its duration minus the durations of its direct child
spans. Each set-up and each timed operation is a root span (a phase), so
the layer self times plus the roots' own self time add up to the roots.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# The reference forecasters the backtest workload runs; wppt and gwppt
# crash on NumPy 2.4 and are left out.
BENCHMARK_CLASSES = {"persistence": "PersistenceModel", "ar": "ArModel",
                     "bvar": "BvarModel", "var": "VarModel",
                     "arma11": "Arma11Model"}

# (module, attribute path on it, layer, span name). The attribute path is
# the name the caller looks the function up by, so the wrapper is hit.
WRAPS = [
    ("parkcast.model", "interaction_basis", "basis", "basis.eval"),
    ("parkcast.forecast", "interaction_basis", "basis", "basis.eval"),
    ("parkcast.model", "compute_threshold_set", "design", "design.thresholds"),
    ("parkcast.model", "build_speed_mean_design", "design", "design.build"),
    ("parkcast.model", "build_power_mean_design", "design", "design.build"),
    ("parkcast.model", "build_speed_vol_design", "design", "design.build"),
    ("parkcast.model", "build_power_vol_design", "design", "design.build"),
    ("parkcast.model", "fit_path_bic", "lasso", "lasso.path"),
    ("parkcast.model", "coordinate_descent", "lasso", "lasso.descent"),
    ("parkcast.model", "weighted_bic", "lasso", "lasso.bic"),
    ("parkcast.model", "fit_joint_model", "model", "model.fit"),
    ("parkcast.evaluation", "fit_joint_model", "model", "model.fit"),
    ("parkcast.model", "save_model", "model", "model.save"),
    ("parkcast.model", "load_model", "model", "model.load"),
    ("parkcast.forecast", "simulate_synthetic", "forecast", "forecast.simulate"),
    ("parkcast.forecast", "Forecaster.__init__", "forecast", "forecast.init"),
    ("parkcast.forecast", "Forecaster.ensure_state", "forecast", "forecast.filter"),
    ("parkcast.forecast", "Forecaster.point", "forecast", "forecast.point"),
    ("parkcast.forecast", "Forecaster.bootstrap", "forecast", "forecast.bootstrap"),
    ("parkcast.evaluation", "run_backtest", "evaluation", "evaluation.backtest"),
] + [
    ("parkcast.benchmarks", f"{cls}.{method}", "benchmarks", f"benchmarks.{bid}.{kind}")
    for bid, cls in BENCHMARK_CLASSES.items()
    for method, kind in (("fit", "fit"), ("forecast_power", "forecast"))
]


@dataclass
class Span:
    id: int
    name: str
    layer: str  # "" for the phase roots
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans, and counts per root phase, while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(len(self.spans), name, layer, time.perf_counter(), float("nan"),
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span; spans and counts inside it belong to ``name``."""
        span = self._open(name, "")
        try:
            yield span
        finally:
            self._close(span)

    @contextlib.contextmanager
    def installed(self):
        """Swap every attribute in ``WRAPS`` for its wrapper; always restore."""
        try:
            for module, path, layer, name in WRAPS:
                owner, attr = resolve(module, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, layer, name))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def _wrapper(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            covered = args[0].covered_through if name == "forecast.filter" else 0
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            root = tracer.spans[tracer._stack[0]].name if tracer._stack else ""
            _count(tracer.counts[root], name, args, result, covered)
            return result

        return wrapped

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def resolve(module: str, path: str) -> tuple[object, str]:
    """The object that holds ``path`` (dotted, within ``module``) and the
    attribute name on it."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _count(c: dict[str, float], name: str, args, result, covered: int) -> None:
    """Exact work counts read from a wrapped call's arguments and result."""
    if name == "lasso.path":
        c["lasso.sweeps"] += int(result.sweeps.sum())
        c["lasso.lambdas"] += int(result.lambdas.size)
        c["lasso.unconverged"] += int((~result.converged).sum())
        c["lasso.nnz"] += int(np.count_nonzero(result.coefficients))
        c["lasso.grid_edge"] += int(result.selected_index == result.lambdas.size - 1)
        if np.isfinite(result.kkt_max):
            c["lasso.kkt_max"] = max(c["lasso.kkt_max"], float(result.kkt_max))
    elif name == "design.build":
        m, p = result[0].values.shape
        c["design.columns"] += p
        c["design.bytes"] += 8 * m * p  # computed from the shape, not measured
    elif name == "forecast.bootstrap":
        c["forecast.path_steps"] += result.n_paths * result.horizon
    elif name == "forecast.filter":
        c["forecast.filter_rows"] += args[0].covered_through - covered
    elif name == "evaluation.backtest":
        c["evaluation.failures"] += sum(len(v) for v in result.failures.values())


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per root phase: self time summed by span name, plus ``_untraced``
    (the root's own self time) and ``_span`` (the root durations)."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    root_of: dict[int, int] = {}
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:  # a parent always precedes its children
        root_of[s.id] = s.id if s.parent is None else root_of[s.parent]
        table = out[spans[root_of[s.id]].name]
        if s.parent is None:
            table["_untraced"] += own[s.id]
            table["_span"] += s.end - s.start
        else:
            table[s.name] += own[s.id]
    return out
