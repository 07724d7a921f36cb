"""Smoke test of the benchmark harness on tiny sizes (a few seconds a run).

Run from the root of the checkout:

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT, run: str = RUN):
    return subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def _check_output(proc, expected: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {ln.split()[1] for ln in lines if ln.startswith("metric ")}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        assert m["name"] in printed
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = _check_output(_run(workload, 0), SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layer_times_add_up_to_the_workload_span(workload):
    result = _check_output(_run(workload, 1), SPEC["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # per operation: every timed-phase layer self time plus the untraced
    # remainder is the timed span
    layers = sum(v for k, v in m.items() if k.endswith("_s")
                 and not k.startswith(("setup.", "trace.")))
    assert layers + m["trace.untraced_s"] == pytest.approx(m["trace.span_s"], rel=1e-9)
    setup = sum(v for k, v in m.items() if k.startswith("setup.")
                and not k.startswith("setup.trace."))
    assert setup + m["setup.trace.untraced_s"] == pytest.approx(
        m["setup.trace.span_s"], rel=1e-9)

    with open(os.path.join(HERE, "out", f"spans_{workload}_seed3.json")) as fh:
        spans = json.load(fh)["spans"]
    children: dict[int, float] = {}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    self_total = sum(s["end"] - s["start"] - children.get(s["id"], 0.0) for s in spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    assert self_total == pytest.approx(roots, rel=1e-9)
    assert {s["name"] for s in spans if s["parent"] is None} == {"setup", "timed"}


def test_tracer_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(HERE)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import tracing

    def current():
        return [vars(owner)[attr] for owner, attr in
                (tracing.resolve(module, path) for module, path, _, _ in tracing.WRAPS)]

    before = current()
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert all(a is not b for a, b in zip(current(), before))
            raise RuntimeError("restore on error too")
    assert all(a is b for a, b in zip(current(), before))


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("fan", 0, cwd=str(tmp_path), run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
