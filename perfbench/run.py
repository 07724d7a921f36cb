#!/usr/bin/env python3
"""parkcast benchmark: one workload per process, or all three in turn.

Usage, from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --workload fan --smoke      # tiny sizes, seconds

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md). Every metric is printed on its
own line as ``metric <name> <value> <unit> n=<samples>``; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Traced runs also write their spans to
``perfbench/out/spans_<workload>_seed<seed>.json``.

The BLAS thread count is pinned before NumPy loads, because the lasso's
sweep counts depend on it (the same fit takes different sweep counts with
one and with two OpenBLAS threads). Exits with 2, printing no result, when
the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BLAS_THREADS = 1
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(HERE, "out")
WORKLOADS = ("fit_wide", "fan", "backtest")
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes; for the harness's own test")
    return ap.parse_args(argv)


def _metric_line(name, value, unit, n) -> str:
    return f"metric {name} {value!r} {unit} n={n}"


def report(rec: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"workload {rec['workload']} seed {rec['seed']} seconds {rec['seconds']} "
          f"trace {rec['trace']}")
    print("host " + json.dumps(rec["host"], sort_keys=True))
    n_ops, n_setups = rec["n_ops"], rec["n_setups"]
    lines = [("op_s", rec["op_s"], "s", n_ops),
             ("setup_s", rec["setup_s"], "s", n_setups),
             ("peak_rss_mb", rec["peak_rss_mb"], "MB", 1),
             ("failed_share", rec["failed"] / rec["attempted"], "ratio",
              rec["attempted"]),
             # the raw wall times behind the rescaled ones, and the speed
             ("op_wall_s", rec["op_wall_s"], "s", n_ops),
             ("setup_wall_s", rec["setup_wall_s"], "s", n_setups),
             ("ref_s", rec["ref_s"], "s", rec["n_refs"])]
    # the same figures under the workload's own names
    if rec["workload"] == "fit_wide":
        lines += [("fit_s", rec["op_s"], "s", n_ops),
                  ("bic_sum", rec["quality"], "bic", rec["n_units"])]
    elif rec["workload"] == "fan":
        lines += [("fan_s", rec["subs"]["fan_s"], "s", n_ops),
                  ("point_ms", 1000.0 * rec["subs"]["point_s"], "ms", n_ops)]
    else:
        lines += [("backtest_s", rec["op_s"], "s", n_ops),
                  ("dmae_kw", rec["quality"], "kW", rec["n_units"])]
    if not trace:
        lines.append(("lasso.warnings", rec["lasso_warnings"], "count", rec["n_units"]))
    for line in lines:
        print(_metric_line(*line))
    for failure in rec["failures"]:
        print(f"failed {failure}")
    if trace:
        import harness

        for name, value in rec["layers"].items():
            unit = harness.unit_of(name)
            # times are per operation or per set-up; counts cover one round
            n = (n_setups if name.startswith("setup.")
                 else n_ops if unit == "s" else rec["n_units"])
            print(_metric_line(name, value, unit, n))
        for text, held in rec["predictions"]:
            print(f"prediction {text}: {'held' if held else 'NOT held'}")
        print(f"spans {os.path.relpath(rec['spans_file'], ROOT)}")
        metrics = {k: {"value": v, "unit": harness.unit_of(k)}
                   for k, v in rec["layers"].items()}
    else:
        metrics = {k: {"value": rec[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, in turn."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "parkcast", "__init__.py")):
        print(f"perfbench: no parkcast sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    rec = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      sizes, OUTDIR, BLAS_THREADS)
    result = report(rec, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
