"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des_figures --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate profiled run.  A ``provenance`` line (seed, host load, versions,
code fingerprints, sample counts) precedes it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

_T_START = time.perf_counter()
_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

WORKLOADS = ("des_figures", "model_paper", "bytes_verified", "sweep_service")
DEFAULT_SEED = 2002


def _load(name: str):
    """Import the program and the workload; the import counts as set-up."""
    import importlib

    import numpy  # noqa: F401
    import repro  # noqa: F401

    module = importlib.import_module(f"perfbench.{name}")
    return module.WORKLOAD()


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    load_start = os.getloadavg()
    t0 = time.perf_counter()
    try:
        wl = _load(args.workload)
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    try:
        if args.trace:
            result, extra = _traced(harness, wl, args)
        else:
            result, extra = _timed(harness, wl, args)
    finally:
        wl.close()
    extra["import_s"] = round(import_s, 4)
    extra["run_s"] = round(time.perf_counter() - _T_START, 3)
    prov = harness.provenance(args.seed, args.workload, load_start, extra)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _metrics(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _timed(harness, wl, args):
    probe = harness.SpeedProbe(wl.speed_exponent)
    setup_s = harness.time_setups(wl, args.seed, harness.SETUP_REPEATS, probe)
    m = harness.measure(wl, harness.n_passes(wl, args.seconds), probe)
    model_des_err = wl.model_des_err()
    wl.close()  # reaps any daemon process, so its peak memory counts
    p99 = m.percentile_ms(99.0, wl.repeats_units)
    values = {
        "setup_s": setup_s,
        "wall_s": m.wall_s,
        "peak_rss_mb": harness.peak_rss_mb(),
        "pass_rate": (m.attempted - m.failed) / m.attempted,
        "model_des_err": model_des_err,
        "req_p50_ms": m.percentile_ms(50.0, wl.repeats_units),
        "req_p99_ms": p99,
    }
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": _metrics(values, harness.END_TO_END),
    }
    extra = {
        "raw_wall_s": round(statistics.median(m.raw_passes), 4),
        "probe_ms": round(1e3 * statistics.median(probe.samples), 4),
        "passes": len(m.passes),
        "samples": sum(len(p) for p in m.latencies),
        "beyond_p99": sum(1e3 * x > p99 for p in m.latencies for x in p),
    }
    return result, extra


def _traced(harness, wl, args):
    from repro.obs import capture_cprofile

    _, setup_profile = capture_cprofile(wl.setup, args.seed)
    out = harness.traced_metrics(wl, args.seconds, setup_profile)
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": _metrics(out["values"], harness.PER_LAYER),
    }
    return result, {}


if __name__ == "__main__":
    sys.exit(main())
