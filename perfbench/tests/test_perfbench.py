"""Self-tests of the benchmark: its checks can fail, its names match
``BENCHMARK.json``, and its deterministic counts repeat.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
(about two minutes; the tier-1 suite does not collect this directory).
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.des_figures import DesFigures  # noqa: E402
from perfbench.model_paper import ModelPaper  # noqa: E402
from perfbench.sweep_service import SweepService  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _cheap_pass(wl, keep):
    """Shrink the unit list to the cheap units, then measure one pass."""
    wl.units = [u for u in wl.units if keep(u)]
    assert wl.units
    return harness.measure(wl, 1)


# -- the oracle check can fail ------------------------------------------
def test_corrupted_des_oracle_lowers_pass_rate():
    oracle = harness.load_oracle("des_figures")
    bad = copy.deepcopy(oracle)
    bad["fig09/datasieve/read/c8/x512"]["server_messages"] += 1

    def cheap(spec):
        return spec.method == "datasieve"

    good_wl = DesFigures(oracle)
    good_wl.setup(1)
    good = _cheap_pass(good_wl, cheap)
    bad_wl = DesFigures(bad)
    bad_wl.setup(1)
    worse = _cheap_pass(bad_wl, cheap)
    assert good.failed == 0
    assert worse.failed == 1
    assert (worse.attempted - worse.failed) / worse.attempted < 1.0


def test_corrupted_model_oracle_lowers_pass_rate():
    oracle = harness.load_oracle("model_paper")
    bad = copy.deepcopy(oracle)
    key = "blockblock/c4/a100000/datasieve/read"
    bad["predictions"][key]["elapsed"] *= 1.0 + 1e-12
    wl = ModelPaper(bad)
    wl.setup(3)
    m = _cheap_pass(wl, lambda u: u[2] == "datasieve")
    assert m.failed == 1 and m.attempted == 2


# -- names and units ----------------------------------------------------
def test_metric_tables_match_benchmark_json():
    spec = _benchmark_json()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == harness.END_TO_END
    assert layer == harness.PER_LAYER
    for name in list(e2e) + list(layer):
        assert NAME.match(name), name
    from perfbench.run import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _benchmark_json()
    table = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    proc = _run("--workload", "model_paper", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == "1":
        assert result["metrics"]["simulate.events"]["value"] == 0


# -- deterministic counts repeat ----------------------------------------
def test_des_counts_repeat_exactly():
    def counts():
        wl = DesFigures()
        wl.setup(7)
        _cheap_pass(wl, lambda spec: spec.method != "multiple")
        return wl.counts()

    a, b = counts(), counts()
    for name in ("simulate.events", "pvfs.server_messages", "network.messages"):
        assert a[name] == b[name] > 0


def test_service_cache_hits_repeat_exactly():
    def counts(seed):
        wl = SweepService()
        try:
            wl.setup(seed)
            m = harness.measure(wl, 1)
            assert m.failed == 0
            return wl.counts()
        finally:
            wl.close()

    a, b = counts(11), counts(12)
    assert a["sweep.cache_hits"] == b["sweep.cache_hits"] > 0
    assert a["sweep.cache_misses"] == b["sweep.cache_misses"] == 0


# -- without the program it fails, and prints no result -----------------
def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "des_figures", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
