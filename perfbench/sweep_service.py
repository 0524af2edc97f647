"""sweep_service: one client on one connection to one daemon process.

Set-up fills a fresh :class:`~repro.sweep.ResultCache` with 192 small
DES points through :func:`~repro.sweep.run_sweep` (their results are the
*direct* output) and starts ``perfbench/serve.py``: a
:class:`~repro.service.ServiceDaemon` with one worker on that cache, in
its own process as ``pvfs-sim serve`` runs.  Each request is a distinct
``sweep`` job over a seeded subset of the cached points, sent with the
thin :class:`~repro.service.ServiceClient`: submit, wait, fetch; client
and daemon share one CPU.  The
fetched points must equal the direct ``run_sweep`` output, in order.  No
simulation runs in the measured phase: every point is a cache hit.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.config import ClusterConfig
from repro.service import ServiceClient
from repro.service.wire import encode_spec
from repro.sweep import PointSpec, ResultCache, run_sweep
from repro.units import KiB

from .harness import BENCH_DIR, ROOT, Workload, median_abs_log_ratio

TMP_DIR = ROOT / ".perfbench_tmp"
#: Cached points per request, and requests per pass.
SUBSET = 8
PASS_REQUESTS = 100
#: Client poll interval while a job runs (s).
POLL_S = 0.001
_METHODS = (("multiple", "read"), ("datasieve", "read"), ("list", "read"),
            ("twophase", "read"), ("multiple", "write"), ("datasieve", "write"),
            ("list", "write"), ("twophase", "write"))


def build_points() -> List[PointSpec]:
    """The cached population: small cyclic and block-block points."""
    volume = 64 * KiB
    grid = [("one_dim_cyclic", n, acc) for n in (2, 3, 4, 6, 8) for acc in (2, 4, 8, 16)]
    grid += [("block_block", 4, acc) for acc in (2, 4, 8, 16)]
    specs = []
    for pattern, n, acc in grid:
        cfg = ClusterConfig.chiba_city(n_clients=n)
        for method, kind in _METHODS:
            specs.append(PointSpec(figure="svc", pattern=pattern, pattern_args=(volume, n, acc),
                                   method=method, kind=kind, mode="des", cfg=cfg, x=acc))
    return specs


class SweepService(Workload):
    name = "sweep_service"
    pass_seconds = 2.0
    repeats_units = False
    #: At least 1100 requests, so ten samples lie beyond p99.
    min_passes = 11
    #: Request time follows the probe one for one (log-log slope 1.0-1.1
    #: of pass time on probe time within runs): the requests are short
    #: bursts of interpreter and socket work on one CPU, which a
    #: neighbour slows as much as it slows the probe.
    speed_exponent = 1.0

    def __init__(self) -> None:
        self.daemon: Optional[subprocess.Popen] = None
        self.cache_dir = None
        self.profile_path = None
        self.profiling = False
        self.pass_records: List = []

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.used = set()
        self.pass_records = []
        self.specs = build_points()
        TMP_DIR.mkdir(exist_ok=True)
        self.cache_dir = TMP_DIR / f"cache-{os.getpid()}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.direct, _stats = run_sweep(self.specs, cache=ResultCache(str(self.cache_dir)))
        # What the service must return: the direct output, as JSON.
        self.expected = [json.loads(json.dumps(PointSpec.result_to_json(p)))
                         for p in self.direct]
        self.encoded = [encode_spec(s) for s in self.specs]
        # Client and daemon share one CPU (the daemon inherits the mask):
        # a one-client closed loop then pays no cross-CPU wake-ups, and
        # its tail does not depend on where the scheduler puts threads.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.daemon = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve.py"), str(self.cache_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = self.daemon.stdout.readline().split()
        if ready[:1] != ["port"]:
            raise RuntimeError("the service daemon did not start")
        self.client = ServiceClient(f"http://127.0.0.1:{ready[1]}")
        warm = self._draw(random.Random(0))
        if not self.check(warm, self.run_unit(warm)):
            raise RuntimeError("warm-up request did not return the direct sweep output")
        self.pass_records = []

    def _command(self, line: str) -> None:
        self.daemon.stdin.write(line + "\n")
        self.daemon.stdin.flush()
        if self.daemon.stdout.readline().strip() != "ok":
            raise RuntimeError(f"daemon did not acknowledge {line!r}")

    def _draw(self, rng: random.Random) -> tuple:
        while True:
            subset = tuple(rng.sample(range(len(self.specs)), SUBSET))
            if subset not in self.used:  # a repeat would be deduplicated
                self.used.add(subset)
                return subset

    def pass_units(self) -> List:
        self.pass_records.append((self.profiling, []))
        return [self._draw(self.rng) for _ in range(PASS_REQUESTS)]

    def run_unit(self, subset):
        t0 = time.perf_counter()
        payload = {"kind": "sweep", "label": "perfbench",
                   "specs": [self.encoded[i] for i in subset]}
        submitted = self.client.submit(payload)
        job_id = submitted["job"]["id"]
        final = self.client.wait(job_id, poll=POLL_S)
        points = self.client.result(job_id)["points"] if final["state"] == "done" else None
        rtt = time.perf_counter() - t0
        if self.pass_records:
            self.pass_records[-1][1].append((rtt, final))
        return submitted["deduped"], points

    def check(self, subset, output) -> bool:
        deduped, points = output
        return not deduped and points == [self.expected[i] for i in subset]

    def set_profiling(self, on: bool) -> None:
        self.profiling = on
        if on:
            self._command("profile on")
        else:
            self.profile_path = str(self.cache_dir / "worker.prof")
            self._command(f"profile off {self.profile_path}")

    def extra_profiles(self) -> List[str]:
        return [self.profile_path] if self.profile_path else []

    def model_des_err(self) -> float:
        return median_abs_log_ratio(
            (replace(s, mode="model").run().elapsed, p.elapsed)
            for s, p in zip(self.specs, self.direct))

    def counts(self) -> Dict[str, float]:
        last = self.pass_records[-1][1]
        timed = [r for profiled, recs in self.pass_records if not profiled for r in recs]

        def median_ms(values) -> float:
            return 1e3 * statistics.median(values)

        return {
            "sweep.cache_hits": sum(f["stats"]["cache_hits"] for _rtt, f in last),
            "sweep.cache_misses": sum(f["stats"]["executed"] for _rtt, f in last),
            "service.rtt_ms": median_ms([rtt for rtt, _f in timed]),
            "service.queue_ms": median_ms([f["started"] - f["created"] for _r, f in timed]),
            "service.run_ms": median_ms([f["finished"] - f["started"] for _r, f in timed]),
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stdin.close()  # end of input stops the daemon
            try:
                self.daemon.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
            self.daemon.stdout.close()
            self.daemon = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
            self.profile_path = None
            try:
                TMP_DIR.rmdir()
            except OSError:
                pass  # another run still uses it


WORKLOAD = SweepService
