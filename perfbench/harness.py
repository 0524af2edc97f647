"""Measurement loop, per-layer attribution and result formatting.

Every workload is a closed loop driven from one thread: the harness runs
the workload's units one after another, timing each (a unit is one
figure point, one model call, one write-then-read round trip or one
service request), and groups them into *passes* over a fixed unit list.
``--seconds`` sets the number of passes from each workload's nominal
pass time, so a run does the same work on every commit and host and
takes about ``--seconds`` on the host the nominal times were taken on.
A unit's output is checked against its oracle after its clock stops.

Host speed on a shared machine drifts by a quarter or more over tens of
seconds, so every host time is reported in *reference seconds*: the
harness times a fixed piece of benchmark-owned work (:func:`reference_work`)
between units and around set-ups, and scales each unit and set-up by
``REFERENCE_S`` over the probes on either side of it, raised to the
workload's :attr:`Workload.speed_exponent`.  The probe runs no program
code, so a change to the program moves the scaled times exactly as it
moves the raw ones.
``wall_s`` is the median scaled time of a pass (the sum of its units).

The traced run is separate from the timed runs: it times untraced passes
first, then runs one pass under :func:`repro.obs.capture_cprofile` and
groups own time by ``repro.<package>``.  Time spent in code outside the
package (numpy, builtins, the standard library) is charged to the
``repro`` packages that called it, in proportion to the calls'
cumulative time.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Iterable, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REPRO_DIR = ROOT / "src" / "repro"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: A run stops starting passes after this many seconds, whatever the plan.
HARD_LIMIT_S = 100.0
#: Host seconds :func:`reference_work` takes on the nominal host; scaled
#: times read as seconds on a host that runs it this fast.
REFERENCE_S = 0.003
#: How strongly the scale follows the probe by default: the log-log slope
#: of unit time on the nearby probe measured 0.4-0.6 within runs of the
#: DES, model and byte workloads (README, *Reference seconds*).
SPEED_EXPONENT = 0.5
#: Least gap between two speed probes (s).
PROBE_EVERY_S = 0.2

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "pass_rate": "ratio",
    "model_des_err": "ln",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
}

PER_LAYER: Dict[str, str] = {
    "simulate.events": "count",
    "simulate.host_us_per_event": "us",
    "simulate.self_s": "s",
    "network.self_s": "s",
    "network.messages": "count",
    "network.fastpath_share": "ratio",
    "pvfs.self_s": "s",
    "pvfs.logical_requests": "count",
    "pvfs.server_messages": "count",
    "pvfs.iod_regions": "count",
    "pvfs.failovers": "count",
    "pvfs.retries": "count",
    "storage.self_s": "s",
    "storage.bytestore_mb": "MiB",
    "core.self_s": "s",
    "core.useful_over_moved": "ratio",
    "mpiio.self_s": "s",
    "mpiio.exchange_mb": "MiB",
    "regions.self_s": "s",
    "regions.pair_pieces_s": "s",
    "regions.pair_pieces_calls": "count",
    "regions.flat_indices_s": "s",
    "regions.flat_indices_calls": "count",
    "model.predict_s": "s",
    "model.self_s": "s",
    "patterns.gen_s": "s",
    "faults.self_s": "s",
    "sweep.self_s": "s",
    "sweep.cache_hits": "count",
    "sweep.cache_misses": "count",
    "sweep.cache_get_ms": "ms",
    "service.rtt_ms": "ms",
    "service.queue_ms": "ms",
    "service.run_ms": "ms",
    "experiments.self_s": "s",
    "obs.trace_overhead_ratio": "ratio",
}

#: Packages whose attributed own time is reported as ``<package>.self_s``.
SELF_TIME_LAYERS = (
    "simulate", "network", "pvfs", "storage", "core", "mpiio", "regions",
    "model", "faults", "sweep", "experiments",
)

#: Counts a workload derives from public results (zero where a layer
#: does no work on that workload).
COUNT_METRICS = (
    "simulate.events", "network.messages", "network.fastpath_share",
    "pvfs.logical_requests", "pvfs.server_messages", "pvfs.iod_regions",
    "pvfs.failovers", "pvfs.retries", "storage.bytestore_mb",
    "core.useful_over_moved", "mpiio.exchange_mb", "sweep.cache_hits",
    "sweep.cache_misses", "service.rtt_ms", "service.queue_ms", "service.run_ms",
)

#: (metric prefix, module file relative to src/repro, function name):
#: public functions whose cumulative time and call count are reported.
CALL_SPANS = (
    ("regions.pair_pieces", "regions.py", "pair_pieces"),
    ("regions.flat_indices", "regions.py", "build_flat_indices"),
    ("model.predict", "model/predict.py", "predict_pattern"),
)


class Workload:
    """One closed-loop workload.

    ``setup`` builds every input from the seed (and runs one warm-up
    unit); ``pass_units`` returns the units of the next pass;
    ``run_unit`` runs one unit and returns its output, and ``check``
    (untimed) returns True when that output matched the oracle.
    ``counts`` reads the per-layer counts from the public results of the
    last pass; ``model_des_err`` prices the workload's own points with
    the analytic model, outside the timed phase.
    """

    name = ""
    #: Nominal host seconds of one pass (2-core x86 VM, Python 3.11).
    pass_seconds = 1.0
    #: Whether every pass runs the same units (the service sends fresh
    #: requests each pass).
    repeats_units = True
    #: Fewest passes a timed run makes (the service workload needs enough
    #: requests that ten lie beyond p99).
    min_passes = 1
    #: Exponent of the speed scale: the measured log-log slope of this
    #: workload's pass time on the probe time.
    speed_exponent = SPEED_EXPONENT

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def pass_units(self) -> List:
        raise NotImplementedError

    def run_unit(self, unit):
        raise NotImplementedError

    def check(self, unit, output) -> bool:
        raise NotImplementedError

    def request_latencies(self, output, unit_seconds: float) -> List[float]:
        """Host seconds of each request in a unit; a unit may hold several
        (a round trip is a write and a read)."""
        return [unit_seconds]

    def counts(self) -> Dict[str, float]:
        return {}

    def model_des_err(self) -> float:
        raise NotImplementedError

    def extra_profiles(self) -> List:
        """Profiles (or pstats files) the workload captured outside the
        main thread during the traced pass (the service worker)."""
        return []

    def set_profiling(self, on: bool) -> None:
        """Turn capture on other threads on or off."""

    def close(self) -> None:
        """Release what ``setup`` started (daemons, temp dirs)."""


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
_REF_KEYS: List = []


def reference_work() -> None:
    """Fixed work in the shapes the program spends its time in: generator
    processes resumed from a heap of timed events (the DES kernel) and a
    sort, ``unique`` and gather over an integer array (the region algebra).
    """
    import numpy as np

    if not _REF_KEYS:
        _REF_KEYS.append(np.random.default_rng(0).integers(0, 1 << 20, 12_000))

    def proc(i):
        t = 0
        while t < 200:
            t = yield t + (i * 7 + t) % 5 + 1

    procs = [proc(i) for i in range(32)]
    heap = [(next(g), i) for i, g in enumerate(procs)]
    heapq.heapify(heap)
    while heap:
        t, i = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (procs[i].send(t), i))
        except StopIteration:
            pass
    keys = _REF_KEYS[0]
    order = np.argsort(keys, kind="stable")
    uniq, inverse = np.unique(keys, return_inverse=True)
    np.add.reduceat(keys[order], np.arange(0, keys.size, 64))
    uniq[inverse].sum()


class SpeedProbe:
    """Times :func:`reference_work` (best of three) at most every
    :data:`PROBE_EVERY_S` seconds and turns the latest probe into a scale."""

    def __init__(self, exponent: float = SPEED_EXPONENT) -> None:
        self.exponent = exponent
        self.samples: List[float] = []
        self._last = -math.inf

    def scale(self, fresh: bool = False) -> float:
        """``(REFERENCE_S / latest probe) ** exponent``, probing first
        when ``fresh`` or when the latest probe is older than
        :data:`PROBE_EVERY_S`."""
        if fresh or time.perf_counter() - self._last >= PROBE_EVERY_S:
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                reference_work()
                best = min(best, time.perf_counter() - t0)
            self.samples.append(best)
            self._last = time.perf_counter()
        return (REFERENCE_S / self.samples[-1]) ** self.exponent


class Measurement:
    """Scaled request latencies (per pass) and pass times of one measured
    phase, with the raw host pass times beside them."""

    def __init__(self) -> None:
        self.latencies: List[List[float]] = []
        self.passes: List[float] = []
        self.raw_passes: List[float] = []
        self.attempted = 0
        self.failed = 0

    @property
    def wall_s(self) -> float:
        return statistics.median(self.passes)

    def percentile_ms(self, q: float, repeated: bool) -> float:
        """Request-latency percentile ``q`` in ms, made robust to one bad
        pass: when every pass repeats the same requests, the percentile of
        each request's median over the passes; else (fresh requests each
        pass) the median over passes of each pass's percentile."""
        if repeated:
            return percentile_ms([statistics.median(col) for col in zip(*self.latencies)], q)
        return statistics.median(percentile_ms(p, q) for p in self.latencies)


def run_pass(wl: Workload, m: Measurement, probe: SpeedProbe) -> None:
    latencies: List[float] = []
    raw = scaled = 0.0
    for unit in wl.pass_units():
        before = probe.scale()
        # Each unit starts from an empty collector, so the order the seed
        # draws does not decide which unit pays for a full collection.
        gc.collect()
        t0 = time.perf_counter()
        try:
            output = wl.run_unit(unit)
        except Exception:  # a raised error is a failed unit, not a dead run
            seconds = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            requests = [seconds]
            ok = False
        else:
            seconds = time.perf_counter() - t0
            requests = wl.request_latencies(output, seconds)
            ok = bool(wl.check(unit, output))
        # A unit longer than the probe gap is bracketed by two probes.
        scale = math.sqrt(before * probe.scale())
        latencies.extend(x * scale for x in requests)
        raw += seconds
        scaled += seconds * scale
        m.attempted += 1
        m.failed += not ok
    m.raw_passes.append(raw)
    m.passes.append(scaled)
    m.latencies.append(latencies)


def n_passes(wl: Workload, seconds: float) -> int:
    """Passes that take about ``seconds`` at the nominal pass time."""
    return max(wl.min_passes, round(seconds / wl.pass_seconds), 1)


def measure(wl: Workload, passes: int, probe: Optional[SpeedProbe] = None) -> Measurement:
    """Run ``passes`` passes (fewer only past :data:`HARD_LIMIT_S`).

    What set-up left live (inputs, oracles, the imported modules) is
    frozen out of the collector meanwhile, so emptying it before each
    unit costs little and the units' collections scan only what the
    program allocates.
    """
    probe = probe or SpeedProbe(wl.speed_exponent)
    m = Measurement()
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        while len(m.passes) < passes and time.perf_counter() - t0 < HARD_LIMIT_S:
            run_pass(wl, m, probe)
    finally:
        gc.unfreeze()
    return m


_IMPORT_CHILD = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
    "import importlib, numpy, repro; importlib.import_module(sys.argv[3]); "
    "print(time.perf_counter() - t0)"
)


def time_import(module: str) -> float:
    """Host seconds a fresh interpreter takes to import numpy, the program
    and the workload ``module`` (timed inside the child, so process start
    is left out)."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD, str(ROOT / "src"), str(ROOT), module],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


def time_setups(wl: Workload, seed: int, repeats: int, probe: SpeedProbe) -> float:
    """Median scaled seconds of ``repeats`` set-ups, each a fresh import
    and a full ``setup``; the last set-up stays live."""
    times = []
    for i in range(repeats):
        if i:
            wl.close()
        before = probe.scale(fresh=True)
        gc.collect()
        seconds = time_import(type(wl).__module__)
        t0 = time.perf_counter()
        wl.setup(seed)
        seconds += time.perf_counter() - t0
        times.append(seconds * math.sqrt(before * probe.scale(fresh=True)))
    return statistics.median(times)


def percentile_ms(samples: List[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (seconds) in ms."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return 1e3 * (xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# ----------------------------------------------------------------------
# per-layer attribution from cProfile stats
# ----------------------------------------------------------------------
def _repro_relpath(filename: str) -> Optional[str]:
    try:
        return Path(filename).resolve().relative_to(REPRO_DIR).as_posix()
    except (ValueError, OSError):
        return None


def _package(filename: str) -> Optional[str]:
    rel = _repro_relpath(filename)
    if rel is None:
        return None
    head = rel.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def layer_self_times(stats: Dict) -> Dict[str, float]:
    """Own seconds per ``repro`` package.

    Functions outside the package have their own time split over their
    callers by the cumulative time of each call edge, recursively, so
    numpy work counts toward the layer that asked for it.
    """
    pkg_of = {func: _package(func[0]) for func in stats}
    memo: Dict = {}

    def shares(func, active) -> Dict[str, float]:
        pkg = pkg_of.get(func)
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in stats:
            return {}
        callers = stats[func][4]
        weights = {c: edge[3] for c, edge in callers.items() if edge[3] > 0}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        if total > 0:
            for caller, w in weights.items():
                for p, s in shares(caller, active | {func}).items():
                    out[p] = out.get(p, 0.0) + s * w / total
        memo[func] = out
        return out

    own: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for p, s in shares(func, frozenset()).items():
            own[p] = own.get(p, 0.0) + tt * s
    return own


def call_spans(stats: Dict) -> Dict[str, float]:
    """Cumulative seconds and calls of the functions in :data:`CALL_SPANS`."""
    out: Dict[str, float] = {}
    for prefix, _rel, _name in CALL_SPANS:
        out[f"{prefix}_s"] = 0.0
        out[f"{prefix}_calls"] = 0
    for (filename, _line, name), (_cc, nc, _tt, ct, _callers) in stats.items():
        rel = None
        for prefix, want_rel, want_name in CALL_SPANS:
            if name != want_name:
                continue
            rel = rel or _repro_relpath(filename)
            if rel == want_rel:
                out[f"{prefix}_s"] += ct
                out[f"{prefix}_calls"] += nc
    return out


def merged_stats(profiles: Iterable) -> Dict:
    profiles = list(profiles)
    st = pstats.Stats(profiles[0])
    for p in profiles[1:]:
        st.add(p)
    return st.stats


def traced_metrics(wl: Workload, seconds: float, setup_profile: cProfile.Profile) -> Dict:
    """The per-layer metrics of one traced run (setup already profiled)."""
    probe = SpeedProbe(wl.speed_exponent)
    untraced = measure(wl, max(1, n_passes(wl, seconds) // 2), probe)
    profile = cProfile.Profile()
    wl.set_profiling(True)
    profile.enable()
    try:
        traced = measure(wl, 1, probe)
    finally:
        profile.disable()
        wl.set_profiling(False)
    stats = merged_stats([profile] + wl.extra_profiles())
    own = layer_self_times(stats)
    spans = call_spans(stats)
    counts = wl.counts()
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = own.get(layer, 0.0)
    values.update(spans)
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0.0)
    events = values["simulate.events"]
    values["simulate.host_us_per_event"] = (
        untraced.wall_s * 1e6 / events if events else 0.0
    )
    setup_own = layer_self_times(merged_stats([setup_profile]))
    values["patterns.gen_s"] = setup_own.get("patterns", 0.0) + own.get("patterns", 0.0)
    values["sweep.cache_get_ms"] = _cache_get_ms(stats)
    # Raw host times: the probes inside the traced pass run profiled too.
    values["obs.trace_overhead_ratio"] = (
        traced.raw_passes[0] / statistics.median(untraced.raw_passes))
    return {
        "values": values,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
    }


def count_metrics(counters: Dict[str, float], base: Dict[str, float]) -> Dict[str, float]:
    """Per-layer counts from summed cluster counters."""

    def total(prefix: str, suffix: str) -> float:
        return sum(v for k, v in counters.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    messages = counters.get("net.messages", 0.0)
    out = dict(base)
    out.update({
        "network.messages": messages,
        "network.fastpath_share": (
            counters.get("net.fastpath_messages", 0.0) / messages if messages else 0.0),
        "pvfs.iod_regions": total("iod.", ".regions"),
        "pvfs.failovers": total("client.", ".failovers"),
        "pvfs.retries": total("client.", ".retries"),
    })
    return out


def _cache_get_ms(stats: Dict) -> float:
    total = calls = 0
    for (filename, _line, name), (_cc, nc, _tt, ct, _callers) in stats.items():
        if name == "get" and _repro_relpath(filename) == "sweep/cache.py":
            total += ct
            calls += nc
    return 1e3 * total / calls if calls else 0.0


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def _source_digest(base: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        h.update(path.relative_to(base).as_posix().encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, workload: str, load_start, extra: Dict) -> Dict:
    import numpy

    from repro.sweep import code_fingerprint

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_fingerprint": code_fingerprint()[:16],
        "bench_fingerprint": _source_digest(BENCH_DIR),
        **extra,
    }


# ----------------------------------------------------------------------
# oracles and shared helpers
# ----------------------------------------------------------------------
ORACLE_DIR = BENCH_DIR / "oracle"


def load_oracle(name: str) -> Dict:
    with open(ORACLE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def median_abs_log_ratio(pairs: Iterable) -> float:
    """Median of ``|ln(model / des)|`` over ``(model, des)`` pairs."""
    return statistics.median(abs(math.log(m / d)) for m, d in pairs)
