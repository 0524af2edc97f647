"""One plan, two interpreters: the simulator and the model agree on what
every access method puts on the wire, because both run the method's own
:class:`~repro.core.RankPlan`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core import METHODS, DataSievingIO, HybridIO, MultipleIO, RequestBatch, VectorIO
from repro.core.base import single_batch_plan
from repro.errors import RegionError
from repro.experiments.harness import des_point
from repro.model import compile_rank_plan, predict_pattern, predict_plans
from repro.patterns import one_dim_cyclic
from repro.patterns.base import Pattern, RankAccess
from repro.pvfs import Cluster
from repro.regions import RegionList, build_flat_indices
from repro.sweep import PointSpec
from repro.units import MiB

IRREGULAR = RegionList([0, 10, 35], [5, 5, 5])


def pattern_of(file_lists):
    accesses = tuple(
        RankAccess(r, RegionList.single(0, fil.total_bytes), fil)
        for r, fil in enumerate(file_lists)
    )
    size = max(fil.extent[1] for fil in file_lists)
    return Pattern("random", accesses, size)


@st.composite
def file_lists(draw, max_regions=12, max_gap=300, max_len=200):
    """Sorted disjoint regions; sometimes strided, so vector plans appear."""
    n = draw(st.integers(1, max_regions))
    if draw(st.booleans()):
        length = draw(st.integers(1, max_len))
        gap = draw(st.integers(0, max_gap))
        return RegionList.strided(draw(st.integers(0, max_gap)), n, length, length + gap)
    lengths = draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, max_gap), min_size=n, max_size=n))
    offsets = np.cumsum(np.array(gaps) + np.array([0] + lengths[:-1]))
    return RegionList(offsets, lengths)


# Small sieve buffers and a mid-size hybrid threshold so windows, extents,
# pre-reads and request splitting all show up on small patterns.
OPTS = {
    "multiple": {},
    "list": {},
    "datasieve": {"buffer_size": 256},
    "hybrid": {"gap_threshold": 64},
    "vector": {"fallback": True},
}


class TestCountsAgree:
    @given(
        st.lists(file_lists(), min_size=1, max_size=4),
        st.sampled_from(sorted(OPTS)),
        st.sampled_from(["read", "write"]),
    )
    @settings(max_examples=60)
    def test_des_counts_equal_model_counts(self, lists, method, kind):
        pattern = pattern_of(lists)
        cfg = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
        opts = OPTS[method]
        des = des_point(pattern, method, kind, cfg, method_opts=opts)
        pred = predict_pattern(pattern, method, kind, cfg, **opts)
        assert des.logical_requests == pred.n_logical_requests
        assert des.server_messages == pred.n_server_messages


class TestTwoPhaseCountsAgree:
    """Two-phase has no per-rank plan: both interpreters read one
    collective plan, whose aggregators issue one list access per round."""

    @given(
        st.lists(file_lists(), min_size=1, max_size=4),
        st.sampled_from([None, 256, 1024]),
        st.sampled_from(["read", "write"]),
    )
    @settings(max_examples=40)
    def test_des_counts_equal_model_counts(self, lists, cb_buffer, kind):
        pattern = pattern_of(lists)
        cfg = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
        opts = {"cb_buffer": cb_buffer}
        des = des_point(pattern, "twophase", kind, cfg, method_opts=opts)
        pred = predict_pattern(pattern, "twophase", kind, cfg, **opts)
        assert des.logical_requests == pred.n_logical_requests
        assert des.server_messages == pred.n_server_messages


class TestBytesThroughPlans:
    @given(
        file_lists(max_regions=10, max_gap=100, max_len=90),
        st.sampled_from(sorted(OPTS)),
        st.sampled_from(sorted(OPTS)),
        st.booleans(),
    )
    @settings(max_examples=40)
    def test_write_then_read_round_trips(self, fil, writer, reader, strided_memory):
        """Gap bytes survive RMW; every method reads back what any wrote."""
        n = fil.total_bytes
        mem = RegionList.strided(3, n, 1, 2) if strided_memory else RegionList.single(0, n)
        src = np.zeros(mem.extent[1], np.uint8)
        idx = build_flat_indices(mem.offsets, mem.lengths)
        src[idx] = (np.arange(n) * 7 + 1) % 251 + 1
        size = fil.extent[1] + 16
        cluster = Cluster.build(ClusterConfig.chiba_city(n_clients=1), move_bytes=True)

        def wl(client):
            f = yield from client.open("/rt", create=True)
            yield from f.write(0, np.full(size, 255, np.uint8))
            yield from METHODS[writer](**OPTS[writer]).write(f, src, mem, fil)
            dst = np.zeros_like(src)
            yield from METHODS[reader](**OPTS[reader]).read(f, dst, mem, fil)
            whole = yield from f.read(0, size)
            return dst, whole

        dst, whole = cluster.run_workload(wl, clients=[0]).client_returns[0]
        np.testing.assert_array_equal(dst[idx], src[idx])
        written = build_flat_indices(fil.offsets, fil.lengths)
        gaps = np.setdiff1d(np.arange(size), written)
        assert (whole[gaps] == 255).all()

    def test_pipelined_multiple_round_trips(self):
        fil = RegionList.strided(0, 40, 8, 20)
        mem = RegionList.single(0, 320)
        src = (np.arange(320) % 200 + 1).astype(np.uint8)
        cluster = Cluster.build(ClusterConfig.chiba_city(n_clients=1), move_bytes=True)

        def wl(client):
            f = yield from client.open("/p", create=True)
            yield from MultipleIO(pipeline_depth=4).write(f, src, mem, fil)
            dst = np.zeros(320, np.uint8)
            yield from MultipleIO(pipeline_depth=3).read(f, dst, mem, fil)
            return dst

        dst = cluster.run_workload(wl, clients=[0]).client_returns[0]
        np.testing.assert_array_equal(dst, src)


class TestHybridSerialization:
    def test_gap_free_hybrid_write_is_not_serialized(self):
        pattern = one_dim_cyclic(1 * MiB, 4, 256)
        cfg = ClusterConfig.chiba_city(n_clients=4)
        opts = {"gap_threshold": 0}
        plans = [
            HybridIO(**opts).plan("write", a.mem_regions, a.file_regions, cfg)
            for a in pattern.accesses
        ]
        assert not any(p.serialized for p in plans)
        pred = predict_pattern(pattern, "hybrid", "write", cfg, **opts)
        assert not pred.serialized
        des = des_point(pattern, "hybrid", "write", cfg, method_opts=opts)
        # Coalesced cyclic regions are the list plan's regions: no barrier
        # loop, so the same simulated time as list I/O.
        assert des.elapsed == des_point(pattern, "list", "write", cfg).elapsed
        assert 0.5 <= pred.elapsed / des.elapsed <= 2.0

    def test_gapped_hybrid_write_stays_serialized(self):
        pattern = one_dim_cyclic(1 * MiB, 4, 256)
        cfg = ClusterConfig.chiba_city(n_clients=4)
        plan = HybridIO(gap_threshold=1 * MiB).plan(
            "write", pattern.rank(0).mem_regions, pattern.rank(0).file_regions, cfg
        )
        assert plan.serialized
        assert [b.kind for b in plan.batches] == ["read", "write"]
        assert predict_pattern(pattern, "hybrid", "write", cfg, gap_threshold=1 * MiB).serialized


class TestVectorPlan:
    def irregular_pattern(self):
        return pattern_of([IRREGULAR, IRREGULAR.shift(100)])

    def test_irregular_rejected_by_both_interpreters(self):
        pattern = self.irregular_pattern()
        cfg = ClusterConfig.chiba_city(n_clients=2)
        with pytest.raises(RegionError):
            compile_rank_plan("vector", "read", RegionList.single(0, 15), IRREGULAR, cfg)
        with pytest.raises(RegionError):
            predict_pattern(pattern, "vector", "read", cfg)
        with pytest.raises(RegionError):
            des_point(pattern, "vector", "read", cfg)

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_fallback_prices_and_runs_the_list_plan(self, kind):
        pattern = self.irregular_pattern()
        cfg = ClusterConfig.chiba_city(n_clients=2)
        vec = predict_pattern(pattern, "vector", kind, cfg, fallback=True)
        assert vec == predict_pattern(pattern, "list", kind, cfg)
        des = des_point(pattern, "vector", kind, cfg, method_opts={"fallback": True})
        ref = des_point(pattern, "list", kind, cfg)
        assert (des.elapsed, des.logical_requests) == (ref.elapsed, ref.logical_requests)
        assert VectorIO(fallback=True).plan(
            kind, RegionList.single(0, 15), IRREGULAR, cfg
        ).batches[0].wire_mode == "per_region"


class _ReorderedRequests(MultipleIO):
    """Multiple I/O whose plan numbers its requests last to first."""

    def plan(self, kind, mem_regions, file_regions, config):
        batch = super().plan(kind, mem_regions, file_regions, config).batches[0]
        chunks = batch.n_requests - 1 - batch.chunk_of_region
        return single_batch_plan(kind, batch.regions, chunks, copy=False)


class TestChunkInvariant:
    """Request ids are monotone and 0-based: the model groups pieces into
    messages by relying on it, so a plan that breaks it is rejected."""

    @pytest.mark.parametrize("chunks", [[1, 1, 2], [0, 2, 1], [0, 1, 1, 0]])
    def test_batch_rejects_bad_request_ids(self, chunks):
        regions = RegionList.strided(0, len(chunks), 4, 8)
        with pytest.raises(RegionError, match="monotone"):
            RequestBatch("read", regions, np.array(chunks))

    def test_batch_accepts_repeats_and_empty(self):
        batch = RequestBatch("read", RegionList.strided(0, 3, 4, 8), np.array([0, 0, 1]))
        assert batch.n_requests == 2
        assert RequestBatch("write", RegionList.empty(), np.empty(0, np.int64)).n_requests == 0

    def test_decreasing_ids_rejected_by_both_interpreters(self):
        fil = RegionList.strided(0, 4, 8, 20)
        mem = RegionList.single(0, fil.total_bytes)
        cfg = ClusterConfig.chiba_city(n_clients=1)
        with pytest.raises(RegionError, match="monotone"):
            predict_plans([_ReorderedRequests().plan("read", mem, fil, cfg)], cfg)
        cluster = Cluster.build(cfg)

        def wl(client):
            f = yield from client.open("/bad", create=True)
            yield from _ReorderedRequests().read(f, None, mem, fil)

        with pytest.raises(RegionError, match="monotone"):
            cluster.run_workload(wl, clients=[0])


class TestOptionNamespace:
    @pytest.mark.parametrize(
        "method,opts",
        [
            ("datasieve", (("buffer_size", 64 * 1024),)),
            ("list", (("split_memory_regions", False),)),
            ("hybrid", (("gap_threshold", 0),)),
        ],
    )
    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_same_opts_run_in_both_modes(self, method, opts, kind):
        points = {}
        for mode in ("des", "model"):
            spec = PointSpec(
                figure="opts",
                pattern="one_dim_cyclic",
                pattern_args=(256 * 1024, 2, 64),
                method=method,
                kind=kind,
                mode=mode,
                cfg=ClusterConfig.chiba_city(n_clients=2),
                opts=opts,
            )
            points[mode] = spec.run()
        assert points["des"].logical_requests == points["model"].logical_requests
        assert points["des"].elapsed > 0 and points["model"].elapsed > 0

    def test_model_only_alias_is_gone(self):
        pattern = one_dim_cyclic(256 * 1024, 2, 64)
        cfg = ClusterConfig.chiba_city(n_clients=2)
        with pytest.raises(TypeError):
            predict_pattern(pattern, "datasieve", "read", cfg, sieve_buffer=1024)
        small = predict_pattern(pattern, "datasieve", "read", cfg, buffer_size=1024)
        assert small.n_logical_requests > predict_pattern(
            pattern, "datasieve", "read", cfg
        ).n_logical_requests
        assert DataSievingIO(buffer_size=1024).plan(
            "read", pattern.rank(0).mem_regions, pattern.rank(0).file_regions, cfg
        ).n_requests == small.n_logical_requests // 2
