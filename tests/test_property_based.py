"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, StripeParams
from repro.model.predict import _messages
from repro.regions import (
    RegionList,
    build_flat_indices,
    pair_pieces,
    split_with_parents,
)
from repro.pvfs.striping import map_regions
from repro.simulate import Resource, Simulator
from repro.storage import BlockCache


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def region_lists(draw, max_regions=30, max_offset=5000, max_len=200, min_regions=0):
    n = draw(st.integers(min_regions, max_regions))
    offsets = draw(
        st.lists(st.integers(0, max_offset), min_size=n, max_size=n)
    )
    lengths = draw(st.lists(st.integers(0, max_len), min_size=n, max_size=n))
    return RegionList(offsets, lengths)


@st.composite
def disjoint_sorted_lists(draw, max_regions=25, max_gap=300, max_len=200):
    n = draw(st.integers(1, max_regions))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, max_gap), min_size=n, max_size=n))
    offs = []
    pos = gaps[0]
    for ln, g in zip(lengths, gaps):
        offs.append(pos)
        pos += ln + g
    return RegionList(offs, lengths)


def byte_set(r: RegionList):
    return set(build_flat_indices(r.offsets, r.lengths).tolist())


# ---------------------------------------------------------------------------
# RegionList algebra
# ---------------------------------------------------------------------------
class TestRegionProperties:
    @given(region_lists())
    def test_coalesce_idempotent(self, r):
        once = r.coalesced()
        assert once.coalesced() == once

    @given(region_lists())
    def test_coalesce_preserves_byte_set(self, r):
        assert byte_set(r.coalesced()) == byte_set(r)

    @given(region_lists())
    def test_coalesced_is_sorted_disjoint_nonadjacent(self, r):
        c = r.coalesced()
        assert c.is_sorted()
        assert c.is_disjoint()
        if c.count > 1:
            assert (c.offsets[1:] > c.ends[:-1]).all()

    @given(region_lists(), st.integers(1, 64))
    def test_split_preserves_stream(self, r, boundary):
        s = r.split_at_boundaries(boundary)
        assert s.total_bytes == r.drop_empty().total_bytes
        # identical byte streams, not just equal volume
        np.testing.assert_array_equal(
            build_flat_indices(s.offsets, s.lengths),
            build_flat_indices(r.offsets, r.lengths),
        )
        if s.count:
            assert ((s.offsets // boundary) == ((s.ends - 1) // boundary)).all()

    @given(region_lists(), st.integers(1, 64))
    def test_split_with_parents_consistent(self, r, boundary):
        pieces, parents = split_with_parents(r, boundary)
        assert pieces.count == len(parents)
        base = r.drop_empty()
        if pieces.count:
            assert (parents[1:] >= parents[:-1]).all()  # monotone
            # every piece lies inside its parent region
            assert (pieces.offsets >= base.offsets[parents]).all()
            assert (pieces.ends <= base.ends[parents]).all()

    @given(region_lists(), st.integers(1, 100))
    def test_subdivide_preserves_stream(self, r, piece):
        s = r.subdivide(piece)
        np.testing.assert_array_equal(
            build_flat_indices(s.offsets, s.lengths),
            build_flat_indices(r.offsets, r.lengths),
        )
        if s.count:
            assert (s.lengths <= piece).all()

    @given(region_lists(), st.integers(1, 20))
    def test_chunks_concatenate_to_whole(self, r, cap):
        parts = list(r.chunks_of(cap))
        assert sum(p.count for p in parts) == r.count
        if parts:
            combined = parts[0]
            for p in parts[1:]:
                combined = combined.concat(p)
            assert combined == r

    @given(region_lists(), st.integers(0, 3000), st.integers(0, 3000))
    def test_clip_is_intersection(self, r, a, b):
        lo, hi = min(a, b), max(a, b)
        clipped = r.clip(lo, hi)
        expect = {x for x in byte_set(r) if lo <= x < hi}
        assert byte_set(clipped) == expect

    @given(disjoint_sorted_lists())
    def test_gaps_tile_extent(self, r):
        g = r.gaps()
        combined = byte_set(r) | byte_set(g)
        lo, hi = r.extent
        assert combined == set(range(lo, hi))

    @given(disjoint_sorted_lists())
    def test_gaps_disjoint_from_regions(self, r):
        assert not (byte_set(r) & byte_set(r.gaps()))


class TestPairPiecesProperties:
    @given(region_lists(min_regions=1), st.data())
    def test_pairing_matches_flat_indices(self, a, data):
        total = a.total_bytes
        assume(total > 0)
        # build an equal-volume second list
        n = data.draw(st.integers(1, min(total, 20)))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, total - 1), max_size=n, unique=True
                )
            )
        ) if total > 1 else []
        lens = np.diff([0] + cuts + [total])
        offs = np.arange(len(lens)) * (int(lens.max()) + 5)
        b = RegionList(offs, lens)
        ao, bo, ln = pair_pieces(a, b)
        assert int(ln.sum()) == total
        # piecewise mapping equals the flattened mapping
        ia = build_flat_indices(a.offsets, a.lengths)
        ib = build_flat_indices(b.offsets, b.lengths)
        pos = 0
        for x, y, k in zip(ao, bo, ln):
            np.testing.assert_array_equal(ia[pos : pos + k], np.arange(x, x + k))
            np.testing.assert_array_equal(ib[pos : pos + k], np.arange(y, y + k))
            pos += k


def _pair_pieces_union1d(a, b):
    """The set-union pairing that ``pair_pieces``' linear merge replaced."""
    a, b = a.drop_empty(), b.drop_empty()
    if a.total_bytes == 0:
        z = np.empty(0, np.int64)
        return z, z.copy(), z.copy()
    cum_a, cum_b = np.cumsum(a.lengths), np.cumsum(b.lengths)
    piece_end = np.union1d(cum_a, cum_b)
    piece_start = np.concatenate(([0], piece_end[:-1]))
    ia = np.searchsorted(cum_a, piece_start, side="right")
    ib = np.searchsorted(cum_b, piece_start, side="right")
    base_a = np.concatenate(([0], cum_a[:-1]))
    base_b = np.concatenate(([0], cum_b[:-1]))
    return (
        a.offsets[ia] + (piece_start - base_a[ia]),
        b.offsets[ib] + (piece_start - base_b[ib]),
        piece_end - piece_start,
    )


@st.composite
def equal_volume_pairs(draw, max_total=400, max_cuts=12):
    """Two region lists over one byte stream, cut independently: cuts may
    repeat (zero-length regions), be shared by both sides (common
    breakpoints) or be absent (one-region side); ``total`` may be 0."""
    total = draw(st.integers(0, max_total))

    def side(shared):
        own = draw(st.lists(st.integers(0, total), max_size=max_cuts))
        picked = draw(st.lists(st.sampled_from(shared), max_size=4)) if shared else []
        lens = np.diff([0] + sorted(own + picked) + [total])
        gaps = draw(st.lists(st.integers(0, 50), min_size=len(lens), max_size=len(lens)))
        offs = np.cumsum(np.array(gaps) + np.concatenate(([0], lens[:-1])))
        return RegionList(offs, lens), sorted(own)

    a, cuts_a = side([])
    b, _ = side(cuts_a)
    return a, b


class TestPairPiecesEquivalence:
    @given(equal_volume_pairs())
    @settings(max_examples=300)
    def test_merge_equals_union1d_reference(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a)):
            got = pair_pieces(x, y)
            want = _pair_pieces_union1d(x, y)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


class TestMessageGrouping:
    @given(
        st.integers(1, 300),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 299)), max_size=80),
    )
    @settings(max_examples=300)
    def test_messages_equal_np_unique(self, n_servers, steps):
        """Random servers with non-decreasing request ids: one server, one
        request and many servers all appear."""
        chunk = np.cumsum([step for step, _ in steps], dtype=np.int64)
        if chunk.size:
            chunk -= chunk[0]
        server = np.array([s % n_servers for _, s in steps], dtype=np.int64)
        n_requests = int(chunk[-1]) + 1 if chunk.size else 1
        got = _messages(server, chunk, n_requests)
        want = np.unique(
            server * np.int64(n_requests) + chunk, return_inverse=True, return_counts=True
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


# ---------------------------------------------------------------------------
# Striping
# ---------------------------------------------------------------------------
class TestStripingProperties:
    @given(
        region_lists(max_regions=20, max_offset=3000, max_len=150),
        st.integers(1, 200),
        st.integers(1, 8),
    )
    def test_map_partitions_stream(self, regions, stripe_size, n_iods):
        sp = StripeParams(stripe_size=stripe_size)
        smap = map_regions(regions, sp, n_iods)
        assert smap.total_bytes == regions.drop_empty().total_bytes
        covered = np.concatenate(
            [sl.gather_stream_indices() for sl in smap]
        ) if smap.n_servers else np.empty(0, np.int64)
        covered.sort()
        np.testing.assert_array_equal(covered, np.arange(smap.total_bytes))

    @given(
        region_lists(max_regions=15, max_offset=2000, max_len=100),
        st.integers(1, 100),
        st.integers(1, 8),
    )
    def test_no_piece_crosses_stripe_unit(self, regions, stripe_size, n_iods):
        sp = StripeParams(stripe_size=stripe_size)
        smap = map_regions(regions, sp, n_iods)
        for sl in smap:
            # physical pieces must stay within one stripe unit each
            unit = sl.physical.offsets // stripe_size
            end_unit = (sl.physical.ends - 1) // stripe_size
            assert (unit == end_unit).all()


# ---------------------------------------------------------------------------
# Simulator resources
# ---------------------------------------------------------------------------
class TestResourceProperties:
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.floats(0, 5), st.floats(0.01, 2)), min_size=1, max_size=15
        ),
    )
    @settings(deadline=None, max_examples=50)
    def test_capacity_never_exceeded(self, capacity, jobs):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        peak = [0]

        def job(sim, arrive, hold_for):
            yield sim.timeout(arrive)
            with res.request() as req:
                yield req
                peak[0] = max(peak[0], res.in_use)
                yield sim.timeout(hold_for)

        for arrive, hold_for in jobs:
            sim.process(job(sim, arrive, hold_for))
        sim.run()
        assert peak[0] <= capacity
        assert res.in_use == 0
        assert res.queue_length == 0

    @given(
        st.lists(st.floats(0, 3), min_size=1, max_size=12),
    )
    @settings(deadline=None, max_examples=50)
    def test_runs_are_deterministic(self, delays):
        def build():
            sim = Simulator()
            log = []

            def p(sim, i, d):
                yield sim.timeout(d)
                log.append((i, sim.now))

            for i, d in enumerate(delays):
                sim.process(p(sim, i, d))
            sim.run()
            return log

        assert build() == build()


# ---------------------------------------------------------------------------
# Block cache
# ---------------------------------------------------------------------------
class TestCacheProperties:
    @given(
        st.integers(1, 16),
        st.lists(
            st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=60
        ),
    )
    def test_cache_never_exceeds_capacity(self, capacity_blocks, ops):
        cache = BlockCache(
            CacheConfig(capacity=capacity_blocks * 4096, block_size=4096)
        )
        for block, dirty in ops:
            cache.insert("f", np.array([block]), dirty=dirty)
            assert len(cache) <= capacity_blocks

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=40),
    )
    def test_most_recent_block_always_resident(self, blocks):
        cache = BlockCache(CacheConfig(capacity=4 * 4096, block_size=4096))
        for b in blocks:
            cache.insert("f", np.array([b]))
            assert cache.contains("f", b)


# ---------------------------------------------------------------------------
# Analytic-model plan invariants
# ---------------------------------------------------------------------------
class TestPlanProperties:
    @given(
        disjoint_sorted_lists(max_regions=20, max_gap=200, max_len=100),
        st.sampled_from(["multiple", "list", "datasieve", "hybrid", "vector"]),
        st.sampled_from(["read", "write"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_plan_preserves_useful_bytes(self, file_regions, method, kind):
        from repro.config import ClusterConfig
        from repro.model import compile_rank_plan

        cfg = ClusterConfig.chiba_city(n_clients=2)
        mem = RegionList.single(0, file_regions.total_bytes)
        # irregular lists have no vector plan; fall back to list I/O
        opts = {"fallback": True} if method == "vector" else {}
        plan = compile_rank_plan(method, kind, mem, file_regions, cfg, **opts)
        assert plan.useful_bytes == file_regions.total_bytes
        assert plan.moved_bytes >= plan.useful_bytes
        if method in ("multiple", "list", "vector"):
            assert plan.wasted_bytes == 0
        assert plan.n_requests >= 1
        # request ids are dense and monotone within every batch
        for batch in plan.batches:
            chunks = batch.chunk_of_region
            assert (np.diff(chunks) >= 0).all()
            assert chunks[0] == 0

    @given(
        disjoint_sorted_lists(max_regions=15, max_gap=100, max_len=60),
        st.sampled_from(["multiple", "list", "datasieve"]),
    )
    @settings(deadline=None, max_examples=30)
    def test_prediction_positive_and_ordered(self, file_regions, method):
        from repro.config import ClusterConfig
        from repro.model import compile_rank_plan, predict_plans

        cfg = ClusterConfig.chiba_city(n_clients=1)
        mem = RegionList.single(0, file_regions.total_bytes)
        plan_r = compile_rank_plan(method, "read", mem, file_regions, cfg)
        plan_w = compile_rank_plan(method, "write", mem, file_regions, cfg)
        pr = predict_plans([plan_r], cfg)
        pw = predict_plans([plan_w], cfg)
        assert pr.elapsed > 0
        # writes carry the turnaround penalty: never cheaper than reads
        assert pw.elapsed >= pr.elapsed * 0.5


# ---------------------------------------------------------------------------
# End-to-end equivalence with generated patterns
# ---------------------------------------------------------------------------
class TestMethodEquivalenceProperty:
    @given(disjoint_sorted_lists(max_regions=10, max_gap=100, max_len=60), st.integers(0, 4))
    @settings(deadline=None, max_examples=15)
    def test_all_methods_realize_the_same_write(self, file_regions, seed):
        from repro.config import ClusterConfig
        from repro.core import DataSievingIO, ListIO, MultipleIO
        from repro.pvfs import Cluster

        total = file_regions.total_bytes
        mem_regions = RegionList.single(0, total)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, total).astype(np.uint8)
        images = {}
        for method in (MultipleIO(), DataSievingIO(), ListIO()):
            cluster = Cluster.build(
                ClusterConfig(
                    n_clients=1, n_iods=3, stripe=StripeParams(stripe_size=64)
                )
            )

            def wl(client):
                f = yield from client.open("/p", create=True)
                yield from method.write(f, payload, mem_regions, file_regions)
                got = yield from f.read(0, file_regions.extent[1])
                yield from f.close()
                return got

            images[method.name] = cluster.run_workload(wl, clients=[0]).client_returns[0]
        ref = images.pop("multiple")
        for name, img in images.items():
            np.testing.assert_array_equal(img, ref, err_msg=name)


class TestRetryBackoffProperty:
    """The retry backoff sequence must be deterministic for a fixed seed
    and strictly bounded by the configured cap (plus jitter headroom)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        base=st.floats(1e-4, 1.0, allow_nan=False, allow_infinity=False),
        factor=st.floats(1.0, 4.0, allow_nan=False, allow_infinity=False),
        cap_mult=st.floats(1.0, 10.0, allow_nan=False, allow_infinity=False),
        jitter=st.floats(0.0, 0.9, allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=60)
    def test_backoff_deterministic_and_bounded(
        self, seed, base, factor, cap_mult, jitter
    ):
        from repro.faults import RetryPolicy

        policy = RetryPolicy(
            request_timeout=1.0,
            max_retries=12,
            backoff_base=base,
            backoff_factor=factor,
            backoff_cap=base * cap_mult,
            jitter=jitter,
        )
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        seq_a = [policy.backoff(k, rng_a) for k in range(12)]
        seq_b = [policy.backoff(k, rng_b) for k in range(12)]
        assert seq_a == seq_b  # bit-identical replay for a fixed seed
        bound = policy.backoff_cap * (1.0 + policy.jitter) + 1e-12
        assert all(0.0 <= d <= bound for d in seq_a)

    @given(
        base=st.floats(1e-4, 1.0, allow_nan=False, allow_infinity=False),
        factor=st.floats(1.0, 4.0, allow_nan=False, allow_infinity=False),
        cap_mult=st.floats(1.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_backoff_without_jitter_is_exact_and_monotone(
        self, base, factor, cap_mult
    ):
        from repro.faults import RetryPolicy

        policy = RetryPolicy(
            request_timeout=1.0,
            backoff_base=base,
            backoff_factor=factor,
            backoff_cap=base * cap_mult,
        )
        seq = [policy.backoff(k) for k in range(12)]
        for k, d in enumerate(seq):
            assert d == min(policy.backoff_cap, base * factor**k)
        assert all(b >= a for a, b in zip(seq, seq[1:]))
