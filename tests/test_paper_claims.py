"""The paper's headline claims, asserted at full 1 GiB scale via the model.

These are the sentences a reader would quote from the paper, each encoded
as an executable assertion.  They run through the analytic model (exact
request/byte accounting, bound-based timing) at the paper's aggregate
volume with a single representative sweep point, so the whole module stays
fast enough for the default test run.
"""

import pytest

from repro.config import ClusterConfig
from repro.model import predict_pattern
from repro.patterns import (
    FlashConfig,
    block_block,
    flash_io,
    one_dim_cyclic,
    tiled_visualization,
)
from repro.units import GiB

ACCESSES = 100_000  # representative paper sweep point (per client)


@pytest.fixture(scope="module")
def cyclic8():
    return one_dim_cyclic(1 * GiB, 8, ACCESSES)


@pytest.fixture(scope="module")
def cfg8():
    return ClusterConfig.chiba_city(n_clients=8)


class TestAbstractClaims:
    def test_list_outperforms_traditional_methods_in_most_situations(
        self, cyclic8, cfg8
    ):
        """Abstract: 'list I/O outperforms current noncontiguous I/O access
        methods in most I/O situations'."""
        t = {
            m: predict_pattern(cyclic8, m, "read", cfg8).elapsed
            for m in ("multiple", "datasieve", "list")
        }
        assert t["list"] < t["multiple"]
        assert t["list"] < t["datasieve"]

    def test_up_to_two_orders_of_magnitude(self, cfg8):
        """Abstract: 'list I/O outperforms traditional noncontiguous
        methods by up to two orders of magnitude' — realized on writes."""
        pattern = one_dim_cyclic(1 * GiB, 8, 800_000)
        multiple = predict_pattern(pattern, "multiple", "write", cfg8).elapsed
        listio = predict_pattern(pattern, "list", "write", cfg8).elapsed
        assert multiple / listio > 50


class TestSection4Claims:
    def test_multiple_and_list_scale_linearly(self, cfg8):
        """4.2.2: 'multiple I/O and list I/O scale linearly with the
        number of accesses'."""
        t = [
            predict_pattern(one_dim_cyclic(1 * GiB, 8, a), "multiple", "read", cfg8).elapsed
            for a in (200_000, 400_000, 800_000)
        ]
        # doubling accesses roughly doubles time once past the flat base
        assert 1.6 < t[1] / t[0] < 2.4
        assert 1.6 < t[2] / t[1] < 2.4

    def test_datasieve_constant_and_doubles_with_clients(self):
        """4.2.2: sieving constant in accesses; 'time nearly doubles with
        data sieving I/O when the clients double'."""
        c8 = ClusterConfig.chiba_city(n_clients=8)
        c16 = ClusterConfig.chiba_city(n_clients=16)
        t8a = predict_pattern(one_dim_cyclic(1 * GiB, 8, 100_000), "datasieve", "read", c8).elapsed
        t8b = predict_pattern(one_dim_cyclic(1 * GiB, 8, 400_000), "datasieve", "read", c8).elapsed
        assert t8b / t8a == pytest.approx(1.0, abs=0.1)
        t16 = predict_pattern(one_dim_cyclic(1 * GiB, 16, 100_000), "datasieve", "read", c16).elapsed
        assert 1.4 < t16 / t8a < 2.6

    def test_blockblock_sieving_cheaper_than_cyclic(self):
        """4.2.2: 'the data sieving I/O times are reduced [vs cyclic]
        ... accesses less irrelevant data'."""
        c16 = ClusterConfig.chiba_city(n_clients=16)
        cyc = predict_pattern(
            one_dim_cyclic(1 * GiB, 16, 262_144), "datasieve", "read", c16
        ).elapsed
        bb = predict_pattern(
            block_block(1 * GiB, 16, 262_144), "datasieve", "read", c16
        ).elapsed
        assert bb < cyc

    def test_blockblock_access_size_at_paper_turning_point(self):
        """4.2.2: at 800k accesses and 9 clients each access is ~149 B."""
        pattern = block_block(1 * GiB, 9, 800_000)
        size = int(pattern.rank(0).file_regions.lengths[0])
        assert 100 <= size <= 200


class TestFlashClaims:
    def test_request_count_arithmetic(self):
        """4.3.1: 983,040 multiple-I/O requests/processor; 30 list
        requests/processor by the paper's file-side formula; 7.5 MB/proc."""
        cfg = FlashConfig()
        assert cfg.mem_regions_per_proc == 983_040
        from repro.core import ListIO

        a = flash_io(1).rank(0)
        file_side = ListIO(split_memory_regions=False)
        c = ClusterConfig.chiba_city(n_clients=1)
        assert file_side.plan("write", a.mem_regions, a.file_regions, c).n_requests == 30
        assert cfg.checkpoint_bytes_per_proc == 7_864_320

    def test_flash_ordering(self):
        """4.3.2: sieving beats list; list beats multiple by over an
        order of magnitude."""
        pattern = flash_io(4)
        cfg = ClusterConfig.chiba_city(n_clients=4)
        sieve = predict_pattern(pattern, "datasieve", "write", cfg).elapsed
        listio = predict_pattern(pattern, "list", "write", cfg).elapsed
        multiple = predict_pattern(pattern, "multiple", "write", cfg).elapsed
        assert sieve < listio < multiple
        assert multiple / listio > 10
        assert listio / sieve > 10


class TestTiledClaims:
    def test_request_counts(self):
        """4.4.1: 768 multiple-I/O requests, 768/64 = 12 list requests."""
        pattern = tiled_visualization()
        from repro.core import ListIO, MultipleIO

        a = pattern.rank(0)
        c = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
        assert MultipleIO().plan("read", a.mem_regions, a.file_regions, c).n_requests == 768
        file_side = ListIO(split_memory_regions=False)
        assert file_side.plan("read", a.mem_regions, a.file_regions, c).n_requests == 12

    def test_list_twice_as_fast(self):
        """4.4.2: 'list I/O is able to perform more than twice as well as
        either of the other two methods'."""
        pattern = tiled_visualization()
        cfg = ClusterConfig.chiba_city(n_clients=6)
        t = {
            m: predict_pattern(pattern, m, "read", cfg).elapsed
            for m in ("multiple", "datasieve", "list")
        }
        assert t["multiple"] / t["list"] > 2
        assert t["datasieve"] / t["list"] > 2

    def test_sieving_uses_a_third_of_fetched_data(self):
        """4.4.1: 'the client will end up using only ... 1/3 of the actual
        data read' (1 / tiles in x)."""
        pattern = tiled_visualization()
        cfg = ClusterConfig.chiba_city(n_clients=6)
        pred = predict_pattern(pattern, "datasieve", "read", cfg)
        useful_fraction = pred.useful_bytes / pred.moved_bytes
        assert useful_fraction == pytest.approx(1 / 3, abs=0.08)


class TestConclusionClaims:
    def test_sieving_wins_when_regions_close_together(self):
        """Section 5: 'in situations where most of the noncontiguous
        regions are close together, data sieving produces better
        results' — true on the write path."""
        from repro.patterns import uniform_fragments

        pattern = uniform_fragments(1, 16384, 64, density=0.9)
        cfg = ClusterConfig.chiba_city(n_clients=1)
        sieve = predict_pattern(pattern, "datasieve", "write", cfg).elapsed
        listio = predict_pattern(pattern, "list", "write", cfg).elapsed
        assert sieve < listio

    def test_multiple_io_should_not_be_considered(self, cyclic8, cfg8):
        """Section 5: 'multiple I/O should not be considered for
        large-scale scientific applications' — worst in every regime we
        measure."""
        for kind in ("read", "write"):
            t = {
                m: predict_pattern(cyclic8, m, kind, cfg8).elapsed
                for m in ("multiple", "list")
            }
            assert t["multiple"] > t["list"]
