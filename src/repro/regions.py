"""Region algebra: vectorized (offset, length) list manipulation.

Noncontiguous I/O requests — in the paper's ``pvfs_read_list`` interface and
everywhere inside the simulator — are described by parallel arrays of byte
offsets and byte lengths.  This module provides an immutable, numpy-backed
:class:`RegionList` and the vectorized operations every other subsystem
builds on:

* validation / normalization (sort, drop empties, coalesce adjacent),
* splitting at fixed boundaries (striping),
* clipping to an extent (data sieving windows),
* pairing two equal-volume lists into matched copy pieces (memory<->file
  data movement),
* building flat fancy-index arrays for one-shot numpy gather/scatter.

Everything is O(n log n) or better in the number of regions and never loops
over regions in Python for the hot paths, per the HPC guide's "vectorize the
for loops" rule.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .errors import RegionError

__all__ = ["RegionList", "pair_pieces", "build_flat_indices", "split_with_parents"]


def _as_int64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise RegionError(f"region arrays must be 1-D, got shape {arr.shape}")
    return arr


class RegionList:
    """An immutable list of byte regions, stored as parallel int64 arrays.

    Regions may be unsorted and may overlap — some operations require (and
    check) sortedness or disjointness and say so in their docstrings.
    Zero-length regions are permitted on construction (the paper's interface
    does not forbid them) but are removed by :meth:`normalized`.
    """

    __slots__ = ("offsets", "lengths", "_tb", "_ne")

    def __init__(self, offsets, lengths) -> None:
        off = _as_int64(offsets)
        ln = _as_int64(lengths)
        if off.shape != ln.shape:
            raise RegionError(
                f"offsets ({off.shape}) and lengths ({ln.shape}) must have equal shape"
            )
        if off.size and (off < 0).any():
            raise RegionError("region offsets must be non-negative")
        if ln.size and (ln < 0).any():
            raise RegionError("region lengths must be non-negative")
        off.setflags(write=False)
        ln.setflags(write=False)
        self.offsets = off
        self.lengths = ln
        self._tb = None  # cached total_bytes (immutable => safe)
        self._ne = None  # cached "no zero-length regions" flag

    @classmethod
    def _trusted(
        cls, offsets: np.ndarray, lengths: np.ndarray, nonempty=None
    ) -> "RegionList":
        """Construct from already-validated 1-D int64 arrays.

        Internal constructor for derived lists (splits, clips, slices):
        every transformation below produces arrays that satisfy the public
        ``__init__`` invariants by construction, so re-running the dtype /
        shape / sign checks on each of the thousands of derived lists a
        simulated request creates is pure overhead.  ``nonempty`` preseeds
        the :meth:`drop_empty` cache when the producer knows no
        zero-length region can appear.
        """
        r = object.__new__(cls)
        offsets.setflags(write=False)
        lengths.setflags(write=False)
        r.offsets = offsets
        r.lengths = lengths
        r._tb = None
        r._ne = nonempty
        return r

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "RegionList":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    @classmethod
    def single(cls, offset: int, length: int) -> "RegionList":
        # The "multiple I/O" method builds one of these per contiguous
        # call, so skip the generic list->array validation pipeline.
        if offset < 0:
            raise RegionError("region offsets must be non-negative")
        if length < 0:
            raise RegionError("region lengths must be non-negative")
        return cls._trusted(
            np.array([offset], np.int64), np.array([length], np.int64)
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "RegionList":
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        off, ln = zip(*pairs)
        return cls(off, ln)

    @classmethod
    def contiguous(cls, start: int, total: int, piece: int) -> "RegionList":
        """Adjacent pieces of size ``piece`` covering ``total`` bytes from
        ``start`` (last piece may be short).  Useful for building strided
        test patterns."""
        if total <= 0:
            return cls.empty()
        if piece <= 0:
            raise RegionError("piece size must be positive")
        n = -(-total // piece)
        off = start + piece * np.arange(n, dtype=np.int64)
        ln = np.full(n, piece, dtype=np.int64)
        ln[-1] = total - piece * (n - 1)
        return cls(off, ln)

    @classmethod
    def strided(cls, start: int, count: int, length: int, stride: int) -> "RegionList":
        """``count`` regions of ``length`` bytes, ``stride`` bytes apart
        (an MPI vector datatype flattened)."""
        if count < 0:
            raise RegionError("count must be non-negative")
        if count and length < 0:
            raise RegionError("length must be non-negative")
        off = start + stride * np.arange(count, dtype=np.int64)
        ln = np.full(count, length, dtype=np.int64)
        return cls(off, ln)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return int(self.offsets.size)

    @property
    def total_bytes(self) -> int:
        tb = self._tb
        if tb is None:
            tb = int(self.lengths.sum()) if self.lengths.size else 0
            self._tb = tb
        return tb

    @property
    def ends(self) -> np.ndarray:
        """Exclusive end offsets of every region."""
        return self.offsets + self.lengths

    @property
    def extent(self) -> Tuple[int, int]:
        """``(start, end)`` of the smallest contiguous window covering all
        non-empty regions; ``(0, 0)`` for an empty/all-empty list."""
        mask = self.lengths > 0
        if not mask.any():
            return (0, 0)
        return (int(self.offsets[mask].min()), int(self.ends[mask].max()))

    @property
    def extent_bytes(self) -> int:
        s, e = self.extent
        return e - s

    def is_sorted(self) -> bool:
        if self.count <= 1:
            return True
        return bool((np.diff(self.offsets) >= 0).all())

    def is_disjoint(self) -> bool:
        """True when no two non-empty regions overlap (adjacency is fine)."""
        mask = self.lengths > 0
        if mask.sum() <= 1:
            return True
        off = self.offsets[mask]
        ln = self.lengths[mask]
        order = np.argsort(off, kind="stable")
        off, ln = off[order], ln[order]
        return bool((off[1:] >= (off + ln)[:-1]).all())

    def is_contiguous(self) -> bool:
        """True when the non-empty regions form one contiguous run in order."""
        mask = self.lengths > 0
        if mask.sum() <= 1:
            return True
        off = self.offsets[mask]
        ln = self.lengths[mask]
        return bool((off[1:] == (off + ln)[:-1]).all())

    # ------------------------------------------------------------------
    # Transformations (all return new RegionLists)
    # ------------------------------------------------------------------
    def drop_empty(self) -> "RegionList":
        if self._ne:
            return self
        mask = self.lengths > 0
        if mask.all():
            self._ne = True
            return self
        return RegionList._trusted(
            self.offsets[mask], self.lengths[mask], nonempty=True
        )

    def sorted(self) -> "RegionList":
        if self.is_sorted():
            return self
        order = np.argsort(self.offsets, kind="stable")
        return RegionList._trusted(
            self.offsets[order], self.lengths[order], nonempty=self._ne
        )

    def shift(self, delta: int) -> "RegionList":
        """Translate all offsets by ``delta`` (must not go negative)."""
        if self.count == 0:
            return self
        off = self.offsets + int(delta)
        if (off < 0).any():
            raise RegionError("shift would produce a negative offset")
        return RegionList._trusted(off, self.lengths, nonempty=self._ne)

    def coalesced(self) -> "RegionList":
        """Merge adjacent/overlapping regions.  Sorts and drops empties
        first; overlapping regions merge into their union."""
        r = self.drop_empty().sorted()
        if r.count <= 1:
            return r
        ends = np.maximum.accumulate(r.ends)
        # A new run starts where the offset exceeds the running max end.
        new_run = np.empty(r.count, dtype=bool)
        new_run[0] = True
        new_run[1:] = r.offsets[1:] > ends[:-1]
        starts = r.offsets[new_run]
        run_id = np.cumsum(new_run) - 1
        run_ends = np.zeros(run_id[-1] + 1, dtype=np.int64)
        np.maximum.at(run_ends, run_id, r.ends)
        return RegionList._trusted(starts, run_ends - starts, nonempty=True)

    def concat(self, other: "RegionList") -> "RegionList":
        return RegionList(
            np.concatenate([self.offsets, other.offsets]),
            np.concatenate([self.lengths, other.lengths]),
        )

    def take(self, index) -> "RegionList":
        """Fancy-select a subset of regions."""
        return RegionList(self.offsets[index], self.lengths[index])

    def slice_regions(self, start: int, stop: int) -> "RegionList":
        """Regions ``start:stop`` (by position, not byte offset)."""
        return RegionList._trusted(
            self.offsets[start:stop], self.lengths[start:stop], nonempty=self._ne
        )

    def split_at_boundaries(self, boundary: int) -> "RegionList":
        """Split every region at multiples of ``boundary`` bytes.

        This is the striping primitive: after splitting, no region crosses a
        ``boundary`` multiple, so each piece lives on exactly one stripe
        unit.  Fully vectorized; preserves byte order.
        """
        if boundary <= 0:
            raise RegionError("boundary must be positive")
        r = self.drop_empty()
        if r.count == 0:
            return r
        first_unit = r.offsets // boundary
        last_unit = (r.ends - 1) // boundary
        pieces_per = (last_unit - first_unit + 1).astype(np.int64)
        n_pieces = int(pieces_per.sum())
        if n_pieces == r.count:
            return r  # nothing crosses a boundary
        # For region i with k_i pieces, piece j (0-based) starts at
        # max(off_i, (first_unit_i + j) * boundary) and ends at
        # min(end_i, (first_unit_i + j + 1) * boundary).
        reg_idx = np.repeat(np.arange(r.count, dtype=np.int64), pieces_per)
        # j = position within its region's run of pieces
        firsts = np.zeros(n_pieces, dtype=np.int64)
        firsts[np.cumsum(pieces_per)[:-1]] = pieces_per[:-1]
        j = np.arange(n_pieces, dtype=np.int64) - np.cumsum(firsts)
        unit = first_unit[reg_idx] + j
        piece_start = np.maximum(r.offsets[reg_idx], unit * boundary)
        piece_end = np.minimum(r.ends[reg_idx], (unit + 1) * boundary)
        return RegionList._trusted(piece_start, piece_end - piece_start, nonempty=True)

    def subdivide(self, piece_size: int) -> "RegionList":
        """Split every region into adjacent pieces of ``piece_size`` bytes
        (measured from each region's start; final piece may be short).

        This is how the artificial benchmark "increases the number of
        accesses ... while preserving the aggregate data size" (paper
        Section 4.2.1): the same bytes, fragmented into more regions.
        """
        if piece_size <= 0:
            raise RegionError("piece_size must be positive")
        r = self.drop_empty()
        if r.count == 0:
            return r
        pieces_per = -(-r.lengths // piece_size)
        if (pieces_per == 1).all():
            return r
        n_pieces = int(pieces_per.sum())
        reg_idx = np.repeat(np.arange(r.count, dtype=np.int64), pieces_per)
        firsts = np.zeros(n_pieces, dtype=np.int64)
        firsts[np.cumsum(pieces_per)[:-1]] = pieces_per[:-1]
        j = np.arange(n_pieces, dtype=np.int64) - np.cumsum(firsts)
        start = r.offsets[reg_idx] + j * piece_size
        end = np.minimum(start + piece_size, r.ends[reg_idx])
        return RegionList._trusted(start, end - start, nonempty=True)

    def clip(self, window_start: int, window_end: int) -> "RegionList":
        """Intersect every region with ``[window_start, window_end)``,
        dropping regions that fall entirely outside.  Preserves order."""
        if window_end < window_start:
            raise RegionError("clip window end precedes start")
        r = self.drop_empty()
        if r.count == 0:
            return r
        start = np.maximum(r.offsets, window_start)
        end = np.minimum(r.ends, window_end)
        mask = end > start
        return RegionList._trusted(start[mask], (end - start)[mask], nonempty=True)

    def gaps(self) -> "RegionList":
        """The complement of this list within its extent.

        Requires a disjoint list; the result is the sorted list of holes
        between coalesced regions.  Empty input -> empty output.
        """
        if not self.is_disjoint():
            raise RegionError("gaps() requires a disjoint region list")
        r = self.coalesced()
        if r.count <= 1:
            return RegionList.empty()
        gap_off = r.ends[:-1]
        gap_len = r.offsets[1:] - r.ends[:-1]
        mask = gap_len > 0
        return RegionList(gap_off[mask], gap_len[mask])

    def byte_slice(self, skip: int, take: int) -> "RegionList":
        """The sub-list covering bytes ``[skip, skip + take)`` of this
        list's flattened byte stream (regions cut as needed).

        This is the stream-addressing primitive behind MPI-IO file views:
        a view position selects bytes *of the typemap stream*, not file
        offsets.  Fully vectorized.
        """
        if skip < 0 or take < 0:
            raise RegionError("skip and take must be non-negative")
        r = self.drop_empty()
        total = r.total_bytes
        if skip + take > total:
            raise RegionError(
                f"byte_slice [{skip}, {skip + take}) exceeds stream of {total} B"
            )
        if take == 0 or r.count == 0:
            return RegionList.empty()
        cum = np.cumsum(r.lengths)
        first = int(np.searchsorted(cum, skip, side="right"))
        last = int(np.searchsorted(cum, skip + take, side="left"))
        off = r.offsets[first : last + 1].copy()
        ln = r.lengths[first : last + 1].copy()
        start_of_first = int(cum[first - 1]) if first else 0
        head_trim = skip - start_of_first
        off[0] += head_trim
        ln[0] -= head_trim
        consumed = int(ln.sum())
        ln[-1] -= consumed - take
        return RegionList(off, ln)

    def chunks_of(self, max_regions: int) -> Iterator["RegionList"]:
        """Yield successive sub-lists of at most ``max_regions`` regions.

        This is exactly the paper's list I/O request splitting: "I/O
        requests that contain more file regions than the trailing data limit
        are broken up into several list I/O requests" (Section 3.3).
        """
        if max_regions <= 0:
            raise RegionError("max_regions must be positive")
        count = self.count
        if count <= max_regions:
            # Whole list fits in one request — the overwhelmingly common
            # case on the service path; avoid re-slicing the arrays.
            if count:
                yield self
            return
        for start in range(0, count, max_regions):
            yield self.slice_regions(start, start + max_regions)

    def split_by_bytes(self, byte_counts: Sequence[int]) -> list:
        """Split this list into consecutive pieces of exactly the given byte
        counts (summing to ``total_bytes``).  Regions are cut where needed.

        Used to carve a memory region list into per-request chunks matching
        the file regions each request covers.
        """
        counts = _as_int64(byte_counts)
        if counts.size and (counts < 0).any():
            raise RegionError("byte counts must be non-negative")
        if int(counts.sum()) != self.total_bytes:
            raise RegionError(
                f"byte counts sum to {int(counts.sum())} but list holds {self.total_bytes}"
            )
        out = []
        r = self.drop_empty()
        region_i = 0  # current region index
        inner = 0  # bytes already consumed from region_i
        for want in counts:
            offs, lens = [], []
            remaining = int(want)
            while remaining > 0:
                avail = int(r.lengths[region_i]) - inner
                take = min(avail, remaining)
                offs.append(int(r.offsets[region_i]) + inner)
                lens.append(take)
                inner += take
                remaining -= take
                if inner == int(r.lengths[region_i]):
                    region_i += 1
                    inner = 0
            out.append(RegionList(np.array(offs, np.int64), np.array(lens, np.int64)))
        return out

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for o, l in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield (o, l)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegionList):
            return NotImplemented
        return bool(
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self):  # immutable value type
        return hash((self.offsets.tobytes(), self.lengths.tobytes()))

    def __repr__(self) -> str:
        if self.count <= 6:
            body = ", ".join(f"({o}:+{l})" for o, l in self)
        else:
            head = ", ".join(f"({o}:+{l})" for o, l in self.slice_regions(0, 3))
            tail = ", ".join(f"({o}:+{l})" for o, l in self.slice_regions(-2, self.count))
            body = f"{head}, ..., {tail}"
        return f"RegionList<{self.count} regions, {self.total_bytes} B>[{body}]"


def pair_pieces(a: RegionList, b: RegionList) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair two equal-volume region lists into matched copy pieces.

    Given a memory region list ``a`` and a file region list ``b`` describing
    the *same byte stream* (as in the paper's list interface, where the k-th
    byte of the flattened memory regions corresponds to the k-th byte of the
    flattened file regions), return arrays ``(a_offsets, b_offsets,
    lengths)`` of contiguous pieces such that copying piece-by-piece realizes
    the full noncontiguous transfer.

    Vectorized: piece boundaries are a linear merge of the two
    cumulative-length lists (both strictly increasing once empty regions
    are dropped, so a stable sort of their concatenation merges two sorted
    runs in one pass, and equal neighbours are shared breakpoints).
    """
    a = a.drop_empty()
    b = b.drop_empty()
    if a.total_bytes != b.total_bytes:
        raise RegionError(
            f"region lists describe different volumes: {a.total_bytes} vs {b.total_bytes}"
        )
    if a.total_bytes == 0:
        z = np.empty(0, np.int64)
        return z, z.copy(), z.copy()
    cum_a = np.cumsum(a.lengths)
    cum_b = np.cumsum(b.lengths)
    merged = np.concatenate((cum_a, cum_b))
    merged.sort(kind="stable")
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    piece_end = merged[keep]  # sorted, distinct piece end positions
    piece_start = np.concatenate(([0], piece_end[:-1]))
    piece_len = piece_end - piece_start
    # Source region for each piece: the region whose cumulative range
    # contains piece_start.
    ia = np.searchsorted(cum_a, piece_start, side="right")
    ib = np.searchsorted(cum_b, piece_start, side="right")
    base_a = np.concatenate(([0], cum_a[:-1]))
    base_b = np.concatenate(([0], cum_b[:-1]))
    a_off = a.offsets[ia] + (piece_start - base_a[ia])
    b_off = b.offsets[ib] + (piece_start - base_b[ib])
    return a_off, b_off, piece_len


def split_with_parents(regions: RegionList, boundary: int) -> Tuple[RegionList, np.ndarray]:
    """Like :meth:`RegionList.split_at_boundaries`, additionally returning
    each piece's originating region index.

    The analytic model needs parents to attribute stripe-unit pieces back
    to logical requests (region i of a plan belongs to request
    ``chunk_of_region[i]``).
    """
    if boundary <= 0:
        raise RegionError("boundary must be positive")
    r = regions.drop_empty()
    if r.count == 0:
        return r, np.empty(0, np.int64)
    first_unit = r.offsets // boundary
    last_unit = (r.ends - 1) // boundary
    pieces_per = (last_unit - first_unit + 1).astype(np.int64)
    n_pieces = int(pieces_per.sum())
    reg_idx = np.repeat(np.arange(r.count, dtype=np.int64), pieces_per)
    if n_pieces == r.count:
        return r, reg_idx
    firsts = np.zeros(n_pieces, dtype=np.int64)
    firsts[np.cumsum(pieces_per)[:-1]] = pieces_per[:-1]
    j = np.arange(n_pieces, dtype=np.int64) - np.cumsum(firsts)
    unit = first_unit[reg_idx] + j
    piece_start = np.maximum(r.offsets[reg_idx], unit * boundary)
    piece_end = np.minimum(r.ends[reg_idx], (unit + 1) * boundary)
    return RegionList._trusted(piece_start, piece_end - piece_start, nonempty=True), reg_idx


def build_flat_indices(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat element indices covering every region, in order.

    ``build_flat_indices([5, 20], [3, 2]) == [5, 6, 7, 20, 21]`` — the fancy
    index array that turns a noncontiguous gather/scatter into one numpy
    indexing operation.
    """
    offsets = _as_int64(offsets)
    lengths = np.maximum(_as_int64(lengths), 0)
    if offsets.shape != lengths.shape:
        raise RegionError("offsets and lengths must have equal shape")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    # Byte i of region r sits at offsets[r] + (i - stream start of r).
    idx = np.repeat(offsets - (np.cumsum(lengths) - lengths), lengths)
    idx += np.arange(total, dtype=np.int64)
    return idx
