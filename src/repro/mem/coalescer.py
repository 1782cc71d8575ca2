"""Memory-access coalescing models.

Two coalescers live here:

* :func:`coalesce_warp` — the GPU's per-warp coalescer: the 32 threads of
  a warp issue one address each; accesses falling in the same cache line
  merge into a single memory transaction.  Intra-warp *memory
  divergence* is exactly the ratio ``transactions / warps`` and is the
  quantity the paper's grouping operation improves (Figure 12).

* :func:`coalesce_stream` — the SCU's sequential coalescing unit
  (Section 3.2.3): a sliding merge window over an in-order request
  stream (Table 1: 32 in-flight requests, 4-element merge window).

Both are exact (they look at real addresses) and vectorized, and each
keeps its original sort/scan body as a ``*_reference`` twin that the
fast paths are pinned equal to.  Both also accept an
:class:`~repro.mem.address_space.AddressWalk` and price it in integer
arithmetic when its sector ids are contiguous (see :func:`_walk_span`),
and an :class:`~repro.mem.address_space.AddressGather`, which they price
through its addresses once per set of parameters (see
:func:`_price_gather`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import SimulationError
from .address_space import AddressGather, AddressWalk

#: Default transaction size. Maxwell L2 moves 32-byte sectors.
SECTOR_BYTES = 32
#: L1/texture cache line size used for grouping decisions.
LINE_BYTES = 128
#: Threads per warp on every NVIDIA architecture the paper targets.
WARP_SIZE = 32


@dataclass
class GatherPricing:
    """What pricing one gather with one coalescer configuration gave.

    Lives in the gather's memo.  ``hierarchy`` is filled by
    :meth:`~repro.mem.hierarchy.MemoryHierarchy.process`: it maps that
    hierarchy's pricing parameters to the unique L2 lines and row-hit
    fraction of the transaction stream.
    """

    accesses: int
    transactions: int
    hierarchy: dict = field(default_factory=dict)


@dataclass(frozen=True, init=False)
class CoalesceResult:
    """Outcome of running an address stream through a coalescer.

    ``line_ids`` are **sector** ids at ``sector_bytes`` granularity (one
    per transaction) — not cache-line ids.  Downstream cache models that
    track a different block size must convert via
    :meth:`cache_line_ids`; feeding sector ids straight into a 128-byte
    line cache silently mis-sizes the working set by 4x.
    """

    accesses: int
    transactions: int
    #: one sector id per transaction, for cache modeling (read it as
    #: ``line_ids``; a walk's result builds the array on first read)
    _line_ids: np.ndarray | Callable[[], np.ndarray] = field(repr=False)
    sector_bytes: int = SECTOR_BYTES
    #: ``(first, last)`` sector ids of a walk priced in closed form: its
    #: ``line_ids`` are non-decreasing and cover every id in the span.
    span: tuple[int, int] | None = None
    #: the memo entry of the gather this result priced, if any
    pricing: GatherPricing | None = None
    #: True when the coalescer knows ``line_ids`` are non-decreasing
    #: (False when they are not, or when it does not know)
    ids_sorted: bool = False
    #: ``(min, max)`` of ``line_ids`` when the coalescer knows them, so
    #: the hierarchy's profile need not scan for them
    bounds: tuple[int, int] | None = None

    def __init__(
        self,
        accesses: int,
        transactions: int,
        line_ids: np.ndarray | Callable[[], np.ndarray],
        sector_bytes: int = SECTOR_BYTES,
        span: tuple[int, int] | None = None,
        pricing: GatherPricing | None = None,
        ids_sorted: bool = False,
        bounds: tuple[int, int] | None = None,
    ) -> None:
        # One write past the frozen guard, not one per field: a launch
        # builds a result per stream.
        vars(self).update(
            accesses=accesses,
            transactions=transactions,
            _line_ids=line_ids,
            sector_bytes=sector_bytes,
            span=span,
            pricing=pricing,
            ids_sorted=ids_sorted,
            bounds=bounds,
        )

    @property
    def line_ids(self) -> np.ndarray:
        if callable(self._line_ids):
            object.__setattr__(self, "_line_ids", self._line_ids())
        return self._line_ids

    @property
    def coalescing_factor(self) -> float:
        """Average accesses merged per transaction (higher is better)."""
        if self.transactions == 0:
            return 0.0
        return self.accesses / self.transactions

    @property
    def bytes_transferred(self) -> int:
        return self.transactions * self.sector_bytes

    def cache_line_ids(self, line_bytes: int) -> np.ndarray:
        """Transaction ids at ``line_bytes`` granularity.

        Identity when the granularities already match; otherwise each
        sector id maps into the (coarser) cache line containing it.
        """
        ratio = self.sectors_per_line(line_bytes)
        if ratio == 1:
            return self.line_ids
        return self.line_ids // ratio

    def sectors_per_line(self, line_bytes: int) -> int:
        """Sectors per ``line_bytes`` cache line (a whole multiple)."""
        if line_bytes < self.sector_bytes or line_bytes % self.sector_bytes:
            raise SimulationError(
                f"cache line size {line_bytes} is not a multiple of the "
                f"transaction sector size {self.sector_bytes}"
            )
        return line_bytes // self.sector_bytes


def _unique_per_row(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a 2-D array, return (mask of first occurrences row-wise, sorted array).

    Rows are sorted first; a cell counts when it differs from its left
    neighbour.  Padding with -1 is handled by callers.
    """
    rows_sorted = np.sort(lines, axis=1)
    first = np.ones_like(rows_sorted, dtype=bool)
    first[:, 1:] = rows_sorted[:, 1:] != rows_sorted[:, :-1]
    return first, rows_sorted


def _check_sector_bytes(sector_bytes: int) -> None:
    if sector_bytes <= 0 or sector_bytes & (sector_bytes - 1):
        raise SimulationError(f"sector_bytes must be a power of two, got {sector_bytes}")


def _walk_span(walk: AddressWalk, sector_bytes: int) -> tuple[int, int] | None:
    """First and last sector id of a walk whose ids are contiguous.

    A walk from a non-negative base whose elements are no wider than a
    sector steps its sector id by 0 or 1 per element: the ids are
    non-decreasing and take every value from the first to the last.
    Returns None for an empty walk or one that does not qualify.
    """
    if walk.count == 0 or walk.base < 0 or walk.elem_bytes > sector_bytes:
        return None
    shift = int(sector_bytes).bit_length() - 1
    return walk.base >> shift, walk.last >> shift


def _price_gather(
    gather: AddressGather,
    key: tuple,
    sector_bytes: int,
    coalesce: Callable[[np.ndarray], CoalesceResult],
) -> CoalesceResult:
    """Coalesce a gather through its addresses once per ``key``.

    The first pricing under ``key`` (the coalescer and its parameters)
    runs ``coalesce`` on the materialized addresses and memoizes the
    counts on the gather; later ones return them in O(1).  Their
    ``line_ids`` are rebuilt only if read, so the memo holds no id
    array.
    """

    def rebuild_line_ids() -> np.ndarray:
        return coalesce(gather.materialize()).line_ids

    pricing = gather.memo.get(key)
    if pricing is None:
        result = coalesce(gather.materialize())
        pricing = gather.memo[key] = GatherPricing(result.accesses, result.transactions)
        return CoalesceResult(
            accesses=pricing.accesses,
            transactions=pricing.transactions,
            line_ids=result.line_ids,
            sector_bytes=sector_bytes,
            pricing=pricing,
            ids_sorted=result.ids_sorted,
            bounds=result.bounds,
        )
    return CoalesceResult(
        accesses=pricing.accesses,
        transactions=pricing.transactions,
        line_ids=rebuild_line_ids,
        sector_bytes=sector_bytes,
        pricing=pricing,
    )


def coalesce_warp(
    addresses: np.ndarray | AddressWalk | AddressGather,
    *,
    warp_size: int = WARP_SIZE,
    sector_bytes: int = SECTOR_BYTES,
    active_mask: np.ndarray | None = None,
) -> CoalesceResult:
    """Coalesce thread addresses warp-by-warp.

    Args:
        addresses: byte address per thread, in thread order.  The stream
            is chopped into consecutive groups of ``warp_size`` (the last
            warp may be partial).
        active_mask: optional boolean array marking active lanes;
            inactive lanes issue no access (predicated-off threads).

    When the (active) addresses' sector ids are non-decreasing and not
    negative, every warp's row is already sorted: a transaction starts
    exactly where the id changes or a warp begins, and the per-warp sort
    is skipped.  Other non-negative streams take one sorting pass (see
    :func:`_coalesce_warp_unsorted`); streams with negative addresses go
    to :func:`coalesce_warp_reference`.  Both paths return exactly what
    the reference would, and record on the result whether the ids are
    sorted and their bounds, so the hierarchy does not scan them again.

    An unmasked :class:`AddressWalk` with contiguous sector ids (see
    :func:`_walk_span`) is priced in integer arithmetic, without its
    addresses (see :func:`_coalesce_warp_walk`).  Any other walk is
    materialized first.  An unmasked :class:`AddressGather` is priced
    once per parameter set (see :func:`_price_gather`); a masked one is
    materialized.
    """
    if warp_size <= 0:
        raise SimulationError(f"warp_size must be positive, got {warp_size}")
    _check_sector_bytes(sector_bytes)
    if isinstance(addresses, AddressWalk):
        span = _walk_span(addresses, sector_bytes)
        if span is not None and active_mask is None:
            return _coalesce_warp_walk(addresses, span, warp_size, sector_bytes)
        addresses = addresses.materialize()
    elif isinstance(addresses, AddressGather):
        if active_mask is None:
            return _price_gather(
                addresses,
                ("warp", warp_size, sector_bytes),
                sector_bytes,
                lambda a: coalesce_warp(a, warp_size=warp_size, sector_bytes=sector_bytes),
            )
        addresses = addresses.materialize()
    addresses = np.asarray(addresses, dtype=np.int64)
    if active_mask is not None:
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_mask.shape != addresses.shape:
            raise SimulationError("active_mask must be parallel to addresses")
        addresses = addresses[active_mask]
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    # The sector ids go straight into a grid of whole warps; the padding
    # lanes are only written if the unsorted path needs them.
    shift = int(sector_bytes).bit_length() - 1
    grid = np.empty(-(-n // warp_size) * warp_size, dtype=np.int64)
    lines = grid[:n]
    np.right_shift(addresses, shift, out=lines)
    if (lines[1:] < lines[:-1]).any():
        return _coalesce_warp_unsorted(addresses, grid, n, warp_size, sector_bytes)
    if lines[0] < 0:
        # The reference drops id -1 as padding; keep its answer.
        return coalesce_warp_reference(
            addresses, warp_size=warp_size, sector_bytes=sector_bytes
        )
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(lines[1:], lines[:-1], out=first[1:])
    first[::warp_size] = True
    line_ids = lines[first]
    return CoalesceResult(
        accesses=n,
        transactions=int(line_ids.size),
        line_ids=line_ids,
        sector_bytes=sector_bytes,
        ids_sorted=True,
        bounds=(int(lines[0]), int(lines[-1])),
    )


def _coalesce_warp_unsorted(
    addresses: np.ndarray, grid: np.ndarray, n: int, warp_size: int, sector_bytes: int
) -> CoalesceResult:
    """One pass of :func:`coalesce_warp` over unsorted sector ids.

    ``grid`` holds the ``n`` ids followed by the padding lanes of the
    partial last warp.  A padding lane repeats the last lane's id, so it
    merges into that lane's transaction and needs no filtering.  Each
    warp's row is sorted once; a transaction starts where a sorted row's
    id changes.  The first and last columns of the sorted rows give the
    ids' bounds, and the ids are sorted when each row ends at or below
    the next row's start.
    """
    grid[n:] = grid[n - 1]
    rows = grid.reshape(-1, warp_size)
    rows.sort(axis=1)
    low = int(rows[:, 0].min())
    if low < 0:
        return coalesce_warp_reference(
            addresses, warp_size=warp_size, sector_bytes=sector_bytes
        )
    first = np.empty(rows.shape, dtype=bool)
    first[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=first[:, 1:])
    line_ids = rows[first]
    return CoalesceResult(
        accesses=n,
        transactions=int(line_ids.size),
        line_ids=line_ids,
        sector_bytes=sector_bytes,
        ids_sorted=rows.shape[0] == 1 or bool((rows[1:, 0] >= rows[:-1, -1]).all()),
        bounds=(low, int(rows[:, -1].max())),
    )


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """``sum(floor((a * i + b) / m) for i in range(n))`` in O(log m).

    The Euclid-like reduction for non-negative ``n``, ``a``, ``b`` and
    positive ``m``: peel off the whole multiples of ``m`` in ``a`` and
    ``b``, then count the lattice points under the line with the axes
    swapped.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m


def _coalesce_warp_walk(
    walk: AddressWalk, span: tuple[int, int], warp_size: int, sector_bytes: int
) -> CoalesceResult:
    """Closed form of :func:`coalesce_warp` on a walk with contiguous ids.

    Warp ``w`` issues one transaction per sector from its first lane's
    to its last lane's.  Over the ``full`` whole warps those are two
    floor sums of lines with slope ``warp_size * elem_bytes / sector``;
    the partial last warp adds its own lanes.  When the warp stride is
    a multiple of the sector, every whole warp starts at the same
    sector offset and the floor sums take one step.
    """
    shift = int(sector_bytes).bit_length() - 1
    n, base, elem = walk.count, walk.base, walk.elem_bytes
    full, lanes = divmod(n, warp_size)
    stride = warp_size * elem
    reach = (warp_size - 1) * elem
    transactions = (
        full
        + _floor_sum(full, sector_bytes, stride, base + reach)
        - _floor_sum(full, sector_bytes, stride, base)
    )
    if lanes:
        start = base + full * stride
        transactions += ((start + (lanes - 1) * elem) >> shift) - (start >> shift) + 1
    return CoalesceResult(
        accesses=n,
        transactions=transactions,
        line_ids=lambda: coalesce_warp(
            walk.materialize(), warp_size=warp_size, sector_bytes=sector_bytes
        ).line_ids,
        sector_bytes=sector_bytes,
        span=span,
        ids_sorted=True,
        bounds=span,
    )


def coalesce_warp_reference(
    addresses: np.ndarray,
    *,
    warp_size: int = WARP_SIZE,
    sector_bytes: int = SECTOR_BYTES,
    active_mask: np.ndarray | None = None,
) -> CoalesceResult:
    """Normative reference for :func:`coalesce_warp`: sort every warp's
    sector ids and count the distinct ones."""
    if warp_size <= 0:
        raise SimulationError(f"warp_size must be positive, got {warp_size}")
    _check_sector_bytes(sector_bytes)
    addresses = np.asarray(addresses, dtype=np.int64)
    if active_mask is not None:
        active_mask = np.asarray(active_mask, dtype=bool)
        if active_mask.shape != addresses.shape:
            raise SimulationError("active_mask must be parallel to addresses")
        addresses = addresses[active_mask]
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    pad = (-n) % warp_size
    if pad:
        lines = np.concatenate([lines, np.full(pad, -1, dtype=np.int64)])
    grid = lines.reshape(-1, warp_size)
    first, rows_sorted = _unique_per_row(grid)
    keep = first & (rows_sorted != -1)
    return CoalesceResult(
        accesses=n,
        transactions=int(keep.sum()),
        line_ids=rows_sorted[keep],
        sector_bytes=sector_bytes,
    )


def coalesce_stream(
    addresses: np.ndarray | AddressWalk | AddressGather,
    *,
    merge_window: int = 4,
    sector_bytes: int = SECTOR_BYTES,
) -> CoalesceResult:
    """Coalesce an in-order request stream with a bounded merge window.

    Models the SCU coalescing unit: a pending transaction absorbs
    consecutive requests to the same sector, up to ``merge_window``
    elements per transaction (Table 1: 4-element merge window).  A
    request to a different sector — or the window filling up — issues a
    new transaction.

    Run-length form: a run of ``k`` consecutive same-sector requests
    issues ``ceil(k / merge_window)`` transactions to that sector, which
    is exactly the window positions :func:`coalesce_stream_reference`
    keeps, in the same order, for any input.  When no run outgrows the
    window (a sequential walk, a random gather) that is one transaction
    per run.  The result says whether the ids are sorted and carries
    their bounds, for the hierarchy.

    An :class:`AddressWalk` with contiguous sector ids (see
    :func:`_walk_span`) whose runs fit the window — at most
    ``ceil(sector_bytes / elem_bytes)`` elements share a sector — issues
    one transaction per sector of its span, without its addresses.  Any
    other walk is materialized first.  An :class:`AddressGather` is
    priced once per parameter set (see :func:`_price_gather`).
    """
    if merge_window <= 0:
        raise SimulationError(f"merge_window must be positive, got {merge_window}")
    _check_sector_bytes(sector_bytes)
    if isinstance(addresses, AddressWalk):
        span = _walk_span(addresses, sector_bytes)
        if span is not None and -(-sector_bytes // addresses.elem_bytes) <= merge_window:
            first, last = span
            return CoalesceResult(
                accesses=addresses.count,
                transactions=last - first + 1,
                line_ids=lambda: np.arange(first, last + 1, dtype=np.int64),
                sector_bytes=sector_bytes,
                span=span,
                ids_sorted=True,
                bounds=span,
            )
        addresses = addresses.materialize()
    elif isinstance(addresses, AddressGather):
        return _price_gather(
            addresses,
            ("stream", merge_window, sector_bytes),
            sector_bytes,
            lambda a: coalesce_stream(
                a, merge_window=merge_window, sector_bytes=sector_bytes
            ),
        )
    addresses = np.asarray(addresses, dtype=np.int64)
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(lines[1:], lines[:-1], out=run_start[1:])
    line_ids = lines[run_start]
    # No run is longer than what the other runs leave of the stream, so
    # the run lengths are only needed when that bound passes the window.
    if n - line_ids.size + 1 > merge_window:
        run_lengths = np.diff(run_start.nonzero()[0], append=n)
        if run_lengths.max() > merge_window:
            per_run = (run_lengths + (merge_window - 1)) // merge_window
            line_ids = np.repeat(line_ids, per_run)
    ids_sorted = not (line_ids[1:] < line_ids[:-1]).any()
    if ids_sorted:
        bounds = (int(line_ids[0]), int(line_ids[-1]))
    else:
        bounds = (int(line_ids.min()), int(line_ids.max()))
    return CoalesceResult(
        accesses=n,
        transactions=int(line_ids.size),
        line_ids=line_ids,
        sector_bytes=sector_bytes,
        ids_sorted=ids_sorted,
        bounds=bounds,
    )


def coalesce_stream_reference(
    addresses: np.ndarray,
    *,
    merge_window: int = 4,
    sector_bytes: int = SECTOR_BYTES,
) -> CoalesceResult:
    """Normative reference for :func:`coalesce_stream`: each request's
    position within its same-sector run, kept at window boundaries."""
    if merge_window <= 0:
        raise SimulationError(f"merge_window must be positive, got {merge_window}")
    _check_sector_bytes(sector_bytes)
    addresses = np.asarray(addresses, dtype=np.int64)
    n = addresses.size
    if n == 0:
        return CoalesceResult(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = lines[1:] != lines[:-1]
    # Position of each access within its same-sector run.
    indices = np.arange(n, dtype=np.int64)
    start_index = np.maximum.accumulate(np.where(run_start, indices, 0))
    position = indices - start_index
    keep = position % merge_window == 0
    return CoalesceResult(
        accesses=n,
        transactions=int(keep.sum()),
        line_ids=lines[keep],
        sector_bytes=sector_bytes,
    )


def sequential_addresses(
    count: int, *, base: int = 0, elem_bytes: int = 4
) -> np.ndarray:
    """Addresses of a dense sequential array walk (perfectly coalescable)."""
    return AddressWalk(base, count, elem_bytes).materialize()


def gather_addresses(
    indices: np.ndarray, *, base: int = 0, elem_bytes: int = 4
) -> np.ndarray:
    """Addresses of an indexed gather (sparse; coalescing depends on indices)."""
    return base + np.asarray(indices, dtype=np.int64) * elem_bytes
