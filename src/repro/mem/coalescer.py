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
O(n) fast path is pinned equal to.  Both also accept an
:class:`~repro.mem.address_space.AddressWalk` and price it in closed
form when its sector ids are contiguous (see :func:`_walk_span`), and
an :class:`~repro.mem.address_space.AddressGather`, which they price
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

    def __init__(
        self,
        accesses: int,
        transactions: int,
        line_ids: np.ndarray | Callable[[], np.ndarray],
        sector_bytes: int = SECTOR_BYTES,
        span: tuple[int, int] | None = None,
        pricing: GatherPricing | None = None,
    ) -> None:
        object.__setattr__(self, "accesses", accesses)
        object.__setattr__(self, "transactions", transactions)
        object.__setattr__(self, "_line_ids", line_ids)
        object.__setattr__(self, "sector_bytes", sector_bytes)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "pricing", pricing)

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
    line_ids: np.ndarray | Callable[[], np.ndarray] = rebuild_line_ids
    if pricing is None:
        result = coalesce(gather.materialize())
        pricing = gather.memo[key] = GatherPricing(result.accesses, result.transactions)
        line_ids = result.line_ids
    return CoalesceResult(
        accesses=pricing.accesses,
        transactions=pricing.transactions,
        line_ids=line_ids,
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

    When the (active) addresses are non-decreasing and not negative,
    so are their sector ids and every warp's row is already sorted: a
    transaction starts exactly where the id changes or a warp begins,
    and the per-warp sort is skipped.  Any other stream goes to
    :func:`coalesce_warp_reference`; the sorted path returns exactly
    what the reference would.

    An unmasked :class:`AddressWalk` with contiguous sector ids (see
    :func:`_walk_span`) is priced without its addresses: warp ``w``
    issues one transaction per sector from its first element's to its
    last element's.  Any other walk is materialized first.  An unmasked
    :class:`AddressGather` is priced once per parameter set (see
    :func:`_price_gather`); a masked one is materialized.
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

    # Sorted addresses give sorted sector ids.  The reference drops id -1
    # as padding, so negative addresses defer to it.
    if addresses[0] < 0 or (addresses[1:] < addresses[:-1]).any():
        return coalesce_warp_reference(
            addresses, warp_size=warp_size, sector_bytes=sector_bytes
        )
    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
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
    )


def _coalesce_warp_walk(
    walk: AddressWalk, span: tuple[int, int], warp_size: int, sector_bytes: int
) -> CoalesceResult:
    """Closed form of :func:`coalesce_warp` on a walk with contiguous ids."""
    shift = int(sector_bytes).bit_length() - 1
    n = walk.count
    warp_starts = np.arange(0, n, warp_size, dtype=np.int64)
    warp_ends = np.minimum(warp_starts + (warp_size - 1), n - 1)
    first = (walk.base + warp_starts * walk.elem_bytes) >> shift
    last = (walk.base + warp_ends * walk.elem_bytes) >> shift
    transactions = int((last - first).sum()) + int(warp_starts.size)
    return CoalesceResult(
        accesses=n,
        transactions=transactions,
        line_ids=lambda: coalesce_warp(
            walk.materialize(), warp_size=warp_size, sector_bytes=sector_bytes
        ).line_ids,
        sector_bytes=sector_bytes,
        span=span,
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
    per run.

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
    starts = np.flatnonzero(run_start)
    run_lengths = np.diff(starts, append=n)
    line_ids = lines[starts]
    if run_lengths.max() > merge_window:
        per_run = (run_lengths + (merge_window - 1)) // merge_window
        line_ids = np.repeat(line_ids, per_run)
    return CoalesceResult(
        accesses=n,
        transactions=int(line_ids.size),
        line_ids=line_ids,
        sector_bytes=sector_bytes,
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
