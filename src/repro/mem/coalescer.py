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

Both are exact (they look at real addresses) and price a
:class:`StreamBatch` — many streams, in order — in segmented NumPy
passes; a single stream is a batch of one through the same code.  Each
keeps its original sort/scan body as a ``*_reference`` twin that the
batch paths are pinned equal to.  A batch holds an
:class:`~repro.mem.address_space.AddressWalk` with contiguous sector ids
as its ``(base, count, elem_bytes)`` and prices it in integer arithmetic
(see :meth:`StreamBatch.add`); every other stream as an owned copy of
its sector ids.  The stream log of :mod:`repro.mem.hierarchy` builds the
batches and adds the gathers an earlier pricing memoized.
"""

from __future__ import annotations

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


#: Kinds of stream a :class:`StreamBatch` holds.
EMPTY = 0  #: no element issues an access
WALK = 1  #: a walk with contiguous sector ids, priced in closed form
IDS = 2  #: an array of sector ids the batch owns
KNOWN = 3  #: a gather whose numbers a previous pricing memoized
REPEAT = 4  #: a gather priced by an earlier stream of the same batch


class StreamBatch:
    """Streams one coalescer configuration prices together, in order.

    Exactly one of ``warp_size`` (the warp coalescer) and
    ``merge_window`` (the stream coalescer) is given.  :meth:`add`
    reduces each stream to what pricing needs at the time it is added:
    a walk with contiguous sector ids to its ``(base, count,
    elem_bytes)``, anything else to an owned copy of its
    (active) sector ids — padded to whole warps with the last lane for
    the warp coalescer — so a caller that later changes its buffer
    cannot change a price.
    """

    __slots__ = (
        "warp_size",
        "merge_window",
        "sector_bytes",
        "_shift",
        "_min_walk_elem",
        "kinds",
        "walks",
        "ids",
        "id_counts",
        "known",
        "repeats",
    )

    def __init__(
        self,
        *,
        warp_size: int | None = None,
        merge_window: int | None = None,
        sector_bytes: int = SECTOR_BYTES,
    ) -> None:
        if (warp_size is None) == (merge_window is None):
            raise SimulationError("a stream batch needs one of warp_size and merge_window")
        if warp_size is not None and warp_size <= 0:
            raise SimulationError(f"warp_size must be positive, got {warp_size}")
        if merge_window is not None and merge_window <= 0:
            raise SimulationError(f"merge_window must be positive, got {merge_window}")
        _check_sector_bytes(sector_bytes)
        self.warp_size = warp_size
        self.merge_window = merge_window
        self.sector_bytes = sector_bytes
        self._shift = int(sector_bytes).bit_length() - 1
        #: narrowest element a walk in closed form may have:
        #: ceil(sector / elem) <= merge_window
        self._min_walk_elem = 1 if merge_window is None else -(-sector_bytes // merge_window)
        self.kinds: list[int] = []
        #: (base, count, elem_bytes) of each WALK stream
        self.walks: list[tuple[int, int, int]] = []
        #: owned sector ids of each IDS stream, and how many are real
        self.ids: list[np.ndarray] = []
        self.id_counts: list[int] = []
        #: (accesses, transactions, unique L2 lines, row-hit fraction)
        #: of each KNOWN stream
        self.known: list[tuple[int, int, int, float]] = []
        #: batch index of the stream each REPEAT stream repeats
        self.repeats: list[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def add(
        self,
        addresses: np.ndarray | AddressWalk | AddressGather,
        active_mask: np.ndarray | None = None,
    ) -> int:
        """Append one stream; returns how many sector ids it stores."""
        if isinstance(addresses, AddressWalk):
            base, count, elem = addresses.base, addresses.count, addresses.elem_bytes
            # A walk from a non-negative base whose elements are no
            # wider than a sector steps its sector id by 0 or 1 per
            # element: the ids are non-decreasing and take every value
            # from the first to the last.  The stream coalescer also
            # needs runs that fit its window: at most ceil(sector / elem)
            # elements share a sector.
            if (
                active_mask is None
                and count
                and base >= 0
                and self._min_walk_elem <= elem <= self.sector_bytes
            ):
                self.kinds.append(WALK)
                self.walks.append((base, count, elem))
                return 0
            addresses = addresses.materialize()
        elif isinstance(addresses, AddressGather):
            addresses = addresses.materialize()
        addresses = np.asarray(addresses, dtype=np.int64)
        if active_mask is not None:
            if self.warp_size is None:
                raise SimulationError("the stream coalescer takes no active mask")
            active_mask = np.asarray(active_mask, dtype=bool)
            if active_mask.shape != addresses.shape:
                raise SimulationError("active_mask must be parallel to addresses")
            addresses = addresses[active_mask]
        n = addresses.size
        if n == 0:
            self.kinds.append(EMPTY)
            return 0
        if self.warp_size is None:
            ids = addresses >> self._shift
        else:
            # A padding lane repeats the last lane's id, so it merges
            # into that lane's transaction.
            ids = np.empty(-(-n // self.warp_size) * self.warp_size, dtype=np.int64)
            np.right_shift(addresses, self._shift, out=ids[:n])
            ids[n:] = ids[n - 1]
        self.kinds.append(IDS)
        self.ids.append(ids)
        self.id_counts.append(n)
        return ids.size

    def add_known(self, accesses: int, transactions: int, unique_lines: int, row_hit: float) -> None:
        """Append a stream a previous pricing measured."""
        self.kinds.append(KNOWN)
        self.known.append((accesses, transactions, unique_lines, row_hit))

    def add_repeat(self, index: int) -> None:
        """Append a stream identical to the batch's stream ``index``."""
        self.kinds.append(REPEAT)
        self.repeats.append(index)

    @classmethod
    def of(
        cls,
        addresses: np.ndarray | AddressWalk | AddressGather,
        active_mask: np.ndarray | None = None,
        **params,
    ) -> "StreamBatch":
        """A batch of the one stream ``addresses``."""
        batch = cls(**params)
        batch.add(addresses, active_mask)
        return batch


class CoalesceResult:
    """Outcome of running a batch of address streams through a coalescer.

    Per stream, in batch order: its accesses and transactions
    (``stream_accesses``, ``stream_transactions``), its kind, the sector
    span of a WALK stream, and where in :attr:`line_ids` an IDS stream's
    transaction ids start (``id_starts``; there are ``transactions`` of
    them, and the IDS streams' segments tile ``line_ids``, though not
    necessarily in stream order).  KNOWN streams carry their memoized
    numbers, REPEAT streams the index of the stream they repeat.
    :attr:`accesses` and :attr:`transactions` are the batch's totals.

    ``line_ids`` are **sector** ids at ``sector_bytes`` granularity (one
    per transaction) — not cache-line ids.  Downstream cache models that
    track a different block size must convert via
    :meth:`cache_line_ids`; feeding sector ids straight into a 128-byte
    line cache silently mis-sizes the working set by 4x.  A batch of one
    walk builds its ids from the walk's addresses on first read.
    """

    __slots__ = (
        "sector_bytes",
        "kinds",
        "stream_accesses",
        "stream_transactions",
        "span_first",
        "span_last",
        "id_starts",
        "_line_ids",
        "known_unique",
        "known_row_hit",
        "repeat_of",
        "accesses",
        "transactions",
    )

    def __init__(
        self,
        *,
        sector_bytes: int,
        kinds: np.ndarray,
        stream_accesses: np.ndarray,
        stream_transactions: np.ndarray,
        span_first: np.ndarray,
        span_last: np.ndarray,
        id_starts: np.ndarray,
        line_ids: np.ndarray | Callable[[], np.ndarray],
        known_unique: np.ndarray,
        known_row_hit: np.ndarray,
        repeat_of: np.ndarray,
    ) -> None:
        self.sector_bytes = sector_bytes
        self.kinds = kinds
        self.stream_accesses = stream_accesses
        self.stream_transactions = stream_transactions
        self.span_first = span_first
        self.span_last = span_last
        self.id_starts = id_starts
        self._line_ids = line_ids
        self.known_unique = known_unique
        self.known_row_hit = known_row_hit
        self.repeat_of = repeat_of
        self.accesses = int(stream_accesses.sum())
        self.transactions = int(stream_transactions.sum())

    def __len__(self) -> int:
        return int(self.kinds.size)

    @property
    def line_ids(self) -> np.ndarray:
        if callable(self._line_ids):
            self._line_ids = self._line_ids()
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

    @classmethod
    def of_ids(
        cls, accesses: int, transactions: int, line_ids: np.ndarray, sector_bytes: int
    ) -> "CoalesceResult":
        """The result of one stream coalesced into ``line_ids``."""
        return cls(
            sector_bytes=sector_bytes,
            kinds=np.array([IDS if accesses else EMPTY], dtype=np.int8),
            stream_accesses=np.array([accesses], dtype=np.int64),
            stream_transactions=np.array([transactions], dtype=np.int64),
            span_first=np.zeros(1, dtype=np.int64),
            span_last=np.zeros(1, dtype=np.int64),
            id_starts=np.zeros(1, dtype=np.int64),
            line_ids=line_ids,
            known_unique=np.zeros(1, dtype=np.int64),
            known_row_hit=np.full(1, 0.5),
            repeat_of=np.full(1, -1, dtype=np.int64),
        )

    @classmethod
    def interleave(cls, parts: list["CoalesceResult"], part_of: np.ndarray) -> "CoalesceResult":
        """One result of the streams of ``parts`` in the order ``part_of``
        gives: stream ``i`` is the next stream of ``parts[part_of[i]]``."""
        if len(parts) == 1:
            return parts[0]
        # The parts laid end to end hold the streams sorted by part.
        order = np.argsort(part_of, kind="stable")
        source = np.empty_like(order)
        source[order] = np.arange(order.size)
        sizes = [len(part) for part in parts]
        starts = np.zeros(len(parts), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])

        def stacked(name: str) -> np.ndarray:
            return np.concatenate([getattr(part, name) for part in parts])[source]

        # The parts' ids laid end to end; each segment keeps its place.
        ids = [part.line_ids for part in parts]
        id_base = np.zeros(len(parts), dtype=np.int64)
        np.cumsum([a.size for a in ids[:-1]], out=id_base[1:])
        id_starts = np.concatenate(
            [part.id_starts + base for part, base in zip(parts, id_base)]
        )[source]
        filled = [a for a in ids if a.size]
        all_ids = filled[0] if len(filled) == 1 else np.concatenate(ids)
        repeat_of = stacked("repeat_of")
        repeats = repeat_of >= 0
        # A repeat names a stream of its own part: renumber it.
        repeat_of[repeats] = order[starts[part_of[repeats]] + repeat_of[repeats]]
        return cls(
            sector_bytes=parts[0].sector_bytes,
            kinds=stacked("kinds"),
            stream_accesses=stacked("stream_accesses"),
            stream_transactions=stacked("stream_transactions"),
            span_first=stacked("span_first"),
            span_last=stacked("span_last"),
            id_starts=id_starts,
            line_ids=all_ids,
            known_unique=stacked("known_unique"),
            known_row_hit=stacked("known_row_hit"),
            repeat_of=repeat_of,
        )


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


def _floor_sum(n, m: int, a, b):
    """``sum(floor((a * i + b) / m) for i in range(n))`` in O(log m) steps,
    element-wise over int64 arrays ``n``, ``a``, ``b`` (or on plain ints).

    The Euclid-like reduction for non-negative ``n``, ``a``, ``b`` and
    positive ``m``: peel off the whole multiples of ``m`` in ``a`` and
    ``b``, then count the lattice points under the line with the axes
    swapped.  Each element leaves the loop once its line stays below
    ``m``; the others take the next step together.
    """
    scalar = np.ndim(n) == 0
    n, a, b = (np.array(x, dtype=np.int64, ndmin=1) for x in (n, a, b))
    m = np.full(n.size, m, dtype=np.int64)
    total = np.zeros(n.size, dtype=np.int64)
    index = np.arange(n.size)
    while index.size:
        total[index] += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a = a % m
        b = b % m
        y_max = a * n + b
        going = y_max >= m
        index, m, a, y_max = index[going], m[going], a[going], y_max[going]
        n, b = np.divmod(y_max, m)
        m, a = a, m
    return int(total[0]) if scalar else total


def _span_last(base: np.ndarray, count: np.ndarray, elem: np.ndarray, shift: int):
    return (base + (count - 1) * elem) >> shift


def _empty_result(batch: StreamBatch) -> dict:
    m = len(batch)
    return dict(
        kinds=np.array(batch.kinds, dtype=np.int8),
        stream_accesses=np.zeros(m, dtype=np.int64),
        stream_transactions=np.zeros(m, dtype=np.int64),
        span_first=np.zeros(m, dtype=np.int64),
        span_last=np.zeros(m, dtype=np.int64),
        known_unique=np.zeros(m, dtype=np.int64),
        known_row_hit=np.full(m, 0.5),
        repeat_of=np.full(m, -1, dtype=np.int64),
    )


def _coalesce_batch(batch: StreamBatch, walk_transactions, ids_transactions) -> CoalesceResult:
    """Price every stream of ``batch``: walks through ``walk_transactions``
    (base, count, elem_bytes arrays -> transactions), the IDS streams in
    one pass of ``ids_transactions`` (-> per-stream transactions and
    their ids), known and repeated streams from what they carry."""
    fields = _empty_result(batch)
    kinds = fields["kinds"]
    accesses = fields["stream_accesses"]
    transactions = fields["stream_transactions"]
    shift = batch._shift
    if batch.walks:
        at = np.flatnonzero(kinds == WALK)
        base, count, elem = np.array(batch.walks, dtype=np.int64).T
        accesses[at] = count
        transactions[at] = walk_transactions(base, count, elem)
        fields["span_first"][at] = base >> shift
        fields["span_last"][at] = _span_last(base, count, elem, shift)
    id_starts = np.zeros(kinds.size, dtype=np.int64)
    line_ids = np.empty(0, dtype=np.int64)
    if batch.ids:
        at = np.flatnonzero(kinds == IDS)
        counts = np.array(batch.id_counts, dtype=np.int64)
        accesses[at] = counts
        per_stream, line_ids = ids_transactions(batch.ids, counts)
        transactions[at] = per_stream
        id_starts[at[1:]] = np.cumsum(per_stream[:-1])
    if batch.known:
        at = np.flatnonzero(kinds == KNOWN)
        known_accesses, known_transactions, unique_lines, row_hit = zip(*batch.known)
        accesses[at] = known_accesses
        transactions[at] = known_transactions
        fields["known_unique"][at] = unique_lines
        fields["known_row_hit"][at] = row_hit
    if batch.repeats:
        at = np.flatnonzero(kinds == REPEAT)
        source = np.array(batch.repeats, dtype=np.int64)
        fields["repeat_of"][at] = source
        accesses[at] = accesses[source]
        transactions[at] = transactions[source]
    return CoalesceResult(
        sector_bytes=batch.sector_bytes, id_starts=id_starts, line_ids=line_ids, **fields
    )


def _check_batch(batch: StreamBatch, **params) -> None:
    for name, value in params.items():
        if getattr(batch, name) != value:
            raise SimulationError(
                f"batch built with {name}={getattr(batch, name)}, priced with {value}"
            )


def coalesce_warp(
    addresses: np.ndarray | AddressWalk | AddressGather | StreamBatch,
    *,
    warp_size: int = WARP_SIZE,
    sector_bytes: int = SECTOR_BYTES,
    active_mask: np.ndarray | None = None,
) -> CoalesceResult:
    """Coalesce thread addresses warp-by-warp.

    Args:
        addresses: byte address per thread, in thread order.  The stream
            is chopped into consecutive groups of ``warp_size`` (the last
            warp may be partial).  A :class:`StreamBatch` built for the
            same parameters prices all its streams at once.
        active_mask: optional boolean array marking active lanes;
            inactive lanes issue no access (predicated-off threads).

    Any other input is priced as a batch of one, through the same code.
    A walk with contiguous sector ids (see :meth:`StreamBatch.add`) is
    priced in integer arithmetic (see :func:`_warp_walk_transactions`); every
    array stream of the batch is sorted warp by warp in one pass (see
    :func:`_warp_ids_transactions`).  Both return exactly what
    :func:`coalesce_warp_reference` would.
    """
    if isinstance(addresses, StreamBatch):
        if active_mask is not None:
            raise SimulationError("a batch carries its streams' masks")
        _check_batch(addresses, warp_size=warp_size, sector_bytes=sector_bytes)
        batch = addresses
    else:
        batch = StreamBatch.of(
            addresses, active_mask, warp_size=warp_size, sector_bytes=sector_bytes
        )
    result = _coalesce_batch(
        batch,
        lambda base, count, elem: _warp_walk_transactions(
            base, count, elem, warp_size, sector_bytes
        ),
        lambda ids, counts: _warp_ids_transactions(ids, warp_size),
    )
    if isinstance(addresses, AddressWalk) and result.kinds[0] == WALK:
        result._line_ids = lambda: coalesce_warp_reference(
            addresses.materialize(), warp_size=warp_size, sector_bytes=sector_bytes
        ).line_ids
    return result


def _warp_walk_transactions(
    base: np.ndarray, count: np.ndarray, elem: np.ndarray, warp_size: int, sector_bytes: int
) -> np.ndarray:
    """Closed form of :func:`coalesce_warp` on walks with contiguous ids.

    Warp ``w`` issues one transaction per sector from its first lane's
    to its last lane's.  Over the ``full`` whole warps those are two
    floor sums of lines with slope ``warp_size * elem_bytes / sector``;
    the partial last warp adds its own lanes.  When the warp stride is
    a multiple of the sector, every whole warp starts at the same
    sector offset and the floor sums take one step.
    """
    shift = int(sector_bytes).bit_length() - 1
    full, lanes = np.divmod(count, warp_size)
    stride = warp_size * elem
    reach = (warp_size - 1) * elem
    k = full.size
    sums = _floor_sum(
        np.concatenate([full, full]),
        sector_bytes,
        np.concatenate([stride, stride]),
        np.concatenate([base + reach, base]),
    )
    transactions = full + sums[:k] - sums[k:]
    start = base + full * stride
    partial = ((start + (lanes - 1) * elem) >> shift) - (start >> shift) + 1
    return transactions + np.where(lanes > 0, partial, 0)


def _warp_ids_transactions(
    ids: list[np.ndarray], warp_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream transactions and transaction ids of padded warp grids.

    Each stream's ids fill whole warps (its padding lanes repeat its last
    lane).  All warps of all streams are sorted row by row in one pass
    (skipped when every row already is); a transaction starts where a
    sorted row's id changes.  The reference
    pads with id -1 and drops that id, so a real id of -1 is dropped
    too (only negative addresses produce it).
    """
    grid = ids[0] if len(ids) == 1 else np.concatenate(ids)
    rows = grid.reshape(-1, warp_size)
    # Each id against its left neighbour, a warp's first lane against
    # the previous warp's last (overwritten below: a warp starts a
    # transaction).
    step = np.empty(grid.size, dtype=bool)
    np.less(grid[1:], grid[:-1], out=step[1:])
    step[::warp_size] = False
    if step.any():  # some warp is out of order: sort them all
        rows.sort(axis=1)
    first = step
    np.not_equal(grid[1:], grid[:-1], out=first[1:])
    first[::warp_size] = True
    if rows[:, 0].min() < 0:
        first &= grid != -1
    line_ids = grid[first]
    if len(ids) == 1:
        return np.array([line_ids.size]), line_ids
    starts = np.zeros(len(ids), dtype=np.int64)
    np.cumsum([a.size for a in ids[:-1]], out=starts[1:])
    return np.add.reduceat(first, starts, dtype=np.int64), line_ids


def coalesce_stream(
    addresses: np.ndarray | AddressWalk | AddressGather | StreamBatch,
    *,
    merge_window: int = 4,
    sector_bytes: int = SECTOR_BYTES,
) -> CoalesceResult:
    """Coalesce an in-order request stream with a bounded merge window.

    Models the SCU coalescing unit: a pending transaction absorbs
    consecutive requests to the same sector, up to ``merge_window``
    elements per transaction (Table 1: 4-element merge window).  A
    request to a different sector — or the window filling up — issues a
    new transaction.  A :class:`StreamBatch` built for the same
    parameters prices all its streams at once; any other input is priced
    as a batch of one, through the same code.

    A walk with contiguous sector ids (see :meth:`StreamBatch.add`) whose
    runs fit the window — at most ``ceil(sector_bytes / elem_bytes)``
    elements share a sector — issues one transaction per sector of its
    span, ``last - first + 1``, without its addresses.  Array streams
    are priced in one run-length pass (see
    :func:`_stream_ids_transactions`).
    """
    if isinstance(addresses, StreamBatch):
        _check_batch(addresses, merge_window=merge_window, sector_bytes=sector_bytes)
        batch = addresses
    else:
        batch = StreamBatch.of(
            addresses, merge_window=merge_window, sector_bytes=sector_bytes
        )
    shift = batch._shift
    result = _coalesce_batch(
        batch,
        lambda base, count, elem: _span_last(base, count, elem, shift) - (base >> shift) + 1,
        lambda ids, counts: _stream_ids_transactions(ids, counts, merge_window),
    )
    if isinstance(addresses, AddressWalk) and result.kinds[0] == WALK:
        first, last = int(result.span_first[0]), int(result.span_last[0])
        result._line_ids = lambda: np.arange(first, last + 1, dtype=np.int64)
    return result


def _stream_ids_transactions(
    ids: list[np.ndarray], counts: np.ndarray, merge_window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Run-length form of :func:`coalesce_stream` over many streams.

    A run of ``k`` consecutive same-sector requests issues
    ``ceil(k / merge_window)`` transactions to that sector, which is
    exactly the window positions :func:`coalesce_stream_reference` keeps,
    in the same order, for any input.  Every stream starts a run.
    """
    lines = ids[0] if len(ids) == 1 else np.concatenate(ids)
    if merge_window == 1:
        return counts, lines
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    run_start = np.empty(lines.size, dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=run_start[1:])
    run_start[starts] = True
    runs = np.flatnonzero(run_start)
    line_ids = lines[runs]
    first_run = np.append(np.searchsorted(runs, starts), runs.size)
    # No run is longer than what the other runs leave of the ids, so the
    # run lengths are only needed when that bound passes the window.
    if lines.size - runs.size + 1 <= merge_window:
        return np.diff(first_run), line_ids
    per_run = (np.diff(runs, append=lines.size) + (merge_window - 1)) // merge_window
    if per_run.max() > 1:
        line_ids = np.repeat(line_ids, per_run)
    issued = np.zeros(runs.size + 1, dtype=np.int64)
    np.cumsum(per_run, out=issued[1:])
    return np.diff(issued[first_run]), line_ids


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
        return CoalesceResult.of_ids(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    pad = (-n) % warp_size
    if pad:
        lines = np.concatenate([lines, np.full(pad, -1, dtype=np.int64)])
    grid = lines.reshape(-1, warp_size)
    first, rows_sorted = _unique_per_row(grid)
    keep = first & (rows_sorted != -1)
    return CoalesceResult.of_ids(n, int(keep.sum()), rows_sorted[keep], sector_bytes)


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
        return CoalesceResult.of_ids(0, 0, np.empty(0, dtype=np.int64), sector_bytes)

    shift = int(sector_bytes).bit_length() - 1
    lines = addresses >> shift
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = lines[1:] != lines[:-1]
    # Position of each access within its same-sector run.
    indices = np.arange(n, dtype=np.int64)
    start_index = np.maximum.accumulate(np.where(run_start, indices, 0))
    position = indices - start_index
    keep = position % merge_window == 0
    return CoalesceResult.of_ids(n, int(keep.sum()), lines[keep], sector_bytes)


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
