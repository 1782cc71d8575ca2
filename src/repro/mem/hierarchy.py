"""Composition of the memory system: coalescer -> L2 -> DRAM.

A simulation phase records its address streams in the hierarchy's
:class:`StreamLog`; when the log is priced, the coalescers turn them
into transactions (real sector ids), the hierarchy estimates L2 hits,
derives DRAM traffic and row locality, and each launch gets a
:class:`MemoryStats` bundle the timing and energy models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..obs import NULL_OBS, Observability
from .address_space import AddressGather, AddressWalk
from .coalescer import IDS, KNOWN, REPEAT, SECTOR_BYTES, WALK, CoalesceResult, StreamBatch
from .dram import DramConfig, DramModel, DramTraffic
# estimate_hit_rate is the single-stream form of the hit rate process()
# computes per stream; perfbench's mem.locality layer names it here.
from .locality import estimate_hit_rate, profile_lines, reuse_hit_rate  # noqa: F401


@dataclass(frozen=True)
class MemoryStats:
    """Aggregate memory behaviour of one phase."""

    accesses: int = 0  # thread/element-level accesses before coalescing
    transactions: int = 0  # after coalescing
    l2_hits: int = 0
    dram_accesses: int = 0
    dram_bytes: int = 0
    row_hit_fraction: float = 0.5

    def merged(self, other: "MemoryStats") -> "MemoryStats":
        """Combine two phases' stats (row locality weighted by DRAM bytes)."""
        total_bytes = self.dram_bytes + other.dram_bytes
        if total_bytes:
            row_hit = (
                self.row_hit_fraction * self.dram_bytes
                + other.row_hit_fraction * other.dram_bytes
            ) / total_bytes
        else:
            row_hit = 0.5
        return MemoryStats(
            accesses=self.accesses + other.accesses,
            transactions=self.transactions + other.transactions,
            l2_hits=self.l2_hits + other.l2_hits,
            dram_accesses=self.dram_accesses + other.dram_accesses,
            dram_bytes=self.dram_bytes + other.dram_bytes,
            row_hit_fraction=row_hit,
        )

    @property
    def coalescing_factor(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.accesses / self.transactions

    @property
    def l2_hit_rate(self) -> float:
        if self.transactions == 0:
            return 0.0
        return self.l2_hits / self.transactions

    def dram_traffic(self) -> DramTraffic:
        return DramTraffic(
            accesses=self.dram_accesses,
            bytes_transferred=self.dram_bytes,
            row_hit_fraction=self.row_hit_fraction,
        )


def row_hit_fraction(
    line_ids: np.ndarray, *, row_bytes: int = 2048, sector_bytes: int = SECTOR_BYTES
) -> float:
    """Fraction of consecutive DRAM transactions staying in the same row.

    ``line_ids`` are transaction ids at ``sector_bytes`` granularity —
    callers passing ids of a different block size must say so, or rows
    are mis-sized by the granularity ratio.
    """
    line_ids = np.asarray(line_ids, dtype=np.int64)
    n = line_ids.size
    if n < 2:
        return 0.5
    lines_per_row = max(1, row_bytes // sector_bytes)
    rows = line_ids // lines_per_row
    # Exact count over exact count, correctly rounded: the same float
    # ``np.mean`` of the bool array returns.
    return int(np.count_nonzero(rows[1:] == rows[:-1])) / (n - 1)


@dataclass
class MemoryHierarchy:
    """L2 + DRAM stack shared by the GPU SMs and the SCU.

    Both engines record their launches' streams in :attr:`log`, which
    prices them later, all at once (see :class:`StreamLog`).
    """

    l2_capacity_bytes: int
    dram: DramConfig
    l2_line_bytes: int = SECTOR_BYTES
    obs: Observability = NULL_OBS
    _dram_model: DramModel = field(init=False, repr=False)
    #: L2 capacity in lines, the reuse model's residency numerator
    _capacity_lines: float = field(init=False, repr=False)
    log: "StreamLog" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.l2_capacity_bytes <= 0 or self.l2_line_bytes <= 0:
            raise ConfigError("cache capacity and line size must be positive")
        self._dram_model = DramModel(self.dram, obs=self.obs)
        self._capacity_lines = self.l2_capacity_bytes / self.l2_line_bytes
        self.log = StreamLog(self)

    def attach_obs(self, obs: Observability) -> None:
        """Point this hierarchy (and its DRAM model) at an observer."""
        self.obs = obs
        self._dram_model.obs = obs

    def process(
        self, result: CoalesceResult, *, l2_bypass: bool | np.ndarray = False
    ) -> "StreamStats":
        """Turn a batch of coalesced streams into per-stream statistics.

        Args:
            result: the coalescer output for a batch of streams.
            l2_bypass: model streaming accesses that are not worth
                caching (the GPU marks such loads; the SCU's bulk
                sequential writes behave this way too); one flag for
                the batch or one per stream.

        Each stream is priced on its own, exactly as a single stream
        always was; every step is element-wise or segmented over the
        batch, and each formula replays the scalar one's float
        operations (see DESIGN.md, "Launch pricing").
        """
        kinds = result.kinds
        transactions = result.stream_transactions
        unique = np.zeros(kinds.size, dtype=np.int64)
        row_hit = np.full(kinds.size, 0.5)
        ratio = result.sectors_per_line(self.l2_line_bytes)
        lines_per_row = max(1, self.dram.row_bytes // result.sector_bytes)
        live = transactions > 0
        # A walk's ids are non-decreasing and cover its span: the
        # distinct L2 lines are the lines the span touches and the row
        # changes are the row boundaries it crosses.
        at = np.flatnonzero(live & (kinds == WALK))
        if at.size:
            first, last = result.span_first[at], result.span_last[at]
            unique[at] = last // ratio - first // ratio + 1
            row_hit[at] = _row_hits(
                transactions[at], last // lines_per_row - first // lines_per_row
            )
        at = np.flatnonzero(live & (kinds == IDS))
        if at.size:
            # the segments in the order they lie in line_ids
            at = at[np.argsort(result.id_starts[at], kind="stable")]
            unique[at], row_hit[at] = _profile_segments(
                result.line_ids, result.id_starts[at], transactions[at], ratio, lines_per_row
            )
        at = np.flatnonzero(kinds == KNOWN)
        unique[at] = result.known_unique[at]
        row_hit[at] = result.known_row_hit[at]
        at = np.flatnonzero(kinds == REPEAT)
        unique[at] = unique[result.repeat_of[at]]
        row_hit[at] = row_hit[result.repeat_of[at]]

        cached = live & ~np.broadcast_to(np.asarray(l2_bypass, dtype=bool), kinds.shape)
        hit_rate = np.zeros(kinds.size)
        hit_rate[cached] = reuse_hit_rate(
            transactions[cached], unique[cached], self._capacity_lines
        )
        l2_hits = np.rint(hit_rate * transactions).astype(np.int64)
        dram_accesses = transactions - l2_hits
        stats = StreamStats(
            # a stream whose every id the warp reference drops (sector
            # id -1) issues no access, as a stream without transactions
            accesses=np.where(live, result.stream_accesses, 0),
            transactions=transactions,
            l2_hits=l2_hits,
            dram_accesses=dram_accesses,
            dram_bytes=dram_accesses * result.sector_bytes,
            row_hit_fraction=row_hit,
            hit_rate=hit_rate,
            unique_lines=unique,
        )
        if self.obs.enabled:
            self._observe(stats)
        return stats

    def _observe(self, stats: "StreamStats") -> None:
        """Record each stream with transactions, in batch order."""
        metrics = self.obs.metrics
        live = stats.stream_transactions > 0
        if not live.any():
            return
        metrics.counter("mem.accesses").inc(int(stats.stream_accesses.sum()))
        metrics.counter("mem.l2.transactions").inc(int(stats.stream_transactions.sum()))
        metrics.counter("mem.l2.hits").inc(int(stats.stream_l2_hits.sum()))
        metrics.counter("mem.l2.misses").inc(int(stats.stream_dram_accesses.sum()))
        metrics.counter("mem.dram.bytes").inc(int(stats.stream_dram_bytes.sum()))
        histogram = metrics.histogram("mem.l2.hit_rate")
        for hit_rate in stats.stream_hit_rate[live].tolist():
            histogram.observe(hit_rate)

    def dram_time_s(self, stats: MemoryStats) -> float:
        return self._dram_model.transfer_time_s(stats.dram_traffic())

    def dram_dynamic_energy_j(self, stats: MemoryStats) -> float:
        return self._dram_model.dynamic_energy_j(stats.dram_traffic())

    def dram_static_energy_j(self, elapsed_s: float) -> float:
        return self._dram_model.static_energy_j(elapsed_s)


def _row_hits(transactions: np.ndarray, changes: np.ndarray) -> np.ndarray:
    """Row-hit fractions of streams with ``changes`` row changes between
    consecutive transactions: exact count over exact count, 0.5 for
    streams of fewer than two (what :func:`row_hit_fraction` gives)."""
    pairs = transactions - 1
    out = np.full(transactions.size, 0.5)
    many = pairs > 0
    out[many] = (pairs[many] - changes[many]) / pairs[many]
    return out


def _floor_div(x: np.ndarray, divisor: int) -> np.ndarray:
    """``x // divisor``, by a shift when the divisor is a power of two
    (an arithmetic shift floors negative ids the same way)."""
    if divisor == 1:
        return x
    if divisor & (divisor - 1) == 0:
        return x >> (divisor.bit_length() - 1)
    return x // divisor


def _profile_segments(
    ids: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    ratio: int,
    lines_per_row: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct L2 lines and row-hit fraction of each id segment.

    Segment ``k`` is ``ids[starts[k]:starts[k] + counts[k]]``; the
    segments (``counts`` positive) tile ``ids`` in order.  The L2 lines
    are counted by :func:`~repro.mem.locality.profile_lines`.  Row hits
    are the equal neighbours of one compare, summed per segment without
    the pair that straddles its end.
    """
    unique = profile_lines(_floor_div(ids, ratio), counts).segment_unique_lines
    rows = _floor_div(ids, lines_per_row)
    same = np.zeros(ids.size, dtype=bool)
    np.equal(rows[1:], rows[:-1], out=same[:-1])
    ends = np.append(starts[1:], ids.size)
    hits = np.add.reduceat(same, starts, dtype=np.int64) - same[ends - 1]
    return unique, _row_hits(counts, counts - 1 - hits)


class StreamStats:
    """Per-stream memory statistics of a batch, in batch order.

    ``stream_*`` arrays hold one entry per stream; ``accesses``,
    ``transactions``, ``l2_hits``, ``dram_accesses`` and ``dram_bytes``
    are the batch's totals.  ``stats[i]`` is stream ``i``'s
    :class:`MemoryStats`.
    """

    __slots__ = (
        "stream_accesses",
        "stream_transactions",
        "stream_l2_hits",
        "stream_dram_accesses",
        "stream_dram_bytes",
        "stream_row_hit_fraction",
        "stream_hit_rate",
        "stream_unique_lines",
        "accesses",
        "transactions",
        "l2_hits",
        "dram_accesses",
        "dram_bytes",
    )

    def __init__(
        self,
        *,
        accesses: np.ndarray,
        transactions: np.ndarray,
        l2_hits: np.ndarray,
        dram_accesses: np.ndarray,
        dram_bytes: np.ndarray,
        row_hit_fraction: np.ndarray,
        hit_rate: np.ndarray,
        unique_lines: np.ndarray,
    ) -> None:
        self.stream_accesses = accesses
        self.stream_transactions = transactions
        self.stream_l2_hits = l2_hits
        self.stream_dram_accesses = dram_accesses
        self.stream_dram_bytes = dram_bytes
        self.stream_row_hit_fraction = row_hit_fraction
        self.stream_hit_rate = hit_rate
        self.stream_unique_lines = unique_lines
        self.accesses = int(accesses.sum())
        self.transactions = int(transactions.sum())
        self.l2_hits = int(l2_hits.sum())
        self.dram_accesses = int(dram_accesses.sum())
        self.dram_bytes = int(dram_bytes.sum())

    def __len__(self) -> int:
        return int(self.stream_transactions.size)

    def __getitem__(self, i: int) -> MemoryStats:
        if not self.stream_transactions[i]:
            return MemoryStats()
        return MemoryStats(
            accesses=int(self.stream_accesses[i]),
            transactions=int(self.stream_transactions[i]),
            l2_hits=int(self.stream_l2_hits[i]),
            dram_accesses=int(self.stream_dram_accesses[i]),
            dram_bytes=int(self.stream_dram_bytes[i]),
            row_hit_fraction=float(self.stream_row_hit_fraction[i]),
        )


#: Sector ids the log may hold before it prices what it has.  Pricing a
#: batch builds a few temporaries of its ids' size (the warp grid, the
#: interleaved ids, the bitmap and row compares), so the cap bounds the
#: log's memory whatever a run's length: at 2**18 ids (2 MB) a
#: PageRank or CC run peaks no higher than pricing its largest stream
#: alone did, while a frontier run's thousands of small streams still
#: gather into a handful of batches.  A launch whose own streams pass
#: the cap is priced as soon as it is recorded.
PENDING_IDS_LIMIT = 1 << 18


class LogChannel:
    """The log's streams for one coalescer configuration: they are
    coalesced together by ``coalesce(batch, **params)``."""

    __slots__ = ("_log", "_codes", "coalesce", "params", "batch", "memo_key", "_first")

    def __init__(self, log: "StreamLog", number: int, coalesce: Callable, params: dict) -> None:
        self._log = log
        #: what the log stores per stream: the channel and the L2 bypass
        self._codes = (2 * number, 2 * number + 1)
        self.coalesce = coalesce
        self.params = params
        hierarchy = log._hierarchy
        # What a gather's memoized pricing depends on.
        self.memo_key = (
            tuple(sorted(params.items())),
            hierarchy.l2_line_bytes,
            hierarchy.dram.row_bytes,
        )
        self._reset()

    def _reset(self) -> None:
        self.batch = StreamBatch(**self.params)
        #: gather -> (batch index, log index) of its first stream
        self._first: dict = {}

    def record(
        self,
        addresses: np.ndarray | AddressWalk | AddressGather,
        *,
        active_mask: np.ndarray | None = None,
        l2_bypass: bool = False,
    ) -> None:
        """Append one stream of the log's open launch."""
        log = self._log
        batch = self.batch
        streams = log._streams
        if active_mask is None and type(addresses) is AddressGather:
            known = addresses.memo.get(self.memo_key)
            if known is not None:
                batch.add_known(*known)
            elif addresses in self._first:
                batch.add_repeat(self._first[addresses][0])
            else:
                self._first[addresses] = (len(batch), len(streams))
                log._pending_ids += batch.add(addresses)
        else:
            log._pending_ids += batch.add(addresses, active_mask)
        streams.append(self._codes[l2_bypass])


class StreamLog:
    """A hierarchy's recorded launches, priced together on demand.

    Each launch records its streams through the log's channels
    (:meth:`channel`, one per coalescer configuration) and closes with
    :meth:`end_launch`, which hands over its pending report and a
    *finish* callback.
    :meth:`flush` prices every pending stream in segmented passes —
    one coalescer call per configuration, one :meth:`~MemoryHierarchy.process`
    and one DRAM pass over the whole log — then walks the launches in
    order: each launch's totals are exact sums, its row-hit fraction and
    serialized DRAM time replay the per-stream recurrences, and its
    finish callback turns them into the launch's report.  A flush
    happens when a pending report is read, or when the held sector ids
    pass :data:`PENDING_IDS_LIMIT`.  A flush that raises marks every
    report it left unsettled failed, and re-raises.

    An unmasked gather is priced once: its first pricing memoizes its
    counts on the descriptor, and later launches (or later streams of
    the same flush) reuse them.
    """

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self._hierarchy = hierarchy
        self._channels: dict = {}
        self._clear()

    def _clear(self) -> None:
        #: per stream, in order: 2 * channel number + L2 bypass
        self._streams: list[int] = []
        self._launch_ends: list[int] = []
        self._reports: list = []
        self._finish: list[Callable] = []
        self._pending_ids = 0
        for channel in self._channels.values():
            channel._reset()

    def channel(self, coalesce: Callable, **params) -> LogChannel:
        """The channel whose streams ``coalesce(batch, **params)`` prices."""
        key = (coalesce, *params.items())
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = LogChannel(self, len(self._channels), coalesce, params)
        return channel

    def end_launch(self, finish: Callable, report=None) -> None:
        """Close the open launch.

        ``finish(memory, dram_s, stats, lo, hi)`` is called at the flush
        with the launch's merged :class:`MemoryStats`, its serialized
        DRAM time, and the flush's :class:`StreamStats` whose streams
        ``lo:hi`` are the launch's.  ``report``, the launch's pending
        :class:`~repro.phases.PhaseReport` if it has one, is marked
        failed if the flush raises before settling it.
        """
        self._launch_ends.append(len(self._streams))
        self._reports.append(report)
        self._finish.append(finish)
        if self._pending_ids > PENDING_IDS_LIMIT:
            self.flush()

    def flush(self) -> None:
        """Price every pending launch and run its finish callback."""
        if not self._finish:
            return
        reports = self._reports
        try:
            self._price()
        except BaseException as error:
            for report in reports:
                if report is not None:
                    report.fail(error)
            raise

    def _price(self) -> None:
        channels = list(self._channels.values())
        codes = np.array(self._streams, dtype=np.int64)
        parts = [channel for channel in channels if len(channel.batch)]
        results = [channel.coalesce(channel.batch, **channel.params) for channel in parts]
        first_gathers = [channel._first for channel in parts]
        ends = self._launch_ends
        finish = self._finish
        self._clear()

        # Each stream's part: its channel among those with streams.
        number = np.zeros(len(channels), dtype=np.int64)
        number[[channels.index(channel) for channel in parts]] = np.arange(len(parts))
        part_of = number[codes >> 1]
        hierarchy = self._hierarchy
        if results:
            result = CoalesceResult.interleave(results, part_of)
            stats = hierarchy.process(result, l2_bypass=(codes & 1).astype(bool))
        else:  # only launches without streams
            empty = np.zeros(0, dtype=np.int64)
            stats = StreamStats(
                accesses=empty,
                transactions=empty,
                l2_hits=empty,
                dram_accesses=empty,
                dram_bytes=empty,
                row_hit_fraction=np.zeros(0),
                hit_rate=np.zeros(0),
                unique_lines=empty,
            )
        for channel, first in zip(parts, first_gathers):
            for gather, (_, i) in first.items():
                gather.memo[channel.memo_key] = (
                    int(stats.stream_accesses[i]),
                    int(stats.stream_transactions[i]),
                    int(stats.stream_unique_lines[i]),
                    float(stats.stream_row_hit_fraction[i]),
                )
        drain_s = hierarchy._dram_model.drain_times_s(
            stats.stream_dram_accesses,
            stats.stream_dram_bytes,
            stats.stream_row_hit_fraction,
        )
        bounds = np.zeros(len(ends) + 1, dtype=np.int64)
        bounds[1:] = ends
        totals = [
            _segment_sums(column, bounds).tolist()
            for column in (
                stats.stream_accesses,
                stats.stream_transactions,
                stats.stream_l2_hits,
                stats.stream_dram_accesses,
            )
        ]
        dram_bytes = stats.stream_dram_bytes.tolist()
        row_hits = stats.stream_row_hit_fraction.tolist()
        drains = drain_s.tolist()
        lo = 0
        for launch, hi in enumerate(ends):
            # The DRAM-byte-weighted row-hit average and the serial DRAM
            # time, stream by stream: MemoryStats.merged and a running
            # sum, replayed on plain floats.
            row_hit = 0.5
            total_bytes = 0
            dram_s = 0.0
            for i in range(lo, hi):
                dram_s += drains[i]
                stream_bytes = dram_bytes[i]
                merged_bytes = total_bytes + stream_bytes
                if merged_bytes:
                    row_hit = (
                        row_hit * total_bytes + row_hits[i] * stream_bytes
                    ) / merged_bytes
                else:
                    row_hit = 0.5
                total_bytes = merged_bytes
            memory = MemoryStats(
                accesses=totals[0][launch],
                transactions=totals[1][launch],
                l2_hits=totals[2][launch],
                dram_accesses=totals[3][launch],
                dram_bytes=total_bytes,
                row_hit_fraction=row_hit,
            )
            finish[launch](memory, dram_s, stats, lo, hi)
            lo = hi


def _segment_sums(column: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact integer sums of ``column[bounds[k]:bounds[k + 1]]``."""
    running = np.zeros(column.size + 1, dtype=np.int64)
    np.cumsum(column, out=running[1:])
    return running[bounds[1:]] - running[bounds[:-1]]
