"""Composition of the memory system: coalescer -> L2 -> DRAM.

A simulation phase hands this module the coalesced transactions it
produced (real line ids); the hierarchy estimates L2 hits, derives DRAM
traffic and row locality, and returns a :class:`MemoryStats` bundle the
timing and energy models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..obs import NULL_OBS, Observability
from .coalescer import SECTOR_BYTES, CoalesceResult
from .dram import DramConfig, DramModel, DramTraffic
from .locality import estimate_hit_rate, profile_lines, reuse_hit_rate


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


def _span_row_hit_fraction(
    span: tuple[int, int], transactions: int, *, row_bytes: int, sector_bytes: int
) -> float:
    """:func:`row_hit_fraction` of non-decreasing ids covering ``span``.

    Such a stream changes row exactly once per row boundary inside the
    span, so every other consecutive pair is a row hit.
    """
    if transactions < 2:
        return 0.5
    lines_per_row = max(1, row_bytes // sector_bytes)
    first, last = span
    changes = last // lines_per_row - first // lines_per_row
    return (transactions - 1 - changes) / (transactions - 1)


@dataclass
class MemoryHierarchy:
    """L2 + DRAM stack shared by the GPU SMs and the SCU."""

    l2_capacity_bytes: int
    dram: DramConfig
    l2_line_bytes: int = SECTOR_BYTES
    obs: Observability = NULL_OBS
    _dram_model: DramModel = field(init=False, repr=False)
    #: L2 capacity in lines, the reuse model's residency numerator
    _capacity_lines: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.l2_capacity_bytes <= 0 or self.l2_line_bytes <= 0:
            raise ConfigError("cache capacity and line size must be positive")
        self._dram_model = DramModel(self.dram, obs=self.obs)
        self._capacity_lines = self.l2_capacity_bytes / self.l2_line_bytes

    def attach_obs(self, obs: Observability) -> None:
        """Point this hierarchy (and its DRAM model) at an observer."""
        self.obs = obs
        self._dram_model.obs = obs

    def process(self, result: CoalesceResult, *, l2_bypass: bool = False) -> MemoryStats:
        """Turn coalesced transactions into hierarchy-level statistics.

        Args:
            result: the coalescer output (real transaction line ids, a
                walk's span, or a gather's memo entry).
            l2_bypass: model streaming accesses that are not worth
                caching (the GPU marks such loads; the SCU's bulk
                sequential writes behave this way too).
        """
        transactions = result.transactions
        if transactions == 0:
            return MemoryStats()
        # A walk's result carries its sector span: its ids are
        # non-decreasing and cover the span, so the distinct L2 lines
        # are the lines the span touches and the row changes are the
        # row boundaries it crosses.  A gather's result carries its memo
        # entry: what this hierarchy measured on it the first time.
        # Both are priced on plain numbers; any other result is profiled
        # through its line ids.
        span = result.span
        pricing = result.pricing
        memo = None
        if pricing is not None:
            memo_key = (self.l2_line_bytes, self.dram.row_bytes)
            memo = pricing.hierarchy.get(memo_key)
        if span is None and memo is None:
            unique_lines, row_hit, hit_rate = self._profile(result, l2_bypass)
            if pricing is not None:
                pricing.hierarchy[memo_key] = (unique_lines, row_hit)
        else:
            if span is None:
                unique_lines, row_hit = memo
            else:
                first, last = span
                ratio = result.sectors_per_line(self.l2_line_bytes)
                unique_lines = last // ratio - first // ratio + 1
                row_hit = _span_row_hit_fraction(
                    span,
                    transactions,
                    row_bytes=self.dram.row_bytes,
                    sector_bytes=result.sector_bytes,
                )
            hit_rate = 0.0
            if not l2_bypass:
                hit_rate = reuse_hit_rate(transactions, unique_lines, self._capacity_lines)
        l2_hits = int(round(hit_rate * transactions))
        dram_accesses = transactions - l2_hits
        dram_bytes = dram_accesses * result.sector_bytes
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter("mem.accesses").inc(result.accesses)
            metrics.counter("mem.l2.transactions").inc(transactions)
            metrics.counter("mem.l2.hits").inc(l2_hits)
            metrics.counter("mem.l2.misses").inc(dram_accesses)
            metrics.counter("mem.dram.bytes").inc(dram_bytes)
            metrics.histogram("mem.l2.hit_rate").observe(hit_rate)
        # DRAM sees the miss stream; its locality mirrors the transaction
        # stream's (misses preserve order through the L2 miss queue).
        return MemoryStats(
            accesses=result.accesses,
            transactions=transactions,
            l2_hits=l2_hits,
            dram_accesses=dram_accesses,
            dram_bytes=dram_bytes,
            row_hit_fraction=row_hit,
        )

    def _profile(self, result: CoalesceResult, l2_bypass: bool) -> tuple[int, float, float]:
        """Unique L2 lines, row-hit fraction and L2 hit rate of a result
        read from its line ids.

        The coalescer emits *sector* ids; the L2 tracks residency at its
        own line granularity, so the ids are converted before profiling
        reuse — with the default sector-sized L2 lines this is the
        identity, but a 128-byte-line configuration would otherwise
        overstate the working set (and understate hits) by the size
        ratio.  What the coalescer knows of the ids (sorted, bounds) is
        passed on at that granularity, so the profile does not scan for
        it.
        """
        ratio = result.sectors_per_line(self.l2_line_bytes)
        bounds = result.bounds
        if bounds is not None and ratio != 1:
            bounds = (bounds[0] // ratio, bounds[1] // ratio)
        profile = profile_lines(
            result.cache_line_ids(self.l2_line_bytes),
            ids_sorted=result.ids_sorted,
            bounds=bounds,
        )
        row_hit = row_hit_fraction(
            result.line_ids,
            row_bytes=self.dram.row_bytes,
            sector_bytes=result.sector_bytes,
        )
        hit_rate = 0.0
        if not l2_bypass:
            hit_rate = estimate_hit_rate(profile, self.l2_capacity_bytes, self.l2_line_bytes)
        return profile.unique_lines, row_hit, hit_rate

    def launch(self) -> "LaunchTally":
        """A fresh tally for one launch's streams."""
        return LaunchTally(self)

    def dram_time_s(self, stats: MemoryStats) -> float:
        return self._dram_model.transfer_time_s(stats.dram_traffic())

    def dram_dynamic_energy_j(self, stats: MemoryStats) -> float:
        return self._dram_model.dynamic_energy_j(stats.dram_traffic())

    def dram_static_energy_j(self, elapsed_s: float) -> float:
        return self._dram_model.static_energy_j(elapsed_s)


class LaunchTally:
    """One launch's memory totals, priced stream by stream on plain numbers.

    Both engines price a launch as a sequence of streams: each goes
    through :meth:`MemoryHierarchy.process`, its DRAM drain time adds to
    the launch's serialized DRAM time, and its statistics merge into
    the launch's.  The tally keeps those totals as ints and floats and
    replays the exact float operations of
    :meth:`MemoryHierarchy.dram_time_s` and :meth:`MemoryStats.merged`
    (the DRAM-byte-weighted row-hit average and the serial sum), so
    :meth:`stats` and :attr:`dram_s` equal that per-stream loop's, bit
    for bit.
    """

    __slots__ = (
        "_process",
        "_drain_time_s",
        "accesses",
        "transactions",
        "l2_hits",
        "dram_accesses",
        "dram_bytes",
        "row_hit_fraction",
        "dram_s",
    )

    def __init__(self, hierarchy: MemoryHierarchy) -> None:
        self._process = hierarchy.process
        self._drain_time_s = hierarchy._dram_model.drain_time_s
        self.accesses = self.transactions = self.l2_hits = 0
        self.dram_accesses = self.dram_bytes = 0
        self.row_hit_fraction = 0.5
        #: serialized DRAM drain time of the streams added so far
        self.dram_s = 0.0

    def add(self, result: CoalesceResult, *, l2_bypass: bool = False) -> MemoryStats:
        """Price one stream and add it to the launch; returns its stats."""
        stats = self._process(result, l2_bypass=l2_bypass)
        dram_bytes = stats.dram_bytes
        if stats.dram_accesses:
            self.dram_s += self._drain_time_s(
                stats.dram_accesses, dram_bytes, stats.row_hit_fraction
            )
        self.accesses += stats.accesses
        self.transactions += stats.transactions
        self.l2_hits += stats.l2_hits
        self.dram_accesses += stats.dram_accesses
        total_bytes = self.dram_bytes + dram_bytes
        if total_bytes:
            self.row_hit_fraction = (
                self.row_hit_fraction * self.dram_bytes
                + stats.row_hit_fraction * dram_bytes
            ) / total_bytes
        else:
            self.row_hit_fraction = 0.5
        self.dram_bytes = total_bytes
        return stats

    def stats(self) -> MemoryStats:
        """The launch's merged statistics."""
        return MemoryStats(
            accesses=self.accesses,
            transactions=self.transactions,
            l2_hits=self.l2_hits,
            dram_accesses=self.dram_accesses,
            dram_bytes=self.dram_bytes,
            row_hit_fraction=self.row_hit_fraction,
        )
