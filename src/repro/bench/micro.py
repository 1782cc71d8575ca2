"""Kernel-level microbenchmarks (``repro bench --micro``).

``repro bench`` measures whole grid cells — an algorithm on a dataset
end to end — which is the right granularity for paper fidelity but too
coarse to localise a kernel regression: a 2x slowdown in the DRAM
replay hides inside a cell whose wall clock is dominated by expansion.
The micro suite times the individual vectorized kernels (DRAM batch
replay, unique filtering, grouping, warp/stream coalescing, L2 locality
profiling, closed-form walk pricing, launch pricing, LRU cache replay,
CC labelling) on fixed-seed synthetic inputs and writes the same style of
schema-versioned artifact, so ``--compare`` against the committed
``benchmarks/baseline_micro.json`` gates future kernel work through the
existing exit-2 path.

Each record pairs three things:

* **wall statistics** of the vectorized kernel (warmup discarded,
  same :class:`~repro.bench.record.WallStats` convention as ``bench``);
* **reference wall statistics and speedup** where a scalar
  ``*_reference`` twin exists — the artifact is the durable proof that
  the batch replay actually pays (the DRAM kernel must stay >= 3x on a
  100k-address trace);
* **deterministic checksums** (cycles, hit/miss counts, permutation
  and label digests) compared *exactly* by ``--compare``: checksum
  drift is a correctness change in a kernel, not noise.  When a
  reference exists its checksums are asserted equal to the vectorized
  kernel's at measurement time, so every micro run re-proves the
  equivalence contract.

Timed repetitions are also observed into the process-wide
:func:`~repro.obs.metrics.global_metrics` registry as
``scu.kernel.<name>.seconds`` histograms, which ``repro serve``
already exposes at ``/metrics``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algorithms import connected_components_labels, connected_components_reference
from ..core.batch import (
    data_compaction_batch,
    filter_unique_batch,
    group_order_batch,
)
from ..core.config import HashTableConfig
from ..core.filtering import filter_unique, filter_unique_reference
from ..core.grouping import group_order, group_order_reference
from ..core.ops import data_compaction
from ..errors import BenchError
from ..graph.csr import CsrGraph
from ..mem.cache import SetAssociativeCache
from ..mem.coalescer import (
    SECTOR_BYTES,
    WARP_SIZE,
    CoalesceResult,
    coalesce_stream,
    coalesce_stream_reference,
    coalesce_warp,
    coalesce_warp_reference,
    sequential_addresses,
)
from ..mem.address_space import AddressGather, AddressWalk
from ..mem.dram import GDDR5
from ..mem.dram_sim import BankedDramSim
from ..mem.hierarchy import MemoryHierarchy, MemoryStats
from ..mem.locality import LocalityProfile, profile_lines, profile_lines_reference
from ..obs.metrics import MetricsRegistry, global_metrics
from .compare import V_MISSING, V_SIM, V_WALL, V_FASTER, CompareReport, Finding
from .record import WallStats, collect_provenance

#: Bump on any backwards-incompatible change to the micro-artifact layout.
MICRO_SCHEMA_VERSION = 1

#: Distinguishes micro artifacts from grid artifacts at load time.
MICRO_KIND = "bench-micro"

#: Default timed repetitions per kernel (one extra warmup is discarded).
DEFAULT_MICRO_REPS = 3

#: The DRAM replay trace length is pinned in both quick and full modes:
#: the committed baseline's >= 3x speedup claim is defined at this size.
DRAM_TRACE_LEN = 100_000

_MICRO_TABLE = HashTableConfig(
    name="micro", capacity_bytes=64 * 1024, ways=1, bytes_per_entry=8
)


@dataclass(frozen=True)
class MicroRecord:
    """One kernel's measurement."""

    kernel: str
    size: int
    wall: WallStats
    sim: Dict[str, float]  # deterministic checksums, exact-compare
    reference_wall: Optional[WallStats] = None
    speedup: Optional[float] = None  # reference median / vectorized median

    @property
    def key(self) -> Tuple[str, int]:
        return (self.kernel, self.size)

    def label(self) -> str:
        return f"{self.kernel}[n={self.size}]"


@dataclass
class MicroArtifact:
    """A whole micro run, serialized as ``BENCH_micro_<tag>.json``."""

    tag: str
    provenance: Dict[str, Any]
    records: List[MicroRecord] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    quick: bool = False
    schema_version: int = MICRO_SCHEMA_VERSION
    kind: str = MICRO_KIND

    def record_map(self) -> Dict[Tuple[str, int], MicroRecord]:
        return {record.key: record for record in self.records}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "tag": self.tag,
            "quick": self.quick,
            "provenance": dict(self.provenance),
            "records": [
                {
                    "kernel": r.kernel,
                    "size": r.size,
                    "wall": {
                        "reps": r.wall.reps,
                        "min_s": r.wall.min_s,
                        "median_s": r.wall.median_s,
                        "mean_s": r.wall.mean_s,
                        "iqr_s": r.wall.iqr_s,
                        "warmup_s": r.wall.warmup_s,
                    },
                    "reference_wall": None
                    if r.reference_wall is None
                    else {
                        "reps": r.reference_wall.reps,
                        "min_s": r.reference_wall.min_s,
                        "median_s": r.reference_wall.median_s,
                        "mean_s": r.reference_wall.mean_s,
                        "iqr_s": r.reference_wall.iqr_s,
                        "warmup_s": r.reference_wall.warmup_s,
                    },
                    "speedup": r.speedup,
                    "sim": dict(r.sim),
                }
                for r in self.records
            ],
            "metrics": list(self.metrics),
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"
        )
        return path

    @classmethod
    def from_dict(
        cls, payload: Dict[str, Any], *, source: str = "artifact"
    ) -> "MicroArtifact":
        if not isinstance(payload, dict):
            raise BenchError(f"{source}: expected a JSON object")
        if payload.get("kind") != MICRO_KIND:
            raise BenchError(
                f"{source}: kind {payload.get('kind')!r} is not a micro artifact "
                f"(expected {MICRO_KIND!r})"
            )
        version = payload.get("schema_version")
        if version != MICRO_SCHEMA_VERSION:
            raise BenchError(
                f"{source}: schema version {version!r} is not supported "
                f"(this build reads version {MICRO_SCHEMA_VERSION})"
            )
        for req in ("tag", "provenance", "records"):
            if req not in payload:
                raise BenchError(f"{source}: missing field {req!r}")
        records: List[MicroRecord] = []
        for index, raw in enumerate(payload["records"]):
            try:
                reference_wall = raw.get("reference_wall")
                records.append(
                    MicroRecord(
                        kernel=raw["kernel"],
                        size=raw["size"],
                        wall=WallStats(**raw["wall"]),
                        sim=dict(raw["sim"]),
                        reference_wall=None
                        if reference_wall is None
                        else WallStats(**reference_wall),
                        speedup=raw.get("speedup"),
                    )
                )
            except (KeyError, TypeError) as error:
                raise BenchError(
                    f"{source}: record {index} is malformed: {error!r}"
                ) from error
        return cls(
            tag=payload["tag"],
            provenance=payload["provenance"],
            records=records,
            metrics=payload.get("metrics", []),
            quick=bool(payload.get("quick", False)),
            schema_version=version,
        )

    @classmethod
    def load(cls, path: str | Path) -> "MicroArtifact":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError as error:
            raise BenchError(f"{path}: no such artifact") from error
        except json.JSONDecodeError as error:
            raise BenchError(f"{path}: not a valid artifact: {error}") from error
        return cls.from_dict(payload, source=str(path))


# ---------------------------------------------------------------------------
# Kernel definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroKernel:
    """One benchmarked kernel: fixed-seed inputs, a vectorized body, and
    an optional scalar reference returning the same checksums."""

    name: str
    make_inputs: Callable[[bool], Tuple[int, Dict[str, Any]]]  # quick -> (size, inputs)
    run: Callable[[Dict[str, Any]], Dict[str, float]]
    reference: Optional[Callable[[Dict[str, Any]], Dict[str, float]]] = None


def _perm_digest(perm: np.ndarray) -> int:
    # Position-weighted sum: order-sensitive, exact in 64-bit JSON ints
    # for the sizes used here.
    return int(np.sum(perm * np.arange(1, perm.size + 1, dtype=np.int64)))


def _dram_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    rng = np.random.default_rng(2026)
    addresses = rng.integers(0, 1 << 24, size=DRAM_TRACE_LEN) * 32
    return DRAM_TRACE_LEN, {"addresses": addresses}


def _dram_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    sim = BankedDramSim(config=GDDR5)  # fresh device: row state is per-run
    result = sim.process(inputs["addresses"])
    return {
        "cycles": float(result.cycles),
        "row_hits": float(result.row_hits),
        "row_misses": float(result.row_misses),
    }


def _dram_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    sim = BankedDramSim(config=GDDR5)
    result = sim.process_reference(inputs["addresses"])
    return {
        "cycles": float(result.cycles),
        "row_hits": float(result.row_hits),
        "row_misses": float(result.row_misses),
    }


def _filter_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 50_000 if quick else 200_000
    rng = np.random.default_rng(2027)
    return n, {"ids": rng.integers(0, n // 2, size=n)}


def _filter_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    keep = filter_unique(inputs["ids"], _MICRO_TABLE)
    return {
        "kept": float(keep.sum()),
        "mask_digest": float(_perm_digest(keep.astype(np.int64))),
    }


def _filter_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    keep = filter_unique_reference(inputs["ids"], _MICRO_TABLE)
    return {
        "kept": float(keep.sum()),
        "mask_digest": float(_perm_digest(keep.astype(np.int64))),
    }


def _group_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 25_000 if quick else 100_000
    rng = np.random.default_rng(2028)
    return n, {"blocks": rng.integers(0, 4096, size=n)}


def _group_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    perm = group_order(inputs["blocks"], _MICRO_TABLE)
    return {"perm_digest": float(_perm_digest(perm)), "length": float(perm.size)}


def _group_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    perm = group_order_reference(inputs["blocks"], _MICRO_TABLE)
    return {"perm_digest": float(_perm_digest(perm)), "length": float(perm.size)}


def _coalesce_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 50_000 if quick else 200_000
    rng = np.random.default_rng(2029)
    return n, {"addresses": rng.integers(0, n, size=n) * 4}


def _sequential_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    """A sequential 4-byte walk, the shape most request-path streams have."""
    n = 50_000 if quick else 200_000
    return n, {"addresses": sequential_addresses(n, elem_bytes=4)}


def _coalesce_checks(result: CoalesceResult) -> Dict[str, float]:
    return {
        "transactions": float(result.transactions),
        "accesses": float(result.accesses),
    }


def _coalesce_warp_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _coalesce_checks(coalesce_warp(inputs["addresses"]))


def _coalesce_warp_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _coalesce_checks(coalesce_warp_reference(inputs["addresses"]))


def _coalesce_stream_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _coalesce_checks(coalesce_stream(inputs["addresses"]))


def _coalesce_stream_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _coalesce_checks(coalesce_stream_reference(inputs["addresses"]))


def _locality_checks(profile: LocalityProfile) -> Dict[str, float]:
    return {
        "accesses": float(profile.accesses),
        "unique_lines": float(profile.unique_lines),
    }


def _locality_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _locality_checks(profile_lines(inputs["addresses"] // SECTOR_BYTES))


def _locality_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _locality_checks(
        profile_lines_reference(inputs["addresses"] // SECTOR_BYTES)
    )


def _walk_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    """A 4-byte walk starting one element into an allocation (so warps
    share their boundary sectors), priced by a GTX980-sized L2."""
    n = 50_000 if quick else 200_000
    hierarchy = MemoryHierarchy(l2_capacity_bytes=2 * 1024 * 1024, dram=GDDR5)
    return n, {"walk": AddressWalk((1 << 20) + 4, n, 4), "hierarchy": hierarchy}


def _hierarchy_checks(stats: MemoryStats) -> Dict[str, float]:
    return {
        "transactions": float(stats.transactions),
        "l2_hits": float(stats.l2_hits),
        "dram_bytes": float(stats.dram_bytes),
        "row_hit_fraction": stats.row_hit_fraction,
    }


def _walk_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _hierarchy_checks(inputs["hierarchy"].process(coalesce_warp(inputs["walk"]))[0])


def _walk_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    addresses = inputs["walk"].materialize()
    return _hierarchy_checks(inputs["hierarchy"].process(coalesce_warp(addresses))[0])


#: Launches that re-issue one gather, as PageRank's rank update issues
#: its atomic gather once per iteration.
GATHER_LAUNCHES = 20


def _gather_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    """A 4-byte gather of random node ids (PageRank's atomic rank update
    shape), priced by a GTX980-sized L2."""
    n = 50_000 if quick else 200_000
    rng = np.random.default_rng(2031)
    hierarchy = MemoryHierarchy(l2_capacity_bytes=2 * 1024 * 1024, dram=GDDR5)
    return n, {"indices": rng.integers(0, n // 8, size=n), "hierarchy": hierarchy}


def _gather_launches(
    inputs: Dict[str, Any], stream: Callable[[AddressGather], Any]
) -> Dict[str, float]:
    """Each launch's one stream through the hierarchy's stream log,
    priced at the end; the streams' statistics merged."""
    log = inputs["hierarchy"].log
    gather = AddressGather(1 << 20, 4, inputs["indices"])
    streams: List[MemoryStats] = []
    for _ in range(GATHER_LAUNCHES):
        log.channel(coalesce_warp, warp_size=WARP_SIZE).record(stream(gather))
        log.end_launch(lambda memory, dram_s, stats, lo, hi: streams.append(stats[lo]))
    log.flush()
    total = MemoryStats()
    for stats in streams:
        total = total.merged(stats)
    return _hierarchy_checks(total)


def _gather_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    """One descriptor priced every launch: the log prices it once."""
    return _gather_launches(inputs, lambda gather: gather)


def _gather_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _gather_launches(inputs, lambda gather: gather.materialize())


#: Streams per launch in the frontier workloads' kernels and SCU
#: operations, and the share of them that are walks.
LAUNCH_STREAMS = 8
LAUNCH_WALK_SHARE = 0.6


def _launch_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    """Launches shaped like BFS/SSSP frontier iterations: 8 streams each,
    60% walks and the rest unsorted 4-byte gathers, a fifth of them
    bypassing the L2; stream sizes log-normal around a median of 84
    elements with a tail past a thousand.  Priced by a GTX980-sized L2."""
    launches = 200 if quick else 800
    rng = np.random.default_rng(2033)
    sizes = np.exp(rng.normal(np.log(84), 2.25, size=(launches, LAUNCH_STREAMS)))
    sizes = np.clip(np.round(sizes), 1, 20_000).astype(np.int64)
    plan = []
    for row in sizes:
        streams = []
        for n in row.tolist():
            base = 256 * int(rng.integers(0, 1 << 16))
            if rng.random() < LAUNCH_WALK_SHARE:
                stream = AddressWalk(base + 4 * int(rng.integers(0, 8)), n, 4)
            else:
                stream = base + 4 * rng.integers(0, 4 * n, size=n)
            streams.append((stream, bool(rng.random() < 0.2)))
        plan.append(streams)
    hierarchy = MemoryHierarchy(l2_capacity_bytes=2 * 1024 * 1024, dram=GDDR5)
    return launches * LAUNCH_STREAMS, {"launches": plan, "hierarchy": hierarchy}


def _launch_checks(totals: List[Tuple[MemoryStats, float]]) -> Dict[str, float]:
    return {
        "transactions": float(sum(stats.transactions for stats, _ in totals)),
        "l2_hits": float(sum(stats.l2_hits for stats, _ in totals)),
        "dram_bytes": float(sum(stats.dram_bytes for stats, _ in totals)),
        "row_hit_fraction": sum(stats.row_hit_fraction for stats, _ in totals),
        "dram_s": sum(dram_s for _, dram_s in totals),
    }


def _launch_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    """Every launch recorded in the hierarchy's stream log, priced at
    the end in one flush."""
    log = inputs["hierarchy"].log
    totals: List[Tuple[MemoryStats, float]] = []
    for streams in inputs["launches"]:
        record = log.channel(coalesce_warp, warp_size=WARP_SIZE).record
        for stream, l2_bypass in streams:
            record(stream, l2_bypass=l2_bypass)
        log.end_launch(lambda memory, dram_s, *streams: totals.append((memory, dram_s)))
    log.flush()
    return _launch_checks(totals)


def _launch_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    """Each stream's addresses through the reference coalescer, then the
    per-stream ``process`` / ``dram_time_s`` / ``merged`` loop."""
    hierarchy = inputs["hierarchy"]
    totals = []
    for streams in inputs["launches"]:
        memory = MemoryStats()
        dram_s = 0.0
        for stream, l2_bypass in streams:
            if isinstance(stream, AddressWalk):
                stream = stream.materialize()
            stats = hierarchy.process(coalesce_warp_reference(stream), l2_bypass=l2_bypass)[0]
            dram_s += hierarchy.dram_time_s(stats)
            memory = memory.merged(stats)
        totals.append((memory, dram_s))
    return _launch_checks(totals)


def _cache_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    n = 25_000 if quick else 100_000
    rng = np.random.default_rng(2030)
    return n, {"lines": rng.integers(0, 8192, size=n)}


def _make_cache() -> SetAssociativeCache:
    return SetAssociativeCache(capacity_bytes=256 * 1024, line_bytes=128, ways=8)


def _cache_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    cache = _make_cache()
    cache.access_lines(inputs["lines"])
    return {
        "hits": float(cache.stats.hits),
        "misses": float(cache.stats.misses),
        "evictions": float(cache.stats.evictions),
    }


def _cache_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    cache = _make_cache()
    cache.access_lines_reference(inputs["lines"])
    return {
        "hits": float(cache.stats.hits),
        "misses": float(cache.stats.misses),
        "evictions": float(cache.stats.evictions),
    }


def _cc_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    num_nodes = 5_000 if quick else 20_000
    rng = np.random.default_rng(2031)
    degrees = rng.integers(0, 4, size=num_nodes)
    targets = rng.integers(0, num_nodes, size=int(degrees.sum()))
    sources = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    all_src = np.concatenate([sources, targets])  # symmetrized
    all_dst = np.concatenate([targets, sources])
    order = np.argsort(all_src, kind="stable")
    counts = np.bincount(all_src, minlength=num_nodes)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    graph = CsrGraph(
        offsets=offsets,
        edges=all_dst[order].astype(np.int64),
        weights=np.ones(all_dst.size, dtype=np.float64),
        name="micro-cc",
    )
    return num_nodes, {"graph": graph}


def _cc_checks(labels: np.ndarray) -> Dict[str, float]:
    return {
        "label_digest": float(_perm_digest(labels)),
        "components": float(np.unique(labels).size),
    }


def _cc_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _cc_checks(connected_components_labels(inputs["graph"]))


def _cc_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    return _cc_checks(connected_components_reference(inputs["graph"]))


#: Rows per synthetic request batch (the paper-grid frontier pipeline
#: fused over a request axis).  The committed >= 3x speedup claim is
#: defined at these batch sizes — both comfortably past batch 8.
BATCH_ROWS_QUICK = 64
BATCH_ROWS_FULL = 128


def _batch_inputs(quick: bool) -> Tuple[int, Dict[str, Any]]:
    rows = BATCH_ROWS_QUICK if quick else BATCH_ROWS_FULL
    rng = np.random.default_rng(2032)
    # Ragged frontier sizes (including an empty row) model N queued
    # requests at different points of their traversal: many small
    # frontiers, where the per-call dispatch overhead the batched path
    # amortizes dominates the scalar replay.
    sizes = rng.integers(16, 129, size=rows)
    sizes[rows // 2] = 0
    ids = [rng.integers(0, 4096, size=size).astype(np.int64) for size in sizes]
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return int(sizes.sum()), {
        "ids": np.concatenate(ids) if rows else np.empty(0, dtype=np.int64),
        "offsets": offsets,
    }


def _batch_checks(
    kept: int, grouped: np.ndarray, out_offsets: np.ndarray
) -> Dict[str, float]:
    return {
        "kept": float(kept),
        "grouped_digest": float(_perm_digest(grouped)),
        "offsets_digest": float(_perm_digest(out_offsets)),
    }


def _batch_run(inputs: Dict[str, Any]) -> Dict[str, float]:
    """One fused pass: batched filter -> scan+scatter compact -> group."""
    keep = filter_unique_batch(inputs["ids"], inputs["offsets"], _MICRO_TABLE)
    values, out_offsets = data_compaction_batch(
        inputs["ids"], inputs["offsets"], keep
    )
    blocks = values >> 3
    perm = group_order_batch(blocks, out_offsets, _MICRO_TABLE)
    return _batch_checks(int(values.size), values[perm], out_offsets)


def _batch_reference(inputs: Dict[str, Any]) -> Dict[str, float]:
    """Per-request replay: the same pipeline, one row at a time."""
    offsets = inputs["offsets"]
    grouped_rows = []
    out_sizes = []
    for r in range(offsets.size - 1):
        row = inputs["ids"][offsets[r] : offsets[r + 1]]
        keep = filter_unique(row, _MICRO_TABLE)
        values = data_compaction(row, keep)
        perm = group_order(values >> 3, _MICRO_TABLE)
        grouped_rows.append(values[perm])
        out_sizes.append(values.size)
    out_offsets = np.zeros(offsets.size, dtype=np.int64)
    np.cumsum(np.asarray(out_sizes, dtype=np.int64), out=out_offsets[1:])
    grouped = (
        np.concatenate(grouped_rows) if grouped_rows else np.empty(0, np.int64)
    )
    return _batch_checks(int(grouped.size), grouped, out_offsets)


MICRO_KERNELS: Tuple[MicroKernel, ...] = (
    MicroKernel("dram.replay", _dram_inputs, _dram_run, _dram_reference),
    MicroKernel("filter.unique", _filter_inputs, _filter_run, _filter_reference),
    MicroKernel("group.order", _group_inputs, _group_run, _group_reference),
    MicroKernel(
        "coalesce.warp", _coalesce_inputs, _coalesce_warp_run, _coalesce_warp_reference
    ),
    MicroKernel(
        "coalesce.warp.seq",
        _sequential_inputs,
        _coalesce_warp_run,
        _coalesce_warp_reference,
    ),
    MicroKernel(
        "coalesce.stream",
        _coalesce_inputs,
        _coalesce_stream_run,
        _coalesce_stream_reference,
    ),
    MicroKernel(
        "coalesce.stream.seq",
        _sequential_inputs,
        _coalesce_stream_run,
        _coalesce_stream_reference,
    ),
    MicroKernel(
        "locality.profile", _coalesce_inputs, _locality_run, _locality_reference
    ),
    MicroKernel(
        "locality.profile.seq", _sequential_inputs, _locality_run, _locality_reference
    ),
    MicroKernel("hierarchy.walk", _walk_inputs, _walk_run, _walk_reference),
    MicroKernel("hierarchy.gather", _gather_inputs, _gather_run, _gather_reference),
    MicroKernel("hierarchy.launch", _launch_inputs, _launch_run, _launch_reference),
    MicroKernel("cache.lru", _cache_inputs, _cache_run, _cache_reference),
    MicroKernel("cc.labels", _cc_inputs, _cc_run, _cc_reference),
    MicroKernel("batch.compaction", _batch_inputs, _batch_run, _batch_reference),
)

MICRO_KERNEL_NAMES: Tuple[str, ...] = tuple(k.name for k in MICRO_KERNELS)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _timed(body: Callable[[], Dict[str, float]]) -> Tuple[float, Dict[str, float]]:
    started = time.perf_counter()
    checks = body()
    return time.perf_counter() - started, checks


def run_micro(
    *,
    quick: bool = False,
    reps: int = DEFAULT_MICRO_REPS,
    tag: str = "micro",
    progress: Optional[Callable[[str], None]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MicroArtifact:
    """Measure every kernel and return the artifact.

    Timed repetitions are recorded into ``registry`` (default: a fresh
    one, snapshotted into the artifact) *and* the process-global
    registry's ``scu.kernel.<name>.seconds`` histograms so a running
    service surfaces them on ``/metrics``.
    """
    if reps <= 0:
        raise BenchError(f"reps must be positive, got {reps}")
    local = registry if registry is not None else MetricsRegistry()
    artifact = MicroArtifact(
        tag=tag, provenance=collect_provenance(), quick=quick
    )
    for kernel in MICRO_KERNELS:
        size, inputs = kernel.make_inputs(quick)
        metric = f"scu.kernel.{kernel.name}.seconds"
        warmup_s, checks = _timed(lambda: kernel.run(inputs))
        samples: List[float] = []
        for _ in range(reps):
            elapsed, rep_checks = _timed(lambda: kernel.run(inputs))
            if rep_checks != checks:
                raise BenchError(
                    f"{kernel.name}: nondeterministic checksums across reps"
                )
            samples.append(elapsed)
            local.histogram(metric).observe(elapsed)
            global_metrics().histogram(metric).observe(elapsed)
        wall = WallStats.from_samples(samples, warmup_s=warmup_s)
        reference_wall: Optional[WallStats] = None
        speedup: Optional[float] = None
        if kernel.reference is not None:
            ref_elapsed, ref_checks = _timed(lambda: kernel.reference(inputs))
            if ref_checks != checks:
                raise BenchError(
                    f"{kernel.name}: vectorized checksums {checks} diverge "
                    f"from reference {ref_checks}"
                )
            reference_wall = WallStats.from_samples([ref_elapsed])
            if wall.median_s > 0:
                speedup = ref_elapsed / wall.median_s
        artifact.records.append(
            MicroRecord(
                kernel=kernel.name,
                size=size,
                wall=wall,
                sim=checks,
                reference_wall=reference_wall,
                speedup=speedup,
            )
        )
        if progress is not None:
            gain = "" if speedup is None else f"  ({speedup:.1f}x vs reference)"
            progress(
                f"  {kernel.name:20s} n={size:<7d} "
                f"median {wall.median_s * 1e3:8.3f} ms{gain}"
            )
    artifact.metrics = local.flat_snapshot()
    return artifact


# ---------------------------------------------------------------------------
# Comparison (the --compare exit-2 gate)
# ---------------------------------------------------------------------------


def compare_micro_artifacts(
    baseline: MicroArtifact,
    current: MicroArtifact,
    *,
    sim_rtol: float = 0.0,
    wall_tolerance_pct: float = 50.0,
) -> CompareReport:
    """Diff two micro artifacts with the bench comparison contract:
    checksums are deterministic (exact by default, either direction);
    wall medians gate only beyond the tolerance; a vanished kernel is a
    regression."""
    report = CompareReport()
    current_map = current.record_map()
    for key, base in baseline.record_map().items():
        cur = current_map.pop(key, None)
        if cur is None:
            report.regressions.append(
                Finding(V_MISSING, base.label(), "record", None, None)
            )
            continue
        report.cells_compared += 1
        cell = base.label()
        for name in sorted(set(base.sim) | set(cur.sim)):
            base_value = base.sim.get(name)
            cur_value = cur.sim.get(name)
            if _checksum_differs(base_value, cur_value, sim_rtol):
                report.regressions.append(
                    Finding(V_SIM, cell, name, base_value, cur_value)
                )
        if wall_tolerance_pct > 0.0 and base.wall.median_s > 0.0:
            ratio = cur.wall.median_s / base.wall.median_s
            if ratio > 1.0 + wall_tolerance_pct / 100.0:
                report.regressions.append(
                    Finding(
                        V_WALL, cell, "wall.median_s",
                        base.wall.median_s, cur.wall.median_s,
                    )
                )
            elif ratio < 1.0 - wall_tolerance_pct / 100.0:
                report.improvements.append(
                    Finding(
                        V_FASTER, cell, "wall.median_s",
                        base.wall.median_s, cur.wall.median_s,
                    )
                )
    report.cells_added = len(current_map)
    return report


def _checksum_differs(
    a: Optional[float], b: Optional[float], rtol: float
) -> bool:
    if a is None or b is None:
        return True  # a checksum appearing or vanishing is drift
    if a == b:
        return False
    if rtol <= 0.0:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) > rtol * scale
