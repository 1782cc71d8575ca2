"""Structural model of the SCU hardware pipeline (Figure 7).

The pipeline's five functional units are:

* **Address Generator** — configured per operation; walks the input
  vectors (data / bitmask / indexes / count) in order;
* **Data Fetch** — issues the read requests the Address Generator
  produced, in FIFO order;
* **Coalescing Unit** — merges reads to the same sector within a small
  window (Table 1: 32 in-flight, 4-merge);
* **Bitmask Constructor** — the comparator datapath;
* **Data Store** — writes results to consecutive addresses, with its own
  trivial write coalescing.

For the cost model the pipeline is a throughput machine: it moves
``pipeline_width`` elements per cycle when memory keeps up.  What this
module contributes is the *memory traffic shape* of each operation —
which vectors are walked sequentially, which are gathered sparsely —
expressed as address streams the shared memory hierarchy then prices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mem.address_space import AddressGather, AddressWalk, DeviceArray
from ..mem.coalescer import coalesce_stream
from ..mem.hierarchy import StreamStats
from ..obs import Observability
from .config import ScuConfig


@dataclass(frozen=True)
class ScuStream:
    """One address stream an SCU operation issues."""

    role: str  # "data", "bitmask", "indexes", "count", "hash", "output"
    addresses: np.ndarray | AddressWalk | AddressGather
    is_write: bool = False
    #: hash-table traffic is random by construction; everything else the
    #: SCU touches is either sequential or a gather the coalescer sees.
    random_access: bool = False


def scu_merge_window(stream: ScuStream, config: ScuConfig) -> int:
    """The merge window the SCU coalescing unit applies to ``stream``.

    The merge window of Table 1 counts pending *requests*; the Data
    Fetch unit issues 8-byte beats, so with 4-byte stream elements one
    window position covers two elements — an effective window of
    ``2 x merge_window`` elements.  A sequential walk therefore merges
    into exactly one transaction per 32-byte sector, which is what the
    Address Generator's stride knowledge achieves in the hardware.
    Hash-table probes are scattered and almost never merge; they go
    through the same window and pay full price.
    """
    return 1 if stream.random_access else 2 * config.coalescer_merge_window


def record_scu_streams(streams: list[ScuStream], config: ScuConfig, log) -> None:
    """Record one operation's streams in a hierarchy's stream log, each
    to be coalesced by :func:`coalesce_stream` with its merge window."""
    for stream in streams:
        window = scu_merge_window(stream, config)
        log.channel(coalesce_stream, merge_window=window).record(stream.addresses)


def observe_scu_streams(
    obs: Observability, roles: list[str], stats: StreamStats, lo: int, hi: int
) -> None:
    """Record each priced stream's coalescing behaviour by role — how
    hash-probe scatter shows up next to sequential walks.  Stream
    ``lo + k`` of ``stats`` has role ``roles[k]``."""
    metrics = obs.metrics
    transactions = stats.stream_transactions[lo:hi].tolist()
    accesses = stats.stream_accesses[lo:hi].tolist()
    for role, issued, requested in zip(roles, transactions, accesses):
        if issued:
            metrics.counter("scu.stream.transactions").inc(issued, role=role)
            metrics.histogram("scu.stream.coalesce_factor").observe(
                requested / issued, role=role
            )


# -- stream builders, one vocabulary shared by all operations ---------------


def sequential_read(array: DeviceArray, role: str = "data") -> ScuStream:
    return ScuStream(role=role, addresses=array.walk())


def walk_read(array: DeviceArray, start: int, count: int, role: str = "data") -> ScuStream:
    """The walk over ``count`` elements of ``array`` from ``start``."""
    return ScuStream(role=role, addresses=array.walk(start, count))


def bitmask_read(mask_array: DeviceArray) -> ScuStream:
    """The packed bitmask walk: one 4-byte word per 32 elements."""
    return ScuStream(role="bitmask", addresses=mask_array.walk())


def gather_read(array: DeviceArray, indices: np.ndarray, role: str = "data") -> ScuStream:
    return ScuStream(role=role, addresses=array.addresses(indices))


def sequential_write(array: DeviceArray) -> ScuStream:
    """The Data Store's walk over the output array."""
    return ScuStream(role="output", addresses=array.walk(), is_write=True)


def hash_probe(addresses: np.ndarray) -> ScuStream:
    return ScuStream(role="hash", addresses=addresses, random_access=True)
