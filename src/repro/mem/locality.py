"""Analytic cache-hit estimation for large access streams.

The phase-level timing model needs an L2 hit rate for streams of
millions of transactions.  Rather than simulate every access, we use a
capacity-based reuse model:

* every *first* access to a line is a compulsory miss;
* a *reuse* hits with probability ``min(1, capacity_lines / working_set
  lines)`` — if the working set fits, (almost) every reuse hits; if it
  is ``k`` times the capacity, roughly ``1/k`` of reuses find their line
  still resident.

This is the classic "fractional residency" approximation.  Tests
validate it against the exact simulator on streams spanning fitting,
2x-over and 8x-over working sets, where it tracks simulated hit rate
within a few percentage points — enough fidelity for the timing model,
whose conclusions hinge on transaction *counts*, not hit-rate decimals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class LocalityProfile:
    """Reuse structure of one access stream (in cache-line units).

    A profile of several segments holds their totals, and each
    segment's distinct lines in ``segment_unique_lines``.
    """

    accesses: int
    unique_lines: int
    segment_unique_lines: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def reuses(self) -> int:
        return self.accesses - self.unique_lines


#: A segment is counted in the span bitmap when its id span is at most
#: this many times its length: one bool per id in the span then takes
#: at most the int64 input's own bytes.  The path also builds an
#: n-element int64 array of keys into the spans, so its extra memory is
#: at most twice the input's bytes (the sort it replaces copies the
#: input once).
BITMAP_SPAN_FACTOR = 8


def profile_lines(line_ids: np.ndarray, counts: np.ndarray | None = None) -> LocalityProfile:
    """Measure the reuse structure of a stream of line ids, or of each
    of its segments.

    With ``counts``, the stream is consecutive segments of ``counts[k]``
    ids each (all positive), and each segment is profiled on its own;
    without, the stream is one segment.  Each segment's count of
    distinct ids is exactly what :func:`profile_lines_reference` returns
    for it, found in O(n) on the streams real runs produce.  Every
    segment's ids are offset into its own span of keys, the spans laid
    end to end so that no two segments share a key:

    * segments whose span is at most ``BITMAP_SPAN_FACTOR x`` their
      length (a gather into one allocation, a sequential run) come
      first: each key marks a bool in one bitmap, counted per span;
    * the others (sparse ids over a wide span) come after, sorted
      together: the spans are disjoint and in order, so each span's
      first key and every key that differs from its predecessor start
      a run of equal keys.
    """
    line_ids = np.asarray(line_ids, dtype=np.int64)
    if counts is None:
        if line_ids.size == 0:
            return LocalityProfile(0, 0)
        counts = np.array([line_ids.size])
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return LocalityProfile(0, 0, np.zeros(0, dtype=np.int64))
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    low = np.minimum.reduceat(line_ids, starts)
    span = np.maximum.reduceat(line_ids, starts) - low + 1
    dense = span <= BITMAP_SPAN_FACTOR * counts
    laid = np.where(dense, span, 0)
    base = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(laid[:-1], out=base[1:])
    if dense.all():
        keys = line_ids + np.repeat(base - low, counts)
        unique = _count_marked(keys, base, span)
    else:
        sparse = np.where(dense, 0, span)
        sparse_base = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(sparse[:-1], out=sparse_base[1:])
        base = np.where(dense, base, laid.sum() + sparse_base)
        keys = line_ids + np.repeat(base - low, counts)
        unique = np.empty(counts.size, dtype=np.int64)
        member = np.repeat(dense, counts)
        for chosen, mask, count in (
            (dense, member, _count_marked),
            (~dense, ~member, _count_sorted),
        ):
            at = np.flatnonzero(chosen)
            if at.size:
                unique[at] = count(keys[np.flatnonzero(mask)], base[at], span[at])
    return LocalityProfile(int(line_ids.size), int(unique.sum()), unique)


def _count_marked(keys: np.ndarray, base: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Distinct keys per span ``[base[k], base[k] + span[k])``, by bitmap."""
    seen = np.zeros(int(base[-1] + span[-1]), dtype=bool)
    seen[keys] = True
    if base.size == 1:
        return np.array([np.count_nonzero(seen)])
    return np.add.reduceat(seen, base, dtype=np.int64)


def _count_sorted(keys: np.ndarray, base: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Distinct keys per span, by one sort of all the keys."""
    keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    block = np.searchsorted(keys, base)
    return np.add.reduceat(first, block, dtype=np.int64)


def profile_lines_reference(line_ids: np.ndarray) -> LocalityProfile:
    """Normative reference for :func:`profile_lines`: a full ``np.unique``."""
    line_ids = np.asarray(line_ids, dtype=np.int64)
    if line_ids.size == 0:
        return LocalityProfile(0, 0)
    return LocalityProfile(int(line_ids.size), int(np.unique(line_ids).size))


def reuse_hit_rate(accesses, unique_lines, capacity_lines: float):
    """The reuse model's hit rate (``accesses > 0``), on plain numbers or
    element-wise on arrays — the same float operations either way.

    ``capacity_lines`` is the cache capacity over its line size; the
    caller has checked both are positive.
    """
    residency = np.minimum(1.0, capacity_lines / np.maximum(unique_lines, 1))
    return ((accesses - unique_lines) * residency) / accesses


def estimate_hit_rate(
    profile: LocalityProfile, capacity_bytes: int, line_bytes: int
) -> float:
    """Estimate the hit rate of ``profile`` on a cache of the given size."""
    if capacity_bytes <= 0 or line_bytes <= 0:
        raise ConfigError("cache capacity and line size must be positive")
    if profile.accesses == 0:
        return 0.0
    return reuse_hit_rate(
        profile.accesses, profile.unique_lines, capacity_bytes / line_bytes
    )


def estimate_hits(
    line_ids: np.ndarray, capacity_bytes: int, line_bytes: int
) -> int:
    """Convenience wrapper: estimated hit count for a line-id stream."""
    profile = profile_lines(line_ids)
    rate = estimate_hit_rate(profile, capacity_bytes, line_bytes)
    return int(round(rate * profile.accesses))
