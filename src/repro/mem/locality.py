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

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class LocalityProfile:
    """Reuse structure of one access stream (in cache-line units)."""

    accesses: int
    unique_lines: int

    @property
    def reuses(self) -> int:
        return self.accesses - self.unique_lines


#: A span bitmap is used when the id span is at most this many times
#: the stream length: one bool per id in the span then takes at most the
#: int64 input's own bytes.  The path also builds an n-element int64
#: array of offsets into the span, so its extra memory is at most twice
#: the input's bytes (the sort it replaces copies the input once).
BITMAP_SPAN_FACTOR = 8


def profile_lines(
    line_ids: np.ndarray,
    *,
    ids_sorted: bool | None = None,
    bounds: tuple[int, int] | None = None,
) -> LocalityProfile:
    """Measure the reuse structure of a stream of line ids.

    Counts the distinct ids in O(n) on the streams real runs produce,
    choosing the path from the ids themselves; every path returns
    exactly what :func:`profile_lines_reference` returns:

    * non-decreasing ids (a sequential walk, a sorted gather): each
      distinct id is one step of the sorted run, so the count is one
      plus the number of nonzero steps;
    * ids inside a span of at most ``BITMAP_SPAN_FACTOR x n`` (a gather
      into one allocation): mark each id in a bool bitmap over the span
      and count the marks;
    * anything else (sparse ids over a wide span): sort them, then
      count as for non-decreasing ids.

    A caller that already knows whether the ids are non-decreasing
    (``ids_sorted``; False may also mean "not known") or their
    ``(min, max)`` (``bounds``) passes them, and the ids are not scanned
    for them again.
    """
    line_ids = np.asarray(line_ids, dtype=np.int64)
    n = line_ids.size
    if n == 0:
        return LocalityProfile(0, 0)
    if ids_sorted is None:
        ids_sorted = not (line_ids[1:] < line_ids[:-1]).any()
    if not ids_sorted:
        if bounds is None:
            bounds = (int(line_ids.min()), int(line_ids.max()))
        low, high = bounds
        span = high - low + 1
        if span <= BITMAP_SPAN_FACTOR * n:
            seen = np.zeros(span, dtype=bool)
            seen[line_ids - low] = True
            return LocalityProfile(n, int(np.count_nonzero(seen)))
        line_ids = np.sort(line_ids)
    return LocalityProfile(n, 1 + int(np.count_nonzero(line_ids[1:] != line_ids[:-1])))


def profile_lines_reference(line_ids: np.ndarray) -> LocalityProfile:
    """Normative reference for :func:`profile_lines`: a full ``np.unique``."""
    line_ids = np.asarray(line_ids, dtype=np.int64)
    if line_ids.size == 0:
        return LocalityProfile(0, 0)
    return LocalityProfile(int(line_ids.size), int(np.unique(line_ids).size))


def reuse_hit_rate(accesses: int, unique_lines: int, capacity_lines: float) -> float:
    """The reuse model's hit rate on plain numbers (``accesses > 0``).

    ``capacity_lines`` is the cache capacity over its line size; the
    caller has checked both are positive.
    """
    residency = min(1.0, capacity_lines / max(unique_lines, 1))
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
