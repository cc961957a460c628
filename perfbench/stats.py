"""Percentiles with a sample guard, and span self-time arithmetic.

Standard library only, so that no change to the program under test can
change how its numbers are summarised.
"""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10
#: A run must answer every request of its stream at least this many times.
MIN_REPEATS = 3


def supports(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_TAIL` beyond ``q``."""
    return round(n * (1.0 - q), 9) >= MIN_TAIL


def percentile(values: list[float], q: float) -> float | None:
    """The ``q`` quantile (linear interpolation), or ``None`` when fewer than
    :data:`MIN_TAIL` samples lie beyond it."""
    if not values or not supports(len(values), q):
        return None
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float | None:
    """Median of the values (``None`` when there are none); no tail guard,
    for repeated set-up times and other small samples."""
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def best_per_request(samples: list[tuple[int, float]]) -> dict[int, float]:
    """The fastest correct answer of each request: ``samples`` are
    ``(request, seconds)`` pairs, a failed answer with seconds < 0."""
    best: dict[int, float] = {}
    for request, seconds in samples:
        if seconds >= 0 and (request not in best or seconds < best[request]):
            best[request] = seconds
    return best


def min_repeats(samples: list[tuple[int, float]], requests: int) -> int:
    """How often the least-answered of ``requests`` requests (numbered
    ``0 .. requests - 1``) was answered correctly."""
    counts = [0] * requests
    for request, seconds in samples:
        if seconds >= 0:
            counts[request] += 1
    return min(counts)


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    current_start = current_end = None
    for s, e in clipped:
        if current_end is None or s > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = s, e
        else:
            current_end = max(current_end, e)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    that its child spans cover.  A span is ``{"id", "parent", "start",
    "end"}``; ``parent`` is ``None`` for a root."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }
