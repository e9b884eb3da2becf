"""Arithmetic of the benchmark: percentiles, medians, interval unions,
ledgers.

Kept free of any ``repro`` import so the tests in ``tagbench/tests``
check it without the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it (so p50 needs 20 samples and p90 needs 100).
MIN_BEYOND = 10


def min_samples_for(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples above ``q``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or None when the sample is short.

    Nearest rank keeps the value a measured sample (never an
    interpolation between two runs' numbers).
    """
    if len(values) < min_samples_for(q):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def weighted_median(values: Sequence[float],
                    weights: Sequence[float]) -> Optional[float]:
    """The value at half the total weight, or None without any weight.

    The lower weighted median: the smallest value whose own weight and
    the weight of every smaller value reach half the total, so the
    result is always a measured sample.
    """
    pairs = sorted(zip(values, weights))
    total = sum(w for _v, w in pairs)
    if total <= 0:
        return None
    covered = 0.0
    for value, weight in pairs:
        covered += weight
        if covered >= total / 2.0:
            return float(value)
    return float(pairs[-1][0])


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quantile method."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def clip(
    intervals: Iterable[Tuple[float, float]], start: float, end: float
) -> List[Tuple[float, float]]:
    """Intervals intersected with ``[start, end]`` (empty ones dropped)."""
    clipped = []
    for a, b in intervals:
        a, b = max(a, start), min(b, end)
        if b > a:
            clipped.append((a, b))
    return clipped


def ledger_violations(deployment_id: str, ledger: dict) -> List[str]:
    """Broken identities of one deployment's fleet report ledger.

    ``offered == shed + pending + delivered + lost_in_crash`` must hold
    exactly, as must ``received == accepted + quarantined`` for the
    reports the serving tier validated.
    """
    problems = []
    buckets = (
        ledger["shed"]
        + ledger["pending"]
        + ledger["delivered"]
        + ledger["lost_in_crash"]
    )
    if ledger["offered"] != buckets:
        problems.append(
            f"{deployment_id}: offered {ledger['offered']} != shed "
            f"{ledger['shed']} + pending {ledger['pending']} + delivered "
            f"{ledger['delivered']} + lost_in_crash "
            f"{ledger['lost_in_crash']} = {buckets}"
        )
    if ledger["received"] != ledger["accepted"] + ledger["quarantined"]:
        problems.append(
            f"{deployment_id}: received {ledger['received']} != accepted "
            f"{ledger['accepted']} + quarantined {ledger['quarantined']}"
        )
    return problems


def stream_violations(stream: str, received: int, accepted: int,
                      quarantined: int) -> List[str]:
    """``received == accepted + quarantined`` for one validated stream."""
    if received == accepted + quarantined:
        return []
    return [
        f"{stream}: received {received} != accepted {accepted} + "
        f"quarantined {quarantined}"
    ]
