"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

#: A tail percentile is reported only with at least this many ops beyond it.
TAIL_MIN_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    beyond: int
    samples: int


def tail(values: Sequence[float], min_beyond: int = TAIL_MIN_BEYOND) -> Tail:
    """The highest nearest-rank percentile with *min_beyond* values above it.

    With too few values for that percentile to reach the median, the
    median is reported instead (rank ``ceil(n/2)``), so the tail never
    reads below the median.
    """
    if not values:
        raise ValueError("tail of no values")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - min_beyond, math.ceil(n / 2))
    return Tail(ordered[rank - 1], 100.0 * rank / n, n - rank, n)


def failed_share(attempted: int, failed: int) -> float:
    """Failed ops over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted
