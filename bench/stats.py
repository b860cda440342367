"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile asked of a sample too small to support it."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, refused unless at least ten samples lie
    beyond it: the p90 of n samples needs n >= 100, the median n >= 20."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100: {pct}")
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has {n - rank} beyond it; "
            f"at least {MIN_BEYOND} are needed")
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> list[float]:
    return statistics.quantiles(values, n=4)


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles, as a share of the
    median (the spread the benchmark's bounds are judged against)."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)
