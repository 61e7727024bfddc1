"""Scheme selection from cheap column statistics.

The decision walks a fixed branch order; the first match wins:

1. all values distinct      -> affine if strictly sequential, else nothing
2. sorted (non-decreasing)  -> rle
3. leading run longer than 2 (and more than one distinct value) -> prefix
4. sparsity > x             -> sparse
5. avg repetition > y       -> cluster when the optimizer's single-valued
                               blocks cover more than z of the rows, else
                               indirect at the entropy optimizer's block size
6. otherwise                -> no compression

avg repetition is n / distinct, a value's mean frequency, and sparsity is
max_freq / avg repetition. The x, y, z defaults (10, 2, 0.5) are
workload-tuned constants with no deeper justification, so every report
should surface them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from . import optimizer
from .dictionary import ValueIdArray
from .encodings import SchemeKind
from .errors import EmptyColumnError
from .optimizer import ClusterObjective, EntropyObjective

__all__ = [
    "ColumnStats",
    "HeuristicParams",
    "SchemeDecision",
    "compute_stats",
    "decide_scheme",
]


@dataclass(frozen=True)
class ColumnStats:
    n: int
    distinct: int
    is_sorted: bool  # non-decreasing
    is_sequential: bool  # stride +1 or -1 throughout, needs n >= 2
    leading_run: int
    max_freq: int
    sparsity: float  # max_freq / avg_repetition
    avg_repetition: float  # n / distinct


@dataclass(frozen=True)
class HeuristicParams:
    x: float = 10.0  # sparsity threshold
    y: float = 2.0  # average-repetition threshold
    z: float = 0.5  # clustered-row coverage threshold

    def __post_init__(self) -> None:
        if not self.x > 1:
            raise ValueError(f"x must be > 1, got {self.x}")
        if not self.y > 1:
            raise ValueError(f"y must be > 1, got {self.y}")
        if not 0 < self.z < 1:
            raise ValueError(f"z must be in (0, 1), got {self.z}")


@dataclass(frozen=True)
class SchemeDecision:
    scheme: SchemeKind
    stats: ColumnStats
    params: HeuristicParams
    block_size: int | None = None
    cluster_objective: ClusterObjective | None = None
    entropy_objective: EntropyObjective | None = None
    cluster_coverage: float | None = None  # S * b / n at the optimal b


def compute_stats(array: ValueIdArray | Sequence[int]) -> ColumnStats:
    ids = getattr(array, "ids", array)
    n = len(ids)
    if n == 0:
        raise EmptyColumnError("cannot compute stats of an empty column")
    freqs = Counter(ids)
    distinct = len(freqs)
    max_freq = max(freqs.values())

    leading_run = 1
    while leading_run < n and ids[leading_run] == ids[0]:
        leading_run += 1

    is_sorted = True
    ascending = descending = n >= 2
    for i in range(1, n):
        delta = ids[i] - ids[i - 1]
        if delta < 0:
            is_sorted = False
        if delta != 1:
            ascending = False
        if delta != -1:
            descending = False

    avg_repetition = n / distinct
    return ColumnStats(
        n=n,
        distinct=distinct,
        is_sorted=is_sorted,
        is_sequential=ascending or descending,
        leading_run=leading_run,
        max_freq=max_freq,
        sparsity=max_freq / avg_repetition,
        avg_repetition=avg_repetition,
    )


def decide_scheme(
    stats: ColumnStats,
    array: ValueIdArray | Sequence[int],
    params: HeuristicParams = HeuristicParams(),
    *,
    sqrt_bound: bool = False,
    sweeps: tuple[list[ClusterObjective], list[EntropyObjective]] | None = None,
) -> SchemeDecision:
    """Pick a scheme for the column; deterministic in (stats, ids, params).

    ``sweeps``, when given, holds this column's cluster and entropy sweeps
    under the same ``sqrt_bound``; the block sizes are then taken from them
    instead of sweeping again.
    """
    ids = getattr(array, "ids", array)
    cluster_trace, entropy_trace = sweeps or (None, None)

    if stats.distinct == stats.n:
        scheme = SchemeKind.AFFINE if stats.is_sequential else SchemeKind.RAW
        return SchemeDecision(scheme=scheme, stats=stats, params=params)
    if stats.is_sorted:
        return SchemeDecision(scheme=SchemeKind.RLE, stats=stats, params=params)
    if stats.leading_run > 2 and stats.distinct > 1:
        return SchemeDecision(scheme=SchemeKind.PREFIX, stats=stats, params=params)
    if stats.sparsity > params.x:
        return SchemeDecision(scheme=SchemeKind.SPARSE, stats=stats, params=params)
    if stats.avg_repetition > params.y:
        # distinct < n here, so n >= 2 and the optimizers are defined
        cluster = optimizer.best_cluster(
            cluster_trace or optimizer.cluster_sweep(ids, sqrt_bound=sqrt_bound)
        )
        coverage = cluster.s * cluster.b / stats.n
        if coverage > params.z:
            return SchemeDecision(
                scheme=SchemeKind.CLUSTER,
                stats=stats,
                params=params,
                block_size=cluster.b,
                cluster_objective=cluster,
                cluster_coverage=coverage,
            )
        entropy = optimizer.best_entropy(
            entropy_trace or optimizer.entropy_sweep(ids, sqrt_bound=sqrt_bound)
        )
        return SchemeDecision(
            scheme=SchemeKind.INDIRECT,
            stats=stats,
            params=params,
            block_size=entropy.b,
            cluster_objective=cluster,
            entropy_objective=entropy,
            cluster_coverage=coverage,
        )
    return SchemeDecision(scheme=SchemeKind.RAW, stats=stats, params=params)
