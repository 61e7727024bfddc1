"""Scheme selection from cheap column statistics.

The decision walks a fixed branch order; the first match wins:

1. all values distinct      -> affine if strictly sequential, else nothing
2. sorted (non-decreasing)  -> rle
3. leading run longer than 2 (and more than one distinct value) -> prefix
4. sparsity > x             -> sparse
5. avg repetition > y       -> cluster when the optimizer's single-valued
                               blocks cover more than z of the rows, else
                               indirect at the exact-size optimum
6. otherwise                -> no compression

avg repetition is n / distinct, a value's mean frequency, and sparsity is
max_freq / avg repetition. The x, y, z defaults (10, 2, 0.5) are
workload-tuned constants with no deeper justification, so every report
should surface them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import optimizer
from .dictionary import id_width_bits, run_lengths
from .encodings import SchemeKind
from .errors import EmptyColumnError
from .optimizer import ClusterObjective, IndirectObjective

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
    block_size: int | None = None
    cluster_coverage: float | None = None  # S * b / n at the optimal b


def compute_stats(ids: Sequence[int]) -> ColumnStats:
    n = len(ids)
    if n == 0:
        raise EmptyColumnError("cannot compute stats of an empty column")
    values, lengths = run_lengths(ids)
    # A value's frequency is the sum of its runs' lengths: sort the runs by
    # value and add up the lengths of each value's runs.
    order = np.argsort(values)
    firsts = np.append(0, np.flatnonzero(np.diff(values[order])) + 1)
    distinct = len(firsts)
    max_freq = int(np.add.reduceat(lengths[order], firsts).max())
    # Runs are maximal: sorted iff run values strictly increase, and
    # sequential iff every run is one row and every step is +1 (or every -1).
    steps = np.diff(values)
    is_sequential = n >= 2 and len(lengths) == n and (
        bool((steps == 1).all()) or bool((steps == -1).all())
    )

    avg_repetition = n / distinct
    return ColumnStats(
        n=n,
        distinct=distinct,
        is_sorted=bool((steps > 0).all()),
        is_sequential=is_sequential,
        leading_run=int(lengths[0]),
        max_freq=max_freq,
        sparsity=max_freq / avg_repetition,
        avg_repetition=avg_repetition,
    )


def decide_scheme(
    stats: ColumnStats,
    ids: Sequence[int],
    params: HeuristicParams = HeuristicParams(),
    *,
    sqrt_bound: bool = False,
    sweeps: tuple[list[ClusterObjective], list[IndirectObjective]] | None = None,
) -> SchemeDecision:
    """Pick a scheme for the column; deterministic in (stats, ids, params).

    ``sweeps``, when given, holds this column's cluster and indirect size
    sweeps under the same ``sqrt_bound``; the block sizes are then taken
    from them instead of sweeping again. Indirect sizes are taken at the
    width of the largest ID. Every dictionary value occurs in a column that
    ``encode_column`` built, so that is the dictionary's ID width.
    """
    cluster_trace, indirect_trace = sweeps or (None, None)

    if stats.distinct == stats.n:
        scheme = SchemeKind.AFFINE if stats.is_sequential else SchemeKind.RAW
        return SchemeDecision(scheme=scheme)
    if stats.is_sorted:
        return SchemeDecision(scheme=SchemeKind.RLE)
    if stats.leading_run > 2 and stats.distinct > 1:
        return SchemeDecision(scheme=SchemeKind.PREFIX)
    if stats.sparsity > params.x:
        return SchemeDecision(scheme=SchemeKind.SPARSE)
    if stats.avg_repetition > params.y:
        # distinct < n here, so n >= 2 and the optimizers are defined
        cluster = optimizer.best_cluster(
            cluster_trace or optimizer.cluster_sweep(ids, sqrt_bound=sqrt_bound)
        )
        coverage = cluster.s * cluster.b / stats.n
        if coverage > params.z:
            return SchemeDecision(
                scheme=SchemeKind.CLUSTER, block_size=cluster.b, cluster_coverage=coverage
            )
        width = id_width_bits(int(np.max(ids)) + 1)
        indirect = optimizer.best_indirect(
            indirect_trace or optimizer.indirect_size_sweep(ids, width, sqrt_bound=sqrt_bound)
        )
        return SchemeDecision(
            scheme=SchemeKind.INDIRECT, block_size=indirect.b, cluster_coverage=coverage
        )
    return SchemeDecision(scheme=SchemeKind.RAW)
