"""Block-size selection for the cluster and indirect encodings.

Both optimizers sweep the same candidate set, powers of two from 2 up to
2^floor(log2 N).

Cluster aims to maximize F(b) = S(b) * (b - 1), the IDs saved by replacing
S single-valued full blocks of size b. S is computed from the run-length
view without touching individual rows: a run entering a block r rows past
its start first spends (b - r) % b rows finishing that straddling block
(which then holds two values and cannot count), after which every full b
rows close one single-valued block. Runs are maximal, so blocks never
cluster across run boundaries.

Indirect aims to minimize the mean b-ary block entropy: entropy is summed
over full aligned blocks only (a trailing partial block contributes
nothing) and divided by ceil(N/b) blocks, deliberately deflating the mean
when the tail is short.

Ties break toward the smallest candidate in both sweeps; an array where no
block ever clusters yields (b=2, F=0).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dictionary import RunLengthView, ValueIdArray, run_lengths
from .encodings import check_block_size
from .errors import EmptyColumnError

__all__ = [
    "ClusterObjective",
    "EntropyObjective",
    "VisitCounter",
    "candidate_block_sizes",
    "clustered_block_count",
    "clustered_block_count_oracle",
    "cluster_sweep",
    "best_cluster",
    "optimal_cluster_block_size",
    "block_entropy",
    "mean_block_entropy",
    "mean_block_entropy_oracle",
    "entropy_sweep",
    "best_entropy",
    "optimal_indirect_block_size",
]


@dataclass(frozen=True)
class ClusterObjective:
    b: int
    s: int  # single-valued full blocks at this b
    f: int  # s * (b - 1), IDs saved


@dataclass(frozen=True)
class EntropyObjective:
    b: int
    mean_entropy: float


class VisitCounter:
    """Tallies run/row records examined during optimizer sweeps."""

    def __init__(self) -> None:
        self.visits = 0

    def add(self, n: int) -> None:
        self.visits += n


def candidate_block_sizes(n: int, sqrt_bound: bool = False) -> list[int]:
    """Powers of two from 2 through 2^floor(log2 n), ascending.

    With sqrt_bound, candidates are limited to b*b <= n; the smallest
    candidate is kept even when the bound would reject everything.
    """
    if n < 2:
        raise EmptyColumnError(f"block-size optimization needs at least 2 rows, got {n}")
    candidates = [1 << i for i in range(1, n.bit_length())]
    if sqrt_bound:
        kept = [b for b in candidates if b * b <= n]
        candidates = kept or candidates[:1]
    return candidates


def _ids_of(array: ValueIdArray | Sequence[int]) -> Sequence[int]:
    return getattr(array, "ids", array)


def _clustered_from_counts(counts: np.ndarray, block_size: int) -> int:
    if counts.size == 0:
        return 0
    offsets = np.cumsum(counts) - counts  # rows before each run
    lead = (block_size - offsets % block_size) % block_size
    usable = counts - lead
    return int((usable[usable > 0] // block_size).sum())


def clustered_block_count(runs: RunLengthView, block_size: int) -> int:
    """Single-valued full blocks at this block size, from the runs alone."""
    check_block_size(block_size)
    counts = np.fromiter((c for _, c in runs.runs), dtype=np.int64, count=len(runs.runs))
    return _clustered_from_counts(counts, block_size)


def clustered_block_count_oracle(ids: Sequence[int], block_size: int) -> int:
    """Reference count by walking every aligned full block."""
    check_block_size(block_size)
    ids = list(_ids_of(ids))
    s = 0
    for start in range(0, len(ids) - block_size + 1, block_size):
        block = ids[start : start + block_size]
        if block.count(block[0]) == block_size:
            s += 1
    return s


def mean_block_entropy_oracle(ids: Sequence[int], b: int) -> float:
    """Reference mean block entropy: natural-log histograms, same block walk."""
    n = len(ids)
    total = 0.0
    for start in range(0, n - b + 1, b):
        block = ids[start : start + b]
        freqs: dict[int, int] = {}
        for v in block:
            freqs[v] = freqs.get(v, 0) + 1
        h = 0.0
        for c in freqs.values():
            p = c / len(block)
            h -= p * math.log(p)
        total += h / math.log(b)
    return total / math.ceil(n / b)


def cluster_sweep(
    array: ValueIdArray | Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> list[ClusterObjective]:
    """Evaluate F(b) for every candidate block size, ascending."""
    ids = _ids_of(array)
    candidates = candidate_block_sizes(len(ids), sqrt_bound)
    _, counts = run_lengths(ids)
    if counter:
        counter.add(len(ids))  # one pass to derive the runs
    objectives = []
    for b in candidates:
        s = _clustered_from_counts(counts, b)
        if counter:
            counter.add(len(counts))  # each run record touched once per candidate
        objectives.append(ClusterObjective(b=b, s=s, f=s * (b - 1)))
    return objectives


def best_cluster(sweep: Sequence[ClusterObjective]) -> ClusterObjective:
    """The sweep's largest F; of equal ones, the first (smallest b)."""
    return max(sweep, key=lambda o: o.f)


def optimal_cluster_block_size(
    array: ValueIdArray | Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> ClusterObjective:
    """argmax of F(b); the smallest candidate wins ties."""
    return best_cluster(cluster_sweep(array, sqrt_bound=sqrt_bound, counter=counter))


def block_entropy(block: Sequence[int], base: int) -> float:
    """Empirical Shannon entropy of the block in the given log base.

    log2 ratios keep the power-of-two fixtures exact: a constant block
    scores 0.0 and a block of ``base`` distinct values scores 1.0.
    """
    n = len(block)
    if n == 0:
        raise EmptyColumnError("cannot take the entropy of an empty block")
    h = 0.0
    for count in Counter(block).values():
        p = count / n
        h -= p * math.log2(p)
    return h / math.log2(base)


def mean_block_entropy(array: ValueIdArray | Sequence[int], block_size: int) -> EntropyObjective:
    """Mean b-ary entropy: full blocks summed, ceil(N/b) in the denominator."""
    check_block_size(block_size)
    ids = _ids_of(array)
    n = len(ids)
    total = 0.0
    for start in range(0, n - block_size + 1, block_size):
        total += block_entropy(ids[start : start + block_size], block_size)
    blocks = -(-n // block_size)
    return EntropyObjective(b=block_size, mean_entropy=total / blocks if blocks else 0.0)


def entropy_sweep(
    array: ValueIdArray | Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> list[EntropyObjective]:
    """Evaluate the mean block entropy for every candidate, ascending."""
    ids = _ids_of(array)
    candidates = candidate_block_sizes(len(ids), sqrt_bound)
    objectives = []
    for b in candidates:
        objectives.append(mean_block_entropy(ids, b))
        if counter:
            counter.add((len(ids) // b) * b)  # rows inside scored blocks
    return objectives


def best_entropy(sweep: Sequence[EntropyObjective]) -> EntropyObjective:
    """The sweep's smallest mean entropy; of equal ones, the first (smallest b)."""
    return min(sweep, key=lambda o: o.mean_entropy)


def optimal_indirect_block_size(
    array: ValueIdArray | Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> EntropyObjective:
    """argmin of the mean block entropy; the smallest candidate wins ties."""
    return best_entropy(entropy_sweep(array, sqrt_bound=sqrt_bound, counter=counter))
