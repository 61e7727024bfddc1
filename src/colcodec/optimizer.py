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

Indirect's block size is the argmin of its exact encoded size. For each
candidate, the column is cut into a (blocks, b) array as the encoder cuts
it (``encodings.indirect_blocks``) and each row is sorted, so a row's
distinct IDs k and run lengths c come from comparing neighbours. A block
costs what ``encode_indirect`` stores for it, priced by the encoder's own
rule, ``encodings.indirect_block_bits``: its local dictionary, local IDs and
64-bit local-dictionary count when that pays, else its IDs at global width
W. One tag bit per block and the 64-bit indirect-block count are added.

The paper's own indirect objective, the mean b-ary block entropy, is still
reported: entropy is summed over full aligned blocks only (a trailing
partial block contributes nothing) and divided by ceil(N/b) blocks, so a
long partial tail deflates the mean. ``mean_block_entropy`` is its one
body: it cuts the full blocks into a (blocks, b) array, sorts each row, and
scores every row from its run lengths at once; ``entropy_sweep`` calls it
per candidate.

Ties break toward the smallest candidate in every sweep; an array where no
block ever clusters yields (b=2, F=0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dictionary import run_lengths
from .encodings import COUNT_BITS, check_block_size, indirect_block_bits, indirect_blocks, run_starts
from .errors import EmptyColumnError

__all__ = [
    "ClusterObjective",
    "EntropyObjective",
    "IndirectObjective",
    "VisitCounter",
    "candidate_block_sizes",
    "clustered_block_count_oracle",
    "cluster_sweep",
    "best_cluster",
    "optimal_cluster_block_size",
    "mean_block_entropy",
    "mean_block_entropy_oracle",
    "entropy_sweep",
    "best_entropy",
    "optimal_indirect_block_size",
    "indirect_size_sweep",
    "best_indirect",
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


@dataclass(frozen=True)
class IndirectObjective:
    b: int
    bits: int  # encoded_size_bits of indirect at this b


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


def _clustered_from_counts(offsets: np.ndarray, counts: np.ndarray, block_size: int) -> int:
    # offsets holds the rows before each run. block_size is a power of two
    # (candidate_block_sizes), so (b - r % b) % b is -r & (b - 1), and // b is
    # >> log2(b).
    usable = counts - (-offsets & (block_size - 1))
    return int((usable[usable > 0] >> (block_size.bit_length() - 1)).sum())


def clustered_block_count_oracle(ids: Sequence[int], block_size: int) -> int:
    """Reference count by walking every aligned full block."""
    check_block_size(block_size)
    ids = list(ids)
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
    ids: Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> list[ClusterObjective]:
    """Evaluate F(b) for every candidate block size, ascending."""
    candidates = candidate_block_sizes(len(ids), sqrt_bound)
    _, counts = run_lengths(ids)
    offsets = np.cumsum(counts) - counts  # rows before each run, the same for every b
    if counter:
        counter.add(len(ids))  # one pass to derive the runs
    objectives = []
    for b in candidates:
        s = _clustered_from_counts(offsets, counts, b)
        if counter:
            counter.add(len(counts))  # each run record touched once per candidate
        objectives.append(ClusterObjective(b=b, s=s, f=s * (b - 1)))
    return objectives


def best_cluster(sweep: Sequence[ClusterObjective]) -> ClusterObjective:
    """The sweep's largest F; of equal ones, the first (smallest b)."""
    return max(sweep, key=lambda o: o.f)


def optimal_cluster_block_size(
    ids: Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> ClusterObjective:
    """argmax of F(b); the smallest candidate wins ties."""
    return best_cluster(cluster_sweep(ids, sqrt_bound=sqrt_bound, counter=counter))


def _row_entropy_bits(rows: np.ndarray) -> np.ndarray:
    """Each row's empirical Shannon entropy times its length, in bits.

    A row of m IDs whose sorted runs have lengths c holds
    m*log2 m - sum c*log2 c bits. log2 is exact on powers of two, so over
    b = 2^k rows a constant block scores 0 and b distinct values b*k.
    """
    m = rows.shape[1]
    rows = np.sort(rows, axis=1)
    starts = np.flatnonzero(run_starts(rows))
    c = np.diff(starts, append=rows.size)
    return m * math.log2(m) - np.bincount(starts // m, weights=c * np.log2(c), minlength=len(rows))


def mean_block_entropy(ids: Sequence[int], block_size: int) -> EntropyObjective:
    """Mean b-ary entropy: full blocks summed, ceil(N/b) in the denominator."""
    check_block_size(block_size)
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    bits = _row_entropy_bits(ids[: n - n % block_size].reshape(-1, block_size))
    total = float((bits / (block_size * math.log2(block_size))).sum())
    blocks = -(-n // block_size)
    return EntropyObjective(b=block_size, mean_entropy=total / blocks if blocks else 0.0)


def entropy_sweep(
    ids: Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> list[EntropyObjective]:
    """``mean_block_entropy`` at every candidate block size, ascending."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    objectives = []
    for b in candidate_block_sizes(n, sqrt_bound):
        objectives.append(mean_block_entropy(ids, b))
        if counter:
            counter.add(n - n % b)  # rows inside scored blocks
    return objectives


def best_entropy(sweep: Sequence[EntropyObjective]) -> EntropyObjective:
    """The sweep's smallest mean entropy; of equal ones, the first (smallest b)."""
    return min(sweep, key=lambda o: o.mean_entropy)


def optimal_indirect_block_size(
    ids: Sequence[int],
    *,
    sqrt_bound: bool = False,
    counter: VisitCounter | None = None,
) -> EntropyObjective:
    """argmin of the mean block entropy; the smallest candidate wins ties.

    This is the paper's objective, reported by ``analyze``; ``compress``
    takes indirect's block size from ``indirect_size_sweep`` instead.
    """
    return best_entropy(entropy_sweep(ids, sqrt_bound=sqrt_bound, counter=counter))


def indirect_size_sweep(
    ids: Sequence[int], width: int, *, sqrt_bound: bool = False
) -> list[IndirectObjective]:
    """Exact indirect size in bits at every candidate, ascending.

    ``width`` is the global ID width W the column is encoded at. Each value
    equals ``encoded_size_bits(encode_array(..., SchemeKind.INDIRECT, b))``
    without encoding the column.
    """
    ids = np.asarray(ids, dtype=np.int64)
    objectives = []
    for b in candidate_block_sizes(len(ids), sqrt_bound):
        rows, sizes = indirect_blocks(ids, b)
        k = np.count_nonzero(run_starts(np.sort(rows, axis=1)), axis=1)
        bits = int(indirect_block_bits(k, sizes, width)[1].sum())
        bits += COUNT_BITS + len(rows)  # the indirect-block count, one tag bit per block
        objectives.append(IndirectObjective(b=b, bits=bits))
    return objectives


def best_indirect(sweep: Sequence[IndirectObjective]) -> IndirectObjective:
    """The sweep's smallest size; of equal ones, the first (smallest b)."""
    return min(sweep, key=lambda o: o.bits)
