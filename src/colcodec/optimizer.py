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

Indirect's statistics come from one walk over (ID, block) segments, with no
sort per candidate. One stable argsort ranks the rows by ID and keeps each
ID's rows in row order, so the rows an ID holds in one block are one
contiguous segment of that ranking, for any b. Its length is the ID's count
c in the block. Candidates double, so each keeps a subset of the previous
candidate's segment starts. Per candidate, the segments per block give the
block's distinct IDs k, and within a block they come in ascending ID order,
as the runs of the block sorted as a row would.

Indirect's block size is the argmin of its exact encoded size. A block costs
what the indirect encoder stores for it, priced by the encoder's own rule,
``encodings.indirect_block_bits``: its local dictionary, local IDs and
64-bit local-dictionary count when that pays, else its IDs at global width
W. The trailing partial block is priced at its own row count. One tag bit
per block and the 64-bit indirect-block count are added.

The paper's own indirect objective, the mean b-ary block entropy, is still
reported: entropy is summed over full aligned blocks only (a trailing
partial block contributes nothing) and divided by ceil(N/b) blocks, so a
long partial tail deflates the mean. A full block holds
b*log2 b - sum c*log2 c bits. ``indirect_sweeps`` gives both traces from one
walk; ``entropy_sweep``, ``indirect_size_sweep`` and ``mean_block_entropy``
read the same walk.

Ties break toward the smallest candidate in every sweep; an array where no
block ever clusters yields (b=2, F=0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .dictionary import run_lengths
from .encodings import COUNT_BITS, _block_rows, check_block_size, indirect_block_bits
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
    "indirect_sweeps",
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
    """Reference mean block entropy by natural logs, on the aligned block walk.

    Each full block is sorted as a row of one array, and each ID's share p of
    its block is read off where the row's runs start: the per-row form, not
    the segment walk the sweeps use.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    rows = np.sort(ids[: n - n % b].reshape(-1, b), axis=1)
    new = np.ones(rows.shape, dtype=bool)
    new[:, 1:] = rows[:, 1:] != rows[:, :-1]
    starts = np.flatnonzero(new)
    p = np.diff(starts, append=rows.size) / b
    h = -np.bincount(starts // b, weights=p * np.log(p), minlength=len(rows))
    return float((h / math.log(b)).sum()) / math.ceil(n / b)


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


def _sort_keys(ids: np.ndarray) -> np.ndarray:
    """The IDs at the narrowest unsigned dtype that holds them, where a
    stable argsort of uint8 or uint16 is a radix sort; int64 when one is
    negative."""
    if len(ids) and ids.min() >= 0:
        top = ids.max()
        for dtype in (np.uint8, np.uint16, np.uint32):
            if top <= np.iinfo(dtype).max:
                return ids.astype(dtype)
    return ids


def _segments(
    ids: np.ndarray, candidates: Sequence[int]
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per candidate b, ascending: each (ID, block) segment's block and row count.

    Rows at positions r and s share a block of b = 2^e rows iff r ^ s < b. So
    a ranked row starts a segment at every b up to its reach: where it holds
    a new ID, every b, else its position XOR that of the row ranked before it.
    """
    n = len(ids)
    keys = _sort_keys(ids)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    del keys
    # Below 2**32 rows, ranks, rows and their XORs fit uint32, which halves
    # the walk's memory, and uint32's top stays above every block size.
    starts = np.empty((3, n), dtype=np.uint32 if n < 1 << 32 else np.int64)
    rank, reach, row = starts  # per segment start
    row[:] = order
    del order
    rank[:] = np.arange(n, dtype=starts.dtype)
    new_id = np.iinfo(starts.dtype).max
    reach[:1] = new_id
    np.bitwise_xor(row[1:], row[:-1], out=reach[1:])
    reach[1:][ranked[1:] != ranked[:-1]] = new_id
    del ranked, reach  # reach is a view: it would keep the first stack alive
    for b in candidates:
        # One take along the stacked rows filters all three at once.
        starts = np.compress(starts[1] >= b, starts, axis=1)
        rank, _, row = starts
        yield b, row >> (b.bit_length() - 1), np.diff(rank, append=n)


def _mean_entropy(n: int, b: int, block: np.ndarray, c: np.ndarray) -> float:
    """Full blocks' b-ary entropy summed, over ceil(N/b) blocks.

    A full block whose IDs occur c times each holds b*log2 b - sum c*log2 c
    bits. log2 is exact on powers of two, so a constant block scores 0 and
    b distinct values b*log2 b.
    """
    full = n // b
    held = np.log2(c)
    held *= c  # c*log2 c, in place
    bits = b * math.log2(b) - np.bincount(block, weights=held, minlength=full)[:full]
    total = float((bits / (b * math.log2(b))).sum())
    blocks = -(-n // b)
    return total / blocks if blocks else 0.0


def _indirect_bits(n: int, b: int, block: np.ndarray, width: int) -> int:
    """encoded_size_bits of indirect at b: each block's bits by the encoder's
    rule, the indirect-block count, and one tag bit per block."""
    k = np.bincount(block)  # every block holds a segment, so one count per block
    return int(indirect_block_bits(k, _block_rows(n, b), width)[1].sum()) + COUNT_BITS + len(k)


def mean_block_entropy(ids: Sequence[int], block_size: int) -> EntropyObjective:
    """Mean b-ary entropy: full blocks summed, ceil(N/b) in the denominator."""
    check_block_size(block_size)
    ids = np.asarray(ids, dtype=np.int64)
    ((_, block, c),) = _segments(ids, [block_size])
    return EntropyObjective(b=block_size, mean_entropy=_mean_entropy(len(ids), block_size, block, c))


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
    for b, block, c in _segments(ids, candidate_block_sizes(n, sqrt_bound)):
        objectives.append(EntropyObjective(b=b, mean_entropy=_mean_entropy(n, b, block, c)))
        if counter:
            counter.add(n - n % b)  # rows inside scored blocks
    return objectives


def best_entropy(sweep: Sequence[EntropyObjective]) -> EntropyObjective:
    """The sweep's smallest mean entropy; of equal ones, the first (smallest b)."""
    return min(sweep, key=lambda o: o.mean_entropy)


def optimal_indirect_block_size(
    ids: Sequence[int], *, sqrt_bound: bool = False
) -> EntropyObjective:
    """argmin of the mean block entropy; the smallest candidate wins ties.

    This is the paper's objective, reported by ``analyze``; ``compress``
    takes indirect's block size from ``indirect_size_sweep`` instead.
    """
    return best_entropy(entropy_sweep(ids, sqrt_bound=sqrt_bound))


def indirect_size_sweep(
    ids: Sequence[int], width: int, *, sqrt_bound: bool = False
) -> list[IndirectObjective]:
    """Exact indirect size in bits at every candidate, ascending.

    ``width`` is the global ID width W the column is encoded at. Each value
    equals ``encoded_size_bits(encode_array(..., SchemeKind.INDIRECT, b))``
    without encoding the column.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    return [
        IndirectObjective(b=b, bits=_indirect_bits(n, b, block, width))
        for b, block, _ in _segments(ids, candidate_block_sizes(n, sqrt_bound))
    ]


def indirect_sweeps(
    ids: Sequence[int], width: int, *, sqrt_bound: bool = False
) -> tuple[list[EntropyObjective], list[IndirectObjective]]:
    """``entropy_sweep`` and ``indirect_size_sweep`` from one walk."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    entropies, sizes = [], []
    for b, block, c in _segments(ids, candidate_block_sizes(n, sqrt_bound)):
        entropies.append(EntropyObjective(b=b, mean_entropy=_mean_entropy(n, b, block, c)))
        sizes.append(IndirectObjective(b=b, bits=_indirect_bits(n, b, block, width)))
    return entropies, sizes


def best_indirect(sweep: Sequence[IndirectObjective]) -> IndirectObjective:
    """The sweep's smallest size; of equal ones, the first (smallest b)."""
    return min(sweep, key=lambda o: o.bits)
