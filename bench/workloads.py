"""Seeded input columns and predicate batches for the benchmark.

Every function here is a pure function of its arguments: the same workload
and seed always give the same cells and the same predicates. Cells
are lowercase ASCII words, so they need no CSV quoting and never contain the
NUL characters that numpy string arrays would strip.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("zipf_sparse", "local_dict", "clustered_runs")

# Rows per column, sized so that a round of the four operations takes about
# half a second on a 2-vCPU machine and a run times dozens of rounds.
ROWS = 25_000

ZIPF_POOL = 300  # distinct strings in zipf_sparse
LOCAL_POOL = 20_000  # strings the local_dict segments draw from, 12 per segment
LOCAL_PER_SEGMENT = 12  # values per local_dict segment, shared with no other segment
LOCAL_SEGMENT = (75, 175)  # inclusive range of drawn local_dict segment lengths
RUNS_POOL = 1000  # strings the clustered_runs runs draw from
RUN_LENGTH = (100, 300)  # inclusive range of clustered_runs run lengths

WORD_LETTERS = 8
PREDICATES_PER_OP = 8  # predicates per operator in the scan batch


@dataclass(frozen=True)
class Predicate:
    op: str
    value: str
    high: str | None = None


def words(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct lowercase words of WORD_LETTERS letters, in draw order.

    One fixed length keeps the input size, and so every per-byte figure, the
    same on every seed.
    """
    out: dict[str, None] = {}
    while len(out) < count:
        letters = rng.integers(ord("a"), ord("z") + 1, size=(count, WORD_LETTERS), dtype=np.uint8)
        for row in letters:
            out.setdefault(row.tobytes().decode("ascii"), None)
            if len(out) == count:
                break
    return list(out)


def _break_leading_run(ids: np.ndarray) -> None:
    """Make row 1 differ from row 0 by swapping in the first row that does.

    The heuristics take ``prefix`` for any leading run longer than 2 rows;
    for the shuffled workloads that would happen on a few seeds only, so the
    chosen scheme would depend on the seed.
    """
    if ids[1] == ids[0]:
        j = int(np.flatnonzero(ids != ids[0])[0])
        ids[1], ids[j] = ids[j], ids[1]


def zipf_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    # Frequency rank of the value with each sort position: one fixed
    # permutation for all seeds, so that the rows a range predicate selects
    # do not depend on where the seed's words happen to sort.
    ranks = np.random.default_rng(0).permutation(ZIPF_POOL)
    weights = 1.0 / (ranks + 1)
    ids = rng.choice(ZIPF_POOL, size=n, p=weights / weights.sum())
    _break_leading_run(ids)
    return ids


def local_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    # A fixed number of segments, each with values no other segment takes,
    # so the distinct count is the same on every seed and the stored size
    # varies little. Drawn lengths are scaled to fill the n rows exactly.
    segments = n * 2 // (LOCAL_SEGMENT[0] + LOCAL_SEGMENT[1])
    lengths = rng.integers(LOCAL_SEGMENT[0], LOCAL_SEGMENT[1] + 1, size=segments)
    ends = np.round(np.cumsum(lengths) * (n / lengths.sum())).astype(np.int64)
    segment = np.repeat(np.arange(segments), np.diff(ends, prepend=0))
    order = rng.permutation(LOCAL_POOL)
    ids = order[segment * LOCAL_PER_SEGMENT + rng.integers(0, LOCAL_PER_SEGMENT, size=n)]
    _break_leading_run(ids)
    return ids


def run_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    parts = []
    total = 0
    previous = -1
    while total < n:
        length = int(rng.integers(RUN_LENGTH[0], RUN_LENGTH[1] + 1))
        value = int(rng.integers(0, RUNS_POOL))
        if value == previous:
            value = (value + 1) % RUNS_POOL
        parts.append(np.full(length, value))
        total += length
        previous = value
    return np.concatenate(parts)[:n]


_SHAPES = {
    "zipf_sparse": (ZIPF_POOL, zipf_ids),
    "local_dict": (LOCAL_POOL, local_ids),
    "clustered_runs": (RUNS_POOL, run_ids),
}


def make_column(workload: str, seed: int) -> list[str]:
    """The workload's input cells for this seed."""
    pool_size, shape = _SHAPES[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pool = sorted(words(rng, pool_size))
    ids = shape(rng, ROWS)
    return [pool[i] for i in ids.tolist()]


def write_csv(path, cells: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([c] for c in cells)


def make_predicates(cells: list[str]) -> list[Predicate]:
    """A fixed batch mixing ``=``, ``<``, ``>=`` and ``between``.

    Operands are frequent values, rare values and strings absent from the
    column. Range operands sit at row quantiles on a fixed grid from 0.1% to
    50%, so selectivity runs from well under 1% to about half the rows. The
    batch depends on the seed only through the column, so that the rows it
    selects, and with them the scan work, stay alike across seeds.
    """
    values, counts = np.unique(np.asarray(cells), return_counts=True)
    by_freq = values[np.argsort(-counts, kind="stable")].tolist()
    ordered = sorted(cells)
    n = len(cells)

    def at(share: float) -> str:
        return ordered[min(n - 1, int(share * n))]

    batch = []
    for k, share in enumerate(np.geomspace(0.001, 0.5, PREDICATES_PER_OP).tolist()):
        kind = k % 3  # 0 frequent, 1 rare, 2 absent
        # v + "~" sorts right after v and is absent, as cells are letters only
        shift = (lambda v: v + "~") if kind == 2 else (lambda v: v)
        batch.append(Predicate("=", shift(by_freq[-1 - k] if kind == 1 else by_freq[k])))
        batch.append(Predicate("<", shift(at(share))))
        batch.append(Predicate(">=", shift(at(1 - share))))
        start = (1 - share) * (k + 0.5) / PREDICATES_PER_OP
        batch.append(Predicate("between", shift(at(start)), shift(at(start + share))))
    return batch
