"""Shared test helpers: seeded corpora and independent reference oracles.

The oracles here deliberately recompute results by the most literal route
available (walk every block, decode then filter, histogram entropies) so the
package's faster paths are always checked against a second implementation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Sequence

import numpy as np

from colcodec import (
    InvariantViolationError,
    TruncatedPayloadError,
    EncodedColumn,
    IdInterval,
    IndirectEncoded,
    SchemeKind,
    ValueIdArray,
    decode_array,
    encode_array,
    id_width_bits,
)
from colcodec.encodings import CODECS, COUNT_BITS, indirect_block_bits

FAMILIES = (
    "constant",
    "sorted",
    "sequential",
    "uniform2",
    "uniform16",
    "uniform256",
    "zipf",
)


def make_array(ids: Sequence[int]) -> ValueIdArray:
    width = id_width_bits(max(ids) + 1) if len(ids) else 1
    return ValueIdArray(ids=list(ids), id_width_bits=width)


def encode(
    kind: SchemeKind, ids: Sequence[int], block_size: int | None = None, width: int | None = None
):
    """The payload ``encode_array`` stores for these IDs, at the ID width
    ``make_array`` gives them unless ``width`` is given."""
    width = make_array(ids).id_width_bits if width is None else width
    return encode_array(ValueIdArray(ids=list(ids), id_width_bits=width), kind, block_size).payload


def decode(payload) -> np.ndarray:
    """The IDs a payload holds, through its scheme's codec."""
    (codec,) = (codec for codec in CODECS.values() if type(payload) is codec.payload_type)
    return codec.decode(payload)


def family_column(rng: np.random.Generator, family: str, n: int) -> list[int]:
    if family == "constant":
        return [int(rng.integers(0, 64))] * n
    if family == "sorted":
        return sorted(int(v) for v in rng.integers(0, 32, n))
    if family == "sequential":
        start = int(rng.integers(0, 64))
        ids = list(range(start, start + n))
        return ids if rng.random() < 0.5 else ids[::-1]
    if family == "uniform2":
        return [int(v) for v in rng.integers(0, 2, n)]
    if family == "uniform16":
        return [int(v) for v in rng.integers(0, 16, n)]
    if family == "uniform256":
        return [int(v) for v in rng.integers(0, 256, n)]
    if family == "zipf":
        return [int(min(v, 256) - 1) for v in rng.zipf(1.2, n)]
    raise ValueError(family)


def text_column(shape: str, seed: int, n: int) -> list[str]:
    """n seeded text cells. ``clustered``: runs of 20-120 rows over 60 values,
    after a one-row first run; ``local``: segments of 50-150 rows, each drawing
    from its own 6 of 2,000 values; ``skewed``: Zipf draws over 200 values."""
    rng = np.random.default_rng(seed)
    ids: list[int] = []
    if shape == "clustered":
        ids.append(60)
        while len(ids) < n:
            ids += [int(rng.integers(60))] * int(rng.integers(20, 121))
    elif shape == "local":
        while len(ids) < n:
            pool = rng.integers(0, 2000, 6)
            ids += rng.choice(pool, int(rng.integers(50, 151))).tolist()
    elif shape == "skewed":
        ids = [min(int(v), 200) for v in rng.zipf(1.3, n)]
    else:
        raise ValueError(shape)
    return [f"v{i:04d}" for i in ids[:n]]


def is_sequential(ids: Sequence[int]) -> bool:
    if len(ids) < 2:
        return False
    deltas = {b - a for a, b in zip(ids, ids[1:])}
    return deltas == {1} or deltas == {-1}


def candidate_sizes_oracle(n: int) -> list[int]:
    """All powers of two in [2, n], by trial doubling."""
    out = []
    b = 2
    while b <= n:
        out.append(b)
        b *= 2
    return out


def block_walk_clusters(ids: Sequence[int], b: int) -> int:
    """Single-valued aligned full blocks, by inspecting every block."""
    s = 0
    for start in range(0, len(ids) - b + 1, b):
        block = ids[start : start + b]
        if min(block) == max(block):
            s += 1
    return s


def best_block_size_oracle(ids: Sequence[int], candidates: Sequence[int]) -> tuple[int, int]:
    """(b, F) maximizing F = S*(b-1) by exhaustive walk; first candidate wins ties."""
    best: tuple[int, int] | None = None
    for b in candidates:
        f = block_walk_clusters(ids, b) * (b - 1)
        if best is None or f > best[1]:
            best = (b, f)
    assert best is not None
    return best


def entropy_oracle(block: Sequence[int], base: int) -> float:
    """Histogram entropy via natural logs (independent of the log2 route)."""
    n = len(block)
    freqs = Counter(block)
    return -sum((c / n) * math.log(c / n) for c in freqs.values()) / math.log(base)


def mean_entropy_oracle(ids: Sequence[int], b: int) -> float:
    """Full blocks summed, ceil(N/b) blocks in the denominator."""
    total = 0.0
    for start in range(0, len(ids) - b + 1, b):
        total += entropy_oracle(ids[start : start + b], b)
    return total / math.ceil(len(ids) / b)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """True where a sorted row's run of equal IDs begins."""
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return starts


def sorted_rows_mean_entropy(ids: Sequence[int], b: int) -> float:
    """The mean block entropy with one sort per block size: the full blocks
    cut into a (blocks, b) array, each row sorted, and every row scored from
    its run lengths c as b*log2 b - sum c*log2 c bits."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    rows = np.sort(ids[: n - n % b].reshape(-1, b), axis=1)
    starts = np.flatnonzero(_run_starts(rows))
    c = np.diff(starts, append=rows.size)
    bits = b * math.log2(b) - np.bincount(starts // b, weights=c * np.log2(c), minlength=len(rows))
    total = float((bits / (b * math.log2(b))).sum())
    blocks = -(-n // b)
    return total / blocks if blocks else 0.0


def sorted_rows_indirect_bits(ids: Sequence[int], b: int, width: int) -> int:
    """Indirect's exact size with one sort per block size: the column cut
    into blocks as the encoder cuts it, each row sorted, and its distinct IDs
    priced by the encoder's rule."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    b = min(b, n)  # a block as long as the column is the only one
    # The trailing block is padded with its last ID, which adds no distinct ID.
    rows = np.append(ids, np.full(-n % b, ids[-1])).reshape(-1, b)
    sizes = np.minimum(b, n - b * np.arange(len(rows)))
    k = np.count_nonzero(_run_starts(np.sort(rows, axis=1)), axis=1)
    return int(indirect_block_bits(k, sizes, width)[1].sum()) + COUNT_BITS + len(rows)


def stats_oracle(ids: Sequence[int]) -> dict:
    """``compute_stats``'s fields, from a histogram and a walk of the rows."""
    n = len(ids)
    freqs = Counter(ids)
    max_freq = max(freqs.values())
    leading_run = 1
    while leading_run < n and ids[leading_run] == ids[0]:
        leading_run += 1
    avg_repetition = n / len(freqs)
    return {
        "n": n,
        "distinct": len(freqs),
        "is_sorted": all(a <= b for a, b in zip(ids, ids[1:])),
        "is_sequential": is_sequential(ids),
        "leading_run": leading_run,
        "max_freq": max_freq,
        "sparsity": max_freq / avg_repetition,
        "avg_repetition": avg_repetition,
    }


def scan_oracle(encoded: EncodedColumn, interval: IdInterval) -> list[int]:
    """Decode-then-filter reference for scan_id_range."""
    hit = interval_test(interval)
    return [i for i, v in enumerate(decode_array(encoded)) if hit(v)]


def random_interval(rng: random.Random, max_id: int) -> IdInterval:
    def bound() -> int | None:
        return None if rng.random() < 0.2 else rng.randint(-1, max_id + 1)

    return IdInterval(
        lo=bound(),
        hi=bound(),
        lo_inclusive=rng.random() < 0.5,
        hi_inclusive=rng.random() < 0.5,
    )


def scheme_plans(
    rng: random.Random, ids: Sequence[int]
) -> list[tuple[SchemeKind, int | None]]:
    """Every scheme applicable to this column, with seeded block sizes."""
    n = len(ids)
    candidates = candidate_sizes_oracle(n) or [2]
    plans: list[tuple[SchemeKind, int | None]] = [
        (SchemeKind.RAW, None),
        (SchemeKind.PREFIX, None),
        (SchemeKind.RLE, None),
        (SchemeKind.SPARSE, None),
        (SchemeKind.CLUSTER, rng.choice(candidates)),
        (SchemeKind.INDIRECT, rng.choice(candidates)),
    ]
    if is_sequential(ids):
        plans.append((SchemeKind.AFFINE, None))
    return plans


def _plain(values) -> list:
    """A payload field as Python ints or bools, whatever array it is stored as."""
    return np.asarray(values).tolist()


def _hit(lo: int | None, hi: int | None):
    """Membership test for the closed interval [lo, hi]; None is unbounded."""
    return lambda v: (lo is None or v >= lo) and (hi is None or v <= hi)


def interval_test(interval: IdInterval):
    """Membership test for an IdInterval: its normalized bounds, or no ID at all."""
    bounds = interval.normalize()
    return (lambda v: False) if bounds is None else _hit(*bounds)


def literal_scan_raw(p, lo: int | None, hi: int | None) -> list[int]:
    """Row-by-row reference for the raw scan, like the others below."""
    hit = _hit(lo, hi)
    return [i for i, v in enumerate(_plain(p.ids)) if hit(v)]


def literal_scan_prefix(p, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    out = list(range(p.prefix_count)) if hit(p.prefix_id) else []
    out.extend(p.prefix_count + i for i, v in enumerate(_plain(p.rest)) if hit(v))
    return out


def literal_scan_rle(p, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    out: list[int] = []
    pos = 0
    for value, count in zip(_plain(p.values), _plain(p.lengths)):
        if hit(value):
            out.extend(range(pos, pos + count))
        pos += count
    return out


def literal_scan_sparse(p, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    dominant_hits = hit(p.dominant_id)
    residual = iter(_plain(p.residual))
    out = []
    for pos, present in enumerate(_plain(p.positions)):
        if present:
            if dominant_hits:
                out.append(pos)
        elif hit(next(residual)):
            out.append(pos)
    return out


def literal_scan_cluster(p, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    out: list[int] = []
    b = p.block_size
    singles = _plain(p.singles)
    uncompressed = _plain(p.uncompressed)
    single_at = 0
    cursor = 0
    for i, flag in enumerate(_plain(p.flags)):
        start = i * b
        if flag:
            if hit(singles[single_at]):
                out.extend(range(start, start + b))
            single_at += 1
        else:
            size = min(b, p.length - start)
            for offset in range(size):
                if hit(uncompressed[cursor + offset]):
                    out.append(start + offset)
            cursor += size
    return out


def indirect_blocks(p):
    """Per block of an indirect payload, walked block by block: its local
    dictionary (None unless tagged) and its payload entries."""
    sizes = iter(_plain(p.dict_sizes))
    local_dicts = _plain(p.local_dicts)
    payload = _plain(p.payload)
    b = p.block_size
    at = 0
    for i, tagged in enumerate(_plain(p.tags)):
        rows = payload[i * b : (i + 1) * b]
        if tagged:
            k = next(sizes)
            yield local_dicts[at : at + k], rows
            at += k
        else:
            yield None, rows


def literal_scan_indirect(p, lo: int | None, hi: int | None) -> list[int]:
    out: list[int] = []
    start = 0
    for local, rows in indirect_blocks(p):
        if local is not None:
            # The local dictionary is ascending, so the global interval maps
            # to a contiguous local-ID range.
            local_lo = 0 if lo is None else bisect_left(local, lo)
            local_hi = len(local) - 1 if hi is None else bisect_right(local, hi) - 1
            if local_lo <= local_hi:
                out.extend(start + i for i, j in enumerate(rows) if local_lo <= j <= local_hi)
        else:
            out.extend(
                start + i
                for i, v in enumerate(rows)
                if (lo is None or v >= lo) and (hi is None or v <= hi)
            )
        start += len(rows)
    return out


def literal_encode_indirect(
    ids: Sequence[int], block_size: int, global_width_bits: int
) -> IndirectEncoded:
    """Block by block: a block of k distinct IDs and b_eff rows goes local iff
    k*W + b_eff*max(1, ceil(log2 k)) < b_eff*W with W = global_width_bits."""
    tags: list[bool] = []
    sizes: list[int] = []
    local_dicts: list[int] = []
    payload: list[int] = []
    for start in range(0, len(ids), block_size):
        block = list(ids[start : start + block_size])
        local = sorted(set(block))
        k = len(local)
        b_eff = len(block)
        tagged = k * global_width_bits + b_eff * id_width_bits(k) < b_eff * global_width_bits
        tags.append(tagged)
        if tagged:
            index = {v: j for j, v in enumerate(local)}
            sizes.append(k)
            local_dicts += local
            payload += [index[v] for v in block]
        else:
            payload += block
    return IndirectEncoded(
        block_size=block_size,
        tags=np.array(tags, bool),
        dict_sizes=np.array(sizes, np.int64),
        local_dicts=np.array(local_dicts, np.int64),
        payload=np.array(payload, np.int64),
        length=len(ids),
    )


def literal_decode_indirect(p) -> list[int]:
    out: list[int] = []
    for local, rows in indirect_blocks(p):
        out.extend(rows if local is None else map(local.__getitem__, rows))
    return out


def literal_decode_rle(p) -> list[int]:
    out: list[int] = []
    for value, count in zip(_plain(p.values), _plain(p.lengths)):
        out.extend([value] * count)
    return out


def literal_decode_prefix(p) -> list[int]:
    return [p.prefix_id] * p.prefix_count + _plain(p.rest)


def literal_decode_sparse(p) -> list[int]:
    residual = iter(_plain(p.residual))
    return [p.dominant_id if present else next(residual) for present in _plain(p.positions)]


def literal_decode_cluster(p) -> list[int]:
    b = p.block_size
    n = p.length
    out: list[int] = []
    singles = iter(_plain(p.singles))
    uncompressed = _plain(p.uncompressed)
    cursor = 0  # position in the uncompressed stream
    for i, flag in enumerate(_plain(p.flags)):
        if flag:
            out.extend([next(singles)] * b)
        else:
            size = min(b, n - i * b)
            out.extend(uncompressed[cursor : cursor + size])
            cursor += size
    return out


LITERAL_SCANS = {
    SchemeKind.RAW: literal_scan_raw,
    SchemeKind.PREFIX: literal_scan_prefix,
    SchemeKind.RLE: literal_scan_rle,
    SchemeKind.SPARSE: literal_scan_sparse,
    SchemeKind.CLUSTER: literal_scan_cluster,
    SchemeKind.INDIRECT: literal_scan_indirect,
}
LITERAL_DECODERS = {
    SchemeKind.PREFIX: literal_decode_prefix,
    SchemeKind.RLE: literal_decode_rle,
    SchemeKind.SPARSE: literal_decode_sparse,
    SchemeKind.CLUSTER: literal_decode_cluster,
    SchemeKind.INDIRECT: literal_decode_indirect,
}


class LiteralBitWriter:
    """Reference field sink: values packed LSB-first one at a time."""

    def __init__(self) -> None:
        self._counts = bytearray()
        self._bytes = bytearray()
        self._acc = 0
        self._pending = 0

    def u64s(self, name: str, values: Sequence[int]) -> None:
        for value in values:
            self._counts += value.to_bytes(8, "little")

    def bits(self, name: str, values: Sequence[int], nbits: int) -> None:
        mask = (1 << nbits) - 1
        for value in values:
            self._acc |= (value & mask) << self._pending
            self._pending += nbits
            while self._pending >= 8:
                self._bytes.append(self._acc & 0xFF)
                self._acc >>= 8
                self._pending -= 8

    def getvalue(self) -> bytes:
        out = self._counts + self._bytes
        if self._pending:
            out.append(self._acc & 0xFF)
        return bytes(out)


class LiteralBitReader:
    """Reference reader: loads a byte whenever the next value needs more bits."""

    def __init__(self, data: bytes, start: int):
        self._data = data
        self._pos = start
        self._acc = 0
        self._pending = 0

    @property
    def position(self) -> int:
        return self._pos

    def read(self, nbits: int) -> int:
        while self._pending < nbits:
            if self._pos >= len(self._data):
                raise TruncatedPayloadError("bit-packed payload ended early", self._pos)
            self._acc |= self._data[self._pos] << self._pending
            self._pos += 1
            self._pending += 8
        value = self._acc & ((1 << nbits) - 1)
        self._acc >>= nbits
        self._pending -= nbits
        return value

    def read_many(self, count: int, nbits: int) -> list[int]:
        return [self.read(nbits) for _ in range(count)]

    def read_fields(self, widths: Sequence[int]) -> list[int]:
        return [self.read(int(nbits)) for nbits in widths]

    def read_u64(self, what: str) -> int:
        if self._pos + 8 > len(self._data):
            raise TruncatedPayloadError(f"{what} truncated", self._pos)
        self._pos += 8
        return int.from_bytes(self._data[self._pos - 8 : self._pos], "little")

    def read_u64s(self, count: int) -> list[int]:
        """Up to ``count`` u64s, as many as the data holds."""
        values = []
        while len(values) < count and self._pos + 8 <= len(self._data):
            values.append(self.read_u64(""))
        return values

    def finish(self) -> None:
        if self._acc:
            raise InvariantViolationError("nonzero padding bits", self._pos - 1)
        if self._pos != len(self._data):
            raise InvariantViolationError("trailing bytes after payload", self._pos)
