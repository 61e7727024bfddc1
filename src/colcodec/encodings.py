"""Compression schemes for value-ID arrays, one codec per scheme.

Six encoded forms plus raw storage:

* prefix   -- leading run stored once as (id, count), remainder verbatim
* rle      -- maximal (id, count) runs
* sparse   -- dominant ID dropped; presence bit vector plus residual IDs
* cluster  -- fixed-size blocks; full single-valued blocks stored as one ID,
              a flag bit per block says which
* indirect -- per-block local dictionaries remap global IDs to narrower
              local IDs where that pays off
* affine   -- strictly sequential IDs stored as (start, step)

Each scheme's ``Codec`` owns its whole layout: encode, decode, size
breakdown, interval scan, and the payload it packs into a column file.
``CODECS`` registers them by ``SchemeKind``; ``encode_array``,
``decode_array``, ``encoded_size_breakdown``, ``scan_id_range`` and the
``fileio`` reader and writer look the codec up there.

Logical sizes are tracked in bits: every stored ID costs the dictionary ID
width, indirect local IDs cost their local width, counts and lengths cost 64
bits, bit vectors cost one bit per entry. ``encoded_size_breakdown`` exposes
the per-component terms; ``encoded_size_bits`` is their sum.

``scan_id_range`` finds the row positions whose ID falls in an interval
without materializing the whole array: runs and single-valued blocks are
accepted or skipped wholesale, affine positions are solved arithmetically,
and indirect blocks are tested through their local dictionaries.

File payloads, as (tag | u64 counts region | packed bit region):

    raw      0 | - | n ids
    prefix   1 | prefix length | prefix id, remaining ids
    rle      2 | run count, per-run lengths | run value ids
    sparse   3 | - | dominant id, presence bits (n), residual ids
    cluster  4 | - | block flag bits (ceil(n/b)), single ids, uncompressed ids
    indirect 5 | indirect-block count, per-indirect-block local dict sizes |
                 block tag bits (ceil(n/b)), then per block either its local
                 dict (global width) + local ids (local width) or its ids
                 (global width)
    affine   6 | - | start id, one step bit (0 = +1, 1 = -1)

IDs are packed at the dictionary ID width max(1, ceil(log2 dict_count));
indirect local IDs at the same law over their local dictionary size. Only
cluster and indirect take a block size. Unpacking checks ID bounds and run
and block shape, but does not re-run encoder choice rules, so payloads a
different encoder would not have produced still load as long as they decode
consistently.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

from .dictionary import IdInterval, ValueIdArray, id_width_bits, to_runs
from .errors import (
    EmptyColumnError,
    InvalidBlockSizeError,
    InvariantViolationError,
    NotAffineError,
)

if TYPE_CHECKING:
    from .fileio import _BitReader, _BitWriter

__all__ = [
    "SchemeKind",
    "BitVector",
    "PrefixEncoded",
    "RleEncoded",
    "SparseEncoded",
    "ClusterEncoded",
    "DirectBlock",
    "IndirectBlock",
    "IndirectEncoded",
    "AffineEncoded",
    "EncodedColumn",
    "Codec",
    "CODECS",
    "COUNT_BITS",
    "check_block_size",
    "encode_prefix",
    "decode_prefix",
    "encode_rle",
    "decode_rle",
    "encode_sparse",
    "decode_sparse",
    "encode_cluster",
    "decode_cluster",
    "encode_indirect",
    "decode_indirect",
    "encode_affine",
    "decode_affine",
    "encode_array",
    "decode_array",
    "encoded_size_bits",
    "encoded_size_breakdown",
    "scan_id_range",
]

# Fixed width charged for every count/length field in size accounting.
COUNT_BITS = 64


class SchemeKind(enum.Enum):
    RAW = "raw"
    PREFIX = "prefix"
    RLE = "rle"
    SPARSE = "sparse"
    CLUSTER = "cluster"
    INDIRECT = "indirect"
    AFFINE = "affine"


def check_block_size(block_size: int) -> None:
    if block_size < 2 or block_size & (block_size - 1):
        raise InvalidBlockSizeError(
            f"block size must be a power of two >= 2, got {block_size}"
        )


@dataclass(frozen=True)
class BitVector:
    """Plain bit sequence; index order is row/block order."""

    bits: list[bool]

    def __len__(self) -> int:
        return len(self.bits)

    def popcount(self) -> int:
        return sum(self.bits)


@dataclass(frozen=True)
class PrefixEncoded:
    prefix_id: int
    prefix_count: int
    rest: list[int]


@dataclass(frozen=True)
class RleEncoded:
    runs: list[tuple[int, int]]


@dataclass(frozen=True)
class SparseEncoded:
    dominant_id: int
    positions: BitVector  # one bit per row, set where the dominant ID occurs
    residual: list[int]  # the other rows' IDs, in row order


@dataclass(frozen=True)
class ClusterEncoded:
    block_size: int
    flags: BitVector  # one bit per block, set = single-valued full block
    singles: list[int]  # one ID per flagged block, in block order
    uncompressed: list[int]  # the unflagged blocks' IDs, in row order
    length: int


@dataclass(frozen=True)
class DirectBlock:
    ids: list[int]


@dataclass(frozen=True)
class IndirectBlock:
    local_dictionary: list[int]  # ascending distinct global IDs of the block
    local_ids: list[int]  # positions into local_dictionary


@dataclass(frozen=True)
class IndirectEncoded:
    block_size: int
    blocks: list[Union[DirectBlock, IndirectBlock]]
    length: int


@dataclass(frozen=True)
class AffineEncoded:
    start_id: int
    step: int  # +1 or -1
    length: int


Payload = Union[
    ValueIdArray,
    PrefixEncoded,
    RleEncoded,
    SparseEncoded,
    ClusterEncoded,
    IndirectEncoded,
    AffineEncoded,
]


@dataclass(frozen=True)
class EncodedColumn:
    """One encoded column body plus the context shared by all schemes."""

    payload: Payload
    id_width_bits: int
    length: int

    @property
    def codec(self) -> Codec:
        return _CODEC_OF_PAYLOAD[type(self.payload)]

    @property
    def scheme(self) -> SchemeKind:
        return self.codec.kind


def _require_rows(ids: Sequence[int]) -> None:
    if not len(ids):
        raise EmptyColumnError("cannot encode an empty column")


def _hit(lo: int | None, hi: int | None) -> Callable[[int], bool]:
    """Membership test for the closed interval [lo, hi]; None is unbounded."""
    return lambda v: (lo is None or v >= lo) and (hi is None or v <= hi)


def _check_id(value: int, dict_count: int, what: str, offset: int) -> None:
    if value >= dict_count:
        raise InvariantViolationError(
            f"{what} {value} outside dictionary of {dict_count} values", offset
        )


def _read_ids(br: _BitReader, count: int, w: int, dict_count: int, what: str) -> list[int]:
    """Unpack ``count`` IDs, then check each against the dictionary."""
    ids = br.read_many(count, w)
    for v in ids:
        _check_id(v, dict_count, what, br.position)
    return ids


def _encode_raw(ids: Sequence[int], block_size: Any, width: int) -> ValueIdArray:
    _require_rows(ids)
    return ValueIdArray(ids=ids, id_width_bits=width)


def _scan_raw(p: ValueIdArray, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    return [i for i, v in enumerate(p.ids) if hit(v)]


def _pack_raw(p: ValueIdArray, w: int, bits: _BitWriter) -> list[int]:
    bits.write_many(p.ids, w)
    return []


def _unpack_raw(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> ValueIdArray:
    return ValueIdArray(ids=_read_ids(br, n, w, dict_count, "id"), id_width_bits=w)


def encode_prefix(ids: Sequence[int]) -> PrefixEncoded:
    """Capture the literal leading run; the remainder is stored verbatim."""
    _require_rows(ids)
    first = ids[0]
    count = 1
    n = len(ids)
    while count < n and ids[count] == first:
        count += 1
    return PrefixEncoded(prefix_id=first, prefix_count=count, rest=list(ids[count:]))


def decode_prefix(encoded: PrefixEncoded) -> list[int]:
    return [encoded.prefix_id] * encoded.prefix_count + list(encoded.rest)


def _prefix_sizes(p: PrefixEncoded, w: int) -> dict[str, int]:
    return {"prefix_count": COUNT_BITS, "prefix_id": w, "rest": len(p.rest) * w}


def _scan_prefix(p: PrefixEncoded, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    out = list(range(p.prefix_count)) if hit(p.prefix_id) else []
    out.extend(p.prefix_count + i for i, v in enumerate(p.rest) if hit(v))
    return out


def _pack_prefix(p: PrefixEncoded, w: int, bits: _BitWriter) -> list[int]:
    bits.write(p.prefix_id, w)
    bits.write_many(p.rest, w)
    return [p.prefix_count]


def _unpack_prefix(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> PrefixEncoded:
    prefix_count = br.read_u64("prefix length")
    if not 1 <= prefix_count <= n:
        raise InvariantViolationError(
            f"prefix length {prefix_count} of {n} rows", br.position - 8
        )
    [prefix_id] = _read_ids(br, 1, w, dict_count, "prefix id")
    rest = _read_ids(br, n - prefix_count, w, dict_count, "id")
    if rest and rest[0] == prefix_id:
        raise InvariantViolationError("prefix run not maximal", br.position)
    return PrefixEncoded(prefix_id=prefix_id, prefix_count=prefix_count, rest=rest)


def encode_rle(ids: Sequence[int]) -> RleEncoded:
    _require_rows(ids)
    return RleEncoded(runs=to_runs(ids).runs)


def decode_rle(encoded: RleEncoded) -> list[int]:
    out: list[int] = []
    for value, count in encoded.runs:
        out.extend([value] * count)
    return out


def _rle_sizes(p: RleEncoded, w: int) -> dict[str, int]:
    r = len(p.runs)
    return {"run_count": COUNT_BITS, "run_lengths": r * COUNT_BITS, "run_values": r * w}


def _scan_rle(p: RleEncoded, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    out: list[int] = []
    pos = 0
    for value, count in p.runs:
        if hit(value):
            out.extend(range(pos, pos + count))
        pos += count
    return out


def _pack_rle(p: RleEncoded, w: int, bits: _BitWriter) -> list[int]:
    bits.write_many((v for v, _ in p.runs), w)
    return [len(p.runs), *(c for _, c in p.runs)]


def _unpack_rle(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> RleEncoded:
    run_count = br.read_u64("run count")
    if run_count < 1:
        raise InvariantViolationError("no runs", br.position - 8)
    lengths = []
    for i in range(run_count):
        c = br.read_u64(f"run {i} length")
        if c < 1:
            raise InvariantViolationError(f"run {i} has zero length", br.position - 8)
        lengths.append(c)
    if sum(lengths) != n:
        raise InvariantViolationError(
            f"run lengths sum to {sum(lengths)}, header says {n}", br.position
        )
    runs: list[tuple[int, int]] = []
    for i, c in enumerate(lengths):
        v = br.read(w)
        _check_id(v, dict_count, f"run {i} id", br.position)
        if runs and runs[-1][0] == v:
            raise InvariantViolationError(f"runs {i - 1} and {i} not maximal", br.position)
        runs.append((v, c))
    return RleEncoded(runs=runs)


def encode_sparse(ids: Sequence[int]) -> SparseEncoded:
    """Drop the most frequent ID; ties pick the smallest ID."""
    _require_rows(ids)
    freqs = Counter(ids)
    dominant = min(freqs, key=lambda v: (-freqs[v], v))
    return SparseEncoded(
        dominant_id=dominant,
        positions=BitVector([v == dominant for v in ids]),
        residual=[v for v in ids if v != dominant],
    )


def decode_sparse(encoded: SparseEncoded) -> list[int]:
    residual = iter(encoded.residual)
    return [
        encoded.dominant_id if present else next(residual)
        for present in encoded.positions.bits
    ]


def _sparse_sizes(p: SparseEncoded, w: int) -> dict[str, int]:
    return {"dominant_id": w, "positions": len(p.positions), "residual": len(p.residual) * w}


def _scan_sparse(p: SparseEncoded, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    dominant_hits = hit(p.dominant_id)
    residual = iter(p.residual)
    out = []
    for pos, present in enumerate(p.positions.bits):
        if present:
            if dominant_hits:
                out.append(pos)
        elif hit(next(residual)):
            out.append(pos)
    return out


def _pack_sparse(p: SparseEncoded, w: int, bits: _BitWriter) -> list[int]:
    bits.write(p.dominant_id, w)
    bits.write_many(p.positions.bits, 1)
    bits.write_many(p.residual, w)
    return []


def _unpack_sparse(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> SparseEncoded:
    [dominant] = _read_ids(br, 1, w, dict_count, "dominant id")
    bits = list(map(bool, br.read_many(n, 1)))
    residual = br.read_many(n - sum(bits), w)
    for v in residual:
        _check_id(v, dict_count, "residual id", br.position)
        if v == dominant:
            raise InvariantViolationError("dominant id in residual", br.position)
    return SparseEncoded(dominant_id=dominant, positions=BitVector(bits), residual=residual)


def encode_cluster(ids: Sequence[int], block_size: int) -> ClusterEncoded:
    """Replace aligned single-valued full blocks with one ID each.

    A trailing short block (length not divisible by block_size) is never
    flagged, even when single-valued.
    """
    check_block_size(block_size)
    _require_rows(ids)
    n = len(ids)
    flags: list[bool] = []
    singles: list[int] = []
    uncompressed: list[int] = []
    for start in range(0, n, block_size):
        block = list(ids[start : start + block_size])
        if len(block) == block_size and block.count(block[0]) == block_size:
            flags.append(True)
            singles.append(block[0])
        else:
            flags.append(False)
            uncompressed.extend(block)
    return ClusterEncoded(
        block_size=block_size,
        flags=BitVector(flags),
        singles=singles,
        uncompressed=uncompressed,
        length=n,
    )


def decode_cluster(encoded: ClusterEncoded) -> list[int]:
    b = encoded.block_size
    n = encoded.length
    out: list[int] = []
    singles = iter(encoded.singles)
    cursor = 0  # position in the uncompressed stream
    for i, flag in enumerate(encoded.flags.bits):
        if flag:
            out.extend([next(singles)] * b)
        else:
            size = min(b, n - i * b)
            out.extend(encoded.uncompressed[cursor : cursor + size])
            cursor += size
    return out


def _cluster_sizes(p: ClusterEncoded, w: int) -> dict[str, int]:
    s = p.flags.popcount()
    return {"flags": len(p.flags), "id_payload": (p.length - s * (p.block_size - 1)) * w}


def _scan_cluster(p: ClusterEncoded, lo: int | None, hi: int | None) -> list[int]:
    hit = _hit(lo, hi)
    out: list[int] = []
    b = p.block_size
    single_at = 0
    cursor = 0
    for i, flag in enumerate(p.flags.bits):
        start = i * b
        if flag:
            if hit(p.singles[single_at]):
                out.extend(range(start, start + b))
            single_at += 1
        else:
            size = min(b, p.length - start)
            for offset in range(size):
                if hit(p.uncompressed[cursor + offset]):
                    out.append(start + offset)
            cursor += size
    return out


def _pack_cluster(p: ClusterEncoded, w: int, bits: _BitWriter) -> list[int]:
    bits.write_many(p.flags.bits, 1)
    bits.write_many(p.singles, w)
    bits.write_many(p.uncompressed, w)
    return []


def _unpack_cluster(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> ClusterEncoded:
    flags = list(map(bool, br.read_many(-(-n // b), 1)))
    if n % b and flags[-1]:
        raise InvariantViolationError("partial trailing block flagged as clustered", br.position)
    s = sum(flags)
    singles = _read_ids(br, s, w, dict_count, "single id")
    uncompressed = _read_ids(br, n - s * b, w, dict_count, "id")
    return ClusterEncoded(
        block_size=b,
        flags=BitVector(flags),
        singles=singles,
        uncompressed=uncompressed,
        length=n,
    )


def encode_indirect(
    ids: Sequence[int], block_size: int, global_width_bits: int
) -> IndirectEncoded:
    """Per block, remap to a local dictionary when that costs fewer bits.

    A block of k distinct IDs and b_eff rows goes Indirect iff
    k*W + b_eff*max(1, ceil(log2 k)) < b_eff*W with W = global_width_bits,
    strict, so Indirect never loses payload bits to Direct. The trailing
    short block uses its actual length and may go either way.
    """
    check_block_size(block_size)
    _require_rows(ids)
    blocks: list[Union[DirectBlock, IndirectBlock]] = []
    for start in range(0, len(ids), block_size):
        block = list(ids[start : start + block_size])
        local = sorted(set(block))
        k = len(local)
        b_eff = len(block)
        if k * global_width_bits + b_eff * id_width_bits(k) < b_eff * global_width_bits:
            index = {v: j for j, v in enumerate(local)}
            blocks.append(
                IndirectBlock(local_dictionary=local, local_ids=[index[v] for v in block])
            )
        else:
            blocks.append(DirectBlock(ids=block))
    return IndirectEncoded(block_size=block_size, blocks=blocks, length=len(ids))


def decode_indirect(encoded: IndirectEncoded) -> list[int]:
    out: list[int] = []
    for block in encoded.blocks:
        if isinstance(block, IndirectBlock):
            out.extend(block.local_dictionary[j] for j in block.local_ids)
        else:
            out.extend(block.ids)
    return out


def _indirect_sizes(p: IndirectEncoded, w: int) -> dict[str, int]:
    indirect = [b for b in p.blocks if isinstance(b, IndirectBlock)]
    return {
        "indirect_count": COUNT_BITS,
        "local_dict_counts": len(indirect) * COUNT_BITS,
        "block_tags": len(p.blocks),
        "local_dicts": sum(len(b.local_dictionary) for b in indirect) * w,
        "block_payload": sum(
            len(b.local_ids) * id_width_bits(len(b.local_dictionary))
            if isinstance(b, IndirectBlock)
            else len(b.ids) * w
            for b in p.blocks
        ),
    }


def _scan_indirect(p: IndirectEncoded, lo: int | None, hi: int | None) -> list[int]:
    out: list[int] = []
    start = 0
    for block in p.blocks:
        if isinstance(block, IndirectBlock):
            # The local dictionary is ascending, so the global interval maps
            # to a contiguous local-ID range.
            local = block.local_dictionary
            local_lo = 0 if lo is None else bisect_left(local, lo)
            local_hi = len(local) - 1 if hi is None else bisect_right(local, hi) - 1
            if local_lo <= local_hi:
                out.extend(
                    start + i
                    for i, j in enumerate(block.local_ids)
                    if local_lo <= j <= local_hi
                )
            start += len(block.local_ids)
        else:
            out.extend(
                start + i
                for i, v in enumerate(block.ids)
                if (lo is None or v >= lo) and (hi is None or v <= hi)
            )
            start += len(block.ids)
    return out


def _pack_indirect(p: IndirectEncoded, w: int, bits: _BitWriter) -> list[int]:
    indirect = [b for b in p.blocks if isinstance(b, IndirectBlock)]
    bits.write_many((isinstance(block, IndirectBlock) for block in p.blocks), 1)
    for block in p.blocks:
        if isinstance(block, IndirectBlock):
            bits.write_many(block.local_dictionary, w)
            bits.write_many(block.local_ids, id_width_bits(len(block.local_dictionary)))
        else:
            bits.write_many(block.ids, w)
    return [len(indirect), *(len(b.local_dictionary) for b in indirect)]


def _unpack_indirect(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> IndirectEncoded:
    num_blocks = -(-n // b)
    indirect_count = br.read_u64("indirect block count")
    if indirect_count > num_blocks:
        raise InvariantViolationError(
            f"{indirect_count} indirect blocks of {num_blocks}", br.position - 8
        )
    sizes = []
    for i in range(indirect_count):
        k = br.read_u64(f"local dictionary {i} size")
        if k < 1:
            raise InvariantViolationError(f"local dictionary {i} empty", br.position - 8)
        sizes.append(k)
    tags = list(map(bool, br.read_many(num_blocks, 1)))
    if sum(tags) != indirect_count:
        raise InvariantViolationError(
            f"{sum(tags)} indirect tags, counts region says {indirect_count}", br.position
        )
    sizes_left = iter(sizes)
    blocks: list[Union[DirectBlock, IndirectBlock]] = []
    for i, tagged in enumerate(tags):
        b_eff = min(b, n - i * b)
        if tagged:
            k = next(sizes_left)
            if k > b_eff or k > dict_count:
                raise InvariantViolationError(
                    f"local dictionary of {k} ids in a {b_eff}-row block", br.position
                )
            local = _read_ids(br, k, w, dict_count, "local dictionary id")
            if any(local[j] >= local[j + 1] for j in range(k - 1)):
                raise InvariantViolationError(
                    f"local dictionary of block {i} not strictly ascending", br.position
                )
            local_ids = br.read_many(b_eff, id_width_bits(k))
            if any(v >= k for v in local_ids):
                raise InvariantViolationError(
                    f"local id outside {k}-entry dictionary in block {i}", br.position
                )
            blocks.append(IndirectBlock(local_dictionary=local, local_ids=local_ids))
        else:
            blocks.append(DirectBlock(ids=_read_ids(br, b_eff, w, dict_count, "id")))
    return IndirectEncoded(block_size=b, blocks=blocks, length=n)


def encode_affine(ids: Sequence[int]) -> AffineEncoded:
    """Store strictly sequential IDs (stride +1 or -1) as start and step."""
    n = len(ids)
    if n < 2:
        raise NotAffineError(f"affine encoding needs at least 2 rows, got {n}")
    step = ids[1] - ids[0]
    if step not in (1, -1):
        raise NotAffineError(f"stride between rows 0 and 1 is {step}, not +-1")
    for i in range(2, n):
        if ids[i] - ids[i - 1] != step:
            raise NotAffineError(f"stride breaks at row {i}")
    return AffineEncoded(start_id=ids[0], step=step, length=n)


def decode_affine(encoded: AffineEncoded) -> list[int]:
    start, step = encoded.start_id, encoded.step
    return list(range(start, start + step * encoded.length, step))


def _scan_affine(p: AffineEncoded, lo: int | None, hi: int | None) -> list[int]:
    n = p.length
    s = p.start_id
    if p.step == 1:  # id at row i is s + i
        row_lo = 0 if lo is None else max(0, lo - s)
        row_hi = n - 1 if hi is None else min(n - 1, hi - s)
    else:  # id at row i is s - i
        row_lo = 0 if hi is None else max(0, s - hi)
        row_hi = n - 1 if lo is None else min(n - 1, s - lo)
    if row_lo > row_hi:
        return []
    return list(range(row_lo, row_hi + 1))


def _pack_affine(p: AffineEncoded, w: int, bits: _BitWriter) -> list[int]:
    bits.write(p.start_id, w)
    bits.write(0 if p.step == 1 else 1, 1)
    return []


def _unpack_affine(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> AffineEncoded:
    if n < 2:
        raise InvariantViolationError("affine column with fewer than 2 rows", 6)
    start_at = br.position
    start = br.read(w)
    step = 1 if br.read(1) == 0 else -1
    br.finish()  # a malformed end is reported before out-of-range IDs
    _check_id(start, dict_count, "start id", start_at)
    last = start + (n - 1) * step
    if not 0 <= last < dict_count:
        raise InvariantViolationError(
            f"affine end id {last} outside dictionary of {dict_count} values", start_at
        )
    return AffineEncoded(start_id=start, step=step, length=n)


@dataclass(frozen=True)
class Codec:
    """Everything one scheme knows about its layout.

    ``encode`` takes (ids, block size, ID width); ``sizes`` and ``pack`` take
    the payload and the ID width; ``scan`` takes closed ID bounds, None
    meaning unbounded. ``pack`` writes the packed region and returns the u64
    counts region; ``unpack`` reads both back from a bit reader positioned
    at the counts, given (rows, block size, dictionary size, ID width).
    """

    kind: SchemeKind
    tag: int  # scheme byte of the file header
    blocked: bool  # takes a block size, stored in the file header
    payload_type: type
    encode: Callable[[Sequence[int], Any, int], Any]
    decode: Callable[[Any], list[int]]
    sizes: Callable[[Any, int], dict[str, int]]
    scan: Callable[[Any, int | None, int | None], list[int]]
    pack: Callable[[Any, int, _BitWriter], list[int]]
    unpack: Callable[[_BitReader, int, int, int, int], Any]


CODECS: dict[SchemeKind, Codec] = {
    codec.kind: codec
    for codec in (
        Codec(SchemeKind.RAW, 0, False, ValueIdArray,
              _encode_raw, lambda p: list(p.ids),
              lambda p, w: {"ids": len(p.ids) * w}, _scan_raw, _pack_raw, _unpack_raw),
        Codec(SchemeKind.PREFIX, 1, False, PrefixEncoded,
              lambda ids, b, w: encode_prefix(ids), decode_prefix,
              _prefix_sizes, _scan_prefix, _pack_prefix, _unpack_prefix),
        Codec(SchemeKind.RLE, 2, False, RleEncoded,
              lambda ids, b, w: encode_rle(ids), decode_rle,
              _rle_sizes, _scan_rle, _pack_rle, _unpack_rle),
        Codec(SchemeKind.SPARSE, 3, False, SparseEncoded,
              lambda ids, b, w: encode_sparse(ids), decode_sparse,
              _sparse_sizes, _scan_sparse, _pack_sparse, _unpack_sparse),
        Codec(SchemeKind.CLUSTER, 4, True, ClusterEncoded,
              lambda ids, b, w: encode_cluster(ids, b), decode_cluster,
              _cluster_sizes, _scan_cluster, _pack_cluster, _unpack_cluster),
        Codec(SchemeKind.INDIRECT, 5, True, IndirectEncoded,
              encode_indirect, decode_indirect,
              _indirect_sizes, _scan_indirect, _pack_indirect, _unpack_indirect),
        Codec(SchemeKind.AFFINE, 6, False, AffineEncoded,
              lambda ids, b, w: encode_affine(ids), decode_affine,
              lambda p, w: {"start_id": w, "step": 1}, _scan_affine, _pack_affine, _unpack_affine),
    )
}
_CODEC_OF_PAYLOAD = {codec.payload_type: codec for codec in CODECS.values()}


def encode_array(
    array: ValueIdArray, scheme: SchemeKind, block_size: int | None = None
) -> EncodedColumn:
    """Encode a value-ID array under one scheme."""
    codec = CODECS[scheme]
    if codec.blocked and block_size is None:
        raise ValueError(f"{scheme.value} encoding needs a block size")
    ids, width = array.ids, array.id_width_bits
    return EncodedColumn(
        payload=codec.encode(ids, block_size, width), id_width_bits=width, length=len(ids)
    )


def decode_array(encoded: EncodedColumn) -> list[int]:
    """Recover the value-ID sequence. Inverse of encode_array."""
    return encoded.codec.decode(encoded.payload)


def encoded_size_breakdown(encoded: EncodedColumn) -> dict[str, int]:
    """Per-component logical size in bits; keys are stable per scheme."""
    return encoded.codec.sizes(encoded.payload, encoded.id_width_bits)


def encoded_size_bits(encoded: EncodedColumn) -> int:
    """Total logical payload size in bits (sum of the breakdown)."""
    return sum(encoded_size_breakdown(encoded).values())


def scan_id_range(encoded: EncodedColumn, interval: IdInterval) -> list[int]:
    """Row positions whose ID lies in the interval, ascending.

    Does not materialize the full array: runs, single-valued blocks and the
    affine form are resolved wholesale, indirect blocks through their local
    dictionaries.
    """
    norm = interval.normalize()
    if norm is None:
        return []
    return encoded.codec.scan(encoded.payload, *norm)
