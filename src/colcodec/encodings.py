"""Compression schemes for value-ID arrays, one codec per scheme.

Six encoded forms plus raw storage:

* prefix   -- leading run stored once as (id, count), remainder verbatim
* rle      -- maximal runs, as run IDs and run lengths
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
bits, bit vectors cost one bit per entry. ``encoded_size_breakdown`` tallies
them by the field names ``pack`` writes; ``encoded_size_bits`` is their sum.

Every payload but affine holds its per-row, per-run and per-block sequences
as numpy arrays (bit vectors as bool arrays), and payloads compare by value,
so an encoder's int64 arrays equal the narrower unsigned arrays a file is read
into. ``encode_array`` is the one way into a layout: it takes the IDs as one
int64 array, with no copy when they already are one, checks a blocked
scheme's block size, and hands both to the codec's ``encode``, which copies
what its payload keeps, so no payload shares memory with the caller's IDs.
Codecs decode and scan to int arrays, and only ``decode_array`` and
``scan_id_range`` turn them into lists.

``scan_id_range`` finds the row positions whose ID falls in an interval
without decoding the IDs: raw, cluster and indirect scan through their
decode, with each stored ID replaced by its hit, so a flagged block's single
ID and each local dictionary entry are tested once and the decode places the
hits on the rows; sparse tests its residual once and, from one dominant row
in 8 on, reaches the rows through the positions of the absent bits, adding
the dominant ID's rows only when it hits; RLE and prefix test each run once
and list only the matching runs' rows, so memory follows the rows returned,
not the row count; affine positions are solved arithmetically.
Both blocked layouts put each per-block entry onto its rows by one scalar
repeat of b, capped at n, cut at n: only the trailing block can be short.

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
from dataclasses import dataclass, fields
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence, Union

import numpy as np

from .dictionary import IdInterval, ValueIdArray, run_lengths
from .errors import (
    EmptyColumnError,
    InvalidBlockSizeError,
    InvariantViolationError,
    NotAffineError,
    RowCountError,
    TruncatedPayloadError,
)

if TYPE_CHECKING:
    from .fileio import _BitReader, _BitWriter

    FieldSink = Union[_BitWriter, "_SizeTally"]

__all__ = [
    "SchemeKind",
    "RawEncoded",
    "PrefixEncoded",
    "RleEncoded",
    "SparseEncoded",
    "ClusterEncoded",
    "IndirectEncoded",
    "AffineEncoded",
    "EncodedColumn",
    "Codec",
    "CODECS",
    "COUNT_BITS",
    "check_block_size",
    "indirect_block_bits",
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
    # 2**31 is the largest power of two the header's u32 block-size field holds.
    if not 2 <= block_size <= 1 << 31 or block_size & (block_size - 1):
        raise InvalidBlockSizeError(
            f"block size must be a power of two from 2 to 2**31, got {block_size}"
        )


class _ByValue:
    """Dataclass equality that compares array fields by value, whatever their dtype."""

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for field in fields(self):
            a, b = getattr(self, field.name), getattr(other, field.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True


@dataclass(frozen=True, eq=False)
class RawEncoded(_ByValue):
    ids: np.ndarray  # one ID per row


@dataclass(frozen=True, eq=False)
class PrefixEncoded(_ByValue):
    prefix_id: int
    prefix_count: int
    rest: np.ndarray


@dataclass(frozen=True, eq=False)
class RleEncoded(_ByValue):
    values: np.ndarray  # one ID per maximal run
    lengths: np.ndarray  # row counts, as ``_positions``: np.repeat refuses uint64 ones


@dataclass(frozen=True, eq=False)
class SparseEncoded(_ByValue):
    dominant_id: int
    positions: np.ndarray  # bool, one per row, set where the dominant ID occurs
    residual: np.ndarray  # the other rows' IDs, in row order


@dataclass(frozen=True, eq=False)
class ClusterEncoded(_ByValue):
    block_size: int
    flags: np.ndarray  # bool, one per block, set = single-valued full block
    singles: np.ndarray  # one ID per flagged block, in block order
    uncompressed: np.ndarray  # the unflagged blocks' IDs, in row order
    length: int


@dataclass(frozen=True, eq=False)
class IndirectEncoded(_ByValue):
    block_size: int
    tags: np.ndarray  # bool, one per block, set = the block stores a local dictionary
    dict_sizes: np.ndarray  # one local dictionary size per tagged block, in block order
    local_dicts: np.ndarray  # the tagged blocks' ascending distinct IDs, concatenated
    payload: np.ndarray  # one ID per row: local in a tagged block, else global
    length: int


@dataclass(frozen=True)
class AffineEncoded:
    start_id: int
    step: int  # +1 or -1
    length: int


Payload = Union[
    RawEncoded, PrefixEncoded, RleEncoded, SparseEncoded, ClusterEncoded, IndirectEncoded, AffineEncoded
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


def _require_rows(ids: np.ndarray) -> None:
    if not len(ids):
        raise EmptyColumnError("cannot encode an empty column")


def _hits(ids: np.ndarray, lo: int | None, hi: int | None) -> np.ndarray:
    """Mask of the IDs in the closed interval [lo, hi]; None is unbounded."""
    if lo is None:
        return np.ones(ids.shape, bool) if hi is None else ids <= hi
    mask = ids >= lo
    if hi is not None:
        mask &= ids <= hi
    return mask


def _positions(n: int) -> type:
    """Row positions' dtype for n rows: uint64 from the 2**63 rows a file may claim."""
    return np.uint64 if n >> 63 else np.int64


def _check_decodable(n: int) -> None:
    """Refuse, before allocating, n rows that no array can hold."""
    if n >> 63:
        raise RowCountError(f"cannot decode {n} rows", 6)  # the header's row count


def _check_id(value: int, dict_count: int, what: str, offset: int) -> None:
    if value >= dict_count:
        raise InvariantViolationError(
            f"{what} {value} outside dictionary of {dict_count} values", offset
        )


def _first(mask: np.ndarray) -> int | None:
    """The index of the first true entry, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _check_ids(ids: np.ndarray, dict_count: int, what: str, offset: int) -> None:
    """Raise for the first ID outside the dictionary, if any."""
    if len(ids) and int(ids.max()) >= dict_count:
        _check_id(int(ids[_first(ids >= dict_count)]), dict_count, what, offset)


def _read_ids(br: _BitReader, count: int, w: int, dict_count: int, what: str) -> np.ndarray:
    """Unpack ``count`` IDs, then check each against the dictionary."""
    ids = br.read_many(count, w)
    _check_ids(ids, dict_count, what, br.position)
    return ids


def _read_counts(br: _BitReader, count: int, what: str, zero: str) -> list[int]:
    """``count`` nonzero u64s of the counts region; ``what`` and ``zero`` name
    entry i through ``str.format``. The first failure in stream order is
    raised: a zero entry comes before the first missing one."""
    start = br.position
    counts = br.read_u64s(count)
    if 0 in counts:
        i = counts.index(0)
        raise InvariantViolationError(zero.format(i), start + 8 * i)
    if len(counts) < count:
        raise TruncatedPayloadError(f"{what.format(len(counts))} truncated", br.position)
    return counts


def _stored(ids: np.ndarray) -> np.ndarray:
    """The identity map: a decode with it returns the IDs themselves."""
    return ids


def _block_rows(n: int, b: int) -> np.ndarray:
    """Each b-row block's row count over n rows (b, or a short tail's rest)
    for ``_encode_indirect``, ``_unpack_indirect`` and ``optimizer._indirect_bits``.
    Nothing is sized by b (up to 2**31); n may be any read header row count,
    even from 2**63 on: the tail is in Python ints, and no count exceeds b."""
    blocks = -(-n // b)
    rows = np.full(blocks, b, np.int64)
    if blocks:
        rows[-1] = n - (blocks - 1) * b
    return rows


def _scan_through(decode: Callable, p: Any, lo: int | None, hi: int | None) -> np.ndarray:
    """A scan as a decode whose map swaps each stored ID for its hit: the
    interval is tested once per stored ID, never per decoded row."""
    return np.flatnonzero(decode(p, partial(_hits, lo=lo, hi=hi)))


def _encode_raw(ids: np.ndarray, block_size: Any, width: int) -> RawEncoded:
    _require_rows(ids)
    return RawEncoded(ids=ids.copy())


def _decode_raw(encoded: RawEncoded, each: Callable = _stored) -> np.ndarray:
    out = each(encoded.ids).view()  # read-only, so no caller writes into the payload
    out.flags.writeable = False
    return out


def _pack_raw(p: RawEncoded, w: int, out: FieldSink) -> None:
    out.bits("ids", p.ids, w)


def _unpack_raw(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> RawEncoded:
    return RawEncoded(ids=_read_ids(br, n, w, dict_count, "id"))


def _encode_prefix(ids: np.ndarray, block_size: Any, width: int) -> PrefixEncoded:
    """Capture the literal leading run; the remainder is stored verbatim."""
    _require_rows(ids)
    other = _first(ids != ids[0])
    count = len(ids) if other is None else other
    return PrefixEncoded(prefix_id=int(ids[0]), prefix_count=count, rest=ids[count:].copy())


def _decode_prefix(encoded: PrefixEncoded) -> np.ndarray:
    _check_decodable(encoded.prefix_count + len(encoded.rest))
    head = np.full(encoded.prefix_count, encoded.prefix_id, encoded.rest.dtype)
    return np.concatenate((head, encoded.rest))


def _scan_prefix(p: PrefixEncoded, lo: int | None, hi: int | None) -> np.ndarray:
    positions = _positions(p.prefix_count + len(p.rest))
    rows = np.flatnonzero(_hits(p.rest, lo, hi)).astype(positions, copy=False)
    rows += p.prefix_count
    if _hits(np.asarray(p.prefix_id), lo, hi):
        rows = np.concatenate((np.arange(p.prefix_count, dtype=positions), rows))
    return rows


def _pack_prefix(p: PrefixEncoded, w: int, out: FieldSink) -> None:
    out.u64s("prefix_count", [p.prefix_count])
    out.bits("prefix_id", [p.prefix_id], w)
    out.bits("rest", p.rest, w)


def _unpack_prefix(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> PrefixEncoded:
    prefix_count = br.read_u64("prefix length")
    if not 1 <= prefix_count <= n:
        raise InvariantViolationError(
            f"prefix length {prefix_count} of {n} rows", br.position - 8
        )
    prefix_id = int(_read_ids(br, 1, w, dict_count, "prefix id")[0])
    rest = _read_ids(br, n - prefix_count, w, dict_count, "id")
    if len(rest) and rest[0] == prefix_id:
        raise InvariantViolationError("prefix run not maximal", br.position)
    return PrefixEncoded(prefix_id=prefix_id, prefix_count=prefix_count, rest=rest)


def _encode_rle(ids: np.ndarray, block_size: Any, width: int) -> RleEncoded:
    _require_rows(ids)
    return RleEncoded(*run_lengths(ids))


def _decode_rle(encoded: RleEncoded) -> np.ndarray:
    _check_decodable(int(encoded.lengths.sum()))  # numpy's repeat refuses uint64 counts
    return np.repeat(encoded.values, encoded.lengths)


def _scan_rle(p: RleEncoded, lo: int | None, hi: int | None) -> np.ndarray:
    hit = _hits(p.values, lo, hi)
    starts, lengths = (np.cumsum(p.lengths) - p.lengths)[hit], p.lengths[hit]
    # Only the matching runs' rows are built: memory follows the rows returned.
    rows = np.arange(int(lengths.sum()), dtype=lengths.dtype)
    # The rows were allocated, so every length is below 2**63 and fits an intp.
    rows += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths.astype(np.intp))
    return rows


def _pack_rle(p: RleEncoded, w: int, out: FieldSink) -> None:
    out.u64s("run_count", [len(p.values)])
    out.u64s("run_lengths", p.lengths)
    out.bits("run_values", p.values, w)


def _unpack_rle(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> RleEncoded:
    run_count = br.read_u64("run count")
    if run_count < 1:
        raise InvariantViolationError("no runs", br.position - 8)
    lengths = _read_counts(br, run_count, "run {} length", "run {} has zero length")
    if sum(lengths) != n:
        raise InvariantViolationError(
            f"run lengths sum to {sum(lengths)}, header says {n}", br.position
        )
    # Run i's ID is checked as soon as it is read, so the values that are
    # present are checked before a missing one is reported.
    start = br.bit
    values = br.read_many(min(run_count, br.bits_left // w), w)
    bad = values >= dict_count
    bad[1:] |= values[1:] == values[:-1]
    i = _first(bad)
    if i is not None:
        offset = -(-(start + (i + 1) * w) // 8)
        _check_id(int(values[i]), dict_count, f"run {i} id", offset)
        raise InvariantViolationError(f"runs {i - 1} and {i} not maximal", offset)
    br.require((run_count - len(values)) * w)
    return RleEncoded(values=values, lengths=np.array(lengths, _positions(n)))


def _encode_sparse(ids: np.ndarray, block_size: Any, width: int) -> SparseEncoded:
    """Drop the most frequent ID; ties pick the smallest ID."""
    _require_rows(ids)
    values, counts = np.unique(ids, return_counts=True)
    dominant = int(values[np.argmax(counts)])  # values ascend; argmax takes the first
    present = ids == dominant
    return SparseEncoded(dominant_id=dominant, positions=present, residual=ids[~present])


def _decode_sparse(encoded: SparseEncoded) -> np.ndarray:
    present = encoded.positions
    out = np.full(len(present), encoded.dominant_id, encoded.residual.dtype)
    out[~present] = encoded.residual
    return out


def _scan_sparse(p: SparseEncoded, lo: int | None, hi: int | None) -> np.ndarray:
    """Each residual ID is tested once, and the absent bits take the hits to
    their rows. From one dominant row in 8 on they do so as positions, since
    a boolean mask that mixed scatters slowly: a gather when the dominant ID
    misses, else the hits set in a copy of the presence bits. Below that
    share the absent bits are nearly all set, and they serve as the mask."""
    present, dominant = p.positions, bool(_hits(np.asarray(p.dominant_id), lo, hi))
    absent = ~present
    if len(p.residual) * 8 <= len(present) * 7:
        absent = np.flatnonzero(absent)
        if not dominant:
            return absent[np.flatnonzero(_hits(p.residual, lo, hi))]
    hit = present.copy() if dominant else np.zeros(len(present), bool)
    hit[absent] = _hits(p.residual, lo, hi)
    return np.flatnonzero(hit)


def _pack_sparse(p: SparseEncoded, w: int, out: FieldSink) -> None:
    out.bits("dominant_id", [p.dominant_id], w)
    out.bits("positions", p.positions, 1)
    out.bits("residual", p.residual, w)


def _unpack_sparse(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> SparseEncoded:
    dominant = int(_read_ids(br, 1, w, dict_count, "dominant id")[0])
    bits = br.read_many(n, 1).view(bool)
    residual = br.read_many(n - int(np.count_nonzero(bits)), w)
    i = _first((residual >= dict_count) | (residual == dominant))
    if i is not None:
        _check_id(int(residual[i]), dict_count, "residual id", br.position)
        raise InvariantViolationError("dominant id in residual", br.position)
    return SparseEncoded(dominant_id=dominant, positions=bits, residual=residual)


def _encode_cluster(ids: np.ndarray, block_size: int, width: int) -> ClusterEncoded:
    """Replace aligned single-valued full blocks with one ID each.

    A trailing short block (length not divisible by block_size) is never
    flagged, even when single-valued.
    """
    _require_rows(ids)
    n = len(ids)
    full = n // block_size
    blocks = ids[: full * block_size].reshape(full, block_size)
    flags = np.zeros(-(-n // block_size), bool)
    flags[:full] = (blocks == blocks[:, :1]).all(axis=1)
    return ClusterEncoded(
        block_size=block_size,
        flags=flags,
        singles=blocks[flags[:full], 0],
        uncompressed=ids[~np.repeat(flags, min(block_size, n))[:n]],
        length=n,
    )


def _decode_cluster(encoded: ClusterEncoded, each: Callable = _stored) -> np.ndarray:
    flagged = np.repeat(encoded.flags, min(encoded.block_size, encoded.length))[: encoded.length]
    rest = each(encoded.uncompressed)
    out = np.empty(encoded.length, rest.dtype)
    out[flagged] = np.repeat(each(encoded.singles), encoded.block_size)  # flagged blocks are full
    out[~flagged] = rest
    return out


def _pack_cluster(p: ClusterEncoded, w: int, out: FieldSink) -> None:
    out.bits("flags", p.flags, 1)
    out.bits("id_payload", p.singles, w)
    out.bits("id_payload", p.uncompressed, w)


def _unpack_cluster(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> ClusterEncoded:
    flags = br.read_many(-(-n // b), 1).view(bool)
    if n % b and flags[-1]:
        raise InvariantViolationError("partial trailing block flagged as clustered", br.position)
    s = int(np.count_nonzero(flags))
    singles = _read_ids(br, s, w, dict_count, "single id")
    uncompressed = _read_ids(br, n - s * b, w, dict_count, "id")
    return ClusterEncoded(
        block_size=b,
        flags=flags,
        singles=singles,
        uncompressed=uncompressed,
        length=n,
    )


def _id_widths(k: np.ndarray) -> np.ndarray:
    """``id_width_bits`` of each entry of k."""
    return np.maximum(np.frexp(k - 1)[1], 1, dtype=np.int64)


def indirect_block_bits(
    k: np.ndarray, rows: np.ndarray | int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per block of ``rows`` rows holding k distinct IDs at global width W:
    whether it stores a local dictionary, and the bits it then takes.

    A block goes local iff its local dictionary and local IDs,
    k*W + rows*max(1, ceil(log2 k)), are strictly smaller than its IDs,
    rows*W; a local block also stores its dictionary's 64-bit size.
    """
    local = k * width + rows * _id_widths(k)
    direct = rows * width
    pays = local < direct
    return pays, np.where(pays, local + COUNT_BITS, direct)


def _encode_indirect(ids: np.ndarray, block_size: int, width: int) -> IndirectEncoded:
    """Per block, remap to a local dictionary where ``indirect_block_bits``
    says that pays; the trailing short block is priced at its own length.

    The column is cut into a (blocks, b) array whose trailing block is padded
    with its last ID, which adds no distinct ID; b is the column length when
    that is shorter. Each block is sorted as a row, and its runs of equal IDs
    are its local dictionary.
    """
    _require_rows(ids)
    n = len(ids)
    b = min(block_size, n)  # a block as long as the column is the only one
    rows = np.append(ids, np.full(-n % b, ids[-1])).reshape(-1, b)
    sizes = _block_rows(n, b)
    order = np.argsort(rows, axis=1)
    ranked = np.take_along_axis(rows, order, axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    k = np.count_nonzero(starts, axis=1)
    tags, _ = indirect_block_bits(k, sizes, width)
    local = np.empty_like(rows)
    np.put_along_axis(local, order, np.cumsum(starts, axis=1) - 1, axis=1)
    return IndirectEncoded(
        block_size=block_size,
        tags=tags,
        dict_sizes=k[tags],
        local_dicts=ranked[starts & tags[:, None]],
        payload=np.where(tags[:, None], local, rows).ravel()[:n],
        length=n,
    )


def _decode_indirect(encoded: IndirectEncoded, each: Callable = _stored) -> np.ndarray:
    n, b, sizes = encoded.length, encoded.block_size, encoded.dict_sizes
    tagged = np.repeat(encoded.tags, min(b, n))[:n]
    # Each tagged row's dictionary start in ``local_dicts`` (a tagged short
    # block is the last tagged one), int64 so adding local IDs cannot wrap.
    starts = np.repeat(np.cumsum(sizes) - sizes, min(b, n))[: np.count_nonzero(tagged)]
    starts += encoded.payload[tagged]
    out = each(encoded.payload).copy()  # the identity map hands back the payload itself
    out[tagged] = each(encoded.local_dicts)[starts]
    return out


def _pack_indirect(p: IndirectEncoded, w: int, out: FieldSink) -> None:
    tags = p.tags
    k = np.zeros(len(tags), np.int64)
    k[tags] = p.dict_sizes
    out.u64s("indirect_count", [len(p.dict_sizes)])
    out.u64s("local_dict_counts", p.dict_sizes)
    out.bits("block_tags", tags, 1)
    # Per block: its local dictionary (empty unless tagged), then its rows.
    widths = np.where(tags, _id_widths(k), w).tolist()
    starts = range(0, p.length, p.block_size)
    for start, end, size, width in zip(starts, np.cumsum(k).tolist(), k.tolist(), widths):
        out.bits("local_dicts", p.local_dicts[end - size : end], w)
        out.bits("block_payload", p.payload[start : start + p.block_size], width)


def _unpack_indirect(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> IndirectEncoded:
    num_blocks = -(-n // b)
    indirect_count = br.read_u64("indirect block count")
    if indirect_count > num_blocks:
        raise InvariantViolationError(
            f"{indirect_count} indirect blocks of {num_blocks}", br.position - 8
        )
    sizes = _read_counts(br, indirect_count, "local dictionary {} size", "local dictionary {} empty")
    tags = br.read_many(num_blocks, 1).view(bool)
    tagged = int(np.count_nonzero(tags))
    if tagged != indirect_count:
        raise InvariantViolationError(
            f"{tagged} indirect tags, counts region says {indirect_count}", br.position
        )

    # Each block is two fields, all read in one pass. A tagged block holds its
    # local dictionary (k ascending IDs at w bits), then one local ID below k
    # per row at the local width; an untagged block holds its IDs, then
    # nothing. Blocks from the first with an impossible k on are not read.
    rows = _block_rows(n, b)
    k_read = np.array(sizes, np.uint64)
    bad = _first((k_read > rows[tags].astype(np.uint64)) | (k_read > dict_count))
    oversized = None
    if bad is not None:
        i = int(np.flatnonzero(tags)[bad])
        oversized = f"local dictionary of {sizes[bad]} ids in a {rows[i]}-row block"
        rows, tags = rows[:i], tags[:i]
    k = np.zeros(len(tags), np.int64)
    k[tags] = k_read[:bad]
    # Per field, dictionary then rows: count, width, ID bound, whether it is a local dictionary.
    counts = np.stack((np.where(tags, k, rows), np.where(tags, rows, 0)), axis=1).ravel()
    widths = np.stack((np.full(len(tags), w), np.where(tags, _id_widths(k), w)), axis=1).ravel()
    bounds = np.stack((np.full(len(tags), dict_count), k), axis=1).ravel()
    ascending = np.stack((tags, np.zeros(len(tags), bool)), axis=1).ravel()
    field_ends = np.cumsum(counts * widths)
    whole = int(np.searchsorted(field_ends, br.bits_left, side="right"))  # fields wholly present
    start = br.bit
    values = br.read_fields(np.repeat(widths[:whole].astype(np.uint8), counts[:whole]))

    # Every field present is checked, in stream order, before a missing field
    # or an impossible k is reported: the first field with an ID at or above
    # its bound, or a local dictionary not strictly ascending, fails.
    present = np.flatnonzero(counts[:whole])
    if len(present):
        value_ends = np.cumsum(counts[:whole])
        firsts = value_ends[present] - counts[present]
        over = np.maximum.reduceat(values, firsts) >= bounds[present]
        descends = np.zeros(len(values), bool)
        descends[1:] = values[1:] <= values[:-1]
        descends[firsts] = False
        unsorted = np.logical_or.reduceat(descends, firsts) & ascending[present]
        failed = _first(over | unsorted)
        if failed is not None:
            field = int(present[failed])
            i = field // 2
            offset = -(-(start + int(field_ends[field])) // 8)
            if field % 2:
                raise InvariantViolationError(
                    f"local id outside {bounds[field]}-entry dictionary in block {i}", offset
                )
            what = "local dictionary id" if tags[i] else "id"
            _check_ids(values[firsts[failed] : value_ends[field]], dict_count, what, offset)
            raise InvariantViolationError(
                f"local dictionary of block {i} not strictly ascending", offset
            )
    if whole < len(counts):
        br.require(int(counts[whole] * widths[whole]))
    if oversized is not None:
        raise InvariantViolationError(oversized, br.position)

    in_dict = np.repeat(ascending, counts)
    return IndirectEncoded(
        block_size=b,
        tags=tags,
        dict_sizes=k[tags],
        local_dicts=values[in_dict],
        payload=values[~in_dict],
        length=n,
    )


def _encode_affine(ids: np.ndarray, block_size: Any, width: int) -> AffineEncoded:
    """Store strictly sequential IDs (stride +1 or -1) as start and step."""
    n = len(ids)
    if n < 2:
        raise NotAffineError(f"affine encoding needs at least 2 rows, got {n}")
    strides = np.diff(ids)  # stride i leads into row i + 1
    step = int(strides[0])
    if step not in (1, -1):
        raise NotAffineError(f"stride between rows 0 and 1 is {step}, not +-1")
    broken = _first(strides != step)
    if broken is not None:
        raise NotAffineError(f"stride breaks at row {broken + 1}")
    return AffineEncoded(start_id=int(ids[0]), step=step, length=n)


def _row_range(start: int, stop: int) -> np.ndarray:
    """The rows start through stop - 1 as an int array.

    np.arange rounds the length through a double, so it returns an empty
    array for lengths within 512 of 2**63. Lengths from 2**62 on raise
    ValueError here, as numpy itself does for shorter ones it cannot hold.
    """
    if stop - start >= 1 << 62:
        raise ValueError(f"cannot list {stop - start} rows")
    # np.arange(start, stop) raises for bounds past int64 even when empty.
    return np.arange(start, stop) if start < stop else np.arange(0)


def _decode_affine(encoded: AffineEncoded) -> np.ndarray:
    return encoded.start_id + encoded.step * _row_range(0, encoded.length)


def _scan_affine(p: AffineEncoded, lo: int | None, hi: int | None) -> np.ndarray:
    # The id at row i is start + step * i, so row (id - start) * step holds id:
    # the bound that rows reach first gives the first hit, the other the last.
    n, start, step = p.length, p.start_id, p.step
    first, last = (lo, hi) if step == 1 else (hi, lo)
    row_lo = 0 if first is None else max(0, (first - start) * step)
    row_hi = n - 1 if last is None else min(n - 1, (last - start) * step)
    return _row_range(row_lo, row_hi + 1)


def _pack_affine(p: AffineEncoded, w: int, out: FieldSink) -> None:
    out.bits("start_id", [p.start_id], w)
    out.bits("step", [0 if p.step == 1 else 1], 1)


def _unpack_affine(br: _BitReader, n: int, b: int, dict_count: int, w: int) -> AffineEncoded:
    if n < 2:
        raise InvariantViolationError("affine column with fewer than 2 rows", 6)
    start_at = br.position
    start, step_bit = br.read_fields(np.array([w, 1], np.uint8)).tolist()
    step = 1 if step_bit == 0 else -1
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

    ``encode`` takes (ids, block size, ID width) from ``encode_array`` only:
    the IDs as an int64 array it must not keep or modify, and for a blocked
    scheme a block size already checked. ``decode`` returns the IDs in the
    dtype the payload holds them in. Raw, cluster and indirect decode take an
    optional map, applied to each stored ID array before it is placed on the
    rows (the identity by default), and their ``scan`` is that decode with
    each stored ID replaced by its hit; sparse's ``scan`` tests its residual
    once and, from one dominant row in 8 on, reaches the rows through the
    positions of the absent bits.
    ``scan``, given closed ID bounds (None unbounded), returns the ascending
    row positions as an int array.
    ``pack`` takes the payload, the ID width and a field sink, and names
    every field it writes, even an empty one: ``u64s(name, values)`` for
    the counts region, ``bits(name, values, width)`` for the packed region.
    It hands the sink its arrays as stored, not converted to lists. The
    breakdown's keys are these names. ``unpack`` reads both regions back
    from a bit reader positioned at the counts, given (rows, block size,
    dictionary size, ID width).
    """

    kind: SchemeKind
    tag: int  # scheme byte of the file header
    blocked: bool  # takes a block size, stored in the file header
    payload_type: type
    encode: Callable[[np.ndarray, Any, int], Any]
    decode: Callable[..., np.ndarray]
    scan: Callable[[Any, int | None, int | None], np.ndarray]
    pack: Callable[[Any, int, FieldSink], None]
    unpack: Callable[[_BitReader, int, int, int, int], Any]


CODECS: dict[SchemeKind, Codec] = {
    codec.kind: codec
    for codec in (
        Codec(SchemeKind.RAW, 0, False, RawEncoded,
              _encode_raw, _decode_raw, partial(_scan_through, _decode_raw),
              _pack_raw, _unpack_raw),
        Codec(SchemeKind.PREFIX, 1, False, PrefixEncoded,
              _encode_prefix, _decode_prefix, _scan_prefix, _pack_prefix, _unpack_prefix),
        Codec(SchemeKind.RLE, 2, False, RleEncoded,
              _encode_rle, _decode_rle, _scan_rle, _pack_rle, _unpack_rle),
        Codec(SchemeKind.SPARSE, 3, False, SparseEncoded,
              _encode_sparse, _decode_sparse, _scan_sparse, _pack_sparse, _unpack_sparse),
        Codec(SchemeKind.CLUSTER, 4, True, ClusterEncoded,
              _encode_cluster, _decode_cluster, partial(_scan_through, _decode_cluster),
              _pack_cluster, _unpack_cluster),
        Codec(SchemeKind.INDIRECT, 5, True, IndirectEncoded,
              _encode_indirect, _decode_indirect, partial(_scan_through, _decode_indirect),
              _pack_indirect, _unpack_indirect),
        Codec(SchemeKind.AFFINE, 6, False, AffineEncoded,
              _encode_affine, _decode_affine, _scan_affine, _pack_affine, _unpack_affine),
    )
}
_CODEC_OF_PAYLOAD = {codec.payload_type: codec for codec in CODECS.values()}


def encode_array(
    array: ValueIdArray, scheme: SchemeKind, block_size: int | None = None
) -> EncodedColumn:
    """Encode a value-ID array under one scheme: the one way into a layout.

    The IDs are taken as one int64 array, with no copy when they already are
    one, and a blocked scheme's block size is checked here, before its codec
    encodes them.
    """
    codec = CODECS[scheme]
    if codec.blocked:
        if block_size is None:
            raise ValueError(f"{scheme.value} encoding needs a block size")
        check_block_size(block_size)
    ids, width = np.asarray(array.ids, np.int64), array.id_width_bits
    return EncodedColumn(
        payload=codec.encode(ids, block_size, width), id_width_bits=width, length=len(ids)
    )


def decode_array(encoded: EncodedColumn) -> list[int]:
    """Recover the value-ID sequence as a list. Inverse of encode_array."""
    return encoded.codec.decode(encoded.payload).tolist()


class _SizeTally(dict):
    """A field sink that adds up each named field's bits instead of storing them."""

    def u64s(self, name: str, values: Sequence[int]) -> None:
        self.bits(name, values, COUNT_BITS)

    def bits(self, name: str, values: Sequence[int], width: int) -> None:
        self[name] = self.get(name, 0) + len(values) * width


def encoded_size_breakdown(encoded: EncodedColumn) -> dict[str, int]:
    """Logical size in bits of each field the codec's ``pack`` writes, by name."""
    tally = _SizeTally()
    encoded.codec.pack(encoded.payload, encoded.id_width_bits, tally)
    return tally


def encoded_size_bits(encoded: EncodedColumn) -> int:
    """Total logical payload size in bits (sum of the breakdown)."""
    return sum(encoded_size_breakdown(encoded).values())


def scan_id_range(encoded: EncodedColumn, interval: IdInterval) -> list[int]:
    """Row positions whose ID lies in the interval, ascending.

    Does not decode the IDs: runs, single-valued blocks and local dictionary
    entries are tested once each, and the affine form is solved arithmetically.
    """
    norm = interval.normalize()
    if norm is None:
        return []
    return encoded.codec.scan(encoded.payload, *norm).tolist()
