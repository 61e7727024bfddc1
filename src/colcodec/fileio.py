"""Binary column files ("BCC1") and CSV ingestion.

File layout, integers little-endian throughout:

    header   magic "BCC1" | version u8 (=1) | scheme u8 | n u64 |
             block_size u32 (0 unless the scheme takes one) | dict_count u64
    dict     dict_count entries, each u32 byte length + UTF-8 bytes,
             strictly ascending
    counts   scheme-dependent u64 fields
    packed   one bit stream, values LSB-first within bytes, zero-padded
             to the next byte boundary

Each scheme's tag, counts region and packed region are laid out by its
codec; the table of all seven is in ``encodings`` (``CODECS``). The counts
region is byte-aligned by construction and the packed region pads once at
the end, so the total file size is exactly

    26 + dictionary section bytes + ceil(encoded_size_bits / 8).

Reading validates structure (magic, version, truncation, ID bounds, run
and block shape) and rejects nonzero padding or trailing bytes, which
makes read and write exact inverses at the byte level. It does not re-run
encoder choice rules, so files a different encoder would not have produced
still load as long as they decode consistently.

The packed region is read and written whole-array with numpy, a fixed-size
chunk of values per pass, not one Python call per value; the writer packs
the arrays the codecs store, as they are. A read checks that the bits it
needs are present before it allocates anything, so a row count the file
only claims raises ``TruncatedPayloadError`` instead of sizing an array.
Where the checks of values already read and a truncation could both fire,
the one that comes first in the stream is raised, with the message and
offset a value-by-value reader would give.
"""

from __future__ import annotations

import csv
import io
import struct
from typing import BinaryIO, Sequence

import numpy as np

from .dictionary import Dictionary, id_width_bits
from .encodings import CODECS, EncodedColumn, check_block_size
from .errors import (
    BadMagicError,
    ColumnIndexOutOfRangeError,
    CsvParseError,
    InvalidBlockSizeError,
    InvariantViolationError,
    RaggedRowError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    Utf8Error,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_BYTES",
    "write_encoded",
    "read_encoded",
    "read_csv_column",
]

MAGIC = b"BCC1"
VERSION = 1
_HEADER = struct.Struct("<4sBBQIQ")
HEADER_BYTES = _HEADER.size  # 26

_CODEC_OF_TAG = {codec.tag: codec for codec in CODECS.values()}


# Values per numpy pass when packing or unpacking, so transient arrays stay a
# fixed size however many rows a column has.
_CHUNK = 1 << 13


def _uint(nbits: int) -> np.dtype:
    """The narrowest little-endian unsigned dtype holding ``nbits`` bits."""
    return np.min_scalar_type((1 << nbits) - 1).newbyteorder("<")


class _BitWriter:
    """Field sink for files: u64 counts, then values packed LSB-first within bytes.

    ``bits`` records a field as given, an array or a short list. ``getvalue``
    joins all fields after an empty array (so none at all joins too) into
    the narrowest unsigned dtype holding the widest one, wrapping, which keeps
    each value's low bits; it packs that a chunk at a time and pads once.
    """

    def __init__(self) -> None:
        self._counts = bytearray()
        self._fields: list[Sequence[int]] = []
        self._widths: list[int] = []

    def u64s(self, name: str, values: Sequence[int]) -> None:
        self._counts += np.asarray(values, "<u8").tobytes()

    def bits(self, name: str, values: Sequence[int], nbits: int) -> None:
        self._fields.append(values)
        self._widths.append(nbits)

    def getvalue(self) -> bytes:
        out = bytearray(self._counts)
        dtype = _uint(max(self._widths, default=1))
        values = np.concatenate([np.empty(0, dtype), *self._fields], dtype=dtype, casting="unsafe")
        widths = np.repeat(np.array(self._widths, np.uint8), [len(f) for f in self._fields])
        carry = np.zeros(0, np.uint8)  # the bits of earlier chunks short of a byte
        for start in range(0, len(widths), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            bits = np.concatenate((carry, _bit_stream(values[chunk], widths[chunk])))
            whole = len(bits) - len(bits) % 8
            out += np.packbits(bits[:whole], bitorder="little").tobytes()
            carry = bits[whole:]
        out += np.packbits(carry, bitorder="little").tobytes()  # zero high bits pad
        return bytes(out)


def _bit_stream(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """One uint8 per bit, LSB first: the low ``widths[i]`` bits of each ``values[i]`` in turn."""
    as_bytes = values.view(np.uint8).reshape(len(values), values.itemsize)
    matrix = np.unpackbits(as_bytes, axis=1, bitorder="little")  # row i: value i's bits
    top = int(widths.max())
    if widths.min() == top:
        return matrix[:, :top].ravel()
    return matrix[np.arange(matrix.shape[1]) < widths[:, None]]


class _BitReader:
    """Unpacks an LSB-first bit stream whole-array; offsets are absolute file positions.

    One bit cursor runs over the file; ``position`` is the first byte it has
    not entered, ``ceil(cursor / 8)``. Every read checks that its bits remain
    before it allocates anything, so a count the file only claims never sizes
    an array.
    """

    def __init__(self, data: bytes, start: int):
        self._data = data
        self._bytes = np.frombuffer(data + bytes(8), np.uint8)  # zero tail: whole words at the end
        # The little-endian u64 starting at each byte offset: a value of up to
        # 57 bits at any bit offset lies within one of them.
        self._words = np.ndarray((len(data) + 1,), "<u8", self._bytes, 0, (1,))
        self._bit = 8 * start

    @property
    def bit(self) -> int:
        """The absolute bit cursor."""
        return self._bit

    @property
    def position(self) -> int:
        return -(-self._bit // 8)

    @property
    def bits_left(self) -> int:
        return 8 * len(self._data) - self._bit

    def require(self, nbits: int) -> None:
        """Raise the truncation error unless ``nbits`` more bits remain."""
        if nbits > self.bits_left:
            raise TruncatedPayloadError("bit-packed payload ended early", len(self._data))

    def _gather(self, pos: np.ndarray, nbits: int | np.ndarray) -> np.ndarray:
        """The values of ``nbits`` bits (one width, or one per value) at bit offsets ``pos``."""
        words = self._words[pos >> 3]
        words >>= (pos & 7).astype(np.uint64)
        words &= (np.uint64(1) << np.asarray(nbits, np.uint64)) - np.uint64(1)
        return words

    def read_many(self, count: int, nbits: int) -> np.ndarray:
        """``count`` values of ``nbits`` bits (at most 57) each."""
        self.require(count * nbits)
        out = np.empty(count, _uint(nbits))
        for start in range(0, count, _CHUNK):
            stop = min(count, start + _CHUNK)
            pos = np.arange(start, stop, dtype=np.int64) * nbits + self._bit
            out[start:stop] = self._gather(pos, nbits)
        self._bit += count * nbits
        return out

    def read_fields(self, widths: np.ndarray) -> np.ndarray:
        """One value per entry of ``widths``, each that many bits (at most 57) wide."""
        total = int(widths.sum(dtype=np.int64))
        self.require(total)
        out = np.empty(len(widths), _uint(int(widths.max(initial=1))))
        bit = self._bit
        for start in range(0, len(widths), _CHUNK):
            chunk = widths[start : start + _CHUNK].astype(np.int64)
            ends = np.cumsum(chunk) + bit
            out[start : start + _CHUNK] = self._gather(ends - chunk, chunk)
            bit = int(ends[-1])
        self._bit += total
        return out

    def read_u64(self, what: str) -> int:
        """One little-endian u64 of the counts region, which precedes all bits."""
        pos = self.position
        if pos + 8 > len(self._data):
            raise TruncatedPayloadError(f"{what} truncated", pos)
        self._bit = 8 * (pos + 8)
        return int.from_bytes(self._data[pos : pos + 8], "little")

    def read_u64s(self, count: int) -> list[int]:
        """The next ``count`` u64s of the counts region, or as many as the data holds."""
        pos = self.position
        count = min(count, (len(self._data) - pos) // 8)
        self._bit = 8 * (pos + 8 * count)
        return list(struct.unpack_from(f"<{count}Q", self._data, pos))

    def finish(self) -> None:
        used = self._bit % 8
        if used and self._bytes[self._bit // 8] >> used:
            raise InvariantViolationError("nonzero padding bits", self._bit // 8)
        if self.position != len(self._data):
            raise InvariantViolationError("trailing bytes after payload", self.position)


def write_encoded(sink: BinaryIO, dictionary: Dictionary, encoded: EncodedColumn) -> int:
    """Serialize one encoded column; returns the bytes written.

    The dictionary and encoding must belong together (same ID width, IDs in
    range); that is the caller's contract.
    """
    codec = encoded.codec
    block_size = encoded.payload.block_size if codec.blocked else 0
    buf = bytearray()
    buf += _HEADER.pack(
        MAGIC, VERSION, codec.tag, encoded.length, block_size, len(dictionary.values)
    )
    raws = (value.encode("utf-8") for value in dictionary.values)
    buf += b"".join(len(raw).to_bytes(4, "little") + raw for raw in raws)
    out = _BitWriter()
    codec.pack(encoded.payload, encoded.id_width_bits, out)
    buf += out.getvalue()
    sink.write(bytes(buf))
    return len(buf)


def read_encoded(source: BinaryIO) -> tuple[Dictionary, EncodedColumn]:
    """Parse one column file. Exact inverse of write_encoded."""
    data = source.read()
    if len(data) < 4:
        raise TruncatedPayloadError("header truncated", len(data))
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}", 0)
    if len(data) < HEADER_BYTES:
        raise TruncatedPayloadError("header truncated", len(data))
    _, version, tag, n, block_size, dict_count = _HEADER.unpack_from(data)
    if version != VERSION:
        raise UnsupportedVersionError(f"version {version} not supported", 4)
    codec = _CODEC_OF_TAG.get(tag)
    if codec is None:
        raise InvariantViolationError(f"unknown scheme tag {tag}", 5)
    if n < 1:
        raise InvariantViolationError("column has no rows", 6)
    if codec.blocked:
        try:
            check_block_size(block_size)
        except InvalidBlockSizeError:
            raise InvariantViolationError(f"bad block size {block_size}", 14) from None
    elif block_size != 0:
        raise InvariantViolationError(
            f"block size {block_size} for a blockless scheme", 14
        )
    if dict_count < 1:
        raise InvariantViolationError("empty dictionary", 18)

    pos = HEADER_BYTES
    end = len(data)
    values: list[str] = []
    for i in range(dict_count):
        entry_at = pos + 4
        if entry_at > end:
            raise TruncatedPayloadError(f"dictionary entry {i} length truncated", pos)
        pos = entry_at + int.from_bytes(data[pos:entry_at], "little")
        if pos > end:
            raise TruncatedPayloadError(f"dictionary entry {i} truncated", entry_at)
        try:
            value = data[entry_at:pos].decode("utf-8")
        except UnicodeDecodeError:
            raise InvariantViolationError(
                f"dictionary entry {i} is not valid UTF-8", entry_at
            ) from None
        if values and value <= values[-1]:
            raise InvariantViolationError(
                f"dictionary entry {i} not strictly ascending", entry_at
            )
        values.append(value)
    dictionary = Dictionary(values=values, width_bits=id_width_bits(dict_count))
    w = dictionary.width_bits

    br = _BitReader(data, pos)
    payload = codec.unpack(br, n, block_size, dict_count, w)
    br.finish()
    return dictionary, EncodedColumn(payload=payload, id_width_bits=w, length=n)


def read_csv_column(
    source: BinaryIO, column_index: int, has_header: bool = False
) -> list[str]:
    """One column of an RFC-4180-style CSV byte stream, as text cells.

    All rows must have the first row's field count. A blank line counts as a
    single empty cell, so single-column files may hold empty values. With
    has_header the first row is skipped after the width check.
    """
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Utf8Error(f"input is not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row if row else [""] for row in reader]
    except csv.Error as exc:
        raise CsvParseError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        return []
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRowError(f"row {i} has {len(row)} fields, expected {width}")
    if not 0 <= column_index < width:
        raise ColumnIndexOutOfRangeError(
            f"column {column_index} of a {width}-column file"
        )
    if has_header:
        rows = rows[1:]
    return [row[column_index] for row in rows]
