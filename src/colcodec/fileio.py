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
"""

from __future__ import annotations

import csv
import io
import struct
from typing import BinaryIO, Iterable

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


class _BitWriter:
    """Packs values LSB-first within bytes."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0
        self._pending = 0

    def write(self, value: int, nbits: int) -> None:
        self._acc |= (value & ((1 << nbits) - 1)) << self._pending
        self._pending += nbits
        while self._pending >= 8:
            self._bytes.append(self._acc & 0xFF)
            self._acc >>= 8
            self._pending -= 8

    def write_many(self, values: Iterable[int], nbits: int) -> None:
        for value in values:
            self.write(value, nbits)

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._pending:
            out.append(self._acc & 0xFF)  # zero padding in the unused high bits
        return bytes(out)


class _BitReader:
    """Unpacks an LSB-first bit stream; offsets are absolute file positions."""

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

    def read_u64(self, what: str) -> int:
        """One little-endian u64 of the counts region, which precedes all bits."""
        if self._pos + 8 > len(self._data):
            raise TruncatedPayloadError(f"{what} truncated", self._pos)
        self._pos += 8
        return int.from_bytes(self._data[self._pos - 8 : self._pos], "little")

    def finish(self) -> None:
        if self._acc:
            raise InvariantViolationError("nonzero padding bits", self._pos - 1)
        if self._pos != len(self._data):
            raise InvariantViolationError("trailing bytes after payload", self._pos)


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
    for value in dictionary.values:
        raw = value.encode("utf-8")
        buf += struct.pack("<I", len(raw))
        buf += raw
    bits = _BitWriter()
    for c in codec.pack(encoded.payload, encoded.id_width_bits, bits):
        buf += struct.pack("<Q", c)
    buf += bits.getvalue()
    sink.write(bytes(buf))
    return len(buf)


def _take(data: bytes, pos: int, n: int, what: str) -> tuple[bytes, int]:
    if pos + n > len(data):
        raise TruncatedPayloadError(f"{what} truncated", pos)
    return data[pos : pos + n], pos + n


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
    values: list[str] = []
    for i in range(dict_count):
        raw, pos = _take(data, pos, 4, f"dictionary entry {i} length")
        (length,) = struct.unpack("<I", raw)
        entry_at = pos
        raw, pos = _take(data, pos, length, f"dictionary entry {i}")
        try:
            value = raw.decode("utf-8")
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
