"""Binary column files and CSV column extraction."""

from __future__ import annotations

import hashlib
import io
import json
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import support
from colcodec import (
    BadMagicError,
    ColumnIndexOutOfRangeError,
    CsvParseError,
    Dictionary,
    FormatError,
    IdInterval,
    InvariantViolationError,
    RaggedRowError,
    RowCountError,
    SchemeKind,
    TruncatedPayloadError,
    UnsupportedVersionError,
    Utf8Error,
    ValueIdArray,
    decode_array,
    encode_array,
    encode_column,
    encoded_size_bits,
    read_csv_column,
    read_encoded,
    scan_id_range,
    write_encoded,
)
from colcodec.cli import main
from colcodec.fileio import HEADER_BYTES, MAGIC, VERSION, _BitReader, _BitWriter


GOLDEN = bytes.fromhex(
    "42434331"  # magic
    "01"  # version
    "00"  # scheme tag: raw
    "0300000000000000"  # 3 rows
    "00000000"  # no block size
    "0200000000000000"  # 2 dictionary entries
    "0100000061"  # "a"
    "0100000062"  # "b"
    "05"  # ids 1,0,1 packed LSB-first at width 1
)


def raw_column():
    dictionary, array = encode_column(["b", "a", "b"])
    return dictionary, encode_array(array, SchemeKind.RAW)


def write_bytes(dictionary, encoded):
    sink = io.BytesIO()
    count = write_encoded(sink, dictionary, encoded)
    data = sink.getvalue()
    assert count == len(data)
    return data


def dict_section_bytes(dictionary):
    return sum(4 + len(v.encode("utf-8")) for v in dictionary.values)


def test_golden_file_bytes():
    dictionary, encoded = raw_column()
    assert write_bytes(dictionary, encoded) == GOLDEN
    assert len(GOLDEN) == 37


def test_golden_file_reads_back():
    dictionary, encoded = read_encoded(io.BytesIO(GOLDEN))
    assert dictionary.values == ["a", "b"]
    assert decode_array(encoded) == [1, 0, 1]


GOLDEN_ROWS = "b b b b a c a a e d".split()  # IDs 1 1 1 1 0 2 0 0 4 3, width 3
GOLDEN_AFFINE_ROWS = "d c b a".split()  # IDs 3 2 1 0, step -1
GOLDEN_DICT = "0100000061" "0100000062" "0100000063" "0100000064" "0100000065"

# scheme -> (block size, file bytes); header | dictionary | counts and packed bits
SCHEME_GOLDENS = {
    SchemeKind.PREFIX: (
        None,
        "4243433101010a00000000000000000000000500000000000000" + GOLDEN_DICT
        + "0400000000000000" "81000e",
    ),
    SchemeKind.RLE: (
        None,
        "4243433101020a00000000000000000000000500000000000000" + GOLDEN_DICT
        + "0600000000000000" "0400000000000000" "0100000000000000" "0100000000000000"
        "0200000000000000" "0100000000000000" "0100000000000000" "81c001",
    ),
    SchemeKind.SPARSE: (
        None,
        "4243433101030a00000000000000000000000500000000000000" + GOLDEN_DICT + "79000238",
    ),
    SchemeKind.CLUSTER: (
        2,
        "4243433101040a00000000000000020000000500000000000000" + GOLDEN_DICT + "2b01c401",
    ),
    SchemeKind.INDIRECT: (
        4,
        "4243433101050a00000000000000040000000500000000000000" + GOLDEN_DICT
        + "0200000000000000" "0100000000000000" "0200000000000000" "0b40c201",
    ),
    SchemeKind.AFFINE: (
        None,
        "4243433101060400000000000000000000000400000000000000"
        "0100000061" "0100000062" "0100000063" "0100000064" "07",
    ),
}


@pytest.mark.parametrize("scheme", list(SCHEME_GOLDENS), ids=lambda s: s.value)
def test_golden_bytes_per_scheme(scheme):
    block_size, golden = SCHEME_GOLDENS[scheme]
    rows = GOLDEN_AFFINE_ROWS if scheme is SchemeKind.AFFINE else GOLDEN_ROWS
    dictionary, array = encode_column(rows)
    encoded = encode_array(array, scheme, block_size)
    data = bytes.fromhex(golden)
    assert write_bytes(dictionary, encoded) == data
    assert read_encoded(io.BytesIO(data)) == (dictionary, encoded)
    assert decode_array(encoded) == array.ids


def test_round_trip_preserves_structure_and_bytes():
    rng = np.random.default_rng(149)
    plan_rng = random.Random(149)
    for family in support.FAMILIES:
        for _ in range(15):
            n = int(rng.integers(1, 150))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            values = [f"v{i:04d}" for i in ids]
            dictionary, array = encode_column(values)
            for scheme, block in support.scheme_plans(plan_rng, array.ids):
                encoded = encode_array(array, scheme, block_size=block)
                data = write_bytes(dictionary, encoded)

                got_dict, got_encoded = read_encoded(io.BytesIO(data))
                assert got_dict == dictionary
                assert got_encoded == encoded
                assert write_bytes(got_dict, got_encoded) == data


def test_file_size_law_holds_exactly():
    rng = np.random.default_rng(151)
    plan_rng = random.Random(151)
    for family in support.FAMILIES:
        for _ in range(15):
            n = int(rng.integers(1, 150))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            values = [f"value-{i}" for i in ids]
            dictionary, array = encode_column(values)
            for scheme, block in support.scheme_plans(plan_rng, array.ids):
                encoded = encode_array(array, scheme, block_size=block)
                data = write_bytes(dictionary, encoded)
                payload = -(-encoded_size_bits(encoded) // 8)
                assert len(data) == HEADER_BYTES + dict_section_bytes(dictionary) + payload


def test_every_proper_prefix_is_rejected():
    dictionary, array = encode_column(["x", "y", "y", "z", "z", "z"])
    encoded = encode_array(array, SchemeKind.RLE)
    data = write_bytes(dictionary, encoded)
    for cut in range(len(data)):
        with pytest.raises(TruncatedPayloadError):
            read_encoded(io.BytesIO(data[:cut]))


def test_trailing_bytes_are_rejected():
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(GOLDEN + b"\x00"))


def test_nonzero_padding_is_rejected():
    # ids occupy 3 bits of the final byte; flip a padding bit
    corrupted = GOLDEN[:-1] + bytes([GOLDEN[-1] | 0x80])
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(corrupted))


def test_bad_magic_and_version():
    with pytest.raises(BadMagicError) as info:
        read_encoded(io.BytesIO(b"XXXX" + GOLDEN[4:]))
    assert info.value.offset == 0

    with pytest.raises(UnsupportedVersionError) as info:
        read_encoded(io.BytesIO(GOLDEN[:4] + b"\x02" + GOLDEN[5:]))
    assert info.value.offset == 4


def test_unknown_scheme_tag():
    with pytest.raises(InvariantViolationError) as info:
        read_encoded(io.BytesIO(GOLDEN[:5] + b"\x07" + GOLDEN[6:]))
    assert info.value.offset == 5


def test_zero_rows_is_rejected():
    data = GOLDEN[:6] + b"\x00" * 8 + GOLDEN[14:]
    with pytest.raises(InvariantViolationError) as info:
        read_encoded(io.BytesIO(data))
    assert info.value.offset == 6


def test_block_size_field_must_match_the_scheme():
    # raw file claiming a block size
    data = GOLDEN[:14] + b"\x02\x00\x00\x00" + GOLDEN[18:]
    with pytest.raises(InvariantViolationError) as info:
        read_encoded(io.BytesIO(data))
    assert info.value.offset == 14

    # cluster file with a non-power-of-two block size
    dictionary, array = encode_column(["a", "a", "b", "b"])
    encoded = encode_array(array, SchemeKind.CLUSTER, block_size=2)
    good = write_bytes(dictionary, encoded)
    bad = good[:14] + b"\x03\x00\x00\x00" + good[18:]
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(bad))


def test_blocked_schemes_report_a_bad_block_size_at_its_field():
    dictionary, array = encode_column(["a", "a", "b", "b"])
    for scheme in (SchemeKind.CLUSTER, SchemeKind.INDIRECT):
        good = write_bytes(dictionary, encode_array(array, scheme, block_size=2))
        for block_size in (0, 1, 3, 6):
            bad = good[:14] + block_size.to_bytes(4, "little") + good[18:]
            with pytest.raises(InvariantViolationError) as info:
                read_encoded(io.BytesIO(bad))
            assert info.value.offset == 14


def test_unsorted_dictionary_is_rejected():
    # swap the two entries: "b" before "a"
    data = GOLDEN[:26] + bytes.fromhex("0100000062" "0100000061") + GOLDEN[36:]
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(data))


def test_duplicate_dictionary_entry_is_rejected():
    data = GOLDEN[:26] + bytes.fromhex("0100000061" "0100000061") + GOLDEN[36:]
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(data))


def test_dictionary_entries_must_be_utf8():
    data = GOLDEN[:26] + bytes.fromhex("01000000ff" "0100000062") + GOLDEN[36:]
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(data))


def test_raw_id_must_stay_below_dictionary_size():
    # dictionary of one entry but a payload bit pattern encoding id 1
    dictionary = Dictionary(values=["a"], width_bits=1)
    array = ValueIdArray(ids=[0, 0, 0], id_width_bits=1)
    encoded = encode_array(array, SchemeKind.RAW)
    data = write_bytes(dictionary, encoded)
    bad = data[:-1] + bytes([data[-1] | 0x02])
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(bad))


def test_rle_runs_must_cover_the_rows():
    dictionary, array = encode_column(["a", "a", "b"])
    encoded = encode_array(array, SchemeKind.RLE)
    data = write_bytes(dictionary, encoded)
    # run lengths start after the run count; bump the first run's length
    counts_at = HEADER_BYTES + dict_section_bytes(dictionary)
    bad = bytearray(data)
    bad[counts_at + 8] += 1
    with pytest.raises(InvariantViolationError):
        read_encoded(io.BytesIO(bytes(bad)))


def test_affine_needs_at_least_two_rows():
    dictionary, array = encode_column(["a", "b", "c"])
    encoded = encode_array(array, SchemeKind.AFFINE)
    data = write_bytes(dictionary, encoded)
    bad = data[:6] + (1).to_bytes(8, "little") + data[14:]
    with pytest.raises((InvariantViolationError, TruncatedPayloadError)):
        read_encoded(io.BytesIO(bad))


def test_format_errors_carry_byte_offsets():
    try:
        read_encoded(io.BytesIO(b"XXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"))
    except FormatError as exc:
        assert "byte offset 0" in str(exc)
    else:
        pytest.fail("expected a format error")


def csv_column(data: bytes, index: int = 0, has_header: bool = False):
    return read_csv_column(io.BytesIO(data), index, has_header)


def test_csv_basic_and_header():
    assert csv_column(b"a\nb\nc\n") == ["a", "b", "c"]
    assert csv_column(b"name\na\nb\n", has_header=True) == ["a", "b"]
    assert csv_column(b"x,y\n1,2\n3,4\n", index=1, has_header=True) == ["2", "4"]


def test_csv_quoted_fields():
    assert csv_column(b'"a,b"\nplain\n') == ["a,b", "plain"]
    assert csv_column(b'"line\nbreak",x\nc,y\n', index=0) == ["line\nbreak", "c"]
    assert csv_column(b'"say ""hi"""\n') == ['say "hi"']


def test_csv_blank_line_is_an_empty_cell():
    assert csv_column(b"a\n\nb\n") == ["a", "", "b"]


def test_csv_missing_trailing_newline():
    assert csv_column(b"a\nb") == ["a", "b"]


def test_csv_empty_file_yields_no_rows():
    assert csv_column(b"") == []


def test_csv_ragged_rows_are_rejected():
    with pytest.raises(RaggedRowError):
        csv_column(b"a,b\nc\n")
    with pytest.raises(RaggedRowError):
        csv_column(b"a\nb,c\n")


def test_csv_column_index_is_checked():
    with pytest.raises(ColumnIndexOutOfRangeError):
        csv_column(b"a,b\nc,d\n", index=2)
    with pytest.raises(ColumnIndexOutOfRangeError):
        csv_column(b"a\n", index=-1)


def test_csv_rejects_invalid_utf8():
    with pytest.raises(Utf8Error):
        csv_column(b"\xff\xfe\x00a")


@pytest.mark.parametrize(
    "data, index, has_header, error, message",
    [
        # a ragged row comes first, but every row is parsed before widths are checked
        (b"a,b\nc\nd,e\rf\n", 0, False, CsvParseError, "line 3: new-line character"),
        # ragged rows and an out-of-range column: the first ragged row is named
        (b"a,b\nc,d\ne\nf,g,h\n", 5, False, RaggedRowError, "row 2 has 1 fields, expected 2"),
        (b"h\n\na,b\nc\n", -1, True, RaggedRowError, "row 2 has 2 fields, expected 1"),
    ],
)
def test_csv_mixed_faults_keep_their_precedence(data, index, has_header, error, message):
    with pytest.raises(error) as info:
        read_csv_column(io.BytesIO(data), index, has_header)
    assert str(info.value).startswith(message)


def random_plan(rng: random.Random, long: bool) -> tuple[list[int], list[list[int]]]:
    """u64 counts, then bit fields as the codecs write them: each field one
    width (1 to 57 bits) or, as indirect writes its blocks, mixed widths.
    Long plans also hold fields longer than the seams' chunk of values."""
    counts = [rng.getrandbits(64) for _ in range(rng.randrange(3))]
    fields = []
    for _ in range(rng.randint(1, 5)):
        count = rng.choice([0, 1, 2, 7, 8, 9, rng.randrange(41)])
        if rng.random() < 0.3:
            fields.append([rng.randint(1, 57) for _ in range(count)])
        else:
            fields.append([rng.randint(1, 57)] * count)
    if long:
        fields.insert(rng.randrange(len(fields)), [rng.randint(1, 57)] * rng.randint(8193, 20_000))
        fields.append([rng.randint(1, 57) for _ in range(rng.randint(8193, 20_000))])
    return counts, fields


# The dtypes a field may arrive in: the encoders' bool and int64 arrays, and
# every unsigned dtype the reader returns (uint32 and uint64 above 16 bits).
DTYPES = (("bool", 1), ("uint8", 8), ("uint16", 16), ("uint32", 32), ("int64", 63), ("uint64", 64))


def array_dtypes(rng: random.Random, fields) -> list:
    """Per field, a numpy dtype to pass its values as, wide enough for its
    widest value, or None to pass a list."""
    out = []
    for widths in fields:
        nbits = max(widths, default=1)
        fits = [d for d, top in DTYPES if nbits <= top]
        out.append(rng.choice(fits) if rng.random() < 0.5 else None)
    return out


def write_plan(sink, rng: random.Random, counts, fields, dtypes=None) -> bytes:
    """Write the plan's values, drawn from ``rng``, as lists; with ``dtypes``,
    the counts as one uint64 array and each field typed by ``dtypes`` as an
    array (a mixed-width field as one-element slices of one array)."""
    sink.u64s("counts", np.array(counts, np.uint64) if dtypes else counts)
    for k, widths in enumerate(fields):
        values = [rng.getrandbits(nbits) for nbits in widths]
        if dtypes and dtypes[k]:
            values = np.array(values, dtypes[k])
        if len(set(widths)) == 1:
            sink.bits("field", values, widths[0])
        else:  # one call per value, as indirect's pack calls once per block
            for i, nbits in enumerate(widths):
                sink.bits("field", values[i : i + 1], nbits)
    return sink.getvalue()


def read_plan(reader, counts, fields) -> list:
    """Everything a reader yields for the plan: values and position after each
    read, then the outcome of ``finish``; a format error ends the list."""
    got = []
    try:
        got.append((list(reader.read_u64s(len(counts))), reader.position))
        for widths in fields:
            if len(set(widths)) == 1:
                values = reader.read_many(len(widths), widths[0])
            else:
                values = reader.read_fields(np.array(widths, np.uint8))
            got.append((list(values), reader.position))
        reader.finish()
        got.append("finished")
    except FormatError as exc:
        got.append((type(exc).__name__, str(exc), exc.offset))
    return got


def test_bit_seams_match_the_literal_loops():
    rng = random.Random(20261018)
    for case in range(300):
        counts, fields = random_plan(rng, long=case % 75 == 0)
        seed = rng.getrandbits(32)
        data = write_plan(_BitWriter(), random.Random(seed), counts, fields)
        assert data == write_plan(support.LiteralBitWriter(), random.Random(seed), counts, fields)
        # the same values with some fields passed as numpy arrays
        dtypes = array_dtypes(random.Random(case), fields)
        assert data == write_plan(_BitWriter(), random.Random(seed), counts, fields, dtypes)

        start = rng.randrange(4)  # the packed region follows a header
        blob = bytes(rng.getrandbits(8) for _ in range(start)) + data
        want = read_plan(support.LiteralBitReader(blob, start), counts, fields)
        assert want[-1] == "finished"
        assert read_plan(_BitReader(blob, start), counts, fields) == want

        cuts = range(start, len(blob)) if len(blob) < 400 else rng.sample(range(start, len(blob)), 3)
        for cut in cuts:
            short = blob[:cut]
            want = read_plan(support.LiteralBitReader(short, start), counts, fields)
            assert read_plan(_BitReader(short, start), counts, fields) == want

        if sum(map(sum, fields)) % 8:
            bad = blob[:-1] + bytes([blob[-1] | 0x80])  # the top padding bit set
        else:
            bad = blob + b"\x00"  # a trailing byte
        want = read_plan(support.LiteralBitReader(bad, start), counts, fields)
        assert want[-1][0] == "InvariantViolationError"
        assert read_plan(_BitReader(bad, start), counts, fields) == want


READ_OUTCOMES = Path(__file__).with_name("data") / "read_outcomes.json"


def mutation_bases() -> list[bytes]:
    """The golden files, and the same schemes (affine aside) on 48 rows of short
    two-value segments over 16 values, which give each one many runs, residual
    IDs, flagged blocks or tagged blocks."""
    rng = random.Random(3)
    rows: list[str] = []
    while len(rows) < 48:
        pair = ["a", rng.choice("bcdefghijklmnop")]
        rows += [rng.choice(pair) for _ in range(rng.randint(2, 8))]
    dictionary, array = encode_column(rows[:48])
    wide = [
        write_bytes(dictionary, encode_array(array, scheme, {SchemeKind.CLUSTER: 4, SchemeKind.INDIRECT: 8}.get(scheme)))
        for scheme in SchemeKind
        if scheme is not SchemeKind.AFFINE
    ]
    return [GOLDEN] + [bytes.fromhex(golden) for _, golden in SCHEME_GOLDENS.values()] + wide


def mutated_files() -> list[bytes]:
    """About 3,000 seeded mutations of ``mutation_bases``: bit flips,
    truncations, both at once, appended bytes and overwritten count fields.
    Most flips and cuts land in the last 8 bytes, among the packed values, so
    that one file often breaks two checks and the first in stream order must
    be the one reported."""
    rng = random.Random(7)
    out = []
    for base in mutation_bases():
        fields = [6, 14, 18] + list(range(HEADER_BYTES + 5, len(base) - 1, 8))

        def at(data):
            low = len(data) - 8 if rng.random() < 0.8 else 0
            return rng.randrange(low, len(data))

        for _ in range(232):
            data = bytearray(base)
            kind = rng.randrange(5)
            if kind in (0, 1):
                for _ in range(rng.randint(1, 3)):
                    data[at(data)] ^= 1 << rng.randrange(8)
            if kind == 2:
                field = rng.choice(fields)
                value = rng.choice([0, 1, 2, 3, rng.randrange(64), 2**31, 2**62, 2**64 - 1])
                data[field : field + 8] = value.to_bytes(8, "little")
            if kind in (1, 3):
                del data[at(data) :]
            if kind == 4:
                data += bytes(rng.choice([0, rng.randrange(256)]) for _ in range(rng.randint(1, 3)))
            out.append(bytes(data))
    return out


def read_outcome(data: bytes) -> str:
    """``ok`` and a hash of the decoded column, or the error's type, message and offset."""
    try:
        dictionary, encoded = read_encoded(io.BytesIO(data))
    except FormatError as exc:
        return f"{type(exc).__name__}: {exc} @ {exc.offset}"
    decoded = repr((dictionary.values, decode_array(encoded))).encode()
    return "ok " + hashlib.sha256(decoded).hexdigest()[:16]


def record_read_outcomes() -> None:
    """Write the fixture: ``python tests/test_fileio.py`` with the reader to record on the path."""
    outcomes = [read_outcome(data) for data in mutated_files()]
    distinct = sorted(set(outcomes))
    note = (
        "read_encoded outcome of each mutated_files() file, recorded with the "
        "per-value bit reader that the whole-array reader replaced"
    )
    READ_OUTCOMES.parent.mkdir(exist_ok=True)
    READ_OUTCOMES.write_text(
        f'{{"note": {json.dumps(note)},\n"outcomes": [\n'
        + ",\n".join(map(json.dumps, distinct))
        + f'\n],\n"index": {json.dumps([distinct.index(o) for o in outcomes])}}}\n'
    )


def test_mutated_files_read_as_the_per_value_reader_did():
    fixture = json.loads(READ_OUTCOMES.read_text())
    want = [fixture["outcomes"][i] for i in fixture["index"]]
    got = [read_outcome(data) for data in mutated_files()]
    assert len(got) == len(want) > 3000
    assert [(i, g) for i, (g, w) in enumerate(zip(got, want)) if g != w] == []


@pytest.mark.parametrize("scheme", [SchemeKind.RAW, SchemeKind.SPARSE], ids=lambda s: s.value)
def test_a_claimed_row_count_sizes_nothing(scheme):
    dictionary, array = encode_column(GOLDEN_ROWS)
    data = write_bytes(dictionary, encode_array(array, scheme))
    data = data[:6] + (2**62).to_bytes(8, "little") + data[14:]
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError) as info:
            read_encoded(io.BytesIO(data))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.offset == len(data)
    assert peak < 1 << 20


def test_a_large_cluster_block_size_sizes_nothing():
    """A valid five-row cluster file may name a block size of 2**31; encoding,
    writing, reading, decoding and scanning it allocate by its rows."""
    dictionary, array = encode_column("b b b a b".split())
    tracemalloc.start()
    try:
        encoded = encode_array(array, SchemeKind.CLUSTER, 2**31)
        back = read_encoded(io.BytesIO(write_bytes(dictionary, encoded)))[1]
        decoded = decode_array(back)
        scans = [scan_id_range(e, IdInterval(1, 1)) for e in (encoded, back)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == encoded
    assert decoded == array.ids
    assert scans == [[0, 1, 2, 4]] * 2
    assert peak < 1 << 20


def test_a_large_indirect_block_size_sizes_nothing():
    dictionary, array = encode_column("b b b a b".split())
    tracemalloc.start()
    try:
        encoded = encode_array(array, SchemeKind.INDIRECT, 2**31)
        back = read_encoded(io.BytesIO(write_bytes(dictionary, encoded)))[1]
        decoded = decode_array(back)
        scans = [scan_id_range(e, IdInterval(1, 1)) for e in (encoded, back)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == encoded
    assert decoded == array.ids
    assert scans == [[0, 1, 2, 4]] * 2
    assert peak < 1 << 20


def claimed_rows_file(scheme: int, rows: int, counts: list[int], packed: int) -> bytes:
    """A file over the dictionary ["a", "b"] that claims ``rows`` rows."""
    dictionary = b"".join(len(v).to_bytes(4, "little") + v for v in (b"a", b"b"))
    return (
        MAGIC + bytes([VERSION, scheme]) + rows.to_bytes(8, "little") + bytes(4)
        + (2).to_bytes(8, "little") + dictionary
        + b"".join(c.to_bytes(8, "little") for c in counts) + bytes([packed])
    )


def test_scans_of_a_claimed_row_count_allocate_by_the_rows_returned():
    files = {
        "rle": claimed_rows_file(2, 2**62, [1, 2**62], 0b0),  # one run of id 0
        "prefix": claimed_rows_file(1, 2**62, [2**62 - 1], 0b10),  # id 0 but the last row
        "rle past 2**63": claimed_rows_file(2, 2**64 - 1, [2, 2**64 - 2, 1], 0b10),
        "prefix past 2**63": claimed_rows_file(1, 2**64 - 1, [2**64 - 2], 0b10),
    }
    assert [len(data) for data in files.values()] == [53, 45, 61, 45]
    tracemalloc.start()
    try:
        columns = {name: read_encoded(io.BytesIO(data))[1] for name, data in files.items()}
        misses = [scan_id_range(column, IdInterval(lo=2)) for column in columns.values()]
        last_rows = [scan_id_range(columns[name], IdInterval(1, 1)) for name in files]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert misses == [[], [], [], []]
    assert last_rows == [[], [2**62 - 1], [2**64 - 2], [2**64 - 2]]
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "scheme, counts", [(2, [2, 2**64 - 2, 1]), (1, [2**64 - 2])], ids=["rle", "prefix"]
)
def test_decoding_past_2_63_rows_raises_a_format_error_naming_the_rows(
    capsys, tmp_path, scheme, counts
):
    data = claimed_rows_file(scheme, 2**64 - 1, counts, 0b10)
    with pytest.raises(RowCountError, match=f"cannot decode {2**64 - 1} rows"):
        decode_array(read_encoded(io.BytesIO(data))[1])
    path, out = tmp_path / "claimed.bcc1", tmp_path / "out.csv"
    path.write_bytes(data)
    code = main(["decompress", str(path), "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 1
    assert stderr == f"error: RowCountError: cannot decode {2**64 - 1} rows (byte offset 6)\n"
    assert "Traceback" not in stdout + stderr
    assert not out.exists()


if __name__ == "__main__":
    record_read_outcomes()
