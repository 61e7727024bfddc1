"""Binary column files and CSV column extraction."""

from __future__ import annotations

import io
import random

import numpy as np
import pytest

import support
from colcodec import (
    BadMagicError,
    ColumnIndexOutOfRangeError,
    Dictionary,
    FormatError,
    InvariantViolationError,
    RaggedRowError,
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
    write_encoded,
)
from colcodec.fileio import HEADER_BYTES


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
