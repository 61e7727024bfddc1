"""Per-scheme encoders/decoders, size accounting and interval scans."""

from __future__ import annotations

import io
import random
import tracemalloc

import numpy as np
import pytest

import support
from colcodec import (
    COUNT_BITS,
    AffineEncoded,
    Dictionary,
    EmptyColumnError,
    EncodedColumn,
    IdInterval,
    InvalidBlockSizeError,
    NotAffineError,
    SchemeKind,
    ValueIdArray,
    decode_array,
    encode_array,
    encoded_size_bits,
    encoded_size_breakdown,
    id_width_bits,
    read_encoded,
    scan_id_range,
    write_encoded,
)


def test_prefix_captures_leading_run():
    e = support.encode(SchemeKind.PREFIX, [4, 4, 4, 7, 7, 2])
    assert (e.prefix_id, e.prefix_count, e.rest.tolist()) == (4, 3, [7, 7, 2])
    assert support.decode(e).tolist() == [4, 4, 4, 7, 7, 2]


def test_prefix_of_constant_column_swallows_everything():
    e = support.encode(SchemeKind.PREFIX, [5, 5])
    assert (e.prefix_id, e.prefix_count, e.rest.tolist()) == (5, 2, [])


def test_prefix_rest_never_restarts_the_run():
    rng = random.Random(1)
    for _ in range(100):
        ids = [rng.randint(0, 3) for _ in range(rng.randint(1, 30))]
        e = support.encode(SchemeKind.PREFIX, ids)
        assert e.prefix_count >= 1
        assert not len(e.rest) or e.rest[0] != e.prefix_id


def test_rle_runs_are_maximal():
    e = support.encode(SchemeKind.RLE, [0, 0, 1, 2, 2, 2])
    assert list(zip(e.values.tolist(), e.lengths.tolist())) == [(0, 2), (1, 1), (2, 3)]
    assert support.decode(e).tolist() == [0, 0, 1, 2, 2, 2]


def test_sparse_drops_the_dominant_id():
    e = support.encode(SchemeKind.SPARSE, [9, 9, 3, 9, 5])
    assert e.dominant_id == 9
    assert e.positions.tolist() == [True, True, False, True, False]
    assert e.residual.tolist() == [3, 5]
    assert support.decode(e).tolist() == [9, 9, 3, 9, 5]


def test_sparse_frequency_tie_picks_smallest_id():
    assert support.encode(SchemeKind.SPARSE, [2, 1]).dominant_id == 1
    assert support.encode(SchemeKind.SPARSE, [5, 5, 3, 3]).dominant_id == 3


def test_sparse_popcount_accounts_for_every_row():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ids = list(rng.integers(0, 4, size=int(rng.integers(1, 80))))
        e = support.encode(SchemeKind.SPARSE, [int(i) for i in ids])
        assert np.count_nonzero(e.positions) + len(e.residual) == len(ids)
        assert e.dominant_id not in e.residual


def test_cluster_separates_single_valued_blocks():
    e = support.encode(SchemeKind.CLUSTER, [1, 1, 2, 3, 3, 3], 2)
    assert e.flags.tolist() == [True, False, True]
    assert e.singles.tolist() == [1, 3]
    assert e.uncompressed.tolist() == [2, 3]
    assert support.decode(e).tolist() == [1, 1, 2, 3, 3, 3]


def test_cluster_trailing_partial_block_is_never_flagged():
    # last block [7] is single-valued but shorter than b, so it stays raw
    e = support.encode(SchemeKind.CLUSTER, [7, 7, 7], 2)
    assert e.flags.tolist() == [True, False]
    assert e.singles.tolist() == [7]
    assert e.uncompressed.tolist() == [7]

    e = support.encode(SchemeKind.CLUSTER, [4, 4, 4, 4, 4], 4)
    assert e.flags.tolist() == [True, False]
    assert support.decode(e).tolist() == [4] * 5


def test_cluster_rejects_bad_block_sizes():
    for b in (0, 1, 3, 6, 1 << 32):
        with pytest.raises(InvalidBlockSizeError):
            support.encode(SchemeKind.CLUSTER, [0, 0], b)


def test_indirect_block_goes_local_when_strictly_cheaper():
    # W=4, b=4, k=2: 2*4 + 4*1 = 12 < 16
    e = support.encode(SchemeKind.INDIRECT, [0, 0, 1, 1], 4, 4)
    assert e.tags.tolist() == [True]
    assert e.local_dicts.tolist() == [0, 1]
    assert e.payload.tolist() == [0, 0, 1, 1]
    assert support.decode(e).tolist() == [0, 0, 1, 1]


def test_indirect_all_distinct_block_stays_direct():
    # W=4, b=4, k=4: 4*4 + 4*2 = 24 > 16
    e = support.encode(SchemeKind.INDIRECT, [5, 6, 7, 8], 4, 4)
    assert e.tags.tolist() == [False]
    assert e.payload.tolist() == [5, 6, 7, 8]


def test_indirect_cost_tie_stays_direct():
    # W=4, b=8, k=4: 4*4 + 8*2 = 32 == 8*4, not a strict win
    e = support.encode(SchemeKind.INDIRECT, [0, 1, 2, 3, 0, 1, 2, 3], 8, 4)
    assert e.tags.tolist() == [False]


def test_indirect_partial_tail_uses_actual_length():
    # tail [9, 9]: k=1, cost 1*4 + 2*1 = 6 < 2*4 = 8
    e = support.encode(SchemeKind.INDIRECT, [0, 1, 2, 3, 9, 9], 4, 4)
    assert e.tags.tolist() == [False, True]
    assert e.local_dicts.tolist() == [9]
    assert support.decode(e).tolist() == [0, 1, 2, 3, 9, 9]


def test_indirect_local_dictionary_is_sorted_ascending():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 120))
        ids = [int(i) for i in rng.integers(0, 9, size=n)]
        e = support.encode(SchemeKind.INDIRECT, ids, 8, id_width_bits(9))
        for d, local_ids in support.indirect_blocks(e):
            if d is not None:
                assert all(a < b for a, b in zip(d, d[1:]))
                assert all(0 <= i < len(d) for i in local_ids)
        assert support.decode(e).tolist() == ids


def test_affine_ascending_and_descending():
    up = support.encode(SchemeKind.AFFINE, [3, 4, 5, 6])
    assert (up.start_id, up.step, up.length) == (3, 1, 4)
    assert type(up.start_id) is int
    assert support.decode(up).tolist() == [3, 4, 5, 6]

    down = support.encode(SchemeKind.AFFINE, [6, 5, 4])
    assert (down.start_id, down.step, down.length) == (6, -1, 3)
    assert support.decode(down).tolist() == [6, 5, 4]


def test_affine_rejects_broken_progressions():
    for ids, message in [
        ([1, 2, 4], "stride breaks at row 2"),
        ([9, 8, 7, 6, 7, 8], "stride breaks at row 4"),
        ([1, 1], "stride between rows 0 and 1 is 0, not +-1"),
        ([5, 2, 1], "stride between rows 0 and 1 is -3, not +-1"),
        ([7], "affine encoding needs at least 2 rows, got 1"),
        ([], "affine encoding needs at least 2 rows, got 0"),
    ]:
        with pytest.raises(NotAffineError) as info:
            support.encode(SchemeKind.AFFINE, ids)
        assert str(info.value) == message


def test_every_scheme_round_trips_on_seeded_columns():
    rng = np.random.default_rng(23)
    plan_rng = random.Random(23)
    for family in support.FAMILIES:
        for _ in range(30):
            n = int(rng.integers(1, 160))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            array = support.make_array(ids)
            for scheme, block in support.scheme_plans(plan_rng, ids):
                encoded = encode_array(array, scheme, block_size=block)
                assert encoded.scheme is scheme
                assert decode_array(encoded) == ids


def test_empty_input_is_rejected_everywhere():
    empty = ValueIdArray(ids=[], id_width_bits=1)
    for scheme in SchemeKind:
        block = 2 if scheme in (SchemeKind.CLUSTER, SchemeKind.INDIRECT) else None
        with pytest.raises((EmptyColumnError, NotAffineError)):
            encode_array(empty, scheme, block_size=block)


def test_raw_size_is_width_times_rows():
    array = ValueIdArray(ids=[1, 0, 2, 1], id_width_bits=3)
    e = encode_array(array, SchemeKind.RAW)
    assert encoded_size_breakdown(e) == {"ids": 12}
    assert encoded_size_bits(e) == 12


def test_cluster_size_matches_flag_plus_payload_formula():
    array = ValueIdArray(ids=[1, 1, 2, 3, 3, 3], id_width_bits=2)
    e = encode_array(array, SchemeKind.CLUSTER, block_size=2)
    assert encoded_size_breakdown(e) == {"flags": 3, "id_payload": 8}
    assert encoded_size_bits(e) == 11


def test_cluster_breakdown_against_block_walk():
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(1, 400))
        ids = support.family_column(rng, "zipf", n)
        w = id_width_bits(max(ids) + 1)
        array = ValueIdArray(ids=ids, id_width_bits=w)
        for b in (2, 4, 8, 16):
            e = encode_array(array, SchemeKind.CLUSTER, block_size=b)
            s = support.block_walk_clusters(ids, b)
            breakdown = encoded_size_breakdown(e)
            assert breakdown["flags"] == -(-n // b)
            assert breakdown["id_payload"] == (n - s * (b - 1)) * w


def test_affine_size_is_width_plus_step_bit():
    array = ValueIdArray(ids=[3, 4, 5], id_width_bits=5)
    e = encode_array(array, SchemeKind.AFFINE)
    assert encoded_size_breakdown(e) == {"start_id": 5, "step": 1}


def test_prefix_and_rle_breakdowns_count_their_fields():
    array = ValueIdArray(ids=[4, 4, 4, 7, 7, 2], id_width_bits=3)
    p = encode_array(array, SchemeKind.PREFIX)
    assert encoded_size_breakdown(p) == {
        "prefix_count": COUNT_BITS,
        "prefix_id": 3,
        "rest": 9,
    }
    p = encode_array(ValueIdArray(ids=[4, 4, 4], id_width_bits=3), SchemeKind.PREFIX)
    assert encoded_size_breakdown(p) == {"prefix_count": COUNT_BITS, "prefix_id": 3, "rest": 0}
    r = encode_array(ValueIdArray(ids=[0, 0, 1, 2, 2, 2], id_width_bits=2), SchemeKind.RLE)
    assert encoded_size_breakdown(r) == {
        "run_count": COUNT_BITS,
        "run_lengths": 3 * COUNT_BITS,
        "run_values": 6,
    }


def test_sparse_breakdown_counts_positions_and_residual():
    array = ValueIdArray(ids=[9, 9, 3, 9, 5], id_width_bits=4)
    e = encode_array(array, SchemeKind.SPARSE)
    assert encoded_size_breakdown(e) == {
        "dominant_id": 4,
        "positions": 5,
        "residual": 8,
    }


def test_indirect_breakdown_recomputes_per_block_costs():
    rng = np.random.default_rng(37)
    columns = [
        support.family_column(rng, "uniform16", int(rng.integers(1, 300))) for _ in range(40)
    ]
    for ids in columns + [list(range(8)) * 4]:  # in the last column no block pays
        w = id_width_bits(max(ids) + 1)
        array = ValueIdArray(ids=ids, id_width_bits=w)
        e = encode_array(array, SchemeKind.INDIRECT, block_size=8)
        breakdown = encoded_size_breakdown(e)

        blocks = list(support.indirect_blocks(e.payload))
        indirect = [local for local, _ in blocks if local is not None]
        local_dict_bits = sum(len(local) * w for local in indirect)
        payload = 0
        for local, rows in blocks:
            if local is None:
                payload += len(rows) * w
            else:
                lw = max(1, (len(local) - 1).bit_length())
                payload += len(rows) * lw

        assert breakdown["indirect_count"] == COUNT_BITS
        assert breakdown["local_dict_counts"] == len(indirect) * COUNT_BITS
        assert breakdown["block_tags"] == len(blocks)
        assert breakdown["local_dicts"] == local_dict_bits
        assert breakdown["block_payload"] == payload


def test_indirect_blocks_only_local_when_strictly_smaller():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 300))
        ids = support.family_column(rng, "zipf", n)
        w = id_width_bits(max(ids) + 1)
        array = ValueIdArray(ids=ids, id_width_bits=w)
        e = encode_array(array, SchemeKind.INDIRECT, block_size=16)
        for local, rows in support.indirect_blocks(e.payload):
            if local is not None:
                k = len(local)
                b_eff = len(rows)
                lw = max(1, (k - 1).bit_length())
                assert k * w + b_eff * lw < b_eff * w
            else:
                b_eff = len(rows)
                k = len(set(rows))
                lw = max(1, (k - 1).bit_length())
                assert k * w + b_eff * lw >= b_eff * w


def test_scan_rle_fixture():
    array = ValueIdArray(ids=[0, 0, 1, 2, 2, 2], id_width_bits=2)
    e = encode_array(array, SchemeKind.RLE)
    rows = scan_id_range(e, IdInterval(lo=1, hi=2))
    assert rows == [2, 3, 4, 5]


def test_scan_affine_solves_arithmetically():
    up = support.encode(SchemeKind.AFFINE, [10, 11, 12, 13, 14])
    e = encode_array(ValueIdArray(ids=[10, 11, 12, 13, 14], id_width_bits=4), SchemeKind.AFFINE)
    assert support.decode(up).tolist() == decode_array(e)
    assert scan_id_range(e, IdInterval(lo=12, hi=13)) == [2, 3]

    down = encode_array(ValueIdArray(ids=[9, 8, 7], id_width_bits=4), SchemeKind.AFFINE)
    assert scan_id_range(down, IdInterval(lo=8)) == [0, 1]
    for column in (e, down):  # bounds past int64 match no row
        for interval in (IdInterval(lo=2**64), IdInterval(hi=-(2**64))):
            assert scan_id_range(column, interval) == []


def test_affine_rows_near_2_63_raise_instead_of_coming_back_empty():
    # np.arange rounds a length within 512 of 2**63 to an empty array
    column = EncodedColumn(AffineEncoded(0, 1, 2**63 - 1), 64, 2**63 - 1)
    with pytest.raises(ValueError):
        scan_id_range(column, IdInterval(lo=3))
    with pytest.raises(ValueError):
        decode_array(column)


def test_scan_empty_and_unbounded_intervals():
    array = ValueIdArray(ids=[2, 0, 1, 2], id_width_bits=2)
    e = encode_array(array, SchemeKind.RAW)
    assert scan_id_range(e, IdInterval.empty()) == []
    assert scan_id_range(e, IdInterval()) == [0, 1, 2, 3]


def test_scan_matches_decode_then_filter_everywhere():
    rng = np.random.default_rng(47)
    interval_rng = random.Random(47)
    plan_rng = random.Random(48)
    for family in support.FAMILIES:
        for _ in range(20):
            n = int(rng.integers(1, 120))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            array = support.make_array(ids)
            for scheme, block in support.scheme_plans(plan_rng, ids):
                e = encode_array(array, scheme, block_size=block)
                for _ in range(4):
                    interval = support.random_interval(interval_rng, max(ids))
                    assert scan_id_range(e, interval) == support.scan_oracle(e, interval)


def test_scan_rows_are_strictly_increasing():
    rng = np.random.default_rng(53)
    plan_rng = random.Random(53)
    ids = support.family_column(rng, "zipf", 200)
    array = support.make_array(ids)
    for scheme, block in support.scheme_plans(plan_rng, ids):
        e = encode_array(array, scheme, block_size=block)
        rows = scan_id_range(e, IdInterval(lo=0, hi=1))
        assert all(a < b for a, b in zip(rows, rows[1:]))


def encoded_and_read_back(ids, scheme, block_size):
    """The payload as encoded (int64 arrays) and as read back from its file
    bytes (the narrowest unsigned arrays that hold the ID width)."""
    array = support.make_array(ids)
    dictionary = Dictionary(
        values=[f"{i:04d}" for i in range(max(ids) + 1)], width_bits=array.id_width_bits
    )
    encoded = encode_array(array, scheme, block_size)
    sink = io.BytesIO()
    write_encoded(sink, dictionary, encoded)
    _, read_back = read_encoded(io.BytesIO(sink.getvalue()))
    return encoded, read_back


def int_list(values: np.ndarray) -> list[int]:
    """A codec's result as a list, once it is checked to be an integer array."""
    assert isinstance(values, np.ndarray) and values.dtype.kind in "iu", values
    return values.tolist()


def test_mask_scans_and_decoders_match_the_literal_loops():
    rng = np.random.default_rng(20261019)
    dtypes = set()
    columns = [[7], [3, 3, 3], [1, 1, 1, 1, 2]]  # n = 1, empty prefix rest and residual
    columns += [list(range(16)) * 2 + [0, 1, 2]]  # no indirect block pays at b = 2, 4, 16
    columns += [[200, 200, 7, 7] * 9]  # every indirect block pays at b = 2, 4, 16
    columns += [support.family_column(rng, family, n) for family in support.FAMILIES for n in (1, 2, 5, 33, 300)]
    # Shuffled sparse columns shaped like the traffic: the dominant ID 17 on
    # about 2% (below the sparse scan's one row in 8), 16%, 50% and 95% of
    # the rows, then on every row. The bounds take the dominant ID both in
    # and out of the interval.
    for share in (0.02, 0.16, 0.5, 0.95):
        ids = rng.integers(0, 40, 4_099)
        ids[: round(share * len(ids))] = 17
        columns += [rng.permutation(ids).tolist()]
    columns += [[17] * 4_099]
    blocked = (SchemeKind.CLUSTER, SchemeKind.INDIRECT)
    tag_mixes = set()  # which of no, some and every indirect block pays
    for ids in columns:
        dict_count = max(ids) + 1
        bounds = [None, -1, 0, ids[len(ids) // 2], dict_count - 1, dict_count, 2**64]
        plans = [(kind, None) for kind in support.LITERAL_SCANS if kind not in blocked]
        # Trailing partial blocks; at 64 a short column is one short block, and 2**31 is the largest b.
        plans += [(kind, b) for kind in blocked for b in (2, 4, 16, 64, 2**31)]
        for scheme, block_size in plans:
            for e in encoded_and_read_back(ids, scheme, block_size):
                dtypes.update(
                    str(v.dtype) for v in vars(e.payload).values() if isinstance(v, np.ndarray)
                )
                if scheme is SchemeKind.INDIRECT:
                    width = support.make_array(ids).id_width_bits
                    assert e.payload == support.literal_encode_indirect(ids, block_size, width)
                    tag_mixes.add(frozenset(e.payload.tags.tolist()))
                want = ids  # raw's reference: the column's own IDs
                if scheme in support.LITERAL_DECODERS:
                    want = support.LITERAL_DECODERS[scheme](e.payload)
                    assert want == ids
                assert decode_array(e) == want
                assert int_list(e.codec.decode(e.payload)) == want
                for lo in bounds:
                    for hi in bounds:
                        literal = support.LITERAL_SCANS[scheme](e.payload, lo, hi)
                        where = (ids, scheme, lo, hi)
                        assert scan_id_range(e, IdInterval(lo=lo, hi=hi)) == literal, where
                        assert int_list(e.codec.scan(e.payload, lo, hi)) == literal, where
    assert {"int64", "uint8", "uint16"} <= dtypes
    assert {frozenset({False}), frozenset({True}), frozenset({False, True})} <= tag_mixes


def test_a_decode_shares_no_writable_memory_with_its_payload():
    """Raw's decode is a read-only view of its payload; every other decode is
    new memory, so writing into it leaves the column as it was."""
    rng = np.random.default_rng(21)
    ids = [3] * 32 + rng.integers(0, 5, 37).tolist()  # flagged and tagged blocks, then a short tail
    plans = [(kind, None) for kind in SchemeKind if kind not in (SchemeKind.CLUSTER, SchemeKind.INDIRECT)]
    plans += [(kind, b) for kind in (SchemeKind.CLUSTER, SchemeKind.INDIRECT) for b in (2, 16)]
    for scheme, block_size in plans:
        column = list(range(len(ids))) if scheme is SchemeKind.AFFINE else ids
        for e in encoded_and_read_back(column, scheme, block_size):
            decoded = e.codec.decode(e.payload)
            if decoded.flags.writeable:
                stored = [v for v in vars(e.payload).values() if isinstance(v, np.ndarray)]
                assert not any(np.shares_memory(decoded, v) for v in stored), scheme
                decoded += 1
            else:
                with pytest.raises(ValueError, match="read-only"):
                    decoded += 1
            assert int_list(e.codec.decode(e.payload)) == column, scheme


def test_short_tails_decode_and_scan_as_the_literal_block_walks():
    """Only the trailing block can be short. At b = 4 and 64 it is tagged
    local; at 2 it is one row, which no local dictionary pays for (W + 1 is
    not below W). At 512 and 16 each column is one block shorter than b."""
    # W = 9: single-valued runs of 64 rows pay at every b, and 64 distinct IDs pay at none.
    ids = [5] * 64 + list(range(100, 164)) + [200] * 64 + [299] * 64 + [42] * 43
    short = [4] * 7 + [9] * 3
    tail_tagged = {2: False, 4: True, 64: True, 512: False, 16: True}
    plans = [(ids, kind, b) for kind in (SchemeKind.CLUSTER, SchemeKind.INDIRECT) for b in (2, 4, 64, 512)]
    plans += [(short, kind, 16) for kind in (SchemeKind.CLUSTER, SchemeKind.INDIRECT)]
    bounds = [None, 0, 5, 42, 100, 163, 200, 299]
    for column, scheme, block_size in plans:
        assert len(column) % block_size
        for e in encoded_and_read_back(column, scheme, block_size):
            one_block = block_size > len(column)
            if scheme is SchemeKind.INDIRECT:
                tags = e.payload.tags.tolist()
                assert tags[-1] is tail_tagged[block_size]
                assert set(tags) == ({tags[-1]} if one_block else {False, True}), block_size
            else:
                assert bool(e.payload.flags.any()) is not one_block and not e.payload.flags[-1]
            assert support.LITERAL_DECODERS[scheme](e.payload) == column
            assert int_list(e.codec.decode(e.payload)) == column
            assert decode_array(e) == column
            for lo in bounds:
                for hi in bounds:
                    literal = support.LITERAL_SCANS[scheme](e.payload, lo, hi)
                    assert int_list(e.codec.scan(e.payload, lo, hi)) == literal, (block_size, lo, hi)
                    assert scan_id_range(e, IdInterval(lo=lo, hi=hi)) == literal


def test_array_payloads_compare_by_value():
    ids = [2, 2, 5, 5, 5, 5, 1, 2, 300]
    plans = [(SchemeKind.RAW, None), (SchemeKind.PREFIX, None), (SchemeKind.RLE, None)]
    plans += [(SchemeKind.SPARSE, None), (SchemeKind.CLUSTER, 2), (SchemeKind.INDIRECT, 2)]
    for scheme, block_size in plans:
        encoded, read_back = encoded_and_read_back(ids, scheme, block_size)
        assert encoded == read_back
        assert encoded.payload == read_back.payload
        for changed in ([2, 2, 5, 5, 5, 5, 1, 3, 300], [2, 2, 5, 5, 5, 5, 5, 2, 300], [2, 2, 5, 5, 5, 5, 1, 2]):
            other, _ = encoded_and_read_back(changed, scheme, block_size)
            assert other.payload != encoded.payload
    assert support.encode(SchemeKind.CLUSTER, ids, 2) != support.encode(SchemeKind.CLUSTER, ids, 4)


def test_encode_array_takes_an_int64_column_without_copying_it():
    rng = np.random.default_rng(59)
    n = 200_000
    columns = [
        np.minimum(rng.zipf(1.3, n), 300) - 1,  # shuffled and skewed
        np.repeat(rng.integers(0, 300, n // 100), 100),  # runs of 100 rows
    ]
    for ids in columns:
        array = ValueIdArray(ids=ids.astype(np.int64), id_width_bits=id_width_bits(300))
        for scheme, block_size in ((SchemeKind.SPARSE, None), (SchemeKind.CLUSTER, 16)):
            tracemalloc.start()
            try:
                encode_array(array, scheme, block_size)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * array.ids.nbytes, (scheme, peak / array.ids.nbytes)


def test_a_sparse_scan_holds_one_position_per_residual_row():
    """A sparse scan's traced peak above its result: one int64 position and
    one bool per residual row, and one bool per row, at most 10 B/row. When
    the dominant ID misses, the gather's index, one int64 per row returned,
    comes on top. Below one dominant row in 8 the scan holds bools only."""
    rng = np.random.default_rng(67)
    n, dominant = 200_000, 150
    for share in (0.02, 0.16, 0.5, 0.95):
        ids = rng.integers(0, 300, n)
        ids[: round(share * n)] = dominant
        array = ValueIdArray(ids=rng.permutation(ids), id_width_bits=id_width_bits(300))
        encoded = encode_array(array, SchemeKind.SPARSE)
        for lo, hi in ((None, None), (None, 149), (151, None), (100, 199), (0, 99), (150, 150)):
            tracemalloc.start()
            try:
                rows = encoded.codec.scan(encoded.payload, lo, hi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            misses = not (lo is None or lo <= dominant) or not (hi is None or dominant <= hi)
            above = peak - rows.nbytes - (rows.nbytes if misses else 0)
            assert above <= 10 * n, (share, lo, hi, above / n)


def test_payloads_do_not_share_the_callers_ids():
    rng = np.random.default_rng(61)
    plan_rng = random.Random(61)
    for family in support.FAMILIES:
        ids = support.family_column(rng, family, 40)
        width = support.make_array(ids).id_width_bits
        for scheme, block_size in support.scheme_plans(plan_rng, ids):
            caller = np.array(ids, np.int64)
            encoded = encode_array(ValueIdArray(ids=caller, id_width_bits=width), scheme, block_size)
            caller[:] = caller[::-1] + 1
            fresh = encode_array(support.make_array(ids), scheme, block_size)
            assert encoded.payload == fresh.payload, (family, scheme)
