"""Dictionary building, value-ID mapping, predicates and run views."""

from __future__ import annotations

import random

import numpy as np
import pytest

import support
from colcodec import (
    EmptyColumnError,
    IdInterval,
    IdOutOfRangeError,
    SchemeKind,
    ValueIdArray,
    build_dictionary,
    decode_column,
    encode_array,
    encode_column,
    id_width_bits,
    predicate_to_id_range,
    scan_id_range,
    to_runs,
)


def width_oracle(count: int) -> int:
    # smallest width addressing `count` slots, floor 1
    w = 1
    while (1 << w) < count:
        w += 1
    return w


def test_build_sorts_and_dedups():
    d = build_dictionary(["b", "a", "b"])
    assert d.values == ["a", "b"]
    assert d.width_bits == 1


def test_width_matches_oracle():
    for count in range(1, 600):
        assert id_width_bits(count) == width_oracle(count)


def test_nine_distinct_values_need_four_bits():
    d = build_dictionary([f"v{i}" for i in range(9)])
    assert len(d) == 9
    assert d.width_bits == 4


def test_tiny_dictionaries_still_one_bit():
    assert build_dictionary(["only"]).width_bits == 1
    assert build_dictionary(["a", "b"]).width_bits == 1


def test_empty_column_rejected():
    with pytest.raises(EmptyColumnError):
        build_dictionary([])
    with pytest.raises(EmptyColumnError):
        encode_column([])


def test_ids_are_sorted_positions():
    d, a = encode_column(["James", "Adams", "Zoe", "James"])
    assert d.values == ["Adams", "James", "Zoe"]
    assert a.ids == [1, 0, 2, 1]
    assert a.id_width_bits == 2
    assert len(a) == 4


def test_round_trip_identity_seeded():
    rng = random.Random(7)
    alphabet = ["", "a", "ab", "ba", "zz", "Ω", "héllo", "0", "00"]
    for _ in range(200):
        values = [rng.choice(alphabet) for _ in range(rng.randint(1, 40))]
        d, a = encode_column(values)
        assert decode_column(d, a) == values
        assert all(0 <= i < len(d) for i in a.ids)


def test_dictionary_is_permutation_stable():
    rng = random.Random(11)
    values = [f"w{rng.randint(0, 20)}" for _ in range(50)]
    base = build_dictionary(values)
    for _ in range(5):
        rng.shuffle(values)
        assert build_dictionary(values) == base


def test_decode_rejects_bad_ids():
    d, _ = encode_column(["a", "b"])
    for ids, message in [  # the first bad row is named
        ([0, 5], "id 5 at row 1 outside dictionary of 2 values"),
        ([-1], "id -1 at row 0 outside dictionary of 2 values"),
        ([1, 0, 2, -1, 7], "id 2 at row 2 outside dictionary of 2 values"),
        ([1, 0, -3, 2], "id -3 at row 2 outside dictionary of 2 values"),
    ]:
        # as a list, and as the int arrays a codec decodes to
        for form in (ids, np.array(ids), np.array(ids, np.int8)):
            with pytest.raises(IdOutOfRangeError) as info:
                decode_column(d, ValueIdArray(ids=form, id_width_bits=1))
            assert str(info.value) == message
    for form in (np.array([0, 1, 1], np.uint8), np.array([1, 0], np.int64)):
        assert decode_column(d, ValueIdArray(ids=form, id_width_bits=1)) == ["ab"[i] for i in form]
    bad = np.array([1, 0, 1, 2, 9], np.uint16)  # unsigned: only IDs >= n are out of range
    with pytest.raises(IdOutOfRangeError, match="^id 2 at row 3 outside dictionary of 2 values$"):
        decode_column(d, ValueIdArray(ids=bad, id_width_bits=1))


# predicates


def predicate_oracle(values: list[str], op: str, a: str, b: str | None = None) -> set[int]:
    tests = {
        "=": lambda v: v == a,
        "<": lambda v: v < a,
        "<=": lambda v: v <= a,
        ">": lambda v: v > a,
        ">=": lambda v: v >= a,
        "between": lambda v: a <= v <= b,
    }
    return {i for i, v in enumerate(values) if tests[op](v)}


def members(interval: IdInterval, count: int) -> set[int]:
    hit = support.interval_test(interval)
    return {i for i in range(count) if hit(i)}


def test_greater_than_worked_example():
    d = build_dictionary(["Adams", "James", "Zoe"])
    interval = predicate_to_id_range(d, ">", "James")
    assert (interval.lo, interval.lo_inclusive, interval.hi) == (1, False, None)
    assert interval.normalize() == (2, None)


def test_greater_than_absent_operand():
    d = build_dictionary(["a", "m", "z"])
    assert members(predicate_to_id_range(d, ">", "k"), 3) == {1, 2}


def test_equality_of_absent_value_is_empty():
    d = build_dictionary(["a", "b", "d"])
    assert members(predicate_to_id_range(d, "=", "c"), 3) == set()


def test_between_is_inclusive():
    d = build_dictionary(["a", "b", "c", "d"])
    assert members(predicate_to_id_range(d, "between", "b", "c"), 4) == {1, 2}
    assert members(predicate_to_id_range(d, "between", "c", "b"), 4) == set()


def test_unknown_operator_rejected():
    d = build_dictionary(["a"])
    with pytest.raises(ValueError):
        predicate_to_id_range(d, "!=", "a")


def test_predicates_match_string_filter_seeded():
    rng = random.Random(23)
    pool = ["", "a", "aa", "ab", "b", "ba", "c", "ca", "zz", "Ω"]
    for _ in range(300):
        values = sorted(set(rng.sample(pool, rng.randint(1, len(pool)))))
        d = build_dictionary(values)
        op = rng.choice(["=", "<", "<=", ">", ">=", "between"])
        a = rng.choice(pool)
        b = rng.choice(pool) if op == "between" else None
        interval = predicate_to_id_range(d, op, a, b)
        assert members(interval, len(values)) == predicate_oracle(values, op, a, b)


def test_predicate_errors_come_before_any_bisection():
    d = build_dictionary(["a", "b"])
    with pytest.raises(ValueError, match="^between requires an upper operand$"):
        predicate_to_id_range(d, "between", "a")
    with pytest.raises(ValueError, match="^unknown predicate operator: '!='$"):
        predicate_to_id_range(d, "!=", None)  # None cannot be bisected among strings


def test_value_predicates_scan_to_the_string_filter_on_every_layout():
    rng = random.Random(31)
    runs = []
    for value in ("v07", "v02", "v05", "v02", "v09", "v05"):
        runs += [value] * rng.randint(1, 40)
    distinct = [f"v{i:02d}" for i in range(0, 60, 3)]  # sequential IDs: affine applies
    blocked = (SchemeKind.CLUSTER, SchemeKind.INDIRECT)
    plans = [(kind, None) for kind in SchemeKind if kind not in blocked]
    plans += [(kind, b) for kind in blocked for b in (2, 4, 64)]
    for column in (runs, distinct, distinct[::-1]):
        dictionary, array = encode_column(column)
        first, last = dictionary.values[0], dictionary.values[-1]
        absent = first + "~"  # between the first two values
        assert first < absent < dictionary.values[1]
        operands = ["a", first, last, absent, "z"]
        predicates = [(op, a, None) for op in ("=", "<", "<=", ">", ">=") for a in operands]
        predicates += [("between", a, b) for a in operands for b in operands]
        for scheme, block_size in plans:
            if scheme is SchemeKind.AFFINE and column is runs:
                continue
            encoded = encode_array(array, scheme, block_size)
            for op, a, b in predicates:
                rows = scan_id_range(encoded, predicate_to_id_range(dictionary, op, a, b))
                want = sorted(predicate_oracle(column, op, a, b))
                assert rows == want, (scheme, block_size, op, a, b)


def test_canonical_empty_interval():
    empty = IdInterval.empty()
    assert empty.normalize() is None
    assert members(empty, 1) == set()


def test_interval_bound_tags():
    assert members(IdInterval(lo=1, hi=3), 6) == {1, 2, 3}
    assert members(IdInterval(lo=1, hi=3, lo_inclusive=False), 6) == {2, 3}
    assert members(IdInterval(lo=1, hi=3, hi_inclusive=False), 6) == {1, 2}
    assert members(IdInterval(), 4) == {0, 1, 2, 3}
    assert IdInterval(lo=3, hi=1).normalize() is None


# runs


def test_to_runs_collapses_maximal_runs():
    assert to_runs([1, 1, 2, 3, 3, 3]) == [(1, 2), (2, 1), (3, 3)]


def test_to_runs_empty():
    assert to_runs([]) == []


def test_to_runs_round_trip_seeded():
    rng = random.Random(3)
    for _ in range(200):
        ids = [rng.randint(0, 4) for _ in range(rng.randint(0, 60))]
        runs = to_runs(ids)
        expanded: list[int] = []
        for value, count in runs:
            assert count >= 1
            expanded.extend([value] * count)
        assert expanded == ids
        assert all(runs[i][0] != runs[i + 1][0] for i in range(len(runs) - 1))


def test_to_runs_accepts_value_id_array():
    _, a = encode_column(["x", "x", "y"])
    assert to_runs(a) == [(0, 2), (1, 1)]
