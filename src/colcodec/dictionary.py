"""Dictionary encoding of text columns into integer value IDs.

A column is stored as the sorted list of its distinct values plus an array of
integer IDs, each ID being the position of the row's value in that list.
Order is byte-wise lexicographic on the UTF-8 encoding; UTF-8 preserves code
point order, so plain ``str`` comparison implements it.

Because the dictionary is sorted, value comparisons translate into integer
interval tests on the IDs: ``name > "James"`` becomes ``id > id("James")``.
Every operator follows one rule: two bisections of the sorted values give the
qualifying positions start through stop - 1, and the interval is
``start - 1 < id <= stop - 1``, unbounded at the dictionary's edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyColumnError, IdOutOfRangeError

__all__ = [
    "Dictionary",
    "ValueIdArray",
    "IdInterval",
    "id_width_bits",
    "build_dictionary",
    "encode_column",
    "decode_column",
    "predicate_to_id_range",
    "run_lengths",
    "to_runs",
]


def id_width_bits(count: int) -> int:
    """Bits needed to address ``count`` dictionary slots, never less than 1."""
    return (count - 1).bit_length() or 1


@dataclass(frozen=True)
class Dictionary:
    """Sorted distinct column values; a value's position is its value ID.

    ``values`` is not defensively copied; treat instances as read-only.
    """

    values: list[str]
    width_bits: int

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ValueIdArray:
    """Column body as value IDs (a list or an int array), tagged with the dictionary's ID width."""

    ids: list[int] | np.ndarray
    id_width_bits: int

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class IdInterval:
    """Integer interval of value IDs.

    ``None`` bounds are unbounded; finite bounds carry an inclusive flag.
    """

    lo: int | None = None
    hi: int | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    @classmethod
    def empty(cls) -> "IdInterval":
        """The canonical empty interval."""
        return cls(lo=0, hi=0, lo_inclusive=True, hi_inclusive=False)

    def normalize(self) -> tuple[int | None, int | None] | None:
        """Closed integer bounds (None = unbounded), or None if empty."""
        lo = self.lo if (self.lo is None or self.lo_inclusive) else self.lo + 1
        hi = self.hi if (self.hi is None or self.hi_inclusive) else self.hi - 1
        if lo is not None and hi is not None and lo > hi:
            return None
        return lo, hi


def build_dictionary(values: Sequence[str]) -> Dictionary:
    """Sorted distinct values of a non-empty column."""
    if not values:
        raise EmptyColumnError("cannot build a dictionary from an empty column")
    distinct = sorted(set(values))
    return Dictionary(values=distinct, width_bits=id_width_bits(len(distinct)))


def encode_column(values: Sequence[str]) -> tuple[Dictionary, ValueIdArray]:
    """Build the dictionary and map every row to its value ID.

    Depends only on the multiset of values, so permutations of the column
    produce the same dictionary.
    """
    dictionary = build_dictionary(values)
    index = {v: i for i, v in enumerate(dictionary.values)}
    ids = [index[v] for v in values]
    return dictionary, ValueIdArray(ids=ids, id_width_bits=dictionary.width_bits)


def decode_column(dictionary: Dictionary, array: ValueIdArray) -> list[str]:
    """Materialize the original rows. Inverse of encode_column."""
    n = len(dictionary.values)
    ids = np.asarray(array.ids)
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        row = int(np.argmax(bad))
        raise IdOutOfRangeError(f"id {array.ids[row]} at row {row} outside dictionary of {n} values")
    return np.array(dictionary.values, dtype=object)[ids].tolist() if len(ids) else []


# Each operator's qualifying positions start ... stop - 1, as the rule for
# each end: a bisection of the operand (of ``high`` for between's end), or
# None for the dictionary's own start or end.
_POSITIONS = {
    "=": (bisect_left, bisect_right),
    "<": (None, bisect_left),
    "<=": (None, bisect_right),
    ">": (bisect_right, None),
    ">=": (bisect_left, None),
    "between": (bisect_left, bisect_right),
}


def predicate_to_id_range(
    dictionary: Dictionary, op: str, value: str, high: str | None = None
) -> IdInterval:
    """Translate a value predicate into an interval of value IDs.

    ``op`` is one of ``=  <  <=  >  >=  between``; ``between`` is inclusive on
    both ends and takes its upper operand in ``high``. The operand need not be
    present in the dictionary. The result contains exactly the IDs of
    dictionary values satisfying the predicate: the positions start through
    stop - 1 that two bisections give, as ``id > start - 1`` and
    ``id <= stop - 1``, with no bound at the dictionary's edge and the empty
    interval when start >= stop.
    """
    if op not in _POSITIONS:
        raise ValueError(f"unknown predicate operator: {op!r}")
    if op == "between" and high is None:
        raise ValueError("between requires an upper operand")
    vals = dictionary.values
    start_of, stop_of = _POSITIONS[op]
    start = 0 if start_of is None else start_of(vals, value)
    stop = len(vals) if stop_of is None else stop_of(vals, high if op == "between" else value)
    if start >= stop:
        return IdInterval.empty()
    return IdInterval(
        lo=start - 1 if start > 0 else None,
        lo_inclusive=False,
        hi=stop - 1 if stop < len(vals) else None,
    )


def run_lengths(ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs' values and lengths, as two int64 arrays.

    Every run-based path derives its runs here: RLE encoding, the column
    stats, and the cluster optimizer, which needs only the lengths.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        return arr, arr
    starts = np.flatnonzero(np.concatenate(([True], arr[1:] != arr[:-1])))
    return arr[starts], np.diff(np.append(starts, arr.size))


def to_runs(array: ValueIdArray | Sequence[int]) -> list[tuple[int, int]]:
    """Collapse consecutive equal IDs into maximal (id, count) runs, in order.

    Empty input yields an empty list. Accepts a ValueIdArray or any
    sequence of IDs.
    """
    values, counts = run_lengths(getattr(array, "ids", array))
    return list(zip(values.tolist(), counts.tolist()))
