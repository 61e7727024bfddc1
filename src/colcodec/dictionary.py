"""Dictionary encoding of text columns into integer value IDs.

A column is stored as the sorted list of its distinct values plus an array of
integer IDs, each ID being the position of the row's value in that list.
Order is byte-wise lexicographic on the UTF-8 encoding; UTF-8 preserves code
point order, so plain ``str`` comparison implements it.

Because the dictionary is sorted, value comparisons translate into integer
interval tests on the IDs: ``name > "James"`` becomes ``id > id("James")``.
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
    "RunLengthView",
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
    return max(1, (count - 1).bit_length())


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
    """Column body as value IDs, tagged with the dictionary's ID width."""

    ids: list[int]
    id_width_bits: int

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class RunLengthView:
    """Maximal ``(value_id, count)`` runs of a value-ID array, in order."""

    runs: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.runs)


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

    def contains(self, value_id: int) -> bool:
        norm = self.normalize()
        if norm is None:
            return False
        lo, hi = norm
        return (lo is None or value_id >= lo) and (hi is None or value_id <= hi)


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
    for row, value_id in enumerate(array.ids):
        if not 0 <= value_id < n:
            raise IdOutOfRangeError(
                f"id {value_id} at row {row} outside dictionary of {n} values"
            )
    values = dictionary.values
    return [values[i] for i in array.ids]


def predicate_to_id_range(
    dictionary: Dictionary, op: str, value: str, high: str | None = None
) -> IdInterval:
    """Translate a value predicate into an interval of value IDs.

    ``op`` is one of ``=  <  <=  >  >=  between``; ``between`` is inclusive on
    both ends and takes its upper operand in ``high``. The operand need not be
    present in the dictionary. The result contains exactly the IDs of
    dictionary values satisfying the predicate.
    """
    vals = dictionary.values
    if op == "=":
        i = bisect_left(vals, value)
        if i < len(vals) and vals[i] == value:
            return IdInterval(lo=i, hi=i)
        return IdInterval.empty()
    if op == "<":
        j = bisect_left(vals, value)  # IDs < j qualify
        return IdInterval(hi=j, hi_inclusive=False) if j > 0 else IdInterval.empty()
    if op == "<=":
        j = bisect_right(vals, value)
        return IdInterval(hi=j, hi_inclusive=False) if j > 0 else IdInterval.empty()
    if op == ">":
        # IDs strictly above the greatest value <= operand.
        j = bisect_right(vals, value)
        if j >= len(vals):
            return IdInterval.empty()
        if j == 0:
            return IdInterval()
        return IdInterval(lo=j - 1, lo_inclusive=False)
    if op == ">=":
        j = bisect_left(vals, value)
        return IdInterval(lo=j) if j < len(vals) else IdInterval.empty()
    if op == "between":
        if high is None:
            raise ValueError("between requires an upper operand")
        lo = bisect_left(vals, value)
        hi = bisect_right(vals, high)
        if lo >= hi:
            return IdInterval.empty()
        return IdInterval(lo=lo, hi=hi, hi_inclusive=False)
    raise ValueError(f"unknown predicate operator: {op!r}")


def run_lengths(ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs' values and lengths, as two int64 arrays.

    Every run-based path derives its runs here: ``to_runs``, and through it
    RLE encoding, and the cluster optimizer, which needs only the lengths.
    """
    arr = np.asarray(ids, dtype=np.int64)
    if arr.size == 0:
        return arr, arr
    starts = np.flatnonzero(np.concatenate(([True], arr[1:] != arr[:-1])))
    return arr[starts], np.diff(np.append(starts, arr.size))


def to_runs(array: ValueIdArray | Sequence[int]) -> RunLengthView:
    """Collapse consecutive equal IDs into (id, count) runs.

    Empty input yields an empty run list. Accepts a ValueIdArray or any
    sequence of IDs.
    """
    values, counts = run_lengths(getattr(array, "ids", array))
    return RunLengthView(runs=list(zip(values.tolist(), counts.tolist())))
