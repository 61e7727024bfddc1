"""Reference results computed apart from colcodec.

Nothing here imports the package under test. Each oracle takes the generated
cells and recomputes what the program must output by a separate route: plain
string comparisons, a numpy block walk, the file-size law from the format
description, and the csv module for reading the decompressed file.
"""

from __future__ import annotations

import csv
import operator

import numpy as np

HEADER_BYTES = 26  # fixed .bcc1 header: magic, version, tag, rows, block, dict size

_COMPARE = {"=": operator.eq, "<": operator.lt, ">=": operator.ge}


def filter_rows(cells: np.ndarray, op: str, value: str, high: str | None = None) -> list[int]:
    """Rows whose cell satisfies the predicate, by comparing the strings.

    ``cells`` is a numpy unicode array; its comparisons order strings by code
    point, as Python's ``str`` does.
    """
    if op == "between":
        mask = (cells >= value) & (cells <= high)
    else:
        mask = _COMPARE[op](cells, value)
    return np.flatnonzero(mask).tolist()


def value_codes(cells: list[str]) -> np.ndarray:
    """Each cell's rank among the distinct cells."""
    return np.unique(np.asarray(cells), return_inverse=True)[1].ravel()


def cluster_block_size(codes: np.ndarray) -> int:
    """argmax over b = 2, 4, ... <= n of S(b) * (b - 1), smallest b on ties.

    S(b) counts aligned full blocks holding one value, found by reshaping the
    column into rows of b and comparing every row against its first cell.
    """
    n = len(codes)
    best_b, best_f = 2, -1
    b = 2
    while b <= n:
        blocks = codes[: n // b * b].reshape(-1, b)
        s = int((blocks == blocks[:, :1]).all(axis=1).sum())
        if s * (b - 1) > best_f:
            best_b, best_f = b, s * (b - 1)
        b *= 2
    return best_b


def dictionary_bytes(cells: list[str]) -> int:
    """Bytes of the stored dictionary: a u32 length plus UTF-8 per value."""
    return sum(4 + len(v.encode("utf-8")) for v in sorted(set(cells)))


def file_size(cells: list[str], encoded_bits: int) -> int:
    """The size law: header, dictionary, then the bit region padded once."""
    return HEADER_BYTES + dictionary_bytes(cells) + -(-encoded_bits // 8)


def read_csv_cells(path) -> list[str]:
    """First cell of every row; a blank line reads as one empty cell."""
    with open(path, encoding="utf-8", newline="") as f:
        return [row[0] if row else "" for row in csv.reader(f)]
