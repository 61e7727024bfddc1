"""Seeded corpora shared by the acceptance suite and the optimizer tests."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import support


@pytest.fixture(scope="session")
def search_corpus():
    """Exhaustive binary arrays (n <= 12) plus 500 seeded columns (n <= 4096)."""
    arrays = []
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            arrays.append(list(bits))
    rng = np.random.default_rng(20240801)
    for _ in range(500):
        n = int(rng.integers(2, 4097))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        arrays.append(support.family_column(rng, family, n))
    return arrays


@pytest.fixture(scope="session")
def wide_corpus():
    """Columns large enough that 1024 is always a candidate block size."""
    rng = np.random.default_rng(20240802)
    return [
        support.family_column(rng, family, n)
        for n in (2048, 2731, 4096)
        for family in support.FAMILIES
    ]
