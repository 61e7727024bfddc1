"""Column statistics and the scheme-selection branch order."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import support
from colcodec import (
    ColumnStats,
    EmptyColumnError,
    HeuristicParams,
    SchemeKind,
    best_indirect,
    compute_stats,
    decide_scheme,
    indirect_size_sweep,
    optimal_cluster_block_size,
)


def decision_for(ids, params=HeuristicParams()):
    return decide_scheme(compute_stats(ids), ids, params)


def test_stats_of_prefix_heavy_column():
    stats = compute_stats([4, 4, 4, 4, 9, 1, 7, 2])
    assert stats == ColumnStats(
        n=8,
        distinct=5,
        is_sorted=False,
        is_sequential=False,
        leading_run=4,
        max_freq=4,
        sparsity=2.5,
        avg_repetition=1.6,
    )


def test_stats_of_sorted_and_sequential_columns():
    sorted_stats = compute_stats([0, 0, 1, 2, 2, 2])
    assert sorted_stats.is_sorted
    assert not sorted_stats.is_sequential
    assert sorted_stats.leading_run == 2

    up = compute_stats([1, 2, 3, 4])
    assert up.is_sequential and up.is_sorted and up.distinct == up.n

    down = compute_stats([4, 3, 2, 1])
    assert down.is_sequential and not down.is_sorted


def test_single_row_is_neither_sequential_nor_compressible():
    stats = compute_stats([5])
    assert stats.n == stats.distinct == stats.leading_run == 1
    assert stats.is_sorted
    assert not stats.is_sequential
    assert decision_for([5]).scheme is SchemeKind.RAW


def test_stats_match_the_histogram_oracle(search_corpus, wide_corpus):
    for ids in search_corpus + wide_corpus:
        assert dataclasses.asdict(compute_stats(ids)) == support.stats_oracle(ids)


def test_stats_reject_empty_column():
    with pytest.raises(EmptyColumnError):
        compute_stats([])


def test_all_distinct_unordered_column_stays_raw():
    assert decision_for([3, 1, 2]).scheme is SchemeKind.RAW


def test_sequential_column_goes_affine():
    assert decision_for([1, 2, 3, 4]).scheme is SchemeKind.AFFINE
    assert decision_for([9, 8, 7]).scheme is SchemeKind.AFFINE


def test_sorted_column_goes_rle():
    assert decision_for([0, 0, 1, 2, 2, 2]).scheme is SchemeKind.RLE


def test_long_leading_run_goes_prefix():
    assert decision_for([4, 4, 4, 4, 9, 1, 7, 2]).scheme is SchemeKind.PREFIX
    # a run of exactly 2 is not long enough
    short = [4, 4, 9, 1, 7, 2]
    assert decision_for(short).scheme is not SchemeKind.PREFIX


def sparse_column():
    ids = []
    for i in range(1, 33):
        ids += [i, 0]
    return ids


def test_dominated_column_goes_sparse():
    ids = sparse_column()
    stats = compute_stats(ids)
    assert stats.sparsity == pytest.approx(16.5)
    assert decision_for(ids).scheme is SchemeKind.SPARSE


def test_raising_x_pushes_the_sparse_column_down_the_chain():
    ids = sparse_column()
    # sparsity 16.5 no longer clears the bar; avg repetition 64/33 < 2 either
    decision = decision_for(ids, HeuristicParams(x=20.0))
    assert decision.scheme is SchemeKind.RAW


def clustered_column():
    return [1, 2] + [3] * 8 + [4] * 8 + [5, 4, 3, 2] + [6] * 8 + [2, 1]


def test_repetitive_column_goes_cluster_when_coverage_clears_z():
    ids = clustered_column()
    stats = compute_stats(ids)
    # preconditions: the first four branches must all fall through
    assert stats.distinct < stats.n
    assert not stats.is_sorted
    assert stats.leading_run == 1
    assert stats.sparsity < 10
    assert stats.avg_repetition > 2

    decision = decision_for(ids)
    assert decision.scheme is SchemeKind.CLUSTER
    best = optimal_cluster_block_size(ids)
    assert decision.block_size == best.b == 2
    assert decision.cluster_coverage == pytest.approx(best.s * best.b / len(ids))
    assert decision.cluster_coverage == pytest.approx(0.75)


def test_raising_z_flips_the_same_column_to_indirect():
    ids = clustered_column()
    decision = decision_for(ids, HeuristicParams(z=0.8))
    assert decision.scheme is SchemeKind.INDIRECT
    best = best_indirect(indirect_size_sweep(ids, support.make_array(ids).id_width_bits))
    assert decision.block_size == best.b == 32
    assert decision.cluster_coverage == pytest.approx(0.75)


def test_low_repetition_column_stays_raw():
    ids = [0, 2, 1, 3, 0, 2]  # distinct 4 of 6 rows, avg repetition 1.5
    stats = compute_stats(ids)
    assert stats.avg_repetition < 2
    assert decision_for(ids).scheme is SchemeKind.RAW


def test_lowering_y_admits_the_same_column():
    ids = [0, 2, 1, 3, 0, 2]
    decision = decision_for(ids, HeuristicParams(y=1.25))
    assert decision.scheme in (SchemeKind.CLUSTER, SchemeKind.INDIRECT)


def test_branch_order_prefers_earlier_matches():
    # sorted AND dominated by one value: sorted wins
    ids = [0] * 60 + list(range(1, 16))
    stats = compute_stats(ids)
    assert stats.is_sorted and stats.sparsity > 10
    assert decision_for(ids).scheme is SchemeKind.RLE

    # unsorted, long leading run AND dominated: prefix wins
    ids = [0] * 60 + list(range(15, 0, -1))
    stats = compute_stats(ids)
    assert not stats.is_sorted and stats.leading_run > 2 and stats.sparsity > 10
    assert decision_for(ids).scheme is SchemeKind.PREFIX


def test_params_are_validated():
    for bad in (
        dict(x=1.0),
        dict(x=0.5),
        dict(y=1.0),
        dict(y=-3.0),
        dict(z=0.0),
        dict(z=1.0),
        dict(z=1.5),
    ):
        with pytest.raises(ValueError):
            HeuristicParams(**bad)


def test_decision_is_deterministic_across_families():
    rng = np.random.default_rng(139)
    for family in support.FAMILIES:
        for _ in range(20):
            n = int(rng.integers(1, 300))
            ids = support.family_column(rng, family, max(n, 2) if family == "sequential" else n)
            first = decision_for(ids)
            second = decision_for(list(ids))
            assert first == second
            if first.scheme in (SchemeKind.CLUSTER, SchemeKind.INDIRECT):
                assert first.block_size is not None and first.block_size >= 2
            else:
                assert first.block_size is None
