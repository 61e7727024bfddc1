"""Acceptance suite: ten end-to-end guarantees, one test per guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee. Wall-clock budgets and float tolerances are pinned below;
everything else is exact equality.
"""

from __future__ import annotations

import io
import math
import random
import time

import numpy as np

import support
from colcodec import (
    HeuristicParams,
    SchemeKind,
    candidate_block_sizes,
    cluster_sweep,
    clustered_block_count_oracle,
    compute_stats,
    decide_scheme,
    decode_array,
    encode_array,
    encode_column,
    encoded_size_bits,
    encoded_size_breakdown,
    mean_block_entropy,
    optimal_cluster_block_size,
    optimal_indirect_block_size,
    read_encoded,
    scan_id_range,
    write_encoded,
    VisitCounter,
)
from colcodec.fileio import HEADER_BYTES

ROUND_TRIP_BUDGET_S = 60.0  # guarantee 1
SWEEP_BUDGET_S = 10.0  # guarantee 10, million-row sweep
VISIT_FACTOR = 2.0  # guarantee 10, visits <= factor * n * log2(n)
ENTROPY_TOL = 1e-9  # guarantee 6, cross-route comparisons
UNIT_BLOCK_TOL = 1e-12  # guarantee 6, b distinct values must score 1


def test_01_every_scheme_round_trips_across_families():
    rng = np.random.default_rng(20240803)
    plan_rng = random.Random(20240803)
    started = time.perf_counter()
    per_scheme = {kind: 0 for kind in SchemeKind}
    for family in support.FAMILIES:
        for _ in range(1000):
            n = int(rng.integers(1, 193))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            array = support.make_array(ids)
            for scheme, block in support.scheme_plans(plan_rng, ids):
                encoded = encode_array(array, scheme, block_size=block)
                assert decode_array(encoded) == ids
                per_scheme[scheme] += 1
    elapsed = time.perf_counter() - started
    # every scheme must see at least one family's full complement of columns
    assert all(count >= 1000 for count in per_scheme.values())
    assert elapsed < ROUND_TRIP_BUDGET_S


def test_02_run_recurrence_matches_exhaustive_block_walks(search_corpus):
    for ids in search_corpus:
        if len(ids) >= 2:
            counts = {o.b: o.s for o in cluster_sweep(ids)}  # the run recurrence
            candidates = candidate_block_sizes(len(ids))
        else:
            counts, candidates = {}, [2, 4]  # no sweep, and no full block
        for b in candidates:
            expected = support.block_walk_clusters(ids, b)
            assert counts.get(b, 0) == expected
            assert clustered_block_count_oracle(ids, b) == expected


def test_03_block_size_search_matches_brute_force(search_corpus):
    # worked fixtures first: two run profiles with known winners
    assert optimal_cluster_block_size([5, 5, 5, 5, 7, 7, 7, 7]).b == 4
    assert optimal_cluster_block_size([1, 1, 1, 2, 2, 2, 2, 2]).b == 2
    assert {o.b: o.s for o in cluster_sweep([5] * 4 + [7] * 4)}[4] == 2
    assert {o.b: o.s for o in cluster_sweep([1] * 3 + [2] * 5)}[2] == 3

    for ids in search_corpus:
        if len(ids) < 2:
            continue
        best = optimal_cluster_block_size(ids)
        b, f = support.best_block_size_oracle(ids, candidate_block_sizes(len(ids)))
        assert (best.b, best.f) == (b, f)


def test_04_cluster_size_accounting_is_exact(search_corpus, wide_corpus):
    def assert_law(ids):
        n = len(ids)
        array = support.make_array(ids)
        w = array.id_width_bits
        for b in candidate_block_sizes(n) if n >= 2 else [2]:
            encoded = encode_array(array, SchemeKind.CLUSTER, block_size=b)
            s = support.block_walk_clusters(ids, b)
            assert encoded_size_breakdown(encoded) == {
                "flags": -(-n // b),
                "id_payload": (n - s * (b - 1)) * w,
            }
            assert encoded_size_bits(encoded) == -(-n // b) + (n - s * (b - 1)) * w

    for ids in search_corpus:
        assert_law(ids)
    for ids in wide_corpus:
        assert_law(ids)


def test_05_searched_block_size_never_loses_to_fixed_1024(search_corpus, wide_corpus):
    columns = [ids for ids in search_corpus if len(ids) >= 2048] + wide_corpus
    assert len(columns) > 100
    for ids in columns:
        n = len(ids)
        w = support.make_array(ids).id_width_bits

        def payload(o):
            return (n - o.s * (o.b - 1)) * w

        sweep = {o.b: o for o in cluster_sweep(ids)}
        assert 1024 in sweep
        best = max(sweep.values(), key=lambda o: o.f)
        fixed = sweep[1024]
        assert best.f >= fixed.f
        # the searched size also wins at the logical ID-payload level
        assert payload(best) <= payload(fixed)
        assert optimal_cluster_block_size(ids).f == best.f


def test_06_entropy_scores_and_argmin_fixtures():
    rng = np.random.default_rng(20240804)
    # a block of exactly b rows is one full block: its mean is its own entropy
    for _ in range(200):
        b = int(2 ** rng.integers(1, 9))
        block = [int(v) for v in rng.integers(0, 12, size=b)]
        got = mean_block_entropy(block, b).mean_entropy
        assert abs(got - support.entropy_oracle(block, b)) <= ENTROPY_TOL

    for b in (2, 4, 8, 16, 64, 256):
        assert mean_block_entropy([7] * b, b).mean_entropy == 0.0
        assert abs(mean_block_entropy(list(range(b)), b).mean_entropy - 1.0) <= UNIT_BLOCK_TOL

    paired = [0, 0, 1, 1]
    assert mean_block_entropy(paired, 2).mean_entropy == 0.0
    assert mean_block_entropy(paired, 4).mean_entropy == 0.5
    assert optimal_indirect_block_size(paired).b == 2

    alternating = [0, 1, 0, 1]
    assert mean_block_entropy(alternating, 2).mean_entropy == 1.0
    assert mean_block_entropy(alternating, 4).mean_entropy == 0.5
    assert optimal_indirect_block_size(alternating).b == 4


def test_07_scheme_selection_fixtures_and_coverage_flip():
    fixtures = [
        ([3, 1, 2], SchemeKind.RAW),
        ([1, 2, 3, 4], SchemeKind.AFFINE),
        ([0, 0, 1, 2, 2, 2], SchemeKind.RLE),
        ([4, 4, 4, 4, 9, 1, 7, 2], SchemeKind.PREFIX),
        ([v for i in range(1, 33) for v in (i, 0)], SchemeKind.SPARSE),
    ]
    outcomes = []
    for ids, expected in fixtures:
        decision = decide_scheme(compute_stats(ids), ids)
        assert decision.scheme is expected
        outcomes.append(decision.scheme)
    assert set(outcomes) == {
        SchemeKind.RAW,
        SchemeKind.AFFINE,
        SchemeKind.RLE,
        SchemeKind.PREFIX,
        SchemeKind.SPARSE,
    }

    # high-repetition column whose single-valued blocks cover 3/4 of the rows
    ids = [1, 2] + [3] * 8 + [4] * 8 + [5, 4, 3, 2] + [6] * 8 + [2, 1]
    best = optimal_cluster_block_size(ids)
    coverage = best.s * best.b / len(ids)
    assert coverage == 0.75

    for z, expected in (
        (0.5, SchemeKind.CLUSTER),
        (0.74, SchemeKind.CLUSTER),
        (0.75, SchemeKind.INDIRECT),  # the bar is strict
        (0.8, SchemeKind.INDIRECT),
    ):
        decision = decide_scheme(compute_stats(ids), ids, HeuristicParams(z=z))
        assert decision.scheme is expected, (z, decision.scheme)

    again = decide_scheme(compute_stats(ids), ids)
    assert again == decide_scheme(compute_stats(ids), ids)


def test_08_files_round_trip_byte_for_byte():
    rng = np.random.default_rng(20240805)
    plan_rng = random.Random(20240805)
    for family in support.FAMILIES:
        for i in range(100):
            n = int(rng.integers(1, 160))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            # exercise multibyte dictionary entries on a slice of the corpus
            stem = "værdié" if i % 7 == 0 else "v"
            dictionary, array = encode_column([f"{stem}{v:04d}" for v in ids])
            for scheme, block in support.scheme_plans(plan_rng, array.ids):
                encoded = encode_array(array, scheme, block_size=block)
                sink = io.BytesIO()
                written = write_encoded(sink, dictionary, encoded)
                data = sink.getvalue()

                got_dict, got_encoded = read_encoded(io.BytesIO(data))
                assert (got_dict, got_encoded) == (dictionary, encoded)

                again = io.BytesIO()
                write_encoded(again, got_dict, got_encoded)
                assert again.getvalue() == data

                dict_bytes = sum(4 + len(v.encode("utf-8")) for v in dictionary.values)
                payload_bytes = -(-encoded_size_bits(encoded) // 8)
                assert written == len(data) == HEADER_BYTES + dict_bytes + payload_bytes


def test_09_interval_scans_equal_decode_then_filter():
    rng = np.random.default_rng(20240806)
    interval_rng = random.Random(20240806)
    plan_rng = random.Random(20240807)
    for scheme in SchemeKind:
        pairs = 0
        while pairs < 200:
            family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
            if scheme is SchemeKind.AFFINE:
                family = "sequential"
            n = int(rng.integers(1, 300))
            if family == "sequential":
                n = max(n, 2)
            ids = support.family_column(rng, family, n)
            array = support.make_array(ids)
            block = None
            if scheme in (SchemeKind.CLUSTER, SchemeKind.INDIRECT):
                block = plan_rng.choice(support.candidate_sizes_oracle(n) or [2])
            encoded = encode_array(array, scheme, block_size=block)
            interval = support.random_interval(interval_rng, max(ids))
            assert scan_id_range(encoded, interval) == support.scan_oracle(encoded, interval)
            pairs += 1


def test_10_sweep_scales_quasilinearly_to_a_million_rows():
    rng = np.random.default_rng(20240808)
    million_elapsed = None
    for n in (10_000, 100_000, 1_000_000):
        ids = support.family_column(rng, "zipf", n)
        counter = VisitCounter()
        started = time.perf_counter()
        best = optimal_cluster_block_size(ids, counter=counter)
        elapsed = time.perf_counter() - started
        assert best.b >= 2
        assert counter.visits <= VISIT_FACTOR * n * math.log2(n)
        if n == 1_000_000:
            million_elapsed = elapsed
    assert million_elapsed is not None and million_elapsed < SWEEP_BUDGET_S
