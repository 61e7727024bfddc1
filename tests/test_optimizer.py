"""Block-size optimizers: the run-based recurrence and the sorted-block sweeps against brute force."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

import support
from colcodec import (
    ClusterObjective,
    EmptyColumnError,
    EntropyObjective,
    IndirectObjective,
    SchemeKind,
    VisitCounter,
    best_indirect,
    candidate_block_sizes,
    cluster_sweep,
    clustered_block_count_oracle,
    encode_array,
    encoded_size_bits,
    encoded_size_breakdown,
    entropy_sweep,
    id_width_bits,
    indirect_size_sweep,
    mean_block_entropy,
    optimal_cluster_block_size,
    optimal_indirect_block_size,
    to_runs,
)
from colcodec.optimizer import indirect_sweeps, mean_block_entropy_oracle


def test_candidates_are_powers_of_two_up_to_n():
    assert candidate_block_sizes(2) == [2]
    assert candidate_block_sizes(3) == [2]
    assert candidate_block_sizes(8) == [2, 4, 8]
    assert candidate_block_sizes(1024) == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert candidate_block_sizes(1500) == candidate_block_sizes(1024)
    for n in range(2, 600):
        assert candidate_block_sizes(n) == support.candidate_sizes_oracle(n)


def test_sqrt_bound_trims_large_candidates():
    assert candidate_block_sizes(64, sqrt_bound=True) == [2, 4, 8]
    assert candidate_block_sizes(100, sqrt_bound=True) == [2, 4, 8]
    # nothing satisfies b*b <= 3, keep the smallest candidate anyway
    assert candidate_block_sizes(3, sqrt_bound=True) == [2]


def test_candidates_need_two_rows():
    for n in (0, 1):
        with pytest.raises(EmptyColumnError):
            candidate_block_sizes(n)


def sweep_counts(ids) -> dict[int, int]:
    """Single-valued full blocks at each candidate b, as the cluster sweep
    counts them; no candidate, and no full block, below two rows."""
    return {o.b: o.s for o in cluster_sweep(ids)} if len(ids) >= 2 else {}


def test_clustered_count_from_run_fixtures():
    assert sweep_counts([5] * 4 + [7] * 4) == {2: 4, 4: 2, 8: 0}
    # second run starts mid-block, so only its aligned tail clusters
    assert sweep_counts([1] * 3 + [2] * 5)[2] == 3


def test_clustered_count_exhaustive_binary_columns():
    for n in range(1, 11):
        for bits in itertools.product((0, 1), repeat=n):
            ids = list(bits)
            counts = sweep_counts(ids)
            for b in (2, 4, 8):
                expected = support.block_walk_clusters(ids, b)
                assert counts.get(b, 0) == expected  # b > n is no candidate and holds no block
                assert clustered_block_count_oracle(ids, b) == expected


def test_clustered_count_random_columns_match_block_walk():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 4097))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        ids = support.family_column(rng, family, n)
        counts = sweep_counts(ids)
        for b in candidate_block_sizes(max(n, 2))[:6]:
            assert counts.get(b, 0) == support.block_walk_clusters(ids, b)


def test_clustered_count_matches_the_oracle_on_straddling_runs_up_to_2_20():
    """Seeded run lists, at each b = 2**e up to 2**20, of runs shorter than a
    block, runs crossing one to three boundaries and runs of whole blocks
    starting anywhere: the sweep's count equals the block walk at b/2, b and
    2b."""
    rng = random.Random(20)
    for e in range(1, 21):
        b = 1 << e
        for _ in range(3 if e < 17 else 1):
            ids, value = [], 0
            while len(ids) < min(12 * b, 1 << 22):
                count = rng.choice(
                    [rng.randint(1, max(1, b // 2)), rng.randint(b - 1, 3 * b + 1), rng.randint(1, 4) * b]
                )
                value = (value + rng.randint(1, 3)) % 5  # neighbouring runs differ
                ids += [value] * count
            counts = sweep_counts(np.array(ids))
            for block_size in (b // 2, b, 2 * b):
                if block_size >= 2:
                    expected = clustered_block_count_oracle(ids, block_size)
                    assert counts[block_size] == expected, (e, block_size)


def test_cluster_sweep_lists_every_candidate_ascending():
    ids = [5, 5, 5, 5, 7, 7, 7, 7]
    sweep = cluster_sweep(ids)
    assert [o.b for o in sweep] == [2, 4, 8]
    assert sweep == [
        ClusterObjective(b=2, s=4, f=4),
        ClusterObjective(b=4, s=2, f=6),
        ClusterObjective(b=8, s=0, f=0),
    ]


def test_optimal_cluster_fixtures():
    assert optimal_cluster_block_size([5, 5, 5, 5, 7, 7, 7, 7]) == ClusterObjective(b=4, s=2, f=6)
    assert optimal_cluster_block_size([7] * 1024) == ClusterObjective(b=1024, s=1, f=1023)


def test_optimal_cluster_tie_prefers_smaller_block():
    ids = [0, 0, 0, 0, 1, 1, 2, 3]
    sweep = {o.b: o.f for o in cluster_sweep(ids)}
    assert sweep == {2: 3, 4: 3, 8: 0}
    assert optimal_cluster_block_size(ids) == ClusterObjective(b=2, s=3, f=3)


def test_optimal_cluster_when_nothing_clusters():
    assert optimal_cluster_block_size(list(range(16))) == ClusterObjective(b=2, s=0, f=0)


def test_optimal_cluster_needs_two_rows():
    with pytest.raises(EmptyColumnError):
        optimal_cluster_block_size([5])


def test_optimal_cluster_matches_brute_force():
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(2, 2049))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        ids = support.family_column(rng, family, n)
        best = optimal_cluster_block_size(ids)
        b, f = support.best_block_size_oracle(ids, candidate_block_sizes(n))
        assert (best.b, best.f) == (b, f)


def test_sqrt_bound_restricts_the_cluster_search():
    ids = [7] * 1024
    best = optimal_cluster_block_size(ids, sqrt_bound=True)
    assert best == ClusterObjective(b=32, s=32, f=992)


def test_visit_counter_tallies_runs_per_candidate():
    ids = [5, 5, 5, 5, 7, 7, 7, 7]
    counter = VisitCounter()
    cluster_sweep(ids, counter=counter)
    num_runs = len(to_runs(ids))
    assert counter.visits == len(ids) + 3 * num_runs

    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(2, 5000))
        ids = support.family_column(rng, "zipf", n)
        counter = VisitCounter()
        cluster_sweep(ids, counter=counter)
        expected = n + len(candidate_block_sizes(n)) * len(to_runs(ids))
        assert counter.visits == expected
        # runs never outnumber rows, so the sweep is O(n log n)
        assert counter.visits <= n * (1 + math.floor(math.log2(n)))


# A block of exactly b rows is one full block over a denominator of one, so
# its mean block entropy at b is that block's own b-ary entropy.


def test_block_entropy_exact_fixtures():
    assert mean_block_entropy([3, 3, 3, 3], 4).mean_entropy == 0.0
    assert mean_block_entropy([0, 0, 1, 1], 4).mean_entropy == 0.5
    assert mean_block_entropy([0, 1], 2).mean_entropy == 1.0


def test_block_entropy_uniform_block_is_exactly_one():
    for b in (2, 4, 8, 16, 64, 256):
        assert abs(mean_block_entropy(list(range(b)), b).mean_entropy - 1.0) <= 1e-12


def test_block_entropy_is_permutation_invariant():
    rng = np.random.default_rng(109)
    ids = [int(i) for i in rng.integers(0, 5, size=32)]
    shuffled = list(ids)
    rng.shuffle(shuffled)
    assert mean_block_entropy(ids, 32) == mean_block_entropy(shuffled, 32)


def test_block_entropy_matches_natural_log_oracle():
    rng = np.random.default_rng(113)
    for _ in range(200):
        b = int(2 ** rng.integers(1, 9))
        block = [int(i) for i in rng.integers(0, 10, size=b)]
        got = mean_block_entropy(block, b).mean_entropy
        assert abs(got - support.entropy_oracle(block, b)) <= 1e-9


def test_mean_block_entropy_fixtures():
    assert mean_block_entropy([0, 1, 0, 1], 2) == EntropyObjective(b=2, mean_entropy=1.0)
    # the partial tail contributes nothing to the sum but counts as a block
    assert mean_block_entropy([0, 1, 2, 3, 9], 4) == EntropyObjective(b=4, mean_entropy=0.5)
    assert mean_block_entropy([7, 7, 7, 7], 2).mean_entropy == 0.0


def test_mean_block_entropy_stays_in_unit_range():
    rng = np.random.default_rng(127)
    for _ in range(100):
        n = int(rng.integers(1, 500))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        ids = support.family_column(rng, family, n)
        for b in (2, 4, 16):
            mean = mean_block_entropy(ids, b).mean_entropy
            assert 0.0 <= mean <= 1.0


def test_mean_block_entropy_matches_oracle():
    rng = np.random.default_rng(131)
    for _ in range(150):
        n = int(rng.integers(1, 600))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        ids = support.family_column(rng, family, n)
        for b in (2, 4, 8, 32):
            got = mean_block_entropy(ids, b).mean_entropy
            assert abs(got - support.mean_entropy_oracle(ids, b)) <= 1e-9


def test_entropy_sweep_and_optimum():
    ids = [0, 1, 0, 1, 2, 3, 2, 3]
    sweep = entropy_sweep(ids)
    assert [o.b for o in sweep] == [2, 4, 8]
    assert sweep[0].mean_entropy == 1.0
    assert sweep[1].mean_entropy == 0.5
    assert optimal_indirect_block_size(ids) == sweep[1]

    # blocks of repeated pairs score zero at b=2
    assert optimal_indirect_block_size([0, 0, 1, 1, 2, 2, 3, 3]) == EntropyObjective(
        b=2, mean_entropy=0.0
    )


def test_entropy_tie_prefers_smaller_block():
    assert optimal_indirect_block_size([4] * 64).b == 2


def test_entropy_optimum_matches_oracle_argmin():
    rng = np.random.default_rng(137)
    for _ in range(100):
        n = int(rng.integers(2, 800))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        ids = support.family_column(rng, family, n)
        best = optimal_indirect_block_size(ids)
        oracle = {b: support.mean_entropy_oracle(ids, b) for b in candidate_block_sizes(n)}
        assert abs(best.mean_entropy - oracle[best.b]) <= 1e-9
        assert abs(best.mean_entropy - min(oracle.values())) <= 1e-9
        # smallest-b tie break, judged in the package's own arithmetic
        for objective in entropy_sweep(ids):
            if objective.b < best.b:
                assert objective.mean_entropy > best.mean_entropy


def test_entropy_visit_counter_counts_scored_rows():
    ids = list(range(20))
    counter = VisitCounter()
    entropy_sweep(ids, counter=counter)
    # 20 rows: b=2 scores 20, b=4 scores 20, b=8 scores 16, b=16 scores 16
    assert counter.visits == 20 + 20 + 16 + 16


def test_entropy_sweep_matches_the_literal_block_walk():
    rng = np.random.default_rng(139)
    columns = [[0, 1], [3, 3], [0, 1, 2, 3, 9], list(range(64))]
    for _ in range(120):
        n = int(rng.integers(2, 2049))
        family = support.FAMILIES[int(rng.integers(len(support.FAMILIES)))]
        columns.append(support.family_column(rng, family, n))
    for ids in columns:
        for sqrt_bound in (False, True):
            counter = VisitCounter()
            sweep = entropy_sweep(ids, sqrt_bound=sqrt_bound, counter=counter)
            candidates = candidate_block_sizes(len(ids), sqrt_bound)
            assert [o.b for o in sweep] == candidates
            for objective in sweep:
                literal = support.mean_entropy_oracle(ids, objective.b)
                assert abs(objective.mean_entropy - literal) <= 1e-12
            # the sweep counted the rows inside scored blocks
            assert counter.visits == sum((len(ids) // b) * b for b in candidates)


def assert_walk_equals_sorted_rows(ids, width):
    """Both traces, from every entry point, equal the sort-per-candidate
    references exactly: ``==`` on the floats, no tolerance."""
    candidates = candidate_block_sizes(len(ids))
    entropy = [support.sorted_rows_mean_entropy(ids, b) for b in candidates]
    bits = [support.sorted_rows_indirect_bits(ids, b, width) for b in candidates]
    for sqrt_bound in (False, True):
        kept = len(candidate_block_sizes(len(ids), sqrt_bound))  # the bound keeps a prefix
        entropies, sizes = indirect_sweeps(ids, width, sqrt_bound=sqrt_bound)
        assert [(o.b, o.mean_entropy) for o in entropies] == list(zip(candidates, entropy))[:kept]
        assert [(o.b, o.bits) for o in sizes] == list(zip(candidates, bits))[:kept]
        assert entropy_sweep(ids, sqrt_bound=sqrt_bound) == entropies
        assert indirect_size_sweep(ids, width, sqrt_bound=sqrt_bound) == sizes
    assert [mean_block_entropy(ids, b).mean_entropy for b in candidates] == entropy


def test_the_segment_walk_equals_the_sorted_rows_on_the_search_corpora(search_corpus, wide_corpus):
    columns = [ids for ids in search_corpus if len(ids) >= 2] + wide_corpus
    for ids in map(np.array, columns):
        width = id_width_bits(int(ids.max()) + 1)
        candidates = candidate_block_sizes(len(ids))
        entropies, sizes = indirect_sweeps(ids, width)
        assert [o.mean_entropy for o in entropies] == [
            support.sorted_rows_mean_entropy(ids, b) for b in candidates
        ]
        assert [o.bits for o in sizes] == [
            support.sorted_rows_indirect_bits(ids, b, width) for b in candidates
        ]


@pytest.mark.parametrize("top", [1, 255, 256, 65_535, 65_536, 2**32])
def test_the_segment_walk_equals_the_sorted_rows_at_the_sort_key_seams(top):
    """Largest IDs on both sides of the uint8, uint16 and uint32 sort keys;
    lengths with partial tails and a candidate above n/2; one-value columns."""
    rng = np.random.default_rng(top)
    width = id_width_bits(top + 1)
    for n in (2, 3, 5, 17, 1000, 4099):
        uniform = rng.integers(0, top + 1, n)
        uniform[rng.integers(n)] = top
        few = rng.choice([0, top // 2, top], n)
        for ids in (uniform, few, np.sort(few), np.full(n, top), np.zeros(n, np.int64)):
            assert_walk_equals_sorted_rows(ids, width)
            assert_walk_equals_sorted_rows(ids.tolist(), width)


def test_mean_block_entropy_equals_the_sorted_rows_off_the_candidates():
    rng = np.random.default_rng(149)
    columns = [[], [5], [-3, -3, 7], [-(2**40), 2**40, 0, -1] * 5, rng.integers(-9, 9, 777).tolist()]
    for ids in columns:
        for b in (2, 4, 8, 64, 2**20, 2**31):  # b > n holds no full block
            want = support.sorted_rows_mean_entropy(ids, b)
            assert mean_block_entropy(ids, b) == EntropyObjective(b=b, mean_entropy=want)


def test_the_verify_oracle_is_within_1e_12_of_the_histogram_walk(search_corpus, wide_corpus):
    rng = np.random.default_rng(151)
    picks = rng.choice(len(search_corpus), 120, replace=False)
    columns = [search_corpus[i] for i in picks if len(search_corpus[i]) >= 2] + wide_corpus
    for ids in columns:
        for b in candidate_block_sizes(len(ids)):
            literal = support.mean_entropy_oracle(ids, b)
            assert abs(mean_block_entropy_oracle(ids, b) - literal) <= 1e-12
            assert abs(mean_block_entropy_oracle(np.array(ids), b) - literal) <= 1e-12


def literal_indirect_sizes(ids):
    """encoded_size_bits of the literal indirect encoder at every candidate."""
    array = support.make_array(ids)
    return {
        b: encoded_size_bits(encode_array(array, SchemeKind.INDIRECT, b))
        for b in candidate_block_sizes(len(ids))
    }


def assert_sweeps_match_encoder(ids):
    width = support.make_array(ids).id_width_bits
    literal = literal_indirect_sizes(ids)
    for sqrt_bound in (False, True):
        sweep = indirect_size_sweep(ids, width, sqrt_bound=sqrt_bound)
        assert [o.b for o in sweep] == candidate_block_sizes(len(ids), sqrt_bound)
        assert all(o.bits == literal[o.b] for o in sweep)
    best_b = min(literal, key=literal.__getitem__)  # equal sizes: the smallest b
    assert best_indirect(indirect_size_sweep(ids, width)) == IndirectObjective(
        b=best_b, bits=literal[best_b]
    )


def test_indirect_size_sweep_equals_the_encoder_on_the_search_corpora(search_corpus, wide_corpus):
    columns = [ids for ids in search_corpus if len(ids) >= 2] + wide_corpus
    assert any(len(ids) == 2 for ids in columns)
    assert any(len(ids) % 2 for ids in columns)  # partial tail blocks
    for ids in columns:
        assert_sweeps_match_encoder(ids)


def test_indirect_size_sweep_when_no_block_pays():
    for ids in ([0] * 40, list(range(37)), [0, 1] * 20 + [1]):
        for b in candidate_block_sizes(len(ids)):
            encoded = encode_array(support.make_array(ids), SchemeKind.INDIRECT, b)
            assert encoded_size_breakdown(encoded)["local_dicts"] == 0
        assert_sweeps_match_encoder(ids)


def test_indirect_size_sweep_counts_every_field():
    # W=3: [0,0,0,0] pays (3 + 4 + 64 bits), [1,2,3,4] does not (12 bits)
    ids = [0, 0, 0, 0, 1, 2, 3, 4]
    sweep = indirect_size_sweep(ids, 3)
    assert sweep[1] == IndirectObjective(b=4, bits=64 + 2 + (3 + 4 + 64) + 12)
    # a constant column: local IDs never narrow a 1-bit width, so fewest tags win
    assert best_indirect(indirect_size_sweep([7] * 64, 1)) == IndirectObjective(
        b=64, bits=64 + 1 + 64
    )
