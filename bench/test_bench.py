"""Tests of the benchmark itself: its oracles, inputs, tracing and runs.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SMALL_ROWS = 5000


@pytest.fixture(autouse=True)
def small_columns(monkeypatch):
    monkeypatch.setattr(workloads, "ROWS", SMALL_ROWS)


# -- oracles on hand-made columns --------------------------------------------


CELLS = ["pear", "apple", "quince", "pear", "fig"]


@pytest.mark.parametrize(
    "op, value, high, rows",
    [
        ("=", "pear", None, [0, 3]),
        ("=", "pea", None, []),
        ("<", "pear", None, [1, 4]),
        ("<", "apple", None, []),
        (">=", "pear", None, [0, 2, 3]),
        (">=", "pear~", None, [2]),
        ("between", "fig", "pear", [0, 3, 4]),
        ("between", "b", "g", [4]),
        ("between", "q", "a", []),
    ],
)
def test_filter_rows_compares_strings(op, value, high, rows):
    assert oracles.filter_rows(np.asarray(CELLS), op, value, high) == rows


def test_value_codes_rank_cells_among_distinct_values():
    assert oracles.value_codes(CELLS).tolist() == [2, 0, 3, 2, 1]


@pytest.mark.parametrize(
    "codes, best",
    [
        ([0, 0, 0, 0, 1, 1, 1, 1], 4),  # F(2)=4, F(4)=6, F(8)=0
        ([0, 0, 1, 2], 2),  # F(2)=1, F(4)=0
        ([0, 1, 2, 3, 4], 2),  # nothing clusters: smallest candidate
        ([5, 5, 5, 5, 5, 5, 5, 5, 5], 8),  # the trailing partial block never counts
    ],
)
def test_cluster_block_size_on_hand_made_columns(codes, best):
    assert oracles.cluster_block_size(np.asarray(codes)) == best


def test_cluster_block_size_matches_a_literal_block_walk():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 70)
        codes = []
        while len(codes) < n:
            codes += [rng.randint(0, 3)] * rng.randint(1, 9)
        codes = codes[:n]
        best_b, best_f, b = None, -1, 2
        while b <= n:
            s = sum(
                len(set(codes[i : i + b])) == 1 for i in range(0, n - b + 1, b)
            )
            if s * (b - 1) > best_f:
                best_b, best_f = b, s * (b - 1)
            b *= 2
        assert oracles.cluster_block_size(np.asarray(codes)) == best_b


def test_file_size_law_by_hand():
    # header 26, dictionary "ab" (4+2) and "c" (4+1), 10 bits pad to 2 bytes
    assert oracles.file_size(["ab", "c", "ab"], 10) == 26 + 6 + 5 + 2
    assert oracles.file_size(["é"], 8) == 26 + 4 + 2 + 1


def test_csv_cells_round_trip(tmp_path):
    path = tmp_path / "cells.csv"
    workloads.write_csv(path, CELLS)
    assert oracles.read_csv_cells(path) == CELLS


# -- generated inputs ----------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_columns_are_a_function_of_the_seed(workload):
    one = workloads.make_column(workload, 3)
    assert one == workloads.make_column(workload, 3)
    assert one != workloads.make_column(workload, 4)
    assert len(one) == SMALL_ROWS
    assert all(len(c) == workloads.WORD_LETTERS and c.isalpha() for c in set(one))


@pytest.mark.parametrize("workload", ["zipf_sparse", "local_dict"])
def test_shuffled_columns_start_with_two_different_cells(workload):
    for seed in range(20):
        cells = workloads.make_column(workload, seed)
        assert cells[0] != cells[1]


def test_local_dict_segments_take_values_of_their_own():
    segments = SMALL_ROWS * 2 // sum(workloads.LOCAL_SEGMENT)
    for seed in range(5):
        distinct = len(set(workloads.make_column("local_dict", seed)))
        # a segment of at least 75 rows almost always holds all 12 of its values
        assert segments * workloads.LOCAL_PER_SEGMENT - 2 <= distinct <= segments * workloads.LOCAL_PER_SEGMENT


def test_clustered_runs_are_long():
    cells = workloads.make_column("clustered_runs", 1)
    lengths = [len(list(g)) for _, g in itertools.groupby(cells)]
    low, high = workloads.RUN_LENGTH
    assert all(low <= n <= high for n in lengths[:-1])


def test_predicate_batch_mixes_operators_operands_and_selectivity():
    cells = workloads.make_column("zipf_sparse", 2)
    batch = workloads.make_predicates(cells)
    assert batch == workloads.make_predicates(cells)
    ops = [p.op for p in batch]
    assert {op: ops.count(op) for op in set(ops)} == {
        op: workloads.PREDICATES_PER_OP for op in ("=", "<", ">=", "between")
    }
    present = set(cells)
    equals = [p.value for p in batch if p.op == "="]
    assert any(v in present for v in equals) and any(v not in present for v in equals)
    selectivity = [
        len(oracles.filter_rows(np.asarray(cells), p.op, p.value, p.high)) / len(cells)
        for p in batch
        if p.op != "="
    ]
    assert min(selectivity) < 0.01
    assert 0.3 < max(selectivity) < 0.7


# -- tracing -------------------------------------------------------------------


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    module = types.SimpleNamespace(work=lambda x: x * 2)
    with tracer.span("outer"):
        with tracer.patched([(module, "work", "inner")]):
            assert module.work(21) == 42
    assert module.work(1) == 2  # restored, no span recorded
    outer, inner = tracer.spans
    assert inner["parent"] == 0 and outer["parent"] is None
    assert 0 <= tracer.self_time(0) <= outer["end"] - outer["start"]
    assert tracer.summary()["inner"]["calls"] == 1


# -- counting and checking -----------------------------------------------------


def test_tally_counts_failed_operations_and_checks():
    tally = run.Tally()
    assert tally.call("ok", lambda: 3)[0] == 3
    assert tally.call("boom", lambda: 1 / 0)[0] is None
    assert tally.correct
    tally.check("holds", True)
    tally.check("broken", False)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 2, False)


def test_a_wrong_scan_result_is_caught(tmp_path):
    modules = run.import_colcodec()
    cells = workloads.make_column("zipf_sparse", 1)
    predicates = workloads.make_predicates(cells)
    case = run.make_case(cells, predicates, tmp_path, "t")
    tally = run.Tally()
    runner = run.Runner(modules, tally)
    workloads.write_csv(case.csv_path, cells)
    runner.command(case, "compress")
    runner.read_column(case)
    runner.scan(case)
    assert tally.correct and tally.failed == 0
    case.expected_rows[-1] = case.expected_rows[-1][1:]
    runner.scan(case)
    assert not tally.correct and tally.failed == 1


# -- whole runs at a small size ------------------------------------------------


def small_run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "999", "--seconds", "0"]
    with contextlib.redirect_stdout(out):
        assert run.main(argv + ["--trace", str(trace)]) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_run(workload):
    result = small_run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run(workload):
    result = small_run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.per_layer_units()


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "local_dict", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
