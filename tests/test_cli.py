"""End-to-end command line behavior, in-process via main()."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import colcodec.cli
import colcodec.encodings
import colcodec.heuristics
import colcodec.optimizer
import support
from colcodec import (
    SchemeKind,
    decode_array,
    encode_array,
    encode_column,
    read_csv_column,
    read_encoded,
    write_encoded,
)
from colcodec.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, values, name="in.csv"):
    path = tmp_path / name
    lines = []
    for v in values:
        if any(c in v for c in ',"\n'):
            v = '"' + v.replace('"', '""') + '"'
        lines.append(v)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


SORTED_VALUES = ["a", "a", "b", "c", "c", "c"]


def test_analyze_reports_stats_decision_and_sizes(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    code, out, err = run(capsys, ["analyze", csv])
    assert code == 0 and err == ""

    report = json.loads(out)
    assert list(report) == [
        "column",
        "params",
        "stats",
        "decision",
        "sizes_bits",
        "regret",
        "cluster_block_size",
        "indirect_block_size",
        "cluster_trace",
        "entropy_trace",
        "indirect_size_trace",
    ]
    assert report["column"] == {"rows": 6, "distinct_values": 3, "id_width_bits": 2}
    assert report["params"] == {"x": 10.0, "y": 2.0, "z": 0.5, "sqrt_bound": False}
    assert report["stats"]["is_sorted"] is True
    assert report["decision"] == {"scheme": "rle", "block_size": None, "cluster_coverage": None}
    assert report["sizes_bits"]["raw"] == 12
    assert report["sizes_bits"]["cluster"] == 11
    assert report["sizes_bits"]["affine"] is None
    # rle is chosen at 262 bits, cluster would store 11
    assert report["sizes_bits"]["rle"] == 262
    assert report["regret"] == 262 / 11
    assert report["cluster_block_size"] == 2
    assert [t["b"] for t in report["cluster_trace"]] == [2, 4]
    assert report["cluster_trace"][0] == {"b": 2, "s": 2, "f": 2}


def test_analyze_output_is_stable(capsys, tmp_path):
    csv = write_csv(tmp_path, ["q", "r", "q", "q", "s", "q"])
    _, first, _ = run(capsys, ["analyze", csv])
    _, second, _ = run(capsys, ["analyze", csv])
    assert first == second


def test_analyze_single_row_skips_the_optimizers(capsys, tmp_path):
    csv = write_csv(tmp_path, ["only"])
    code, out, _ = run(capsys, ["analyze", csv])
    assert code == 0
    report = json.loads(out)
    assert report["decision"]["scheme"] == "none"
    assert report["sizes_bits"]["cluster"] is None
    assert report["sizes_bits"]["indirect"] is None
    assert report["cluster_block_size"] is None
    assert report["cluster_trace"] == [] and report["entropy_trace"] == []
    assert report["indirect_size_trace"] == []


def test_analyze_echoes_custom_params(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    code, out, _ = run(capsys, ["analyze", csv, "--x", "3", "--y", "1.5", "--z", "0.9"])
    assert code == 0
    report = json.loads(out)
    assert report["params"] == {"x": 3.0, "y": 1.5, "z": 0.9, "sqrt_bound": False}


def test_compress_auto_reports_params_and_choice(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    out_file = tmp_path / "col.bcc1"
    code, out, err = run(capsys, ["compress", csv, "--out", str(out_file)])
    assert code == 0 and err == ""
    assert "params: x=10.0 y=2.0 z=0.5" in out
    assert "scheme=rle block_size=-" in out
    assert "ratio=" in out
    assert f"wrote {out_file}" in out
    assert out_file.stat().st_size > 0


def test_compress_explicit_scheme_skips_the_params_line(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    out_file = tmp_path / "col.bcc1"
    code, out, _ = run(capsys, ["compress", csv, "--out", str(out_file), "--scheme", "none"])
    assert code == 0
    assert "params:" not in out
    assert "scheme=raw" in out


def test_compress_cluster_uses_the_optimizer_block_size(capsys, tmp_path):
    csv = write_csv(tmp_path, ["p"] * 4 + ["q"] * 4)
    out_file = tmp_path / "col.bcc1"
    code, out, _ = run(capsys, ["compress", csv, "--out", str(out_file), "--scheme", "cluster"])
    assert code == 0
    assert "scheme=cluster block_size=4" in out


CLUSTERED_VALUES = [f"v{i}" for i in [1, 2] + [3] * 8 + [4] * 8 + [5, 4, 3, 2] + [6] * 8 + [2, 1]]


@pytest.mark.parametrize("flags", [["--z", "0.8"], ["--scheme", "indirect"]])
def test_compress_indirect_uses_the_exact_size_optimum(capsys, tmp_path, flags):
    # bits by block size: 932, 469, 218, 222, 161; the entropy optimum is b=2
    csv = write_csv(tmp_path, CLUSTERED_VALUES)
    out_file = tmp_path / "col.bcc1"
    code, out, _ = run(capsys, ["compress", csv, "--out", str(out_file), *flags])
    assert code == 0
    assert "scheme=indirect block_size=32" in out
    assert "encoded_bits=161 " in out


def test_compress_explicit_block_size_wins(capsys, tmp_path):
    csv = write_csv(tmp_path, ["p"] * 4 + ["q"] * 4)
    out_file = tmp_path / "col.bcc1"
    code, out, _ = run(
        capsys,
        ["compress", csv, "--out", str(out_file), "--scheme", "cluster", "--block-size", "2"],
    )
    assert code == 0
    assert "scheme=cluster block_size=2" in out


def test_compress_rejects_bad_block_size(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    out_file = tmp_path / "col.bcc1"
    for scheme in ("cluster", "indirect", "rle", "auto"):  # rle is auto's choice here
        for block_size in ("3", "4294967296"):  # 2**32 overflows the u32 header field
            code, _, err = run(
                capsys,
                ["compress", csv, "--out", str(out_file), "--scheme", scheme, "--block-size", block_size],
            )
            assert code == 1
            assert "InvalidBlockSizeError" in err
            assert not out_file.exists()


def test_compress_affine_needs_a_sequential_column(capsys, tmp_path):
    csv = write_csv(tmp_path, ["a", "c", "b"])
    out_file = tmp_path / "col.bcc1"
    code, _, err = run(capsys, ["compress", csv, "--out", str(out_file), "--scheme", "affine"])
    assert code == 1
    assert "NotAffineError" in err
    assert not out_file.exists()


def test_compress_auto_picks_affine_for_sequential_values(capsys, tmp_path):
    csv = write_csv(tmp_path, ["a", "b", "c", "d"])
    out_file = tmp_path / "col.bcc1"
    code, out, _ = run(capsys, ["compress", csv, "--out", str(out_file)])
    assert code == 0
    assert "scheme=affine" in out


def test_compress_empty_column_fails_cleanly(capsys, tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_bytes(b"")
    code, _, err = run(capsys, ["compress", str(csv), "--out", str(tmp_path / "o.bcc1")])
    assert code == 1
    assert "EmptyColumnError" in err


def test_compress_column_index_is_validated(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    code, _, err = run(
        capsys, ["compress", csv, "--out", str(tmp_path / "o.bcc1"), "--column", "4"]
    )
    assert code == 1
    assert "ColumnIndexOutOfRangeError" in err


def test_missing_input_file_fails_cleanly(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", str(tmp_path / "nope.csv")])
    assert code == 1
    assert "error:" in err


def test_bad_params_fail_cleanly(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    code, _, err = run(capsys, ["analyze", csv, "--x", "0.5"])
    assert code == 1
    assert "x must be > 1" in err


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["compress", str(tmp_path / "in.csv")])  # --out is required
    assert info.value.code == 1

    with pytest.raises(SystemExit) as info:
        main(["compress", "in.csv", "--out", "o", "--block-size", "soon"])
    assert info.value.code == 1

    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1


@pytest.mark.parametrize("flag, value", [("--x", "3"), ("--y", "3"), ("--z", "0.9")])
def test_verify_takes_no_thresholds(capsys, tmp_path, flag, value):
    """The thresholds steer the scheme decision, which verify does not make:
    verify rejects them as a usage error, and analyze still takes them."""
    csv = write_csv(tmp_path, SORTED_VALUES)
    with pytest.raises(SystemExit) as info:
        main(["verify", csv, flag, value])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: colcodec")
    assert f"error: unrecognized arguments: {flag} {value}" in captured.err

    code, out, _ = run(capsys, ["analyze", csv, flag, value])
    assert code == 0
    assert json.loads(out)["params"][flag[2:]] == float(value)


def test_one_parser_serves_every_command_of_a_process(capsys, tmp_path):
    """main builds its parser once per process; a forced-scheme compress, a
    usage error and a default compress in a row each exit and print what they
    do with a parser of their own, and write the same bytes."""
    csv = write_csv(tmp_path, support.text_column("clustered", 3, 2000))
    out = tmp_path / "out.bcc1"
    commands = [
        ["compress", csv, "--out", str(out), "--scheme", "cluster", "--block-size", "16"],
        ["compress", csv, "--out", str(out), "--block-size", "soon"],
        ["compress", csv, "--out", str(out)],
    ]

    def outcome(argv):
        out.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        written = out.read_bytes() if out.exists() else None
        return code, capsys.readouterr().out, written

    alone = []
    for argv in commands:
        colcodec.cli._parser.cache_clear()
        alone.append(outcome(argv))
    colcodec.cli._parser.cache_clear()
    together = [outcome(argv) for argv in commands]
    assert together == alone
    assert [code for code, _, _ in alone] == [0, 1, 0]
    assert alone[0][1] != alone[2][1]
    assert colcodec.cli._parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "values",
    [
        SORTED_VALUES,
        ["solo"],
        ["a", "b", "c", "d"],
        ["x,y", 'quo"te', "line\nbreak", "", "plain", "x,y"],
    ],
)
def test_compress_decompress_round_trips_values(capsys, tmp_path, values):
    csv = write_csv(tmp_path, values)
    out_file = tmp_path / "col.bcc1"
    back = tmp_path / "back.csv"
    assert run(capsys, ["compress", csv, "--out", str(out_file)])[0] == 0
    code, out, _ = run(capsys, ["decompress", str(out_file), "--out", str(back)])
    assert code == 0
    assert f"({len(values)} rows)" in out
    with open(back, "rb") as f:
        assert read_csv_column(f, 0) == values


def test_decompress_writes_what_writerows_writes(capsys, tmp_path):
    cells = ['say "hi"', "a,b", "cr\rcell", "lf\ncell", "crlf\r\ncell", " lead", "trail ",
             "", "plain", "naïve ü €", "日本語", '"', ","]
    rows = [cells[i] for i in np.random.default_rng(5).integers(0, len(cells), 20_000)]
    dictionary, array = encode_column(rows)
    column = tmp_path / "col.bcc1"
    with open(column, "wb") as f:
        write_encoded(f, dictionary, encode_array(array, SchemeKind.RAW))
    back = tmp_path / "back.csv"
    assert run(capsys, ["decompress", str(column), "--out", str(back)])[0] == 0
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows([cell] for cell in rows)
    assert back.read_bytes() == want.getvalue().encode("utf-8")


def test_decompress_writes_what_writerows_writes_on_every_layout(capsys, tmp_path):
    cells = ['say "hi"', "a,b", "cr\rcell", "lf\ncell", "crlf\r\ncell", " lead", "trail ",
             "", "plain", "naïve ü €", "日本語", '"', ","]
    rng = np.random.default_rng(21)
    runs = [(cells[i], int(k)) for i, k in zip(rng.integers(0, len(cells), 80), rng.integers(1, 150, 80))]
    rows = [cell for cell, k in runs for _ in range(k)][:4001]  # a short tail at b = 2, 16 and 64
    assert len(rows) == 4001
    blocked = (SchemeKind.CLUSTER, SchemeKind.INDIRECT)
    plans = [(rows, kind, None) for kind in SchemeKind if kind not in blocked and kind is not SchemeKind.AFFINE]
    plans += [(rows, kind, b) for kind in blocked for b in (2, 16, 64)]
    plans += [(sorted(cells), SchemeKind.AFFINE, None)]  # one row per value, in order: sequential IDs
    for column_rows, scheme, block_size in plans:
        dictionary, array = encode_column(column_rows)
        column = tmp_path / "col.bcc1"
        with open(column, "wb") as f:
            write_encoded(f, dictionary, encode_array(array, scheme, block_size))
        back = tmp_path / "back.csv"
        assert run(capsys, ["decompress", str(column), "--out", str(back)])[0] == 0
        want = io.StringIO()
        csv.writer(want, lineterminator="\n").writerows([cell] for cell in column_rows)
        assert back.read_bytes() == want.getvalue().encode("utf-8"), (scheme, block_size)


def test_decompress_decodes_once_through_decode_column(capsys, tmp_path, monkeypatch):
    """``bench/run.py --trace 1`` times decompress's dictionary step by
    patching ``cli.decode_column``, so decompress calls it once, with the
    decoded IDs."""
    column = tmp_path / "col.bcc1"
    run(capsys, ["compress", write_csv(tmp_path, CLUSTERED_VALUES), "--out", str(column)])
    arrays = []
    decode = colcodec.cli.decode_column

    def spied(dictionary, array):
        arrays.append(array)
        return decode(dictionary, array)

    monkeypatch.setattr(colcodec.cli, "decode_column", spied)
    assert run(capsys, ["decompress", str(column), "--out", str(tmp_path / "back.csv")])[0] == 0
    (array,) = arrays
    with open(column, "rb") as f:
        _, encoded = read_encoded(f)
    assert isinstance(array.ids, np.ndarray) and array.ids.dtype.kind in "iu"
    assert array.ids.tolist() == decode_array(encoded)
    assert array.id_width_bits == encoded.id_width_bits


def test_decompress_rejects_truncated_files(capsys, tmp_path):
    csv = write_csv(tmp_path, SORTED_VALUES)
    out_file = tmp_path / "col.bcc1"
    run(capsys, ["compress", csv, "--out", str(out_file)])
    data = out_file.read_bytes()
    out_file.write_bytes(data[: len(data) // 2])
    code, _, err = run(capsys, ["decompress", str(out_file), "--out", str(tmp_path / "b.csv")])
    assert code == 1
    assert "TruncatedPayloadError" in err


def test_verify_passes_on_a_healthy_column(capsys, tmp_path):
    short = ["m", "m", "k", "m", "m", "m", "z", "k"]
    # Runs of 24 rows over 1,025 rows: every candidate b up to 1,024 leaves a one-row tail.
    runs = [f"r{i // 24 % 9}" for i in range(1025)]
    for name, values in (("short.csv", short), ("runs.csv", runs)):
        code, out, err = run(capsys, ["verify", write_csv(tmp_path, values, name)])
        assert code == 0 and err == ""
        assert "verification passed" in out
        for check in ("round-trip raw", "size law rle", "scan equivalence sparse"):
            assert any(line.startswith("ok") and check in line for line in out.splitlines())
        assert "clustered blocks b=2" in out
        assert "cluster optimizer equals oracle argmax" in out
        assert "entropy optimizer matches oracle minimum" in out
        assert "indirect size b=2" in out
        assert "indirect optimizer equals oracle argmin" in out
        assert "FAIL" not in out


def test_verify_handles_single_row_columns(capsys, tmp_path):
    csv = write_csv(tmp_path, ["one"])
    code, out, _ = run(capsys, ["verify", csv])
    assert code == 0
    assert "verification passed" in out


def test_verify_is_reproducible_per_seed(capsys, tmp_path):
    csv = write_csv(tmp_path, ["m", "m", "k", "m", "z", "k", "k", "k"])
    _, first, _ = run(capsys, ["verify", csv, "--seed", "7"])
    _, second, _ = run(capsys, ["verify", csv, "--seed", "7"])
    assert first == second


def test_verify_detects_a_broken_decoder(capsys, tmp_path, monkeypatch):
    csv = write_csv(tmp_path, ["m", "m", "k", "m", "m", "m", "z", "k"])
    monkeypatch.setattr(colcodec.encodings, "decode_array", lambda encoded: [0])
    code, out, _ = run(capsys, ["verify", csv])
    assert code == 2
    assert "FAIL round-trip raw" in out
    assert "verification FAILED" in out


def test_verify_scans_the_column_it_read_back(capsys, tmp_path, monkeypatch):
    # a scan that goes wrong only on the unsigned arrays a file is read into
    csv = write_csv(tmp_path, ["m", "m", "k", "m", "m", "m", "z", "k"])
    codec = colcodec.encodings.CODECS[SchemeKind.SPARSE]

    def scan(p, lo, hi):
        return np.empty(0, np.int64) if p.residual.dtype.kind == "u" else codec.scan(p, lo, hi)

    monkeypatch.setitem(
        colcodec.encodings._CODEC_OF_PAYLOAD, codec.payload_type, dataclasses.replace(codec, scan=scan)
    )
    code, out, _ = run(capsys, ["verify", csv])
    assert code == 2
    assert "FAIL scan equivalence sparse" in out
    assert "ok   scan equivalence rle" in out


def test_analyze_runs_each_sweep_once(capsys, tmp_path, monkeypatch):
    csv = write_csv(tmp_path, CLUSTERED_VALUES)
    calls = {"cluster_sweep": 0, "entropy_sweep": 0, "indirect_size_sweep": 0, "indirect_sweeps": 0}
    for name in calls:
        sweep = getattr(colcodec.optimizer, name)

        def counted(*args, _sweep=sweep, _name=name, **kwargs):
            calls[_name] += 1
            return _sweep(*args, **kwargs)

        monkeypatch.setattr(colcodec.optimizer, name, counted)
    code, out, _ = run(capsys, ["analyze", csv, "--z", "0.8"])
    assert code == 0
    assert json.loads(out)["decision"]["scheme"] == "indirect"
    # both indirect traces come from one walk
    assert calls == {"cluster_sweep": 1, "entropy_sweep": 0, "indirect_size_sweep": 0, "indirect_sweeps": 1}


@pytest.mark.parametrize(
    "command, layers",
    [
        ("analyze", {"compute_stats", "decide_scheme", "cluster_sweep", "indirect_sweeps",
                     "encode_array"}),
        ("compress", {"compute_stats", "decide_scheme", "cluster_sweep", "indirect_size_sweep",
                      "encode_array"}),
        ("verify", {"compute_stats", "cluster_sweep", "indirect_sweeps", "encode_array"}),
    ],
)
def test_each_command_encodes_once_and_hands_every_layer_one_array(
    capsys, tmp_path, monkeypatch, command, layers
):
    csv = write_csv(tmp_path, CLUSTERED_VALUES)
    encodes = []
    encode = colcodec.cli.encode_column

    def counted(values):
        encodes.append(len(values))
        return encode(values)

    monkeypatch.setattr(colcodec.cli, "encode_column", counted)
    received = {}
    spies = [
        (colcodec.heuristics, "compute_stats", lambda args: args[0]),
        (colcodec.heuristics, "decide_scheme", lambda args: args[1]),
        (colcodec.encodings, "encode_array", lambda args: args[0].ids),
    ] + [
        (colcodec.optimizer, name, lambda args: args[0])
        for name in ("cluster_sweep", "entropy_sweep", "indirect_size_sweep", "indirect_sweeps")
    ]
    for module, name, ids_of_call in spies:

        def spied(*args, _layer=getattr(module, name), _name=name, _ids=ids_of_call, **kwargs):
            received.setdefault(_name, []).append(_ids(args))
            return _layer(*args, **kwargs)

        monkeypatch.setattr(module, name, spied)
    flags = [] if command == "verify" else ["--z", "0.8"]  # verify takes no thresholds
    out = ["--out", str(tmp_path / "out.bcc1")] if command == "compress" else []
    code, _, _ = run(capsys, [command, csv, *flags, *out])
    assert code == 0
    assert encodes == [len(CLUSTERED_VALUES)]
    assert set(received) == layers
    ids = received["compute_stats"][0]
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
    assert all(got is ids for calls in received.values() for got in calls)


def test_analyze_reads_the_indirect_size_from_the_sweep(capsys, tmp_path, monkeypatch):
    csv = write_csv(tmp_path, CLUSTERED_VALUES)
    encode = colcodec.encodings.encode_array
    encoded_schemes = []

    def spied(array, scheme, block_size=None):
        encoded_schemes.append(scheme)
        return encode(array, scheme, block_size)

    monkeypatch.setattr(colcodec.encodings, "encode_array", spied)
    code, out, _ = run(capsys, ["analyze", csv, "--z", "0.8"])
    assert code == 0
    assert colcodec.encodings.SchemeKind.INDIRECT not in encoded_schemes
    report = json.loads(out)
    assert report["indirect_size_trace"] == [
        {"b": 2, "bits": 932},
        {"b": 4, "bits": 469},
        {"b": 8, "bits": 218},
        {"b": 16, "bits": 222},
        {"b": 32, "bits": 161},
    ]
    assert report["sizes_bits"]["indirect"] == 161
    assert report["decision"]["block_size"] == 32
    # the paper's entropy objective is still reported beside the exact pick
    assert report["indirect_block_size"] == 2


@pytest.mark.parametrize("flags, cluster_b", [([], 64), (["--sqrt-bound"], 8)])
def test_verify_sweeps_once_under_its_own_bound(capsys, tmp_path, monkeypatch, flags, cluster_b):
    csv = write_csv(tmp_path, ["v7"] * 64)
    calls = {"cluster_sweep": 0, "entropy_sweep": 0, "indirect_size_sweep": 0, "indirect_sweeps": 0}
    for name in calls:
        sweep = getattr(colcodec.optimizer, name)

        def counted(*args, _sweep=sweep, _name=name, **kwargs):
            calls[_name] += 1
            return _sweep(*args, **kwargs)

        monkeypatch.setattr(colcodec.optimizer, name, counted)
    block_sizes = {}
    encode = colcodec.encodings.encode_array

    def spied(array, scheme, block_size=None):
        block_sizes.setdefault(scheme, block_size)  # the plan's, before the oracle checks
        return encode(array, scheme, block_size)

    monkeypatch.setattr(colcodec.encodings, "encode_array", spied)
    code, _, _ = run(capsys, ["verify", csv, *flags])
    assert code == 0
    # both indirect traces come from one walk
    assert calls == {"cluster_sweep": 1, "entropy_sweep": 0, "indirect_size_sweep": 0, "indirect_sweeps": 1}
    assert block_sizes[colcodec.encodings.SchemeKind.CLUSTER] == cluster_b
    # a constant 1-bit column never pays locally, so the fewest blocks win
    assert block_sizes[colcodec.encodings.SchemeKind.INDIRECT] == cluster_b


@pytest.mark.parametrize(
    "data, line",
    [
        (b"ok\n" + b"x" * 131_073 + b"\n", 2),  # over the csv module's field limit
        (b"ok\nfine\nbare\rreturn\n", 3),  # carriage return in an unquoted field
    ],
    ids=["field-limit", "bare-cr"],
)
def test_csv_parser_errors_fail_cleanly(capsys, tmp_path, data, line):
    csv = tmp_path / "bad.csv"
    csv.write_bytes(data)
    code, _, err = run(capsys, ["analyze", str(csv)])
    assert code == 1
    assert err.startswith("error: CsvParseError: ")
    assert f"line {line}:" in err


CLI_SNAPSHOTS = Path(__file__).with_name("data") / "cli_snapshots.json"
SNAPSHOT_COMMANDS = (["analyze"], ["verify", "--seed", "7"])


def snapshot_outputs(directory: Path) -> dict[str, list]:
    """Exit code and stdout of each snapshot command on each ``support.text_column``
    shape (seed 11, 3,000 rows), with the CSVs written to ``directory``. Each
    shape is also compressed, auto and raw, and decompressed again; those
    entries strip ``directory`` from stdout and add the sha256 of the files."""

    def run_main(argv: list[str]) -> list:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        return [code, stdout.getvalue().replace(f"{directory}{os.sep}", "")]

    def sha256(path: Path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    outputs = {}
    for shape in ("clustered", "local", "skewed"):
        csv_path = write_csv(directory, support.text_column(shape, 11, 3000), f"{shape}.csv")
        for command, *flags in SNAPSHOT_COMMANDS:
            outputs[f"{command} {shape}"] = run_main([command, csv_path, *flags])
        for scheme in ("auto", "none"):
            column, decoded = directory / f"{shape}.{scheme}.bcc1", directory / f"{shape}.{scheme}.csv"
            outputs[f"compress {scheme} {shape}"] = run_main(
                ["compress", csv_path, "--out", str(column), "--scheme", scheme]
            )
            outputs[f"decompress {scheme} {shape}"] = [
                *run_main(["decompress", str(column), "--out", str(decoded)]),
                sha256(column),
                sha256(decoded),
            ]
    return outputs


def record_cli_snapshots() -> None:
    """Write the fixture: ``python tests/test_cli.py`` with the package to record on the path."""
    with tempfile.TemporaryDirectory() as directory:
        outputs = snapshot_outputs(Path(directory))
    CLI_SNAPSHOTS.parent.mkdir(exist_ok=True)
    CLI_SNAPSHOTS.write_text(json.dumps(outputs, indent=1) + "\n")


def test_cli_stdout_matches_the_recorded_snapshots(tmp_path):
    assert snapshot_outputs(tmp_path) == json.loads(CLI_SNAPSHOTS.read_text())


if __name__ == "__main__":
    record_cli_snapshots()
