"""End-to-end command line behavior, in-process via main()."""

from __future__ import annotations

import json

import pytest

import colcodec.encodings
import colcodec.optimizer
from colcodec import read_csv_column
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
        "cluster_block_size",
        "indirect_block_size",
        "cluster_trace",
        "entropy_trace",
    ]
    assert report["column"] == {"rows": 6, "distinct_values": 3, "id_width_bits": 2}
    assert report["params"] == {"x": 10.0, "y": 2.0, "z": 0.5, "sqrt_bound": False}
    assert report["stats"]["is_sorted"] is True
    assert report["decision"] == {"scheme": "rle", "block_size": None, "cluster_coverage": None}
    assert report["sizes_bits"]["raw"] == 12
    assert report["sizes_bits"]["cluster"] == 11
    assert report["sizes_bits"]["affine"] is None
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
    code, _, err = run(
        capsys,
        ["compress", csv, "--out", str(out_file), "--scheme", "cluster", "--block-size", "3"],
    )
    assert code == 1
    assert "InvalidBlockSizeError" in err


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
    csv = write_csv(tmp_path, ["m", "m", "k", "m", "m", "m", "z", "k"])
    code, out, err = run(capsys, ["verify", csv])
    assert code == 0 and err == ""
    assert "verification passed" in out
    for name in ("round-trip raw", "size law rle", "scan equivalence sparse"):
        assert any(line.startswith("ok") and name in line for line in out.splitlines())
    assert "clustered blocks b=2" in out
    assert "cluster optimizer equals oracle argmax" in out
    assert "entropy optimizer matches oracle minimum" in out
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


def test_analyze_runs_each_sweep_once(capsys, tmp_path, monkeypatch):
    ids = [1, 2] + [3] * 8 + [4] * 8 + [5, 4, 3, 2] + [6] * 8 + [2, 1]
    csv = write_csv(tmp_path, [f"v{i}" for i in ids])
    calls = {"cluster_sweep": 0, "entropy_sweep": 0}
    for name in calls:
        sweep = getattr(colcodec.optimizer, name)

        def counted(*args, _sweep=sweep, _name=name, **kwargs):
            calls[_name] += 1
            return _sweep(*args, **kwargs)

        monkeypatch.setattr(colcodec.optimizer, name, counted)
    code, out, _ = run(capsys, ["analyze", csv, "--z", "0.8"])
    assert code == 0
    assert json.loads(out)["decision"]["scheme"] == "indirect"
    assert calls == {"cluster_sweep": 1, "entropy_sweep": 1}


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
