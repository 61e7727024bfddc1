"""colcodec benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload zipf_sparse --seed 1 --seconds 36 --trace 0

The run generates the workload's column from the seed and writes it as a CSV
(set-up), then repeats whole rounds of ``analyze``, ``compress``,
``decompress`` and a batch of value predicates scanned on the compressed
column, for about ``--seconds`` seconds, in this one process with tracing off;
each round also repeats the set-up. Every output of every round is checked
against ``oracles``. With ``--trace 0`` the last line of standard output is a
JSON object holding the end-to-end metrics: each operation's mean wall time
over the rounds in units of a reference loop timed between the operations,
the median set-up time, peak RSS of each command run alone in a fresh
process, and stored bytes per input byte (see ``end_to_end``).
With ``--trace 1`` the rounds instead run each CLI command with a span
around every layer call, then call every layer function directly under a
span, forcing each scheme in turn; the JSON holds per-layer metrics and the
spans go to ``bench/out/trace-<workload>-<seed>.json``.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
OUT = BENCH_DIR / "out"

MIN_ROUNDS = 5  # end-to-end timings are means over at least this many rounds
REFERENCE_ITEMS = 12_000  # strings the reference loop builds and sorts
REFERENCE_S = 0.007  # about the reference loop's fastest wall time on the README's machine
WARMUP_ROWS = 4096  # rows of the untimed warm-up round
CHILD_TIMEOUT_S = 120
SCHEMES = ("raw", "prefix", "rle", "sparse", "cluster", "indirect")
COMMANDS = ("analyze", "compress", "decompress")

END_TO_END = {
    "setup_s": "s",
    "analyze_ref": "ref",
    "compress_ref": "ref",
    "decompress_ref": "ref",
    "scan_ref": "ref",
    "analyze_peak_rss_mb": "MB",
    "compress_peak_rss_mb": "MB",
    "decompress_peak_rss_mb": "MB",
    "stored_bytes_per_input_byte": "B/B",
}


def per_layer_units() -> dict[str, str]:
    units = {"csv_parse_s": "s"}
    units.update({f"write_{s}_s": "s" for s in SCHEMES})
    units.update({f"read_{s}_s": "s" for s in SCHEMES})
    units.update(
        dict_encode_s="s", dict_decode_s="s", predicate_map_s="s", distinct="count", runs="count"
    )
    units.update(stats_s="s", decide_scheme_s="s")
    units.update(
        cluster_sweep_s="s",
        entropy_sweep_s="s",
        cluster_sweep_visits="count",
        entropy_sweep_visits="count",
    )
    for stage in ("encode", "decode", "scan"):
        units.update({f"{stage}_{s}_s": "s" for s in SCHEMES})
    units.update({f"encoded_bits_{s}": "bit" for s in SCHEMES})
    units["rows_matched"] = "count"
    for command in COMMANDS:
        units[f"cli_{command}_s"] = "s"
        units[f"cli_{command}_self_s"] = "s"
    return units


def import_colcodec():
    """The package's modules from this checkout's ``src``, or None when absent."""
    if not (SRC / "colcodec" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import colcodec
    from colcodec import cli, dictionary, encodings, fileio, heuristics, optimizer

    if Path(colcodec.__file__).resolve().parent != (SRC / "colcodec").resolve():
        return None
    return types.SimpleNamespace(
        cli=cli,
        dictionary=dictionary,
        encodings=encodings,
        fileio=fileio,
        heuristics=heuristics,
        optimizer=optimizer,
    )


class Tally:
    """Operations attempted and failed. A failed check also clears ``correct``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def call(self, name: str, func, *args, **kwargs):
        """Run one operation; return (result, wall seconds), result None on error."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.problems.append(f"check failed: {name}")


@dataclass
class Case:
    """One input column, its files, and everything the oracles expect of it."""

    cells: list[str]
    predicates: list[workloads.Predicate]
    csv_path: Path
    bcc_path: Path
    out_path: Path
    codes: list[int]
    expected_rows: list[list[int]]
    cluster_b: int
    column: tuple | None = None  # (dictionary, encoded) read from bcc_path


def make_case(cells, predicates, directory: Path, tag: str) -> Case:
    cells_np = np.asarray(cells)
    codes = oracles.value_codes(cells)
    return Case(
        cells=cells,
        predicates=predicates,
        csv_path=directory / f"{tag}.csv",
        bcc_path=directory / f"{tag}.bcc1",
        out_path=directory / f"{tag}.out.csv",
        codes=codes.tolist(),
        expected_rows=[oracles.filter_rows(cells_np, p.op, p.value, p.high) for p in predicates],
        cluster_b=oracles.cluster_block_size(codes),
    )


def reference_s() -> float:
    """Wall time of a fixed piece of Python work: how fast the machine runs now.

    It builds and sorts strings, then sums squares, so that it allocates
    objects and moves memory as well as running bytecode, as colcodec does.
    """
    start = time.perf_counter()
    sorted([str(j * 7919 % 100_003) for j in range(REFERENCE_ITEMS)])
    total = 0
    for j in range(5 * REFERENCE_ITEMS):
        total += j * j
    return time.perf_counter() - start


def set_up(tally: Tally, workload: str, seed: int, csv_path: Path):
    """Generate the column, write its CSV and draw the predicate batch.

    Returns ((cells, predicates), wall seconds); None in place of the inputs
    when set-up failed.
    """

    def once():
        cells = workloads.make_column(workload, seed)
        workloads.write_csv(csv_path, cells)
        return cells, workloads.make_predicates(cells)

    return tally.call("setup", once)


class Runner:
    def __init__(self, cc: types.SimpleNamespace, tally: Tally) -> None:
        self.cc = cc  # the colcodec modules
        self.tally = tally

    # -- the four user-facing operations, each checked -----------------------

    def cli_stdout(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cc.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"colcodec {argv[0]} exited with {code}")
        return out.getvalue()

    def argv(self, case: Case, command: str) -> list[str]:
        if command == "analyze":
            return ["analyze", str(case.csv_path)]
        if command == "compress":
            return ["compress", str(case.csv_path), "--out", str(case.bcc_path)]
        return ["decompress", str(case.bcc_path), "--out", str(case.out_path)]

    def command(self, case: Case, command: str) -> float:
        out, seconds = self.tally.call(command, self.cli_stdout, self.argv(case, command))
        self.check(case, command, out)
        return seconds

    def scan(self, case: Case) -> float:
        dictionary, encoded = case.column
        to_range = self.cc.dictionary.predicate_to_id_range
        scan_id_range = self.cc.encodings.scan_id_range
        results = []
        start = time.perf_counter()
        for p in case.predicates:
            results.append(
                self.tally.call("scan", lambda: scan_id_range(encoded, to_range(dictionary, p.op, p.value, p.high)))[0]
            )
        seconds = time.perf_counter() - start
        for p, got, want in zip(case.predicates, results, case.expected_rows):
            self.tally.check(f"scan {p.op} {p.value!r} {p.high!r} equals string filter", got == want)
        return seconds

    # -- checks against the oracles -----------------------------------------

    def check(self, case: Case, command: str, out: str | None) -> None:
        getattr(self, f"check_{command}")(case, out)

    def check_analyze(self, case: Case, out: str | None) -> None:
        report = json.loads(out) if out is not None else {}
        column = report.get("column", {})
        self.tally.check("analyze rows", column.get("rows") == len(case.cells))
        self.tally.check("analyze distinct values", column.get("distinct_values") == len(set(case.cells)))
        self.tally.check("analyze cluster block size", report.get("cluster_block_size") == case.cluster_b)

    def check_compress(self, case: Case, out: str | None) -> None:
        bits = re.search(r"encoded_bits=(\d+)", out or "")
        size = case.bcc_path.stat().st_size if case.bcc_path.exists() else -1
        self.tally.check(
            "compressed file size law",
            bits is not None and size == oracles.file_size(case.cells, int(bits.group(1))),
        )

    def check_decompress(self, case: Case, out: str | None) -> None:
        same = out is not None and oracles.read_csv_cells(case.out_path) == case.cells
        self.tally.check("decompressed cells equal the input", same)

    def read_column(self, case: Case) -> None:
        with open(case.bcc_path, "rb") as f:
            case.column, _ = self.tally.call("read compressed column", self.cc.fileio.read_encoded, f)
        if case.column is None:
            raise RuntimeError("cannot read the compressed column: " + "; ".join(self.tally.problems))

    def round(self, case: Case, probes: list[float] | None = None) -> dict[str, float]:
        """One round; with ``probes``, a reference-loop probe precedes each operation."""
        probe = (lambda: probes.append(reference_s())) if probes is not None else (lambda: None)
        times = {}
        for command in COMMANDS:
            probe()
            times[f"{command}_s"] = self.command(case, command)
        probe()
        times["scan_s"] = self.scan(case)
        return times

    # -- peak RSS, one fresh process per command ------------------------------

    def peak_rss_mb(self, case: Case, command: str) -> float:
        """Run the command alone in a fresh process, check it, return its peak RSS."""
        argv = self.argv(case, command)

        def child():
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "rss_child.py"), str(SRC), *argv],
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
                check=True,
            )
            head, _, last = done.stdout.rstrip("\n").rpartition("\n")
            status = json.loads(last)
            if status["exit"] != 0:
                raise RuntimeError(f"colcodec {argv[0]} exited with {status['exit']}")
            return status["peak_kib"] / 1024, head

        result, _ = self.tally.call(f"{command} in a fresh process", child)
        mb, out = result if result is not None else (0.0, None)
        self.check(case, command, out)
        return mb


def end_to_end(runner: Runner, case: Case, warmup: Case, setup, seconds: float) -> dict:
    """Time whole rounds for about ``seconds``; ``setup`` repeats the set-up.

    The host slows this VM by up to 2x, in phases from well under a second
    to over a minute, and how much of a run is slow differs from run to run
    by up to a third. A fixed reference loop (``reference_s``), timed just
    before every set-up and operation, slows alike. So each operation is
    given as its mean wall time over the rounds divided by the reference
    loop's mean wall time in the same run (unit ``ref``). setup_s is the
    median wall time of the set-ups that start each round, divided the same
    way and converted to seconds at REFERENCE_S per loop. Nothing in colcodec
    runs in the reference loop.
    """
    metrics = {}
    for command in COMMANDS:
        metrics[f"{command}_peak_rss_mb"] = runner.peak_rss_mb(case, command)
    runner.read_column(case)
    metrics["stored_bytes_per_input_byte"] = case.bcc_path.stat().st_size / case.csv_path.stat().st_size

    workloads.write_csv(warmup.csv_path, warmup.cells)
    runner.command(warmup, "compress")
    runner.read_column(warmup)
    runner.round(warmup)

    rounds: list[dict[str, float]] = []
    setup_times: list[float] = []
    probes: list[float] = []
    durations: list[float] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + max(durations) <= seconds:
        began = time.perf_counter()
        probes.append(reference_s())
        setup_times.append(setup())
        rounds.append(runner.round(case, probes))
        durations.append(time.perf_counter() - began)
    wall = {"setup_s": statistics.median(setup_times)}
    for name in rounds[0]:
        wall[name] = statistics.fmean(r[name] for r in rounds)
    reference = statistics.fmean(probes)
    metrics["setup_s"] = wall["setup_s"] / reference * REFERENCE_S
    for name in rounds[0]:
        metrics[name.removesuffix("_s") + "_ref"] = wall[name] / reference
    print(
        f"rounds={len(rounds)} reference_loop_s: fastest={min(probes):.6f} "
        f"mean={reference:.6f}; wall-clock seconds " + json.dumps(wall),
        file=sys.stderr,
    )
    return metrics


def traced(runner: Runner, case: Case, seconds: float, trace_path: Path) -> dict:
    tracer = Tracer()
    tally = runner.tally
    cc = runner.cc
    cli, encodings, fileio, heuristics, optimizer = (
        cc.cli, cc.encodings, cc.fileio, cc.heuristics, cc.optimizer
    )
    kinds = {s: encodings.SchemeKind(s) for s in SCHEMES}
    ids = case.codes
    blocks = {
        "cluster": optimizer.optimal_cluster_block_size(ids).b,
        "indirect": optimizer.optimal_indirect_block_size(ids).b,
    }
    layer_calls = [
        (fileio, "read_csv_column"),
        (cli, "encode_column"),
        (heuristics, "compute_stats"),
        (heuristics, "decide_scheme"),
        (optimizer, "cluster_sweep"),
        (optimizer, "entropy_sweep"),
        (encodings, "encode_array"),
        (encodings, "encoded_size_bits"),
        (fileio, "write_encoded"),
        (fileio, "read_encoded"),
        (encodings, "decode_array"),
        (cli, "decode_column"),
    ]
    targets = [
        (module, attr, f"in_cli.{getattr(module, attr).__module__.rsplit('.', 1)[-1]}.{attr}")
        for module, attr in layer_calls
    ]
    counts: dict[str, int] = {}

    def layer(name: str, func, *args, **kwargs):
        with tracer.span(name):
            result, _ = tally.call(name, func, *args, **kwargs)
        return result

    def one_round() -> None:
        with tracer.patched(targets):
            for command in COMMANDS:
                with tracer.span(f"cli.{command}"):
                    out, _ = tally.call(command, runner.cli_stdout, runner.argv(case, command))
                runner.check(case, command, out)

        with open(case.csv_path, "rb") as f:
            values = layer("fileio.csv_parse", fileio.read_csv_column, f, 0, False)
        tally.check("parsed cells equal the input", values == case.cells)
        dictionary, array = layer("dictionary.dict_encode", cc.dictionary.encode_column, case.cells)
        tally.check("value IDs equal the cells' ranks", array.ids == ids)
        stats = layer("heuristics.stats", heuristics.compute_stats, array.ids)
        layer("heuristics.decide_scheme", heuristics.decide_scheme, stats, array.ids)
        cluster_visits = optimizer.VisitCounter()
        layer("optimizer.cluster_sweep", optimizer.cluster_sweep, array.ids, counter=cluster_visits)
        entropy_visits = optimizer.VisitCounter()
        layer("optimizer.entropy_sweep", optimizer.entropy_sweep, array.ids, counter=entropy_visits)
        counts.update(
            distinct=len(dictionary),
            runs=len(cc.dictionary.to_runs(array)),
            cluster_sweep_visits=cluster_visits.visits,
            entropy_sweep_visits=entropy_visits.visits,
        )
        intervals = layer(
            "dictionary.predicate_map",
            lambda: [
                cc.dictionary.predicate_to_id_range(dictionary, p.op, p.value, p.high)
                for p in case.predicates
            ],
        )
        values = layer("dictionary.dict_decode", cc.dictionary.decode_column, dictionary, array)
        tally.check("decoded cells equal the input", values == case.cells)

        for s in SCHEMES:
            encoded = layer(f"encodings.encode_{s}", encodings.encode_array, array, kinds[s], blocks.get(s))
            bits = encodings.encoded_size_bits(encoded)
            counts[f"encoded_bits_{s}"] = bits
            path = case.bcc_path.with_suffix(f".{s}.bcc1")
            with open(path, "wb") as f:
                layer(f"fileio.write_{s}", fileio.write_encoded, f, dictionary, encoded)
            tally.check(f"{s} file size law", path.stat().st_size == oracles.file_size(case.cells, bits))
            with open(path, "rb") as f:
                _, read_back = layer(f"fileio.read_{s}", fileio.read_encoded, f)
            decoded = layer(f"encodings.decode_{s}", encodings.decode_array, read_back)
            tally.check(f"{s} decodes to the input IDs", decoded == ids)
            rows = layer(
                f"encodings.scan_{s}",
                lambda: [encodings.scan_id_range(read_back, i) for i in intervals],
            )
            tally.check(f"{s} scans equal the string filters", rows == case.expected_rows)
            counts["rows_matched"] = sum(len(r) for r in rows)

    rounds = 0
    durations: list[float] = []
    start = time.perf_counter()
    while rounds < 1 or time.perf_counter() - start + max(durations) <= seconds:
        began = time.perf_counter()
        with tracer.span("round"):
            one_round()
        durations.append(time.perf_counter() - began)
        rounds += 1
    print(f"rounds={rounds}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    summary = tracer.summary()
    metrics: dict[str, float] = dict(counts)
    for name, row in summary.items():
        layer_name, _, stem = name.partition(".")
        if layer_name == "cli":
            metrics[f"cli_{stem}_s"] = row["wall_s"]
            metrics[f"cli_{stem}_self_s"] = row["self_s"]
        elif layer_name in ("fileio", "dictionary", "heuristics", "optimizer", "encodings"):
            metrics[f"{stem}_s"] = row["wall_s"]
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    modules = import_colcodec()
    if modules is None:
        print(f"error: no colcodec package under {SRC}", file=sys.stderr)
        return 2

    tally = Tally()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs, _ = set_up(tally, args.workload, args.seed, work / "input.csv")
        if inputs is None:
            raise RuntimeError("set-up failed: " + "; ".join(tally.problems))
        cells, predicates = inputs
        case = make_case(cells, predicates, work, "input")
        runner = Runner(modules, tally)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics = traced(runner, case, args.seconds, trace_path)
            units = per_layer_units()
        else:

            def setup() -> float:
                made, seconds = set_up(tally, args.workload, args.seed, work / "setup.csv")
                tally.check("set-up is deterministic", made == inputs)
                return seconds

            warmup = make_case(cells[:WARMUP_ROWS], predicates, work, "warmup")
            metrics = end_to_end(runner, case, warmup, setup, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(problem, file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
