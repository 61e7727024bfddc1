"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 bench/spread.py --label a --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/spread.py --label b --seeds 1 2 3 4 5 6 7 8 9 10
    python3 bench/spread.py --compare a b

Runs go one at a time, seed by seed, each seed running every workload of
``BENCHMARK.json`` with tracing off, so a slow phase of the machine falls on
all workloads alike. Before each run, a fixed pure-Python loop is timed on
its own (``reference_loop_s``), which shows how fast the machine was during
that run. The wall-clock seconds behind each run's metrics, which the run
prints on standard error, are kept as ``wall_<name>``. Results are saved to
``bench/out/spread-<label>.json``. The table gives, per workload and
end-to-end metric, the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``) and their spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``. ``--compare`` prints how far the second set's
median moved from the first's, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def reference_loop_s() -> float:
    """Median of five timings of a fixed pure-Python loop of about 0.1 s."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for j in range(2_000_000):
            total += j
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_set(label: str, seeds: list[int]) -> list[dict]:
    doc = spec()
    results = []
    for seed in seeds:
        for workload in (w["name"] for w in doc["workloads"]):
            reference = reference_loop_s()
            argv = [
                sys.executable,
                *doc["command"][1:],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(doc["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed)
            result["metrics"]["reference_loop_s"] = {"value": reference, "unit": "s"}
            wall = re.search(r"wall-clock seconds (\{.*\})", done.stderr)
            for name, seconds in json.loads(wall.group(1)).items() if wall else ():
                result["metrics"][f"wall_{name}"] = {"value": seconds, "unit": "s"}
            results.append(result)
            print(
                f"{workload} seed={seed} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                file=sys.stderr,
            )
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread-{label}.json").write_text(json.dumps(results, indent=1))
    return results


def load(label: str) -> list[dict]:
    return json.loads((OUT / f"spread-{label}.json").read_text())


def by_metric(results: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def table(results: list[dict]) -> str:
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    lines = [
        "| workload | metric | runs | median | q1 | q3 | spread | bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for (workload, name), vals in by_metric(results).items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        lines.append(
            f"| {workload} | {name} | {len(vals)} | {median:.4g} | {q1:.4g} | {q3:.4g} "
            f"| {(q3 - q1) / median:.3f} | {bounds.get(name, '-')} |"
        )
    failed = {(r["failed"], r["attempted"]) for r in results}
    correct = all(r["correct"] for r in results)
    lines.append(f"\nall correct: {correct}; (failed, attempted) seen: {sorted(failed)}")
    return "\n".join(lines)


def compare(first: list[dict], second: list[dict]) -> str:
    a, b = by_metric(first), by_metric(second)
    lines = ["| workload | metric | median 1 | median 2 | moved |", "|---|---|---|---|---|"]
    for key in a:
        m1, m2 = statistics.median(a[key]), statistics.median(b[key])
        lines.append(f"| {key[0]} | {key[1]} | {m1:.4g} | {m2:.4g} | {(m2 - m1) / m1:+.3f} |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args()
    if args.compare:
        print(compare(load(args.compare[0]), load(args.compare[1])))
        return 0
    print(table(run_set(args.label, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
