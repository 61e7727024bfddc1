"""Command line interface.

Four one-shot subcommands over local files:

    analyze    stats, heuristic decision, per-scheme sizes, optimizer traces
    compress   CSV column -> .bcc1 column file
    decompress .bcc1 column file -> one-column CSV
    verify     self-check a column: round-trips, size law, optimizer oracles

Exit codes: 0 success, 1 operational error (bad input, I/O, usage), 2
verification mismatch. Verification is the only randomized behavior and is
driven entirely by --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from typing import Sequence

from . import encodings, fileio, heuristics, optimizer
from .dictionary import IdInterval, ValueIdArray, decode_column, encode_column
from .encodings import CODECS, SchemeKind
from .errors import ColcodecError
from .heuristics import HeuristicParams

__all__ = ["main", "build_parser"]


def _scheme_name(kind: SchemeKind) -> str:
    """A scheme as the CLI spells it: raw storage is "none"."""
    return "none" if kind is SchemeKind.RAW else kind.value


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for verify mismatches."""

    def error(self, message: str):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _block_size_arg(text: str) -> int | None:
    if text == "auto":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="colcodec",
        description="Dictionary-encode and compress text columns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    csv_in = argparse.ArgumentParser(add_help=False)
    csv_in.add_argument("csv", help="input CSV file")
    csv_in.add_argument("--column", type=int, default=0, help="column index (default 0)")
    csv_in.add_argument("--header", action="store_true", help="skip the first row")

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--x", type=float, default=10.0, help="sparsity threshold")
    params.add_argument("--y", type=float, default=2.0, help="average-repetition threshold")
    params.add_argument("--z", type=float, default=0.5, help="clustered-coverage threshold")
    params.add_argument(
        "--sqrt-bound",
        action="store_true",
        help="limit optimizer candidates to block sizes b with b*b <= rows",
    )

    p = sub.add_parser(
        "analyze", parents=[csv_in, params], help="report stats, decision and sizes"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compress", parents=[csv_in, params], help="encode a column file")
    p.add_argument("--out", required=True, help="output column file")
    p.add_argument(
        "--scheme",
        choices=["auto", *map(_scheme_name, SchemeKind)],
        default="auto",
    )
    p.add_argument(
        "--block-size",
        type=_block_size_arg,
        default=None,
        metavar="auto|N",
        help="block size for cluster/indirect (default: optimizer)",
    )
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decode a column file to one-column CSV")
    p.add_argument("file", help="input column file")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser(
        "verify", parents=[csv_in, params], help="self-check every scheme on a column"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random scan intervals")
    p.set_defaults(func=cmd_verify)

    return parser


def _load_column(args) -> list[str]:
    with open(args.csv, "rb") as f:
        return fileio.read_csv_column(f, args.column, args.header)


def _params(args) -> HeuristicParams:
    return HeuristicParams(x=args.x, y=args.y, z=args.z)


def _optimal_block_size(kind: SchemeKind, ids: Sequence[int], sqrt_bound: bool = False) -> int:
    """The optimizer's block size for cluster or indirect; 2 for a single row."""
    if len(ids) < 2:
        return 2
    if kind is SchemeKind.CLUSTER:
        return optimizer.optimal_cluster_block_size(ids, sqrt_bound=sqrt_bound).b
    return optimizer.optimal_indirect_block_size(ids, sqrt_bound=sqrt_bound).b


def _analyze_report(values: list[str], params: HeuristicParams, sqrt_bound: bool) -> dict:
    dictionary, array = encode_column(values)
    stats = heuristics.compute_stats(array.ids)

    if stats.n >= 2:
        cluster_trace = optimizer.cluster_sweep(array.ids, sqrt_bound=sqrt_bound)
        entropy_trace = optimizer.entropy_sweep(array.ids, sqrt_bound=sqrt_bound)
        best_cluster = optimizer.best_cluster(cluster_trace)
        best_entropy = optimizer.best_entropy(entropy_trace)
        sweeps = (cluster_trace, entropy_trace)
    else:
        cluster_trace = []
        entropy_trace = []
        best_cluster = best_entropy = sweeps = None
    decision = heuristics.decide_scheme(
        stats, array.ids, params, sqrt_bound=sqrt_bound, sweeps=sweeps
    )

    def size_of(kind: SchemeKind, block_size: int | None = None) -> int:
        return encodings.encoded_size_bits(encodings.encode_array(array, kind, block_size))

    sizes = {
        "raw": size_of(SchemeKind.RAW),
        "prefix": size_of(SchemeKind.PREFIX),
        "rle": size_of(SchemeKind.RLE),
        "sparse": size_of(SchemeKind.SPARSE),
        "cluster": size_of(SchemeKind.CLUSTER, best_cluster.b) if best_cluster else None,
        "indirect": size_of(SchemeKind.INDIRECT, best_entropy.b) if best_entropy else None,
        "affine": size_of(SchemeKind.AFFINE) if stats.is_sequential else None,
    }

    return {
        "column": {
            "rows": stats.n,
            "distinct_values": stats.distinct,
            "id_width_bits": array.id_width_bits,
        },
        "params": {"x": params.x, "y": params.y, "z": params.z, "sqrt_bound": sqrt_bound},
        "stats": {
            "n": stats.n,
            "distinct": stats.distinct,
            "is_sorted": stats.is_sorted,
            "is_sequential": stats.is_sequential,
            "leading_run": stats.leading_run,
            "max_freq": stats.max_freq,
            "avg_freq": stats.avg_repetition,
            "sparsity": stats.sparsity,
            "avg_repetition": stats.avg_repetition,
        },
        "decision": {
            "scheme": _scheme_name(decision.scheme),
            "block_size": decision.block_size,
            "cluster_coverage": decision.cluster_coverage,
        },
        "sizes_bits": sizes,
        "cluster_block_size": best_cluster.b if best_cluster else None,
        "indirect_block_size": best_entropy.b if best_entropy else None,
        "cluster_trace": [{"b": o.b, "s": o.s, "f": o.f} for o in cluster_trace],
        "entropy_trace": [{"b": o.b, "mean_entropy": o.mean_entropy} for o in entropy_trace],
    }


def cmd_analyze(args) -> int:
    report = _analyze_report(_load_column(args), _params(args), args.sqrt_bound)
    print(json.dumps(report, indent=2))
    return 0


def cmd_compress(args) -> int:
    values = _load_column(args)
    params = _params(args)
    dictionary, array = encode_column(values)
    n = len(array.ids)

    if args.scheme == "auto":
        stats = heuristics.compute_stats(array.ids)
        decision = heuristics.decide_scheme(stats, array.ids, params, sqrt_bound=args.sqrt_bound)
        kind = decision.scheme
        block_size = decision.block_size
        print(f"params: x={params.x} y={params.y} z={params.z}")
    else:
        kind = next(k for k in SchemeKind if _scheme_name(k) == args.scheme)
        block_size = None

    if CODECS[kind].blocked:
        if args.block_size is not None:
            encodings.check_block_size(args.block_size)
            block_size = args.block_size
        elif block_size is None:
            block_size = _optimal_block_size(kind, array.ids, args.sqrt_bound)

    encoded = encodings.encode_array(array, kind, block_size)
    with open(args.out, "wb") as f:
        written = fileio.write_encoded(f, dictionary, encoded)

    raw_bits = n * array.id_width_bits
    encoded_bits = encodings.encoded_size_bits(encoded)
    print(f"scheme={kind.value} block_size={block_size if block_size else '-'}")
    print(
        f"original_bits={raw_bits} encoded_bits={encoded_bits} "
        f"ratio={raw_bits / encoded_bits:.3f}"
    )
    print(f"wrote {args.out} ({written} bytes)")
    return 0


def cmd_decompress(args) -> int:
    with open(args.file, "rb") as f:
        dictionary, encoded = fileio.read_encoded(f)
    ids = encodings.decode_array(encoded)
    values = decode_column(dictionary, ValueIdArray(ids=ids, id_width_bits=encoded.id_width_bits))
    # Cells are re-quoted minimally, so byte-level quoting may differ from the
    # original file even though every cell value is identical.
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerows([v] for v in values)
    print(f"wrote {args.out} ({len(values)} rows)")
    return 0


def _random_interval(rng: random.Random, max_id: int) -> IdInterval:
    def bound() -> int | None:
        return None if rng.random() < 0.2 else rng.randint(-1, max_id + 1)

    return IdInterval(
        lo=bound(),
        hi=bound(),
        lo_inclusive=rng.random() < 0.5,
        hi_inclusive=rng.random() < 0.5,
    )


def _verification_checks(
    values: list[str], params: HeuristicParams, seed: int, sqrt_bound: bool
) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    dictionary, array = encode_column(values)
    ids = array.ids
    n = len(ids)
    stats = heuristics.compute_stats(ids)
    checks: list[tuple[str, bool]] = []

    plans = [
        (kind, _optimal_block_size(kind, ids) if CODECS[kind].blocked else None)
        for kind in SchemeKind
        if kind is not SchemeKind.AFFINE or stats.is_sequential
    ]

    dict_section = sum(4 + len(v.encode("utf-8")) for v in dictionary.values)
    for kind, block_size in plans:
        encoded = encodings.encode_array(array, kind, block_size)
        checks.append(
            (f"round-trip {kind.value}", encodings.decode_array(encoded) == list(ids))
        )

        buf = io.BytesIO()
        written = fileio.write_encoded(buf, dictionary, encoded)
        data = buf.getvalue()
        read_dict, read_encoded = fileio.read_encoded(io.BytesIO(data))
        again = io.BytesIO()
        fileio.write_encoded(again, read_dict, read_encoded)
        checks.append(
            (
                f"file round-trip {kind.value}",
                read_dict == dictionary
                and read_encoded == encoded
                and again.getvalue() == data,
            )
        )

        size_bits = encodings.encoded_size_bits(encoded)
        expected = fileio.HEADER_BYTES + dict_section + -(-size_bits // 8)
        checks.append((f"size law {kind.value}", written == len(data) == expected))

        scans_ok = True
        for _ in range(8):
            interval = _random_interval(rng, len(dictionary.values) - 1)
            got = encodings.scan_id_range(encoded, interval)
            want = [i for i, v in enumerate(ids) if interval.contains(v)]
            scans_ok = scans_ok and got == want
        checks.append((f"scan equivalence {kind.value}", scans_ok))

    if n >= 2:
        sweep = optimizer.cluster_sweep(ids, sqrt_bound=sqrt_bound)
        oracle_f: dict[int, int] = {}
        for objective in sweep:
            oracle_s = optimizer.clustered_block_count_oracle(ids, objective.b)
            checks.append((f"clustered blocks b={objective.b}", objective.s == oracle_s))
            oracle_f[objective.b] = oracle_s * (objective.b - 1)
        best = optimizer.best_cluster(sweep)
        oracle_b = max(oracle_f, key=oracle_f.__getitem__)  # equal F: the first, smallest b
        checks.append(
            (
                "cluster optimizer equals oracle argmax",
                (best.b, best.f) == (oracle_b, oracle_f[oracle_b]),
            )
        )

        entropy = optimizer.entropy_sweep(ids, sqrt_bound=sqrt_bound)
        oracle_h = {o.b: optimizer.mean_block_entropy_oracle(ids, o.b) for o in entropy}
        for objective in entropy:
            checks.append(
                (
                    f"mean block entropy b={objective.b}",
                    abs(objective.mean_entropy - oracle_h[objective.b]) <= 1e-9,
                )
            )
        best_h = optimizer.best_entropy(entropy)
        oracle_min = min(oracle_h.values())
        checks.append(
            ("entropy optimizer matches oracle minimum", abs(best_h.mean_entropy - oracle_min) <= 1e-9)
        )

    return checks


def cmd_verify(args) -> int:
    checks = _verification_checks(_load_column(args), _params(args), args.seed, args.sqrt_bound)
    failures = 0
    for name, passed in checks:
        print(f"{'ok' if passed else 'FAIL':4} {name}")
        if not passed:
            failures += 1
    if failures:
        print(f"verification FAILED: {failures} of {len(checks)} checks")
        return 2
    print(f"verification passed: {len(checks)} checks")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ColcodecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
