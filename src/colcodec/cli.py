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
import functools
import io
import json
import random
import sys
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from . import encodings, fileio, heuristics, optimizer
from .dictionary import Dictionary, IdInterval, ValueIdArray, decode_column, encode_column
from .encodings import CODECS, SchemeKind
from .errors import ColcodecError
from .heuristics import HeuristicParams

__all__ = ["main", "build_parser"]

# Rows joined into one string per write by ``decompress``.
_CSV_ROWS_PER_WRITE = 1 << 13


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

    bound = argparse.ArgumentParser(add_help=False)
    bound.add_argument(
        "--sqrt-bound",
        action="store_true",
        help="limit optimizer candidates to block sizes b with b*b <= rows",
    )

    thresholds = argparse.ArgumentParser(add_help=False)
    defaults = HeuristicParams()
    thresholds.add_argument("--x", type=float, default=defaults.x, help="sparsity threshold")
    thresholds.add_argument(
        "--y", type=float, default=defaults.y, help="average-repetition threshold"
    )
    thresholds.add_argument(
        "--z", type=float, default=defaults.z, help="clustered-coverage threshold"
    )

    p = sub.add_parser(
        "analyze", parents=[csv_in, thresholds, bound], help="report stats, decision and sizes"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "compress", parents=[csv_in, thresholds, bound], help="encode a column file"
    )
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
        "verify", parents=[csv_in, bound], help="self-check every scheme on a column"
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random scan intervals")
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, for callers that run ``main`` many
    times in one process, as the benchmark harness and the tests do; a
    one-shot command line builds one parser either way. Building it costs
    about 20 times a parse. The parser, and with it the ``cmd_*`` functions
    and ``HeuristicParams`` defaults it holds, is fixed at the first call."""
    return build_parser()


def _load_column(args) -> tuple[Dictionary, ValueIdArray]:
    """The CSV column, dictionary-encoded once; its IDs are one int64 array,
    which every layer below takes as it is."""
    with open(args.csv, "rb") as f:
        values = fileio.read_csv_column(f, args.column, args.header)
    dictionary, array = encode_column(values)
    del values  # the cells are done with: free them before the array is made
    ids = np.asarray(array.ids, np.int64)
    return dictionary, ValueIdArray(ids=ids, id_width_bits=array.id_width_bits)


def _params(args) -> HeuristicParams:
    return HeuristicParams(x=args.x, y=args.y, z=args.z)


def _optimal_block_size(kind: SchemeKind, array: ValueIdArray, sqrt_bound: bool) -> int:
    """The optimizer's block size for cluster or indirect; 2 for a single row."""
    if len(array.ids) < 2:
        return 2
    if kind is SchemeKind.CLUSTER:
        return optimizer.optimal_cluster_block_size(array.ids, sqrt_bound=sqrt_bound).b
    sweep = optimizer.indirect_size_sweep(array.ids, array.id_width_bits, sqrt_bound=sqrt_bound)
    return optimizer.best_indirect(sweep).b


def _sweeps(array: ValueIdArray, sqrt_bound: bool) -> tuple[list, list, list]:
    """The cluster, entropy and indirect-size sweeps; all empty below two rows."""
    if len(array.ids) < 2:
        return [], [], []
    entropy, sizes = optimizer.indirect_sweeps(array.ids, array.id_width_bits, sqrt_bound=sqrt_bound)
    return optimizer.cluster_sweep(array.ids, sqrt_bound=sqrt_bound), entropy, sizes


def _analyze_report(array: ValueIdArray, params: HeuristicParams, sqrt_bound: bool) -> dict:
    stats = heuristics.compute_stats(array.ids)

    cluster_trace, entropy_trace, size_trace = _sweeps(array, sqrt_bound)
    if cluster_trace:
        best_cluster = optimizer.best_cluster(cluster_trace)
        best_entropy = optimizer.best_entropy(entropy_trace)
        best_indirect = optimizer.best_indirect(size_trace)
        sweeps = (cluster_trace, size_trace)
    else:
        best_cluster = best_entropy = best_indirect = sweeps = None
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
        "indirect": best_indirect.bits if best_indirect else None,
        "affine": size_of(SchemeKind.AFFINE) if stats.is_sequential else None,
    }
    smallest = min(bits for bits in sizes.values() if bits is not None)

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
        "regret": sizes[decision.scheme.value] / smallest,
        "cluster_block_size": best_cluster.b if best_cluster else None,
        "indirect_block_size": best_entropy.b if best_entropy else None,
        "cluster_trace": [{"b": o.b, "s": o.s, "f": o.f} for o in cluster_trace],
        "entropy_trace": [{"b": o.b, "mean_entropy": o.mean_entropy} for o in entropy_trace],
        "indirect_size_trace": [{"b": o.b, "bits": o.bits} for o in size_trace],
    }


def cmd_analyze(args) -> int:
    _, array = _load_column(args)
    report = _analyze_report(array, _params(args), args.sqrt_bound)
    print(json.dumps(report, indent=2))
    return 0


def cmd_compress(args) -> int:
    if args.block_size is not None:  # whichever scheme ends up chosen
        encodings.check_block_size(args.block_size)
    dictionary, array = _load_column(args)
    params = _params(args)
    n = len(array.ids)

    if args.scheme == "auto":
        stats = heuristics.compute_stats(array.ids)
        decision = heuristics.decide_scheme(
            stats, array.ids, params, sqrt_bound=args.sqrt_bound
        )
        kind = decision.scheme
        block_size = decision.block_size
        print(f"params: x={params.x} y={params.y} z={params.z}")
    else:
        kind = next(k for k in SchemeKind if _scheme_name(k) == args.scheme)
        block_size = None

    if CODECS[kind].blocked:
        block_size = args.block_size or block_size or _optimal_block_size(kind, array, args.sqrt_bound)

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
    array = ValueIdArray(ids=encoded.codec.decode(encoded.payload), id_width_bits=encoded.id_width_bits)
    del encoded  # the rows need only the IDs: let the payload go first
    # Cells are re-quoted minimally, so byte-level quoting may differ from the
    # original file even though every cell value is identical. Each distinct
    # value's line is rendered once, by the writer a row-by-row write would use;
    # the writer makes one write call per row, so each call appends one line.
    # The decoded IDs then index those lines, as they would index the values.
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        zip(dictionary.values)
    )
    rows = decode_column(Dictionary(values=lines, width_bits=dictionary.width_bits), array)
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        for start in range(0, len(rows), _CSV_ROWS_PER_WRITE):
            f.write("".join(rows[start : start + _CSV_ROWS_PER_WRITE]))
    print(f"wrote {args.out} ({len(rows)} rows)")
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
    dictionary: Dictionary,
    array: ValueIdArray,
    seed: int,
    sqrt_bound: bool,
) -> list[tuple[str, bool]]:
    rng = random.Random(seed)
    ids = array.ids
    # The scan and cluster oracles are literal per-row walks; they walk a list,
    # which is faster to iterate than the array's numpy scalars.
    id_list = ids.tolist()
    n = len(ids)
    stats = heuristics.compute_stats(ids)
    checks: list[tuple[str, bool]] = []

    sweep, entropy, size_trace = _sweeps(array, sqrt_bound)
    block_sizes = {  # 2 for a single row
        SchemeKind.CLUSTER: optimizer.best_cluster(sweep).b if sweep else 2,
        SchemeKind.INDIRECT: optimizer.best_indirect(size_trace).b if size_trace else 2,
    }
    plans = [
        (kind, block_sizes.get(kind))
        for kind in SchemeKind
        if kind is not SchemeKind.AFFINE or stats.is_sequential
    ]

    dict_section = sum(4 + len(v.encode("utf-8")) for v in dictionary.values)
    for kind, block_size in plans:
        encoded = encodings.encode_array(array, kind, block_size)
        checks.append(
            (f"round-trip {kind.value}", encodings.decode_array(encoded) == id_list)
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
            lo, hi = interval.normalize() or (1, 0)  # empty: no ID is >= 1 and <= 0
            want = [i for i, v in enumerate(id_list) if (lo is None or lo <= v) and (hi is None or v <= hi)]
            for column in (encoded, read_encoded):  # as encoded, and as a file holds it
                scans_ok = scans_ok and encodings.scan_id_range(column, interval) == want
        checks.append((f"scan equivalence {kind.value}", scans_ok))

    if n >= 2:
        oracle_f: dict[int, int] = {}
        for objective in sweep:
            oracle_s = optimizer.clustered_block_count_oracle(id_list, objective.b)
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

        oracle_bits: dict[int, int] = {}
        for objective in size_trace:
            encoded = encodings.encode_array(array, SchemeKind.INDIRECT, objective.b)
            oracle_bits[objective.b] = encodings.encoded_size_bits(encoded)
            checks.append(
                (f"indirect size b={objective.b}", objective.bits == oracle_bits[objective.b])
            )
        best_i = optimizer.best_indirect(size_trace)
        smallest_b = min(oracle_bits, key=oracle_bits.__getitem__)  # equal sizes: the first b
        checks.append(
            (
                "indirect optimizer equals oracle argmin",
                (best_i.b, best_i.bits) == (smallest_b, oracle_bits[smallest_b]),
            )
        )

    return checks


def cmd_verify(args) -> int:
    dictionary, array = _load_column(args)
    checks = _verification_checks(dictionary, array, args.seed, args.sqrt_bound)
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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ColcodecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
