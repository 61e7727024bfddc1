"""The names the package binds at its top level."""

from __future__ import annotations

import types

import colcodec

PUBLIC_NAMES = [
    "AffineEncoded", "BadMagicError", "COUNT_BITS", "ClusterEncoded", "ClusterObjective",
    "ColcodecError", "ColumnIndexOutOfRangeError", "ColumnStats", "CsvParseError",
    "Dictionary", "EmptyColumnError", "EncodedColumn", "EntropyObjective", "FormatError",
    "HeuristicParams", "IdInterval", "IdOutOfRangeError", "IndirectEncoded",
    "IndirectObjective", "InvalidBlockSizeError", "InvariantViolationError",
    "NotAffineError", "PrefixEncoded", "RaggedRowError", "RawEncoded", "RleEncoded",
    "RowCountError", "SchemeDecision", "SchemeKind", "SparseEncoded", "TruncatedPayloadError",
    "UnsupportedVersionError", "Utf8Error", "ValueIdArray", "VisitCounter",
    "best_cluster", "best_entropy", "best_indirect", "build_dictionary",
    "candidate_block_sizes", "cluster_sweep", "clustered_block_count_oracle",
    "compute_stats", "decide_scheme", "decode_array", "decode_column", "encode_array",
    "encode_column", "encoded_size_bits", "encoded_size_breakdown", "entropy_sweep",
    "id_width_bits", "indirect_size_sweep", "mean_block_entropy",
    "optimal_cluster_block_size", "optimal_indirect_block_size", "predicate_to_id_range",
    "read_csv_column", "read_encoded", "scan_id_range", "to_runs", "write_encoded",
]


def test_the_package_binds_exactly_its_public_names():
    """An added or removed top-level name shows up here. Submodules are left
    out: they are bound as attributes once anything imports them."""
    bound = sorted(
        name
        for name, value in vars(colcodec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert bound == PUBLIC_NAMES


ENCODINGS_NAMES = [
    "SchemeKind", "RawEncoded", "PrefixEncoded", "RleEncoded", "SparseEncoded",
    "ClusterEncoded", "IndirectEncoded", "AffineEncoded", "EncodedColumn", "Codec", "CODECS",
    "COUNT_BITS", "check_block_size", "indirect_block_bits", "encode_array", "decode_array",
    "encoded_size_bits", "encoded_size_breakdown", "scan_id_range",
]


def test_encodings_exports_one_door_into_the_layouts():
    """Each layout is reached through ``encode_array`` and its codec; the
    per-scheme encode and decode functions are the codecs' private slots."""
    assert colcodec.encodings.__all__ == ENCODINGS_NAMES
