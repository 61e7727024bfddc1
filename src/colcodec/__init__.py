"""Column compression toolkit.

Dictionary-encodes text columns into integer value IDs, compresses the ID
arrays with one of five lightweight schemes (or stores them raw/affine),
optimizes block sizes for the blocked schemes, picks schemes heuristically,
and serializes everything to a compact binary column file.
"""

from .dictionary import (
    Dictionary,
    IdInterval,
    ValueIdArray,
    build_dictionary,
    decode_column,
    encode_column,
    id_width_bits,
    predicate_to_id_range,
    to_runs,
)
from .encodings import (
    COUNT_BITS,
    AffineEncoded,
    ClusterEncoded,
    EncodedColumn,
    IndirectEncoded,
    PrefixEncoded,
    RawEncoded,
    RleEncoded,
    SchemeKind,
    SparseEncoded,
    decode_array,
    encode_array,
    encoded_size_bits,
    encoded_size_breakdown,
    scan_id_range,
)
from .errors import (
    BadMagicError,
    ColcodecError,
    ColumnIndexOutOfRangeError,
    CsvParseError,
    EmptyColumnError,
    FormatError,
    IdOutOfRangeError,
    InvalidBlockSizeError,
    InvariantViolationError,
    NotAffineError,
    RaggedRowError,
    RowCountError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    Utf8Error,
)
from .fileio import read_csv_column, read_encoded, write_encoded
from .heuristics import (
    ColumnStats,
    HeuristicParams,
    SchemeDecision,
    compute_stats,
    decide_scheme,
)
from .optimizer import (
    ClusterObjective,
    EntropyObjective,
    IndirectObjective,
    VisitCounter,
    best_cluster,
    best_entropy,
    best_indirect,
    candidate_block_sizes,
    cluster_sweep,
    clustered_block_count_oracle,
    entropy_sweep,
    indirect_size_sweep,
    mean_block_entropy,
    optimal_cluster_block_size,
    optimal_indirect_block_size,
)

__version__ = "0.1.0"
