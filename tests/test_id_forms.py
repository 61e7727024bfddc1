"""Every layer gives the same result for a column as a list and as its int64 array.

The CLI hands the layers one int64 array; the public functions still take
lists. The list form is the literal reference for the array form.
"""

from __future__ import annotations

import numpy as np

from colcodec import (
    ColcodecError,
    SchemeKind,
    ValueIdArray,
    cluster_sweep,
    compute_stats,
    decide_scheme,
    encode_array,
    entropy_sweep,
    id_width_bits,
    indirect_size_sweep,
    to_runs,
)
from colcodec.encodings import CODECS

BLOCK_SIZE = 4  # for the blocked schemes' encoders


def _outcome(layer, *args, **kwargs):
    """The layer's result, or the type of the error it raised."""
    try:
        return layer(*args, **kwargs)
    except ColcodecError as exc:
        return type(exc)


def _results(ids, width: int) -> list:
    stats = compute_stats(ids)
    array = ValueIdArray(ids=ids, id_width_bits=width)
    return [
        stats,
        decide_scheme(stats, ids),
        decide_scheme(stats, ids, sqrt_bound=True),
        _outcome(cluster_sweep, ids),
        _outcome(entropy_sweep, ids),
        _outcome(indirect_size_sweep, ids, width),
        to_runs(ids),
        *(
            _outcome(encode_array, array, kind, BLOCK_SIZE if CODECS[kind].blocked else None)
            for kind in SchemeKind
        ),
    ]


def test_every_layer_gives_a_list_and_its_array_equal_results(search_corpus, wide_corpus):
    for ids in search_corpus + wide_corpus:
        width = id_width_bits(max(ids) + 1)
        # encoded payloads compare by value, so arrays are compared element by element
        assert _results(np.array(ids, np.int64), width) == _results(ids, width)
