"""Erasure-coding substrate: GF(2^8) arithmetic and Reed-Solomon codecs.

The paper encodes replicated data with systematic ``(n, k)`` erasure codes —
Reed-Solomon codes as implemented by HDFS-RAID.  This package provides real,
byte-level implementations built from scratch:

* :mod:`repro.erasure.galois` — GF(2^8) field arithmetic with log/antilog
  tables, vectorised over numpy arrays.
* :mod:`repro.erasure.matrix` — matrix algebra (multiply, invert) over the
  field and the one production byte kernel: packed-word lookup tables
  (``PackedMatrix``) folded into word accumulators (``Accumulator``).
* :mod:`repro.erasure.reed_solomon` — the systematic Vandermonde-derived RS
  generator matrix.
* :mod:`repro.erasure.cauchy` — the systematic Cauchy RS generator matrix.
* :mod:`repro.erasure.codec` — the ``ErasureCodec`` interface (encode k data
  blocks -> n-k parity blocks; reconstruct from any k) and the one place
  that plans a decode or repair: which survivors, which coefficient matrix,
  one LRU of inverted, compiled decode matrices for RS, Cauchy and LRC.
* :mod:`repro.erasure.stream` — the chunked streaming data plane: fixed-size
  chunk iterators, chunk-at-a-time folds through that kernel (pinned against
  a per-coefficient test oracle), one block-view
  encoder taking a fold order, and the cluster :class:`StreamingDataPlane`.
"""

from repro.erasure.codec import (
    CauchyRSCodec,
    CodeParams,
    ErasureCodec,
    ReedSolomonCodec,
    StreamTrailer,
    make_codec,
    zero_pad,
)
from repro.erasure.galois import GF256
from repro.erasure.stream import (
    ChunkReader,
    EncodedStream,
    StreamingDataPlane,
    StreamMeta,
    encode_blocks,
    stream_decode,
    stream_encode,
    stream_repair,
)


def reset_memo_caches() -> None:
    """Clear the process-local generator matrix memo caches.

    Matrix construction is counted work (``gf.kernel_calls`` etc.), so a
    measured region's op counts depend on whether an *earlier* computation
    in the same process already built the matrices it needs.  Harnesses
    that promise location-independent op accounting (``benchmarks/e2e``,
    the parallel sweep executor) call this before each measured trial so
    every trial sees the same cold-cache state regardless of the process —
    or the order — it runs in.
    """
    from repro.erasure import cauchy, reed_solomon

    reed_solomon.generator_matrix.cache_clear()
    cauchy.generator_matrix.cache_clear()


__all__ = [
    "CauchyRSCodec",
    "ChunkReader",
    "CodeParams",
    "EncodedStream",
    "ErasureCodec",
    "GF256",
    "ReedSolomonCodec",
    "StreamMeta",
    "StreamTrailer",
    "StreamingDataPlane",
    "encode_blocks",
    "make_codec",
    "reset_memo_caches",
    "stream_decode",
    "stream_encode",
    "stream_repair",
    "zero_pad",
]
