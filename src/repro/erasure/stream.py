"""Chunked streaming erasure data plane.

The per-stripe :class:`~repro.erasure.codec.ErasureCodec` API materialises
whole blocks in memory; this module streams instead.  A byte source of any
length is cut into fixed-size chunks by :class:`ChunkReader` (the
``FileEncoder``/``ChunkReader`` idiom of real chunk-server file systems),
round-robined across the ``k`` data shards, and parity is accumulated one
chunk at a time into preallocated buffers — no per-coefficient temporaries
and no ``(k, L)`` stripe matrix.

The inner loop is the packed-word kernel of
:class:`repro.erasure.matrix.Accumulator` — one gather through a
precompiled word table plus one in-place XOR per chunk; the differential
tests pin it byte-for-byte against the per-coefficient reference in
``tests/erasure/reference_gf.py`` over the whole stripe.

The streaming chunk contract (see :class:`~repro.erasure.codec.StreamTrailer`):
every stored chunk is exactly ``chunk_size`` bytes, the short final source
chunk is zero-padded, a stripe's missing tail chunks are virtual all-zero
chunks, and the true payload length travels in the stream metadata so decode
can strip the padding — including the empty-source (zero stripes) and
exactly-one-chunk (no padding) edge cases.

Two views share the accumulator: the *file* view (:func:`stream_encode`,
:func:`stream_decode`, :func:`stream_repair`) stripes one byte source
across the shards, and the *block* view (:func:`encode_blocks`) folds ``k``
whole blocks into parity in any order.  Which survivors and which
coefficients rebuild data or a shard is the codec's decision
(:meth:`~repro.erasure.codec.ErasureCodec.decode_plan` /
:meth:`~repro.erasure.codec.ErasureCodec.repair_plan`), so RS, Cauchy and
LRC streams share every line here.

:class:`StreamingDataPlane` carries real bytes through the simulated
cluster's archival path: the :class:`~repro.hdfs.encoder.StripeEncoder`
feeds it block streams and commits the resulting parity payloads against
the block ids minted by ``NameNode.record_encoding``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.erasure import matrix as gfm
from repro.erasure.codec import (
    CodeParams,
    ErasureCodec,
    StreamTrailer,
    make_codec,
    zero_pad,
)
from repro.erasure.lrc import LocalReconstructionCodec, LRCParams
from repro.sim.metrics import PERF, OpsDelta, measure_ops

#: Default streaming chunk size (64 KiB — the HDFS checksum-chunk scale).
DEFAULT_CHUNK_SIZE = 1 << 16

#: Schemes the streaming plane accepts (canonical names).
STREAM_SCHEMES = ("reed-solomon", "cauchy-rs", "lrc")

ByteSource = Union[bytes, bytearray, memoryview, Iterable[bytes], Any]


#: Callback fired after each block's fold in :func:`encode_blocks`:
#: (position in the fold order, column, bytes folded, GF ops counted).
BlockCallback = Callable[[int, int, int, OpsDelta], None]


class ChunkReader:
    """Fixed-size chunk iterator over an arbitrary-length byte source.

    Accepts ``bytes``/``bytearray``/``memoryview`` (sliced zero-copy as
    read-only memoryviews), binary file-like objects (``.read(size)``), or
    any iterable of byte pieces (re-chunked through an internal buffer).
    Every yielded chunk is exactly ``chunk_size`` bytes except the final
    one, which may be short; an empty source yields nothing.

    The reader never opens or closes anything — callers own their file
    handles.
    """

    def __init__(self, source: ByteSource, chunk_size: int) -> None:
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        self._source = source

    def __iter__(self) -> Iterator[memoryview]:
        size = self.chunk_size
        source = self._source
        if isinstance(source, (bytes, bytearray, memoryview)):
            view = memoryview(source)
            if not view.c_contiguous:
                raise ValueError(
                    "byte source is a non-contiguous memoryview (a strided "
                    "slice?); pass a C-contiguous buffer"
                )
            if view.ndim != 1 or view.itemsize != 1:
                view = view.cast("B")
            view = view.toreadonly()
            for start in range(0, len(view), size):
                yield view[start : start + size]
            return
        yield from self._rechunk(self._pieces(source), size)

    @staticmethod
    def _pieces(source: ByteSource) -> Iterator[bytes]:
        read = getattr(source, "read", None)
        if read is not None and callable(read):
            while True:
                piece = read(1 << 20)
                if not piece:
                    return
                yield piece
            return
        for piece in source:
            if piece:
                yield bytes(piece)

    @staticmethod
    def _rechunk(pieces: Iterator[bytes], size: int) -> Iterator[memoryview]:
        buffer = bytearray()
        for piece in pieces:
            if not buffer and len(piece) >= size:
                view = memoryview(piece).toreadonly()
                full = (len(piece) // size) * size
                for start in range(0, full, size):
                    yield view[start : start + size]
                buffer.extend(view[full:])
                continue
            buffer.extend(piece)
            while len(buffer) >= size:
                yield memoryview(bytes(buffer[:size]))
                del buffer[:size]
        if buffer:
            yield memoryview(bytes(buffer))


@dataclass(frozen=True)
class StreamMeta:
    """Self-describing metadata of an encoded stream.

    Attributes:
        scheme: Canonical scheme name (``"reed-solomon"``, ``"cauchy-rs"``
            or ``"lrc"``).
        n: Total shards per stripe.
        k: Data shards per stripe.
        chunk_size: Fixed stored-chunk size in bytes.
        length: True payload length in bytes (the trailer value).
        lrc: ``(k, local_groups, global_parities)`` when ``scheme`` is
            ``"lrc"``, else ``None``.
    """

    scheme: str
    n: int
    k: int
    chunk_size: int
    length: int
    lrc: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        if self.scheme not in STREAM_SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; choose from "
                f"{list(STREAM_SCHEMES)}"
            )
        if not 0 < self.k < self.n:
            raise ValueError(f"require 0 < k < n, got n={self.n}, k={self.k}")
        if self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.scheme == "lrc":
            if self.lrc is None:
                raise ValueError("scheme 'lrc' requires the lrc parameters")
            params = LRCParams(*self.lrc)
            if (params.n, params.k) != (self.n, self.k):
                raise ValueError(
                    f"lrc parameters {self.lrc} imply (n, k) = "
                    f"({params.n}, {params.k}), got ({self.n}, {self.k})"
                )
        elif self.lrc is not None:
            raise ValueError("lrc parameters are only valid with scheme='lrc'")

    @property
    def trailer(self) -> StreamTrailer:
        """The padding/length contract of this stream."""
        return StreamTrailer(length=self.length, chunk_size=self.chunk_size)

    @property
    def num_parity(self) -> int:
        """Parity shards per stripe."""
        return self.n - self.k

    @property
    def num_stripes(self) -> int:
        """Stripes the payload spans (0 for an empty source)."""
        return self.trailer.num_stripes(self.k)

    def codec(self) -> ErasureCodec:
        """A fresh codec instance matching this stream's parameters."""
        if self.scheme == "lrc":
            assert self.lrc is not None
            return LocalReconstructionCodec(LRCParams(*self.lrc))
        return make_codec(self.n, self.k, self.scheme)


@dataclass(frozen=True)
class EncodedStream:
    """A fully encoded stream: ``n`` shards of ``num_stripes`` chunks each.

    Data layout is striped: source chunk ``c`` lives at shard ``c % k``,
    stripe ``c // k`` — so shard ``i`` holds chunks ``i, k+i, 2k+i, ...``.
    Every stored chunk is exactly ``meta.chunk_size`` bytes (tail chunks
    zero-padded per the trailer contract).
    """

    meta: StreamMeta
    shards: Tuple[Tuple[bytes, ...], ...]

    def __post_init__(self) -> None:
        if len(self.shards) != self.meta.n:
            raise ValueError(
                f"expected {self.meta.n} shards, got {len(self.shards)}"
            )
        _validate_shard_streams(dict(enumerate(self.shards)), self.meta)

    def shard(self, index: int) -> bytes:
        """One shard's chunks joined into a single byte string."""
        return b"".join(self.shards[index])

    def available(
        self, exclude: Sequence[int] = ()
    ) -> Dict[int, Tuple[bytes, ...]]:
        """Survivor view of the shards, omitting ``exclude`` — the shape
        :func:`stream_decode`/:func:`stream_repair` consume."""
        lost = set(exclude)
        return {
            i: chunks
            for i, chunks in enumerate(self.shards)
            if i not in lost
        }

    def payload(self) -> bytes:
        """The original source bytes (padding stripped via the trailer)."""
        meta, trailer = self.meta, self.meta.trailer
        parts = [
            self.shards[i][stripe]
            for stripe in range(meta.num_stripes)
            for i in range(meta.k)
        ][: trailer.num_chunks]
        if trailer.padding:  # cut the last chunk, so the join is the one copy
            parts[-1] = parts[-1][: meta.chunk_size - trailer.padding]
        return b"".join(parts)


# ---------------------------------------------------------------------------
# Code resolution
# ---------------------------------------------------------------------------


def _resolve_code(
    scheme: str,
    n: Optional[int],
    k: Optional[int],
    lrc: Optional[Sequence[int]],
) -> Tuple[ErasureCodec, str, int, int, Optional[Tuple[int, int, int]]]:
    """Normalise (scheme, n, k, lrc) and build the matching codec."""
    if scheme == "lrc":
        if lrc is None:
            raise ValueError("scheme 'lrc' requires lrc=(k, local, global)")
        params = LRCParams(*lrc)
        if n not in (None, params.n) or k not in (None, params.k):
            raise ValueError(
                f"lrc parameters {tuple(lrc)} imply (n, k) = "
                f"({params.n}, {params.k}); drop the explicit n/k"
            )
        codec = LocalReconstructionCodec(params)
        return codec, "lrc", params.n, params.k, (
            params.k, params.local_groups, params.global_parities
        )
    if lrc is not None:
        raise ValueError("lrc parameters are only valid with scheme='lrc'")
    if n is None or k is None:
        raise ValueError(f"scheme {scheme!r} requires explicit n and k")
    codec = make_codec(n, k, scheme)
    return codec, codec.scheme, n, k, None


# ---------------------------------------------------------------------------
# Streaming encode / decode / repair (file view)
# ---------------------------------------------------------------------------


def stream_encode(
    source: ByteSource,
    *,
    scheme: str = "reed-solomon",
    n: Optional[int] = None,
    k: Optional[int] = None,
    lrc: Optional[Sequence[int]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> EncodedStream:
    """Encode a byte source of any length into an :class:`EncodedStream`.

    Chunks are striped round-robin across the ``k`` data shards; parity for
    each stripe is accumulated chunk-at-a-time into preallocated buffers,
    so no ``(k, chunk)`` stripe matrix is ever materialised.  Virtual
    all-zero tail chunks complete the final stripe and contribute nothing
    to the accumulation (zero annihilates), which keeps the streamed parity
    byte-identical to whole-stripe encoding of the zero-padded source.
    """
    codec, scheme, n, k, lrc_tuple = _resolve_code(scheme, n, k, lrc)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    zero_chunk = b"\0" * chunk_size

    data_shards: List[List[bytes]] = [[] for _ in range(k)]
    parity_shards: List[List[bytes]] = [[] for _ in range(n - k)]
    stripe_data: List[bytes] = []
    accumulator = gfm.Accumulator(codec.packed_parity, chunk_size)
    length = 0

    def flush_stripe() -> None:
        while len(stripe_data) < k:  # virtual zero tail chunks
            stripe_data.append(zero_chunk)
        for i in range(k):
            data_shards[i].append(stripe_data[i])
        for j, row in enumerate(accumulator.rows()):
            parity_shards[j].append(row.tobytes())
        PERF.bump("stream.stripes_encoded")
        stripe_data.clear()
        accumulator.reset()

    for chunk in ChunkReader(source, chunk_size):
        length += len(chunk)
        PERF.bump("stream.chunks_in")
        PERF.bump("stream.bytes_in", len(chunk))
        # A short final chunk is accumulated as-is: the untouched buffer
        # tail already equals the zero-padded contribution.
        accumulator.fold(len(stripe_data), chunk)
        stripe_data.append(
            bytes(chunk) if len(chunk) == chunk_size
            else zero_pad(bytes(chunk), chunk_size)
        )
        if len(stripe_data) == k:
            flush_stripe()
    if stripe_data:
        flush_stripe()

    meta = StreamMeta(
        scheme=scheme, n=n, k=k, chunk_size=chunk_size, length=length,
        lrc=lrc_tuple,
    )
    shards = tuple(tuple(chunks) for chunks in data_shards + parity_shards)
    return EncodedStream(meta=meta, shards=shards)


def _validate_shard_streams(
    shards: Mapping[int, Sequence[bytes]], meta: StreamMeta
) -> None:
    stripes = meta.num_stripes
    for index in sorted(shards):
        if not 0 <= index < meta.n:
            raise ValueError(f"shard index {index} outside [0, {meta.n})")
        chunks = shards[index]
        if len(chunks) != stripes:
            raise ValueError(
                f"shard {index} holds {len(chunks)} chunks, "
                f"expected {stripes}"
            )
        bad = next((c for c in chunks if len(c) != meta.chunk_size), None)
        if bad is not None:
            raise ValueError(
                f"shard {index} violates the chunk contract: chunk of "
                f"{len(bad)} bytes, expected {meta.chunk_size}"
            )


def stream_decode(
    shards: Mapping[int, Sequence[bytes]], meta: StreamMeta
) -> bytes:
    """Reconstruct the original payload from any decodable survivor set.

    The decode matrix is inverted (and compiled) once per call and one
    accumulator is reused across every stripe; each stripe is rebuilt
    chunk-at-a-time with the same kernel the encoder uses, a surviving
    data shard's chunks passing straight through.  Returns the payload
    with the zero padding stripped per the trailer.
    """
    _validate_shard_streams(shards, meta)
    if meta.num_stripes == 0:
        return b""
    subset, decode_matrix = meta.codec().decode_plan(shards)
    out = np.empty((meta.num_stripes, meta.k, meta.chunk_size), np.uint8)
    accumulator = gfm.Accumulator(decode_matrix, meta.chunk_size)
    for stripe in range(meta.num_stripes):
        accumulator.reset()
        for column, index in enumerate(subset):
            accumulator.fold(column, shards[index][stripe])
        np.stack(accumulator.rows(), out=out[stripe])
        PERF.bump("stream.stripes_decoded")
    return bytes(meta.trailer.strip(memoryview(out.reshape(-1))))


def stream_repair(
    target: int,
    shards: Mapping[int, Sequence[bytes]],
    meta: StreamMeta,
) -> Tuple[bytes, ...]:
    """Rebuild one lost shard's chunk stream from the survivors.

    The repair row (``generator[target] @ decode_matrix``, or the all-ones
    local-XOR row for an LRC local repair) is computed once and applied per
    stripe.  Returns ``num_stripes`` chunks of exactly ``chunk_size`` bytes
    — the shape :class:`EncodedStream` stores.
    """
    _validate_shard_streams(shards, meta)
    sources, coeffs = meta.codec().repair_plan(target, shards)
    rebuilt: List[bytes] = []
    accumulator = gfm.Accumulator(coeffs, meta.chunk_size)
    for stripe in range(meta.num_stripes):
        accumulator.reset()
        for column, index in enumerate(sources):
            accumulator.fold(column, shards[index][stripe])
        rebuilt.append(accumulator.rows()[0].tobytes())
        PERF.bump("stream.chunks_repaired")
    return tuple(rebuilt)


# ---------------------------------------------------------------------------
# Streaming encode (cluster/block view)
# ---------------------------------------------------------------------------


def encode_blocks(
    sources: Sequence[ByteSource],
    codec: ErasureCodec,
    *,
    order: Optional[Sequence[int]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    length: Optional[int] = None,
    on_block: Optional[BlockCallback] = None,
) -> List[bytes]:
    """Parity payloads for ``k`` block sources, one chunk at a time.

    The block-oriented twin of :func:`stream_encode`: each source is a whole
    data block (the archival encode path's unit), parity is accumulated into
    ``n - k`` preallocated ``length``-byte buffers, and blocks shorter than
    ``length`` implicitly contribute zeros.  GF addition is XOR, so the
    blocks may be folded in any ``order`` — stripe order for a single
    encoder node, hop order along a RapidRAID-style pipeline — and the
    result is byte-identical to ``codec.encode(blocks, length=length)``
    without ever stacking the ``(k, length)`` stripe matrix.

    Args:
        sources: Exactly ``k`` byte sources, indexed by stripe column.
        codec: The stripe's codec (RS/Cauchy/LRC).
        order: Permutation of ``range(k)`` giving the fold order (stripe
            order when omitted).
        chunk_size: Read granularity.
        length: Padded block length.  Required when any source is unsized
            (file-like/iterable); defaults to the longest sized source.
        on_block: Optional callback fired after each block's fold with the
            position in ``order``, the column, the bytes folded and the GF
            ops that fold counted — how a caller bills work per hop.

    Returns:
        ``n - k`` parity payloads of exactly ``length`` bytes each.
    """
    k = codec.params.k
    if len(sources) != k:
        raise ValueError(f"expected {k} block sources, got {len(sources)}")
    order = list(range(k)) if order is None else list(order)
    if sorted(order) != list(range(k)):
        raise ValueError(
            f"order must be a permutation of range({k}), got {order}"
        )
    if length is None:
        if not all(
            isinstance(s, (bytes, bytearray, memoryview)) for s in sources
        ):
            raise ValueError(
                "length= is required when sources are not all sized "
                "bytes-like objects"
            )
        length = max((memoryview(s).nbytes for s in sources), default=0)
    accumulator = gfm.Accumulator(codec.packed_parity, length)
    for position, column in enumerate(order):
        with measure_ops() as measured:
            offset = 0
            for chunk in ChunkReader(sources[column], chunk_size):
                if offset + len(chunk) > length:
                    raise ValueError(
                        f"block {column} longer than padded length {length}"
                    )
                accumulator.fold(column, chunk, offset)
                offset += len(chunk)
        if on_block is not None:
            on_block(position, column, offset, measured)
    return [row.tobytes() for row in accumulator.rows()]


# ---------------------------------------------------------------------------
# Cluster data plane
# ---------------------------------------------------------------------------


class StreamingDataPlane:
    """Real bytes for the simulated cluster's archival encode path.

    The DES layer models *timing*; this plane carries the actual payloads:
    per-block byte strings (deterministically synthesised on demand, or
    supplied via :meth:`put`), streamed through
    :func:`encode_blocks` when a stripe is encoded, with the
    parity payloads committed against the block ids
    ``NameNode.record_encoding`` mints.  Synthesised payloads are capped at
    ``bytes_per_block`` so simulated 64 MB blocks don't cost 64 MB of
    encoder memory — the cap only scales the payloads, never the metadata.

    Args:
        code: The ``(n, k)`` stripe geometry (must match the NameNode's).
        scheme: Codec scheme (``"reed-solomon"``/``"cauchy-rs"``).
        chunk_size: Streaming read granularity.
        bytes_per_block: Cap on synthesised payload bytes per block.
        seed: Seed for deterministic payload synthesis.
    """

    def __init__(
        self,
        code: CodeParams,
        scheme: str = "reed-solomon",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        bytes_per_block: int = 1 << 16,
        seed: int = 0,
    ) -> None:
        if bytes_per_block <= 0:
            raise ValueError(
                f"bytes_per_block must be positive, got {bytes_per_block}"
            )
        self.code = code
        self.codec = make_codec(code.n, code.k, scheme)
        self.chunk_size = chunk_size
        self.bytes_per_block = bytes_per_block
        self.seed = seed
        self.payloads: Dict[int, bytes] = {}

    def put(self, block_id: int, payload: bytes) -> None:
        """Register a block's real bytes (overrides synthesis)."""
        self.payloads[block_id] = bytes(payload)

    def payload_for(self, block_id: int, size: int) -> bytes:
        """The block's bytes, synthesising a deterministic payload once.

        Synthesis is a pure function of ``(seed, block_id)``, so retried or
        repeated encodes of the same stripe see identical bytes.
        """
        existing = self.payloads.get(block_id)
        if existing is not None:
            return existing
        rng = random.Random((self.seed << 32) ^ block_id)
        payload = rng.randbytes(min(size, self.bytes_per_block))
        self.payloads[block_id] = payload
        return payload

    def encode_stripe(self, stripe: Any, store: Any) -> List[bytes]:
        """Stream-encode a stripe's data blocks into parity payloads."""
        sources = [
            self.payload_for(block_id, store.block(block_id).size)
            for block_id in stripe.block_ids
        ]
        parity = encode_blocks(
            sources, self.codec, chunk_size=self.chunk_size
        )
        data_bytes = sum(len(s) for s in sources)
        PERF.bump(
            "stream.chunks_in",
            sum(-(-len(s) // self.chunk_size) for s in sources),
        )
        PERF.bump("stream.bytes_in", data_bytes)
        PERF.bump("stream.stripes_encoded")
        PERF.bump("stream.plane_stripes")
        PERF.bump("stream.plane_bytes", data_bytes)
        return parity

    def commit_parity(
        self, parity_blocks: Sequence[Any], payloads: Sequence[bytes]
    ) -> None:
        """Store computed parity payloads under their minted block ids."""
        if len(parity_blocks) != len(payloads):
            raise ValueError(
                f"{len(parity_blocks)} parity blocks but "
                f"{len(payloads)} payloads"
            )
        for block, payload in zip(parity_blocks, payloads):
            self.payloads[block.block_id] = payload

    def stripe_payloads(self, stripe: Any) -> Dict[int, bytes]:
        """All held payloads of a stripe keyed by stripe index (0..n-1)."""
        blocks: Dict[int, bytes] = {}
        for index, block_id in enumerate(stripe.block_ids):
            payload = self.payloads.get(block_id)
            if payload is not None:
                blocks[index] = payload
        for offset, block_id in enumerate(stripe.parity_block_ids):
            payload = self.payloads.get(block_id)
            if payload is not None:
                blocks[self.code.k + offset] = payload
        return blocks

    def verify_stripe(self, stripe: Any) -> bool:
        """Re-encode the stripe's data payloads and check its parities."""
        blocks = self.stripe_payloads(stripe)
        if sorted(blocks) != list(range(self.code.n)):
            raise ValueError(
                f"stripe {stripe.stripe_id} payloads incomplete: "
                f"{sorted(blocks)}"
            )
        return self.codec.verify(blocks)

    def decode_block(self, stripe: Any, index: int, exclude: Sequence[int] = ()) -> bytes:
        """Rebuild one stripe member's payload from surviving payloads."""
        blocks = self.stripe_payloads(stripe)
        lost = set(exclude) | {index}
        available = {i: b for i, b in blocks.items() if i not in lost}
        return self.codec.reconstruct(index, available)
