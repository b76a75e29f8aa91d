"""High-level erasure codec interface used by the rest of the library.

``CodeParams`` captures the ``(n, k)`` parameters that appear everywhere in
the paper; ``ErasureCodec`` wraps the matrix machinery behind an API phrased
in terms of stripes of byte blocks, padding uneven inputs the way HDFS-RAID
zero-pads the tail of a file.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.erasure import cauchy, reed_solomon
from repro.erasure import matrix as gfm
from repro.sim.metrics import PERF

#: Decode matrices retained per codec instance, keyed by erasure pattern.
DECODE_CACHE_SIZE = 128

#: Wire layout of :class:`StreamTrailer`: magic, version, true byte length,
#: chunk size (little-endian, fixed 21 bytes).
_TRAILER_STRUCT = struct.Struct("<4sBQQ")

#: Magic bytes identifying a packed stream trailer.
TRAILER_MAGIC = b"RPST"

#: Trailer wire-format version.
TRAILER_VERSION = 1


def zero_pad(chunk: bytes, size: int) -> bytes:
    """Zero-pad ``chunk`` up to exactly ``size`` bytes.

    The streaming chunk contract: every *stored* chunk of an encoded stream
    is exactly ``chunk_size`` bytes, with the short final chunk of the
    source zero-filled on the right (the same convention HDFS-RAID uses for
    a file's partial tail block).  The true length travels separately in the
    :class:`StreamTrailer`, so padding is always recoverable.

    Raises:
        ValueError: If ``chunk`` is already longer than ``size``.
    """
    if len(chunk) > size:
        raise ValueError(f"chunk of {len(chunk)} bytes exceeds size {size}")
    return bytes(chunk) + b"\0" * (size - len(chunk))


@dataclass(frozen=True)
class StreamTrailer:
    """The length/chunking contract of a streamed payload.

    Zero padding makes every stored chunk the same size, which is what lets
    the decode path treat all stripes uniformly — but it destroys the true
    payload length.  The trailer records that length (plus the chunk size
    used) explicitly, so ``strip`` can always undo the padding.  Two edge
    cases the per-stripe API never exercised are now well-defined:

    * **empty source** — ``length == 0``: zero chunks, zero stripes, and
      decoding yields ``b""``;
    * **exactly one chunk** — ``length == chunk_size``: one full chunk and
      *no* padding bytes (padding is never a full extra chunk).

    Attributes:
        length: True payload length in bytes (before any zero padding).
        chunk_size: Fixed chunk size the payload was split into.
    """

    length: int
    chunk_size: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.chunk_size <= 0:
            raise ValueError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )

    @property
    def num_chunks(self) -> int:
        """Chunks the payload occupies: ``ceil(length / chunk_size)``."""
        return -(-self.length // self.chunk_size)

    @property
    def padding(self) -> int:
        """Zero bytes appended to fill the final chunk (0 when aligned)."""
        return self.num_chunks * self.chunk_size - self.length

    def num_stripes(self, k: int) -> int:
        """Stripes of ``k`` data chunks the payload spans."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return -(-self.num_chunks // k)

    def padded_length(self, k: int) -> int:
        """Total stored data bytes after stripe-alignment zero padding."""
        return self.num_stripes(k) * k * self.chunk_size

    def strip(self, padded: bytes) -> bytes:
        """Undo the zero padding: the first ``length`` bytes of ``padded``.

        Raises:
            ValueError: If ``padded`` is shorter than the recorded length.
        """
        if len(padded) < self.length:
            raise ValueError(
                f"padded payload of {len(padded)} bytes shorter than "
                f"recorded length {self.length}"
            )
        return padded[: self.length]

    def pack(self) -> bytes:
        """Serialise to the fixed 21-byte wire form."""
        return _TRAILER_STRUCT.pack(
            TRAILER_MAGIC, TRAILER_VERSION, self.length, self.chunk_size
        )

    @classmethod
    def unpack(cls, data: bytes) -> "StreamTrailer":
        """Parse a packed trailer.

        Raises:
            ValueError: On wrong size, magic, or version.
        """
        if len(data) != _TRAILER_STRUCT.size:
            raise ValueError(
                f"trailer must be {_TRAILER_STRUCT.size} bytes, got {len(data)}"
            )
        magic, version, length, chunk_size = _TRAILER_STRUCT.unpack(data)
        if magic != TRAILER_MAGIC:
            raise ValueError(f"bad trailer magic {magic!r}")
        if version != TRAILER_VERSION:
            raise ValueError(f"unsupported trailer version {version}")
        return cls(length=length, chunk_size=chunk_size)


@dataclass(frozen=True)
class CodeParams:
    """Parameters of an ``(n, k)`` systematic erasure code.

    Attributes:
        n: Total blocks per stripe (data + parity).
        k: Data blocks per stripe; any ``k`` of the ``n`` blocks reconstruct
            the stripe.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n:
            raise ValueError(f"require 0 < k < n, got n={self.n}, k={self.k}")
        if self.n > 256:
            raise ValueError("codes over GF(2^8) support at most n = 256")

    @property
    def num_parity(self) -> int:
        """Number of parity blocks per stripe, ``n - k``."""
        return self.n - self.k

    @property
    def storage_overhead(self) -> float:
        """Redundancy factor ``n / k`` (e.g. 1.4 for (14, 10))."""
        return self.n / self.k

    @property
    def node_failures_tolerated(self) -> int:
        """Node failures survivable with one block per node: ``n - k``."""
        return self.n - self.k

    def rack_failures_tolerated(self, c: int) -> int:
        """Rack failures survivable with at most ``c`` stripe blocks per rack.

        Section III-B: a stripe tolerates ``floor((n - k) / c)`` rack
        failures.
        """
        if c <= 0:
            raise ValueError("c must be positive")
        return (self.n - self.k) // c

    def min_racks(self, c: int) -> int:
        """Minimum racks needed to place a stripe: ``ceil(n / c)``."""
        if c <= 0:
            raise ValueError("c must be positive")
        return -(-self.n // c)

    def __str__(self) -> str:
        return f"({self.n},{self.k})"


class ErasureCodec:
    """A systematic (n, k) erasure codec operating on lists of byte blocks.

    Subclasses supply the generator matrix; this base class handles padding,
    shard stacking, the encode/decode/repair workflows, and the one decision
    every decode path shares — which survivors, and which coefficient
    matrix, rebuild the data (:meth:`decode_plan`) or a single shard
    (:meth:`repair_plan`).

    Args:
        params: The code parameters (anything with ``n`` and ``k``).
    """

    #: Human-readable scheme name, overridden by subclasses.
    scheme = "abstract"

    def __init__(self, params: CodeParams) -> None:
        self.params = params
        self._generator = self._build_generator(params.n, params.k)
        #: The parity rows compiled for the packed-word kernel, once.
        self.packed_parity = gfm.PackedMatrix(self.parity_rows)
        # LRU of compiled decode matrices keyed by the chosen survivor
        # rows: a burst of repairs after a node/rack failure hits the same
        # pattern for every affected stripe and inverts the k x k system
        # (and packs its lookup tables) once.
        self._decode_cache: "OrderedDict[Tuple[int, ...], gfm.PackedMatrix]" = (
            OrderedDict()
        )

    # -- hooks ----------------------------------------------------------
    def _build_generator(self, n: int, k: int) -> np.ndarray:
        raise NotImplementedError

    # -- coefficients and planning ----------------------------------------
    @property
    def parity_rows(self) -> np.ndarray:
        """The ``(n - k, k)`` parity coefficients (generator below the
        identity)."""
        return self._generator[self.params.k :, :]

    def _survivors(self, indices: Collection[int]) -> Tuple[int, ...]:
        """Sorted survivor indices, each checked to lie inside the stripe."""
        ordered = tuple(sorted(indices))
        n = self.params.n
        for index in ordered:
            if not 0 <= index < n:
                raise ValueError(f"shard index {index} outside [0, {n})")
        return ordered

    def _decode_matrix(self, chosen: Tuple[int, ...]) -> gfm.PackedMatrix:
        """The (cached) inverse of the chosen survivors' generator rows."""
        cached = self._decode_cache.get(chosen)
        if cached is not None:
            self._decode_cache.move_to_end(chosen)
            PERF.bump("codec.decode_matrix_hits")
            return cached
        PERF.bump("codec.decode_matrix_misses")
        matrix = gfm.PackedMatrix(gfm.invert(self._generator[list(chosen), :]))
        self._decode_cache[chosen] = matrix
        if len(self._decode_cache) > DECODE_CACHE_SIZE:
            self._decode_cache.popitem(last=False)
        return matrix

    def decode_plan(
        self, indices: Collection[int]
    ) -> Tuple[Tuple[int, ...], gfm.PackedMatrix]:
        """Which survivors rebuild the data, and with which matrix.

        Args:
            indices: Stripe indices of the surviving shards (at least ``k``).

        Returns:
            ``(chosen, matrix)``: the ``k`` survivors to read, and the
            compiled ``(k, k)`` matrix that maps their shards — stacked in
            that order — back to the data shards.

        Raises:
            ValueError: On an index outside ``[0, n)`` or fewer than ``k``
                survivors.
        """
        k = self.params.k
        survivors = self._survivors(indices)
        if len(survivors) < k:
            raise ValueError(
                f"need at least k={k} blocks, got {len(survivors)}"
            )
        chosen = survivors[:k]
        return chosen, self._decode_matrix(chosen)

    def repair_plan(
        self, target: int, indices: Collection[int]
    ) -> Tuple[Tuple[int, ...], gfm.PackedMatrix]:
        """Which survivors rebuild shard ``target``, and with which row.

        Returns:
            ``(sources, row)``: the survivors to read and the compiled
            ``(1, len(sources))`` coefficient row over them.
        """
        if not 0 <= target < self.params.n:
            raise ValueError(f"target index {target} outside the stripe")
        chosen, decode_matrix = self.decode_plan(indices)
        generator_row = self._generator[target : target + 1, :]
        return chosen, gfm.PackedMatrix(
            gfm.matmul(generator_row, decode_matrix.coeffs)
        )

    # -- public API -----------------------------------------------------
    def encode(
        self, data_blocks: Sequence[bytes], length: Optional[int] = None
    ) -> List[bytes]:
        """Compute the stripe's parity blocks.

        Args:
            data_blocks: Exactly ``k`` byte strings.  Shorter blocks are
                zero-padded to the longest block's length, mirroring
                HDFS-RAID's treatment of a file's final partial block.
            length: Explicit padded block length.  When given, every block
                is zero-padded to exactly ``length`` bytes — the streaming
                chunk contract — and empty blocks (a stripe's virtual
                all-zero tail chunks) are legal.  ``length=0`` encodes the
                empty source to ``n - k`` empty parities.  Without it the
                legacy behaviour applies: pad to the longest block, which
                must be non-empty.

        Returns:
            ``n - k`` parity blocks, each ``length`` bytes (or as long as
            the longest data block when ``length`` is omitted).
        """
        shards = self._stack(data_blocks, expected=self.params.k, length=length)
        parity = gfm.apply_to_shards(self.packed_parity, shards)
        return [row.tobytes() for row in parity]

    def decode(
        self, available: Dict[int, bytes], original_lengths: Optional[Sequence[int]] = None
    ) -> List[bytes]:
        """Reconstruct all ``k`` data blocks from a decodable survivor set.

        Args:
            available: Mapping stripe-index -> block bytes; must contain at
                least ``k`` entries.  Indices ``< k`` are data blocks.
            original_lengths: Optional true lengths of the data blocks so the
                zero padding can be stripped.

        Returns:
            The ``k`` data blocks in stripe order.
        """
        chosen, decode_matrix = self.decode_plan(available)
        shards = self._stack([available[i] for i in chosen], expected=self.params.k)
        data = gfm.apply_to_shards(decode_matrix, shards)
        blocks = [row.tobytes() for row in data]
        if original_lengths is not None:
            if len(original_lengths) != self.params.k:
                raise ValueError("original_lengths must have k entries")
            blocks = [b[:length] for b, length in zip(blocks, original_lengths)]
        return blocks

    def repair(
        self, target_index: int, available: Dict[int, bytes]
    ) -> Tuple[bytes, List[int]]:
        """Rebuild one lost block (data or parity) in one pass of the
        :meth:`repair_plan` row over the survivors it names.

        Returns:
            ``(rebuilt_bytes, indices_read)``.
        """
        sources, row = self.repair_plan(target_index, available)
        shards = self._stack(
            [available[i] for i in sources], expected=len(sources)
        )
        return gfm.apply_to_shards(row, shards)[0].tobytes(), sorted(sources)

    def reconstruct(self, target_index: int, available: Dict[int, bytes]) -> bytes:
        """The rebuilt bytes of :meth:`repair`."""
        return self.repair(target_index, available)[0]

    def verify(self, blocks: Dict[int, bytes]) -> bool:
        """Check that a full stripe is internally consistent.

        Args:
            blocks: All ``n`` blocks of a stripe, keyed by stripe index.

        Returns:
            True iff re-encoding the data blocks reproduces every parity
            block byte for byte and length for length (the RaidNode's
            periodic corruption check) — a parity block that lost its tail
            fails even when the lost bytes were zeros.
        """
        k = self.params.k
        if sorted(blocks) != list(range(self.params.n)):
            raise ValueError("verify requires all n blocks of the stripe")
        expected = self.encode([blocks[i] for i in range(k)])
        return all(
            blocks[k + offset] == parity
            for offset, parity in enumerate(expected)
        )

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _stack(
        blocks: Sequence[bytes], expected: int, length: Optional[int] = None
    ) -> np.ndarray:
        if len(blocks) != expected:
            raise ValueError(f"expected {expected} blocks, got {len(blocks)}")
        if length is None:
            # Legacy contract: pad to the longest block, all non-empty.
            if any(len(b) == 0 for b in blocks):
                raise ValueError("blocks must be non-empty")
            length = max(len(b) for b in blocks)
        else:
            # Streaming contract: explicit padded length, empty blocks legal
            # (they are a stripe's virtual all-zero tail chunks).
            if length < 0:
                raise ValueError(f"length must be non-negative, got {length}")
            oversize = next((b for b in blocks if len(b) > length), None)
            if oversize is not None:
                raise ValueError(
                    f"block of {len(oversize)} bytes exceeds padded "
                    f"length {length}"
                )
        out = np.zeros((expected, length), dtype=np.uint8)
        for i, b in enumerate(blocks):
            out[i, : len(b)] = np.frombuffer(bytes(b), dtype=np.uint8)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(params={self.params})"


class ReedSolomonCodec(ErasureCodec):
    """Systematic Vandermonde Reed-Solomon codec (HDFS-RAID's default)."""

    scheme = "reed-solomon"

    def _build_generator(self, n: int, k: int) -> np.ndarray:
        return reed_solomon.generator_matrix(n, k)


class CauchyRSCodec(ErasureCodec):
    """Systematic Cauchy Reed-Solomon codec."""

    scheme = "cauchy-rs"

    def _build_generator(self, n: int, k: int) -> np.ndarray:
        return cauchy.generator_matrix(n, k)


_SCHEMES = {
    ReedSolomonCodec.scheme: ReedSolomonCodec,
    CauchyRSCodec.scheme: CauchyRSCodec,
    "rs": ReedSolomonCodec,
    "cauchy": CauchyRSCodec,
}


def make_codec(n: int, k: int, scheme: str = "reed-solomon") -> ErasureCodec:
    """Factory for codecs by scheme name.

    Args:
        n: Total blocks per stripe.
        k: Data blocks per stripe.
        scheme: ``"reed-solomon"``/``"rs"`` or ``"cauchy-rs"``/``"cauchy"``.
    """
    try:
        cls = _SCHEMES[scheme]
    except KeyError:
        raise ValueError(
            f"unknown scheme {scheme!r}; choose from {sorted(_SCHEMES)}"
        ) from None
    return cls(CodeParams(n, k))
