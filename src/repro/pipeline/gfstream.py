"""Hop-ordered pipelined GF(2^8) parity accumulation.

The RapidRAID idea, reduced to its arithmetic core: parity is a linear
combination of the ``k`` data blocks, and XOR is commutative, so the
blocks may be folded into the running parity buffers in *any* order —
including the order the blocks' replica holders happen to sit along a
network pipeline.  Each hop contributes its own block's columns
(``parity[j] ^= G[k+j][column] * block``) and forwards the partial
combination; the final hop holds the finished parity.

The fold itself is the streaming plane's one block-view encoder,
:func:`repro.erasure.stream.encode_blocks`, run with the hop order as
its fold order — so the result is byte-identical to
``codec.encode(blocks, length=length)`` for every permutation, the
property the differential tests pin.  :func:`pipelined_parity` adds only
what makes a fold a *pipeline*: the ``pipeline.*`` counters and the
per-hop :class:`~repro.sim.metrics.OpsDelta`, which is how the
simulation bills ``gf.kernel_calls`` to the node that actually performed
the work (per-hop attribution instead of a single encoder node).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.erasure.codec import ErasureCodec
from repro.erasure.stream import DEFAULT_CHUNK_SIZE, ByteSource, encode_blocks
from repro.sim.metrics import PERF, OpsDelta

#: Callback fired after each hop's fold: (hop_index, column, ops_delta).
HopCallback = Callable[[int, int, OpsDelta], None]


def pipelined_parity(
    sources: Sequence[ByteSource],
    codec: ErasureCodec,
    *,
    hop_order: Optional[Sequence[int]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    length: Optional[int] = None,
    on_hop: Optional[HopCallback] = None,
) -> List[bytes]:
    """Parity payloads for ``k`` block sources folded in pipeline order.

    Args:
        sources: Exactly ``k`` byte sources, indexed by stripe column.
        codec: The stripe's codec (RS/Cauchy/LRC).
        hop_order: Permutation of ``range(k)`` giving the fold order
            (stripe order when omitted).
        chunk_size: Read granularity.
        length: Padded block length.  Required when any source is
            unsized; defaults to the longest sized source.
        on_hop: Optional per-hop attribution callback; receives the hop
            index, the column folded, and the GF ops that fold counted.

    Returns:
        ``n - k`` parity payloads of exactly ``length`` bytes each.
    """

    def hop_folded(
        hop_index: int, column: int, folded: int, ops: OpsDelta
    ) -> None:
        PERF.bump("pipeline.chunks_in", -(-folded // chunk_size))
        PERF.bump("pipeline.bytes_in", folded)
        PERF.bump("pipeline.hops")
        if on_hop is not None:
            on_hop(hop_index, column, ops)

    parity = encode_blocks(
        sources, codec, order=hop_order, chunk_size=chunk_size,
        length=length, on_block=hop_folded,
    )
    PERF.bump("pipeline.stripes_encoded")
    return parity
