"""Stripe bookkeeping and the pre-encoding store.

The paper's HDFS integration adds a *pre-encoding store* to the NameNode
(Section IV-B) that keeps, for each future stripe, the list of data block
identifiers that will be encoded together.  EAR fills it eagerly (a stripe is
sealed when its core rack accumulates ``k`` data blocks); under RR the
RaidNode simply groups every ``k`` data blocks in metadata order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.block import BlockId
from repro.cluster.topology import RackId
from repro.journal.records import (
    NewStripe,
    Present,
    SealStripe,
    StripeAddBlock,
    commit,
    owns,
)


class StripeState:
    """Lifecycle of a stripe."""

    OPEN = "open"          # still accumulating data blocks
    SEALED = "sealed"      # k data blocks collected, eligible for encoding
    ENCODED = "encoded"    # parity written, redundant replicas deleted


@dataclass
class Stripe:
    """A group of ``k`` data blocks that are (or will be) encoded together.

    Attributes:
        stripe_id: Unique identifier.
        k: Data blocks per stripe.
        block_ids: The data blocks collected so far, in arrival order.
        core_rack: The rack holding one replica of every data block (EAR);
            ``None`` under RR.
        target_racks: Racks the post-encoding stripe must stay within
            (Section III-D), or ``None`` when every rack is admissible.
        state: One of :class:`StripeState`.
        parity_block_ids: Parity blocks, populated once encoded.
    """

    stripe_id: int
    k: int
    block_ids: List[BlockId] = field(default_factory=list)
    core_rack: Optional[RackId] = None
    target_racks: Optional[Tuple[RackId, ...]] = None
    state: str = StripeState.OPEN
    parity_block_ids: List[BlockId] = field(default_factory=list)

    def is_full(self) -> bool:
        """True when the stripe holds ``k`` data blocks."""
        return len(self.block_ids) >= self.k

    def all_block_ids(self) -> List[BlockId]:
        """Data blocks followed by parity blocks (stripe order)."""
        return list(self.block_ids) + list(self.parity_block_ids)


@owns("stripes")
class PreEncodingStore:
    """NameNode-side registry of stripes awaiting (or past) encoding.

    The only code that changes a :class:`Stripe`: each mutator is one
    journal record's live path, and replay runs the same transitions.

    Args:
        k: Data blocks per stripe.
    """

    journal = None

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self._stripes: Dict[int, Stripe] = {}
        self._next_id = 0
        self._block_to_stripe: Dict[BlockId, int] = {}

    # ------------------------------------------------------------------
    # Mutators: one record each (test, journal, apply; see
    # :func:`repro.journal.records.commit`)
    # ------------------------------------------------------------------
    @property
    def next_stripe_id(self) -> int:
        """The id the next opened stripe will receive."""
        return self._next_id

    def new_stripe(
        self,
        core_rack: Optional[RackId] = None,
        target_racks: Optional[Sequence[RackId]] = None,
    ) -> Stripe:
        """Open a fresh stripe."""
        return commit(self, NewStripe, (
            self._next_id, self.k, core_rack,
            None if target_racks is None else tuple(target_racks),
        ))

    def restore_stripe(self, stripe: Stripe) -> Stripe:
        """Re-register a stripe with its original id (checkpoint load only)."""
        if stripe.stripe_id in self._stripes:
            raise ValueError(f"stripe {stripe.stripe_id} already registered")
        self._stripes[stripe.stripe_id] = stripe
        for block_id in stripe.block_ids:
            self._block_to_stripe[block_id] = stripe.stripe_id
        self._next_id = max(self._next_id, stripe.stripe_id + 1)
        return stripe

    def resume_ids(self, next_id: int) -> None:
        """Fast-forward the id counter (recovery/checkpoint load only)."""
        self._next_id = max(self._next_id, next_id)

    def add_block(self, stripe_id: int, block_id: BlockId, seal_when_full: bool = True) -> Stripe:
        """Add a block to a stripe; seal automatically when it reaches k."""
        return commit(
            self, StripeAddBlock, (stripe_id, block_id, seal_when_full)
        )

    def seal(self, stripe_id: int) -> Stripe:
        """Explicitly seal a full stripe: the ``SealStripe`` path of
        callers that add blocks with ``seal_when_full=False``.

        Raises:
            ValueError: Unless the stripe is open and holds exactly k
                blocks.
        """
        return commit(self, SealStripe, (stripe_id,))

    # ------------------------------------------------------------------
    # Record transitions (validity test, state change), shared by the
    # mutators above and by replay
    # ------------------------------------------------------------------
    def check_new_stripe(self, fields):
        stripe_id = fields[0]
        if stripe_id in self._stripes:
            return Present(ValueError(f"stripe {stripe_id} already registered"))
        return None

    def apply_new_stripe(self, fields) -> Stripe:
        stripe_id, k, core_rack, target_racks = fields
        stripe = Stripe(
            stripe_id=stripe_id,
            k=k,
            core_rack=core_rack,
            target_racks=None if target_racks is None else tuple(target_racks),
        )
        self._stripes[stripe_id] = stripe
        self._next_id = max(self._next_id, stripe_id + 1)
        return stripe

    def check_stripe_add_block(self, fields):
        stripe_id, block_id, seal_when_full = fields
        stripe = self._stripes.get(stripe_id)
        if stripe is None:
            return self._unknown(stripe_id)
        if block_id in stripe.block_ids:
            return Present(ValueError(
                f"block {block_id} already in stripe {stripe_id}"
            ))
        if stripe.state != StripeState.OPEN:
            return ValueError(f"stripe {stripe_id} is {stripe.state}, not open")
        if len(stripe.block_ids) >= stripe.k:
            return ValueError(
                f"stripe {stripe_id} already holds k={stripe.k} blocks"
            )
        return None

    def apply_stripe_add_block(self, fields) -> Stripe:
        stripe_id, block_id, seal_when_full = fields
        stripe = self._stripes[stripe_id]
        stripe.block_ids.append(block_id)
        self._block_to_stripe[block_id] = stripe_id
        if seal_when_full and len(stripe.block_ids) >= stripe.k:
            stripe.state = StripeState.SEALED
        return stripe

    def check_seal_stripe(self, fields):
        stripe_id, = fields
        stripe = self._stripes.get(stripe_id)
        if stripe is None:
            return self._unknown(stripe_id)
        if stripe.state != StripeState.OPEN:
            return Present(ValueError(
                f"stripe {stripe_id} is {stripe.state}, not open"
            ))
        if len(stripe.block_ids) != stripe.k:
            return ValueError(
                f"stripe {stripe_id} holds {len(stripe.block_ids)} blocks, "
                f"needs exactly k={stripe.k} to seal"
            )
        return None

    def apply_seal_stripe(self, fields) -> Stripe:
        stripe_id, = fields
        stripe = self._stripes[stripe_id]
        stripe.state = StripeState.SEALED
        return stripe

    # The stripe's part of the bundle's ``encode_stripe`` record (see
    # repro.journal.state.Stores): the test and the flip to encoded.
    def check_encode(self, stripe_id: int):
        stripe = self._stripes.get(stripe_id)
        if stripe is None:
            return self._unknown(stripe_id)
        if stripe.state == StripeState.SEALED:
            return None
        error = ValueError(f"stripe {stripe_id} is {stripe.state}, not sealed")
        return Present(error) if stripe.state == StripeState.ENCODED else error

    def apply_encode(
        self, stripe_id: int, parity_block_ids: Sequence[BlockId]
    ) -> Stripe:
        stripe = self._stripes[stripe_id]
        stripe.parity_block_ids = list(parity_block_ids)
        stripe.state = StripeState.ENCODED
        return stripe

    @staticmethod
    def _unknown(stripe_id: int) -> KeyError:
        return KeyError(f"unknown stripe id {stripe_id}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def stripe(self, stripe_id: int) -> Stripe:
        """Look up a stripe by id."""
        try:
            return self._stripes[stripe_id]
        except KeyError:
            raise self._unknown(stripe_id) from None

    def stripe_of_block(self, block_id: BlockId) -> Optional[Stripe]:
        """The stripe a block belongs to, if any."""
        stripe_id = self._block_to_stripe.get(block_id)
        return None if stripe_id is None else self._stripes[stripe_id]

    def in_sealed_stripe(self, block_id: BlockId) -> bool:
        """True when ``block_id`` belongs to a sealed stripe.

        Asked right after a block is placed, this says whether that block
        sealed its stripe, so a loop that places blocks "until n stripes
        have sealed" counts seals as they happen instead of re-listing
        :meth:`sealed_stripes` before every block.
        """
        stripe = self.stripe_of_block(block_id)
        return stripe is not None and stripe.state == StripeState.SEALED

    def stripes(self, state: Optional[str] = None) -> List[Stripe]:
        """All stripes, optionally filtered by state."""
        found = list(self._stripes.values())
        if state is not None:
            found = [s for s in found if s.state == state]
        return found

    def sealed_stripes(self) -> List[Stripe]:
        """Stripes ready for the encoding operation."""
        return self.stripes(StripeState.SEALED)

    def open_stripes(self) -> List[Stripe]:
        """Stripes still accumulating blocks."""
        return self.stripes(StripeState.OPEN)

    def encoded_stripes(self) -> List[Stripe]:
        """Stripes whose encoding has completed."""
        return self.stripes(StripeState.ENCODED)

    def __len__(self) -> int:
        return len(self._stripes)

    def __iter__(self) -> Iterator[Stripe]:
        return iter(list(self._stripes.values()))
