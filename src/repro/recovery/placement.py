"""Recovery-aware placement: spread encoded stripes for repair parallelism.

EAR concentrates each stripe — primary replicas in a core rack, up to
``c`` retained blocks (and reserved parity slots) per rack — which
minimizes the *encoding* traffic the paper optimizes.  But concentration
is exactly wrong for *recovery*: when a rack dies, every stripe with two
blocks there must decode twice, and a reconstruction reading two
survivors from one rack serializes on that rack's uplink.  The D3 paper
(Xu et al., PAPERS.md) shows deterministic spread placements cut repair
time by integer factors for the same reason.

:class:`RecoveryAwareReplication` keeps EAR's machinery — core-rack
primaries (so encoding map tasks still read locally), flow-graph
validated layouts, one retention matching per open stripe — but pins the
post-encoding layout to **one block per rack** regardless of the
deployment's nominal cap, and disables the core-rack parity reservation
so parity spreads with the data.  The trade: stripes span more racks
(needs ``n`` racks instead of ``ceil(n/c)``) and parity uploads and
survivor fetches pay more cross-rack bytes, bought back as at most one
lost block per stripe per rack failure — far less time at margin zero
after a rack loss.  It does not buy faster repairs: in the storm
harness its mean repair time after a rack loss is lower than EAR's on
about half the seeds.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.cluster.topology import ClusterTopology
from repro.core.ear import EncodingAwareReplication
from repro.core.policy import ReplicationScheme, TWO_RACKS


class RecoveryAwareReplication(EncodingAwareReplication):
    """EAR variant that spreads encoded stripes one block per rack.

    Args:
        topology: Cluster layout; needs at least ``code.n`` racks (the
            spread constraint is a hard one-per-rack cap).
        code: The erasure code the stripes will be encoded with.
        scheme: Replication scheme used before encoding.
        rng: Random source for layout draws.
        store: Optional shared pre-encoding store.
        c: The *nominal* deployment cap, kept for reporting and for
            head-to-head comparability with EAR; placement always uses
            the stricter one-per-rack spread.
        num_target_racks: Optional cap on candidate target racks per
            stripe (as in EAR).

    The class inherits ``policy.c == 1``, so downstream consumers — the
    repair queue's replacement-node rule, the placement monitor — hold
    repaired stripes to the same spread invariant automatically.
    """

    name = "recovery"

    def __init__(
        self,
        topology: ClusterTopology,
        code,
        scheme: ReplicationScheme = TWO_RACKS,
        rng: Optional[random.Random] = None,
        store=None,
        c: int = 1,
        num_target_racks: Optional[int] = None,
    ) -> None:
        if c < 1:
            raise ValueError("nominal cap c must be at least 1")
        super().__init__(
            topology,
            code,
            scheme=scheme,
            rng=rng,
            store=store,
            c=1,
            num_target_racks=num_target_racks,
            reserve_core_for_parity=False,
        )
        #: The cap an equivalent EAR deployment would run with; the
        #: placement itself always enforces the spread (c=1).
        self.nominal_c = c
