"""Sort-and-recount reference for ``RepairQueue`` dispatch (test oracle only).

This is the rule the repair queue ran before its dispatch was indexed: on
every wakeup, sort the pending blocks that are not already under repair by
``(margin, stripe_rank, block_id)``, recounting each margin from the block
store — an encoded stripe's members that still hold a copy, minus ``k``;
otherwise the block's replicas minus one.  The production queue keeps the
counts live and the waiting blocks in a heap, and must start the *same
block* at every dispatch.
"""

from repro.core.stripe import StripeState


def recount_margin(namenode, block_id):
    """Copies above the decode threshold, counted member by member."""
    store = namenode.block_store
    stripe = namenode.stripe_of(block_id)
    if stripe is not None and stripe.state == StripeState.ENCODED:
        survivors = sum(
            1 for member in stripe.all_block_ids()
            if store.replica_count(member)
        )
        return survivors - stripe.k
    return store.replica_count(block_id) - 1


def reference_key(namenode, block_id):
    stripe = namenode.stripe_of(block_id)
    rank = -1 if stripe is None else stripe.stripe_id
    return (recount_margin(namenode, block_id), rank, block_id)


def reference_order(namenode, waiting):
    """The waiting blocks in the order the sort-and-recount rule starts."""
    return sorted(waiting, key=lambda b: reference_key(namenode, b))


def live_member_mismatches(block_store, stripe_store):
    """Stripes whose O(1) live-member count differs from a recount.

    Returns ``{stripe_id: (kept, recounted)}``; empty when every count
    agrees.
    """
    if stripe_store is None:
        return {}
    wrong = {}
    for stripe in stripe_store.stripes():
        recounted = sum(
            1 for member in stripe.all_block_ids()
            if block_store.replica_count(member)
        )
        kept = block_store.live_members(stripe.stripe_id)
        if kept != recounted:
            wrong[stripe.stripe_id] = (kept, recounted)
    return wrong
