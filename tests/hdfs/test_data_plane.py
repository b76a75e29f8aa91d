"""StreamingDataPlane wired through the StripeEncoder.

The simulation's archival encode path consumes real byte streams when a
data plane is attached: parity payloads are computed chunk-at-a-time from
the stripe's block payloads and committed against the parity block ids
``record_encoding`` mints — every encoded stripe then verifies at the byte
level and survives degraded reconstruction.
"""

import pytest

from repro.erasure.codec import CodeParams
from repro.erasure.stream import StreamingDataPlane

from tests.hdfs.test_encoder import CODE, build


def encode_all(policy_name, plane_kwargs=None, seed=1):
    sim, net, nn, encoder, __, __timeline = build(policy_name, seed=seed)
    plane = StreamingDataPlane(
        CODE, chunk_size=1024, bytes_per_block=4096,
        **(plane_kwargs or {}),
    )
    encoder.data_plane = plane
    stripes = nn.sealed_stripes()
    for stripe in stripes:
        sim.process(encoder.encode_stripe(stripe))
    sim.run()
    return plane, stripes


class TestDataPlaneThroughEncoder:
    @pytest.mark.parametrize("policy_name", ["rr", "ear"])
    def test_every_encoded_stripe_verifies(self, policy_name):
        plane, stripes = encode_all(policy_name)
        assert stripes
        for stripe in stripes:
            assert len(stripe.parity_block_ids) == CODE.num_parity
            assert plane.verify_stripe(stripe)

    def test_parity_payloads_committed_under_minted_ids(self):
        plane, stripes = encode_all("ear")
        for stripe in stripes:
            data_length = max(
                len(plane.payloads[block_id])
                for block_id in stripe.block_ids
            )
            for block_id in stripe.parity_block_ids:
                payload = plane.payloads[block_id]
                assert len(payload) == data_length

    def test_degraded_reconstruction_round_trips(self):
        plane, stripes = encode_all("ear")
        stripe = stripes[0]
        original = plane.payloads[stripe.block_ids[0]]
        # Lose data shard 0 and one more shard; rebuild from survivors.
        rebuilt = plane.decode_block(stripe, 0, exclude=[1])
        assert rebuilt == original

    def test_payload_synthesis_is_deterministic(self):
        first, stripes_a = encode_all("ear", plane_kwargs={"seed": 42})
        second, stripes_b = encode_all("ear", plane_kwargs={"seed": 42})
        ids_a = [s.block_ids for s in stripes_a]
        ids_b = [s.block_ids for s in stripes_b]
        assert ids_a == ids_b
        for stripe in stripes_a:
            for block_id in stripe.all_block_ids():
                assert first.payloads[block_id] == second.payloads[block_id]

    def test_different_seed_different_bytes(self):
        first, stripes = encode_all("ear", plane_kwargs={"seed": 1})
        second, __ = encode_all("ear", plane_kwargs={"seed": 2})
        block_id = stripes[0].block_ids[0]
        assert first.payloads[block_id] != second.payloads[block_id]


class TestDataPlaneUnit:
    def test_put_overrides_synthesis(self):
        plane = StreamingDataPlane(CodeParams(6, 4), bytes_per_block=64)
        plane.put(9, b"real bytes")
        assert plane.payload_for(9, 4096) == b"real bytes"

    def test_commit_parity_shape_mismatch(self):
        plane = StreamingDataPlane(CodeParams(6, 4))
        with pytest.raises(ValueError):
            plane.commit_parity([], [b"x"])

    def test_bytes_per_block_cap(self):
        plane = StreamingDataPlane(CodeParams(6, 4), bytes_per_block=128)
        assert len(plane.payload_for(1, 1 << 20)) == 128
        assert len(plane.payload_for(2, 64)) == 64

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            StreamingDataPlane(CodeParams(6, 4), bytes_per_block=0)
