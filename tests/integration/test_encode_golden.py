"""Golden identity of the stripe-encode engines.

Every change to the encode ladder, the source veto or the commit step
must leave seeded runs where they were: the same encoder node and finish
time per stripe, the same retained replicas and parity nodes, the same
re-plan / fallback counts and the same storm fingerprints.  The values
below were recorded at the parent of PR 20 (before ``StripeEncoder``
became the one engine) and must never be re-recorded to make a change
pass — a moved value means a different rng draw sequence, a different
source choice or a different event order.
"""

import hashlib

import pytest

from repro.erasure.codec import CodeParams
from repro.experiments import largescale
from repro.experiments.config import LargeScaleConfig
from repro.experiments.runner import build_cluster
from repro.pipeline.headtohead import pipeline_trial
from repro.recovery.storm import SCENARIO_RUNNERS, run_storm

SMALL = LargeScaleConfig(
    num_racks=8,
    nodes_per_rack=4,
    code=CodeParams(6, 4),
    num_encoding_processes=4,
    stripes_per_process=5,
)


def largescale_digest(policy: str, monkeypatch) -> str:
    """SHA-256 over what the ``retry=None``, unpinned encode path did."""
    setups = []

    def capturing_build(*args, **kwargs):
        setups.append(build_cluster(*args, **kwargs))
        return setups[-1]

    monkeypatch.setattr(largescale, "build_cluster", capturing_build)
    result = largescale.run_largescale(policy, SMALL, seed=0)
    (setup,) = setups
    store = setup.namenode.block_store
    digest = hashlib.sha256()
    digest.update(repr((
        result.encoding_time.hex(),
        result.cross_rack_downloads,
        result.cross_rack_uploads,
        result.stripes_encoded,
    )).encode())
    for record in setup.encoder.records:
        digest.update(repr((
            record.stripe_id, record.encoder_node, record.finish_time.hex(),
        )).encode())
    for stripe in setup.namenode.sealed_stripes()[: SMALL.total_stripes]:
        digest.update(repr([
            store.replica_nodes(block_id)
            for block_id in stripe.all_block_ids()
        ]).encode())
    return digest.hexdigest()


LARGESCALE_GOLDEN = {
    "rr":
        "74fe457f742124258f9d4f479a17a282317d78ed3fd7acbb15015476a3250d68",
    "ear":
        "b2f6bc58d9c0233f12cae63f8d16fd413815c141a59cb2d1306708adcd1f9847",
}

#: (contender, seed) -> (fingerprint, fallbacks, replans, encode_window);
#: seed 7 is the first whose node kill forces three re-plans.
PIPELINE_GOLDEN = {
    ("rr", 0): (
        "08bac37e7bb9b8232884cefcf89a0839e954ccc6b8bf019bc4a30256a303a2ac",
        0, 0, "11.264000000000003",
    ),
    ("rr", 1): (
        "14ab5139fa6d1c0d317346ab0d9364f3b72be4aeeb4c3259e834ee4605cc5117",
        0, 0, "10.348002463350287",
    ),
    ("ear", 0): (
        "6f91a677f996fd05856a2660fbe5de8528405550339b2465f8dcdbb846add30b",
        0, 0, "7.4",
    ),
    ("ear", 1): (
        "b0664a79c967b91a205e3d991182f5fb51d926dcd8baa4a37076534794e3f43a",
        0, 0, "7.425512681386477",
    ),
    ("pipeline", 0): (
        "8c0aef2c0d81e2678a041260ae830475062a15da1fca484a91d9b1bb99519204",
        0, 1, "7.7840000000000025",
    ),
    ("pipeline", 1): (
        "ed65589d677f18107878bb8b873baf20d144d89052ecd96d51f475a7c1580c2f",
        0, 1, "6.504000000000001",
    ),
    ("pipeline", 7): (
        "5712ed5ae9b1880610a35506f84d903f3a861def1ad8d4f23aa16c8874f263fe",
        0, 3, "16.1363668362336",
    ),
}

STORM_GOLDEN = {
    "single_node_loss":
        "2b661b329498e3881e5d835623dd34acebebf7c96367c051c35648e129b51c2d",
    "rack_loss":
        "d5b856b8fc5ae9bd740b069573eb464eb8de7f3fba310b0735d19a3d95333e2d",
    "scrub_storm":
        "5fb61693e8e2ad011dc2311c8904652a41b6147706aed7e9e3139f10563ed29b",
    "rolling_failures":
        "f237553e6f863981cd2a4ea87f30ad4d84c934dc6a2d652fc9fa07f4e8d1a390",
    "chaos":
        "44887ee421d77fd0b1df09285a000716feebe7b9631d692f28db6c9e1b84b314",
}


@pytest.mark.parametrize("policy", sorted(LARGESCALE_GOLDEN))
def test_largescale_plain_path_is_where_it_was(policy, monkeypatch):
    assert largescale_digest(policy, monkeypatch) == LARGESCALE_GOLDEN[policy]


@pytest.mark.parametrize("contender,seed", sorted(PIPELINE_GOLDEN))
def test_disturbed_pipeline_trial_is_where_it_was(contender, seed):
    result = pipeline_trial(contender=contender, seed=seed, disturb=True)
    assert (
        result["fingerprint"],
        result["pipeline_fallbacks"],
        result["pipeline_replans"],
        result["encode_window"],
    ) == PIPELINE_GOLDEN[contender, seed]


def test_every_storm_scenario_has_a_golden():
    assert sorted(STORM_GOLDEN) == sorted(SCENARIO_RUNNERS)


@pytest.mark.parametrize("scenario", sorted(STORM_GOLDEN))
def test_storm_fingerprint_is_where_it_was(scenario):
    report = run_storm(scenario, seed=0, num_stripes=4)
    assert report.fingerprint == STORM_GOLDEN[scenario]
