"""Golden identity of the simulator hot path.

Every change to the link arbiter's wait queue, the JobTracker's dispatch
scan, the kernel's run loop or ``Network.transfer`` must leave seeded runs
where they were: the same grant order means the same ``(time, seq)`` for
every later event, hence the same job finish times, the same traffic
totals and the same number of processed events.  The values below must
never be re-recorded to make a change pass — a moved value means a grant,
an rng draw or a same-time event changed order.  Their history: recorded
on the list-scan ``MultiResource`` with a restarting
``JobTracker._dispatch``; the SWIM rows and the largescale event counts
re-recorded once, when a link hold became one kernel event (grants by
callback, no transfer relays, started flows opened at the call), which
processes fewer events and reorders same-instant grants of the SWIM
shuffle; the largescale traffic and times did not move.
"""

import hashlib

import pytest

from repro.erasure.codec import CodeParams
from repro.experiments import largescale, testbed
from repro.experiments.config import LargeScaleConfig
from repro.experiments.runner import build_cluster
from repro.sim.metrics import measure_ops

SWIM_JOBS = 100

SMALL = LargeScaleConfig(
    num_racks=8,
    nodes_per_rack=4,
    code=CodeParams(6, 4),
    num_encoding_processes=4,
    stripes_per_process=5,
)


def capture_setups(module, monkeypatch):
    """Every ``ClusterSetup`` the experiment module builds from here on."""
    setups = []

    def capturing_build(*args, **kwargs):
        setups.append(build_cluster(*args, **kwargs))
        return setups[-1]

    monkeypatch.setattr(module, "build_cluster", capturing_build)
    return setups


def stats_tuple(stats):
    return (
        stats.transfers,
        stats.bytes_total.hex(),
        stats.cross_rack_transfers,
        stats.bytes_cross_rack.hex(),
        stats.aborted,
    )


def swim_digest(policy: str, seed: int, monkeypatch):
    """(sha of the job records, network totals, events processed)."""
    setups = capture_setups(testbed, monkeypatch)
    with measure_ops() as measured:
        records = testbed.run_mapreduce_workload(
            policy, num_jobs=SWIM_JOBS, seed=seed
        )
    (setup,) = setups
    jobs = hashlib.sha256(repr([
        (r.job_id, r.submit_time.hex(), r.finish_time.hex()) for r in records
    ]).encode()).hexdigest()
    return jobs, stats_tuple(setup.network.stats), measured.get("sim.events")


def largescale_digest(policy: str, monkeypatch):
    setups = capture_setups(largescale, monkeypatch)
    with measure_ops() as measured:
        result = largescale.run_largescale(policy, SMALL, seed=0)
    (setup,) = setups
    return (
        result.encoding_time.hex(),
        result.mean_write_rt.hex(),
        result.cross_rack_downloads,
        result.cross_rack_uploads,
        result.stripes_encoded,
        stats_tuple(setup.network.stats),
        measured.get("sim.events"),
    )


#: (policy, seed) -> (jobs sha, Network.stats, sim.events)
SWIM_GOLDEN = {
    ("rr", 0): (
        "c1cbe881882218d7e5906f246ac56b4c1e6d9b81b0e55e2ddc42b8430875ac45",
        (1097, "0x1.b673623e21d6ep+34", 1097, "0x1.b673623e21d6ep+34", 0),
        4457,
    ),
    ("rr", 1): (
        "ff6b7920b9700762005fde7652bbf34da1a1ac6f306af4496235e29b93665ed5",
        (642, "0x1.689e2aba45ce1p+34", 642, "0x1.689e2aba45ce1p+34", 0),
        3514,
    ),
    ("ear", 0): (
        "5956661461bc1afb5fdcd18834d2f32a787d63815013006935593f9d2aab126c",
        (1084, "0x1.b2540dc23c0a1p+34", 1084, "0x1.b2540dc23c0a1p+34", 0),
        4448,
    ),
    ("ear", 1): (
        "708c03a0e71625832be3a7b6ad4bac4bbee89cf5ee94ddb954064528379fcdc0",
        (648, "0x1.6a948ad933ba8p+34", 648, "0x1.6a948ad933ba8p+34", 0),
        3522,
    ),
}

#: policy -> (encoding time, mean write response time, cross-rack
#: downloads, uploads, stripes encoded, Network.stats, sim.events)
LARGESCALE_GOLDEN = {
    "rr": (
        "0x1.5f39d03694f80p+4", "0x1.2b7af32a01fafp+1", 59, 38, 20,
        (207, "0x1.a6046971162adp+33", 137, "0x1.0a3288cab273bp+33", 0),
        431,
    ),
    "ear": (
        "0x1.ffecb733c7109p+3", "0x1.31df31d088b01p+1", 0, 40, 20,
        (180, "0x1.7038e0ad79475p+33", 71, "0x1.18022999e1fffp+32", 0),
        372,
    ),
}


@pytest.mark.parametrize("policy,seed", sorted(SWIM_GOLDEN))
def test_swim_jobs_finish_when_they_did(policy, seed, monkeypatch):
    assert swim_digest(policy, seed, monkeypatch) == SWIM_GOLDEN[policy, seed]


@pytest.mark.parametrize("policy", sorted(LARGESCALE_GOLDEN))
def test_largescale_traffic_is_where_it_was(policy, monkeypatch):
    assert largescale_digest(policy, monkeypatch) == LARGESCALE_GOLDEN[policy]
