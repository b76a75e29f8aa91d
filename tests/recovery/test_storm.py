"""Fault scenarios: clean outcomes, seeded determinism, honest reports."""

import json
from collections import Counter

import pytest

from repro.recovery import SCENARIO_RUNNERS, run_storm
from repro.recovery.storm import (
    _RESILIENCE_KEYS,
    _payload_sections,
    build_storm_cluster,
    drain,
    encode_all,
    finish_report,
)

#: Small-but-real sizing shared by every test in this module.
KW = {"num_stripes": 2}


class TestScenarios:
    @pytest.mark.parametrize("scenario", SCENARIO_RUNNERS)
    def test_runs_clean_under_ear(self, scenario):
        report = run_storm(scenario, seed=3, policy="ear", **KW)
        assert report.scenario == scenario
        assert report.clean, report.summary()
        assert report.unrecoverable == ()
        assert report.encode_errors == ()
        assert report.stripes_encoded == report.stripes_total

    @pytest.mark.parametrize("scenario", SCENARIO_RUNNERS)
    def test_runs_clean_under_recovery_placement(self, scenario):
        report = run_storm(scenario, seed=3, policy="recovery", **KW)
        assert report.clean, report.summary()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_storm("meteor_strike", seed=0)

    @pytest.mark.parametrize("scenario", SCENARIO_RUNNERS)
    def test_alias_pairs_agree(self, scenario):
        metrics = run_storm(scenario, seed=0, policy="ear", **KW).metrics
        assert metrics["mttr"] == metrics["repair_time_mean"]
        assert metrics.get("corruption_detected") == metrics.get(
            "scrub_detections"
        )
        assert metrics.get("repairs", 0) == metrics["repair_time_count"]


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("scenario", SCENARIO_RUNNERS)
    def test_clean_and_replays(self, scenario, seed):
        first = run_storm(scenario, seed=seed, policy="ear", **KW)
        second = run_storm(scenario, seed=seed, policy="ear", **KW)
        assert first.clean, first.summary()
        assert first.fingerprint == second.fingerprint
        assert first.sim_time == second.sim_time
        assert first.metrics == second.metrics

    def test_different_seeds_diverge(self):
        a = run_storm("single_node_loss", seed=7, policy="ear", **KW)
        b = run_storm("single_node_loss", seed=8, policy="ear", **KW)
        assert a.fingerprint != b.fingerprint

    def test_policies_diverge_on_same_seed(self):
        a = run_storm("rack_loss", seed=7, policy="ear", **KW)
        b = run_storm("rack_loss", seed=7, policy="recovery", **KW)
        assert a.fingerprint != b.fingerprint


class TestReport:
    def test_trial_result_round_trips_through_json(self):
        report = run_storm("scrub_storm", seed=3, policy="ear", **KW)
        result = report.as_trial_result()
        assert json.loads(json.dumps(result, sort_keys=True)) == result
        assert result["fingerprint"] == report.fingerprint

    def test_one_collector_feeds_every_component(self):
        sc = build_storm_cluster("ear", seed=0, **KW)
        metrics = sc.setup.metrics
        assert sc.metrics is metrics
        assert sc.setup.encoder.fault_metrics is metrics
        assert sc.setup.raidnode.fault_metrics is metrics
        assert sc.repair_queue.metrics is metrics
        assert sc.scrubber.metrics is metrics
        assert sc.read_path.metrics is metrics

    def test_fingerprint_sections_split_the_one_summary(self):
        metrics = run_storm("chaos", seed=0, policy="ear", **KW).metrics
        sections = _payload_sections(metrics)
        assert set(sections["resilience"]) <= _RESILIENCE_KEYS
        assert set(sections["resilience"]) | set(sections["recovery"]) == set(
            metrics
        )
        both = set(sections["resilience"]) & set(sections["recovery"])
        assert both == {"repairs"}

    def test_summary_carries_the_recovery_metrics(self):
        report = run_storm("rack_loss", seed=3, policy="ear", **KW)
        summary = report.summary()
        assert summary["scenario"] == "rack_loss"
        assert "repair_time_mean" in summary
        assert "fingerprint" in summary

    def test_scrub_storm_detects_the_planted_corruption(self):
        report = run_storm("scrub_storm", seed=3, policy="ear", **KW)
        assert report.metrics["scrub_detections"] >= 1
        assert report.repair_outcomes.get("decoded", 0) >= 1

    def test_degraded_reads_happen_under_node_loss(self):
        report = run_storm("single_node_loss", seed=3, policy="ear", **KW)
        served = (
            report.read_modes.get("normal", 0)
            + report.read_modes.get("degraded", 0)
        )
        assert served >= 1


class TestLostBlocksCountedOnce:
    def test_three_racks_lost_at_once(self):
        """Past the stripe's budget blocks are truly lost — and each one
        is a single failed repair, listed once."""
        sc = build_storm_cluster(
            "ear", seed=3, num_racks=6, nodes_per_rack=2, num_stripes=4,
            ear_c=1,
        )
        encode_all(sc)
        t0 = sc.sim.now + 5.0
        for rack in (0, 1, 2):
            sc.sim.process(sc.injector.fail_rack_at(t0, rack))
        drain(sc, horizon=600.0)
        report = finish_report(sc, "three_rack_loss", "ear", 3)

        assert not report.clean
        assert len(report.unrecoverable) == report.repair_outcomes[
            "unrecoverable"
        ] > 0
        assert max(Counter(report.unrecoverable).values()) == 1
        # Two racks failing at once can each report a block they shared;
        # the queue repaired (and lost) it once.
        from_injector = {
            block for rep in sc.injector.reports for block in rep.unrecoverable
        }
        assert set(report.unrecoverable) == from_injector
        assert "placement_violations" not in report.summary()


class TestChaosScenario:
    """The chaos drill at its default scale (12 stripes, seed 0)."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_storm("chaos", seed=0)

    def test_drill_is_clean(self, report):
        """Flaps + a rack outage + bit-rot during a live encode lose
        nothing: every stripe ends encoded and no block is unrecoverable."""
        assert report.unrecoverable == ()
        assert report.encode_errors == ()
        assert report.stripes_encoded == report.stripes_total == 12
        assert report.clean

    def test_chaos_actually_bit(self, report):
        """The faults were real: transfers aborted, retries fired, rot was
        injected and caught, and repairs ran."""
        metrics = report.metrics
        assert metrics["aborts"] >= 1
        assert metrics["retries"] >= 1
        assert metrics["corruption_injected"] == 3
        assert metrics["corruption_detected"] == 3
        assert metrics["repairs"] >= 1
        assert metrics["outages"] >= 1
        assert "data_loss" not in metrics
        assert report.repair_outcomes["unrecoverable"] == 0

    def test_retries_are_bounded(self, report):
        """Retries converge instead of thrashing: well under the budget of
        max_attempts per repaired/re-encoded block."""
        assert report.metrics["retries"] <= 8 * report.blocks_total

    def test_same_seed_is_bit_identical(self, report):
        replay = run_storm("chaos", seed=0)
        assert replay.fingerprint == report.fingerprint
        assert replay.summary() == report.summary()

    def test_different_seed_diverges(self, report):
        other = run_storm("chaos", seed=3)
        assert other.clean
        assert other.fingerprint != report.fingerprint


class TestHeadToHeadPremise:
    def test_recovery_placement_repairs_rack_loss_faster_than_ear(self):
        """The ISSUE acceptance criterion, at drill scale: spreading one
        block per rack dilutes uplink contention between concurrent
        reconstructions, so the recovery policy's mean repair time under
        a whole-rack loss beats EAR's concentrated layout."""
        means = {}
        for policy in ("ear", "recovery"):
            report = run_storm(
                "rack_loss", seed=0, policy=policy, num_stripes=4
            )
            assert report.clean, report.summary()
            means[policy] = report.metrics["repair_time_mean"]
        assert means["recovery"] < means["ear"]
