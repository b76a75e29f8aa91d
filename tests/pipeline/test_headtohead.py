"""Head-to-head grid: determinism across executor paths, field contract.

The acceptance property from the parallel engine carries over: the
in-process pass and the worker-process pass must produce
byte-identical JSON, and every trial's fingerprint must be stable across
re-runs of the same seed.
"""

import json

from repro.pipeline.headtohead import (
    CONTENDERS,
    head_to_head,
    head_to_head_rows,
    pipeline_trial,
)

SMALL = dict(num_racks=6, nodes_per_rack=4, num_stripes=4)


class TestTrial:
    def test_trial_is_deterministic(self):
        first = pipeline_trial(seed=0, contender="pipeline", **SMALL)
        again = pipeline_trial(seed=0, contender="pipeline", **SMALL)
        assert first == again

    def test_trial_json_round_trips(self):
        result = pipeline_trial(seed=0, contender="pipeline", **SMALL)
        assert json.loads(json.dumps(result)) == result

    def test_pipeline_trial_verifies_all_parity(self):
        result = pipeline_trial(
            seed=0, contender="pipeline", disturb=False, **SMALL
        )
        assert result["clean"]
        assert result["parity_verified"] == result["stripes_encoded"] > 0

    def test_download_contenders_skip_verification(self):
        result = pipeline_trial(seed=0, contender="ear", **SMALL)
        assert result["parity_verified"] == 0
        assert result["strategy"] == "download"

    def test_unknown_contender_rejected(self):
        try:
            pipeline_trial(contender="carrier-pigeon")
        except ValueError as exc:
            assert "carrier-pigeon" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_disturbed_trial_exercises_the_retry_ladder(self):
        result = pipeline_trial(seed=0, contender="pipeline", disturb=True)
        assert result["clean"]
        assert result["pipeline_replans"] + result["pipeline_fallbacks"] >= 1


class TestGrid:
    def test_grid_covers_contenders_times_seeds(self):
        results = head_to_head(seeds=(0, 1), disturb=False, **SMALL)
        assert [(r["contender"], r["seed"]) for r in results] == [
            (contender, seed) for contender in CONTENDERS for seed in (0, 1)
        ]

    def test_workers_zero_and_two_byte_identical(self):
        in_process = head_to_head(seeds=(0,), workers=0, **SMALL)
        pooled = head_to_head(seeds=(0,), workers=2, **SMALL)
        assert json.dumps(in_process, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_rows_flatten_every_result(self):
        results = head_to_head(seeds=(0,), disturb=False, **SMALL)
        rows = head_to_head_rows(results)
        assert [row["contender"] for row in rows] == list(CONTENDERS)
        for row in rows:
            assert row["clean"] is True

    def test_pipeline_beats_rr_core_traffic_undisturbed(self):
        results = {
            r["contender"]: r
            for r in head_to_head(seeds=(0,), disturb=False, **SMALL)
        }
        rr_core = float(results["rr"]["core_bytes"])
        pipe_core = float(results["pipeline"]["core_bytes"])
        assert pipe_core < rr_core
        rr_window = float(results["rr"]["encode_window"])
        pipe_window = float(results["pipeline"]["encode_window"])
        assert pipe_window < rr_window
