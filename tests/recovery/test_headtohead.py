"""Head-to-head grids through the sweep executor: identity across workers."""

from repro.recovery import head_to_head, head_to_head_rows, storm_trial

#: One tiny cell (single code, both placement policies, one seed) keeps
#: the executor identity check honest without a multi-second grid.
CELL = {
    "scenario": "rack_loss",
    "policies": ("ear", "recovery"),
    "codes": (("rs_6_4", 6, 4),),
    "seeds": (0,),
    "num_racks": 8,
    "num_stripes": 2,
}


class TestStormTrial:
    def test_trial_is_a_pure_function_of_its_config(self):
        kwargs = dict(
            seed=0, scenario="rack_loss", policy="ear",
            code_label="rs_6_4", code_n=6, code_k=4,
            num_racks=8, num_stripes=2,
        )
        assert storm_trial(**kwargs) == storm_trial(**kwargs)

    def test_trial_result_carries_code_label(self):
        result = storm_trial(
            seed=0, scenario="rack_loss", policy="ear",
            code_label="rs_6_4", code_n=6, code_k=4,
            num_racks=8, num_stripes=2,
        )
        assert result["code"] == "rs_6_4"
        assert result["policy"] == "ear"


class TestExecutorIdentity:
    def test_sequential_matches_parallel_byte_for_byte(self):
        sequential = head_to_head(**CELL, workers=0)
        parallel = head_to_head(**CELL, workers=2)
        assert sequential == parallel

    def test_rows_flatten_the_grid(self):
        results = head_to_head(**CELL)
        rows = head_to_head_rows(results)
        assert len(rows) == 2
        assert {row["policy"] for row in rows} == {"ear", "recovery"}
