"""Crash-matrix differential: every commit-stage crash point recovers."""

import pytest

from repro.faults.crash import run_crash_matrix, run_crash_workload
from repro.journal import verify_journal
from repro.journal.crashpoints import CRASH_PHASES
from repro.journal.wal import scan_journal


def test_workload_is_deterministic(tmp_path):
    a = run_crash_workload(str(tmp_path / "a"), seed=5)
    b = run_crash_workload(str(tmp_path / "b"), seed=5)
    a.journal.close()
    b.journal.close()
    assert a.final_fingerprint == b.final_fingerprint
    assert a.last_seq == b.last_seq


def test_different_seeds_diverge(tmp_path):
    a = run_crash_workload(str(tmp_path / "a"), seed=5)
    b = run_crash_workload(str(tmp_path / "b"), seed=6)
    a.journal.close()
    b.journal.close()
    assert a.final_fingerprint != b.final_fingerprint


@pytest.mark.parametrize(
    "seed,checkpoint_midway", [(101, False), (202, True)]
)
def test_matrix_recovers_every_crash_point(tmp_path, seed, checkpoint_midway):
    report = run_crash_matrix(
        seed, str(tmp_path), checkpoint_midway=checkpoint_midway
    )
    assert report.clean, report.summary()
    covered = {case.point.phase for case in report.cases}
    assert covered == set(CRASH_PHASES)
    logged = scan_journal(str(tmp_path / "golden")).envelopes
    types = {envelope["type"] for envelope in logged}
    assert {"allocate_block", "encode_stripe"} <= types
    stages = {
        envelope["seq"] for envelope in logged
        if envelope["type"] in ("allocate_block", "encode_stripe")
    }
    assert stages <= {case.point.seq for case in report.cases}


def test_matrix_journals_all_pass_verify(tmp_path):
    run_crash_matrix(303, str(tmp_path), phases=("after",))
    checked = 0
    for entry in sorted(p for p in tmp_path.iterdir() if p.is_dir()):
        report = verify_journal(str(entry))
        assert report.ok, f"{entry}: {report.summary()}"
        checked += 1
    assert checked > 2  # golden plus at least two crash cases
