"""Policy head-to-heads: the same storm under rr / ear / recovery placement.

The question the recovery engine exists to answer: *how much repair
speed does EAR's encoding-friendly concentration cost, and what does the
recovery-aware spread buy back?*  This module runs one storm scenario
across a code × policy × seed grid through
:func:`~repro.parallel.executor.run_grid`, so the comparison rides the
sweep executor — parallel across processes and differentially
checked against the in-process oracle under ``REPRO_PARALLEL_CHECK=1``.

``storm_trial`` is the module-level trial callable (workers must be able
to unpickle it); its result is the storm report's JSON-round-trippable
form, so byte-identical results across ``--workers 0`` and ``--workers
4`` are part of the engine's acceptance contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.erasure.codec import CodeParams
from repro.parallel.executor import SweepExecutor, run_grid
from repro.recovery.storm import run_storm

#: (label, n, k) rows of the default head-to-head code grid: the paper's
#: (14,10) RS deployment and an LRC-shaped (16,12) geometry (12 data +
#: 2 local + 2 global parities modelled through the generic code path).
DEFAULT_CODES: Tuple[Tuple[str, int, int], ...] = (
    ("rs_14_10", 14, 10),
    ("lrc_16_12", 16, 12),
)

#: Placement policies compared by default.
DEFAULT_POLICIES: Tuple[str, ...] = ("rr", "ear", "recovery")


def storm_trial(
    seed: int = 0,
    scenario: str = "rack_loss",
    policy: str = "ear",
    code_label: str = "rs_14_10",
    code_n: int = 14,
    code_k: int = 10,
    num_racks: int = 18,
    num_stripes: int = 4,
    **cluster,
) -> Dict[str, object]:
    """One storm run as a sweep trial (module-level, picklable).

    The code is passed as ``(code_n, code_k)`` integers so the trial
    config stays plain data; ``code_label`` carries the human name into
    the result.
    ``cluster`` goes on to the scenario and its cluster build.
    """
    report = run_storm(
        scenario,
        seed=seed,
        policy=policy,
        code=CodeParams(code_n, code_k),
        num_racks=num_racks,
        num_stripes=num_stripes,
        **cluster,
    )
    result = report.as_trial_result()
    result["code"] = code_label
    return result


def head_to_head(
    scenario: str = "rack_loss",
    policies: Sequence[str] = DEFAULT_POLICIES,
    codes: Sequence[Tuple[str, int, int]] = DEFAULT_CODES,
    seeds: Sequence[int] = (0,),
    workers: Optional[int] = None,
    **cluster,
) -> List[Dict[str, object]]:
    """Run one scenario over the codes × policies × seeds grid.

    ``cluster`` overrides :func:`storm_trial`'s sizing (``num_racks``,
    ``num_stripes``, ``nodes_per_rack``, ``block_size``, ``ear_c``, ...)
    for every cell.  ``workers`` of ``None`` or ``0`` runs in-process, larger
    values fan trials out to worker processes; results come back in grid
    order either way, so any two runs are comparable element by element.
    """
    return run_grid(
        storm_trial,
        axes={
            ("code_label", "code_n", "code_k"): codes,
            "policy": policies,
        },
        seeds=seeds,
        fixed={"scenario": scenario, **cluster},
        tag="storm.{scenario}.{code_label}.{policy}",
        executor=SweepExecutor(workers=workers or 0),
    )


def head_to_head_rows(
    results: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Flatten head-to-head results into CLI table rows."""
    rows: List[Dict[str, object]] = []
    for result in results:
        recovery = result.get("recovery", {})
        rows.append({
            "scenario": result["scenario"],
            "code": result.get("code", "?"),
            "policy": result["policy"],
            "seed": result["seed"],
            "clean": result["clean"],
            "sim_time": result["sim_time"],
            "repair_time_mean": recovery.get("repair_time_mean", "0"),
            "repair_time_p95": recovery.get("repair_time_p95", "0"),
            "cross_rack_repair_bytes": recovery.get(
                "cross_rack_repair_bytes", "0"
            ),
            "time_at_margin_zero": recovery.get("time_at_margin_zero", "0"),
            "fingerprint": str(result["fingerprint"])[:16],
        })
    return rows
