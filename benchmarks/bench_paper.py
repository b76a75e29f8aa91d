"""Every CLI-backed paper artefact at bench scale: one test id per row.

Each row of ``repro.experiments.artefacts.ARTEFACTS`` (Fig. 3, Theorem 1,
Figs. 8-10, Fig. 12 with Table I, Fig. 13(a-f), Figs. 14-15) runs once at
its ``bench`` scale, prints the table ``repro <command>`` prints under the
row's title, and fails with the messages of the row's failed shape
checks.  ``pytest benchmarks/bench_paper.py -k A1a`` runs one row.
"""

import pytest

from repro.experiments.artefacts import ARTEFACTS

from .conftest import emit, run_once


@pytest.mark.parametrize("artefact", ARTEFACTS, ids=[a.id for a in ARTEFACTS])
def test_artefact(benchmark, artefact):
    result = run_once(benchmark, lambda: artefact.run(**artefact.bench))
    emit(artefact.title, artefact.format(result))
    failures = artefact.claim(result)
    assert not failures, "\n".join(failures)
