"""The builtin rule pack; importing this package registers every rule.

The per-file rules live here; the interprocedural SIM1xx/PAR1xx/JRN1xx
packs live under :mod:`repro.lint.project` (they need the project
model) but are imported here so one import registers everything.
"""

from repro.lint.rules import (
    determinism,
    exceptions,
    floats,
    hygiene,
    journal,
    resources,
)
from repro.lint.project import (
    rules_jrn,
    rules_par,
    rules_sim,
)

__all__ = [
    "determinism",
    "exceptions",
    "floats",
    "hygiene",
    "journal",
    "resources",
    "rules_jrn",
    "rules_par",
    "rules_sim",
]
