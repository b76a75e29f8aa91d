"""The builtin rule pack; importing this package registers every rule."""

from repro.lint.rules import (
    determinism,
    exceptions,
    floats,
    hygiene,
    journal,
    resources,
)

__all__ = [
    "determinism",
    "exceptions",
    "floats",
    "hygiene",
    "journal",
    "resources",
]
