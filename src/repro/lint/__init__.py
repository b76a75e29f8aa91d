"""reprolint — AST-based determinism & resource-safety linter.

EAR's claims (zero cross-rack encoding traffic, the Theorem-1 redraw
bounds, RR-equivalent load balance) are validated by *seeded*
discrete-event simulation: an unseeded RNG, a wall-clock read inside the
simulator, or a leaked link claim silently invalidates experiment results
without failing a single test.  reprolint walks the ``ast`` of every
module and enforces the invariants that keep runs byte-reproducible and
resource-safe:

========  ==============================================================
rule id   enforces
========  ==============================================================
DET001    no module-level / unseeded ``random`` use — randomness must
          flow through an injected, seeded ``random.Random``
DET002    no wall-clock reads or sleeps (``time.time``, ``time.sleep``,
          ``datetime.now``, …) anywhere in the configured packages —
          the whole ``repro`` package here; simulated time is ``sim.now``
DET003    no iteration over ``set`` values feeding ordered decisions
          without an explicit ``sorted(...)``
RES001    every ``acquire``/``request`` claim released under
          ``try/finally`` (the static form of PR 1's link-claim leak)
EXC001    no ``except Exception``/bare ``except`` that swallows
          ``TransferAborted``/``SimulationError`` without re-raise or
          use of the caught exception
FLT001    no ``==``/``!=`` between simulated-time floats
HYG001    no mutable default arguments
HYG002    no shadowed builtins
JRN001    journal records are frozen, JSON-serializable dataclasses
========  ==============================================================

Whole-program properties are checked at run time instead: the
write-ahead journal by ``tests/journal/test_write_ahead.py`` (replay
equals live state at every record, every record type produced and
handled), and fork safety of sweep trials by ``TrialSpec`` validation
plus the ``workers=N ≡ workers=0`` identity checks.

Findings are suppressible per line (``# reprolint: disable=RID``) or per
file (``# reprolint: disable-file=RID``); configuration lives in
``[tool.reprolint]`` of ``pyproject.toml``.  Run it as
``python -m repro lint [--fail-on warning] [--format json] src/repro``
(the handler is ``repro.cli.cmd_lint``).  Exit status is 1 when any
finding meets the fail threshold (``error`` by default, overridden by
``--fail-on`` or ``fail-on`` in pyproject), else 0 — that is the whole CI
contract.
"""

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, lint_paths, lint_source
from repro.lint.model import Finding, Rule, Severity, all_rules, get_rule, register
from repro.lint.reporters import json_report, text_report

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "json_report",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
    "text_report",
]
