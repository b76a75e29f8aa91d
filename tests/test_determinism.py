"""Source hazards that would break a seeded run's byte-for-byte output.

Every figure, golden and fingerprint in this repository is a pure function
of its seed.  This test parses every module under ``src/repro`` with the
standard-library ``ast`` and fails on the patterns that have broken that
contract, a range check, or the journal's one mutation path before:

* DET001: a draw from a process-global RNG (``random.choice``, legacy
  ``numpy.random.*``) or an RNG built without a seed (``random.Random()``,
  ``numpy.random.default_rng()``).  Randomness flows through an injected,
  seeded ``random.Random``.
* DET002: a wall-clock read or sleep (any ``time.*`` call,
  ``datetime.now`` / ``utcnow`` / ``today``).  Simulated time is
  ``sim.now``.
* EXC001: a bare ``except`` or an ``except Exception`` /
  ``BaseException`` handler that neither re-raises nor uses what it
  caught.  It swallows ``TransferAborted`` together with real bugs, so a
  repair can "succeed" by ignoring its own failure.
* NAN001: an ``if`` that compares a name with ``< 0`` or ``<= 0`` and
  raises.  NaN fails every comparison, so such a guard lets it through;
  ``not x >= 0`` / ``not x > 0`` rejects it.  Names that only ever hold
  ints are allow-listed in :data:`INT_GUARDS`.
* WAL001: outside :mod:`repro.journal`, a ``journal.append(...)`` call,
  or an assignment to a ``.journal`` attribute anywhere but an
  ``__init__``.  A metadata change has one path —
  :func:`repro.journal.records.commit` tests, journals, then applies —
  so a store that appends its own record, or detaches its journal to
  mutate unlogged, is a second path that replay cannot follow.

Import aliases are resolved (``import numpy as np``, ``from time import
sleep as nap``).  Order-sensitive set iteration is checked at run time
instead: ``tests/integration/test_example_determinism.py`` runs commands
under two ``PYTHONHASHSEED`` values and compares their output.
"""

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "repro").rglob("*.py"))
JOURNAL_PACKAGE = REPO / "src" / "repro" / "journal"
RULES = ("DET001", "DET002", "EXC001", "NAN001", "WAL001")

#: numpy constructors that are deterministic exactly when given a seed.
NUMPY_SEEDABLE = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM",
    "MT19937", "Philox", "SFC64",
})
CLOCK_CLASSES = frozenset({"datetime.datetime", "datetime.date"})
CLOCK_METHODS = frozenset({"now", "utcnow", "today"})
BROAD = frozenset({"Exception", "BaseException"})
#: Guarded names that only ever hold ints (counts, indices, byte lengths),
#: where ``x < 0`` cannot let a NaN through.
INT_GUARDS = frozenset({
    "bytes_per_block", "c", "capacity", "chunk_size", "column", "edge",
    "exponent", "k", "length", "nodes_per_rack", "num_racks", "offset",
    "self.chunk_size", "self.length", "workers",
})


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a chain of attributes on a name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> the absolute dotted name it was imported as."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:  # ``import numpy.random`` binds ``numpy``
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def call_hazard(qualified: str, call: ast.Call) -> Optional[str]:
    """The rule a call to the module-level name ``qualified`` breaks."""
    unseeded = not call.args and not call.keywords
    module, _, name = qualified.rpartition(".")
    if qualified == "random.Random":
        return "DET001" if unseeded else None
    if module == "random":
        return "DET001"  # the process-global RNG, or SystemRandom
    if module == "numpy.random":
        return "DET001" if unseeded or name not in NUMPY_SEEDABLE else None
    if module == "time" or (module in CLOCK_CLASSES and name in CLOCK_METHODS):
        return "DET002"
    return None


def swallows(handler: ast.ExceptHandler) -> bool:
    """A broad handler that neither re-raises nor uses its binding."""
    if handler.type is not None:
        types = (
            handler.type.elts if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = [(dotted(t) or "").rpartition(".")[2] for t in types]
        if not BROAD.intersection(names):
            return False
    if any(isinstance(node, ast.Raise) for node in ast.walk(handler)):
        return False
    return not handler.name or not any(
        isinstance(node, ast.Name) and node.id == handler.name
        for statement in handler.body for node in ast.walk(statement)
    )


def nan_blind(guard: ast.If) -> bool:
    """A raising ``if`` whose test has a ``name < 0`` / ``name <= 0``."""
    if not any(isinstance(statement, ast.Raise) for statement in guard.body):
        return False
    test = guard.test
    for compare in test.values if isinstance(test, ast.BoolOp) else [test]:
        if (
            isinstance(compare, ast.Compare)
            and len(compare.ops) == 1
            and isinstance(compare.ops[0], (ast.Lt, ast.LtE))
            and isinstance(compare.comparators[0], ast.Constant)
            and compare.comparators[0].value == 0
            and dotted(compare.left) not in (None, *INT_GUARDS)
        ):
            return True
    return False


def journal_bypasses(tree: ast.Module) -> List[int]:
    """Lines of ``journal.append(...)`` calls and of ``.journal``
    assignments outside an ``__init__``."""
    in_init = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == "__init__"
        for node in ast.walk(function)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (dotted(node.func) or "").split(".")[-2:] == ["journal", "append"]:
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if id(node) not in in_init and any(
                isinstance(sub, ast.Attribute) and sub.attr == "journal"
                and isinstance(sub.ctx, ast.Store)
                for target in targets for sub in ast.walk(target)
            ):
                lines.append(node.lineno)
    return lines


def hazards(
    tree: ast.Module, in_journal: bool = False
) -> List[Tuple[str, int]]:
    """``(rule, line)`` for every hazard in one parsed module (one of
    :mod:`repro.journal` when ``in_journal``)."""
    aliases = import_aliases(tree)
    found = [] if in_journal else [
        ("WAL001", line) for line in journal_bypasses(tree)
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            head, dot, rest = (name or "").partition(".")
            if head in aliases:
                rule = call_hazard(aliases[head] + dot + rest, node)
                if rule:
                    found.append((rule, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and swallows(node):
            found.append(("EXC001", node.lineno))
        elif isinstance(node, ast.If) and nan_blind(node):
            found.append(("NAN001", node.lineno))
    return sorted(found)


@pytest.fixture(scope="module")
def package_hazards() -> Dict[str, List[str]]:
    by_rule: Dict[str, List[str]] = {rule: [] for rule in RULES}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        in_journal = JOURNAL_PACKAGE in path.parents
        for rule, line in hazards(tree, in_journal):
            by_rule[rule].append(f"{path.relative_to(REPO)}:{line}")
    return by_rule


def test_the_whole_package_is_walked():
    names = {path.relative_to(REPO).as_posix() for path in SOURCES}
    assert len(names) > 80
    assert {"src/repro/core/ear.py", "src/repro/sim/engine.py"} <= names


@pytest.mark.parametrize("rule", RULES)
def test_package_is_free_of(rule, package_hazards):
    assert package_hazards[rule] == []


CASES = [
    ("import random\nrandom.shuffle(x)", "DET001"),
    ("from random import choice as pick\npick(x)", "DET001"),
    ("import random as r\nr.Random()", "DET001"),
    ("import random\nrandom.Random(seed)", None),
    ("import random\nrng = random.Random(1)\nrng.random()", None),
    ("import numpy as np\nnp.random.default_rng()", "DET001"),
    ("import numpy as np\nnp.random.default_rng(seed)", None),
    ("import numpy.random\nnumpy.random.shuffle(x)", "DET001"),
    ("from numpy import random as npr\nnpr.rand(3)", "DET001"),
    ("from numpy.random import default_rng\ndefault_rng(seed=1)", None),
    ("import time\ntime.perf_counter()", "DET002"),
    ("from time import sleep as nap\nnap(1)", "DET002"),
    ("import datetime as dt\ndt.datetime.now()", "DET002"),
    ("from datetime import date\ndate.today()", "DET002"),
    ("from datetime import datetime\ndatetime.fromtimestamp(0)", None),
    ("try:\n    f()\nexcept Exception:\n    pass", "EXC001"),
    ("try:\n    f()\nexcept:\n    log()", "EXC001"),
    ("try:\n    f()\nexcept (OSError, BaseException):\n    pass", "EXC001"),
    ("try:\n    f()\nexcept Exception as exc:\n    log()", "EXC001"),
    ("try:\n    f()\nexcept BaseException:\n    undo()\n    raise", None),
    ("try:\n    f()\nexcept Exception as exc:\n    record(exc)", None),
    ("try:\n    f()\nexcept ValueError:\n    pass", None),
    ("if rate <= 0:\n    raise ValueError(rate)", "NAN001"),
    ("if self.rate < 0:\n    raise ValueError(rate)", "NAN001"),
    ("if a > 0 or b <= 0.0:\n    raise ValueError(b)", "NAN001"),
    ("if not rate > 0:\n    raise ValueError(rate)", None),
    ("if not self.rate >= 0:\n    raise ValueError(rate)", None),
    ("if rate <= 0:\n    return", None),
    ("if num_racks <= 0:\n    raise ValueError(num_racks)", None),
    ("self.journal.append(AddBlock(1, 2, 'data', None))", "WAL001"),
    ("journal.append(record)", "WAL001"),
    ("self.entries.append(record)", None),
    ("class S:\n    def f(self):\n"
     "        saved, self.journal = self.journal, None", "WAL001"),
    ("def attach(store, journal):\n    store.journal = journal", "WAL001"),
    ("class S:\n    def __init__(self, journal):\n"
     "        self.journal = journal", None),
    ("class S:\n    journal = None", None),
    ("record = self.journal.last_seq", None),
]


@pytest.mark.parametrize("source, rule", CASES, ids=[c[0] for c in CASES])
def test_checker_flags_exactly_the_hazard(source, rule):
    expected = [] if rule is None else [rule]
    assert [found for found, _line in hazards(ast.parse(source))] == expected


def test_the_journal_package_may_append_and_attach():
    source = "journal.append(record)\nstore.journal = journal"
    assert hazards(ast.parse(source), in_journal=True) == []
