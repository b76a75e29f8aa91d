"""Per-rule tests: one triggering case, one non-triggering case, and a
suppression-comment case for every registered rule."""

import pytest

from repro.lint import LintConfig, Severity, all_rules, lint_source


class Case:
    """One rule's snippet pair: ``bad`` triggers on ``bad_line``; ``good``
    is the idiomatic fix and must stay silent."""

    def __init__(self, bad, bad_line, good, path="src/repro/experiments/x.py"):
        self.bad = bad
        self.bad_line = bad_line
        self.good = good
        self.path = path


CASES = {
    "DET001": Case(
        bad=(
            "import random\n"
            "value = random.random()\n"
        ),
        bad_line=2,
        good=(
            "import random\n"
            "rng = random.Random(42)\n"
            "value = rng.random()\n"
        ),
    ),
    "DET002": Case(
        bad=(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
        bad_line=4,
        good=(
            "def stamp(sim):\n"
            "    return sim.now\n"
        ),
        path="src/repro/sim/x.py",
    ),
    "DET003": Case(
        bad=(
            "def drain(use):\n"
            "    pending = {1, 2, 3}\n"
            "    for item in pending:\n"
            "        use(item)\n"
        ),
        bad_line=3,
        good=(
            "def drain(use):\n"
            "    pending = {1, 2, 3}\n"
            "    for item in sorted(pending):\n"
            "        use(item)\n"
        ),
    ),
    "RES001": Case(
        bad=(
            "def run(pool, work):\n"
            "    token = pool.acquire(3)\n"
            "    work()\n"
            "    pool.release(token)\n"
        ),
        bad_line=2,
        good=(
            "def run(pool, work):\n"
            "    token = pool.acquire(3)\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        pool.release(token)\n"
        ),
    ),
    "EXC001": Case(
        bad=(
            "def run(work):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        ),
        bad_line=4,
        good=(
            "def run(work, log):\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        pass\n"
            "    except Exception as exc:\n"
            "        log.warning(exc)\n"
        ),
    ),
    "FLT001": Case(
        bad=(
            "def expired(now, deadline):\n"
            "    return now == deadline\n"
        ),
        bad_line=2,
        good=(
            "def expired(now, deadline):\n"
            "    return now >= deadline\n"
        ),
    ),
    "HYG001": Case(
        bad=(
            "def collect(items=[]):\n"
            "    return items\n"
        ),
        bad_line=1,
        good=(
            "def collect(items=None):\n"
            "    return items or []\n"
        ),
    ),
    "HYG002": Case(
        bad=(
            "def pick(list):\n"
            "    return list\n"
        ),
        bad_line=1,
        good=(
            "class Trace:\n"
            "    def format(self):\n"
            "        return 'x'\n"
        ),
    ),
    "JRN001": Case(
        bad=(
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass\n"
            "class AddBlock(JournalRecord):\n"
            "    block_id: int\n"
        ),
        bad_line=4,
        good=(
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass(frozen=True)\n"
            "class AddBlock(JournalRecord):\n"
            "    block_id: int\n"
        ),
        path="src/repro/journal/records.py",
    ),
}


def findings_for(rule_id, source, path, config=None):
    return [
        f for f in lint_source(source, path, config) if f.rule_id == rule_id
    ]


def suppress(case, rule_id):
    """The bad snippet with an inline suppression on the flagged line."""
    lines = case.bad.splitlines()
    lines[case.bad_line - 1] += f"  # reprolint: disable={rule_id}"
    return "\n".join(lines) + "\n"


class TestEveryRule:
    def test_case_table_covers_the_whole_registry(self):
        assert sorted(CASES) == [r.rule_id for r in all_rules()]

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_triggers(self, rule_id):
        case = CASES[rule_id]
        found = findings_for(rule_id, case.bad, case.path)
        assert found, f"{rule_id} did not fire on its bad snippet"
        assert found[0].line == case.bad_line

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_stays_silent(self, rule_id):
        case = CASES[rule_id]
        assert findings_for(rule_id, case.good, case.path) == []

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_line_suppression(self, rule_id):
        case = CASES[rule_id]
        assert findings_for(rule_id, suppress(case, rule_id), case.path) == []

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_file_suppression(self, rule_id):
        case = CASES[rule_id]
        source = f"# reprolint: disable-file={rule_id}\n" + case.bad
        assert findings_for(rule_id, source, case.path) == []

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_has_metadata(self, rule_id):
        from repro.lint import get_rule

        rule = get_rule(rule_id)
        assert rule.rule_id == rule_id
        assert rule.name and rule.description
        assert isinstance(rule.severity, Severity)


class TestDet001Details:
    def test_from_import_call(self):
        src = "from random import choice\nx = choice([1, 2])\n"
        assert findings_for("DET001", src, "x.py")

    def test_unseeded_random_constructor(self):
        assert findings_for("DET001", "import random\nr = random.Random()\n", "x.py")

    def test_seeded_constructor_ok(self):
        assert not findings_for(
            "DET001", "import random\nr = random.Random(7)\n", "x.py"
        )

    def test_numpy_legacy_global(self):
        src = "import numpy as np\nnp.random.shuffle([1])\n"
        assert findings_for("DET001", src, "x.py")

    def test_numpy_unseeded_default_rng(self):
        src = "import numpy as np\ng = np.random.default_rng()\n"
        assert findings_for("DET001", src, "x.py")

    def test_numpy_seeded_default_rng_ok(self):
        src = "import numpy as np\ng = np.random.default_rng(0)\n"
        assert not findings_for("DET001", src, "x.py")


class TestDet002Details:
    def test_out_of_scope_path_ignored(self):
        src = "import time\nt = time.time()\n"
        assert not findings_for("DET002", src, "src/repro/analysis/x.py")

    def test_sleep_is_flagged(self):
        src = "import time\ntime.sleep(1)\n"
        assert findings_for("DET002", src, "src/repro/sim/x.py")

    def test_from_imported_sleep_is_flagged(self):
        src = "from time import sleep\nsleep(1)\n"
        assert findings_for("DET002", src, "src/repro/sim/x.py")

    def test_whole_package_scope(self):
        # The repo scopes DET002 to "repro": every module of the package
        # is covered, code outside it is not.
        config = LintConfig(wall_clock_paths=("repro",))
        src = "import time\nt = time.time()\n"
        assert findings_for("DET002", src, "src/repro/hdfs/client.py", config)
        assert not findings_for("DET002", src, "benchmarks/e2e/run.py", config)

    def test_datetime_now(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert findings_for("DET002", src, "src/repro/core/x.py")

    def test_aliased_import(self):
        src = "import time as clock\nt = clock.monotonic()\n"
        assert findings_for("DET002", src, "src/repro/faults/x.py")


class TestDet003Details:
    def test_set_comprehension_iteration(self):
        src = (
            "def shares(nodes, rack_of, load):\n"
            "    racks = {rack_of(n) for n in nodes}\n"
            "    for rack in racks:\n"
            "        load[rack] += 1\n"
        )
        assert findings_for("DET003", src, "x.py")

    def test_list_over_set(self):
        src = "def f(s):\n    s = {1, 2}\n    return list(s)\n"
        assert findings_for("DET003", src, "x.py")

    def test_list_iteration_ok(self):
        src = "def f(items):\n    items = [1, 2]\n    return list(items)\n"
        assert not findings_for("DET003", src, "x.py")

    def test_set_annotation_in_another_function_does_not_leak(self):
        src = (
            "from typing import List, Set\n"
            "def a(failed: Set[int]):\n"
            "    return sorted(failed)\n"
            "def b(failed: List[int]):\n"
            "    for f in failed:\n"
            "        print(f)\n"
        )
        assert not findings_for("DET003", src, "x.py")


class TestRes001Details:
    def test_immediate_release_ok(self):
        src = (
            "def f(pool):\n"
            "    token = pool.acquire(1)\n"
            "    pool.release(token)\n"
        )
        assert not findings_for("RES001", src, "x.py")

    def test_returned_claim_escapes(self):
        src = "def f(pool):\n    token = pool.acquire(1)\n    return token\n"
        assert not findings_for("RES001", src, "x.py")

    def test_never_released(self):
        src = "def f(pool, work):\n    token = pool.acquire(1)\n    work()\n"
        found = findings_for("RES001", src, "x.py")
        assert found and "never released" in found[0].message

    def test_cancel_counts_as_release(self):
        src = (
            "def f(pool, work):\n"
            "    token = pool.acquire(1)\n"
            "    try:\n"
            "        work()\n"
            "    finally:\n"
            "        pool.cancel(token)\n"
        )
        assert not findings_for("RES001", src, "x.py")


class TestExc001Details:
    def test_reraise_ok(self):
        src = (
            "def f(work):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert not findings_for("EXC001", src, "x.py")

    def test_bare_except_swallow(self):
        src = "def f(work):\n    try:\n        work()\n    except:\n        pass\n"
        assert findings_for("EXC001", src, "x.py")

    def test_narrow_except_ok(self):
        src = (
            "def f(work):\n"
            "    try:\n"
            "        work()\n"
            "    except KeyError:\n"
            "        pass\n"
        )
        assert not findings_for("EXC001", src, "x.py")


class TestFlt001Details:
    def test_attribute_time_compare(self):
        src = "def f(self, deadline):\n    return self.sim.now == deadline\n"
        assert findings_for("FLT001", src, "x.py")

    def test_none_sentinel_ok(self):
        src = "def f(deadline):\n    return deadline == None\n"
        assert not findings_for("FLT001", src, "x.py")

    def test_non_time_names_ok(self):
        src = "def f(count, total):\n    return count == total\n"
        assert not findings_for("FLT001", src, "x.py")


class TestJrn001Details:
    HEAD = (
        "from dataclasses import dataclass\n"
        "from typing import ClassVar, Dict, List, Optional, Tuple\n"
        "\n"
    )

    def test_dict_field_flagged(self):
        src = self.HEAD + (
            "@dataclass(frozen=True)\n"
            "class Bad(JournalRecord):\n"
            "    retained: Dict[int, int]\n"
        )
        found = findings_for("JRN001", src, "src/repro/journal/records.py")
        assert found and "retained" in found[0].message

    def test_list_field_flagged(self):
        src = self.HEAD + (
            "@dataclass(frozen=True)\n"
            "class Bad(JournalRecord):\n"
            "    parity: List[int]\n"
        )
        assert findings_for("JRN001", src, "src/repro/journal/records.py")

    def test_tuple_and_optional_ok(self):
        src = self.HEAD + (
            "@dataclass(frozen=True)\n"
            "class Good(JournalRecord):\n"
            "    record_type: ClassVar[str] = 'good'\n"
            "    stripe_id: Optional[int] = None\n"
            "    pairs: Tuple[Tuple[int, int], ...] = ()\n"
        )
        assert not findings_for("JRN001", src, "src/repro/journal/records.py")

    def test_record_type_classvar_opts_in_without_base(self):
        src = self.HEAD + (
            "class Bad:\n"
            "    record_type: ClassVar[str] = 'bad'\n"
            "    payload: int = 0\n"
        )
        found = findings_for("JRN001", src, "src/repro/journal/records.py")
        assert found and "dataclass(frozen=True)" in found[0].message

    def test_plain_dataclass_not_a_record_ignored(self):
        src = self.HEAD + (
            "@dataclass\n"
            "class Config:\n"
            "    options: Dict[str, int]\n"
        )
        assert not findings_for("JRN001", src, "src/repro/journal/x.py")

    def test_pep604_optional_ok(self):
        src = self.HEAD + (
            "@dataclass(frozen=True)\n"
            "class Good(JournalRecord):\n"
            "    stripe_id: int | None = None\n"
        )
        assert not findings_for("JRN001", src, "src/repro/journal/records.py")
