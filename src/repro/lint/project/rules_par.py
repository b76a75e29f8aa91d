"""PAR1xx — interprocedural parallel-sweep safety rules.

PR5's ``TrialSpec`` already rejects non-module-level callables at
runtime; these rules move the contract to lint time and extend it to
what the runtime check cannot see: the *transitive* closure of the
submitted function.  Worker-executed code runs in a forked process, so
closures over locks, open files or live journaled stores deserialize
into nonsense, and mutations of module globals fork-diverge silently —
the parent never sees them, and two workers disagree.

Worker entry points are the ``fn=`` arguments of ``TrialSpec(...)``
constructions; everything reachable from an entry point is
"worker-executed".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.model import Finding, Severity, register
from repro.lint.project.facts import LAMBDA_REF, CallSite
from repro.lint.project.model import (
    KIND_CLASS,
    KIND_FUNC,
    ProjectModel,
    ProjectRule,
)

#: Keyword arguments of ``TrialSpec`` that must hold worker-safe callables.
CALLABLE_KEYS = ("fn",)

#: Module-global constructor chains that never survive a fork boundary.
UNPICKLABLE_FACTORIES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.Event",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "open", "io.open",
})

#: Global-name suffixes recognised as deterministic memo tables; pure
#: memoisation repopulates identically in every worker, so mutating it
#: is fork-safe by construction and exempt from PAR103.
MEMO_SUFFIXES = ("_MEMO", "_CACHE")


def submission_sites(
    model: ProjectModel,
) -> List[Tuple[str, CallSite, str, str, str]]:
    """Callable arguments of every ``TrialSpec(...)`` construction.

    Returns sorted ``(submitting node, call, key, arg kind, ref)``
    tuples, one per ``fn=`` argument.
    """
    sites: List[Tuple[str, CallSite, str, str, str]] = []
    for node in sorted(model.functions):
        for call in model.facts_of(node).calls:
            kind, target = model.resolve_call_site(node, call)
            if kind != KIND_CLASS or not target.endswith(":TrialSpec"):
                continue
            for key, arg_kind, ref in call.func_args:
                if key in CALLABLE_KEYS:
                    sites.append((node, call, key, arg_kind, ref))
    return sites


def worker_entry_points(model: ProjectModel) -> List[str]:
    """Project functions submitted as worker entry points, sorted."""
    entries: Set[str] = set()
    for node, _call, _key, arg_kind, ref in submission_sites(model):
        if arg_kind != "ref":
            continue
        kind, target = model.resolve_ref(node, ref)
        if kind == KIND_FUNC:
            entries.add(target)
    return sorted(entries)


@register
class Par101NonModuleLevelTrial(ProjectRule):
    """Lambda or nested function submitted to the sweep executor."""

    rule_id = "PAR101"
    name = "par-trial-not-module-level"
    description = (
        "A TrialSpec callable argument is a lambda or a nested function.  "
        "Worker processes import the callable by module path; only "
        "module-level functions survive the fork boundary.  TrialSpec "
        "raises at runtime — this rule fails the build before it runs."
    )
    severity = Severity.ERROR

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterable[Finding]:
        for node, call, key, arg_kind, ref in submission_sites(model):
            path = model.path_of(model.module_of(node))
            if arg_kind == "lambda":
                yield self.project_finding(
                    config,
                    path,
                    call.lineno,
                    f"TrialSpec {key}= receives a lambda; workers import "
                    f"trial callables by module path, so only module-level "
                    f"functions are picklable",
                )
                continue
            if arg_kind != "ref":
                continue
            kind, target = model.resolve_ref(node, ref)
            if kind == KIND_FUNC and ".<locals>." in target:
                yield self.project_finding(
                    config,
                    path,
                    call.lineno,
                    f"TrialSpec {key}= receives nested function '{ref}' "
                    f"(qualname contains <locals>); hoist it to module "
                    f"level so worker processes can import it",
                )


class _WorkerClosureRule(ProjectRule):
    """Shared driver: walk the worker-reachable set and apply a check."""

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterable[Finding]:
        entries = worker_entry_points(model)
        if not entries:
            return
        parents = model.reachable_from(entries)
        for node in sorted(parents):
            if node not in model.functions:
                continue
            witness = model.describe_path(parents, node)
            yield from self.check_worker_function(
                model, config, node, witness
            )

    def check_worker_function(
        self,
        model: ProjectModel,
        config: LintConfig,
        node: str,
        witness: str,
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def _global_kind(
        self, model: ProjectModel, node: str, name: str
    ) -> Tuple[str, str]:
        return model.global_kind(model.module_of(node), name)


@register
class Par102WorkerCapturesLiveObject(_WorkerClosureRule):
    """Worker-reachable code reads an unpicklable/live module global."""

    rule_id = "PAR102"
    name = "par-worker-reads-live-global"
    description = (
        "Code reachable from a sweep trial reads a module-global lock, "
        "open file, or live journaled store.  Such objects exist only in "
        "the parent process; the forked worker sees a stale or invalid "
        "copy, and any journal attached to it silently diverges.  Pass "
        "plain data through TrialSpec config instead."
    )
    severity = Severity.ERROR

    def check_worker_function(
        self, model, config, node, witness
    ) -> Iterable[Finding]:
        facts = model.facts_of(node)
        path = model.path_of(model.module_of(node))
        for name in facts.global_reads:
            kind, defining = self._global_kind(model, node, name)
            if not kind.startswith("call:"):
                continue
            chain = kind[len("call:"):]
            reason = ""
            if chain in UNPICKLABLE_FACTORIES:
                reason = f"a {chain}() object"
            else:
                resolved = model.resolve_chain(defining, tuple(chain.split(".")))
                if resolved[0] == KIND_CLASS and model.is_store_class(
                    resolved[1]
                ):
                    reason = f"a live journaled store ({chain})"
            if reason:
                yield self.project_finding(
                    config,
                    path,
                    facts.lineno,
                    f"'{facts.qualname}' is worker-executed (via {witness}) "
                    f"but reads module global '{name}', {reason}; it does "
                    f"not survive the fork into sweep workers",
                )


@register
class Par103WorkerMutatesGlobal(_WorkerClosureRule):
    """Worker-reachable code mutates module-global state."""

    rule_id = "PAR103"
    name = "par-worker-mutates-global"
    description = (
        "Code reachable from a sweep trial writes a `global` name or "
        "mutates a module-global dict/list/set literal.  Forked workers "
        "each mutate their own copy: the parent never observes the "
        "write, and sequential-vs-parallel runs diverge.  Deterministic "
        "memo tables (names ending in _MEMO/_CACHE) are exempt — they "
        "repopulate identically in every process."
    )
    severity = Severity.WARNING

    def check_worker_function(
        self, model, config, node, witness
    ) -> Iterable[Finding]:
        facts = model.facts_of(node)
        path = model.path_of(model.module_of(node))
        for name in facts.global_writes:
            if name.endswith(MEMO_SUFFIXES):
                continue
            yield self.project_finding(
                config,
                path,
                facts.lineno,
                f"'{facts.qualname}' is worker-executed (via {witness}) "
                f"but rebinds module global '{name}'; the write is lost "
                f"at the fork boundary and breaks sequential/parallel "
                f"equivalence",
            )
        for name, op, lineno in facts.global_mutations:
            if name.endswith(MEMO_SUFFIXES):
                continue
            kind, _defining = self._global_kind(model, node, name)
            if kind not in ("dict", "list", "set"):
                continue
            yield self.project_finding(
                config,
                path,
                lineno,
                f"'{facts.qualname}' is worker-executed (via {witness}) "
                f"but mutates module-global container '{name}' ({op}); "
                f"worker-local mutation forks silently — return the data "
                f"or key it into the result instead",
            )
