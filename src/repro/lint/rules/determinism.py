"""Determinism rules: DET001 (unseeded RNG), DET002 (wall clock),
DET003 (unordered set iteration).

The experiment pipeline's reproducibility contract is that every run is a
pure function of its seed: placements, chaos schedules, repair orderings
and SWIM replays must be byte-identical across runs.  These rules catch
the three ways that contract silently breaks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.model import FileContext, Finding, Rule, Severity, call_name, register

# ----------------------------------------------------------------------
# Import tracking shared by DET001/DET002
# ----------------------------------------------------------------------


def module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Names that refer to ``module`` (``import random as r`` → ``{"r"}``)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def imported_names(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local-name → original-name map for ``from <module> import ...``."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = alias.name
    return names


@register
class UnseededRandomRule(Rule):
    """DET001: randomness must flow through an injected ``random.Random``.

    Flags calls through the ``random`` module's global instance
    (``random.choice(...)``, ``random.seed(...)``, names imported from
    ``random``) and unseeded constructions (``random.Random()`` with no
    arguments, ``numpy.random.default_rng()`` with no arguments, legacy
    ``numpy.random.*`` calls).  ``random.Random(seed)`` is fine — that is
    exactly the injected-RNG pattern the rule wants.
    """

    rule_id = "DET001"
    name = "unseeded-random"
    description = (
        "Module-level or unseeded random use makes experiment runs "
        "irreproducible; thread a seeded random.Random through instead."
    )
    severity = Severity.ERROR

    #: ``random`` attributes that are *not* global-RNG draws.
    _SAFE_ATTRS = frozenset({"Random", "SystemRandom"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        random_aliases = module_aliases(ctx.tree, "random")
        from_random = imported_names(ctx.tree, "random")
        numpy_aliases = module_aliases(ctx.tree, "numpy") | module_aliases(
            ctx.tree, "numpy.random"
        )
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = call_name(node.func)
            if chain is None:
                continue
            yield from self._check_stdlib(
                ctx, node, chain, random_aliases, from_random
            )
            yield from self._check_numpy(ctx, node, chain, numpy_aliases)

    def _check_stdlib(
        self,
        ctx: FileContext,
        node: ast.Call,
        chain: Tuple[str, ...],
        aliases: Set[str],
        from_random: Dict[str, str],
    ) -> Iterator[Finding]:
        target: Optional[str] = None
        if len(chain) == 2 and chain[0] in aliases:
            target = chain[1]
        elif len(chain) == 1 and chain[0] in from_random:
            target = from_random[chain[0]]
        if target is None:
            return
        if target in self._SAFE_ATTRS:
            if target == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "random.Random() without a seed is irreproducible; "
                    "pass an explicit seed or inject a shared Random",
                )
            return
        yield self.finding(
            ctx,
            node,
            f"call to the process-global RNG (random.{target}); use an "
            "injected, seeded random.Random instead",
        )

    def _check_numpy(
        self,
        ctx: FileContext,
        node: ast.Call,
        chain: Tuple[str, ...],
        numpy_aliases: Set[str],
    ) -> Iterator[Finding]:
        if len(chain) < 3 or chain[0] not in numpy_aliases or chain[1] != "random":
            return
        attr = chain[2]
        if attr == "default_rng":
            if not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "numpy default_rng() without a seed is irreproducible",
                )
            return
        yield self.finding(
            ctx,
            node,
            f"legacy numpy global RNG call (np.random.{attr}); use a "
            "seeded numpy Generator instead",
        )


@register
class WallClockRule(Rule):
    """DET002: no wall-clock reads or sleeps inside simulation code.

    Simulated time is ``sim.now``; a ``time.time()``, ``datetime.now()``
    or ``time.sleep()`` couples results to the host machine.  The
    banned-path list comes from configuration
    (``[tool.reprolint.det002] paths``); the repo sets it to the whole
    ``repro`` package, so no clock read or sleep can be reached from a
    sim process whatever the call graph.
    """

    rule_id = "DET002"
    name = "wall-clock"
    description = (
        "Wall-clock reads and sleeps inside simulation code couple "
        "experiment results to host timing; use the simulation clock "
        "(sim.now)."
    )
    severity = Severity.ERROR

    _TIME_FUNCS = frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns",
         "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
         "sleep"}
    )
    _DATETIME_METHODS = frozenset({"now", "utcnow", "today"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_scope(ctx.config.wall_clock_paths):
            return
        time_aliases = module_aliases(ctx.tree, "time")
        from_time = {
            local
            for local, original in imported_names(ctx.tree, "time").items()
            if original in self._TIME_FUNCS
        }
        datetime_aliases = module_aliases(ctx.tree, "datetime")
        from_datetime = {
            local
            for local, original in imported_names(ctx.tree, "datetime").items()
            if original in {"datetime", "date"}
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = call_name(node.func)
            if chain is None:
                continue
            if (
                len(chain) == 2
                and chain[0] in time_aliases
                and chain[1] in self._TIME_FUNCS
            ):
                yield self._flag(ctx, node, ".".join(chain))
            elif len(chain) == 1 and chain[0] in from_time:
                yield self._flag(ctx, node, chain[0])
            elif (
                len(chain) == 2
                and chain[0] in from_datetime
                and chain[1] in self._DATETIME_METHODS
            ):
                yield self._flag(ctx, node, ".".join(chain))
            elif (
                len(chain) == 3
                and chain[0] in datetime_aliases
                and chain[1] in {"datetime", "date"}
                and chain[2] in self._DATETIME_METHODS
            ):
                yield self._flag(ctx, node, ".".join(chain))

    def _flag(self, ctx: FileContext, node: ast.Call, what: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"wall-clock call ({what}()) inside simulation code; "
            "simulated time must come from the simulation clock",
        )


# ----------------------------------------------------------------------
# DET003 — set-order dependence
# ----------------------------------------------------------------------

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet", "MutableSet"})
#: Consumers for which a generator over a set is order-insensitive.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


def walk_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's own statements in source order, without descending
    into nested function definitions (they are their own scopes)."""
    yield root
    for child in ast.iter_child_nodes(root):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield from walk_scope(child)


class _SetTypes:
    """Per-scope syntactic tracking of set-typed names.

    A deliberately shallow approximation: a *name* is set-typed when an
    assignment (or annotation) **in the same scope** binds it to a set
    expression; a ``self.<attr>`` is set-typed when any method of the
    module assigns or annotates it as one.  Scoping matters — the same
    name may be a list in one function and a set in another.
    """

    def __init__(self, scope: ast.AST, tree: ast.Module) -> None:
        self.names: Set[str] = set()
        self.self_attrs: Set[str] = set()
        self._collect_attrs(tree)
        self._collect(scope)

    def _collect(self, scope: ast.AST) -> None:
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in list(scope.args.args) + list(scope.args.kwonlyargs):
                if arg.annotation is not None and self._is_set_annotation(
                    arg.annotation
                ):
                    self.names.add(arg.arg)
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._note_target(target, node.value)
            elif isinstance(node, ast.AnnAssign):
                if self._is_set_annotation(node.annotation):
                    self._note_target(node.target, None, force=True)
                elif node.value is not None:
                    self._note_target(node.target, node.value)

    def _collect_attrs(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            target_value = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                target_value = node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
                if self._is_set_annotation(node.annotation):
                    target_value = ast.Set(elts=[])  # sentinel: set-typed
                else:
                    target_value = node.value
            else:
                continue
            if target_value is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and self.is_set_expr(target_value)
                ):
                    self.self_attrs.add(target.attr)

    def _note_target(
        self, target: ast.AST, value: Optional[ast.AST], force: bool = False
    ) -> None:
        is_set = force or (value is not None and self.is_set_expr(value))
        if isinstance(target, ast.Name):
            if is_set:
                self.names.add(target.id)
            else:
                self.names.discard(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if is_set:
                self.self_attrs.add(target.attr)

    def _is_set_annotation(self, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in _SET_ANNOTATIONS
        if isinstance(annotation, ast.Subscript):
            return self._is_set_annotation(annotation.value)
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in _SET_ANNOTATIONS
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            head = annotation.value.split("[", 1)[0].strip()
            return head.split(".")[-1] in _SET_ANNOTATIONS
        return False

    def is_set_expr(self, node: ast.AST) -> bool:
        """True when ``node`` is syntactically a set expression."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = call_name(node.func)
            if chain is not None and chain[-1] in _SET_CONSTRUCTORS:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr
                in {"union", "intersection", "difference", "symmetric_difference",
                    "copy"}
                and self.is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.names
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.self_attrs
        return False


@register
class UnorderedIterationRule(Rule):
    """DET003: ordered decisions must not consume raw set iteration order.

    Set iteration order depends on ``PYTHONHASHSEED`` and insertion
    history; a placement loop, a scheduling queue or a list built from a
    set inherits that nondeterminism.  Flags ``for`` loops, list/dict
    comprehensions and ``list()``/``tuple()``/``enumerate()`` conversions
    whose iterable is syntactically a set — wrap the iterable in
    ``sorted(...)`` (the autofix) or suppress where order provably cannot
    matter.  Order-insensitive reductions over generator expressions
    (``sum``, ``min``, ``any`` …) are not flagged.
    """

    rule_id = "DET003"
    name = "unordered-set-iteration"
    description = (
        "Iterating a set in an order-sensitive position makes placement "
        "and scheduling decisions hash-order dependent; use sorted(...)."
    )
    severity = Severity.ERROR
    autofixable = True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(ctx.functions())
        for scope in scopes:
            types = _SetTypes(scope, ctx.tree)
            yield from self._check_scope(ctx, scope, types)

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, types: _SetTypes
    ) -> Iterator[Finding]:
        for node in walk_scope(scope):
            if isinstance(node, ast.For) and types.is_set_expr(node.iter):
                yield self._flag(ctx, node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                kind = (
                    "list comprehension"
                    if isinstance(node, ast.ListComp)
                    else "dict comprehension"
                )
                for gen in node.generators:
                    if types.is_set_expr(gen.iter):
                        yield self._flag(ctx, gen.iter, kind)
            elif isinstance(node, ast.Call):
                chain = call_name(node.func)
                if (
                    chain is not None
                    and len(chain) == 1
                    and chain[0] in _ORDER_SENSITIVE_CONSUMERS
                    and node.args
                ):
                    arg = node.args[0]
                    if types.is_set_expr(arg):
                        yield self._flag(ctx, arg, f"{chain[0]}() conversion")
                    elif isinstance(arg, ast.GeneratorExp) and any(
                        types.is_set_expr(gen.iter) for gen in arg.generators
                    ):
                        yield self._flag(ctx, arg, f"{chain[0]}() conversion")

    def _flag(self, ctx: FileContext, node: ast.AST, where: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"set iterated in an order-sensitive {where}; wrap the "
            "iterable in sorted(...) to pin the order",
        )
