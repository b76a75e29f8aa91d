"""The unit of a sweep: one picklable, content-addressed trial.

A :class:`TrialSpec` names a module-level callable plus the keyword
configuration and seed it runs with.  Because every field is picklable the
spec can cross a process boundary, and because the configuration is
canonically JSON-encoded the spec has a stable :meth:`~TrialSpec.fingerprint`
that keys the on-disk result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Tuple

from repro.parallel.fingerprint import (
    canonical,
    code_salt,
    fingerprint_document,
)


@dataclass(frozen=True)
class TrialSpec:
    """One independent trial of a sweep grid.

    Attributes:
        fn: A module-level callable invoked as ``fn(seed=seed, **config)``.
            Lambdas and nested functions are rejected — they cannot be
            pickled into a worker process.
        config: Keyword arguments for ``fn``; must be canonically
            fingerprintable (plain data / dataclasses).
        seed: The trial's seed, passed as the ``seed`` keyword.
        tag: Display/grouping label (``"largescale.ear"``); part of the
            trial identity.
        salt_modules: Module or package names whose source is hashed into
            the fingerprint.  Empty means the callable's top-level package
            — conservative: any source change there dirties the trial.
        cacheable: When False the executor never consults or fills the
            result cache for this trial (e.g. wall-clock benchmarks).
    """

    fn: Callable[..., Any]
    config: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    tag: str = ""
    salt_modules: Tuple[str, ...] = ()
    cacheable: bool = True

    def __post_init__(self) -> None:
        qualname = getattr(self.fn, "__qualname__", None)
        if qualname is None or "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"trial callable {self.fn!r} is not module-level; "
                "workers cannot unpickle lambdas or nested functions"
            )

    # ------------------------------------------------------------------
    @property
    def callable_ref(self) -> str:
        """The importable ``module:qualname`` reference of the callable."""
        return f"{self.fn.__module__}:{self.fn.__qualname__}"

    @property
    def label(self) -> str:
        """Human-readable identity for progress and error messages."""
        base = self.tag or self.fn.__qualname__
        return f"{base}[seed={self.seed}]"

    def effective_salt_modules(self) -> Tuple[str, ...]:
        """The modules hashed into the code-version salt."""
        if self.salt_modules:
            return self.salt_modules
        return (self.fn.__module__.split(".")[0],)

    def run(self) -> Any:
        """Execute the trial in the current process."""
        return self.fn(seed=self.seed, **dict(self.config))

    def fingerprint(self) -> str:
        """Content address: callable + canonical config + seed + code salt.

        Two specs share a fingerprint exactly when they would run the same
        code on the same configuration and seed; editing any source file
        covered by :meth:`effective_salt_modules` changes it.
        """
        return fingerprint_document({
            "fn": self.callable_ref,
            "config": canonical(dict(self.config)),
            "seed": self.seed,
            "tag": self.tag,
            "salt": code_salt(self.effective_salt_modules()),
        })
