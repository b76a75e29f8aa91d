"""The unit of a sweep: one picklable trial.

A :class:`TrialSpec` names a module-level callable plus the keyword
configuration and seed it runs with.  Because every field is picklable the
spec can cross a process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class TrialSpec:
    """One independent trial of a sweep grid.

    Attributes:
        fn: A module-level callable invoked as ``fn(seed=seed, **config)``.
            Lambdas and nested functions are rejected — they cannot be
            pickled into a worker process.
        config: Keyword arguments for ``fn``; must be picklable.
        seed: The trial's seed, passed as the ``seed`` keyword.
        tag: Display/grouping label (``"largescale.ear"``).
        cacheable: Ignored.  Accepted only because the end-to-end
            benchmark still passes ``cacheable=False``; the field goes
            when the benchmark stops passing it (ROADMAP 3(b)).
    """

    fn: Callable[..., Any]
    config: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    tag: str = ""
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
    def label(self) -> str:
        """Human-readable identity for progress and error messages."""
        base = self.tag or self.fn.__qualname__
        return f"{base}[seed={self.seed}]"

    def run(self) -> Any:
        """Execute the trial in the current process."""
        return self.fn(seed=self.seed, **dict(self.config))
