"""The names ``benchmarks/e2e`` wraps in its traced pass still resolve.

``Tracer.__enter__`` looks every ``SPANS`` target up through the owner's
own ``__dict__`` and raises ``KeyError`` on a miss, so renaming or moving
one of those entry points breaks the repo's declared benchmark.  That only
shows in the 40 s ``e2e-smoke`` job; this repeats the lookup in tier-1.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracing.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for span, (__, targets) in tracing.SPANS.items():
        for module_name, class_name, attribute in targets:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            if attribute not in owner.__dict__:
                missing.append((span, module_name, class_name, attribute))
    assert not missing
