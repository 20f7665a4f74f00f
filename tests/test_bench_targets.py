"""Every layer the benchmark's traced run wraps must exist in the package.

The traced run reports a missing target only at run time, minutes into a
benchmark self-test; this check reads the same target list and fails as
soon as a refactor renames or removes one of the traced functions.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    missing = []
    for _, module, cls, attr, _ in layers.TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    assert missing == []
