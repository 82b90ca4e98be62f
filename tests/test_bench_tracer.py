"""The benchmark's span tracer binds package names by string; keep them alive."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for owner, attr, group, _ in spans.FUNCTIONS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        assert group in spans.GROUPS
    for cls, attr, group, _ in spans.METHODS:
        assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"
        assert group in spans.GROUPS
