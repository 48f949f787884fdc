"""The benchmark's tracer (bench/spans.py) wraps library functions by
replacing them in their owners' namespaces; every name it lists must be
defined there, or a traced benchmark run fails with KeyError."""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)   # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.TRACED
               if attr not in owner.__dict__]
    assert not missing
