"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/spans.py rebinds names on ppt modules to time them. A name that
a refactor prunes would break only `python -m pytest perfbench`; this test
loads spans.py from its path and resolves each (module, attribute) of
Tracer().targets() in the tier-1 suite.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    targets = spans.Tracer().targets()
    assert targets
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in targets
               if not callable(getattr(module, name, None))]
    assert missing == []
