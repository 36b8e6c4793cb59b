"""The library names the benchmark's tracer wraps must keep existing.

bench/spans.py looks functions up by name in SPANNED and COUNTED; a
deleted or renamed one would only show in a traced benchmark run.  The
table is read from the file itself, so this follows its edits.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_callable():
    spans = _load_spans()
    for table in (spans.SPANNED, spans.COUNTED):
        for module, names in table.items():
            for name in names:
                assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
