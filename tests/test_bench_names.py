"""Every function the benchmark tracer wraps still exists in its module.

The tracer reports a missing name as absent and carries on, so a
refactor that renames or inlines a traced function would silently turn
its per-layer metrics into blanks.  This test turns that into a failure.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the bench directory untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def _traced_names():
    spans = _load_spans()
    return [
        (layer, name)
        for table in (spans.TIMED, spans.COUNTED)
        for layer, names in table.items()
        for name in names
    ]


@pytest.mark.parametrize("layer, name", _traced_names())
def test_traced_name_is_callable(layer, name):
    module = importlib.import_module(f"mfpart.{layer}")
    assert callable(getattr(module, name, None)), f"mfpart.{layer}.{name}"
