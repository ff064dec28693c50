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

from conftest import README_MODEL
from mfpart import partition, simulator
from mfpart.hamio import parse_hamiltonian

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


def test_tracer_sees_validate_plan_check_every_branch():
    plan = partition.greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    original = partition.validate_plan
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        # The tracer swaps in a wrapper that reads the call's arguments.
        assert partition.validate_plan is not original
        assert partition.validate_plan(plan) == []
    finally:
        tracer.uninstall()
    assert partition.validate_plan is original
    summary = tracer.summary()
    assert tracer.absent == []
    assert summary["validate_plan.coverage"] == 1.0
    assert summary["validate_plan.reduce_calls"] > 0


def test_tracer_sees_the_sampling_layer_once_per_fragment():
    plan = partition.greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    _, ground = simulator.eigensolve(plan.source)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        simulator.estimate_energy(plan, ground, shots=100, seed=7)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert tracer.absent == []
    for name in ("branch_distribution", "expectation", "variance"):
        assert summary[f"{name}.calls"] == plan.n_fragments
    assert summary["branch_distribution.branches"] == sum(
        2 ** len(f.certificate.steps) for f in plan.fragments
    )

