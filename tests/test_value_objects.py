"""Plans are built from slotted value objects, with one object per distinct op and value."""

import dataclasses
import functools
import gc
import importlib
import json
import math
import pkgutil
import struct
import sys
import tracemalloc

import numpy as np
import pytest

import mfpart
from conftest import README_MODEL, random_amplitudes, random_sum
from mfpart.entangler import EntanglerSpec, KQubitOp
from mfpart.hamio import parse_hamiltonian, parse_plan, serialize_plan
from mfpart.meanfield import (
    BranchTable,
    MFCertificate,
    ProductTerminalMap,
    ReductionStep,
    UniformBranchOps,
    reduce_qubit,
    verify_mf,
)
from mfpart.partition import MFFragment, PartitionPlan, greedy_partition
from mfpart.pauli import PauliSum, PauliWord, SingleQubitOp
from mfpart.simulator import (
    EstimatorReport,
    FragmentEstimate,
    StateVector,
    eigensolve,
    estimate_energy,
)

SLOTTED = (
    PauliWord, PauliSum, SingleQubitOp, ReductionStep, MFCertificate, MFFragment,
    PartitionPlan, KQubitOp, EntanglerSpec, FragmentEstimate, EstimatorReport,
    UniformBranchOps, BranchTable, ProductTerminalMap,
)


def acceptance6_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return random_sum(rng, n, int(rng.integers(3, min(60, 4**n - 2) + 1)))


@functools.lru_cache(maxsize=None)
def w2_plans():
    """The mf2 plans of the 50 acceptance-6 sums."""
    return tuple(greedy_partition(acceptance6_sum(seed), "mf2") for seed in range(6000, 6050))


def readme_plan():
    return greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")


def sum_on(n, *terms):
    return PauliSum.from_terms(n, [(PauliWord.from_axes(n, axes), c) for c, axes in terms])


def one_of_each():
    """An instance of every slotted class, from the README model's mf2 plan and report."""
    plan = readme_plan()
    _, ground = eigensolve(plan.source)
    report = estimate_energy(plan, ground, shots=50, seed=1)
    frag = next(f for f in plan.fragments if f.entangler is not None)
    table = verify_mf(sum_on(2, (1.0, {1: "X"}), (1.0, {0: "Z", 1: "Y"}))).steps[1]
    product = verify_mf(sum_on(2, (1.0, {0: "Z", 1: "Z"})))
    found = [
        plan.source.sorted_terms()[0][0], plan.source, product.steps[0].ops.op, table,
        frag.certificate, frag, plan, frag.entangler.origin, frag.entangler,
        report.fragments[0], report, product.steps[1].ops, table.ops, product.terminal_values,
    ]
    assert [type(obj) for obj in found] == list(SLOTTED)
    return found


def test_every_value_object_has_slots_and_no_instance_dict():
    for obj in one_of_each():
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(obj, "extra", 1)


def test_a_word_hashes_as_the_tuple_of_its_fields():
    word = PauliWord(3, 0b101, 0b110)
    assert hash(word) == hash((3, 0b101, 0b110)) == hash(PauliWord(3, 0b101, 0b110))
    assert repr(word) == "PauliWord(n_qubits=3, x_mask=5, z_mask=6)"
    assert dataclasses.replace(word, z_mask=0) == PauliWord(3, 0b101)
    assert hash(dataclasses.replace(word, z_mask=0)) == hash(PauliWord(3, 0b101))


def table_ops(cert):
    tables = [step.ops for step in cert.steps if isinstance(step.ops, BranchTable)]
    return [op for table in tables for op in table.values()]


def bits(op):
    return op.qubit, struct.pack("3d", *op.bloch)


def test_verify_mf_makes_one_op_per_qubit_and_bit_pattern():
    shared = signed_zeros = 0
    for plan in w2_plans():
        for frag in plan.fragments:
            # Every certificate of a plan in memory comes from one verify_mf call.
            ops = table_ops(frag.certificate)
            by_bits, by_value = {}, {}
            for op in ops:
                by_bits.setdefault(bits(op), set()).add(id(op))
                by_value.setdefault((op.qubit, op.bloch), set()).add(bits(op))
            assert all(len(ids) == 1 for ids in by_bits.values())
            shared += len(ops) - len(by_bits)
            # Equal ops whose bits differ only in the sign of a zero stay apart.
            signed_zeros += sum(len(patterns) - 1 for patterns in by_value.values())
    assert shared > 0
    # Seed 6020 has ops (a, 0.0, c) and (a, -0.0, c) on one qubit.
    assert signed_zeros >= 1


def test_the_z_placeholder_is_the_op_of_a_measured_z():
    h = sum_on(3, (0.5, {0: "Y", 1: "X"}), (1.0, {0: "Y", 1: "Y"}), (0.5, {2: "Z"}),
               (0.5, {0: "Y", 2: "Z"}))
    cert = verify_mf(h)
    assert cert.qubit_order == (0, 1, 2)
    # Y0 = -1 leaves qubit 2 out; Y0 = +1 leaves 0.5 X1 + Y1 + Z2, whose
    # outcomes on qubit 1 give two sign classes, each measured along Z2.
    absent = reduce_qubit(h, cert.steps[0].ops[()], -1)
    assert not any(word.touches(2) for word in absent.terms)
    ops = list(cert.steps[2].ops.values())
    assert ops[0].bloch == (0.0, 0.0, 1.0)
    assert all(op is ops[0] for op in ops)


def test_a_reloaded_plan_shares_ops_across_the_plan_and_values_by_bits():
    across = 0
    for plan in map(parse_plan, map(serialize_plan, w2_plans())):
        ops, values = {}, {}
        for fi, frag in enumerate(plan.fragments):
            cert = frag.certificate
            for step in cert.steps:
                uniform = isinstance(step.ops, UniformBranchOps)
                for op in [step.ops.op] if uniform else step.ops.values():
                    ops.setdefault(bits(op), {}).setdefault(id(op), set()).add(fi)
            if isinstance(cert.terminal_values, BranchTable):
                for value in cert.terminal_values.values():
                    values.setdefault(struct.pack("d", value), set()).add(id(value))
        assert all(len(objects) == 1 for objects in ops.values())
        assert all(len(objects) == 1 for objects in values.values())
        across += sum(len(fis) > 1 for objects in ops.values() for fis in objects.values())
    assert across > 0


def test_a_reloaded_plan_keeps_the_sign_of_zero_and_its_text():
    doc = json.loads(serialize_plan(w2_plans()[20]))
    fi, cert = next(
        (fi, frag["certificate"]) for fi, frag in enumerate(doc["fragments"])
        if len(frag["certificate"].get("terminal_values", ())) >= 4
    )
    si, step = next((si, st) for si, st in enumerate(cert["steps"]) if len(st["ops"]) >= 2)
    tv = cert["terminal_values"]
    for key, value in zip(list(tv), (-0.0, 0.0, 1.5, 1.5)):
        tv[key] = value
    first, second = list(step["ops"])[:2]
    step["ops"][first] = [0.0, -0.0, 1.0]
    step["ops"][second] = [0.0, 0.0, 1.0]
    text = json.dumps(doc, indent=2) + "\n"
    plan = parse_plan(text)
    assert serialize_plan(plan) == text
    reloaded = plan.fragments[fi].certificate
    values = list(reloaded.terminal_values.values())
    assert [math.copysign(1.0, v) for v in values[:2]] == [-1.0, 1.0]
    assert values[0] is not values[1] and values[2] is values[3]
    a, b = list(reloaded.steps[si].ops.values())[:2]
    assert a == b and a is not b and bits(a) != bits(b)


def traced_size(make):
    """Bytes that what ``make()`` returns holds under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        made = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del made
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held


def test_the_w2_mf2_plans_stay_small_in_memory_and_reloaded():
    sums = [acceptance6_sum(seed) for seed in range(6000, 6050)]
    texts = [serialize_plan(plan) for plan in w2_plans()]
    in_memory = traced_size(lambda: [greedy_partition(h, "mf2") for h in sums])
    reloaded = traced_size(lambda: [parse_plan(text) for text in texts])
    # Measured 1.22 MB in memory and 1.12 MB reloaded; with an instance
    # dict per object and an object per op and value, 1.65 and 1.71 MB.
    assert in_memory < 1.4e6
    assert reloaded < 1.3e6


def test_a_reloaded_plan_holds_one_word_per_value():
    shared = 0
    for plan in map(parse_plan, map(serialize_plan, w2_plans())):
        words = list(plan.source.terms)
        for frag in plan.fragments:
            words += frag.hamiltonian.terms
            if frag.entangler is not None:
                words += frag.entangler.origin.coefficients
        objects = {}
        for word in words:
            objects.setdefault(word, set()).add(id(word))
        assert all(len(ids) == 1 for ids in objects.values())
        shared += len(words) - len(objects)
    assert shared > 0


def mfpart_held() -> int:
    """Traced bytes still held that were allocated on a line of mfpart."""
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    mine = snapshot.filter_traces([tracemalloc.Filter(True, "*/mfpart/*")])
    return sum(trace.size for trace in mine.traces)


def test_serializing_reloading_and_sampling_plans_leaves_no_plan_data_behind():
    def round_trip_and_sample(plans):
        for plan in plans:
            n = plan.source.n_qubits
            psi = StateVector(n, random_amplitudes(np.random.default_rng(n), n))
            estimate_energy(parse_plan(serialize_plan(plan)), psi, shots=100, seed=0)

    # Sums of the same kind go first, so that the bounded caches of numpy,
    # Python and mfpart's own structural ones (prefix keys) are warm.
    round_trip_and_sample(
        greedy_partition(acceptance6_sum(seed), "mf2") for seed in range(6050, 6060)
    )
    plans = w2_plans()
    tracemalloc.start()
    try:
        before = mfpart_held()
        round_trip_and_sample(plans)
        held = mfpart_held() - before
    finally:
        tracemalloc.stop()
    # Measured 18 kB, held by numpy's and Python's own bounded caches; 0.98 MB
    # with process-wide caches of rotations, word actions, labels and words.
    assert held < 50_000


#: Module-level functools caches whose keys are structure (register sizes,
#: subsets, depths, outcome prefixes), never the data of one plan.
STRUCTURAL_CACHES = {
    "mfpart.entangler._subset_words",
    "mfpart.entangler._commuting_words",
    "mfpart.entangler._trace_pattern",
    "mfpart.pauli._word_matrix",
    "mfpart.meanfield._prefix_index",
    "mfpart.hamio._prefix_key",
}


def module_caches() -> set[str]:
    """Every functools cache bound at module level in mfpart, by its own module."""
    modules = [mfpart] + [
        importlib.import_module(f"mfpart.{info.name}")
        for info in pkgutil.iter_modules(mfpart.__path__)
    ]
    names = set()
    for module in modules:
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                home = getattr(obj, "__module__", None)
                if getattr(sys.modules.get(home), name, None) is not obj:
                    home = module.__name__
                names.add(f"{home}.{name}")
    return names


def test_mfpart_caches_only_structure_at_module_level():
    assert module_caches() == STRUCTURAL_CACHES


def plan_ops(plan):
    """(fragment index, op, uniform?) of every step op of every certificate of a plan."""
    for fi, frag in enumerate(plan.fragments):
        for step in frag.certificate.steps:
            uniform = isinstance(step.ops, UniformBranchOps)
            for op in [step.ops.op] if uniform else step.ops.values():
                yield fi, op, uniform


def test_a_partition_run_makes_one_op_per_qubit_and_bit_pattern():
    # Ops in more than one fragment, from table and from uniform steps.
    across = {False: 0, True: 0}
    signed_zeros = n_ops = 0
    blochs = set()
    for plan in w2_plans():
        objects, by_value, fragments_of = {}, {}, {}
        for fi, op, uniform in plan_ops(plan):
            objects.setdefault(bits(op), set()).add(id(op))
            by_value.setdefault((op.qubit, op.bloch), set()).add(bits(op))
            fragments_of.setdefault((id(op), uniform), set()).add(fi)
            blochs.add(id(op.bloch))
        assert all(len(ids) == 1 for ids in objects.values())
        for (_, uniform), fis in fragments_of.items():
            across[uniform] += len(fis) > 1
        signed_zeros += sum(len(patterns) - 1 for patterns in by_value.values())
        n_ops += len(objects)
    assert across[False] > 0 and across[True] > 0
    # As many op objects as a reloaded plan holds; 2,229 with one pool per verify_mf call.
    assert n_ops == 1178
    # Axis ops share the chain search's axis tuples across all the plans:
    # 912 tuples when each verify_mf call made its own ops and a pool kept
    # the first of each.
    assert len(blochs) == 739
    # Seed 6020's (a, 0.0, c) and (a, -0.0, c) stay two ops.
    assert signed_zeros >= 1


def test_greedy_partition_builds_no_certificate_the_chain_search_made(monkeypatch):
    # Every certificate, step and table of a plan is the one the chain
    # search in mfpart.meanfield made; the partitioner builds none again.
    builders = set()
    for cls in (MFCertificate, ReductionStep, BranchTable, UniformBranchOps):
        def spy(self, *args, init=cls.__init__, **kwargs):
            builders.add(sys._getframe(1).f_globals["__name__"])
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", spy)
    for level in ("mf1", "mf2"):
        for seed in range(6000, 6050):
            greedy_partition(acceptance6_sum(seed), level)
    assert builders == {"mfpart.meanfield"}


def test_fragment_words_are_the_source_words():
    for plan in w2_plans():
        source = {word: word for word in plan.source.terms}
        seen = dict(source)
        for frag in plan.fragments:
            for word in frag.hamiltonian.terms:
                assert seen.setdefault(word, word) is word
            # A fragment may also hold words that cancel against other fragments.
            assert all(source.get(word, word) is word for word in frag.hamiltonian.terms)


def test_serialize_plan_peak_memory_stays_near_its_text():
    plan = max(w2_plans(), key=lambda p: len(serialize_plan(p)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = serialize_plan(plan)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # Measured 3.03 times the text's length: 3.67 when each op's Bloch
    # tuple is rendered at every entry, 3.69 when every number is a
    # fragment of its own, and 7.8 with both and a list per table entry.
    assert len(text) > 150_000
    assert peak < 3.4 * len(text)
