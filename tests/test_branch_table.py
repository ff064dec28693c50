"""Table certificates held in outcome-bit order (``meanfield.BranchTable``)."""

import dataclasses
import functools
import gc
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_amplitudes, random_sum
from mfpart import hamio, meanfield
from mfpart.hamio import parse_hamiltonian, parse_plan, serialize_plan
from mfpart.meanfield import (
    BranchTable,
    MFCertificate,
    ProductTerminalMap,
    ReductionStep,
    UniformBranchOps,
    verify_mf,
)
from mfpart.partition import MFFragment, PartitionPlan, greedy_partition, validate_plan
from mfpart.pauli import SingleQubitOp
from mfpart.simulator import StateVector, branch_distribution, estimate_energy


def acceptance6_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return random_sum(rng, n, int(rng.integers(3, min(60, 4**n - 2) + 1)))


@functools.lru_cache(maxsize=None)
def w2_plans():
    """The mf2 plans of the 50 acceptance-6 sums, in memory, then reloaded."""
    plans = [greedy_partition(acceptance6_sum(seed), "mf2") for seed in range(6000, 6050)]
    return tuple(plans + [parse_plan(serialize_plan(plan)) for plan in plans])


def test_a_table_reads_its_values_in_bit_order():
    values = [f"v{b}" for b in range(8)]
    table = BranchTable(3, values)
    prefixes = list(itertools.product((1, -1), repeat=3))
    assert list(table) == prefixes and len(table) == 8 and table.depth == 3
    assert list(table.values()) == values
    assert list(table.items()) == list(zip(prefixes, values))
    assert table == dict(zip(prefixes, values))
    # Children of entry b are 2b (+1) and 2b + 1 (-1).
    assert table[1, -1, -1] == "v3" and table.get((-1, 1, 1)) == "v4"
    assert BranchTable(0, [2.5]) == {(): 2.5}


@pytest.mark.parametrize("n_values", [0, 1, 3, 5, 8])
def test_a_table_refuses_a_value_list_of_the_wrong_length(n_values):
    with pytest.raises(ValueError, match="holds 4 values"):
        BranchTable(2, [0.0] * n_values)


@pytest.mark.parametrize(
    "prefix",
    [
        (), (1,), (1, -1, 1), (1, 0), (2, -1), (1, "+"), ("-", -1), (1, None), (1, [1]), "+-",
        # Keys that are not tuples at all, one of them a list of two outcomes.
        5, None, 1.5, [1, -1],
    ],
)
def test_a_table_refuses_a_prefix_as_uniform_ops_do(prefix):
    table = BranchTable(2, [0.0, 1.0, 2.0, 3.0])
    uniform = UniformBranchOps(2, SingleQubitOp(0, (0.0, 0.0, 1.0)))
    products = ProductTerminalMap(2, (((0, 1), 1.0),))
    for mapping in (table, uniform, products):
        with pytest.raises(KeyError):
            mapping[prefix]
        assert mapping.get(prefix, "absent") == "absent"
        assert prefix not in mapping


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_the_three_table_types_share_depth_size_and_prefix_order(depth):
    op = SingleQubitOp(0, (0.0, 0.0, 1.0))
    tables = (
        BranchTable(depth, [0.0] * (1 << depth)),
        UniformBranchOps(depth, op),
        ProductTerminalMap(depth, ((tuple(range(depth)), 1.0),)),
    )
    for table in tables:
        assert table.depth == depth and len(table) == 1 << depth
        assert list(table) == list(meanfield._prefix_index(depth))
    # A table too deep to list still yields its first prefix at once.
    for table in (UniformBranchOps(70, op), ProductTerminalMap(70, ())):
        assert table.depth == 70 and next(iter(table)) == (1,) * 70


def dict_copy(plan):
    """The plan with every BranchTable replaced by a dict of its items."""

    def copy(table):
        return dict(table) if isinstance(table, BranchTable) else table

    fragments = []
    for frag in plan.fragments:
        cert = frag.certificate
        steps = tuple(ReductionStep(step.qubit, copy(step.ops)) for step in cert.steps)
        cert = dataclasses.replace(cert, steps=steps, terminal_values=copy(cert.terminal_values))
        fragments.append(dataclasses.replace(frag, certificate=cert))
    return dataclasses.replace(plan, fragments=tuple(fragments))


def with_negated_value(plan, fi, as_dict):
    """The plan with one nonzero terminal value of fragment fi negated."""
    frag = plan.fragments[fi]
    values = list(frag.certificate.terminal_values.values())
    b = next(b for b, v in enumerate(values) if v != 0.0)
    values[b] = -values[b]
    table = BranchTable(len(frag.certificate.steps), values)
    cert = dataclasses.replace(frag.certificate, terminal_values=dict(table) if as_dict else table)
    fragments = list(plan.fragments)
    fragments[fi] = dataclasses.replace(frag, certificate=cert)
    return dataclasses.replace(plan, fragments=tuple(fragments))


def test_a_dict_copy_of_every_table_reads_the_same_as_the_table():
    tables = mutated = 0
    for i, plan in enumerate(w2_plans()):
        certs = [frag.certificate for frag in plan.fragments]
        # No table is held as a dict, in memory or reloaded.
        for cert in certs:
            for step in cert.steps:
                assert isinstance(step.ops, (BranchTable, UniformBranchOps))
        table_fragments = [
            fi for fi, cert in enumerate(certs) if isinstance(cert.terminal_values, BranchTable)
        ]
        tables += len(table_fragments)
        copied = dict_copy(plan)
        assert serialize_plan(copied) == serialize_plan(plan)
        assert validate_plan(copied) == validate_plan(plan) == []
        n = plan.source.n_qubits
        psi = StateVector(n, random_amplitudes(np.random.default_rng(i), n))
        for got, want in zip(copied.fragments, plan.fragments):
            for a, b in zip(branch_distribution(got, psi), branch_distribution(want, psi)):
                assert a.tobytes() == b.tobytes()
        assert estimate_energy(copied, psi, 200, i) == estimate_energy(plan, psi, 200, i)
        for fi in table_fragments[:1]:
            problems = validate_plan(with_negated_value(plan, fi, as_dict=False))
            assert problems and problems == validate_plan(with_negated_value(plan, fi, True))
            mutated += 1
    assert tables >= 200 and mutated >= 50


# A three-step chain measured in the order 0, 2, 1 with a per-branch table.
THREE_STEP = "1.0 Z0\n0.5 Z0 X1\n0.3 X1 Z2\n0.2 Z1\n0.4 Z2\n"


def three_step_file(edit):
    """The plan file of THREE_STEP with its certificate edited in place."""
    h = parse_hamiltonian(THREE_STEP)
    cert = verify_mf(h)
    plan = PartitionPlan(source=h, fragments=(MFFragment(h, cert),), level="mf1")
    doc = json.loads(serialize_plan(plan))
    edit(doc["fragments"][0]["certificate"])
    return json.dumps(doc, indent=2) + "\n"


def reverse(rows):
    items = list(rows.items())
    rows.clear()
    rows.update(reversed(items))


def swap_first_two(rows):
    items = list(rows.items())
    rows.clear()
    rows.update([items[1], items[0]] + items[2:])


def rename(rows, old, new):
    items = list(rows.items())
    rows.clear()
    rows.update((new if key == old else key, value) for key, value in items)


# Each listing, and the refusal parse_plan gives it when it misses or adds
# a prefix (None: it reads as the canonical file does).
VALUES = r"'fragments\[0\]\.certificate\.terminal_values'"
LISTINGS = {
    "reversed values": (lambda c: reverse(c["terminal_values"]), None),
    "reversed ops": (lambda c: reverse(c["steps"][2]["ops"]), None),
    "swapped values": (lambda c: swap_first_two(c["terminal_values"]), None),
    "missing value": (lambda c: c["terminal_values"].pop("+-+"), VALUES + " lists 7 of 8 prefixes"),
    "short value key": (
        lambda c: rename(c["terminal_values"], "++-", "-"),
        VALUES + ": key '-' is not of length 3",
    ),
    "missing op": (
        lambda c: c["steps"][2]["ops"].pop("-+"),
        r"'fragments\[0\]\.certificate\.steps\[2\]\.ops' lists 3 of 4 prefixes",
    ),
    "long op key": (
        lambda c: rename(c["steps"][1]["ops"], "-", "-+"),
        r"'fragments\[0\]\.certificate\.steps\[1\]\.ops': key '-\+' is not of length 1",
    ),
}


@pytest.mark.parametrize("name", list(LISTINGS))
def test_a_table_listed_out_of_bit_order_or_incomplete_stays_a_dict(name):
    # No table stays a dict: one listed in another order reads as the
    # canonical file does, and an incomplete one is refused, naming the field.
    edit, refusal = LISTINGS[name]
    text = three_step_file(edit)
    if refusal is not None:
        with pytest.raises(ValueError, match=refusal):
            parse_plan(text)
        return
    loaded = parse_plan(text)
    cert = loaded.fragments[0].certificate
    assert all(
        isinstance(table, BranchTable)
        for table in (cert.terminal_values, *(step.ops for step in cert.steps))
    )
    assert validate_plan(loaded) == []
    assert serialize_plan(loaded) == three_step_file(lambda c: None)


def test_table_certificates_hold_no_key_per_prefix():
    sums = [f.effective_hamiltonian() for plan in w2_plans()[:50] for f in plan.fragments]
    gc.collect()
    tracemalloc.start()
    try:
        certs = [verify_mf(h) for h in sums]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del certs
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Measured 1.07 MB.  Dicts keyed by a new outcome tuple per prefix came
    # to 2.62 MB, and dicts keyed by the shared prefix tuples to 1.46 MB.
    assert held < 1.3e6


def forty_step_file(edit):
    """The plan file of a 40-qubit Z sum, its certificate edited in place."""
    h = parse_hamiltonian("".join(f"1.0 Z{q}\n" for q in range(40)))
    doc = json.loads(serialize_plan(greedy_partition(h, "mf1")))
    cert = doc["fragments"][0]["certificate"]
    del cert["terminal_products"]
    edit(cert)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "values", [{}, {"+" * 40: 1.0}, {"+" * 40: 1.0, "+" * 39 + "-": 1.0}]
)
def test_a_short_table_of_a_deep_chain_is_read_without_listing_its_prefixes(values, monkeypatch):
    # 2^40 prefix keys would not fit in memory; a table this short is
    # refused from its length before any prefix is listed.
    text = forty_step_file(lambda cert: cert.update(terminal_values=values))

    def no_listing(depth):
        raise AssertionError(f"listed the prefixes of depth {depth}")

    monkeypatch.setattr(hamio, "_prefix_index", no_listing)
    with pytest.raises(ValueError, match=f"{VALUES} lists {len(values)} of {1 << 40} prefixes"):
        parse_plan(text)


def three_step_plan_with(edit):
    """The plan of THREE_STEP with its certificate rebuilt from ``edit(cert)``'s fields."""
    h = parse_hamiltonian(THREE_STEP)
    cert = verify_mf(h)
    rebuilt = MFCertificate(cert.n_qubits, *edit(cert))
    return PartitionPlan(source=h, fragments=(MFFragment(h, rebuilt),), level="mf1")


def listed(table, order):
    """A dict of the table's items in the given order of bit indices."""
    items = list(table.items())
    return {items[b][0]: items[b][1] for b in order}


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_a_certificate_reads_a_dict_in_any_order_into_a_table(order):
    def shuffle(n):
        if order == "reversed":
            return range(n - 1, -1, -1)
        return np.random.default_rng(5).permutation(n)

    def as_dicts(cert):
        steps = tuple(
            ReductionStep(step.qubit, listed(step.ops, shuffle(len(step.ops))))
            for step in cert.steps
        )
        return steps, listed(cert.terminal_values, shuffle(len(cert.terminal_values)))

    plan = three_step_plan_with(lambda cert: (cert.steps, cert.terminal_values))
    dicts = three_step_plan_with(as_dicts)
    got, want = dicts.fragments[0].certificate, plan.fragments[0].certificate
    assert list(as_dicts(want)[1]) != list(want.terminal_values)
    for a, b in zip((got.terminal_values, *(s.ops for s in got.steps)),
                    (want.terminal_values, *(s.ops for s in want.steps))):
        assert type(a) is BranchTable and a.depth == b.depth and a.values() == b.values()
    assert serialize_plan(dicts) == serialize_plan(plan)
    assert validate_plan(dicts) == []
    psi = StateVector(3, random_amplitudes(np.random.default_rng(8), 3))
    assert estimate_energy(dicts, psi, 100, 8) == estimate_energy(plan, psi, 100, 8)


def test_a_certificate_refuses_a_table_of_another_depth():
    h = parse_hamiltonian(THREE_STEP)
    cert = verify_mf(h)
    steps, tv = cert.steps, cert.terminal_values
    op = steps[1].ops[(1,)]
    for si, ops, match in (
        (1, UniformBranchOps(2, op), "the ops of step 1 must list the 2 outcome prefixes, not 4"),
        (1, BranchTable(0, [op]), "the ops of step 1 must list the 2 outcome prefixes, not 1"),
        (2, {(1,): op, (-1,): op}, "the ops of step 2 must list the 4 outcome prefixes, not 2"),
    ):
        changed = steps[:si] + (ReductionStep(steps[si].qubit, ops),) + steps[si + 1 :]
        with pytest.raises(ValueError, match=match):
            MFCertificate(3, changed, tv)
    with pytest.raises(ValueError, match="terminal values must list the 8 outcome prefixes, not 4"):
        MFCertificate(3, steps, BranchTable(2, tv.values()[:4]))
    product = verify_mf(parse_hamiltonian("1.0 Z0 Z1\n0.5 X2\n"))
    assert isinstance(product.terminal_values, ProductTerminalMap)
    with pytest.raises(ValueError, match="terminal values must list the 8 outcome prefixes, not 4"):
        MFCertificate(3, product.steps, ProductTerminalMap(2, (((), 1.0),)))
    # Tables too deep for len() are sized from their depth.
    with pytest.raises(ValueError, match=f"values must list the 8 outcome prefixes, not {1 << 70}"):
        MFCertificate(3, steps, ProductTerminalMap(70, ()))
    changed = steps[:1] + (ReductionStep(steps[1].qubit, UniformBranchOps(70, op)),) + steps[2:]
    with pytest.raises(ValueError, match=f"step 1 must list the 2 outcome prefixes, not {1 << 70}"):
        MFCertificate(3, changed, tv)
    # Same size, one prefix swapped for a longer one.
    longer = dict(tv)
    longer[(1, -1, 1, 1)] = longer.pop((1, -1, 1))
    with pytest.raises(ValueError, match=r"values must list the prefix \(1, -1, 1\)"):
        MFCertificate(3, steps, longer)


def test_a_certificate_refuses_a_short_table_of_a_deep_chain_at_once(monkeypatch):
    cert = verify_mf(parse_hamiltonian("".join(f"1.0 Z{q}\n" for q in range(40))))
    assert len(cert.steps) == 40

    def no_listing(depth):
        raise AssertionError(f"listed the prefixes of depth {depth}")

    monkeypatch.setattr(meanfield, "_prefix_index", no_listing)
    with pytest.raises(ValueError, match=f"must list the {1 << 40} outcome prefixes, not 2"):
        MFCertificate(40, cert.steps, {(1,) * 40: 1.0, (-1,) * 40: 1.0})
