import dataclasses
import functools
import inspect
import itertools
import time

import numpy as np
import pytest

from conftest import dense_word, h2_model, random_amplitudes, random_sum, wide_table_model
from mfpart import meanfield, partition
from mfpart.entangler import (
    EntanglerSpec,
    KQubitOp,
    apply_unitary,
    build_clifford_unentangler,
    build_unentangler,
    factorability_check,
    find_commuting_ops,
)
from mfpart.hamio import parse_plan, serialize_plan
from mfpart.meanfield import (
    GRAM_TOL_SCALE,
    BranchTable,
    MFCertificate,
    ProductTerminalMap,
    ReductionStep,
    UniformBranchOps,
    compute_l,
    reduce_qubit,
    verify_mf,
)
from mfpart.partition import MFFragment, PartitionPlan, greedy_partition, validate_plan
from mfpart.pauli import PauliSum, PauliWord, SingleQubitOp
from mfpart.qwc import qwc_partition
from mfpart.simulator import (
    StateVector,
    branch_distribution,
    eigensolve,
    expectation,
    to_dense,
)


def sum_on(n_qubits, *terms):
    return PauliSum.from_terms(
        n_qubits, [(PauliWord.from_axes(n_qubits, axes), c) for c, axes in terms]
    )


def exchange_model():
    """Two exchange-coupled qubits with a diagonal spectator coupling.

    No single qubit is factorable, but the pair admits a commuting
    two-qubit operator whose eigenbasis diagonalizes every sector.
    """
    return sum_on(
        3,
        (0.7, {0: "X", 1: "X"}),
        (0.7, {0: "Y", 1: "Y"}),
        (0.3, {0: "Z"}),
        (0.3, {1: "Z"}),
        (0.5, {0: "Z", 1: "Z"}),
        (0.4, {0: "X", 1: "X", 2: "Z"}),
        (0.4, {0: "Y", 1: "Y", 2: "Z"}),
    )


@pytest.mark.parametrize("seed", range(6))
def test_mf1_plans_validate(seed):
    rng = np.random.default_rng(200 + seed)
    h = random_sum(rng, 4, 12)
    plan = greedy_partition(h)
    assert plan.level == "mf1"
    assert validate_plan(plan) == []
    assert plan.n_fragments <= qwc_partition(h).n_groups
    assert all(frag.entangler is None for frag in plan.fragments)


@pytest.mark.parametrize("seed", range(6))
def test_fragments_reconstruct_exactly(seed):
    rng = np.random.default_rng(300 + seed)
    h = random_sum(rng, 5, 16)
    plan = greedy_partition(h)
    total = PauliSum.zero(5)
    for frag in plan.fragments:
        total = total + frag.hamiltonian
    assert total.allclose(h, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_mf2_never_worse_than_mf1(seed):
    rng = np.random.default_rng(400 + seed)
    h = random_sum(rng, 4, 10)
    plan1 = greedy_partition(h, level="mf1")
    plan2 = greedy_partition(h, level="mf2")
    assert validate_plan(plan2) == []
    assert plan2.n_fragments <= plan1.n_fragments
    assert plan1.n_fragments <= qwc_partition(h).n_groups


def test_rejects_unknown_level():
    h = sum_on(2, (1.0, {0: "Z"}))
    with pytest.raises(ValueError, match="level"):
        greedy_partition(h, level="mf3")


def test_rejects_empty_hamiltonian():
    with pytest.raises(ValueError, match="empty"):
        greedy_partition(PauliSum.zero(3))


def test_collinear_model_needs_two_fragments(collinear3):
    plan = greedy_partition(collinear3)
    assert validate_plan(plan) == []
    assert plan.n_fragments == 2
    # Both summands keep the factorable qubit intact and certify a full
    # chain over the three-qubit register.
    for frag in plan.fragments:
        assert set(frag.certificate.qubit_order) == {0, 1, 2}


def test_exchange_model_is_rescued_at_mf2():
    h = exchange_model()
    plan1 = greedy_partition(h, level="mf1")
    plan2 = greedy_partition(h, level="mf2")
    assert plan1.n_fragments >= 2
    assert plan2.n_fragments == 1
    assert plan2.fragments[0].entangler is not None
    assert plan2.fragments[0].entangler.subset == (0, 1)
    assert validate_plan(plan2) == []


def rotated_sum(frag):
    """U†HU of the fragment's own terms, as (word, coefficient) pairs in order."""
    return list(apply_unitary(frag.hamiltonian, frag.entangler).terms.items())


def test_entangled_fragments_keep_the_sum_they_certified():
    models = [h2_model(np.random.default_rng(500 + seed)) for seed in range(3)]
    plans = [greedy_partition(h, level="mf2") for h in models + [exchange_model()]]
    entangled = [f for plan in plans for f in plan.fragments if f.entangler is not None]
    assert len(entangled) == len(plans)
    for frag in entangled:
        assert list(frag.effective_hamiltonian().terms.items()) == rotated_sum(frag)
        assert MFFragment(frag.hamiltonian, frag.certificate, frag.entangler) == frag
    # The fragment's own terms rotate back to the sum the partitioner certified.
    entangled = [
        frag
        for seed in range(6000, 6050)
        for frag in greedy_partition(shape_sum(seed), level="mf2").fragments
        if frag.entangler is not None
    ]
    assert len(entangled) == 115
    assert all(verify_mf(f.effective_hamiltonian()) == f.certificate for f in entangled)


def test_a_replaced_fragment_rotates_its_own_terms():
    frag = greedy_partition(exchange_model(), level="mf2").fragments[0]
    copy = dataclasses.replace(frag, hamiltonian=frag.hamiltonian.scale(2.0))
    eff = copy.effective_hamiltonian()
    assert list(eff.terms.items()) == rotated_sum(copy)
    assert eff.allclose(frag.effective_hamiltonian().scale(2.0), atol=1e-12)


def test_a_loaded_plan_rotates_the_loaded_terms():
    plan = greedy_partition(exchange_model(), level="mf2")
    frag = parse_plan(serialize_plan(plan)).fragments[0]
    assert frag.entangler is not None
    assert list(frag.effective_hamiltonian().terms.items()) == rotated_sum(frag)


def shape_sum(seed):
    """A sum of the acceptance-6 shape: 2-6 qubits and up to 60 terms."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return random_sum(rng, n, int(rng.integers(3, min(60, 4**n - 2) + 1)))


#: The acceptance-6 sums and three dozen more of their shape.
RESCUE_SEEDS = (*range(6000, 6050), *range(7000, 7036))


@pytest.fixture(scope="module")
def rescue_run():
    """Sums the mf2 planning of RESCUE_SEEDS tries to rescue, and the ops it checks."""
    stuck, checked = [], []
    try_entangler, check = partition._try_entangler, partition.factorability_check

    def try_spy(s, ops):
        stuck.append(s)
        return try_entangler(s, ops)

    def check_spy(h, op):
        checked.append(op)
        return check(h, op)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition, "_try_entangler", try_spy)
        patch.setattr(partition, "factorability_check", check_spy)
        for seed in RESCUE_SEEDS:
            greedy_partition(shape_sum(seed), level="mf2")
    return stuck, checked


def test_eigenbasis_form_rescues_no_word_the_clifford_form_leaves(rescue_run):
    # The eigenbasis form, tried on every stuck pair and every single-word
    # operator whose Clifford rotation does not certify, certifies nothing.
    stuck, _ = rescue_run
    clifford_failed = factorable = 0
    for s in stuck:
        for pair in itertools.combinations(meanfield._stuck_support(s), 2):
            for op in find_commuting_ops(s, pair):
                if op.dominant_word() is None:
                    continue
                if verify_mf(apply_unitary(s, build_clifford_unentangler(op))) is not None:
                    continue
                clifford_failed += 1
                if not factorability_check(s, op).ok:
                    continue
                try:
                    spec = build_unentangler(s, op)
                except RuntimeError:
                    continue  # the rotation left a subset qubit non-factorable
                factorable += 1
                assert verify_mf(apply_unitary(s, spec)) is None
    assert clifford_failed > 0 and factorable > 0


def test_factorability_check_sees_only_mixed_operators(rescue_run):
    _, checked = rescue_run
    assert checked
    assert [op for op in checked if op.dominant_word() is not None] == []


@pytest.mark.parametrize("seed", range(3))
def test_h2_like_model_collapses_to_one_fragment(seed):
    rng = np.random.default_rng(500 + seed)
    h = h2_model(rng)
    plan1 = greedy_partition(h, level="mf1")
    assert plan1.n_fragments == 3
    assert plan1.n_fragments == qwc_partition(h).n_groups
    plan2 = greedy_partition(h, level="mf2")
    assert plan2.n_fragments == 1
    assert plan2.fragments[0].entangler is not None
    assert plan2.fragments[0].entangler.subset == (1, 3)
    assert validate_plan(plan2) == []


def test_branch_cap_falls_back_to_qwc_groups(monkeypatch):
    h = sum_on(2, (1.0, {0: "Z", 1: "X"}), (0.5, {0: "Z", 1: "Y"}))
    assert greedy_partition(h).n_fragments == 1
    monkeypatch.setattr(meanfield, "MAX_BRANCHES", 2)
    plan = greedy_partition(h)
    assert plan.n_fragments == qwc_partition(h).n_groups == 2
    assert validate_plan(plan) == []


def test_validate_flags_bad_reconstruction():
    h = sum_on(2, (1.0, {0: "Z"}), (0.5, {1: "X"}))
    plan = greedy_partition(h)
    extra = h + sum_on(2, (0.25, {0: "X"}))
    bad = PartitionPlan(source=extra, fragments=plan.fragments, level=plan.level)
    problems = validate_plan(bad)
    assert any("sum to the source" in p for p in problems)


def scaled_sums(scale):
    """24 random sums on 3-5 qubits times ``scale``."""
    sums = []
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 3
        sums.append(random_sum(rng, n, int(rng.integers(4, 4 * n + 4))).scale(scale))
    return sums


@pytest.mark.parametrize("level", ["mf1", "mf2"])
def test_validate_checks_reconstruction_relative_to_the_largest_coefficient(level):
    plans = [greedy_partition(h, level=level) for h in scaled_sums(1e9)]
    assert [validate_plan(plan) for plan in plans] == [[]] * len(plans)
    for plan in plans[:4]:
        frag = plan.fragments[0]
        word, coeff = next(iter(frag.hamiltonian.terms.items()))
        off = 1e-8 * max(map(abs, plan.source.terms.values()))
        moved = frag.hamiltonian + PauliSum.from_terms(plan.source.n_qubits, [(word, off)])
        bad = dataclasses.replace(
            plan, fragments=(dataclasses.replace(frag, hamiltonian=moved),) + plan.fragments[1:]
        )
        assert "fragments do not sum to the source Hamiltonian" in validate_plan(bad)


def test_partition_refuses_coefficients_whose_squares_overflow():
    h = sum_on(
        2,
        (1e308, {0: "X", 1: "X"}),
        (1e308, {0: "Z", 1: "Z"}),
        (1e308, {0: "Y", 1: "Y"}),
        (1.0, {0: "X", 1: "Z"}),
    )
    with pytest.raises(ValueError, match="sum of their squares is not finite"):
        greedy_partition(h)


def test_validate_reports_a_fragment_whose_squares_overflow():
    plan = greedy_partition(exchange_model(), level="mf2")
    big = PauliWord.from_axes(plan.source.n_qubits, {0: "Z"})
    boost = PauliSum.from_terms(plan.source.n_qubits, [(big, 1e308)])
    frag = plan.fragments[0]
    bad = dataclasses.replace(
        plan,
        source=plan.source + boost,
        fragments=(dataclasses.replace(frag, hamiltonian=frag.hamiltonian + boost),)
        + plan.fragments[1:],
    )
    assert validate_plan(bad) == [
        "fragment 0: coefficients are too large: the sum of their squares is not finite"
    ]


def test_validate_reports_an_entangler_outside_the_register():
    plan = greedy_partition(exchange_model(), level="mf2")
    frag = plan.fragments[0]
    n = plan.source.n_qubits
    origin = KQubitOp(n + 2, (0, n + 1), {PauliWord.from_axes(n + 2, {0: "Z"}): 1.0})
    outside = EntanglerSpec((0, n + 1), frag.entangler.unitary, origin)
    bad = dataclasses.replace(plan, fragments=(dataclasses.replace(frag, entangler=outside),))
    assert validate_plan(bad) == [f"fragment 0: entangler acts on qubit {n + 1} outside the register"]


def test_validate_reports_a_fragment_on_another_register():
    plan = greedy_partition(h2_model(np.random.default_rng(77)), level="mf2")
    frag = plan.fragments[0]
    assert frag.entangler is not None
    moved = PauliSum.from_terms(
        5, [(PauliWord(5, w.x_mask, w.z_mask), c) for w, c in frag.hamiltonian.terms.items()]
    )
    bad = dataclasses.replace(plan, fragments=(dataclasses.replace(frag, hamiltonian=moved),))
    assert validate_plan(bad) == [
        "fragments do not sum to the source Hamiltonian",
        "fragment 0: hamiltonian is on a register of 5 qubits, not 4",
    ]
    # Only the moved fragment is left out of the sum.
    two = dataclasses.replace(bad, source=plan.source + plan.source,
                              fragments=plan.fragments + bad.fragments + plan.fragments)
    assert validate_plan(two) == ["fragment 1: hamiltonian is on a register of 5 qubits, not 4"]


def test_validate_flags_register_mismatch():
    h = sum_on(2, (1.0, {0: "Z"}), (0.5, {1: "X"}))
    plan = greedy_partition(h)
    frag = plan.fragments[0]
    broken = dataclasses.replace(
        frag, certificate=dataclasses.replace(frag.certificate, n_qubits=3)
    )
    bad = PartitionPlan(
        source=h, fragments=(broken,) + plan.fragments[1:], level=plan.level
    )
    problems = validate_plan(bad)
    assert any("register size" in p for p in problems)


def three_step_plan():
    """One fragment whose certificate has 3 steps and a per-branch table."""
    h = sum_on(
        3,
        (1.0, {0: "Z"}),
        (0.5, {0: "Z", 1: "X"}),
        (0.3, {1: "X", 2: "Z"}),
        (0.2, {1: "Z"}),
        (0.4, {2: "Z"}),
    )
    cert = verify_mf(h)
    assert cert.qubit_order == (0, 2, 1)
    assert isinstance(cert.terminal_values, BranchTable)
    return PartitionPlan(source=h, fragments=(MFFragment(h, cert),), level="mf1")


def with_certificate(plan, **changes):
    frag = plan.fragments[0]
    cert = dataclasses.replace(frag.certificate, **changes)
    return dataclasses.replace(plan, fragments=(dataclasses.replace(frag, certificate=cert),))


@functools.lru_cache(maxsize=None)
def word_matrix(word):
    return dense_word(word)


def dense_commutes(h, op):
    """validate_plan's commute decision, made on dense matrices.

    The squared commutator norm per dimension may reach 16 * GRAM_TOL_SCALE
    * max(1, |H_k|^2 per dimension), where H_k, the part of h acting on
    the op's qubit, is what averaging over the four Paulis there removes.
    """
    n, k = h.n_qubits, op.qubit
    dim = 1 << n
    hm = sum((c * word_matrix(w) for w, c in h.terms.items()), np.zeros((dim, dim), complex))
    paulis = [word_matrix(PauliWord.from_axes(n, {k: axis})) for axis in "XYZ"]
    om = sum(b / op.norm * p for b, p in zip(op.bloch, paulis))
    commutator = np.linalg.norm(hm @ om - om @ hm) ** 2 / dim
    on_k = np.linalg.norm(hm - (hm + sum(p @ hm @ p for p in paulis)) / 4) ** 2 / dim
    return commutator <= 16 * GRAM_TOL_SCALE * max(1.0, on_k)


def root_walk_problem(frag):
    """The first bad branch, reducing each from the root with dense commute checks."""
    cert = frag.certificate
    for outcomes in cert.terminal_values:
        reduced = frag.effective_hamiltonian()
        for si, (step, outcome) in enumerate(zip(cert.steps, outcomes)):
            op = step.ops[outcomes[:si]]
            if op.qubit != step.qubit:
                return (f"branch {outcomes} op at step {si} "
                        f"acts on qubit {op.qubit}, not {step.qubit}")
            if not dense_commutes(reduced, op):
                return f"branch {outcomes} op at step {si} does not commute"
            reduced = reduce_qubit(reduced, op, outcome)
        if reduced.support():
            return f"branch {outcomes} left a non-scalar"
        if abs(reduced.constant_part() - cert.terminal_values[outcomes]) > 1e-9:
            return f"branch {outcomes} terminal mismatch"
    return None


def root_walk_problems(plan):
    """Certificate problems found by walking every branch of every fragment."""
    found = [(fi, root_walk_problem(frag)) for fi, frag in enumerate(plan.fragments)]
    return [f"fragment {fi}: {problem}" for fi, problem in found if problem]


def test_validate_finds_a_deep_terminal_mismatch():
    plan = three_step_plan()
    assert validate_plan(plan) == []
    values = dict(plan.fragments[0].certificate.terminal_values)
    values[(-1, -1, 1)] += 0.5
    bad = with_certificate(plan, terminal_values=values)
    problems = validate_plan(bad)
    assert problems == ["fragment 0: branch (-1, -1, 1) terminal mismatch"]
    assert problems == root_walk_problems(bad)


def test_validate_finds_a_non_scalar_branch():
    plan = three_step_plan()
    steps = list(plan.fragments[0].certificate.steps)
    last = steps[2]
    ops = {prefix: last.ops[prefix] for prefix in last.ops}
    # An op on an already measured qubit would leave qubit 1 unreduced in
    # the two branches below (-1, +1); the walk names the op's qubit first.
    ops[(-1, 1)] = SingleQubitOp(0, (0.0, 0.0, 1.0))
    steps[2] = ReductionStep(last.qubit, ops)
    bad = with_certificate(plan, steps=tuple(steps))
    problems = validate_plan(bad)
    assert problems == ["fragment 0: branch (-1, 1, 1) op at step 2 acts on qubit 0, not 1"]
    assert problems == root_walk_problems(bad)


def test_validate_checks_every_branch_of_a_wide_table():
    plan = greedy_partition(wide_table_model())
    assert plan.n_fragments == 1
    values = dict(plan.fragments[0].certificate.terminal_values)
    assert len(values) == 512
    assert validate_plan(plan) == []
    late = list(values)[300]
    values[late] += 0.5
    bad = with_certificate(plan, terminal_values=values)
    assert validate_plan(bad) == [f"fragment 0: branch {late} terminal mismatch"]


def test_the_plan_functions_take_no_branch_options():
    def options(fn):
        return list(inspect.signature(fn).parameters)

    assert options(validate_plan) == ["plan"]
    assert options(greedy_partition) == ["h", "level"]
    assert options(verify_mf) == ["h"]
    assert options(compute_l) == ["dec"]
    assert options(to_dense) == options(eigensolve) == ["h"]


def test_validate_refuses_an_op_that_does_not_commute():
    h = sum_on(2, (1.0, {0: "X", 1: "Z"}), (0.5, {1: "Z"}))
    z0, z1 = SingleQubitOp(0, (0.0, 0.0, 1.0)), SingleQubitOp(1, (0.0, 0.0, 1.0))
    assert not dense_commutes(h, z0)
    # Z on qubit 0 zeroes X0 Z1, and the table holds that wrong chain's
    # values, so only the commute check objects.
    steps = (ReductionStep(0, {(): z0}), ReductionStep(1, {(1,): z1, (-1,): z1}))
    values = {(a, b): 0.5 * b for a in (1, -1) for b in (1, -1)}
    plan = PartitionPlan(h, (MFFragment(h, MFCertificate(2, steps, values)),), "mf1")
    problems = validate_plan(plan)
    assert problems == ["fragment 0: branch (1, 1) op at step 0 does not commute"]
    assert problems == root_walk_problems(plan)

    good = greedy_partition(h)
    assert good.fragments[0].certificate.steps[0].ops[()].bloch == (1.0, 0.0, 0.0)
    assert validate_plan(good) == root_walk_problems(good) == []


def test_word_check_leaves_an_op_off_a_factor_axis_to_the_walk():
    plan = product_plan(4, seed=2)
    cert = plan.fragments[0].certificate
    assert cert.qubit_order == (0, 1, 2, 3)
    # Qubit 1 carries Y; Z there zeroes every word on it, and the products
    # left out match that wrong chain.
    steps = list(cert.steps)
    steps[1] = ReductionStep(1, UniformBranchOps(1, SingleQubitOp(1, (0.0, 0.0, 1.0))))
    kept = tuple(t for t in cert.terminal_values.terms if 1 not in t[0])
    bad = with_certificate(plan, steps=tuple(steps), terminal_values=ProductTerminalMap(4, kept))
    problems = validate_plan(bad)
    assert problems == [f"fragment 0: branch {(1,) * 4} op at step 1 does not commute"]
    assert problems == root_walk_problems(bad)


@pytest.mark.parametrize("seed", range(4))
def test_every_certified_op_commutes_with_its_branch_sum(seed):
    rng = np.random.default_rng(900 + seed)
    h = random_sum(rng, 4, 12)
    plans = [greedy_partition(h), greedy_partition(h, level="mf2")]
    plans.append(greedy_partition(h2_model(rng), level="mf2"))
    for plan in plans:
        assert validate_plan(plan) == root_walk_problems(plan) == []


def test_a_plan_certified_at_a_loose_tolerance_fails_validation(monkeypatch):
    h = sum_on(
        3,
        (0.5, {0: "Z", 1: "Z"}),
        (0.25, {0: "X"}),
        (0.7, {1: "X", 2: "X"}),
        (0.7, {1: "Y", 2: "Y"}),
        (-1.0, {}),
    )
    assert validate_plan(greedy_partition(h)) == []
    with monkeypatch.context() as patch:
        patch.setattr(meanfield, "GRAM_TOL_SCALE", 1.0)
        loose = greedy_partition(h)
    problems = validate_plan(loose)
    assert problems == root_walk_problems(loose)
    assert problems == ["fragment 0: branch (1, 1, 1) op at step 0 does not commute"]


def test_validate_walk_does_not_depend_on_branch_order():
    plan = three_step_plan()
    values = dict(plan.fragments[0].certificate.terminal_values)
    shuffled = {o: values[o] for o in sorted(values, key=lambda o: (o[2], o[0], o[1]))}
    assert validate_plan(with_certificate(plan, terminal_values=shuffled)) == []
    shuffled[(1, -1, -1)] += 0.5
    bad = with_certificate(plan, terminal_values=shuffled)
    problems = validate_plan(bad)
    assert problems == ["fragment 0: branch (1, -1, -1) terminal mismatch"]
    assert problems == root_walk_problems(bad)


def product_plan(n_qubits, seed):
    """One fragment certified by outcome products: one axis per qubit."""
    rng = np.random.default_rng(seed)
    axis = {q: "XYZ"[q % 3] for q in range(n_qubits)}
    terms = [(float(rng.normal()), {q: axis[q]}) for q in range(n_qubits)]
    terms += [
        (float(rng.normal()), {q: axis[q], q + 1: axis[q + 1]}) for q in range(n_qubits - 1)
    ]
    h = sum_on(n_qubits, (0.25, {}), *terms)
    cert = verify_mf(h)
    assert isinstance(cert.terminal_values, ProductTerminalMap)
    return PartitionPlan(source=h, fragments=(MFFragment(h, cert),), level="mf1")


def with_products(plan, terms):
    cert = plan.fragments[0].certificate
    return with_certificate(
        plan, terminal_values=ProductTerminalMap(cert.terminal_values.depth, terms)
    )


def test_validate_refuses_a_certificate_that_measures_a_qubit_twice():
    plan = product_plan(3, seed=0)
    cert = plan.fragments[0].certificate
    again = ReductionStep(0, UniformBranchOps(3, SingleQubitOp(0, (0.0, 0.0, 1.0))))
    twice = with_certificate(
        plan,
        steps=cert.steps + (again,),
        terminal_values=ProductTerminalMap(4, cert.terminal_values.terms),
    )
    expected = ["fragment 0: certificate measures qubit 0 twice"]
    assert validate_plan(twice) == expected

    plan = three_step_plan()
    cert = plan.fragments[0].certificate
    ops = {o: SingleQubitOp(2, (1.0, 0.0, 0.0)) for o in cert.terminal_values}
    values = {o + (s,): v for o, v in cert.terminal_values.items() for s in (1, -1)}
    twice = with_certificate(
        plan, steps=cert.steps + (ReductionStep(2, ops),), terminal_values=values
    )
    problems = validate_plan(twice)
    assert problems == ["fragment 0: certificate measures qubit 2 twice"]


def test_validate_refuses_steps_that_trade_qubit_numbers_but_keep_their_ops():
    plan = three_step_plan()
    steps = plan.fragments[0].certificate.steps
    assert [step.qubit for step in steps] == [0, 2, 1]
    # Reducing each op's own qubit, every branch still lands on its value;
    # sampling measures each step's qubit, and its energy is biased.
    traded = (ReductionStep(2, steps[0].ops), ReductionStep(0, steps[1].ops), steps[2])
    bad = with_certificate(plan, steps=traded)
    problems = validate_plan(bad)
    assert problems == ["fragment 0: branch (1, 1, 1) op at step 0 acts on qubit 0, not 2"]
    assert problems == root_walk_problems(bad)
    psi = StateVector(3, random_amplitudes(np.random.default_rng(12), 3))
    exact = expectation(plan.source, psi)
    probs, values = branch_distribution(plan.fragments[0], psi)
    assert probs @ values == pytest.approx(exact, abs=1e-12)
    probs, values = branch_distribution(bad.fragments[0], psi)
    assert abs(probs @ values - exact) > 0.1


def test_validate_refuses_a_chain_whose_bits_do_not_name_its_branches():
    plan = three_step_plan()
    cert = plan.fragments[0].certificate
    values = dict(cert.terminal_values)
    outside = ReductionStep(5, UniformBranchOps(3, SingleQubitOp(5, (0.0, 0.0, 1.0))))
    wide = with_certificate(
        plan,
        steps=cert.steps + (outside,),
        terminal_values={o + (s,): v for o, v in values.items() for s in (1, -1)},
    )
    assert validate_plan(wide) == ["fragment 0: certificate measures qubit 5 outside the register"]
    # A chain that leaves out a support qubit.
    short = with_certificate(
        plan,
        steps=cert.steps[:2],
        terminal_values={o[:2]: v for o, v in values.items() if o[2] == 1},
    )
    assert validate_plan(short) == ["fragment 0: certificate does not cover the support"]
    # A table that misses or adds a prefix cannot be built.
    missing = dict(values)
    del missing[(1, -1, 1)]
    with pytest.raises(ValueError, match="must list the 8 outcome prefixes, not 7"):
        with_certificate(plan, terminal_values=missing)
    longer = dict(missing)
    longer[(1, -1, 1, 1)] = values[(1, -1, 1)]
    with pytest.raises(ValueError, match=r"must list the prefix \(1, -1, 1\)"):
        with_certificate(plan, terminal_values=longer)


def test_validate_counts_a_nan_terminal_value_as_a_mismatch():
    plan = three_step_plan()
    values = dict(plan.fragments[0].certificate.terminal_values)
    values[(1, 1, -1)] = float("nan")
    bad = with_certificate(plan, terminal_values=values)
    assert validate_plan(bad) == ["fragment 0: branch (1, 1, -1) terminal mismatch"]

    plan = product_plan(4, seed=1)
    terms = plan.fragments[0].certificate.terminal_values.terms
    bad = with_products(plan, ((terms[0][0], float("nan")),) + terms[1:])
    assert validate_plan(bad) == [f"fragment 0: branch {(1,) * 4} terminal mismatch"]


def test_full_validation_of_a_product_certificate_walks_no_branch(monkeypatch):
    plan = product_plan(40, seed=3)
    forbid_walk(monkeypatch)
    assert validate_plan(plan) == []


def moved_products(plan, offsets):
    """The plan with stored product i moved by offsets[i]."""
    terms = plan.fragments[0].certificate.terminal_values.terms
    return with_products(
        plan, tuple((p, c + offsets.get(i, 0.0)) for i, (p, c) in enumerate(terms))
    )


def forbid_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked a branch")

    monkeypatch.setattr(partition, "reduce_qubit", no_walk)


def test_a_product_chain_off_within_tolerance_validates_without_walking(monkeypatch):
    # Every branch is off by at most 6e-10; walking all 2^24 of them to
    # find nothing wrong would take minutes.
    near = moved_products(product_plan(24, seed=4), {1: 6e-10})
    forbid_walk(monkeypatch)
    start = time.perf_counter()
    assert validate_plan(near) == []
    assert time.perf_counter() - start < 0.1


def test_product_errors_that_cancel_on_the_first_branch_are_refused_without_walking(
    monkeypatch,
):
    offsets = {1: 6e-10, 2: -6e-10}
    small = moved_products(product_plan(4, seed=4), offsets)
    terms = small.fragments[0].certificate.terminal_values.terms
    assert (terms[1][0], terms[2][0]) == ((0,), (1,))
    # The offsets cancel on (1, 1, ...) and add up where qubits 0 and 1 differ.
    assert root_walk_problems(small) == ["fragment 0: branch (1, -1, 1, 1) terminal mismatch"]
    expected = ["fragment 0: terminal products are off by up to 1.2e-09"]
    assert validate_plan(small) == expected
    wide = moved_products(product_plan(24, seed=4), offsets)
    forbid_walk(monkeypatch)
    assert validate_plan(wide) == expected


@pytest.mark.parametrize("seed", range(3))
def test_full_validation_of_product_certificates_matches_the_walk(seed):
    plan = product_plan(6, seed)
    assert validate_plan(plan) == root_walk_problems(plan) == []
    terms = plan.fragments[0].certificate.terminal_values.terms
    # A repeated position squares away: (p, p) is the constant term.
    same = with_products(plan, terms + (((2, 2), 0.75), ((), -0.75)))
    assert validate_plan(same) == root_walk_problems(same) == []
    for i in (0, 3, len(terms) - 1):
        positions, coeff = terms[i]
        tampered = terms[:i] + ((positions, coeff + 1e-6),) + terms[i + 1 :]
        bad = with_products(plan, tampered)
        problems = validate_plan(bad)
        assert problems and problems == root_walk_problems(bad)
    # A term on a position outside the chain cannot be built.
    with pytest.raises(ValueError, match="outside the 6 steps"):
        with_products(plan, terms + (((-1,), 0.0),))
    # An op placed on another qubit than its step is named by the walk.
    steps = list(plan.fragments[0].certificate.steps)
    assert steps[1].qubit == 1
    steps[1] = ReductionStep(1, UniformBranchOps(1, SingleQubitOp(0, (0.0, 1.0, 0.0))))
    moved = with_certificate(plan, steps=tuple(steps))
    problems = validate_plan(moved)
    assert problems == root_walk_problems(moved)
    assert problems == [f"fragment 0: branch {(1,) * 6} op at step 1 acts on qubit 0, not 1"]


def per_node_certificate_problem(h, cert, n_qubits):
    """The certificate check with one reduced PauliSum per tree node, nothing shared.

    The reference for the sign-class walk: same checks, same branch order,
    same problem strings.
    """
    if cert.n_qubits != n_qubits:
        return "certificate register size mismatch"
    order = cert.qubit_order
    for i, q in enumerate(order):
        if q >= n_qubits:
            return f"certificate measures qubit {q} outside the register"
        if q in order[:i]:
            return f"certificate measures qubit {q} twice"
    tv = cert.terminal_values
    if not set(h.support()) <= set(order):
        return "certificate does not cover the support"
    diff = meanfield._product_differences(h, cert)
    if diff is not None:
        bound = sum(map(abs, diff.values()))
        if bound <= 1e-9:
            return None
        if not abs(sum(diff.values())) <= 1e-9:
            return f"branch {(1,) * len(order)} terminal mismatch"
        return f"terminal products are off by up to {bound:.3g}"
    nodes = {(): h}
    for outcomes in tv:
        for si in range(len(outcomes)):
            prefix = outcomes[: si + 1]
            if prefix in nodes:
                continue
            op = cert.steps[si].ops[outcomes[:si]]
            if op.qubit != order[si]:
                return (f"branch {outcomes} op at step {si} "
                        f"acts on qubit {op.qubit}, not {order[si]}")
            parent = nodes[outcomes[:si]]
            if not meanfield._branch_commutes(meanfield._branch_of(parent), op):
                return f"branch {outcomes} op at step {si} does not commute"
            nodes[prefix] = reduce_qubit(parent, op, outcomes[si])
        if nodes[outcomes].support():
            return f"branch {outcomes} left a non-scalar"
        if not abs(nodes[outcomes].constant_part() - tv[outcomes]) <= 1e-9:
            return f"branch {outcomes} terminal mismatch"
    return None


def acceptance6_plan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return greedy_partition(random_sum(rng, n, int(rng.integers(3, min(60, 4**n - 2) + 1))), "mf2")


def sign_pairs(frag, si):
    """Prefix pairs of step si whose reduced sums are each other's negation."""
    cert = frag.certificate
    sums = {(): frag.effective_hamiltonian()}
    for d in range(si):
        sums = {
            p + (o,): reduce_qubit(s, cert.steps[d].ops[p], o)
            for p, s in sums.items()
            for o in (1, -1)
        }
    return [
        (p, q)
        for p, q in itertools.combinations(sums, 2)
        if sums[p].terms and sums[q].terms == {w: -c for w, c in sums[p].terms.items()}
    ]


def mutants(frag, rng):
    """Seeded one-field mutations of a table certificate, by name."""
    cert = frag.certificate
    steps = cert.steps

    def with_op(si, prefix, op):
        ops = dict(steps[si].ops)
        if op is None:
            del ops[prefix]
        else:
            ops[prefix] = op
        changed = steps[:si] + (ReductionStep(steps[si].qubit, ops),) + steps[si + 1 :]
        return dataclasses.replace(cert, steps=changed)

    out = []
    paired = [(si, pair) for si in range(1, len(steps)) for pair in sign_pairs(frag, si)]
    if paired:
        si, (p, q) = paired[rng.integers(len(paired))]
        op = steps[si].ops[p]
        bx, by, bz = op.bloch
        for bloch in ((bz, bx, by), (bx, by + 1e-3, bz), (-bx, -by, -bz)):
            changed = SingleQubitOp(op.qubit, bloch)
            out.append(("paired op", with_op(si, (p, q)[rng.integers(2)], changed)))
    values = dict(cert.terminal_values)
    nonzero = [o for o, v in values.items() if v != 0.0]
    if nonzero:
        o = nonzero[rng.integers(len(nonzero))]
        negated = {**values, o: -values[o]}
        out.append(("negated value", dataclasses.replace(cert, terminal_values=negated)))
    zeros = [
        (si, p, i)
        for si, s in enumerate(steps)
        for p, op in s.ops.items()
        for i, b in enumerate(op.bloch)
        if b == 0.0
    ]
    if zeros:
        si, p, i = zeros[rng.integers(len(zeros))]
        bloch = list(steps[si].ops[p].bloch)
        bloch[i] = -bloch[i]
        out.append(("signed zero", with_op(si, p, SingleQubitOp(steps[si].qubit, tuple(bloch)))))
    si = int(rng.integers(len(steps)))
    p = list(steps[si].ops)[rng.integers(len(steps[si].ops))]
    bloch = list(steps[si].ops[p].bloch)
    out.append(("list bloch", with_op(si, p, SingleQubitOp(steps[si].qubit, list(bloch)))))
    bloch[int(rng.integers(3))] = float("nan")
    out.append(("nan bloch", with_op(si, p, SingleQubitOp(steps[si].qubit, tuple(bloch)))))
    if len(steps) > 1:
        other = steps[(si + 1) % len(steps)].qubit
        out.append(("moved op", with_op(si, p, SingleQubitOp(other, steps[si].ops[p].bloch))))
    # A table that misses a prefix cannot be built.
    with pytest.raises(ValueError, match=f"the ops of step {si} must list the {1 << si} "):
        with_op(si, p, None)
    return out


def test_sign_class_walk_reports_what_a_per_node_walk_reports(monkeypatch):
    rng = np.random.default_rng(16)
    seen = set()
    plans = [acceptance6_plan(seed) for seed in range(6000, 6050)]
    plans += [parse_plan(serialize_plan(plan)) for plan in plans[::10]]
    for plan in plans:
        tables = [
            fi
            for fi, f in enumerate(plan.fragments)
            if isinstance(f.certificate.terminal_values, BranchTable)
        ]
        for fi in rng.permutation(tables)[:2]:
            frag = plan.fragments[fi]
            h, n = frag.effective_hamiltonian(), plan.source.n_qubits
            for name, cert in mutants(frag, rng):
                expected = per_node_certificate_problem(h, cert, n)
                assert partition._certificate_problem(h, cert, n) == expected, name
                kinds = (
                    "acts on qubit", "does not commute", "left a non-scalar", "terminal mismatch"
                )
                seen.add((name, next((k for k in kinds if expected and k in expected), "accepted")))
            # The same, string for string, through validate_plan.
            fragments = list(plan.fragments)
            fragments[fi] = dataclasses.replace(frag, certificate=cert)
            bad = dataclasses.replace(plan, fragments=tuple(fragments))
            with monkeypatch.context() as m:
                m.setattr(partition, "_certificate_problem", per_node_certificate_problem)
                expected = validate_plan(bad)
            assert validate_plan(bad) == expected
    assert {name for name, _ in seen} == {
        "paired op", "negated value", "signed zero", "list bloch", "nan bloch", "moved op"
    }
    assert {
        ("paired op", "does not commute"),
        ("negated value", "terminal mismatch"),
        ("signed zero", "accepted"),
        ("list bloch", "accepted"),
        ("nan bloch", "does not commute"),
        ("moved op", "acts on qubit"),
    } <= seen
