import itertools
import weakref

import numpy as np
import pytest

from conftest import (
    README_MODEL,
    dense_sum,
    dense_word,
    embed_on_subset,
    h2_model,
    random_amplitudes,
    random_sum,
    wide_table_model,
)
from mfpart import simulator
from mfpart.entangler import EntanglerSpec, KQubitOp
from mfpart.hamio import parse_hamiltonian
from mfpart.partition import MFFragment, PartitionPlan, greedy_partition, validate_plan
from mfpart.pauli import PauliSum, PauliWord, SingleQubitOp
from mfpart.meanfield import (
    BranchTable,
    MFCertificate,
    ProductTerminalMap,
    ReductionStep,
    UniformBranchOps,
    verify_mf,
)
from mfpart.simulator import (
    DENSE_QUBIT_CAP,
    StateVector,
    branch_distribution,
    covariance,
    eigensolve,
    estimate_energy,
    expectation,
    measure_fragment,
    to_dense,
    variance,
)


def sum_on(n_qubits, *terms):
    return PauliSum.from_terms(
        n_qubits, [(PauliWord.from_axes(n_qubits, axes), c) for c, axes in terms]
    )


def haar_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def feedforward_example():
    """Two-qubit sum whose chain measures qubit 0 then a tilted qubit 1."""
    return sum_on(2, (1.0, {1: "X"}), (1.0, {0: "Z", 1: "Y"}))


def test_state_vector_validation():
    with pytest.raises(ValueError, match="norm"):
        StateVector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="amplitudes"):
        StateVector(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="cap"):
        StateVector(25, np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array([np.nan, 0.0]))
    psi = StateVector.computational(3, index=5)
    assert psi.amplitudes[5] == 1.0
    psi = StateVector(1, [0.6, 0.8])
    assert psi.amplitudes.dtype == complex


@pytest.mark.parametrize("seed", range(5))
def test_to_dense_matches_kron_oracle(seed):
    rng = np.random.default_rng(600 + seed)
    for n in (1, 4, 7):
        h = random_sum(rng, n, min(10, 4**n))
        assert np.allclose(to_dense(h), dense_sum(h), atol=1e-12)


def test_to_dense_of_every_word_on_up_to_three_qubits_is_exact():
    for n in (1, 2, 3):
        for x in range(1 << n):
            for z in range(1 << n):
                word = PauliWord(n, x, z)
                h = PauliSum.from_terms(n, [(word, 1.0)])
                assert np.array_equal(to_dense(h), dense_word(word)), word.label()


def test_to_dense_rejects_large_registers():
    h = sum_on(DENSE_QUBIT_CAP + 1, (1.0, {0: "Z"}))
    with pytest.raises(ValueError, match="dense cap"):
        to_dense(h)


@pytest.mark.parametrize("seed", range(6))
def test_moments_match_dense_oracle(seed):
    rng = np.random.default_rng(700 + seed)
    n = int(rng.integers(2, 5))
    h = random_sum(rng, n, 8)
    psi = StateVector(n, random_amplitudes(rng, n))
    dense = dense_sum(h)
    vec = psi.amplitudes
    mean = np.vdot(vec, dense @ vec).real
    assert expectation(h, psi) == pytest.approx(mean, abs=1e-10)
    second = np.vdot(dense @ vec, dense @ vec).real
    assert variance(h, psi) == pytest.approx(second - mean**2, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_variance_splits_into_covariances(seed):
    rng = np.random.default_rng(800 + seed)
    n = int(rng.integers(2, 5))
    h = random_sum(rng, n, 10)
    words = list(h.terms)
    cut = int(rng.integers(1, len(words)))
    a = PauliSum.from_terms(n, [(w, h.terms[w]) for w in words[:cut]])
    b = h - a
    psi = StateVector(n, random_amplitudes(rng, n))
    lhs = variance(h, psi)
    rhs = variance(a, psi) + variance(b, psi) + 2.0 * covariance(a, b, psi)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    assert covariance(a, b, psi) == pytest.approx(covariance(b, a, psi), abs=1e-12)


def test_eigensolve_single_qubit():
    energy, psi = eigensolve(sum_on(1, (1.0, {0: "Z"})))
    assert energy == pytest.approx(-1.0)
    assert np.allclose(psi.amplitudes, [0.0, 1.0])


def test_eigensolve_feedforward_example():
    h = feedforward_example()
    energy, psi = eigensolve(h)
    evals = np.linalg.eigvalsh(dense_sum(h))
    root = np.sqrt(2.0)
    assert np.allclose(evals, [-root, -root, root, root], atol=1e-12)
    assert energy == pytest.approx(-root)
    residual = dense_sum(h) @ psi.amplitudes - energy * psi.amplitudes
    assert np.linalg.norm(residual) < 1e-9
    pivot = psi.amplitudes[np.argmax(np.abs(psi.amplitudes))]
    assert pivot.imag == pytest.approx(0.0, abs=1e-12)
    assert pivot.real > 0


@pytest.mark.parametrize("subset", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
def test_apply_matrix_to_subset_matches_embedding(subset):
    """An entangled fragment's state is U^dagger on the subset, against the dense embedding."""
    rng = np.random.default_rng(hash(subset) % (1 << 32))
    n = 3
    u = haar_unitary(rng, 1 << len(subset))
    origin = KQubitOp(n, subset, {PauliWord.from_axes(n, {subset[0]: "Z"}): 1.0})
    frag = single_fragment(sum_on(n, (1.0, {0: "Z"})))
    frag = MFFragment(frag.hamiltonian, frag.certificate, EntanglerSpec(subset, u, origin))
    psi = StateVector(n, random_amplitudes(rng, n))
    before = psi.amplitudes.copy()
    moved = simulator._prepare_fragment_state(frag, psi)
    expected = embed_on_subset(u.conj().T, subset, n) @ psi.amplitudes
    assert np.allclose(moved, expected, atol=1e-12)
    assert np.array_equal(psi.amplitudes, before)


def single_fragment(h):
    cert = verify_mf(h)
    assert cert is not None
    return MFFragment(hamiltonian=h, certificate=cert)


def test_measure_fragment_diagonal_chain_is_deterministic():
    frag = single_fragment(sum_on(2, (1.0, {0: "Z"}), (1.0, {0: "Z", 1: "Z"})))
    psi = StateVector.computational(2, index=0)
    for seed in range(4):
        value, outcomes = measure_fragment(frag, psi, seed)
        assert outcomes == (1, 1)
        assert value == pytest.approx(2.0)


def test_measure_fragment_eigenstate_sampling_is_constant():
    h = feedforward_example()
    frag = single_fragment(h)
    energy, psi = eigensolve(h)
    for seed in range(10):
        value, _ = measure_fragment(frag, psi, seed)
        assert value == pytest.approx(energy, abs=1e-9)


def test_measure_fragment_register_mismatch():
    frag = single_fragment(sum_on(2, (1.0, {0: "Z"})))
    with pytest.raises(ValueError, match="register"):
        measure_fragment(frag, StateVector.computational(3), 0)
    h, psi = frag.hamiltonian, StateVector.computational(3)
    for moment in (expectation, variance, lambda a, s: covariance(a, a, s)):
        with pytest.raises(ValueError, match="operator on 2 qubits, state on 3"):
            moment(h, psi)


@pytest.mark.parametrize("seed", [-1, 2.5, "7", None])
def test_measure_fragment_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    frag = single_fragment(sum_on(2, (1.0, {0: "Z"})))
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        measure_fragment(frag, StateVector.computational(2), seed)


@pytest.mark.parametrize("seed", [-1, 2.5, "7", None])
def test_estimate_energy_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    plan = greedy_partition(sum_on(2, (1.0, {0: "Z"}), (0.5, {1: "X"})))
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
        estimate_energy(plan, StateVector.computational(2), 10, seed)


def test_branch_distribution_single_qubit_born_rule():
    frag = single_fragment(sum_on(1, (1.0, {0: "Z"})))
    psi = StateVector(1, [np.sqrt(0.3), np.sqrt(0.7)])
    probs, values = branch_distribution(frag, psi)
    assert probs == pytest.approx([0.3, 0.7], abs=1e-12)
    assert list(values) == pytest.approx([1.0, -1.0])


@pytest.mark.parametrize("seed", range(5))
def test_branch_distribution_reproduces_expectation(seed):
    rng = np.random.default_rng(900 + seed)
    h = random_sum(rng, 4, 10)
    plan = greedy_partition(h, level="mf2")
    psi = StateVector(4, random_amplitudes(rng, 4))
    total = 0.0
    for frag in plan.fragments:
        probs, values = branch_distribution(frag, psi)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        total += float(probs @ values)
    assert total == pytest.approx(expectation(h, psi), abs=1e-9)


def dense_branch_probability(frag, amps, outcomes):
    """||P_m ... P_1 U^dagger psi||^2 with every projector built densely."""
    n = frag.certificate.n_qubits
    if frag.entangler is not None:
        u = embed_on_subset(frag.entangler.unitary, frag.entangler.subset, n)
        amps = u.conj().T @ amps
    for i, (step, outcome) in enumerate(zip(frag.certificate.steps, outcomes)):
        op = step.ops[outcomes[:i]].unit()
        assert op.qubit == step.qubit
        bloch = sum(
            weight * dense_word(PauliWord.from_axes(n, {op.qubit: axis}))
            for axis, weight in zip("XYZ", op.bloch)
        )
        amps = 0.5 * (amps + outcome * (bloch @ amps))
    return float(np.vdot(amps, amps).real)


def reordered_product_fragment(order):
    """A pure-Z chain measured in the given qubit order, uniform ops throughout."""
    n = len(order)
    h = sum_on(n, *[(0.5 + q, {q: "Z", (q + 1) % n: "Z"}) for q in range(n)])
    position = {q: i for i, q in enumerate(order)}
    steps = tuple(
        ReductionStep(q, UniformBranchOps(i, SingleQubitOp(q, (0.0, 0.0, 1.0))))
        for i, q in enumerate(order)
    )
    terms = tuple(
        (tuple(position[k] for k in word.support()), coeff) for word, coeff in h.sorted_terms()
    )
    cert = MFCertificate(n, steps, ProductTerminalMap(n, terms))
    return PartitionPlan(source=h, fragments=(MFFragment(h, cert),), level="mf1")


def test_branch_distribution_matches_dense_projectors():
    rng = np.random.default_rng(1717)
    plans = []
    for n in (2, 3, 4, 5):
        for _ in range(3):
            h = random_sum(rng, n, int(rng.integers(3, 12)))
            plans += [greedy_partition(h, level="mf1"), greedy_partition(h, level="mf2")]
    pure = sum_on(4, (1.0, {0: "X", 2: "X"}), (0.5, {1: "Y"}), (0.3, {2: "X", 3: "Z"}))
    plans += [greedy_partition(h2_model(rng), level="mf2"), greedy_partition(pure)]
    plans += [reordered_product_fragment((1, 2, 0, 3)), reordered_product_fragment((2, 0, 1))]
    seen = set()
    for plan in plans:
        assert validate_plan(plan) == []
        n = plan.source.n_qubits
        psi = StateVector(n, random_amplitudes(rng, n))
        for frag in plan.fragments:
            cert = frag.certificate
            probs, values = branch_distribution(frag, psi)
            order = list(itertools.product((1, -1), repeat=len(cert.steps)))
            assert list(values) == [cert.terminal_values[o] for o in order]
            for outcomes, prob in zip(order, probs):
                expected = dense_branch_probability(frag, psi.amplitudes, outcomes)
                assert prob == pytest.approx(expected, abs=1e-12)
            steps = cert.steps
            tables = [st.ops for st in steps if isinstance(st.ops, BranchTable)]
            if any(len(set(ops.values())) > 1 for ops in tables):
                seen.add("per-prefix ops")
            if any(isinstance(st.ops, UniformBranchOps) and st.ops.depth >= 1 for st in steps):
                seen.add("uniform ops below the root")
            if list(cert.qubit_order) != sorted(cert.qubit_order):
                seen.add("non-ascending chain")
            if frag.entangler is not None:
                seen.add("entangled")
    assert seen == {
        "per-prefix ops", "uniform ops below the root", "non-ascending chain", "entangled"
    }


def feedforward_plan(terminal_values=None):
    """feedforward_example as one table fragment, with its terminal dict optionally replaced."""
    h = feedforward_example()
    cert = verify_mf(h)
    if terminal_values is not None:
        cert = MFCertificate(cert.n_qubits, cert.steps, terminal_values(cert.terminal_values))
    return PartitionPlan(source=h, fragments=(MFFragment(h, cert),), level="mf1")


def test_branch_order_does_not_depend_on_how_a_table_is_listed():
    plan = feedforward_plan()
    listings = []

    def reversed_dict(tv):
        listings.append(dict(reversed(list(tv.items()))))
        return listings[-1]

    reversed_plan = feedforward_plan(reversed_dict)
    table = plan.fragments[0].certificate.terminal_values
    assert list(listings[0]) != list(table)
    # The dict is read into a table in bit order when the certificate is built.
    read = reversed_plan.fragments[0].certificate.terminal_values
    assert isinstance(read, BranchTable) and read.values() == table.values()
    assert validate_plan(reversed_plan) == []
    psi = StateVector(2, random_amplitudes(np.random.default_rng(3), 2))
    for got, want in zip(
        branch_distribution(reversed_plan.fragments[0], psi),
        branch_distribution(plan.fragments[0], psi),
    ):
        assert got.tobytes() == want.tobytes()
    assert estimate_energy(reversed_plan, psi, 50, 3) == estimate_energy(plan, psi, 50, 3)


def test_op_tables_listed_out_of_bit_order_are_looked_up_by_prefix():
    plan = feedforward_plan()
    frag = plan.fragments[0]
    cert = frag.certificate
    backwards = [
        ReductionStep(st.qubit, dict(reversed(list(st.ops.items())))) for st in cert.steps
    ]
    assert [list(st.ops) for st in backwards] != [list(st.ops) for st in cert.steps]
    table = cert.steps[1].ops
    assert isinstance(table, BranchTable) and len(set(table.values())) > 1
    tv = dict(reversed(list(cert.terminal_values.items())))
    reversed_frag = MFFragment(frag.hamiltonian, MFCertificate(2, tuple(backwards), tv))
    psi = StateVector(2, random_amplitudes(np.random.default_rng(4), 2))
    for got, want in zip(branch_distribution(reversed_frag, psi), branch_distribution(frag, psi)):
        assert got.tobytes() == want.tobytes()


def test_one_rotated_copy_of_the_state_is_alive_at_a_time(monkeypatch):
    plan = greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    entangled = [frag for frag in plan.fragments if frag.entangler is not None]
    assert entangled
    _, ground = eigensolve(plan.source)
    prepare = simulator._prepare_fragment_state
    copies = []

    def tracked(frag, psi):
        if frag.entangler is None:
            return prepare(frag, psi)
        # Every earlier rotated copy is gone before the next is made.
        assert all(ref() is None for ref in copies)
        amps = prepare(frag, psi)
        copies.append(weakref.ref(amps))
        return amps

    monkeypatch.setattr(simulator, "_prepare_fragment_state", tracked)
    report = estimate_energy(plan, ground, shots=100, seed=7)
    # One copy serves the samples and the moments of each entangled fragment.
    assert len(copies) == len(entangled)
    monkeypatch.undo()
    assert estimate_energy(plan, ground, shots=100, seed=7) == report


def test_a_fragment_reports_the_moments_of_its_prepared_state():
    plan = greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    assert any(frag.entangler is not None for frag in plan.fragments)
    n = plan.source.n_qubits
    psi = StateVector(n, random_amplitudes(np.random.default_rng(21), n))
    report = estimate_energy(plan, psi, shots=50, seed=3)
    for frag, est in zip(plan.fragments, report.fragments):
        state = StateVector(n, simulator._prepare_fragment_state(frag, psi))
        eff = frag.effective_hamiltonian()
        assert est.analytic_expectation.hex() == expectation(eff, state).hex()
        assert est.analytic_variance.hex() == variance(eff, state).hex()


def test_measure_fragment_draws_the_dense_branch_distribution():
    frag = feedforward_plan().fragments[0]
    cert = frag.certificate
    assert len(set(cert.steps[1].ops.values())) > 1
    psi = StateVector(2, random_amplitudes(np.random.default_rng(802), 2))
    shots = 4000
    counts = dict.fromkeys(cert.terminal_values, 0)
    for seed in range(shots):
        value, outcomes = measure_fragment(frag, psi, seed)
        assert value == cert.terminal_values[outcomes]
        counts[outcomes] += 1
    for outcomes, count in counts.items():
        p = dense_branch_probability(frag, psi.amplitudes, outcomes)
        assert 0.1 < p < 0.9
        assert abs(count / shots - p) <= 5 * np.sqrt(p * (1 - p) / shots)


def test_estimate_energy_samples_a_wide_branch_table():
    # X0 with a Z chain keeps a per-prefix table; the 13-step fragment
    # has 2^13 outcome branches.
    n = 13
    terms = [(1.0, {0: "X"})] + [(0.1 * (q + 1), {q: "Z", q + 1: "Z"}) for q in range(n - 1)]
    terms += [(0.3, {q: "X"}) for q in range(1, n, 3)]
    h = sum_on(n, *terms)
    plan = greedy_partition(h)
    wide = max(plan.fragments, key=lambda f: f.certificate.n_branches)
    assert wide.certificate.n_branches == 1 << n
    assert isinstance(wide.certificate.steps[-1].ops, BranchTable)
    rng = np.random.default_rng(13)
    psi = StateVector(n, random_amplitudes(rng, n))
    shots = 2000
    report = estimate_energy(plan, psi, shots=shots, seed=5)
    assert report.analytic_expectation == pytest.approx(expectation(h, psi), abs=1e-9)
    sigma = (report.analytic_summed_variance / shots) ** 0.5
    assert abs(report.energy_estimate - report.analytic_expectation) <= 5.0 * sigma
    assert estimate_energy(plan, psi, shots=shots, seed=5, workers=2) == report


def test_estimate_energy_totals_and_determinism():
    rng = np.random.default_rng(42)
    h = random_sum(rng, 4, 12)
    plan = greedy_partition(h)
    psi = StateVector(4, random_amplitudes(rng, 4))
    report = estimate_energy(plan, psi, shots=256, seed=7)
    assert report.shots == 256 and report.seed == 7
    assert report.energy_estimate == pytest.approx(
        sum(f.sample_mean for f in report.fragments), abs=1e-12
    )
    assert report.analytic_expectation == pytest.approx(
        expectation(h, psi), abs=1e-9
    )
    again = estimate_energy(plan, psi, shots=256, seed=7)
    assert report == again
    threaded = estimate_energy(plan, psi, shots=256, seed=7, workers=3)
    assert report == threaded
    other = estimate_energy(plan, psi, shots=256, seed=8)
    assert other != report


def test_estimate_energy_samples_a_13_step_product_chain():
    n = 13
    h = PauliSum.from_terms(
        n, [(PauliWord.from_axes(n, {q: "Z"}), 1.0) for q in range(n)]
    )
    plan = greedy_partition(h)
    assert plan.n_fragments == 1
    assert plan.fragments[0].certificate.n_branches > 4096
    psi = StateVector.computational(n, index=0)
    report = estimate_energy(plan, psi, shots=5, seed=3)
    assert report.energy_estimate == pytest.approx(float(n))
    assert report.summed_variance == pytest.approx(0.0, abs=1e-12)


def test_estimate_energy_validation():
    h = sum_on(2, (1.0, {0: "Z"}))
    plan = greedy_partition(h)
    psi = StateVector.computational(2)
    with pytest.raises(ValueError, match="shots"):
        estimate_energy(plan, psi, shots=0, seed=1)
    empty = PartitionPlan(source=h, fragments=(), level="mf1")
    with pytest.raises(ValueError, match="fragments"):
        estimate_energy(empty, psi, shots=10, seed=1)


def test_threaded_estimate_matches_serial():
    rng = np.random.default_rng(44)
    h = random_sum(rng, 5, 24)
    plan = greedy_partition(h, level="mf2")
    assert plan.n_fragments > 4
    psi = StateVector(5, random_amplitudes(rng, 5))
    threaded = estimate_energy(plan, psi, shots=300, seed=9, workers=4)
    assert threaded == estimate_energy(plan, psi, shots=300, seed=9)


def test_stacked_rotations_equal_per_op_rotations_bit_for_bit():
    rng = np.random.default_rng(4242)
    blochs = [tuple(v / np.linalg.norm(v)) for v in rng.normal(size=(64, 3))]
    blochs += [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    blochs += [(-0.0, 0.0, 1.0), (0.0, -0.0, -1.0), (1.0, -0.0, -0.0), (-0.0, -1.0, 0.0)]
    per_op = np.array([simulator._z_rotations(np.array(b)) for b in blochs])
    # Byte equality also compares the sign bit of every zero.
    assert per_op.tobytes() == simulator._z_rotations(np.array(blochs)).tobytes()


def test_a_fragment_rotates_each_distinct_op_once_in_one_stacked_call(monkeypatch):
    h = wide_table_model()
    frag = greedy_partition(h).fragments[0]
    steps = frag.certificate.steps
    tables = [st.ops for st in steps if isinstance(st.ops, BranchTable)]
    assert frag.certificate.n_branches == 512 and len(tables) > 1
    psi = StateVector(h.n_qubits, random_amplitudes(np.random.default_rng(21), h.n_qubits))
    want = branch_distribution(frag, psi)
    rows = []
    rotations = simulator._z_rotations

    def counted(blochs):
        rows.append(len(blochs))
        return rotations(blochs)

    monkeypatch.setattr(simulator, "_z_rotations", counted)
    got = branch_distribution(frag, psi)
    ops = [
        op for st in steps
        for op in (st.ops.values() if isinstance(st.ops, BranchTable) else [st.ops.op])
    ]
    assert rows == [len({id(op) for op in ops})]
    assert rows[0] < sum(map(len, tables))
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_product_values_match_the_map_bit_for_bit():
    rng = np.random.default_rng(31)
    terms = tuple(
        (tuple(int(p) for p in rng.choice(7, size=k, replace=False)), float(c))
        for k, c in zip(rng.integers(0, 5, size=16), rng.normal(size=16))
    )
    terms += (((2, 2, 5), -0.0), ((), 0.1), ((1,), -0.0), ((6, 0), 1e-17))
    tv = ProductTerminalMap(7, terms)
    expected = np.array([tv[outcomes] for outcomes in tv])
    assert tv.values().tobytes() == expected.tobytes()

