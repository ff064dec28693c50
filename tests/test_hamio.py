import json

import numpy as np
import pytest

from conftest import h2_model, random_amplitudes, random_sum
from mfpart.hamio import (
    parse_hamiltonian,
    parse_plan,
    parse_state,
    serialize_hamiltonian,
    serialize_plan,
    serialize_state,
)
from mfpart.partition import greedy_partition, validate_plan
from mfpart.pauli import PauliSum, PauliWord
from mfpart.simulator import StateVector, estimate_energy


def sum_on(n_qubits, *terms):
    return PauliSum.from_terms(
        n_qubits, [(PauliWord.from_axes(n_qubits, axes), c) for c, axes in terms]
    )


def test_parses_bundled_example(collinear3):
    assert collinear3.n_qubits == 3
    assert collinear3.n_terms == 24
    assert collinear3.coefficient(PauliWord.from_axes(3, {0: "X", 1: "X", 2: "X"})) == 3.0


def test_header_comments_and_identity():
    h = parse_hamiltonian(
        """
        # leading comment
        qubits: 5
        2.5            # identity term
        -1.0 Z0 X4
        """
    )
    assert h.n_qubits == 5
    assert h.constant_part() == 2.5
    assert h.coefficient(PauliWord.from_axes(5, {0: "Z", 4: "X"})) == -1.0


def test_register_size_defaults_to_highest_index():
    h = parse_hamiltonian("0.5 Y3")
    assert h.n_qubits == 4
    assert parse_hamiltonian("1.25").n_qubits == 1


@pytest.mark.parametrize(
    "text,message",
    [
        ("abc Z0", "malformed coefficient"),
        ("inf Z0", "not finite"),
        ("1.0 W0", "malformed factor"),
        ("1.0 X", "malformed factor"),
        ("1.0 X0 Z0", "repeated in one term"),
        ("qubits: 2\nqubits: 3\n1.0 Z0", "duplicate qubits header"),
        ("1.0 Z0\nqubits: 2", "must precede terms"),
        ("qubits: 2\n1.0 Z5", "outside declared range"),
        ("# nothing here", "no terms found"),
    ],
)
def test_hamiltonian_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_hamiltonian(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_hamiltonian("qubits: 3\n1.0 Z0\n1.0 Q1")


@pytest.mark.parametrize("seed", range(5))
def test_hamiltonian_round_trip_is_exact(seed):
    rng = np.random.default_rng(1000 + seed)
    h = random_sum(rng, 4, 12)
    back = parse_hamiltonian(serialize_hamiltonian(h))
    assert back.n_qubits == h.n_qubits
    assert back.sorted_terms() == h.sorted_terms()


def test_state_round_trip_is_exact():
    rng = np.random.default_rng(11)
    psi = StateVector(3, random_amplitudes(rng, 3))
    back = parse_state(serialize_state(psi))
    assert back.n_qubits == 3
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_state_renormalization_warns():
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0 + 3e-8
    text = "\n".join(f"{a.real} {a.imag}" for a in amps)
    with pytest.warns(UserWarning, match="renormalizing"):
        psi = parse_state(text)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "text,message",
    [
        ("1.0\n0.0 0.0", "expected "),
        ("x y\n0.0 0.0", "malformed amplitude"),
        ("1.0 0.0\n0.0 0.0\n0.0 0.0", "power of two"),
        ("0.5 0.0\n0.5 0.0", "too far from 1"),
        ("nan 0.0\n0.0 0.0", "line 1: amplitude 'nan 0.0' is not finite"),
        ("# empty", "no amplitudes"),
    ],
)
def test_state_parse_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_state(text)


def test_plan_document_shape(collinear3):
    plan = greedy_partition(collinear3)
    doc = json.loads(serialize_plan(plan))
    assert doc["format"] == "mf-partition-plan"
    assert doc["version"] == 1
    assert doc["n_fragments"] == plan.n_fragments
    assert len(doc["fragments"]) == plan.n_fragments


def test_axis_pure_certificates_compact_to_products():
    plan = greedy_partition(sum_on(2, (1.0, {0: "Z"}), (0.5, {0: "Z", 1: "Z"})))
    doc = json.loads(serialize_plan(plan))
    cert = doc["fragments"][0]["certificate"]
    assert "terminal_products" in cert
    assert "uniform_op" in cert["steps"][0]


def test_generic_certificates_store_branch_tables():
    plan = greedy_partition(sum_on(2, (1.0, {1: "X"}), (1.0, {0: "Z", 1: "Y"})))
    doc = json.loads(serialize_plan(plan))
    cert = doc["fragments"][0]["certificate"]
    assert "terminal_values" in cert
    assert set(cert["terminal_values"]) == {"++", "+-", "-+", "--"}


@pytest.mark.parametrize("seed", range(4))
def test_plan_round_trip_preserves_behavior(seed):
    rng = np.random.default_rng(1100 + seed)
    h = random_sum(rng, 4, 10)
    plan = greedy_partition(h, level="mf2")
    back = parse_plan(serialize_plan(plan))
    assert back.level == plan.level
    assert back.source.sorted_terms() == plan.source.sorted_terms()
    assert back.n_fragments == plan.n_fragments
    for orig, parsed in zip(plan.fragments, back.fragments):
        assert parsed.hamiltonian.sorted_terms() == orig.hamiltonian.sorted_terms()
        assert parsed.certificate.qubit_order == orig.certificate.qubit_order
    assert validate_plan(back) == []
    psi = StateVector(4, random_amplitudes(rng, 4))
    assert estimate_energy(back, psi, shots=64, seed=5) == estimate_energy(
        plan, psi, shots=64, seed=5
    )


def test_plan_round_trip_keeps_entangler():
    rng = np.random.default_rng(77)
    h = h2_model(rng)
    plan = greedy_partition(h, level="mf2")
    assert plan.fragments[0].entangler is not None
    back = parse_plan(serialize_plan(plan))
    spec = back.fragments[0].entangler
    assert spec is not None
    assert spec.subset == plan.fragments[0].entangler.subset
    assert np.array_equal(spec.unitary, plan.fragments[0].entangler.unitary)
    assert spec.origin.coefficients == plan.fragments[0].entangler.origin.coefficients
    assert validate_plan(back) == []


def test_parse_plan_rejects_other_documents():
    with pytest.raises(ValueError, match="partition-plan"):
        parse_plan(json.dumps({"format": "something-else"}))


def plan_doc():
    plan = greedy_partition(h2_model(np.random.default_rng(77)), level="mf2")
    return json.loads(serialize_plan(plan))


def drop(doc, *path):
    target = doc
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    return doc


def put(doc, value, *path):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: drop(d, "n_qubits"), "'n_qubits' is missing"),
        (lambda d: put(d, "4", "n_qubits"), "'n_qubits' must be an integer, not a string"),
        (lambda d: put(d, True, "n_qubits"), "'n_qubits' must be an integer, not a boolean"),
        (lambda d: drop(d, "level"), "'level' is missing"),
        (lambda d: put(d, {}, "fragments"), "'fragments' must be an array, not an object"),
        (lambda d: drop(d, "source_terms", 0, "coeff"), r"'source_terms\[0\].coeff' is missing"),
        (lambda d: put(d, None, "fragments", 0, "terms", 1, "word"),
         r"'fragments\[0\].terms\[1\].word' must be a string, not null"),
        (lambda d: drop(d, "fragments", 0, "certificate"),
         r"'fragments\[0\].certificate' is missing"),
        (lambda d: drop(d, "fragments", 0, "entangler"), r"'fragments\[0\].entangler' is missing"),
        (lambda d: put(d, "1", "fragments", 0, "certificate", "steps", 0, "qubit"),
         r"'fragments\[0\].certificate.steps\[0\].qubit' must be an integer"),
        (lambda d: put(d, [1.0, 0.0], "fragments", 0, "certificate", "steps", 0, "uniform_op"),
         r"'fragments\[0\].certificate.steps\[0\].uniform_op' must be an array of 3 numbers"),
        (lambda d: put(d, {"+x": 1.0}, "fragments", 0, "certificate", "terminal_values"),
         "is not a run of"),
        (lambda d: put(d, [["a"]], "fragments", 0, "entangler", "unitary_re"),
         "must be a matrix of numbers"),
        (lambda d: drop(d, "fragments", 0, "entangler", "origin", "coefficients"),
         r"'fragments\[0\].entangler.origin.coefficients' is missing"),
        (lambda d: put(d, "X0 Z0", "fragments", 0, "terms", 1, "word"),
         r"'fragments\[0\].terms\[1\].word': word 'X0 Z0': qubit 0 repeated in one term"),
        (lambda d: put(d, [{"positions": [0, 99], "coeff": 1.0}],
                       "fragments", 0, "certificate", "terminal_products"),
         r"'fragments\[0\].certificate.terminal_products\[0\].positions' names a step outside"),
        (lambda d: put(d, [{"positions": [0], "coeff": float("nan")}],
                       "fragments", 0, "certificate", "terminal_products"),
         r"'fragments\[0\].certificate.terminal_products\[0\].coeff' must be finite, not nan"),
        (lambda d: put(d, 99, "version"), "'version' must be 1, not 99"),
        (lambda d: drop(d, "version"), "'version' is missing"),
        (lambda d: put(d, 7, "n_fragments"), "'n_fragments' is 7, but 1 are listed"),
        (lambda d: drop(d, "n_fragments"), "'n_fragments' is missing"),
        (lambda d: put(d, "banana", "level"), "'level' must be 'mf1' or 'mf2', not 'banana'"),
        (lambda d: put(d, [1, 3, 2, 0], "fragments", 0, "certificate", "qubit_order"),
         r"'fragments\[0\].certificate.qubit_order' is \[1, 3, 2, 0\], "
         r"but the steps measure \[0, 2, 3, 1\]"),
        (lambda d: drop(d, "fragments", 0, "certificate", "qubit_order"),
         r"'fragments\[0\].certificate.qubit_order' is missing"),
        (lambda d: put(d, 99, "fragments", 0, "entangler", "origin", "n_qubits"),
         r"'fragments\[0\].entangler.origin.n_qubits' is 99, but the plan has 4 qubits"),
        (lambda d: put(d, [0, 3], "fragments", 0, "entangler", "subset"),
         r"'fragments\[0\].entangler.subset' is \[0, 3\], but the origin acts on \[1, 3\]"),
        (lambda d: put(d, "mf1", "level"), r"'fragments\[0\].entangler' must be null at mf1"),
        (lambda d: put(put(d, [1, 9], "fragments", 0, "entangler", "subset"),
                       [1, 9], "fragments", 0, "entangler", "origin", "subset"),
         r"'fragments\[0\].entangler.origin.subset': subset qubit out of range"),
        (lambda d: put(d, [3, 1], "fragments", 0, "entangler", "origin", "subset"),
         r"'fragments\[0\].entangler.origin.subset': subset must be non-empty, strictly"),
        (lambda d: put(d, {"X1 Z3": 0.5, "X0 Z3": 1.0},
                       "fragments", 0, "entangler", "origin", "coefficients"),
         r"'fragments\[0\].entangler.origin.coefficients.X0 Z3': "
         r"word X0 Z3 not supported on the subset"),
        (lambda d: put(d, {"X1 Z3": 0.0}, "fragments", 0, "entangler", "origin", "coefficients"),
         r"'fragments\[0\].entangler.origin.coefficients': "
         r"operator has no coefficient above tolerance"),
        (lambda d: put(d, -1, "fragments", 0, "certificate", "steps", 1, "qubit"),
         r"'fragments\[0\].certificate.steps\[1\].ops.\+': qubit index must be non-negative"),
        (lambda d: put(d, [0.0, 0.0, 0.0], "fragments", 0, "certificate", "steps", 0, "uniform_op"),
         r"'fragments\[0\].certificate.steps\[0\].uniform_op': Bloch vector must be non-zero"),
        (lambda d: put(d, [0.0, 0.0, 0.0], "fragments", 0, "certificate", "steps", 1, "ops", "-"),
         r"'fragments\[0\].certificate.steps\[1\].ops.-': Bloch vector must be non-zero"),
        (lambda d: put(put(d, [[1.0, 0.0], [0.0, 1.0]], "fragments", 0, "entangler", "unitary_re"),
                       [[0.0, 0.0], [0.0, 0.0]], "fragments", 0, "entangler", "unitary_im"),
         r"'fragments\[0\].entangler': unitary shape \(2, 2\) does not match subset"),
        (lambda d: put(d, [[1.0] * 4] * 4, "fragments", 0, "entangler", "unitary_re"),
         r"'fragments\[0\].entangler': matrix is not unitary"),
    ],
)
def test_parse_plan_names_bad_fields(edit, message):
    doc = plan_doc()
    assert parse_plan(json.dumps(doc)).n_fragments == 1
    with pytest.raises(ValueError, match=message):
        parse_plan(json.dumps(edit(doc)))
