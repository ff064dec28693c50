import json
import warnings

import numpy as np
import pytest

from conftest import README_MODEL, exchange_plan_with, h2_model, random_amplitudes, random_sum
from mfpart import hamio
from mfpart.hamio import (
    parse_hamiltonian,
    parse_plan,
    parse_state,
    serialize_hamiltonian,
    serialize_plan,
    serialize_state,
)
from mfpart.meanfield import MFCertificate, ProductTerminalMap, ReductionStep, UniformBranchOps
from mfpart.partition import MFFragment, PartitionPlan, greedy_partition, validate_plan
from mfpart.pauli import PauliSum, PauliWord, SingleQubitOp
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


def test_a_state_whose_norm_overflows_is_refused_without_a_warning():
    # Each square of 1e308 is past the float range, so the norm is inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="state norm inf is too far from 1"):
            parse_state("1e308 1e308\n0 0\n")
        with pytest.raises(ValueError, match="state norm inf is not 1"):
            StateVector(1, np.array([1e308, 1e308]))


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


def oracle(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def hand_built_plan() -> PartitionPlan:
    """Non-finite, negative-zero and numpy coefficients, and an empty fragment."""
    z0, x1, zz, xx = (PauliWord.from_axes(2, axes)
                      for axes in ({0: "Z"}, {1: "X"}, {0: "Z", 1: "Z"}, {0: "X", 1: "X"}))
    source = PauliSum(2, {z0: float("nan"), x1: float("inf"), zz: -float("inf"),
                          xx: -0.0, PauliWord.identity(2): np.float64(0.1)})
    first = ReductionStep(0, UniformBranchOps(0, SingleQubitOp(0, (np.float64(0.0), -0.0, 1.0))))
    table = ReductionStep(1, {
        (1,): SingleQubitOp(1, (1.0, -0.0, 0.0)),
        (-1,): SingleQubitOp(1, (np.float64(0.5), 0.0, np.float64(-0.5))),
    })
    values = {(1, 1): float("nan"), (1, -1): -0.0, (-1, 1): float("inf"),
              (-1, -1): np.float64(2.5)}
    products = ProductTerminalMap(2, (((0,), np.float64(-0.0)), ((0, 1), -float("inf"))))
    fragments = (
        MFFragment(PauliSum(2, {}), MFCertificate(2, (first, table), values)),
        MFFragment(PauliSum(2, {zz: np.float64(-0.0)}), MFCertificate(2, (first, table), products)),
    )
    return PartitionPlan(source, fragments, "mf1")


def test_hand_built_plan_is_written_as_json_dumps_writes_it():
    plan = hand_built_plan()
    text = serialize_plan(plan)
    assert text == oracle(hamio._plan_payload(plan))
    for literal in ("NaN", "Infinity", "-Infinity", "-0.0", '"terms": []', "0.1"):
        assert literal in text


def test_writer_follows_the_json_encoder():
    payload = {
        "scalars": [1, -7, 2.5, True, False, None, "\u00e9\n\"q\"", np.float64(1e-300)],
        "specials": (float("nan"), float("inf"), -float("inf"), -0.0, np.float64(-0.0)),
        "empty": [[], {}, [[]], {"k": {}}, ()],
        "": {"nested": [{"a": [0.1, 0.2]}]},
    }
    out = []
    hamio._write(payload, "", out, {})
    assert "".join(out) + "\n" == oracle(payload)
    for refused in ({"x": np.int64(1)}, [object()]):
        with pytest.raises(TypeError):
            json.dumps(refused, indent=2)
        with pytest.raises(TypeError):
            hamio._write(refused, "", [], {})
    # Every plan key is a string; other keys are refused, not converted.
    with pytest.raises(TypeError):
        hamio._write({1: 2.0}, "", [], {})


def test_parse_plan_refuses_a_deeply_nested_document():
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_plan("[" * 100_000)


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
        (lambda d: put(d, [1e308, 0.0, 1e308], "fragments", 0, "certificate", "steps", 0,
                       "uniform_op"),
         r"'fragments\[0\].certificate.steps\[0\].uniform_op': Bloch vector norm must be finite"),
        (lambda d: put(put(d, [[1.0, 0.0], [0.0, 1.0]], "fragments", 0, "entangler", "unitary_re"),
                       [[0.0, 0.0], [0.0, 0.0]], "fragments", 0, "entangler", "unitary_im"),
         r"'fragments\[0\].entangler': unitary shape \(2, 2\) does not match subset"),
        (lambda d: put(d, [[1.0] * 4] * 4, "fragments", 0, "entangler", "unitary_re"),
         r"'fragments\[0\].entangler': matrix is not unitary"),
        (lambda d: put(put(d, np.eye(4).tolist(), "fragments", 0, "entangler", "unitary_re"),
                       [[0.0]], "fragments", 0, "entangler", "unitary_im"),
         r"'fragments\[0\].entangler.unitary_im' has shape \(1, 1\)"),
        # JSON integers that no float holds.
        (lambda d: put(d, [10**400, 0.0, 0.0], "fragments", 0, "certificate", "steps", 0,
                       "uniform_op"),
         r"'fragments\[0\].certificate.steps\[0\].uniform_op\[0\]' must be finite, "
         r"not an integer of 401 digits"),
        (lambda d: put(d, 10**400, "fragments", 0, "terms", 0, "coeff"),
         r"'fragments\[0\].terms\[0\].coeff' must be finite, not an integer of 401 digits"),
    ],
)
def test_parse_plan_names_bad_fields(edit, message):
    doc = plan_doc()
    assert parse_plan(json.dumps(doc)).n_fragments == 1
    with pytest.raises(ValueError, match=message):
        parse_plan(json.dumps(edit(doc)))


def test_parse_plan_reads_a_json_integer_as_the_float_it_names():
    plan = greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    doc = json.loads(serialize_plan(plan))
    cert = doc["fragments"][0]["certificate"]
    cert["steps"][0]["uniform_op"] = [2**70, 0, 0]
    cert["terminal_products"][0]["coeff"] = 1
    doc["fragments"][1]["terms"][0]["coeff"] = -1
    loaded = parse_plan(json.dumps(doc))
    bloch = loaded.fragments[0].certificate.steps[0].ops.op.bloch
    product_coeff = loaded.fragments[0].certificate.terminal_values.terms[0][1]
    term_coeff = next(iter(loaded.fragments[1].hamiltonian.terms.values()))
    values = [*bloch, product_coeff, term_coeff]
    assert values == [2.0**70, 0.0, 0.0, 1.0, -1.0]
    assert all(type(v) is float for v in values)


def test_parse_hamiltonian_refuses_a_register_past_the_bound():
    for text, message in [
        ("qubits: 1180591620717411303424\n1.0 Z0", "line 1: header past the 1024-qubit register"),
        ("# wide\nqubits: 1025\n1.0 Z0", "line 2: header past the 1024-qubit register"),
        ("1.0 Z0\n1.0 Z1180591620717411303424",
         "line 2: qubit 1180591620717411303424 is past the 1024-qubit register"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_hamiltonian(text)
    assert parse_hamiltonian("qubits: 1024\n1.0 Z1023").n_qubits == 1024


def test_parse_plan_refuses_a_register_past_the_bound():
    doc = json.loads(serialize_plan(greedy_partition(parse_hamiltonian(README_MODEL), "mf2")))
    doc["n_qubits"] = 2**70
    with pytest.raises(ValueError, match="'n_qubits' is 1180591620717411303424, past the 1024"):
        parse_plan(json.dumps(doc))


def test_parse_plan_shares_json_integers_as_it_shares_floats():
    zz = PauliWord.from_axes(2, {0: "Z", 1: "Z"})
    h = PauliSum(2, {zz: 1.0})
    steps = (
        ReductionStep(0, UniformBranchOps(0, SingleQubitOp(0, (0.0, 0.0, 1.0)))),
        ReductionStep(1, {(1,): SingleQubitOp(1, (0.0, 0.0, 1.0)),
                          (-1,): SingleQubitOp(1, (0.0, 0.0, 1.0))}),
    )
    values = {(1, 1): 1.0, (1, -1): -1.0, (-1, 1): -1.0, (-1, -1): 1.0}
    text = serialize_plan(PartitionPlan(h, (MFFragment(h, MFCertificate(2, steps, values)),), "mf1"))
    doc = json.loads(text)
    cert = doc["fragments"][0]["certificate"]
    cert["steps"][1]["ops"]["-"] = [0, 0, 1]
    cert["terminal_values"]["--"] = 1
    loaded = parse_plan(json.dumps(doc))
    table = loaded.fragments[0].certificate.steps[1].ops
    terminal = loaded.fragments[0].certificate.terminal_values
    assert table[(1,)] is table[(-1,)]
    assert terminal[(1, 1)] is terminal[(-1, -1)]
    assert validate_plan(loaded) == validate_plan(parse_plan(text)) == []
    assert serialize_plan(loaded) == text


def test_parse_plan_refuses_a_unitary_off_by_4e_6():
    plan = greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    doc = json.loads(serialize_plan(plan))
    entangler = doc["fragments"][1]["entangler"]
    for part in ("unitary_re", "unitary_im"):
        entangler[part] = [[(1 + 4e-6) * x for x in row] for row in entangler[part]]
    with pytest.raises(ValueError, match=r"'fragments\[1\].entangler': matrix is not unitary"):
        parse_plan(json.dumps(doc))


@pytest.mark.parametrize("key", ["unitary_re", "unitary_im"])
def test_parse_plan_refuses_a_unitary_integer_past_the_float_range(key):
    message = rf"'fragments\[0\].entangler.{key}' must be a matrix of finite numbers"
    with pytest.raises(ValueError, match=message):
        parse_plan(exchange_plan_with(key, 10**400))


def test_parse_plan_refuses_a_unitary_entry_past_one_without_a_warning():
    text = exchange_plan_with("unitary_re", 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"'fragments\[0\].entangler': matrix is not unitary"):
            parse_plan(text)


def test_parse_hamiltonian_names_the_line_of_a_number_too_long_to_read():
    # Longer than the 4,300 digits int() reads from a string.
    digits = "9" * 5000
    for text, message in [
        (f"qubits: {digits}\n1.0 Z0", "line 1: header past the 1024-qubit register bound"),
        (f"1.0 Z0\n1.0 X{digits}",
         "line 2: qubit index of 5000 digits is past the 1024-qubit register bound"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_hamiltonian(text)
    zeros = "0" * 5000
    h = parse_hamiltonian(f"qubits: {zeros}3\n1.0 Z{zeros}2")
    assert h == parse_hamiltonian("qubits: 3\n1.0 Z2")
