import numpy as np
import pytest

from conftest import dense_sum, random_sum
from mfpart import meanfield
from mfpart.meanfield import (
    ProductTerminalMap,
    UniformBranchOps,
    compute_l,
    decompose_by_qubit,
    factor_l1,
    factor_l2,
    reduce_qubit,
    verify_mf,
)
from mfpart.pauli import PauliSum, PauliWord, SingleQubitOp


def sum_on(n_qubits, *terms):
    return PauliSum.from_terms(
        n_qubits, [(PauliWord.from_axes(n_qubits, axes), c) for c, axes in terms]
    )


def grand(h, qubit):
    return compute_l(decompose_by_qubit(h, qubit))


@pytest.mark.parametrize("seed", range(5))
def test_decomposition_reconstructs(seed):
    rng = np.random.default_rng(seed)
    h = random_sum(rng, 4, 10)
    for q in range(4):
        dec = decompose_by_qubit(h, q)
        rebuilt = (
            dec.h_x.attach(q, "X")
            + dec.h_y.attach(q, "Y")
            + dec.h_z.attach(q, "Z")
            + dec.h_e
        )
        assert np.allclose(dense_sum(rebuilt), dense_sum(h))


def test_decompose_range_check():
    h = sum_on(2, (1.0, {0: "Z"}))
    with pytest.raises(ValueError):
        decompose_by_qubit(h, 2)


def test_l_values_on_collinear_model(collinear3):
    assert grand(collinear3, 0).l == 2
    assert grand(collinear3, 1).l == 1
    assert grand(collinear3, 2).l == 1


def test_l_for_absent_and_pure_and_generic_qubits():
    h = sum_on(3, (1.0, {0: "Z"}), (0.5, {0: "Z", 1: "X"}))
    assert grand(h, 2).l == 3  # untouched qubit
    assert grand(h, 0).l == 2  # appears with one axis only
    generic = sum_on(
        2, (1.0, {0: "X"}), (1.0, {0: "Y", 1: "Z"}), (1.0, {0: "Z", 1: "X"})
    )
    assert grand(generic, 0).l == 0


def test_factor_l2_golden(collinear3):
    op, complement, shell = factor_l2(collinear3, grand(collinear3, 0))
    direction = np.array(op.unit().bloch)
    target = np.array([0.408248, 0.816497, 0.408248])
    assert np.allclose(direction, target, atol=1e-4) or np.allclose(
        direction, -target, atol=1e-4
    )
    lead = complement.coefficient(PauliWord.from_axes(3, {1: "X", 2: "X"}))
    assert np.isclose(abs(lead * op.norm), 7.34847, atol=1e-4)
    rebuilt = complement.attach(0, "X", op.bloch[0]) + complement.attach(
        0, "Y", op.bloch[1]
    ) + complement.attach(0, "Z", op.bloch[2]) + shell
    assert rebuilt.allclose(collinear3)
    assert shell.is_zero


def test_factor_l2_requires_collinearity(collinear3):
    with pytest.raises(ValueError):
        factor_l2(collinear3, grand(collinear3, 1))


def test_factor_l2_keeps_rest_terms():
    h = sum_on(2, (2.0, {0: "X", 1: "Z"}), (0.7, {1: "X"}))
    op, complement, shell = factor_l2(h, grand(h, 0))
    assert shell.allclose(sum_on(2, (0.7, {1: "X"})))
    assert complement.support() == (1,)
    assert abs(op.bloch[0]) > 0.0


def test_factor_l1_golden(collinear3):
    # second factorization stage: work on the qubit-0 complement
    _, h23, _ = factor_l2(collinear3, grand(collinear3, 0))
    gram = grand(h23, 1)
    assert np.isclose(gram.eigenvalues[0], 856.4337, atol=1e-3)
    assert np.isclose(gram.eigenvalues[1], 7.56626, atol=1e-4)
    op1, c1, op2, c2, shell = factor_l1(h23, gram)

    def matches(op, comp, op_ref, comp_ref):
        b = np.array(op.bloch)
        comp_vec = np.array(
            [comp.coefficient(PauliWord.from_axes(3, {2: a})) for a in "XYZ"]
        )
        direct = np.allclose(b, op_ref, atol=1e-4) and np.allclose(
            comp_vec, comp_ref, atol=1e-3
        )
        flipped = np.allclose(b, -op_ref, atol=1e-4) and np.allclose(
            comp_vec, -comp_ref, atol=1e-3
        )
        return direct or flipped

    big_op = np.array([0.492881, 0.717033, 0.492881])
    big_comp = np.array([16.0257, 2.41461, 24.3676])
    small_op = np.array([0.507019, -0.697039, 0.507019])
    small_comp = np.array([-1.08532, 2.48388, 0.467647])
    assert matches(op1, c1, big_op, big_comp)
    assert matches(op2, c2, small_op, small_comp)

    rebuilt = shell
    for op, comp in ((op1, c1), (op2, c2)):
        for axis, weight in zip("XYZ", op.bloch):
            rebuilt = rebuilt + comp.attach(1, axis, weight)
    assert rebuilt.allclose(h23)


def test_reduce_qubit_substitutes_outcome():
    h = sum_on(2, (2.0, {0: "Z", 1: "X"}), (1.0, {1: "Z"}), (3.0, {}))
    op = SingleQubitOp(0, (0.0, 0.0, 1.0))
    plus = reduce_qubit(h, op, 1)
    minus = reduce_qubit(h, op, -1)
    assert plus.allclose(sum_on(2, (2.0, {1: "X"}), (1.0, {1: "Z"}), (3.0, {})))
    assert minus.allclose(sum_on(2, (-2.0, {1: "X"}), (1.0, {1: "Z"}), (3.0, {})))


def test_reduce_qubit_normalizes_direction():
    h = sum_on(1, (1.0, {0: "X"}), (1.0, {0: "Z"}))
    a = reduce_qubit(h, SingleQubitOp(0, (1.0, 0.0, 1.0)), 1)
    b = reduce_qubit(h, SingleQubitOp(0, (2.0, 0.0, 2.0)), 1)
    assert a.allclose(b)
    # projection of (1,0,1) onto its own unit direction has length sqrt(2)
    assert np.isclose(a.constant_part(), np.sqrt(2.0))


def test_reduce_qubit_validates_outcome():
    h = sum_on(1, (1.0, {0: "Z"}))
    with pytest.raises(ValueError):
        reduce_qubit(h, SingleQubitOp(0, (0.0, 0.0, 1.0)), 2)


def _mixed_axis_model(rng, weights):
    terms = []
    for _ in range(5):
        axes = {}
        for q in (1, 2, 3):
            axis = rng.choice(["I", "X", "Y", "Z"])
            if axis != "I":
                axes[q] = str(axis)
        terms.append((PauliWord.from_axes(4, axes), float(rng.uniform(-2, 2))))
    base = PauliSum.from_terms(4, terms)
    h = PauliSum.zero(4)
    for axis, weight in zip("XYZ", weights):
        h = h + base.attach(0, axis, weight)
    return h + base.scale(0.3)


@pytest.mark.parametrize("seed", range(8))
def test_reduction_never_lowers_l(seed):
    """Reducing a factorable qubit cannot shrink any other qubit's kernel."""
    rng = np.random.default_rng(300 + seed)
    weights = rng.uniform(-1.5, 1.5, size=3)
    h = _mixed_axis_model(rng, weights)
    gram0 = grand(h, 0)
    assert gram0.l >= 2
    op = SingleQubitOp(0, tuple(weights))
    for outcome in (1, -1):
        reduced = reduce_qubit(h, op, outcome)
        for q in (1, 2, 3):
            assert grand(reduced, q).l >= grand(h, q).l


def test_verify_constant_sum():
    h = sum_on(3, (4.25, {}))
    cert = verify_mf(h)
    assert cert is not None
    assert cert.steps == ()
    assert cert.terminal_values[()] == 4.25


def test_verify_axis_pure_chain():
    rng = np.random.default_rng(9)
    terms = []
    for _ in range(6):
        axes = {q: "Z" for q in range(4) if rng.random() < 0.6}
        terms.append((PauliWord.from_axes(4, axes), float(rng.uniform(-1, 1))))
    h = PauliSum.from_terms(4, terms)
    cert = verify_mf(h)
    assert cert is not None
    assert cert.qubit_order == h.support()
    for step in cert.steps:
        assert isinstance(step.ops, UniformBranchOps)
        assert step.ops[(1,) * step.ops.depth].bloch == (0.0, 0.0, 1.0)
    # terminal value equals direct substitution of the outcomes
    outcomes = tuple(int(s) for s in rng.choice([1, -1], size=len(cert.steps)))
    subs = dict(zip(cert.qubit_order, outcomes))
    expected = sum(
        c * np.prod([subs[q] for q in w.support()]) for w, c in h if True
    )
    assert np.isclose(cert.terminal_values[outcomes], expected)


def test_verify_product_example():
    # x on qubit 1 plus z0*y1 has an unentangled eigenbasis
    h = sum_on(2, (1.0, {1: "X"}), (1.0, {0: "Z", 1: "Y"}))
    cert = verify_mf(h)
    assert cert is not None
    assert cert.qubit_order == (0, 1)
    assert cert.steps[0].ops[()].bloch == (0.0, 0.0, 1.0)
    inv = 1.0 / np.sqrt(2.0)
    assert np.allclose(cert.steps[1].ops[(1,)].unit().bloch, (inv, inv, 0.0))
    assert np.allclose(cert.steps[1].ops[(-1,)].unit().bloch, (inv, -inv, 0.0))
    values = sorted(cert.terminal_values[o] for o in cert.terminal_values)
    assert np.allclose(values, [-np.sqrt(2)] * 2 + [np.sqrt(2)] * 2)


def test_verify_rejects_entangled_pair():
    h = sum_on(2, (1.0, {0: "Z", 1: "Z"}), (1.0, {0: "X", 1: "X"}))
    assert verify_mf(h) is None


def test_verify_respects_branch_cap(monkeypatch):
    h = sum_on(2, (1.0, {1: "X"}), (1.0, {0: "Z", 1: "Y"}))
    assert verify_mf(h) is not None
    monkeypatch.setattr(meanfield, "MAX_BRANCHES", 1)
    assert verify_mf(h) is None


def test_overflowing_sums_are_refused_before_any_gram(monkeypatch):
    h = sum_on(
        2,
        (1e308, {0: "X", 1: "X"}),
        (1e308, {0: "Z", 1: "Z"}),
        (1e308, {0: "Y", 1: "Y"}),
        (1.0, {0: "X", 1: "Z"}),
    )

    def no_gram(*args):
        raise AssertionError("a Gram matrix was formed")

    monkeypatch.setattr(meanfield, "_gram_spectrum", no_gram)
    monkeypatch.setattr(meanfield, "_branch_gram", no_gram)
    message = "coefficients are too large: the sum of their squares is not finite"
    with pytest.raises(ValueError, match=message):
        verify_mf(h)
    with pytest.raises(ValueError, match=message):
        meanfield._l_values(h, range(2))
    for qubit in range(2):
        with pytest.raises(ValueError, match=message):
            grand(h, qubit)


def test_uniform_branch_ops_mapping():
    op = SingleQubitOp(2, (0.0, 1.0, 0.0))
    ops = UniformBranchOps(2, op)
    assert len(ops) == 4
    assert ops[(1, -1)] is op
    assert next(iter(ops)) == (1, 1)
    with pytest.raises(KeyError):
        ops[(1,)]
    with pytest.raises(KeyError):
        ops[(1, 0)]


def test_product_terminal_map_values():
    tv = ProductTerminalMap(3, (((0, 2), 2.0), ((), 1.0)))
    assert tv[(1, 1, 1)] == 3.0
    assert tv[(1, 1, -1)] == -1.0
    assert tv[(-1, 1, -1)] == 3.0
    assert len(tv) == 8
    with pytest.raises(KeyError):
        tv[(1, 1)]


@pytest.mark.parametrize("position", [2, 5, -1])
def test_product_terminal_map_refuses_positions_outside_its_steps(position):
    with pytest.raises(ValueError, match="names a step outside the 2 steps"):
        ProductTerminalMap(2, (((0, position), 1.0),))
