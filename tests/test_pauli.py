import numpy as np
import pytest

from conftest import dense_sum, dense_word, random_sum, random_word
from mfpart.partition import _attach_op
from mfpart.pauli import (
    PauliSum,
    PauliWord,
    SingleQubitOp,
    commutes,
    multiply_words,
    qwc_commutes,
)


def test_from_axes_and_axis():
    w = PauliWord.from_axes(4, {0: "X", 2: "Z", 3: "Y"})
    assert w.axis(0) == "X"
    assert w.axis(1) == "I"
    assert w.axis(2) == "Z"
    assert w.axis(3) == "Y"
    assert w.support() == (0, 2, 3)
    assert w.label() == "X0 Z2 Y3"


def test_identity_word():
    w = PauliWord.identity(3)
    assert w.is_identity
    assert w.support() == ()
    assert w.label() == "I"


def test_from_axes_rejects_bad_input():
    with pytest.raises(ValueError):
        PauliWord.from_axes(2, {0: "Q"})
    with pytest.raises(ValueError):
        PauliWord.from_axes(2, {5: "X"})


def test_drop_and_with_axis():
    w = PauliWord.from_axes(3, {0: "X", 1: "Y"})
    assert w.drop_qubit(1) == PauliWord.from_axes(3, {0: "X"})
    assert w.with_axis(2, "Z") == PauliWord.from_axes(3, {0: "X", 1: "Y", 2: "Z"})
    with pytest.raises(ValueError):
        w.with_axis(0, "Z")
    with pytest.raises(ValueError, match="unknown axis 'Q'"):
        w.with_axis(2, "Q")
    with pytest.raises(ValueError, match="unknown axis 'Q'"):
        PauliSum.from_terms(3, [(w, 1.0)]).attach(2, "Q")


@pytest.mark.parametrize("seed", range(6))
def test_multiply_words_matches_dense(seed):
    rng = np.random.default_rng(seed)
    a = random_word(rng, 3)
    b = random_word(rng, 3)
    phase, prod = multiply_words(a, b)
    assert np.allclose(phase * dense_word(prod), dense_word(a) @ dense_word(b))


def test_multiply_single_qubit_phases():
    x = PauliWord.from_axes(1, {0: "X"})
    y = PauliWord.from_axes(1, {0: "Y"})
    z = PauliWord.from_axes(1, {0: "Z"})
    assert multiply_words(x, y) == (1j, z)
    assert multiply_words(y, x) == (-1j, z)
    assert multiply_words(x, x) == (1.0, PauliWord.identity(1))


@pytest.mark.parametrize("seed", range(8))
def test_commutes_matches_dense(seed):
    rng = np.random.default_rng(100 + seed)
    a = random_word(rng, 4)
    b = random_word(rng, 4)
    da, db = dense_word(a), dense_word(b)
    assert commutes(a, b) == bool(np.allclose(da @ db, db @ da))


def test_qwc_is_per_qubit():
    a = PauliWord.from_axes(3, {0: "Z", 1: "Z"})
    b = PauliWord.from_axes(3, {1: "Z", 2: "X"})
    c = PauliWord.from_axes(3, {0: "X", 1: "X"})
    assert qwc_commutes(a, b)
    assert not qwc_commutes(a, c)
    # commuting overall but not qubit-wise
    assert commutes(a, c)


def test_sum_merges_duplicates():
    w = PauliWord.from_axes(2, {0: "Z"})
    h = PauliSum.from_terms(2, [(w, 1.5), (w, -0.5)])
    assert h.n_terms == 1
    assert h.coefficient(w) == 1.0


def test_sum_prunes_cancellations():
    w = PauliWord.from_axes(1, {0: "X"})
    h = PauliSum.from_terms(1, [(w, 1.0), (w, -1.0)])
    assert h.is_zero
    assert h.n_terms == 0


def test_sum_arithmetic_matches_dense():
    rng = np.random.default_rng(7)
    a = random_sum(rng, 3, 5)
    b = random_sum(rng, 3, 4)
    assert np.allclose(dense_sum(a + b), dense_sum(a) + dense_sum(b))
    assert np.allclose(dense_sum(a - b), dense_sum(a) - dense_sum(b))
    assert np.allclose(dense_sum(a.scale(-2.5)), -2.5 * dense_sum(a))


def test_attach_multiplies_by_axis_word():
    rng = np.random.default_rng(11)
    h = random_sum(rng, 3, 4)
    # attach only touches sums that leave the target qubit alone
    assert all(not w.touches(1) or True for w, _ in h)
    base = PauliSum.from_terms(3, [(w.drop_qubit(1), c) for w, c in h])
    attached = base.attach(1, "Y", 0.5)
    y1 = dense_word(PauliWord.from_axes(3, {1: "Y"}))
    assert np.allclose(dense_sum(attached), 0.5 * y1 @ dense_sum(base))


def test_constant_part_and_support():
    h = PauliSum.from_terms(
        3, [(PauliWord.identity(3), 2.0), (PauliWord.from_axes(3, {2: "X"}), 1.0)]
    )
    assert h.constant_part() == 2.0
    assert h.support() == (2,)


def test_allclose_tolerance():
    w = PauliWord.from_axes(1, {0: "Z"})
    a = PauliSum.from_terms(1, [(w, 1.0)])
    b = PauliSum.from_terms(1, [(w, 1.0 + 5e-11)])
    c = PauliSum.from_terms(1, [(w, 1.001)])
    assert a.allclose(b)
    assert not a.allclose(c)


def test_sorted_terms_is_deterministic():
    rng = np.random.default_rng(23)
    h = random_sum(rng, 4, 10)
    assert h.sorted_terms() == sorted(h.terms.items(), key=lambda kv: kv[0].sort_key())


def test_single_qubit_op_unit_and_sum():
    op = SingleQubitOp(1, (3.0, 0.0, 4.0))
    assert op.norm == 5.0
    unit = op.unit()
    assert np.isclose(np.linalg.norm(unit.bloch), 1.0)
    one = PauliSum.from_terms(2, [(PauliWord.identity(2), 1.0)])
    dense = dense_sum(_attach_op(one, op, {}))
    expected = 3.0 * dense_word(PauliWord.from_axes(2, {1: "X"})) + 4.0 * dense_word(
        PauliWord.from_axes(2, {1: "Z"})
    )
    assert np.allclose(dense, expected)


def test_zero_bloch_has_no_unit():
    with pytest.raises(ValueError):
        SingleQubitOp(0, (0.0, 0.0, 0.0)).unit()


def test_a_bloch_vector_whose_norm_overflows_is_refused():
    # Each component is finite, but the squares overflow, so the norm is inf
    # and the op would read as a zero direction once divided by it.
    for bloch in [(1e155, 0.0, 0.0), (0.0, 1e308, 1e308), (float("inf"), 0.0, 0.0)]:
        with pytest.raises(ValueError, match="Bloch vector norm must be finite"):
            SingleQubitOp(0, bloch)
    # A NaN stays constructible, for validate_plan to report.
    assert np.isnan(SingleQubitOp(0, (float("nan"), 0.0, 1.0)).norm)
