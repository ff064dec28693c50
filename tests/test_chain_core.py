"""The chain-search core against a dense oracle and against compute_l.

The oracle decides measurability on dense matrices, qubit order by qubit
order, without any of the library's Gram code: at each step every live
branch splits as H = sum_s sigma_s (x) A_s + I (x) A_e by partial traces,
the Frobenius Gram matrix of (A_x, A_y, A_z) must have rank at most one,
and the branch reduces to A_e + outcome * n . A along the top direction n.
"""

import json
import struct

import numpy as np
import pytest

from conftest import README_MODEL, dense_sum, random_sum
from mfpart import meanfield
from mfpart.hamio import parse_hamiltonian, serialize_plan
from mfpart.meanfield import (
    GRAM_TOL_SCALE,
    BranchTable,
    _branch_gram,
    compute_l,
    decompose_by_qubit,
    verify_mf,
)
from mfpart.partition import MFFragment, PartitionPlan, greedy_partition, validate_plan
from mfpart.pauli import PauliSum, PauliWord

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _split(t, q, n):
    """(A_e, [A_x, A_y, A_z]) of an n-qubit operator tensor at qubit q."""
    t = np.moveaxis(t, (n - 1 - q, 2 * n - 1 - q), (0, 1))
    parts = [0.5 * np.einsum("ba,ab...->...", s, t) for s in _PAULIS]
    return 0.5 * np.einsum("aa...->...", t), parts


def _embed(rest, q, n):
    """rest (x) identity on qubit q, back as an n-qubit operator tensor."""
    t = np.einsum("ab,...->ab...", np.eye(2), rest)
    return np.moveaxis(t, (0, 1), (n - 1 - q, 2 * n - 1 - q))


def _reduce_all(branches, q, n):
    """Both outcomes of every branch at q, or None if some branch is stuck."""
    out = []
    for t in branches:
        rest, parts = _split(t, q, n)
        dim = rest.size ** 0.5
        flat = np.array([p.reshape(-1) for p in parts])
        gram = (flat.conj() @ flat.T).real / dim
        evals, evecs = np.linalg.eigh(gram)
        tol = GRAM_TOL_SCALE * max(1.0, float(np.trace(gram)))
        if evals[1] > tol:
            return None
        if evals[2] <= tol:
            out.append(_embed(rest, q, n))
            continue
        along = sum(w * p for w, p in zip(evecs[:, 2], parts))
        out.extend(_embed(rest + s * along, q, n) for s in (1, -1))
    return out


def _some_order_certifies(branches, remaining, n):
    """Depth-first over every order of the remaining qubits."""
    if not remaining:
        return True
    for q in remaining:
        reduced = _reduce_all(branches, q, n)
        if reduced is not None and _some_order_certifies(
            reduced, [r for r in remaining if r != q], n
        ):
            return True
    return False


def oracle_measurable(h: PauliSum) -> bool:
    n = h.n_qubits
    t = dense_sum(h).reshape((2,) * (2 * n))
    return _some_order_certifies([t], list(h.support()), n)


def test_oracle_on_known_cases():
    def sum_on(n, *terms):
        return PauliSum.from_terms(n, [(PauliWord.from_axes(n, a), c) for c, a in terms])

    assert oracle_measurable(sum_on(2, (1.0, {1: "X"}), (1.0, {0: "Z", 1: "Y"})))
    assert not oracle_measurable(sum_on(2, (1.0, {0: "Z", 1: "Z"}), (1.0, {0: "X", 1: "X"})))
    # Only the order (1, 0) works: qubit 0 starts at l = 1.
    assert oracle_measurable(sum_on(2, (1.0, {0: "X"}), (0.5, {0: "Z", 1: "Z"})))


def test_verify_mf_matches_exhaustive_order_oracle():
    rng = np.random.default_rng(2024)
    verdicts = []
    for i in range(1200):
        n = 2 + i % 3
        h = random_sum(rng, n, int(rng.integers(2, n + 4)))
        expected = oracle_measurable(h)
        assert (verify_mf(h) is not None) == expected, h
        verdicts.append(expected)
    # Both verdicts are well represented, so agreement is not vacuous.
    assert 200 <= sum(verdicts) <= 1000


def _near_tolerance_sums():
    def word(axes):
        return PauliWord.from_axes(3, axes)

    cases = {}
    for scale in (0.99, 1.01):
        # One axis on qubit 0 with Gram eigenvalue scale * 1e-8.
        cases[f"single-axis-{scale}"] = PauliSum.from_terms(
            3, [(word({0: "Z", 1: "X"}), scale ** 0.5 * 1e-4)]
        )
    for eps in (1.9e-4, 2.1e-4):
        # Smallest planar eigenvalue about eps^2 / 2 against 1e-8 * trace.
        cases[f"planar-{eps}"] = PauliSum.from_terms(
            3,
            [(word({0: "X", 1: "Z"}), 1.0), (word({0: "Z", 1: "Z"}), 1.0),
             (word({0: "Z", 2: "X"}), eps)],
        )
    cases["single-axis-many-words"] = PauliSum.from_terms(
        3, [(word({0: "Y", 1: "X"}), 0.5), (word({0: "Y", 2: "Z"}), -1.5), (word({0: "Y"}), 2.0)]
    )
    cases["absent-qubit"] = PauliSum.from_terms(3, [(word({1: "X", 2: "Y"}), 1.0)])
    rng = np.random.default_rng(77)
    for i in range(6):
        cases[f"random-{i}"] = random_sum(rng, 3, 3 + i)
    for trace in (0.5, 300.0):
        for factor in GRAM_FACTORS:
            for family in ("pair", "low", "mid"):
                cases[f"gram-{family}-{factor}-{trace}"] = _gram_sum(family, factor, trace)
    return cases


#: The two smaller Gram eigenvalues of the designed cases, in kernel tolerances.
#: 0.1 and 3 lie outside the screen's factor-2 margin, so it answers there.
GRAM_FACTORS = (0.1, 0.5, 0.99, 1.01, 2.0, 3.0)


def _gram_sum(family, factor, trace):
    """A 3-qubit sum whose qubit-0 Gram matrix has a designed spectrum.

    The leading eigenvalue is ``trace``; ``pair`` puts both smaller ones
    at ``factor`` kernel tolerances, ``low`` the smallest only (the middle
    one at trace / 4), and ``mid`` the middle one with the smallest at 0.
    Rest word i carries sqrt(eigenvalue i) times row i of an orthogonal
    matrix, so the Gram matrix is not diagonal.
    """
    total = trace
    for _ in range(5):
        tol = GRAM_TOL_SCALE * max(1.0, total)
        evals = {
            "pair": (trace, factor * tol, factor * tol),
            "low": (trace, 0.25 * trace, factor * tol),
            "mid": (trace, factor * tol, 0.0),
        }[family]
        total = sum(evals)
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    rests = ({1: "X"}, {1: "Z", 2: "Y"}, {2: "Z"})
    terms = []
    for i, lam in enumerate(evals):
        if lam > 0:
            for axis, coeff in zip("XYZ", lam ** 0.5 * q[i]):
                terms.append((PauliWord.from_axes(3, {0: axis, **rests[i]}), float(coeff)))
    return PauliSum.from_terms(3, terms)


@pytest.mark.parametrize("tol_scale", [GRAM_TOL_SCALE, 1e-3])
@pytest.mark.parametrize("name, h", list(_near_tolerance_sums().items()))
def test_core_l_matches_compute_l(name, h, tol_scale, monkeypatch):
    monkeypatch.setattr(meanfield, "GRAM_TOL_SCALE", tol_scale)
    branch = {(w.x_mask, w.z_mask): c for w, c in h.terms.items()}
    for k in range(h.n_qubits):
        expected = compute_l(decompose_by_qubit(h, k)).l
        assert _branch_gram(branch, k)[0] == expected, (name, k)


def test_near_tolerance_cases_straddle_the_kernel_bound():
    cases = _near_tolerance_sums()
    l_at_0 = {name: compute_l(decompose_by_qubit(h, 0)).l for name, h in cases.items()}
    assert l_at_0["single-axis-0.99"] == 3 and l_at_0["single-axis-1.01"] == 2
    assert l_at_0["planar-0.00019"] == 2 and l_at_0["planar-0.00021"] == 1
    for trace in (0.5, 300.0):
        for factor in GRAM_FACTORS:
            below = factor < 1
            assert l_at_0[f"gram-pair-{factor}-{trace}"] == (2 if below else 0)
            assert l_at_0[f"gram-low-{factor}-{trace}"] == (1 if below else 0)
            assert l_at_0[f"gram-mid-{factor}-{trace}"] == (2 if below else 1)


@pytest.mark.parametrize("name, h", list(_near_tolerance_sums().items()))
def test_gram_screen_matches_the_eigendecomposition(name, h, monkeypatch):
    branch = {(w.x_mask, w.z_mask): c for w, c in h.terms.items()}
    screened = [_branch_gram(branch, k) for k in range(h.n_qubits)]
    monkeypatch.setattr(meanfield, "_settled_l", lambda rows, n_rows: None)
    unscreened = [_branch_gram(branch, k) for k in range(h.n_qubits)]
    # Equal l everywhere and, at l = 2, the same eigenvector bit for bit.
    assert [(l, v and tuple(map(float.hex, v))) for l, v in screened] == [
        (l, v and tuple(map(float.hex, v))) for l, v in unscreened
    ], name


def test_gram_screen_answers_outside_its_margin_and_only_there():
    cases = _near_tolerance_sums()

    def answer(name):
        vectors, _ = meanfield._complement_rows(
            {(w.x_mask, w.z_mask): c for w, c in cases[name].terms.items()}, 0
        )
        return meanfield._settled_l(vectors.values(), len(vectors))

    for trace in (0.5, 300.0):
        assert answer(f"gram-low-0.1-{trace}") == 1
        assert answer(f"gram-low-3.0-{trace}") == 0
        # Within a factor 2 of the tolerance the eigendecomposition decides.
        for factor in (0.5, 0.99, 1.01, 2.0):
            for family in ("pair", "low", "mid"):
                assert answer(f"gram-{family}-{factor}-{trace}") is None


def _bits(x):
    return struct.pack("<d", x)


def _op_bits(cert):
    return [
        {prefix: struct.pack("<3d", *op.bloch) for prefix, op in step.ops.items()}
        for step in cert.steps
    ]


def _sign_symmetric_sums():
    rng = np.random.default_rng(1986)
    sums = [parse_hamiltonian(README_MODEL)]
    for i in range(40):
        n = 2 + i % 5
        sums.append(random_sum(rng, n, int(rng.integers(2, 3 * n))))
    # Fragments certify, so their tables exercise the chain search in full.
    plans = [greedy_partition(h, "mf2") for h in sums]
    return sums + [f.effective_hamiltonian() for plan in plans for f in plan.fragments]


def test_a_negated_sum_gets_the_same_ops_and_negated_terminal_values():
    tables = 0
    for h in _sign_symmetric_sums():
        cert, negated = verify_mf(h), verify_mf(h.scale(-1.0))
        assert (cert is None) == (negated is None)
        if cert is None:
            continue
        assert negated.qubit_order == cert.qubit_order
        assert _op_bits(negated) == _op_bits(cert)
        if isinstance(cert.terminal_values, BranchTable):
            tables += 1
            values = {o: -v if v else 0.0 for o, v in cert.terminal_values.items()}
            assert {o: _bits(v) for o, v in negated.terminal_values.items()} == {
                o: _bits(v) for o, v in values.items()
            }
        else:
            terms = negated.terminal_values.terms
            assert terms == tuple((p, -c) for p, c in cert.terminal_values.terms)
    assert tables >= 20


def test_a_branch_without_a_constant_reads_positive_zero_under_either_sign():
    # (Z0 - X0)(1 + Y1 Y2): the branches where Y1 Y2 reads -1 end at zero,
    # and under h or -h some of them are the negation of their class.
    h = parse_hamiltonian("1 Z0\n-1 X0\n1 Z0 Y1 Y2\n-1 X0 Y1 Y2\n")
    for s in (h, h.scale(-1.0)):
        cert = verify_mf(s)
        assert isinstance(cert.terminal_values, BranchTable)
        zeros = [v for v in cert.terminal_values.values() if v == 0.0]
        assert len(zeros) == 4 and {_bits(v) for v in zeros} == {_bits(0.0)}
        plan = PartitionPlan(source=s, fragments=(MFFragment(s, cert),), level="mf1")
        written = json.loads(serialize_plan(plan))["fragments"][0]["certificate"]
        assert [_bits(v) for v in written["terminal_values"].values()].count(_bits(0.0)) == 4
        assert validate_plan(plan) == []


def test_the_branch_cap_counts_live_branches_not_sign_classes(monkeypatch):
    # (X0 + Z0) Z1 Z2 Z3: every step leaves one sign class, +-sqrt(2) Z..Z.
    h = parse_hamiltonian("1 X0 Z1 Z2 Z3\n1 Z0 Z1 Z2 Z3\n")
    calls = []
    gram = meanfield._branch_gram
    monkeypatch.setattr(meanfield, "_branch_gram", lambda b, k: calls.append(k) or gram(b, k))
    monkeypatch.setattr(meanfield, "MAX_BRANCHES", 16)
    cert = verify_mf(h)
    assert len(cert.terminal_values) == 16
    assert calls == [0, 1, 2, 3]
    monkeypatch.setattr(meanfield, "MAX_BRANCHES", 8)
    assert verify_mf(h) is None
