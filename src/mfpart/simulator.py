"""Dense statevector backend: moments, diagonalization, feedforward sampling.

Amplitude indexing is little-endian: basis index i assigns qubit k the
bit (i >> k) & 1.  Words act on amplitudes, and enter dense matrices,
through :func:`mfpart.pauli._word_action`.

Sampling follows a fragment's certificate: the energy sample of a shot
is the certificate's terminal value for its outcome sequence.  One pass
over the state yields the exact branch distribution by deferred
measurement, and every shot, in ``estimate_energy`` and in
``measure_fragment`` alike, is an inverse-CDF draw from it.  Branch b
is the outcome sequence in which step d reads -1 exactly when bit
m-1-d of b is set, the order of ``itertools.product((1, -1), repeat=m)``.
An exact eigenvalue is drawn each shot, which is why the analytic
per-fragment moments are plain operator moments of the certified sum.
``estimate_energy`` rotates the state of an entangled fragment once and
takes both the samples and the moments from that copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meanfield import UniformBranchOps, _bit
from .partition import MFFragment, PartitionPlan
from .pauli import PauliSum, PauliWord, _word_action, _word_matrix

__all__ = [
    "DENSE_QUBIT_CAP",
    "STATE_QUBIT_CAP",
    "StateVector",
    "to_dense",
    "expectation",
    "variance",
    "covariance",
    "eigensolve",
    "measure_fragment",
    "branch_distribution",
    "estimate_energy",
    "EstimatorReport",
    "FragmentEstimate",
]

DENSE_QUBIT_CAP = 12
STATE_QUBIT_CAP = 24

@dataclass(frozen=True)
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits > STATE_QUBIT_CAP:
            raise ValueError(f"{self.n_qubits} qubits exceeds the state cap of {STATE_QUBIT_CAP}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(f"expected {1 << self.n_qubits} amplitudes, got {amps.shape}")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # inf past the float range, refused below
            norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} is not 1")

    @classmethod
    def computational(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)


#: X, Y and Z, the Bloch basis of a single-qubit op.
_PAULIS = np.array([_word_matrix(1, x, z) for x, z in ((1, 0), (1, 1), (0, 1))])


def _apply_word_raw(word: PauliWord, amps: np.ndarray) -> np.ndarray:
    """word |psi> via bit arithmetic; exact fourth-root-of-unity phases."""
    dest, factor = _word_action(word.n_qubits, word.x_mask, word.z_mask)
    out = np.empty_like(amps)
    out[dest] = amps * factor
    return out


def _apply_sum_raw(h: PauliSum, amps: np.ndarray) -> np.ndarray:
    # Canonical term order keeps the floating-point result independent of
    # how the sum was assembled.
    out = np.zeros_like(amps)
    for word, coeff in h.sorted_terms():
        if word.is_identity:
            out += coeff * amps
        else:
            out += coeff * _apply_word_raw(word, amps)
    return out


def to_dense(h: PauliSum) -> np.ndarray:
    """Dense matrix of the sum, scattered from each word's action; exact but exponential."""
    if h.n_qubits > DENSE_QUBIT_CAP:
        raise ValueError(f"{h.n_qubits} qubits exceeds the dense cap of {DENSE_QUBIT_CAP}")
    dim = 1 << h.n_qubits
    columns = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in h.sorted_terms():
        dest, factor = _word_action(h.n_qubits, word.x_mask, word.z_mask)
        out[dest, columns] += coeff * factor
    return out


def _check_match(h: PauliSum, psi: StateVector):
    if h.n_qubits != psi.n_qubits:
        raise ValueError(
            f"operator on {h.n_qubits} qubits, state on {psi.n_qubits}"
        )


def expectation(h: PauliSum, psi: StateVector) -> float:
    _check_match(h, psi)
    return float(np.vdot(psi.amplitudes, _apply_sum_raw(h, psi.amplitudes)).real)


def variance(h: PauliSum, psi: StateVector) -> float:
    _check_match(h, psi)
    hpsi = _apply_sum_raw(h, psi.amplitudes)
    mean = float(np.vdot(psi.amplitudes, hpsi).real)
    return float(np.vdot(hpsi, hpsi).real - mean * mean)


def covariance(a: PauliSum, b: PauliSum, psi: StateVector) -> float:
    """Symmetrized covariance Re<AB> - <A><B>.

    The real part makes cov(a, b) = cov(b, a), so the exact decomposition
    var(a + b) = var(a) + var(b) + cov(a, b) + cov(b, a) holds.
    """
    _check_match(a, psi)
    _check_match(b, psi)
    apsi = _apply_sum_raw(a, psi.amplitudes)
    bpsi = _apply_sum_raw(b, psi.amplitudes)
    mean_a = float(np.vdot(psi.amplitudes, apsi).real)
    mean_b = float(np.vdot(psi.amplitudes, bpsi).real)
    return float(np.vdot(apsi, bpsi).real - mean_a * mean_b)


def eigensolve(h: PauliSum) -> tuple[float, StateVector]:
    """Ground eigenvalue and eigenvector by dense diagonalization."""
    dense = to_dense(h)
    evals, evecs = np.linalg.eigh(dense)
    vec = evecs[:, 0]
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (abs(vec[pivot]) / vec[pivot])
    return float(evals[0]), StateVector(h.n_qubits, vec)


def _prepare_fragment_state(frag: MFFragment, psi: StateVector) -> np.ndarray:
    """The amplitudes the certificate is measured on: psi's own, only read, without an entangler.

    With one, U^dagger of the entangler acts on its subset, subset[0] as its low bit.
    """
    spec = frag.entangler
    if spec is None:
        return psi.amplitudes
    n, k = psi.n_qubits, len(spec.subset)
    # Axis of qubit q in the reshaped tensor is n-1-q; order the moved
    # axes so that C-order flattening makes subset[0] the fastest bit.
    src = [n - 1 - q for q in reversed(spec.subset)]
    head = np.moveaxis(psi.amplitudes.reshape((2,) * n), src, range(k)).reshape(1 << k, -1)
    head = spec.unitary.conj().T @ head
    return np.moveaxis(head.reshape((2,) * n), range(k), src).reshape(-1)


def _draw(probs: np.ndarray, uniforms):
    """Branch indices of ``uniforms`` under ``probs`` by inverse CDF."""
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    return np.searchsorted(cdf, uniforms, side="right")


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def measure_fragment(
    frag: MFFragment, psi: StateVector, rng_seed
) -> tuple[float, tuple[int, ...]]:
    """One feedforward shot, drawn from :func:`branch_distribution`.

    Returns the energy sample (the terminal value of the realized branch)
    and the outcome sequence itself.
    """
    _check_seed(rng_seed)
    probs, values = branch_distribution(frag, psi)
    b = int(_draw(probs, np.random.default_rng(rng_seed).random()))
    m = len(frag.certificate.steps)
    return float(values[b]), tuple(-1 if b & _bit(d, m) else 1 for d in range(m))


def _z_rotations(blochs: np.ndarray) -> np.ndarray:
    """Unitaries taking each Bloch op onto Z: rows are its +1 and -1 eigenbras."""
    # The one dot that np.tensordot(blochs, _PAULIS, 1) makes, without its set-up.
    ops = np.dot(blochs.reshape(-1, 3), _PAULIS.reshape(3, 4)).reshape(blochs.shape[:-1] + (2, 2))
    _, vecs = np.linalg.eigh(ops)
    return vecs[..., ::-1].conj().swapaxes(-1, -2)


def branch_distribution(
    frag: MFFragment, psi: StateVector
) -> tuple[np.ndarray, np.ndarray]:
    """Exact outcome-branch probabilities and terminal values, in bit order.

    One pass over one copy of the state: the chain qubits are moved to
    the front in step order, and step d rotates its qubit onto Z under
    all 2^d outcome prefixes at once, bit 0 standing for outcome +1.
    Entry b of both arrays belongs to the outcomes in which step d reads
    -1 exactly when bit m-1-d of b is set, however the certificate lists
    its table; a probability is the squared weight of its bit pattern.
    The rotations are one stacked eigendecomposition over the fragment's
    distinct op objects, which gives each the bits a call of its own
    would, and every step gathers its rows by entry; none outlives the call.
    """
    cert = frag.certificate
    if cert.n_qubits != psi.n_qubits:
        raise ValueError("certificate register size does not match the state")
    n, m = psi.n_qubits, len(cert.steps)
    axes = [n - 1 - q for q in cert.qubit_order]
    axes += [a for a in range(n) if a not in axes]
    amps = _prepare_fragment_state(frag, psi).reshape((2,) * n).transpose(axes)
    entries = [
        [step.ops.op] if isinstance(step.ops, UniformBranchOps) else step.ops.values()
        for step in cert.steps
    ]
    distinct = {id(op): op for ops in entries for op in ops}
    slot = {key: i for i, key in enumerate(distinct)}
    rotations = _z_rotations(np.array([op.bloch for op in distinct.values()]).reshape(-1, 3))
    for d, ops in enumerate(entries):
        # A uniform step's one row broadcasts over every prefix.
        amps = rotations[[slot[id(op)] for op in ops]] @ amps.reshape(1 << d, 2, -1)
    probs = np.square(np.abs(amps.reshape(1 << m, -1))).sum(axis=1)
    return probs, np.asarray(cert.terminal_values.values())


@dataclass(frozen=True, slots=True)
class FragmentEstimate:
    index: int
    shots: int
    sample_mean: float
    sample_variance: float
    analytic_expectation: float
    analytic_variance: float


@dataclass(frozen=True, slots=True)
class EstimatorReport:
    """Per-fragment sampling statistics next to their analytic counterparts.

    ``summed_variance`` adds per-fragment variances only; cross-fragment
    covariances are deliberately left out, mirroring how independent
    per-fragment estimators behave in practice.
    """

    shots: int
    seed: int
    fragments: tuple[FragmentEstimate, ...]
    energy_estimate: float
    summed_variance: float
    analytic_expectation: float
    analytic_summed_variance: float


def _estimate_fragment(
    frag: MFFragment, fi: int, psi: StateVector, shots: int, seed: int
) -> FragmentEstimate:
    # One rotated copy of the state serves the samples and the moments: the
    # certificate describes the rotated sum, measured with no rotation left.
    eff = frag.effective_hamiltonian()
    if frag.entangler is not None:
        psi = StateVector(psi.n_qubits, _prepare_fragment_state(frag, psi))
        frag = MFFragment(eff, frag.certificate)
    probs, values = branch_distribution(frag, psi)
    samples = values[_draw(probs, np.random.default_rng([seed, fi]).random(shots))]
    exact_mean = expectation(eff, psi)
    exact_var = variance(eff, psi)

    return FragmentEstimate(
        index=fi,
        shots=shots,
        sample_mean=float(samples.mean()),
        sample_variance=float(samples.var()),
        analytic_expectation=exact_mean,
        analytic_variance=exact_var,
    )


def estimate_energy(
    plan: PartitionPlan,
    psi: StateVector,
    shots: int,
    seed: int,
    workers: int | None = None,
) -> EstimatorReport:
    """Sample every fragment independently and total the estimates.

    Shot i of fragment f consumes the i-th value of a stream keyed by
    (seed, f), a pure function of (seed, fragment, shot); reports are
    therefore bit-identical for any ``workers`` setting.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    _check_seed(seed)
    if not plan.fragments:
        raise ValueError("plan has no fragments")
    if workers is not None and workers > 1:
        # Imported here: it loads threading and logging, which no serial run needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            estimates = list(
                pool.map(
                    lambda fi: _estimate_fragment(plan.fragments[fi], fi, psi, shots, seed),
                    range(len(plan.fragments)),
                )
            )
    else:
        estimates = [
            _estimate_fragment(frag, fi, psi, shots, seed)
            for fi, frag in enumerate(plan.fragments)
        ]
    return EstimatorReport(
        shots=shots,
        seed=seed,
        fragments=tuple(estimates),
        energy_estimate=float(sum(e.sample_mean for e in estimates)),
        summed_variance=float(sum(e.sample_variance for e in estimates)),
        analytic_expectation=float(sum(e.analytic_expectation for e in estimates)),
        analytic_summed_variance=float(sum(e.analytic_variance for e in estimates)),
    )
