"""Seeded input generators for the benchmark workloads.

Generators use numpy only and hand the program nothing but text: term
lists in the Hamiltonian file format and amplitude lists in the state
file format.  Every seed plans the sums of the acceptance tests
(acceptance 9 for ``mf1_large``, acceptance 6 for ``mf2_sweep``) and a
fixed 13-qubit sum; the seed draws the states they are scored and
sampled in.
"""

from __future__ import annotations

import numpy as np

_AXES = ["I", "X", "Y", "Z"]
_XYZ = ("X", "Y", "Z")


def _rng(base: int, seed: int) -> np.random.Generator:
    return np.random.default_rng(base if seed == 0 else [base, seed % (1 << 64)])


def _label(x: int, z: int) -> str:
    parts = []
    k = 0
    while (x | z) >> k:
        bits = ((x >> k) & 1) + 2 * ((z >> k) & 1)
        if bits:
            parts.append(f"{'IXZY'[bits]}{k}")
        k += 1
    return " ".join(parts)


def _masks(axes: dict[int, str]) -> tuple[int, int]:
    x = z = 0
    for q, axis in axes.items():
        if axis in ("X", "Y"):
            x |= 1 << q
        if axis in ("Y", "Z"):
            z |= 1 << q
    return x, z


def _term_text(n_qubits: int, terms) -> str:
    """Term list text; ``repr`` keeps every coefficient exact."""
    lines = [f"qubits: {n_qubits}"]
    for (x, z), coeff in terms:
        label = _label(x, z)
        lines.append(f"{float(coeff)!r} {label}".rstrip())
    return "\n".join(lines) + "\n"


def state_text(amplitudes: np.ndarray) -> str:
    return "".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in amplitudes)


def random_sum_text(rng: np.random.Generator, n_qubits: int, n_terms: int) -> str:
    """Distinct uniformly random words with U(-2, 2) coefficients.

    Draws in the same order as the test suite's ``random_sum`` helper, so
    an equal generator state yields the same sum.
    """
    words: set[tuple[int, int]] = set()
    while len(words) < n_terms:
        axes = {}
        for q in range(n_qubits):
            axis = str(rng.choice(_AXES))
            if axis != "I":
                axes[q] = axis
        words.add(_masks(axes))
    ordered = sorted(words, key=lambda xz: (xz[0] | xz[1], xz[0], xz[1]))
    coeffs = rng.uniform(-2.0, 2.0, size=len(ordered))
    return _term_text(n_qubits, zip(ordered, coeffs))


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def mf1_large(seed: int) -> tuple[str, str]:
    """Acceptance 9's 10-qubit, 1000-term sum and a seeded state.

    The sum is the same for every seed, for the reason given under
    :func:`mf2_sweep`; the state only scores the plan.
    """
    rng = np.random.default_rng(424242)
    text = random_sum_text(rng, 10, 1000)
    if seed != 0:
        rng = _rng(424242, seed)
    return text, state_text(random_state(rng, 10))


def mf2_sweep(seed: int) -> list[tuple[str, str]]:
    """Acceptance 6's fifty small sums, each with a seeded state.

    The sums are the same for every seed and only the states follow it.
    With seeded sums the fragment count and the planning work moved from
    seed to seed on top of the machine's own noise, which left too little
    room for a regression bound.
    """
    models = []
    for trial in range(50):
        rng = np.random.default_rng(6000 + trial)
        n = int(rng.integers(2, 7))
        n_terms = int(rng.integers(3, min(60, 4**n - 2) + 1))
        text = random_sum_text(rng, n, n_terms)
        if seed != 0:
            rng = _rng(6000 + trial, seed)
        models.append((text, state_text(random_state(rng, n))))
    return models


#: The 13-qubit sum's words: 19 small words on qubits 0-7, so fragments
#: built from them stay at or below 2^8 branches, one word on qubits
#: 0-10 and one on every qubit.
ESTIMATE_QUBITS = 13
SMALL_SUPPORTS = (2, 3, 4, 5) * 5
SMALL_QUBITS = 8
WIDE_QUBITS = 11


def estimate_13q(seed: int) -> tuple[str, str]:
    """A 13-qubit sum of 20 terms plus one term on every qubit, and a state.

    The full-support term's fragment has 2^13 branches, which sends it
    down the per-shot collapse path; the other fragments stay on the
    exact branch-distribution path.  The sum comes from a fixed stream
    and only the state follows the seed: the greedy split depends on the
    coefficients, so a seeded sum would change the fragments and the
    estimator's work from seed to seed.
    """
    shapes = np.random.default_rng(1313)
    n = ESTIMATE_QUBITS
    words: dict[tuple[int, int], None] = {}
    while len(words) < len(SMALL_SUPPORTS) - 1:
        size = SMALL_SUPPORTS[len(words)]
        qubits = shapes.choice(SMALL_QUBITS, size=size, replace=False)
        words[_masks({int(q): _XYZ[int(shapes.integers(3))] for q in qubits})] = None
    for width in (WIDE_QUBITS, n):
        words[_masks({q: _XYZ[int(shapes.integers(3))] for q in range(width)})] = None
    coeffs = shapes.uniform(-2.0, 2.0, size=len(words))
    text = _term_text(n, zip(words, coeffs))
    return text, state_text(random_state(_rng(1314, seed), n))
