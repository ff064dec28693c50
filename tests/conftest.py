"""Shared fixtures and independent dense oracles.

Oracles here never call back into the library's dense path, so tests
compare two separately written constructions.  Qubit 0 is the least
significant amplitude bit everywhere.
"""

import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

from mfpart.hamio import parse_hamiltonian, serialize_plan
from mfpart.partition import greedy_partition
from mfpart.pauli import PauliSum, PauliWord

DATA_DIR = Path(__file__).parent / "data"

#: The model of the README's command-line section.
README_MODEL = """# three-site toy model
qubits: 3
 0.50 Z0 Z1
 0.25 X0
 0.70 X1 X2
 0.70 Y1 Y2
-1.00
"""

#: Two exchange-coupled qubits: their mf2 plan is one fragment with an entangler.
EXCHANGE_MODEL = "1.0 X0 X1\n1.0 Y0 Y1\n0.5 Z0 Z1\n0.3 Z0\n"


def exchange_plan_with(key: str, value) -> str:
    """The exchange model's mf2 plan text with entry [0][0] of one unitary part replaced."""
    doc = json.loads(serialize_plan(greedy_partition(parse_hamiltonian(EXCHANGE_MODEL), "mf2")))
    doc["fragments"][0]["entangler"][key][0][0] = value
    return json.dumps(doc)


def _openblas() -> tuple[str, str]:
    """Core name and thread count of the OpenBLAS numpy loaded, or "unknown".

    The plan and report digest tests pass only on the kernel the digests
    were taken with, so the header shows which one ran.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_core = getattr(handle, f"{prefix}openblas_get_corename{suffix}", None)
            get_threads = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_core is not None and get_threads is not None:
                get_core.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
                return get_core().decode(), str(get_threads())
    return "unknown", "unknown"


def pytest_report_header(config):
    core, threads = _openblas()
    return f"OpenBLAS core: {core}, threads: {threads}"


_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_word(word: PauliWord) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for q in range(word.n_qubits - 1, -1, -1):
        out = np.kron(out, _SIGMA[word.axis(q)])
    return out


def dense_sum(h: PauliSum) -> np.ndarray:
    dim = 1 << h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in h.terms.items():
        out += coeff * dense_word(word)
    return out


def embed_on_subset(matrix: np.ndarray, subset, n_qubits: int) -> np.ndarray:
    """Entry-by-entry embedding of a subset operator into the register."""
    subset = tuple(subset)
    dim = 1 << n_qubits
    rest = [q for q in range(n_qubits) if q not in subset]

    def sub_index(i):
        return sum(((i >> q) & 1) << pos for pos, q in enumerate(subset))

    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if all((i >> q) & 1 == (j >> q) & 1 for q in rest):
                out[i, j] = matrix[sub_index(i), sub_index(j)]
    return out


def random_word(rng, n_qubits: int) -> PauliWord:
    axes = {}
    for q in range(n_qubits):
        axis = rng.choice(["I", "X", "Y", "Z"])
        if axis != "I":
            axes[q] = str(axis)
    return PauliWord.from_axes(n_qubits, axes)


def random_sum(rng, n_qubits: int, n_terms: int) -> PauliSum:
    words = set()
    while len(words) < n_terms:
        words.add(random_word(rng, n_qubits))
    coeffs = rng.uniform(-2.0, 2.0, size=len(words))
    return PauliSum.from_terms(n_qubits, zip(sorted(words, key=lambda w: w.sort_key()), coeffs))


def random_amplitudes(rng, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def h2_model(rng) -> PauliSum:
    """Random-coefficient instance of the 4-qubit diagonal-plus-two-flip shape.

    Eleven independent magnitudes; three of them are shared between a
    bare word and its partner carrying an extra Z on qubit 0.
    """
    c = rng.uniform(0.2, 1.5, size=12) * rng.choice([-1.0, 1.0], size=12)
    w = lambda axes: PauliWord.from_axes(4, axes)
    terms = [
        (w({}), c[0]),
        (w({1: "Z"}), c[1]),
        (w({2: "Z"}), c[2]),
        (w({3: "Z"}), c[3]),
        (w({0: "Z", 2: "Z"}), c[4]),
        (w({1: "Z", 3: "Z"}), c[5]),
        (w({2: "Z", 3: "Z"}), c[6]),
        (w({0: "Z", 1: "Z", 2: "Z"}), c[7]),
        (w({1: "Z", 2: "Z", 3: "Z"}), c[8]),
        (w({0: "Z", 1: "Z", 2: "Z", 3: "Z"}), c[8]),
        (w({0: "Z", 1: "Z", 3: "Z"}), c[9]),
        (w({1: "Y", 2: "Z", 3: "Y"}), c[10]),
        (w({0: "Z", 1: "Y", 2: "Z", 3: "Y"}), c[10]),
        (w({1: "X", 2: "Z", 3: "X"}), c[11]),
        (w({0: "Z", 1: "X", 2: "Z", 3: "X"}), c[11]),
    ]
    return PauliSum.from_terms(4, terms)


def wide_table_model() -> PauliSum:
    """X0 on a 9-qubit Z chain: one fragment with a 512-branch table."""
    lines = ["1.0 X0"] + [f"0.{q + 1} Z{q} Z{q + 1}" for q in range(8)]
    return parse_hamiltonian("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def collinear3() -> PauliSum:
    return parse_hamiltonian((DATA_DIR / "collinear3.txt").read_text())
