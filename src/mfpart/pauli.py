"""Pauli word and Pauli sum algebra on a fixed qubit register.

Words are stored in a symplectic two-bitmask encoding: bit k of ``x_mask``
says the factor on qubit k contains X, bit k of ``z_mask`` says it contains
Z, and a set bit in both marks Y.  Products and commutators then reduce to
bitwise operations plus a separately tracked phase that is always an exact
fourth root of unity.

Qubit indices are zero-based throughout; qubit 0 is the least significant
position of both masks.

Dense forms index amplitudes the same way: basis index i gives qubit k
the bit (i >> k) & 1.  :func:`_word_action` is the one place that turns
masks into matrix entries; every dense matrix, trace pattern and
statevector action of a word is read from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "AXES",
    "COEFF_PRUNE",
    "PauliWord",
    "PauliSum",
    "SingleQubitOp",
    "multiply_words",
    "commutes",
    "qwc_commutes",
]

AXES = ("X", "Y", "Z")

#: Coefficients at or below this magnitude are dropped when a sum is built.
COEFF_PRUNE = 1e-12

_I_POWERS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _set_bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of a qubit mask, ascending."""
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


def _axis_masks(axis: str, bit: int) -> tuple[int, int]:
    """The x and z mask bits of an axis letter on the qubit of ``bit``."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    return (0 if axis == "Z" else bit), (0 if axis == "X" else bit)


@dataclass(frozen=True, slots=True)
class PauliWord:
    """A tensor product of single-qubit Pauli factors with unit coefficient."""

    n_qubits: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise ValueError("n_qubits must be non-negative")
        limit = 1 << self.n_qubits
        if not (0 <= self.x_mask < limit and 0 <= self.z_mask < limit):
            raise ValueError("mask bits outside the qubit register")

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliWord":
        return cls(n_qubits)

    @classmethod
    def from_axes(cls, n_qubits: int, axes: Mapping[int, str]) -> "PauliWord":
        """Build a word from a mapping of qubit index to axis letter."""
        x = z = 0
        for qubit, axis in axes.items():
            if not 0 <= qubit < n_qubits:
                raise ValueError(f"qubit {qubit} outside register of {n_qubits}")
            dx, dz = _axis_masks(axis, 1 << qubit)
            x |= dx
            z |= dz
        return cls(n_qubits, x, z)

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def axis(self, qubit: int) -> str:
        """Axis letter on one qubit: 'I', 'X', 'Y' or 'Z'."""
        x = (self.x_mask >> qubit) & 1
        z = (self.z_mask >> qubit) & 1
        return ("I", "X", "Z", "Y")[x + 2 * z]

    def support(self) -> tuple[int, ...]:
        """Qubits carrying a non-identity factor, ascending."""
        return _set_bits(self.x_mask | self.z_mask)

    def touches(self, qubit: int) -> bool:
        return bool((self.x_mask | self.z_mask) >> qubit & 1)

    def drop_qubit(self, qubit: int) -> "PauliWord":
        """The same word with the factor on ``qubit`` replaced by identity."""
        keep = ~(1 << qubit)
        return PauliWord(self.n_qubits, self.x_mask & keep, self.z_mask & keep)

    def with_axis(self, qubit: int, axis: str) -> "PauliWord":
        """The same word with ``axis`` placed on a currently untouched qubit."""
        if self.touches(qubit):
            raise ValueError(f"qubit {qubit} already carries a factor")
        dx, dz = _axis_masks(axis, 1 << qubit)
        return PauliWord(self.n_qubits, self.x_mask | dx, self.z_mask | dz)

    def sort_key(self) -> tuple[int, int, int]:
        return (self.x_mask | self.z_mask, self.x_mask, self.z_mask)

    def label(self) -> str:
        """Human-readable form such as ``'X0 Z3'``; identity is ``'I'``."""
        parts = [f"{self.axis(k)}{k}" for k in self.support()]
        return " ".join(parts) if parts else "I"

    def __str__(self) -> str:
        return self.label()


def multiply_words(a: PauliWord, b: PauliWord) -> tuple[complex, PauliWord]:
    """Product a*b as (phase, word) with phase in {1, i, -1, -i}.

    With Y = i X Z on every qubit a word is i^(#Y) X^x Z^z, so moving b's
    X block past a's Z block and regrouping gives the power of i below.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    x, z = a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask
    exp = (
        (a.x_mask & a.z_mask).bit_count() + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count() - (x & z).bit_count()
    )
    return _I_POWERS[exp % 4], PauliWord(a.n_qubits, x, z)


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the dense commutator [a, b] is the zero matrix.

    Two words commute exactly when the number of positions carrying
    distinct non-identity factors is even.
    """
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    parity = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return parity % 2 == 0


def qwc_commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff on every shared qubit the factors are equal or one is identity."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    shared = (a.x_mask | a.z_mask) & (b.x_mask | b.z_mask)
    differs = (a.x_mask ^ b.x_mask) | (a.z_mask ^ b.z_mask)
    return shared & differs == 0


def _word_action(n: int, x_mask: int, z_mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Destination index and phase-times-sign factor of each basis index.

    With Y = i X Z the word is i^(#Y) X^x Z^z, so it sends basis index i
    to ``dest[i] = i ^ x`` with the factor ``i^(#Y) (-1)^popcount(i & z)``.
    Both arrays are read-only.
    """
    idx = np.arange(1 << n, dtype=np.int64)
    phase = _I_POWERS[(x_mask & z_mask).bit_count() % 4]
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & z_mask) & 1)
    dest, factor = idx ^ x_mask, phase * signs
    dest.flags.writeable = False
    factor.flags.writeable = False
    return dest, factor


@functools.lru_cache(maxsize=256)
def _word_matrix(n: int, x_mask: int, z_mask: int) -> np.ndarray:
    """Dense 2^n matrix of a word, shared between calls and read-only."""
    dest, factor = _word_action(n, x_mask, z_mask)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    out[dest, np.arange(1 << n)] = factor
    out.flags.writeable = False
    return out


@dataclass(frozen=True, slots=True)
class PauliSum:
    """Real linear combination of Pauli words on a common register.

    Instances are treated as immutable; all arithmetic returns new sums.
    Construction canonicalizes: duplicate words merge and coefficients
    with magnitude <= ``COEFF_PRUNE`` are dropped (unless ``prune`` is
    disabled through :meth:`from_terms`).
    """

    n_qubits: int
    terms: dict[PauliWord, float] = field(default_factory=dict)

    @classmethod
    def from_terms(
        cls,
        n_qubits: int,
        terms: Iterable[tuple[PauliWord, float]],
        prune: float | None = COEFF_PRUNE,
    ) -> "PauliSum":
        acc: dict[PauliWord, float] = {}
        for word, coeff in terms:
            if word.n_qubits != n_qubits:
                raise ValueError("word register size differs from sum register")
            acc[word] = acc.get(word, 0.0) + float(coeff)
        if prune is not None:
            acc = {w: c for w, c in acc.items() if abs(c) > prune}
        return cls(n_qubits, acc)

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliSum":
        return cls(n_qubits, {})

    def coefficient(self, word: PauliWord) -> float:
        return self.terms.get(word, 0.0)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_part(self) -> float:
        return self.terms.get(PauliWord.identity(self.n_qubits), 0.0)

    def support(self) -> tuple[int, ...]:
        mask = 0
        for word in self.terms:
            mask |= word.x_mask | word.z_mask
        return _set_bits(mask)

    def sorted_terms(self) -> list[tuple[PauliWord, float]]:
        """Terms in canonical word order (stable across runs)."""
        return sorted(self.terms.items(), key=lambda it: it[0].sort_key())

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return sum(c * c for c in self.terms.values()) ** 0.5

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit count mismatch")
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            acc[word] = acc.get(word, 0.0) + coeff
        return PauliSum(
            self.n_qubits, {w: c for w, c in acc.items() if abs(c) > COEFF_PRUNE}
        )

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "PauliSum":
        scaled = {w: c * factor for w, c in self.terms.items()}
        return PauliSum(
            self.n_qubits, {w: c for w, c in scaled.items() if abs(c) > COEFF_PRUNE}
        )

    def attach(self, qubit: int, axis: str, weight: float = 1.0) -> "PauliSum":
        """Multiply by ``weight * axis_qubit`` when no term touches ``qubit``.

        This is the phase-free product used to re-assemble factored sums;
        it refuses words that already carry a factor on the target qubit.
        """
        return PauliSum.from_terms(
            self.n_qubits,
            ((w.with_axis(qubit, axis), c * weight) for w, c in self.terms.items()),
        )

    def allclose(self, other: "PauliSum", atol: float = 1e-10) -> bool:
        if self.n_qubits != other.n_qubits:
            return False
        for word in self.terms.keys() | other.terms.keys():
            if abs(self.coefficient(word) - other.coefficient(word)) > atol:
                return False
        return True

    def __iter__(self) -> Iterator[tuple[PauliWord, float]]:
        return iter(self.terms.items())

    def __str__(self) -> str:
        parts = [f"{c:+.6g} {w.label()}" for w, c in self.sorted_terms()]
        return "  ".join(parts) if parts else "0"


@dataclass(frozen=True, slots=True)
class SingleQubitOp:
    """A single-qubit operator a*X + b*Y + c*Z."""

    qubit: int
    bloch: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.qubit < 0:
            raise ValueError("qubit index must be non-negative")
        if all(abs(v) < COEFF_PRUNE for v in self.bloch):
            raise ValueError("Bloch vector must be non-zero")
        if math.isinf(self.norm):
            raise ValueError("Bloch vector norm must be finite")

    @property
    def norm(self) -> float:
        a, b, c = self.bloch
        return (a * a + b * b + c * c) ** 0.5

    def unit(self) -> "SingleQubitOp":
        """The same direction with unit Bloch vector."""
        r = self.norm
        a, b, c = self.bloch
        return SingleQubitOp(self.qubit, (a / r, b / r, c / r))
