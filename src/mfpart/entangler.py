"""Subset symmetries and the unitaries that disentangle them.

When a fragment gets stuck with no factorable qubit, a k-qubit operator
commuting with it can still rescue single-qubit measurability: rotating
into a basis adapted to that operator localizes the commuting structure
onto individual qubits.  This module finds such operators (nullspace of
the commutator map over all non-identity subset words, the one map that
:func:`commutator_norm` also applies), decides in one pass over the
operator's eigenspaces whether the rotation can work and builds it (the
degenerate-block factorability check), and offers two kinds of unitary:

* :func:`build_unentangler`, the eigenbasis form.  Columns are a common
  eigenbasis of the operator and of the reduced blocks inside degenerate
  eigenspaces; conjugation makes every subset qubit carry only Z factors.
* :func:`build_clifford_unentangler`, for symmetries that are a single
  Pauli word.  A quarter-turn-family rotation maps the word onto one
  qubit's axis, preserving Pauli-word structure branch by branch.  The
  partitioner gives a single-word symmetry this form only, and a mixed
  one the eigenbasis form.

The commutator map is read from one structural table per subset size
(:func:`_commuting_words`): for each pair of k-qubit words, whether they
anticommute, and the pattern and sign of their product.  Most stuck
pairs have no commuting operator, and :func:`_no_commuting_word`
settles many of them before the map and its SVD are built.  Write h as
sum_r r (x) B_r over factors r outside the subset.  A block that is one
word, c * p, maps every subset word that anticommutes with p onto rows of
its own, scaled by 2|c|.  When every subset word anticommutes with some
such p whose 2|c| is at least twice the largest tolerance the SVD could
use, every singular value of the map exceeds that tolerance twice over,
so the SVD would find no nullspace either: the screen returns no
operators only where the SVD would, and cannot change a verdict.

A word's subset factor is its local masks (subset[0] as bit 0, read
through :func:`_local_bits`); its dense matrix, trace pattern and
commutation come from :mod:`mfpart.pauli`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .meanfield import _l_values, _sign_fix
from .pauli import PauliSum, PauliWord, _word_action, _word_matrix, commutes, multiply_words

__all__ = [
    "MAX_SUBSET_SIZE",
    "KQubitOp",
    "SpectrumReport",
    "EntanglerSpec",
    "FactorabilityVerdict",
    "op_spectrum",
    "commutator_norm",
    "find_commuting_ops",
    "factorability_check",
    "build_unentangler",
    "build_clifford_unentangler",
    "apply_unitary",
]

MAX_SUBSET_SIZE = 2

_NULLSPACE_TOL_SCALE = 1e-8
_BLOCK_TOL = 1e-9

@functools.lru_cache(maxsize=1024)
def _subset_words(n_qubits: int, subset: tuple[int, ...]) -> tuple[PauliWord, ...]:
    """All 4^k - 1 non-identity words supported on the subset."""
    words = []
    for axes in itertools.product("IXYZ", repeat=len(subset)):
        if all(a == "I" for a in axes):
            continue
        assignment = {q: a for q, a in zip(subset, axes) if a != "I"}
        words.append(PauliWord.from_axes(n_qubits, assignment))
    return tuple(words)


@functools.lru_cache(maxsize=8)
def _commuting_words(k: int) -> tuple[tuple[int, tuple[tuple[int, float] | None, ...]], ...]:
    """How each k-qubit word meets each other, both as patterns (x << k) | z.

    Entry t is ``(commuting, products)``.  Bit p of ``commuting`` is set
    when word p commutes with word t (bit 0, the identity, always is);
    ``products[p]`` is None for those and ``(q, s)`` for the others: word t
    times word p is s * i times word q, with s = 1.0 or -1.0.
    """
    low = (1 << k) - 1
    words = [PauliWord(k, p >> k, p & low) for p in range(4**k)]
    table = []
    for term in words:
        commuting, products = 0, []
        for p, word in enumerate(words):
            if commutes(term, word):
                commuting |= 1 << p
                products.append(None)
            else:
                phase, product = multiply_words(term, word)
                products.append(((product.x_mask << k) | product.z_mask, phase.imag))
        table.append((commuting, tuple(products)))
    return tuple(table)


@functools.lru_cache(maxsize=8)
def _trace_pattern(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each k-qubit basis word (identity first) has its one nonzero per row.

    Row j of basis word b holds ``phase[b, j]`` in column ``column[b, j]``,
    so trace(b @ m) is the sum over j of phase[b, j] * m[column[b, j], j].
    """
    words = (PauliWord.identity(k),) + _subset_words(k, tuple(range(k)))
    actions = [_word_action(k, w.x_mask, w.z_mask) for w in words]
    column = np.array([dest for dest, _ in actions])
    phase = np.array([factor[dest] for dest, factor in actions])
    column.flags.writeable = False
    phase.flags.writeable = False
    return column, phase


def _local_bits(subset: tuple[int, ...]) -> tuple[int, dict[int, int]]:
    """The subset's register mask, and each set of its bits as local bits (subset[0] as bit 0).

    A word's subset factor has the local masks ``local[x_mask & inside]``
    and ``local[z_mask & inside]``: ``_word_matrix(k, x, z)`` of them is its
    dense matrix and ``(x << k) | z`` its k-qubit pattern.
    """
    local = {0: 0}
    for i, q in enumerate(subset):
        local.update([(mask | 1 << q, bits | 1 << i) for mask, bits in local.items()])
    return sum(1 << q for q in subset), local


def _check_subset(n_qubits: int, subset: tuple[int, ...]):
    """Raise ValueError unless the subset is strictly increasing and inside the register."""
    if not subset or list(subset) != sorted(set(subset)):
        raise ValueError("subset must be non-empty, strictly increasing")
    if any(not 0 <= q < n_qubits for q in subset):
        raise ValueError("subset qubit out of range")


def _check_word(word: PauliWord, subset: tuple[int, ...]):
    """Raise ValueError unless the word is a non-identity word on the subset."""
    if word.is_identity or not set(word.support()) <= set(subset):
        raise ValueError(f"word {word.label()} not supported on the subset")


@dataclass(frozen=True, slots=True)
class KQubitOp:
    """Hermitian operator on a small qubit subset, as real word coefficients."""

    n_qubits: int
    subset: tuple[int, ...]
    coefficients: Mapping[PauliWord, float]

    def __post_init__(self):
        _check_subset(self.n_qubits, self.subset)
        for word in self.coefficients:
            _check_word(word, self.subset)
        if not any(abs(c) > 1e-12 for c in self.coefficients.values()):
            raise ValueError("operator has no coefficient above tolerance")

    def dense(self) -> np.ndarray:
        k = len(self.subset)
        inside, local = _local_bits(self.subset)
        out = np.zeros((1 << k, 1 << k), dtype=complex)
        for word, coeff in self.coefficients.items():
            out += coeff * _word_matrix(k, local[word.x_mask & inside], local[word.z_mask & inside])
        return out

    def dominant_word(self) -> PauliWord | None:
        """The single word this operator consists of, or None if it mixes."""
        ranked = sorted(self.coefficients.items(), key=lambda kv: -abs(kv[1]))
        top_word, top = ranked[0]
        if any(abs(c) > 1e-8 * abs(top) for _, c in ranked[1:]):
            return None
        return top_word


@dataclass(frozen=True)
class SpectrumReport:
    """Eigendecomposition of a subset operator, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        gram = self.eigenvectors.conj().T @ self.eigenvectors
        if not (np.abs(gram - np.eye(len(self.eigenvalues))) <= 1e-10).all():
            raise ValueError("eigenvectors not orthonormal")

    def degenerate_groups(self) -> list[slice]:
        """Index ranges of equal eigenvalues, in stored (descending) order."""
        ev = self.eigenvalues
        tol = 1e-8 * max(1.0, float(np.max(np.abs(ev))) if len(ev) else 1.0)
        groups: list[slice] = []
        start = 0
        for i in range(1, len(ev) + 1):
            if i == len(ev) or abs(ev[i] - ev[start]) > tol:
                groups.append(slice(start, i))
                start = i
        return groups


def op_spectrum(o: KQubitOp) -> SpectrumReport:
    evals, evecs = np.linalg.eigh(o.dense())
    order = np.argsort(evals)[::-1]
    return SpectrumReport(eigenvalues=evals[order], eigenvectors=evecs[:, order])


@dataclass(frozen=True, slots=True)
class EntanglerSpec:
    """A subset unitary together with the commuting operator that produced it.

    Only unitarity and a subset equal to the origin's are enforced here.
    Specs built by :func:`build_unentangler` additionally conjugate their
    origin to an operator diagonal in the computational basis; Clifford
    specs from :func:`build_clifford_unentangler` instead map it to a
    single-qubit word.
    """

    subset: tuple[int, ...]
    unitary: np.ndarray
    origin: KQubitOp

    def __post_init__(self):
        dim = 1 << len(self.subset)
        u = self.unitary
        if u.shape != (dim, dim):
            raise ValueError(f"unitary shape {u.shape} does not match subset")
        # No unitary has an entry past 1 + 1e-10, and a larger one could overflow u†u.
        if not ((np.abs(u) <= 1 + 1e-10).all()
                and (np.abs(u.conj().T @ u - np.eye(dim)) <= 1e-10).all()):
            raise ValueError("matrix is not unitary")
        if tuple(self.subset) != tuple(self.origin.subset):
            raise ValueError("spec subset differs from its origin's")


@dataclass(frozen=True)
class FactorabilityVerdict:
    """Outcome of the degenerate-eigenspace block analysis.

    A passing verdict carries the eigenbasis-form ``unitary`` the same
    pass built; it takes no part in comparisons.  A failing one names the
    first ``eigenspace`` (a degenerate group index) whose blocks do not
    factor and the ``residual`` that decided it.
    """

    status: str  # nondegenerate_ok | degenerate_ok | fails
    eigenspace: int | None = None
    residual: float | None = None
    unitary: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status != "fails"


def _commutator_matrix(
    h: PauliSum, subset: tuple[int, ...], words: tuple[PauliWord, ...]
) -> np.ndarray:
    """Real form of the map from subset word coefficients to [h, o] coefficients.

    Column j belongs to ``words[j]``; row r holds the real part and row
    r + rows the imaginary part of the r-th product word, numbered by
    first appearance with the subset word as the outer loop and h's terms
    as the inner one.  Subset words act only on subset bits, so whether a
    term anticommutes with a word, and the subset pattern and sign of
    their product, come from the k-qubit table of :func:`_commuting_words`,
    and a product word is identified by the term's part outside the
    subset plus that pattern.  The products of anticommuting Hermitian
    words are +i or -i times a word, so the real half is zero.
    """
    k = len(subset)
    table = _commuting_words(k)
    inside, local = _local_bits(subset)
    outside = ~inside
    rest_ids: dict[tuple[int, int], int] = {}
    terms = []
    for word, coeff in h.terms.items():
        x, z = word.x_mask, word.z_mask
        rest = rest_ids.setdefault((x & outside, z & outside), len(rest_ids))
        products = table[(local[x & inside] << k) | local[z & inside]][1]
        terms.append((products, rest << 2 * k, 2.0 * coeff))
    row_of: dict[int, int] = {}
    rows, cols, values = [], [], []
    for j, w in enumerate(words):
        pattern = (local[w.x_mask & inside] << k) | local[w.z_mask & inside]
        for products, rest, coeff in terms:
            product = products[pattern]
            if product is not None:
                rows.append(row_of.setdefault(rest | product[0], len(row_of)))
                cols.append(j)
                values.append(coeff * product[1])
    n_rows = len(row_of)
    stacked = np.zeros((2 * n_rows, len(words)))
    if rows:
        # The real half stays +0.0, and adding onto zeros (rather than
        # assigning) keeps a zero coefficient's entry +0.0 too: the
        # singular vectors depend on the signed zeros.
        stacked[n_rows:][rows, cols] += values
    return stacked


def _no_commuting_word(h: PauliSum, subset: tuple[int, ...]) -> bool:
    """Whether h's single-word blocks alone rule out every subset operator.

    The largest singular value of the map is at most its Frobenius norm,
    (2 * 4^k * sum c^2)^(1/2) over the terms touching the subset.  Blocks
    c * p whose 2|c| is twice the nullspace tolerance at that bound vote.
    A voter's rows carry 2|c| times the weight of every word anticommuting
    with p, and no other block's rows.  So when no subset word commutes
    with every voter, each unit coefficient vector maps to a norm of at
    least the smallest voting 2|c|, and the SVD in
    :func:`find_commuting_ops` would find no null vector.
    """
    k = len(subset)
    inside, local = _local_bits(subset)
    outside = ~inside
    blocks: dict[tuple[int, int], tuple[PauliWord, float] | None] = {}
    squares = 0.0
    for word, coeff in h.terms.items():
        if not (word.x_mask | word.z_mask) & inside:
            continue  # a multiple of the identity on the subset commutes with all
        squares += coeff * coeff
        key = (word.x_mask & outside, word.z_mask & outside)
        blocks[key] = None if key in blocks else (word, coeff)
    floor = 2 * _NULLSPACE_TOL_SCALE * max(1.0, (2 * 4**k * squares) ** 0.5)
    table = _commuting_words(k)
    left = (1 << 4**k) - 2  # every word pattern but the identity's
    for single in blocks.values():
        if single is not None and 2 * abs(single[1]) > floor:
            word = single[0]
            left &= table[(local[word.x_mask & inside] << k) | local[word.z_mask & inside]][0]
            if not left:
                return True
    return False


def commutator_norm(h: PauliSum, o: KQubitOp) -> float:
    """Coefficient two-norm of [h, o], from :func:`_commutator_matrix` over o's own words."""
    if o.n_qubits != h.n_qubits:
        raise ValueError("qubit count mismatch")
    coeffs = np.array(list(o.coefficients.values()), dtype=float)
    return float(np.linalg.norm(_commutator_matrix(h, o.subset, tuple(o.coefficients)) @ coeffs))


def find_commuting_ops(h: PauliSum, subset: tuple[int, ...]) -> list[KQubitOp]:
    """Basis of subset operators commuting with h.

    Builds the linear map from word coefficients to commutator
    coefficients, one entry per anticommuting (subset word, term) pair
    read from the k-qubit word table of :func:`_commuting_words`, and
    returns sign-fixed unit vectors spanning its nullspace (singular
    values at or below 1e-8 relative to the largest).  Every entry of the
    map is exact, and its zeros are +0.0 throughout: a -0.0 entry leaves
    the nullspace the same but can move the singular vectors LAPACK
    returns by an ulp, and with them the chosen operators.

    When h's single-word blocks already rule out every subset word
    (:func:`_no_commuting_word`), the map is not built.
    """
    subset = tuple(subset)
    if len(subset) > MAX_SUBSET_SIZE:
        raise ValueError(f"subset of {len(subset)} qubits exceeds the maximum of {MAX_SUBSET_SIZE}")
    _check_subset(h.n_qubits, subset)

    if _no_commuting_word(h, subset):
        return []
    words = _subset_words(h.n_qubits, subset)
    stacked = _commutator_matrix(h, subset, words)
    if len(stacked):
        # A term that touches the subset anticommutes with half of the 4^k
        # subset Paulis, so the map has at least 2 * 4^k / 2 rows, more than
        # its 4^k - 1 columns: the thin SVD has every right singular vector.
        _, sing, vt = np.linalg.svd(stacked, full_matrices=False)
        tol = _NULLSPACE_TOL_SCALE * max(1.0, float(sing[0]))
        rank = int(np.sum(sing > tol))
        null_vectors = [vt[r] for r in range(rank, len(words))]
    else:
        null_vectors = [np.eye(len(words))[r] for r in range(len(words))]

    ops = []
    for vec in null_vectors:
        vec = _sign_fix(vec)
        coeffs = {w: float(c) for w, c in zip(words, vec) if abs(c) > 1e-12}
        ops.append(KQubitOp(h.n_qubits, subset, coeffs))
    return ops


def _rest_blocks(h: PauliSum, subset: tuple[int, ...]) -> list[np.ndarray]:
    """h = sum_r r (x) block_r over its factors r outside the subset, in r's sort order."""
    k = len(subset)
    inside, local = _local_bits(subset)
    outside = ~inside
    blocks: dict[tuple[int, int, int], np.ndarray] = {}
    for word, coeff in h.terms.items():
        x, z = word.x_mask & outside, word.z_mask & outside
        key = (x | z, x, z)  # the sort key of the outside factor
        if key not in blocks:
            blocks[key] = np.zeros((1 << k, 1 << k), dtype=complex)
        blocks[key] += coeff * _word_matrix(
            k, local[word.x_mask & inside], local[word.z_mask & inside]
        )
    return [blocks[r] for r in sorted(blocks)]


def _computational_label(column: np.ndarray) -> int:
    mags = np.abs(column)
    best = float(np.max(mags))
    return int(np.flatnonzero(mags >= best - 1e-12)[0])


def _phase_fix(column: np.ndarray) -> np.ndarray:
    """A unit column on k qubits, its largest entry (at least 2^(-k/2)) made real and positive."""
    pivot = column[_computational_label(column)]
    return column * (abs(pivot) / pivot)


def factorability_check(h: PauliSum, o: KQubitOp) -> FactorabilityVerdict:
    """Can conjugation into o's (refined) eigenbasis give product eigenstates?

    Within each degenerate eigenspace of o, the matrix of h-blocks between
    eigenvectors must either be already diagonal or factor as a constant
    numeric matrix times one common outside-the-subset operator; only then
    does a single basis rotation serve every block.  Nondegenerate spectra
    and sums supported entirely on the subset pass unconditionally.

    The same pass builds the unitary a passing verdict carries: o's
    eigenvectors by descending eigenvalue, a degenerate eigenspace refined
    by the eigenvectors of its largest reduced block when some block is
    off-diagonal there, each eigenspace ordered by computational label.
    """
    o_norm = sum(c * c for c in o.coefficients.values()) ** 0.5
    if commutator_norm(h, o) > _BLOCK_TOL * max(1.0, h.norm() * o_norm):
        raise ValueError("operator does not commute with the Hamiltonian")

    report = op_spectrum(o)
    groups = report.degenerate_groups()
    check = not set(h.support()) <= set(o.subset)
    blocks = None
    columns: list[np.ndarray] = []
    for gi, g in enumerate(groups):
        basis = report.eigenvectors[:, g]
        d = g.stop - g.start
        if d > 1:
            if blocks is None:
                blocks = _rest_blocks(h, o.subset)
            per_word = [basis.conj().T @ b @ basis for b in blocks]
            if check:
                entries = np.stack([b.reshape(-1) for b in per_word], axis=1)
                off_mask = ~np.eye(d, dtype=bool).reshape(-1)
                if float(np.linalg.norm(entries[off_mask])) > _BLOCK_TOL:
                    sing = np.linalg.svd(entries, compute_uv=False)
                    if len(sing) >= 2 and sing[1] > _BLOCK_TOL * max(sing[0], 1.0):
                        return FactorabilityVerdict(
                            status="fails", eigenspace=gi, residual=float(sing[1])
                        )
            off = [np.linalg.norm(b - np.diag(np.diag(b))) for b in per_word]
            if max(off) > _BLOCK_TOL:
                rep = per_word[int(np.argmax([np.linalg.norm(b) for b in per_word]))]
                _, w = np.linalg.eigh(rep)
                basis = basis @ w
        cols = [_phase_fix(basis[:, i]) for i in range(d)]
        cols.sort(key=_computational_label)
        columns.extend(cols)
    # The blocks are built at the first degenerate eigenspace.
    status = "degenerate_ok" if blocks is not None else "nondegenerate_ok"
    return FactorabilityVerdict(status=status, unitary=np.column_stack(columns))


def build_unentangler(h: PauliSum, o: KQubitOp) -> EntanglerSpec:
    """Eigenbasis-form unitary: U columns diagonalize o and its blocks.

    Conjugating h by the result leaves only Z factors on the subset, so
    each subset qubit factors out (l = 2 or absent).  The unitary is the
    one :func:`factorability_check` builds; a failing verdict raises
    ValueError, and a transform that leaves a subset qubit at l < 2
    raises RuntimeError.
    """
    verdict = factorability_check(h, o)
    if not verdict.ok:
        raise ValueError(
            f"not factorable: eigenspace {verdict.eigenspace} has off-diagonal "
            f"residual {verdict.residual:g}"
        )
    spec = EntanglerSpec(subset=o.subset, unitary=verdict.unitary, origin=o)
    for q, l in _l_values(apply_unitary(h, spec), o.subset).items():
        if l < 2:
            raise RuntimeError(f"transform left qubit {q} non-factorable")
    return spec


def build_clifford_unentangler(o: KQubitOp) -> EntanglerSpec:
    """Word-symmetry rotation: maps a single-word operator onto one qubit.

    The generator is the origin word with its factor on the highest
    support qubit b swapped to a different axis; a three-quarter turn
    about it sends the origin to a Pauli on b while keeping every Pauli
    word a Pauli word.  The eigenbasis form also sends the word to a
    Pauli on b, so the two rotated sums differ by a rotation of the other
    qubits that depends on b.  Once b is measured, each branch has the
    same Gram spectra under both forms, and since ``l`` never drops under
    reduction the eigenbasis sum certifies only where this one does: the
    partitioner builds only this form for a single-word operator.
    """
    word = o.dominant_word()
    if word is None:
        raise ValueError("Clifford construction needs a single-word operator")
    target = max(word.support())
    axis = word.axis(target)
    swap = "X" if axis != "X" else "Y"
    generator = word.drop_qubit(target).with_axis(target, swap)
    inside, local = _local_bits(o.subset)
    dense_g = _word_matrix(
        len(o.subset), local[generator.x_mask & inside], local[generator.z_mask & inside]
    )
    dim = dense_g.shape[0]
    theta = 3.0 * np.pi / 4.0
    unitary = np.cos(theta) * np.eye(dim) - 1j * np.sin(theta) * dense_g
    return EntanglerSpec(subset=o.subset, unitary=unitary, origin=o)


def apply_unitary(h: PauliSum, spec: EntanglerSpec) -> PauliSum:
    """Conjugate h by the spec's unitary and re-expand in the word basis.

    Each distinct subset factor is conjugated once and resolved into
    subset words by trace inner products; coefficients stay real because
    the conjugated factors are Hermitian.  Results are pruned at 1e-10.
    """
    subset = tuple(spec.subset)
    if any(not 0 <= q < h.n_qubits for q in subset):
        raise ValueError("spec subset outside the Hamiltonian register")
    u = spec.unitary
    u_dagger = u.conj().T
    dim = 1 << len(subset)
    basis = (PauliWord.identity(h.n_qubits),) + _subset_words(h.n_qubits, subset)
    column, phase = _trace_pattern(len(subset))
    diagonal = np.arange(dim)
    inside, local = _local_bits(subset)
    outside = ~inside

    # Per distinct subset factor, the (x, z, weight) of each basis word it
    # resolves into; per output word, the sum of its contributions in term
    # order, so every coefficient adds up as from_terms would add it.
    expansion_cache: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
    acc: dict[tuple[int, int], float] = {}
    for word, coeff in h.terms.items():
        key = (local[word.x_mask & inside], local[word.z_mask & inside])
        expansion = expansion_cache.get(key)
        if expansion is None:
            m = u_dagger @ _word_matrix(len(subset), *key) @ u
            # Re trace(b @ m) / dim for every basis word b at once; the
            # complex row sum adds the diagonal up the way a trace does.
            traces = (phase * m[column, diagonal]).sum(axis=1)
            expansion = expansion_cache[key] = [
                (bw.x_mask, bw.z_mask, w)
                for bw, w in zip(basis, (traces.real / dim).tolist())
                if abs(w) >= 1e-14
            ]
        x, z = word.x_mask & outside, word.z_mask & outside
        for bx, bz, w in expansion:
            out = (x | bx, z | bz)
            acc[out] = acc.get(out, 0.0) + coeff * w
    return PauliSum(
        h.n_qubits,
        {PauliWord(h.n_qubits, x, z): c for (x, z), c in acc.items() if abs(c) > 1e-10},
    )
