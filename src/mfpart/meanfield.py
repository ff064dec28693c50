"""Mean-field analysis of Pauli sums through per-qubit complement Gram matrices.

A sum H is mean-field measurable when it can be read out one qubit at a
time: there is an ordering of its support in which each qubit carries a
single-qubit operator commuting with the current (outcome-dependent)
reduced Hamiltonian, so a projective measurement of that operator
collapses the register without disturbing the remaining statistics.

The central quantity is the per-qubit kernel dimension ``l``:

* write H = h_x X_k + h_y Y_k + h_z Z_k + h_e with the h's free of qubit k;
* stack the three coefficient vectors over the union of their words into
  an M-by-3 matrix A and form the 3-by-3 Gram matrix S = A^T A;
* ``l`` is the number of Gram eigenvalues at or below the kernel tolerance.

``l = 2`` means the three complement operators are collinear, so qubit k
factors out exactly; ``l = 1`` means they span a plane and H splits into
two factorable parts; ``l = 0`` leaves only the three-way axis split.
A qubit outside the support reports ``l = 3``.

One core, on sums held as mask-keyed dicts ``{(x_mask, z_mask): coeff}``,
makes every ``l`` decision and reduction: :func:`_branch_gram` (through
:func:`_gram_spectrum`, the one eigendecomposition) and
:func:`_reduce_branch`, walked by :func:`verify_mf`, :func:`_l_values` and
:func:`_stuck_support`.  :func:`compute_l` (the full :class:`GramData`
for the factorizations) and :func:`reduce_qubit` are thin wrappers.

A certificate's table steps and terminal values are :class:`BranchTable`
mappings: one depth's 2^d values held in outcome-bit order, with prefix
keys produced on demand, so no key is stored per outcome prefix.

A branch and its negation form one sign class (:func:`_sign_class`):
negation keeps every square and pairwise product, hence every ``l``, op
and commute verdict, and negates every reduction bit for bit, so
:func:`verify_mf` and :func:`mfpart.partition.validate_plan` decide each
class once.

Before that eigendecomposition, :func:`_branch_gram` screens the Gram
matrix by its trace, second invariant and determinant (:func:`_settled_l`).
The screen answers only ``l = 0`` or ``l = 1``, and only when these put the
two smaller eigenvalues a factor 2 plus a rounding bound, which covers the
gap to what ``eigh`` computes, away from the kernel tolerance; so it cannot
give another ``l``.  Every other case, and every ``l = 2`` eigenvector,
still comes from :func:`_gram_spectrum`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .pauli import COEFF_PRUNE, PauliSum, PauliWord, SingleQubitOp, _set_bits

__all__ = [
    "GRAM_TOL_SCALE",
    "ComplementDecomposition",
    "GramData",
    "decompose_by_qubit",
    "compute_l",
    "factor_l2",
    "factor_l1",
    "reduce_qubit",
    "UniformBranchOps",
    "BranchTable",
    "ProductTerminalMap",
    "ReductionStep",
    "MFCertificate",
    "verify_mf",
]

#: Scale of the one kernel tolerance; :func:`_kernel_tol` reads it at call time.
GRAM_TOL_SCALE = 1e-8

#: Live-branch cap for the exhaustive chain search in verify_mf.
MAX_BRANCHES = 1 << 16

_UNIT_ROUNDOFF = 2.0 ** -53

#: The problem with a sum whose Gram sums would overflow.
_OVERFLOW = "coefficients are too large: the sum of their squares is not finite"

_AXIS_BLOCH = {
    "X": (1.0, 0.0, 0.0),
    "Y": (0.0, 1.0, 0.0),
    "Z": (0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class ComplementDecomposition:
    """H = h_x X_k + h_y Y_k + h_z Z_k + h_e with all parts free of qubit k."""

    qubit: int
    h_x: PauliSum
    h_y: PauliSum
    h_z: PauliSum
    h_e: PauliSum

    def axis_parts(self) -> tuple[PauliSum, PauliSum, PauliSum]:
        return (self.h_x, self.h_y, self.h_z)


@dataclass(frozen=True)
class GramData:
    """Gram analysis of one qubit's complement operators.

    Eigenvalues are sorted descending; eigenvector columns match that
    order and are sign-fixed so the largest-magnitude component is
    positive.  ``l`` counts eigenvalues at or below
    ``GRAM_TOL_SCALE``·max(1, trace).
    """

    qubit: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    l: int


def decompose_by_qubit(h: PauliSum, qubit: int) -> ComplementDecomposition:
    """Split a sum by the factor carried on one qubit."""
    if not 0 <= qubit < h.n_qubits:
        raise ValueError(f"qubit {qubit} outside register of {h.n_qubits}")
    parts: dict[str, list[tuple[PauliWord, float]]] = {a: [] for a in "XYZI"}
    for word, coeff in h.terms.items():
        parts[word.axis(qubit)].append((word.drop_qubit(qubit), coeff))
    h_x, h_y, h_z, h_e = (PauliSum.from_terms(h.n_qubits, parts[a], prune=None) for a in "XYZI")
    return ComplementDecomposition(qubit, h_x, h_y, h_z, h_e)


def _kernel_tol(trace: float) -> float:
    """The kernel tolerance of a Gram matrix of this trace: GRAM_TOL_SCALE * max(1, trace)."""
    return GRAM_TOL_SCALE * max(1.0, trace)


def _op_key(qubit: int, bloch: Iterable[float]) -> tuple[int, bytes]:
    """Key of an op shared by qubit and Bloch bit pattern, so 0.0 and -0.0 never merge."""
    return qubit, struct.pack("3d", *bloch)


def _sign_fix(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _gram_spectrum(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Spectrum and l of the Gram matrix of an M-by-3 complement matrix.

    Eigenvalues descending; only the leading eigenvector is sign-fixed.
    """
    gram = a.T @ a
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    evecs[:, 0] = _sign_fix(evecs[:, 0])
    return evals, evecs, int((evals <= _kernel_tol(float(gram.trace()))).sum())


def compute_l(dec: ComplementDecomposition) -> GramData:
    """Gram spectrum and kernel dimension for one qubit at ``GRAM_TOL_SCALE``.

    Raises ValueError when the squared complement coefficients do not
    sum to a finite number.
    """
    if not math.isfinite(sum(c * c for part in dec.axis_parts() for c in part.terms.values())):
        raise ValueError(_OVERFLOW)
    rows: dict[PauliWord, list[float]] = {}
    for col, part in enumerate(dec.axis_parts()):
        for word, coeff in part.terms.items():
            rows.setdefault(word, [0.0, 0.0, 0.0])[col] = coeff
    a = np.array([rows[w] for w in sorted(rows, key=lambda w: w.sort_key())]).reshape(-1, 3)
    evals, evecs, l = _gram_spectrum(a)
    for col in (1, 2):
        evecs[:, col] = _sign_fix(evecs[:, col])
    return GramData(qubit=dec.qubit, eigenvalues=evals, eigenvectors=evecs, l=l)


def _factor(
    dec: ComplementDecomposition, gram: GramData, col: int
) -> tuple[SingleQubitOp, PauliSum]:
    """The op along one Gram eigenvector v and its complement sum_s v_s * h_s."""
    v = gram.eigenvectors[:, col]
    acc = PauliSum.zero(dec.h_e.n_qubits)
    for weight, part in zip(v, dec.axis_parts()):
        if abs(weight) > 0.0:
            acc = acc + part.scale(float(weight))
    return SingleQubitOp(gram.qubit, (float(v[0]), float(v[1]), float(v[2]))), acc


def factor_l2(
    h: PauliSum, gram: GramData
) -> tuple[SingleQubitOp, PauliSum, PauliSum]:
    """Exact factorization H = complement * op + h_e at an l = 2 qubit.

    The op's Bloch vector is the single non-kernel Gram eigenvector, so
    [H, op] = 0: the squared commutator norm equals four times the sum of
    the kernel eigenvalues, which the l = 2 verdict bounds by the kernel
    tolerance.
    """
    if gram.l != 2:
        raise ValueError(f"qubit {gram.qubit} has l={gram.l}, need l=2")
    dec = decompose_by_qubit(h, gram.qubit)
    op, complement = _factor(dec, gram, 0)
    return op, complement, dec.h_e


def factor_l1(
    h: PauliSum, gram: GramData
) -> tuple[SingleQubitOp, PauliSum, SingleQubitOp, PauliSum, PauliSum]:
    """Two-way split H = c1 * op1 + c2 * op2 + h_e at an l = 1 qubit.

    op1 belongs to the larger non-kernel eigenvalue.  Both parts are
    individually factorable at this qubit.
    """
    if gram.l != 1:
        raise ValueError(f"qubit {gram.qubit} has l={gram.l}, need l=1")
    dec = decompose_by_qubit(h, gram.qubit)
    (op1, c1), (op2, c2) = _factor(dec, gram, 0), _factor(dec, gram, 1)
    return op1, c1, op2, c2, dec.h_e


def reduce_qubit(h: PauliSum, op: SingleQubitOp, outcome: int) -> PauliSum:
    """Expectation of H in the ``outcome`` eigenstate of a single-qubit op.

    Each word's factor on the op's qubit is replaced by ``outcome`` times
    the matching component of the unit Bloch vector; the result no longer
    touches that qubit.  The op's overall scale does not affect its
    eigenstates and is ignored.
    """
    if outcome not in (1, -1):
        raise ValueError("outcome must be +1 or -1")
    n = h.n_qubits
    reduced = _reduce_branch(_branch_of(h), op.qubit, _reduction_weights(op), outcome)
    return PauliSum(n, {PauliWord(n, x, z): c for (x, z), c in reduced.items()})


def _reduction_weights(op: SingleQubitOp) -> tuple[float, float, float, float]:
    """Unit Bloch components keyed by the axis bit pattern x + 2z."""
    r = op.norm
    bx, by, bz = op.bloch
    return (0.0, bx / r, bz / r, by / r)


@functools.cache
def _prefix_index(depth: int) -> dict[tuple[int, ...], int]:
    """Bit index of every outcome prefix of one depth, in bit order; shared by all tables."""
    return {prefix: b for b, prefix in enumerate(itertools.product((1, -1), repeat=depth))}


def _bit(d: int, depth: int) -> int:
    """The bit of a branch index that is set when step d of ``depth`` steps reads -1."""
    return 1 << (depth - 1 - d)


class _PrefixTable(Mapping):
    """A Mapping keyed by the 2^depth outcome prefixes of one chain depth, sized from it.

    Keys come lazily in bit order, that of ``itertools.product((1, -1),
    repeat=depth)``: prefix b reads -1 at step d when ``_bit(d, depth)`` is set in b.
    """

    __slots__ = ("_depth",)

    def _check(self, prefix: tuple[int, ...]) -> None:
        if (
            not isinstance(prefix, tuple)
            or len(prefix) != self._depth
            or any(s not in (1, -1) for s in prefix)
        ):
            raise KeyError(prefix)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(itertools.product((1, -1), repeat=self._depth))

    def __len__(self) -> int:
        return 1 << self._depth

    @property
    def depth(self) -> int:
        return self._depth


class UniformBranchOps(_PrefixTable):
    """Branch-op mapping that returns the same operator for every prefix."""

    __slots__ = ("_op",)

    def __init__(self, depth: int, op: SingleQubitOp):
        self._depth = depth
        self._op = op

    def __getitem__(self, prefix: tuple[int, ...]) -> SingleQubitOp:
        self._check(prefix)
        return self._op

    @property
    def op(self) -> SingleQubitOp:
        return self._op


class BranchTable(_PrefixTable):
    """One chain depth's values, held as a tuple in outcome-bit order.

    Entry b belongs to prefix b in :class:`_PrefixTable` order; the
    children of entry b are 2b (+1) and 2b+1 (-1).  Prefix keys come from
    one index per depth shared by every table, so a table stores only its
    values: ``values()`` is that tuple, and ``items()`` zips it with the
    keys.
    """

    __slots__ = ("_values", "_index")

    def __init__(self, depth: int, values: Iterable):
        values = tuple(values)
        if len(values) != 1 << depth:
            raise ValueError(
                f"a table of depth {depth} holds {1 << depth} values, not {len(values)}"
            )
        self._depth = depth
        self._values = values
        self._index = _prefix_index(depth)

    def __getitem__(self, prefix: tuple[int, ...]):
        try:
            return self._values[self._index[prefix]]
        except (KeyError, TypeError):
            raise KeyError(prefix) from None

    def values(self) -> tuple:
        return self._values

    def items(self) -> Iterator[tuple[tuple[int, ...], object]]:
        return zip(self._index, self._values)

    def __repr__(self) -> str:
        return f"BranchTable({self._depth}, {list(self._values)!r})"


class ProductTerminalMap(_PrefixTable):
    """Terminal values of an axis-pure chain, computed on demand.

    Every word of an axis-pure sum evaluates on an outcome assignment to
    the product of the outcomes on its support, so storing the word data
    is enough; nothing exponential is materialized until iterated or
    ``values()`` is read.  A product whose positions leave the ``depth``
    steps is refused.
    """

    __slots__ = ("_terms",)

    def __init__(self, depth: int, terms: tuple[tuple[tuple[int, ...], float], ...]):
        if not all(0 <= p < depth for positions, _ in terms for p in positions):
            raise ValueError(f"a product names a step outside the {depth} steps")
        self._depth = depth
        self._terms = terms

    def __getitem__(self, outcomes: tuple[int, ...]) -> float:
        self._check(outcomes)
        total = 0.0
        for positions, coeff in self._terms:
            value = coeff
            for p in positions:
                value *= outcomes[p]
            total += value
        return total

    def values(self) -> np.ndarray:
        """Every value in :class:`BranchTable` bit order, bit for bit: terms add in stored order."""
        m = self._depth
        branches, values = np.arange(1 << m), np.zeros(1 << m)
        for positions, coeff in self._terms:
            mask = functools.reduce(operator.xor, (_bit(p, m) for p in positions), 0)
            values += np.where(np.bitwise_count(branches & mask) & 1, -coeff, coeff)
        return values

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return self._terms


def _read_table(table: Mapping, depth: int, what: str) -> BranchTable:
    """A Mapping keyed by the 2^depth outcome prefixes, read into a BranchTable in bit order."""
    # Checked first, so no prefix is listed for a table of another size; the
    # table types are sized from their depth, as len() overflows past 62.
    size = 1 << table.depth if isinstance(table, _PrefixTable) else len(table)
    if size != 1 << depth:
        raise ValueError(f"{what} must list the {1 << depth} outcome prefixes, not {size}")
    try:
        return BranchTable(depth, [table[prefix] for prefix in _prefix_index(depth)])
    except KeyError as exc:
        raise ValueError(f"{what} must list the prefix {exc.args[0]}") from None


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One chain step: the qubit measured and the op for each outcome prefix.

    ``ops`` is a :class:`UniformBranchOps` when one op serves every prefix,
    and otherwise a :class:`BranchTable`, into which :class:`MFCertificate`
    reads any other Mapping from prefix to op.  The stored op commutes
    with the branch's reduced Hamiltonian; the construction check is the
    Gram kernel bound, which is equivalent to a direct commutator-norm
    bound (see :func:`factor_l2`).
    """

    qubit: int
    ops: Mapping[tuple[int, ...], SingleQubitOp]


@dataclass(frozen=True, slots=True)
class MFCertificate:
    """Witness that a sum is mean-field measurable.

    ``steps`` covers every support qubit in a fixed order shared by all
    outcome branches; ``terminal_values`` maps each full outcome sequence
    to the scalar the chain terminates in: a :class:`ProductTerminalMap`
    for an axis-pure chain, else a :class:`BranchTable` held in
    outcome-bit order.  Construction keeps these tables when their depth
    fits (depth i for step i's ops, one outcome per step for the terminal
    values), reads any other Mapping into a :class:`BranchTable`, and
    raises ValueError for a table that misses or adds a prefix.
    """

    n_qubits: int
    steps: tuple[ReductionStep, ...]
    terminal_values: Mapping[tuple[int, ...], float]

    def __post_init__(self):
        steps = tuple(
            step if isinstance(step.ops, (UniformBranchOps, BranchTable)) and step.ops.depth == i
            else ReductionStep(step.qubit, _read_table(step.ops, i, f"the ops of step {i}"))
            for i, step in enumerate(self.steps)
        )
        tv, m = self.terminal_values, len(steps)
        if not (isinstance(tv, (BranchTable, ProductTerminalMap)) and tv.depth == m):
            tv = _read_table(tv, m, "the terminal values")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "terminal_values", tv)

    @property
    def qubit_order(self) -> tuple[int, ...]:
        return tuple(step.qubit for step in self.steps)

    @property
    def n_branches(self) -> int:
        return 1 << len(self.steps)


def _axis_profile(h: PauliSum) -> dict[int, set[str]] | None:
    """Axis set per support qubit, or None if any qubit mixes axes."""
    axes: dict[int, set[str]] = {}
    for word in h.terms:
        for k in word.support():
            seen = axes.setdefault(k, set())
            seen.add(word.axis(k))
            if len(seen) > 1:
                return None
    return axes


def _made_op(made: dict[tuple[int, bytes], SingleQubitOp], qubit: int, bloch) -> SingleQubitOp:
    """The op of ``made`` with this qubit and Bloch bit pattern, made on first use."""
    op = made.get(key := _op_key(qubit, bloch))
    if op is None:
        op = made[key] = SingleQubitOp(qubit, bloch)
    return op


def _pure_axis_certificate(h: PauliSum, axes: dict[int, set[str]], made: dict) -> MFCertificate:
    order = sorted(axes)
    position = {k: i for i, k in enumerate(order)}
    steps = tuple(
        ReductionStep(k, UniformBranchOps(i, _made_op(made, k, _AXIS_BLOCH[next(iter(axes[k]))])))
        for i, k in enumerate(order)
    )
    terms = tuple(
        (tuple(position[k] for k in word.support()), coeff)
        for word, coeff in h.sorted_terms()
    )
    return MFCertificate(
        n_qubits=h.n_qubits,
        steps=steps,
        terminal_values=ProductTerminalMap(len(order), terms),
    )


def _product_differences(h: PauliSum, cert: MFCertificate) -> dict[tuple[int, ...], float] | None:
    """Terminal error of a certificate of uniform ops and outcome products, per set of steps.

    Under one op per step, each word of h reduces to its coefficient and
    the op weights on its factors times the product of the outcomes at
    its steps.  With every weight +1 or -1, every op commutes with every
    branch sum, and branch s ends off by the sum over step sets S of
    ``d[S] * prod(s[p] for p in S)``.  None when the certificate has
    another form or a weight is not +1 or -1; h's support must lie in
    the chain.
    """
    tv = cert.terminal_values
    if not isinstance(tv, ProductTerminalMap):
        return None
    at: dict[int, tuple[int, tuple[float, float, float, float]]] = {}
    for i, step in enumerate(cert.steps):
        ops = step.ops
        if not isinstance(ops, UniformBranchOps) or ops.op.qubit != step.qubit:
            return None
        at[step.qubit] = (i, _reduction_weights(ops.op))
    diff: dict[tuple[int, ...], float] = {}
    for word, coeff in h.terms.items():
        steps = tuple(sorted(at[k][0] for k in word.support()))
        for k in word.support():
            weight = at[k][1][((word.x_mask >> k) & 1) + 2 * ((word.z_mask >> k) & 1)]
            if abs(weight) != 1.0:
                return None
            coeff *= weight
        diff[steps] = diff.get(steps, 0.0) + coeff
    for positions, coeff in tv.terms:
        # Outcomes square to one, so only odd multiplicities count.
        odd = tuple(sorted(p for p in set(positions) if positions.count(p) % 2))
        diff[odd] = diff.get(odd, 0.0) - coeff
    return diff


# The chain search keeps every outcome branch as a plain mask-keyed dict
# {(x_mask, z_mask): coeff}; words are only materialized at the
# certificate boundary.  Gram column per axis bit pattern x + 2z:
# X -> 0, Z -> 2, Y -> 1.
_COLUMN_BY_BITS = (-1, 0, 2, 1)


def _word_order(key: tuple[int, int]) -> tuple[int, int, int]:
    """Sort key of a mask pair, the order of :meth:`PauliWord.sort_key`."""
    return (key[0] | key[1], key[0], key[1])


def _complement_rows(
    branch: dict[tuple[int, int], float], qubit: int
) -> tuple[dict[tuple[int, int], list[float]], int]:
    """(X, Y, Z) coefficients on one qubit per rest word, and a bit per Gram column seen."""
    rows: dict[tuple[int, int], list[float]] = {}
    seen = 0
    keep = ~(1 << qubit)
    for (x, z), coeff in branch.items():
        sel = ((x >> qubit) & 1) + 2 * ((z >> qubit) & 1)
        if sel == 0:
            continue
        col = _COLUMN_BY_BITS[sel]
        seen |= 1 << col
        dropped = (x & keep, z & keep)
        row = rows.get(dropped)
        if row is None:
            row = [0.0, 0.0, 0.0]
            rows[dropped] = row
        row[col] += coeff
    return rows, seen


def _settled_l(rows: Iterable[list[float]], n_rows: int) -> int | None:
    """``l`` of the rows' Gram matrix when it is surely 0 or 1, else None.

    With eigenvalues l1 >= l2 >= l3 >= 0, trace t, second invariant e2
    (the sum of the principal 2-by-2 minors) and determinant d:

    * l2 <= tau forces e2 = l1 (l2 + l3) + l2 l3 <= 2 tau t + tau^2, so a
      larger e2 puts l2 above tau;
    * l1 l2 is the largest of the three products that make up e2, so
      d / e2 <= l3 <= 3 d / e2.

    The answer is 0 when l3 surely exceeds tau = 2 tol + slack, and 1 when
    l2 does while l3 surely stays below tol / 2 - slack.  ``slack`` bounds
    how far the eigenvalues ``eigh`` computes from ``a.T @ a`` can sit from
    those of the Gram matrix summed here (each of the two roundings of an
    entry over ``n_rows`` rows is at most n_rows * u * t, and eigh's own
    error is a small multiple of u * t); the invariants carry their own
    rounding bounds.  A NaN or an overflow fails every test.
    """
    xx = yy = zz = xy = xz = yz = 0.0
    for x, y, z in rows:
        xx += x * x
        yy += y * y
        zz += z * z
        xy += x * y
        xz += x * z
        yz += y * z
    t = xx + yy + zz
    tol = _kernel_tol(t)
    u = _UNIT_ROUNDOFF
    slack = (8 * n_rows + 64) * u * t
    tau = 2 * tol + slack
    # |s_ij|^2 <= s_ii s_jj bounds each product by t^2 in e2 and by t^3 in d.
    e2 = (xx * yy - xy * xy) + (xx * zz - xz * xz) + (yy * zz - yz * yz)
    e2_err = 16 * u * t * t
    if not e2 - e2_err > 2 * tau * t + tau * tau:
        return None
    d = xx * (yy * zz - yz * yz) - xy * (xy * zz - yz * xz) + xz * (xy * yz - yy * xz)
    d_err = 16 * u * t * t * t
    if d - d_err > tau * (e2 + e2_err):
        return 0
    if 3 * (d + d_err) < (tol / 2 - slack) * (e2 - e2_err):
        return 1
    return None


def _branch_gram(
    branch: dict[tuple[int, int], float], qubit: int
) -> tuple[int, tuple[float, float, float] | None]:
    """Kernel dimension and leading Gram eigenvector for one branch qubit.

    Rows are taken in the word order :func:`compute_l` uses, and a qubit
    carried on a single axis takes a closed-form shortcut whose leading
    eigenvector is an exact axis vector.  :func:`_settled_l` decides the
    clear ``l = 0`` and ``l = 1`` cases without the eigendecomposition.
    The vector is None when ``l < 2``.
    """
    vectors, seen = _complement_rows(branch, qubit)
    if seen == 0:
        return 3, None
    if seen & (seen - 1) == 0:
        # One axis present; the Gram spectrum is (sum of squares, 0, 0).
        col = seen.bit_length() - 1
        order = sorted(vectors, key=_word_order)
        lam = sum(vectors[key][col] ** 2 for key in order)
        if lam <= _kernel_tol(lam):
            return 3, None
        return 2, _AXIS_BLOCH["XYZ"[col]]
    l = _settled_l(vectors.values(), len(vectors))
    if l is not None:
        return l, None
    order = sorted(vectors, key=_word_order)
    _, evecs, l = _gram_spectrum(np.array([vectors[key] for key in order]))
    if l < 2:
        return l, None
    return l, (float(evecs[0, 0]), float(evecs[1, 0]), float(evecs[2, 0]))


def _branch_commutes(branch: dict[tuple[int, int], float], op: SingleQubitOp) -> bool:
    """Whether op commutes with the branch sum, within what an l = 2 verdict allows.

    With v_r the row of rest word r and n the op's unit Bloch vector,
    the squared commutator norm per dimension is 4 * sum_r |v_r x n|^2,
    and sum_r |v_r x n|^2 = trace(S) - n^T S n is the two smaller Gram
    eigenvalues when n leads, each at most the kernel tolerance.  Twice
    that sum is allowed, for rounding.
    """
    rows, _ = _complement_rows(branch, op.qubit)
    r = op.norm
    nx, ny, nz = (b / r for b in op.bloch)
    cross = total = 0.0
    for vx, vy, vz in rows.values():
        cross += (vy * nz - vz * ny) ** 2 + (vz * nx - vx * nz) ** 2 + (vx * ny - vy * nx) ** 2
        total += vx * vx + vy * vy + vz * vz
    return cross <= 4 * _kernel_tol(total)


def _reduce_branch(
    branch: dict[tuple[int, int], float],
    k: int,
    weights: tuple[float, float, float, float],
    outcome: int,
) -> dict[tuple[int, int], float]:
    """The branch in an outcome eigenstate on qubit k; see :func:`reduce_qubit`."""
    keep = ~(1 << k)
    acc: dict[tuple[int, int], float] = {}
    for key, coeff in branch.items():
        x, z = key
        sel = ((x >> k) & 1) + 2 * ((z >> k) & 1)
        if sel == 0:
            acc[key] = acc.get(key, 0.0) + coeff
        else:
            dropped = (x & keep, z & keep)
            acc[dropped] = acc.get(dropped, 0.0) + coeff * outcome * weights[sel]
    return {key: c for key, c in acc.items() if abs(c) > COEFF_PRUNE}


def _sign_class(terms: dict, interned: dict[tuple, int], classes: list[dict]) -> tuple[int, int]:
    """(index in ``classes``, sign) of a branch: the branch is sign times that class.

    The class is the branch, negated when its first coefficient has the
    sign bit set, interned by its ordered items: the order sets later sums.
    """
    first = next(iter(terms.values()), 0.0)
    sign = -1 if math.copysign(1.0, first) < 0 else 1
    items = tuple(terms.items()) if sign > 0 else tuple((key, -c) for key, c in terms.items())
    index = interned.get(items)
    if index is None:
        index = interned[items] = len(classes)
        classes.append(terms if sign > 0 else dict(items))
    return index, sign


def _branch_of(h: PauliSum) -> dict[tuple[int, int], float]:
    """The sum as a mask-keyed branch dict."""
    return {(w.x_mask, w.z_mask): c for w, c in h.terms.items()}


def _l_values(h: PauliSum, qubits: Iterable[int]) -> dict[int, int]:
    """Kernel dimension ``l`` of each listed qubit, as compute_l reports it."""
    if not math.isfinite(h.norm()):
        raise ValueError(_OVERFLOW)
    branch = _branch_of(h)
    return {k: _branch_gram(branch, k)[0] for k in qubits}


def _stuck_support(h: PauliSum) -> tuple[int, ...]:
    """Support left where the +1 chain through factorable qubits gets stuck.

    Each round measures the lowest-indexed qubit at l = 2 and keeps the +1
    outcome; the qubits that remain are the ones a pair symmetry would
    have to rescue.
    """
    branch = _branch_of(h)
    while True:
        mask = 0
        for x, z in branch:
            mask |= x | z
        support = _set_bits(mask)
        for k in support:
            l, top = _branch_gram(branch, k)
            if l == 2:
                weights = _reduction_weights(SingleQubitOp(k, top))
                branch = _reduce_branch(branch, k, weights, 1)
                break
        else:
            return support


def verify_mf(h: PauliSum) -> MFCertificate | None:
    """Search for a full reduction chain, exploring every outcome branch.

    At each step the lowest-indexed remaining support qubit that is
    factorable (l = 2) or absent (l = 3) in every live branch is measured;
    both outcomes of every branch are then reduced and the search recurses.
    Each live outcome prefix, in outcome-bit order, maps to a sign class
    and a sign, so each class is decided and reduced once per step and its
    op serves all its prefixes; the ops of a step and the terminal values
    are kept as :class:`BranchTable` mappings.  Absent qubits get a Z
    placeholder op whose outcome cannot change the terminal value.  The
    call makes one op object per distinct qubit and bit pattern of the
    Bloch vector, the placeholder included, so equal ops are shared and
    ops that differ only in the sign of a zero are not.
    Returns None when no step qubit qualifies, or when the live branch
    count would exceed ``MAX_BRANCHES``.  That cap and ``GRAM_TOL_SCALE``
    are read at call time.  Raises ValueError when h's squared
    coefficients do not sum to a finite number.
    """
    return _verify_mf(h, {})


def _verify_mf(h: PauliSum, made: dict[tuple[int, bytes], SingleQubitOp]) -> MFCertificate | None:
    """:func:`verify_mf` taking its ops from ``made`` (see :func:`_made_op`), and adding them.

    A partition run passes one dict to all its calls, so its certificates share ops.
    """
    if not math.isfinite(h.norm()):
        raise ValueError(_OVERFLOW)
    axes = _axis_profile(h)
    if axes:
        return _pure_axis_certificate(h, axes, made)

    classes: list[dict[tuple[int, int], float]] = []
    # The (class, sign) of every live prefix in bit order: the children of
    # entry b are entries 2b (+1) and 2b+1 (-1) one step down.
    branches = [_sign_class(_branch_of(h), {}, classes)]
    remaining = list(h.support())
    steps: list[ReductionStep] = []
    while remaining:
        chosen: tuple[int, list[SingleQubitOp]] | None = None
        for k in remaining:
            class_ops: list[SingleQubitOp] = []
            for bh in classes:
                l, top = _branch_gram(bh, k)
                if l < 2:
                    break
                class_ops.append(_made_op(made, k, top if l == 2 else _AXIS_BLOCH["Z"]))
            else:
                chosen = (k, class_ops)
                break
        if chosen is None or 2 * len(branches) > MAX_BRANCHES:
            return None
        k, class_ops = chosen
        remaining.remove(k)
        steps.append(ReductionStep(k, BranchTable(len(steps), [class_ops[c] for c, _ in branches])))
        # Classes are interned afresh at each step, so only live ones are kept.
        old, classes, interned = classes, [], {}
        children = [
            [_sign_class(_reduce_branch(bh, k, _reduction_weights(op), o), interned, classes)
             for o in (1, -1)]
            for bh, op in zip(old, class_ops)
        ]
        branches = [
            (child, sign * child_sign) for c, sign in branches for child, child_sign in children[c]
        ]

    # Every support qubit is reduced in every class, so a class is its
    # constant term; one with none is zero, +0.0 under either sign.
    ends = [(bh[0, 0], -bh[0, 0]) if bh else (0.0, 0.0) for bh in classes]
    terminal = BranchTable(len(steps), [ends[c][sign < 0] for c, sign in branches])
    return MFCertificate(n_qubits=h.n_qubits, steps=tuple(steps), terminal_values=terminal)
