"""Greedy partitioning of Pauli sums into mean-field-measurable fragments.

The recursion keeps a sub-Hamiltonian whole as long as a reduction chain
certifies it (kernel dimension never drops under reduction, so a sum
whose support qubits all sit at l >= 2 always certifies).  When
verification fails there must be a qubit with l <= 1; the sum is split
there: an l = 1 qubit yields the two planar factors with the residual
attached to the dominant one, an l = 0 qubit yields the three axis
slices.  At the two-qubit level a stuck sum first gets a chance to be
rescued by a commuting pair operator and an unentangling rotation; the
attempt is accepted only if the rotated sum passes verification, so the
fragment count can only improve.

Fragment counts never exceed the qubit-wise-commuting baseline: if the
recursion produces more fragments than greedy QWC grouping, the QWC
groups themselves (each one axis-pure, hence certifiable) are returned
instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .entangler import (
    EntanglerSpec,
    apply_unitary,
    build_clifford_unentangler,
    factorability_check,
    find_commuting_ops,
)
from .meanfield import (
    _OVERFLOW,
    MFCertificate,
    SingleQubitOp,
    _branch_commutes,
    _branch_of,
    _l_values,
    _product_differences,
    _sign_class,
    _stuck_support,
    _verify_mf,
    compute_l,
    decompose_by_qubit,
    factor_l1,
    reduce_qubit,
)
from .pauli import AXES, COEFF_PRUNE, PauliSum, PauliWord
from .qwc import qwc_partition

__all__ = [
    "MFFragment",
    "PartitionPlan",
    "greedy_partition",
    "validate_plan",
]

#: How far a walked branch's scalar, or a product chain's summed terminal
#: error, may sit from the stored terminal values.
_TERMINAL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class MFFragment:
    """A summand measurable in one feedforward pass.

    With an entangler present the certificate describes the conjugated
    sum U†HU, built on each :meth:`effective_hamiltonian` call; ``hamiltonian``
    stores the untransformed summand so fragments add up to the source.
    """

    hamiltonian: PauliSum
    certificate: MFCertificate
    entangler: EntanglerSpec | None = None

    def effective_hamiltonian(self) -> PauliSum:
        """The sum the certificate actually certifies."""
        if self.entangler is None:
            return self.hamiltonian
        return apply_unitary(self.hamiltonian, self.entangler)


@dataclass(frozen=True, slots=True)
class PartitionPlan:
    source: PauliSum
    fragments: tuple[MFFragment, ...]
    level: str

    @property
    def n_fragments(self) -> int:
        return len(self.fragments)


def _attach_op(complement: PauliSum, op: SingleQubitOp, words: dict) -> PauliSum:
    """Product complement * op over the run's words, for a complement free of the op's qubit."""
    terms = {}
    for axis, weight in zip(AXES, op.bloch):
        if abs(weight) > 0.0:
            for word, coeff in complement.terms.items():
                if abs(coeff * weight) > COEFF_PRUNE:
                    made = word.with_axis(op.qubit, axis)
                    terms[words.setdefault(made, made)] = coeff * weight
    return PauliSum(complement.n_qubits, terms)


def _try_entangler(s: PauliSum, ops: dict) -> tuple[EntanglerSpec, MFCertificate] | None:
    """A rotation of s and the certificate of the rotated sum."""
    stuck = _stuck_support(s)
    if len(stuck) < 2:
        return None
    for pair in itertools.combinations(stuck, 2):
        for op in find_commuting_ops(s, pair):
            # A single-word operator takes the Clifford form only (see
            # build_clifford_unentangler), a mixed one the eigenbasis form of
            # a passing factorability check; verify_mf on the rotated sum decides.
            if op.dominant_word() is not None:
                spec = build_clifford_unentangler(op)
            else:
                try:
                    verdict = factorability_check(s, op)
                    if not verdict.ok:
                        continue
                    spec = EntanglerSpec(op.subset, verdict.unitary, op)
                except ValueError:
                    continue
            cert = _verify_mf(apply_unitary(s, spec), ops)
            if cert is not None:
                return spec, cert
    return None


def _qwc_fragments(groups: tuple[PauliSum, ...], ops: dict) -> list[MFFragment]:
    """A fragment per group: each is axis-pure, so verify_mf gives its product chain."""
    return [MFFragment(group, _verify_mf(group, ops)) for group in groups]


def _recurse(s: PauliSum, level: str, ops: dict, words: dict) -> list[MFFragment]:
    """Fragments of s; ``ops`` and ``words`` are the run's, so each op and word is made once."""
    cert = _verify_mf(s, ops)
    if cert is not None:
        return [MFFragment(s, cert)]

    if level == "mf2":
        found = _try_entangler(s, ops)
        if found is not None:
            spec, tcert = found
            return [MFFragment(s, tcert, spec)]

    ls = _l_values(s, s.support())
    candidates = [k for k, l in ls.items() if l <= 1]
    if not candidates:
        # Only reachable when verification hit the branch cap: every qubit
        # is factorable, so QWC groups are a safe way to shrink the problem.
        return _qwc_fragments(qwc_partition(s).groups, ops)
    k = min(candidates, key=lambda q: (-ls[q], q))

    parts: list[PauliSum]
    if ls[k] == 1:
        _, _, o2, c2, _ = factor_l1(s, compute_l(decompose_by_qubit(s, k)))
        prime_part = _attach_op(c2, o2, words)
        parts = [prime_part, s - prime_part]
    else:
        # s's own terms by their factor on k: X, Y, then Z and I in one part,
        # each in s's order and pruned as PauliSum arithmetic prunes.
        split: dict[str, dict[PauliWord, float]] = {"X": {}, "Y": {}, "Z": {}}
        for word, coeff in s.terms.items():
            if abs(coeff) > COEFF_PRUNE:
                split.get(word.axis(k), split["Z"])[word] = coeff
        parts = [PauliSum(s.n_qubits, terms) for terms in split.values()]

    out: list[MFFragment] = []
    for part in parts:
        if part.is_zero:
            continue
        out.extend(_recurse(part, level, ops, words))
    return out


def greedy_partition(h: PauliSum, level: str = "mf1") -> PartitionPlan:
    """Partition h so every fragment carries a measurement certificate.

    ``level`` selects how hard to fight before splitting: "mf1" uses only
    single-qubit reductions, "mf2" additionally tries two-qubit commuting
    operators with unentangling rotations.  Chains use the one kernel bound,
    ``GRAM_TOL_SCALE``.  A sum whose chain would need more than
    ``MAX_BRANCHES`` live branches is split further.  A sum whose squared
    coefficients do not sum to a finite number is refused by the first
    :func:`verify_mf`.  The chain searches make each op once per run and
    the splits each word, so fragments share one op object per qubit and
    Bloch bit pattern and one word object per word, the source's own
    where it has it.
    """
    if level not in ("mf1", "mf2"):
        raise ValueError(f"unknown level {level!r}")
    if h.is_zero:
        raise ValueError("cannot partition an empty Hamiltonian")
    ops = {}
    fragments = _recurse(h, level, ops, {word: word for word in h.terms})
    baseline = qwc_partition(h)
    if len(fragments) > baseline.n_groups:
        fragments = _qwc_fragments(baseline.groups, ops)
    return PartitionPlan(source=h, fragments=tuple(fragments), level=level)


def _certificate_problem(h: PauliSum, cert: MFCertificate, n_qubits: int) -> str | None:
    """The first thing wrong with a certificate of h, over all its branches, if any.

    A product chain of +1/-1 weights is decided from its word data alone.
    Once each step measures a distinct register qubit and the steps cover
    h's support, the reductions along any branch remove every qubit a word
    can carry, so each walked branch ends in a scalar.
    """
    if cert.n_qubits != n_qubits:
        return "certificate register size mismatch"
    # Each step measures its own register qubit.
    order = cert.qubit_order
    for i, q in enumerate(order):
        if q >= n_qubits:
            return f"certificate measures qubit {q} outside the register"
        if q in order[:i]:
            return f"certificate measures qubit {q} twice"
    if not set(h.support()) <= set(order):
        return "certificate does not cover the support"
    diff = _product_differences(h, cert)
    if diff is not None:
        bound = sum(map(abs, diff.values()))
        if bound <= _TERMINAL_TOL:
            return None
        # The summed |diff| bounds every branch's error; the all-(+1) error
        # is the plain sum, written so that a NaN counts as a mismatch.
        if not abs(sum(diff.values())) <= _TERMINAL_TOL:
            return f"branch {(1,) * len(order)} terminal mismatch"
        return f"terminal products are off by up to {bound:.3g}"
    # reduced[d] is h reduced along the first d outcomes of path, as a
    # (class, sign) pair of _sign_class.  A class's children under an op
    # that commutes with it are kept by the op's id; its table holds the op.
    classes, interned, children = [], {}, {}
    reduced = [_sign_class(h.terms, interned, classes)]
    path: tuple[int, ...] = ()
    for outcomes, value in cert.terminal_values.items():
        depth = 0
        while depth < len(path) and path[depth] == outcomes[depth]:
            depth += 1
        path = outcomes
        del reduced[depth + 1 :]
        for si in range(depth, len(path)):
            op = cert.steps[si].ops[path[:si]]
            c, sign = reduced[si]
            pair = children.get((c, id(op)))
            if pair is None:
                if op.qubit != order[si]:
                    return (f"branch {outcomes} op at step {si} "
                            f"acts on qubit {op.qubit}, not {order[si]}")
                branch = PauliSum(h.n_qubits, classes[c])
                if not _branch_commutes(_branch_of(branch), op):
                    return f"branch {outcomes} op at step {si} does not commute"
                pair = children[c, id(op)] = {
                    o: _sign_class(reduce_qubit(branch, op, o).terms, interned, classes)
                    for o in (1, -1)
                }
            child, child_sign = pair[path[si]]
            reduced.append((child, sign * child_sign))
        c, sign = reduced[-1]
        # A scalar holds at most the identity term.
        scalar = next(iter(classes[c].values()), 0.0)
        # Written so that a NaN terminal value counts as a mismatch.
        if not abs(sign * scalar - value) <= _TERMINAL_TOL:
            return f"branch {outcomes} terminal mismatch"
    return None


def validate_plan(plan: PartitionPlan) -> list[str]:
    """Check reconstruction and every branch of every certificate; returns problems.

    A fragment whose sum lives on another register than the source is
    reported as such and left out of the reconstruction sum.  The
    reconstruction tolerance is 1e-10 relative to the largest source
    coefficient, or absolute below 1.  A fragment whose squared
    coefficients do not sum to a finite number is reported, not walked.

    A certificate of uniform ops and outcome products whose op weights
    are all +1 or -1 is decided from its word data, which covers every
    branch at once.  Any other certificate is walked over all its
    branches in its branch order: each op must act on its step's qubit
    and commute with the sum it is measured on, and the reductions must
    land on the stored terminal values.  Both checks allow one absolute
    terminal tolerance, ``_TERMINAL_TOL``.  Consecutive branches share the
    reductions of their common outcome prefix, and branches equal up to
    sign share one check and one reduction per op (sign classes, see
    :mod:`mfpart.meanfield`).  A partitioner certificate that is not a
    product chain has at most ``MAX_BRANCHES`` branches, and a loaded one
    no more than the table its file lists.
    """
    problems: list[str] = []
    n = plan.source.n_qubits
    # One accumulator, pruned word by word as PauliSum.__add__ prunes.
    total = {}
    for frag in plan.fragments:
        if frag.hamiltonian.n_qubits == n:
            for word, coeff in frag.hamiltonian.terms.items():
                c = total.get(word, 0.0) + coeff
                if abs(c) > COEFF_PRUNE:
                    total[word] = c
                else:
                    total.pop(word, None)
    scale = max(map(abs, plan.source.terms.values()), default=0.0)
    if not PauliSum(n, total).allclose(plan.source, atol=1e-10 * max(1.0, scale)):
        problems.append("fragments do not sum to the source Hamiltonian")
    for fi, frag in enumerate(plan.fragments):
        spec = frag.entangler
        if frag.hamiltonian.n_qubits != n:
            problem = f"hamiltonian is on a register of {frag.hamiltonian.n_qubits} qubits, not {n}"
        elif not math.isfinite(frag.hamiltonian.norm()):
            problem = _OVERFLOW
        elif spec is not None and max(spec.subset) >= n:
            problem = f"entangler acts on qubit {max(spec.subset)} outside the register"
        else:
            problem = _certificate_problem(frag.effective_hamiltonian(), frag.certificate, n)
        if problem:
            problems.append(f"fragment {fi}: {problem}")
    return problems
