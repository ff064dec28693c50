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
from dataclasses import dataclass, field

from .entangler import (
    EntanglerSpec,
    _build_unentangler,
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
    _stuck_support,
    compute_l,
    decompose_by_qubit,
    factor_l1,
    reduce_qubit,
    verify_mf,
)
from .pauli import AXES, PauliSum
from .qwc import qwc_partition

__all__ = [
    "MFFragment",
    "PartitionPlan",
    "greedy_partition",
    "validate_plan",
]


@dataclass(frozen=True)
class MFFragment:
    """A summand measurable in one feedforward pass.

    With an entangler present the certificate describes the conjugated
    sum U†HU; ``hamiltonian`` always stores the untransformed summand so
    fragments add up to the source directly.  The conjugated sum is kept
    once known: the partitioner stores the sum it certified, and any
    other fragment (parsed, hand-built or copied with
    ``dataclasses.replace``) conjugates its own ``hamiltonian`` on the
    first call to :meth:`effective_hamiltonian`.  The kept sum is not a
    constructor argument and takes no part in comparisons.
    """

    hamiltonian: PauliSum
    certificate: MFCertificate
    entangler: EntanglerSpec | None = None
    _rotated: PauliSum | None = field(default=None, init=False, repr=False, compare=False)

    def effective_hamiltonian(self) -> PauliSum:
        """The sum the certificate actually certifies."""
        if self.entangler is None:
            return self.hamiltonian
        if self._rotated is None:
            # Threads that miss together store equal sums.
            object.__setattr__(self, "_rotated", apply_unitary(self.hamiltonian, self.entangler))
        return self._rotated


@dataclass(frozen=True)
class PartitionPlan:
    source: PauliSum
    fragments: tuple[MFFragment, ...]
    level: str

    @property
    def n_fragments(self) -> int:
        return len(self.fragments)


def _attach_op(complement: PauliSum, op: SingleQubitOp) -> PauliSum:
    """Product complement * op for a complement free of the op's qubit."""
    acc = PauliSum.zero(complement.n_qubits)
    for axis, weight in zip(AXES, op.bloch):
        if abs(weight) > 0.0:
            acc = acc + complement.attach(op.qubit, axis, weight)
    return acc


def _try_entangler(s: PauliSum) -> tuple[EntanglerSpec, MFCertificate, PauliSum] | None:
    """A rotation of s, its certificate and the rotated sum it certifies."""
    stuck = _stuck_support(s)
    if len(stuck) < 2:
        return None
    for pair in itertools.combinations(stuck, 2):
        for op in find_commuting_ops(s, pair):
            # A single-word operator takes the Clifford form only (see
            # build_clifford_unentangler), a mixed one the eigenbasis form.
            if op.dominant_word() is not None:
                spec = build_clifford_unentangler(op)
                rotated = apply_unitary(s, spec)
            else:
                try:
                    spec, rotated = _build_unentangler(s, op, factorability_check(s, op))
                except (ValueError, RuntimeError):
                    continue
            cert = verify_mf(rotated)
            if cert is not None:
                return spec, cert, rotated
    return None


def _qwc_fragments(groups: tuple[PauliSum, ...]) -> list[MFFragment]:
    fragments = []
    for group in groups:
        cert = verify_mf(group)
        if cert is None:
            raise AssertionError("a qubit-wise commuting group failed verification")
        fragments.append(MFFragment(hamiltonian=group, certificate=cert))
    return fragments


def _recurse(s: PauliSum, level: str) -> list[MFFragment]:
    cert = verify_mf(s)
    if cert is not None:
        return [MFFragment(hamiltonian=s, certificate=cert)]

    if level == "mf2":
        found = _try_entangler(s)
        if found is not None:
            spec, tcert, rotated = found
            frag = MFFragment(hamiltonian=s, certificate=tcert, entangler=spec)
            object.__setattr__(frag, "_rotated", rotated)
            return [frag]

    ls = _l_values(s, s.support())
    candidates = [k for k, l in ls.items() if l <= 1]
    if not candidates:
        # Only reachable when verification hit the branch cap: every qubit
        # is factorable, so QWC groups are a safe way to shrink the problem.
        return _qwc_fragments(qwc_partition(s).groups)
    k = min(candidates, key=lambda q: (-ls[q], q))

    parts: list[PauliSum]
    if ls[k] == 1:
        _, _, o2, c2, _ = factor_l1(s, compute_l(decompose_by_qubit(s, k)))
        prime_part = _attach_op(c2, o2)
        parts = [prime_part, s - prime_part]
    else:
        dec = decompose_by_qubit(s, k)
        part_x = dec.h_x.attach(k, "X", 1.0)
        part_y = dec.h_y.attach(k, "Y", 1.0)
        parts = [part_x, part_y, s - part_x - part_y]

    out: list[MFFragment] = []
    for part in parts:
        if part.is_zero:
            continue
        out.extend(_recurse(part, level))
    return out


def greedy_partition(h: PauliSum, level: str = "mf1") -> PartitionPlan:
    """Partition h so every fragment carries a measurement certificate.

    ``level`` selects how hard to fight before splitting: "mf1" uses only
    single-qubit reductions, "mf2" additionally tries two-qubit commuting
    operators with unentangling rotations.  Chains use the one kernel bound,
    ``GRAM_TOL_SCALE``.  A sum whose chain would need more than
    ``MAX_BRANCHES`` live branches is split further.  A sum whose squared
    coefficients do not sum to a finite number is refused by the first
    :func:`verify_mf`.
    """
    if level not in ("mf1", "mf2"):
        raise ValueError(f"unknown level {level!r}")
    if h.is_zero:
        raise ValueError("cannot partition an empty Hamiltonian")
    fragments = _recurse(h, level)
    baseline = qwc_partition(h)
    if len(fragments) > baseline.n_groups:
        fragments = _qwc_fragments(baseline.groups)
    return PartitionPlan(source=h, fragments=tuple(fragments), level=level)


def _certificate_problem(h: PauliSum, cert: MFCertificate, n_qubits: int) -> str | None:
    """The first thing wrong with a certificate of h, over all its branches, if any.

    A product chain of +1/-1 weights is decided from its word data alone.
    """
    if cert.n_qubits != n_qubits:
        return "certificate register size mismatch"
    # Each step measures its own register qubit, and the terminal values
    # are keyed by exactly the 2^m outcome sequences of the m steps.
    order = cert.qubit_order
    for i, q in enumerate(order):
        if q >= n_qubits:
            return f"certificate measures qubit {q} outside the register"
        if q in order[:i]:
            return f"certificate measures qubit {q} twice"
    tv = cert.terminal_values
    if len(tv) != cert.n_branches or (
        isinstance(tv, dict) and any(len(o) != len(order) for o in tv)
    ):
        return f"certificate does not give one terminal value per branch of its {len(order)} steps"
    if not set(h.support()) <= set(order):
        return "certificate does not cover the support"
    diff = _product_differences(h, cert)
    if diff is not None:
        bound = sum(map(abs, diff.values()))
        if bound <= 1e-9:
            return None
        # The summed |diff| bounds every branch's error; the all-(+1) error
        # is the plain sum, written so that a NaN counts as a mismatch.
        if not abs(sum(diff.values())) <= 1e-9:
            return f"branch {(1,) * len(order)} terminal mismatch"
        return f"terminal products are off by up to {bound:.3g}"
    # reduced[d] is h reduced along the first d outcomes of path.
    reduced = [h]
    path: tuple[int, ...] = ()
    for outcomes in tv:
        # Every key has one outcome per step (checked above).
        depth = 0
        while depth < len(path) and path[depth] == outcomes[depth]:
            depth += 1
        path = outcomes
        del reduced[depth + 1 :]
        for si in range(depth, len(path)):
            op = cert.steps[si].ops.get(path[:si])
            if op is None:
                return f"branch {outcomes} has no op at step {si}"
            if not _branch_commutes(_branch_of(reduced[si]), op):
                return f"branch {outcomes} op at step {si} does not commute"
            reduced.append(reduce_qubit(reduced[si], op, path[si]))
        if reduced[-1].support():
            return f"branch {outcomes} left a non-scalar"
        # Written so that a NaN terminal value counts as a mismatch.
        if not abs(reduced[-1].constant_part() - tv[outcomes]) <= 1e-9:
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
    branches in its branch order: each op must commute with the sum it
    is measured on, and the reductions must land on the stored terminal
    values.  Consecutive branches share the reductions of their common
    outcome prefix, so each prefix's op is checked once.  A partitioner
    certificate that is not a product chain has at most ``MAX_BRANCHES``
    branches, and a loaded one no more than the table its file lists.
    """
    problems: list[str] = []
    n = plan.source.n_qubits
    total = PauliSum.zero(n)
    for frag in plan.fragments:
        if frag.hamiltonian.n_qubits == n:
            total = total + frag.hamiltonian
    scale = max(map(abs, plan.source.terms.values()), default=0.0)
    if not total.allclose(plan.source, atol=1e-10 * max(1.0, scale)):
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
