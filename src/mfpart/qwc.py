"""Qubit-wise commuting grouping of Pauli sums.

The grouping is the measurement baseline the mean-field partitioner is
compared against: every group can be read out with one fixed single-qubit
basis per qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import PauliSum, PauliWord, qwc_commutes

__all__ = ["QWCGrouping", "qwc_partition"]


@dataclass(frozen=True)
class QWCGrouping:
    """Disjoint qubit-wise commuting groups that sum to the grouped Hamiltonian."""

    groups: tuple[PauliSum, ...]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def qwc_partition(h: PauliSum) -> QWCGrouping:
    """Greedy first-fit grouping into qubit-wise commuting subsets.

    Terms are visited in order of descending coefficient magnitude (ties
    broken by canonical word order) and placed into the first group whose
    members they all qubit-wise commute with.  Constant terms join any
    group.  The result is deterministic for a given sum.
    """
    if h.is_zero:
        raise ValueError("cannot group an empty Hamiltonian")
    ordered = sorted(
        h.terms.items(), key=lambda it: (-abs(it[1]), it[0].sort_key())
    )
    groups: list[list[tuple[PauliWord, float]]] = []
    for word, coeff in ordered:
        placed = False
        for group in groups:
            if all(qwc_commutes(word, member) for member, _ in group):
                group.append((word, coeff))
                placed = True
                break
        if not placed:
            groups.append([(word, coeff)])
    sums = tuple(
        PauliSum.from_terms(h.n_qubits, group, prune=None) for group in groups
    )
    return QWCGrouping(groups=sums)
