"""Plan JSON and seeded reports pinned byte for byte by SHA-256 digests.

The digests in ``data/plan_digests.json`` were written from the plans of
the acceptance-6 sums (seeds 6000-6049) at both levels, of the README
model at mf2 and of the acceptance-9 sum at mf1.  Any change to a plan's
fragments, certificates, entangler unitaries or float formatting changes
a digest.

The digests in ``data/report_digests.json`` were written from the JSON of
the seeded ``estimate_energy`` report of each of those mf2 plans in a
seeded random state, so a change to how fragments are sampled, rotated
or given their analytic moments changes a digest.
"""

import functools
import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from conftest import DATA_DIR, README_MODEL, random_amplitudes, random_sum
from mfpart import entangler, hamio, meanfield
from mfpart.hamio import parse_hamiltonian, parse_plan, serialize_plan
from mfpart.partition import greedy_partition, validate_plan
from mfpart.simulator import StateVector, estimate_energy

DIGESTS = json.loads((DATA_DIR / "plan_digests.json").read_text())
REPORT_DIGESTS = json.loads((DATA_DIR / "report_digests.json").read_text())


def digest(plan) -> str:
    return hashlib.sha256(serialize_plan(plan).encode()).hexdigest()


def acceptance6_sum(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    n_terms = int(rng.integers(3, min(60, 4**n - 2) + 1))
    return random_sum(rng, n, n_terms)


@pytest.mark.parametrize("level", ["mf1", "mf2"])
def test_acceptance6_plans_are_unchanged(level):
    changed = [
        seed
        for seed in range(6000, 6050)
        if digest(greedy_partition(acceptance6_sum(seed), level=level))
        != DIGESTS[level][str(seed)]
    ]
    assert changed == []


def report_digest(seed: int, workers) -> str:
    h = acceptance6_sum(seed)
    plan = greedy_partition(h, level="mf2")
    psi = StateVector(h.n_qubits, random_amplitudes(np.random.default_rng(seed), h.n_qubits))
    report = estimate_energy(plan, psi, shots=300, seed=seed, workers=workers)
    return hashlib.sha256(json.dumps(asdict(report)).encode()).hexdigest()


@pytest.mark.parametrize("workers", [None, 2])
def test_acceptance6_mf2_reports_are_unchanged(workers):
    changed = [
        seed
        for seed in range(6000, 6050)
        if report_digest(seed, workers) != REPORT_DIGESTS[str(seed)]
    ]
    assert changed == []


def test_readme_plan_is_unchanged():
    plan = greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    assert digest(plan) == DIGESTS["readme_mf2"]


def test_acceptance9_mf1_plan_is_unchanged():
    # The acceptance-9 sum (10 qubits, 1000 terms) is the one pinned sum whose
    # recursion (725 fragments at mf1) loses to its QWC groups, so its plan is
    # the end-of-run fallback's.
    plan = greedy_partition(random_sum(np.random.default_rng(424242), 10, 1000), level="mf1")
    assert plan.n_fragments == 603
    assert digest(plan) == DIGESTS["w1_mf1"]


@functools.cache
def golden_plans():
    plans = [
        greedy_partition(acceptance6_sum(seed), level=level)
        for level in ("mf1", "mf2")
        for seed in range(6000, 6050)
    ]
    return plans + [greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")]


def test_golden_plans_are_written_as_json_dumps_writes_them():
    for plan in golden_plans():
        assert serialize_plan(plan) == json.dumps(hamio._plan_payload(plan), indent=2) + "\n"


def test_golden_plans_read_back_to_the_same_text():
    # Equal text after a round trip pins the reader's shared ops, cached
    # words and the sign of every zero in an entangler's unitary.
    for plan in golden_plans():
        text = serialize_plan(plan)
        assert serialize_plan(parse_plan(text)) == text


def screen_test_sums():
    sums = [(acceptance6_sum(seed), "mf2") for seed in range(6000, 6050)]
    rng = np.random.default_rng(9090)
    for i in range(40):
        n = 2 + i % 5
        sums.append((random_sum(rng, n, int(rng.integers(3, 4 * n + 6))), ("mf1", "mf2")[i % 2]))
    return sums


def test_screens_leave_plans_and_validation_unchanged(monkeypatch):
    def outputs():
        plans = [greedy_partition(h, level=level) for h, level in screen_test_sums()]
        return [(serialize_plan(plan), validate_plan(plan)) for plan in plans]

    screened = outputs()
    monkeypatch.setattr(meanfield, "_settled_l", lambda rows, n_rows: None)
    monkeypatch.setattr(entangler, "_no_commuting_word", lambda h, subset: False)
    unscreened = outputs()
    assert [problems for _, problems in screened] == [[]] * len(screened)
    assert screened == unscreened
