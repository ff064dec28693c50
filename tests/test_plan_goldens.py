"""Plan JSON pinned byte for byte by SHA-256 digests.

The digests in ``data/plan_digests.json`` were written from the plans of
the acceptance-6 sums (seeds 6000-6049) at both levels and of the README
model at mf2.  Any change to a plan's fragments, certificates, entangler
unitaries or float formatting changes a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import DATA_DIR, README_MODEL, random_sum
from mfpart.hamio import parse_hamiltonian, serialize_plan
from mfpart.partition import greedy_partition

DIGESTS = json.loads((DATA_DIR / "plan_digests.json").read_text())


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


def test_readme_plan_is_unchanged():
    plan = greedy_partition(parse_hamiltonian(README_MODEL), level="mf2")
    assert digest(plan) == DIGESTS["readme_mf2"]
