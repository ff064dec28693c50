"""Seeded boundary fuzzing of the plan and Hamiltonian readers.

Each plan mutant changes one or two fields of a valid plan document: a
leaf is replaced by a value of another JSON type or past a numeric range,
a number is scaled, or a key or item is deleted.  Each Hamiltonian mutant
replaces, inserts or deletes one or two tokens of a valid term list, and
each state mutant does the same to a valid state file or scales one of its
numbers.  The library must read a mutant or raise ``ValueError``; the
command line must exit 0, or exit 1 with one ``error:`` line on stderr.
No mutant may raise a numpy ``RuntimeWarning``; a state read at exit 0
may give the renormalization notice.  The mutant counts and seed are
fixed, so every run checks the same mutants.
"""

import json
import math
import random
import warnings

import numpy as np
import pytest

from conftest import DATA_DIR, README_MODEL, exchange_plan_with, random_amplitudes, random_sum
from mfpart.cli import main
from mfpart.hamio import (
    parse_hamiltonian,
    parse_plan,
    parse_state,
    serialize_hamiltonian,
    serialize_plan,
    serialize_state,
)
from mfpart.partition import greedy_partition, validate_plan
from mfpart.simulator import StateVector

SEED = 1009
#: Mutants read by the library, and how many of them also go through the command line.
PLAN_MUTANTS, PLAN_COMMANDS = 2000, 400
TEXT_MUTANTS, TEXT_COMMANDS = 2000, 400
STATE_MUTANTS, STATE_COMMANDS = 2000, 300

#: Leaf replacements: each other JSON type, integers past 64 bits and past
#: the float range, non-finite numbers and a negative count.
LEAVES = ("x", None, True, [], {}, 2**70, 10**400, math.nan, math.inf, -1)
SCALES = (0.0, -1.0, 0.5, 1 + 1e-9, 1e-300, 1e300)
TOKENS = (
    "qubits:", "qubits: 2", "1.0", "-0", "1e999", "nan", "X0", "z1", "Y1023", "Z1024",
    "X0X1", "W0", "#", "9" * 5000, "Z" + "9" * 5000, "0" * 5000 + "1",
)
#: State tokens: numbers past the float range and below it, non-numbers,
#: a comment mark; and scales that move the norm a little, far or to inf.
STATE_TOKENS = ("0", "-0", "1", "1e308", "-1e308", "1e-320", "1e999", "nan", "inf", "x",
                "1j", "#", "9" * 5000)
STATE_SCALES = (1 + 1e-8, 1 + 1e-5, -1.0, 0.0, 1e300)


def acceptance6_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return random_sum(rng, n, int(rng.integers(3, min(60, 4**n - 2) + 1)))


#: Small acceptance-6 sums of 2, 3 and 4 qubits, each rescued at mf2.
SUMS = [parse_hamiltonian(README_MODEL), *map(acceptance6_sum, (6024, 6003, 6049))]
PLANS = [serialize_plan(greedy_partition(h, level)) for h in SUMS for level in ("mf1", "mf2")]
TEXTS = [README_MODEL, (DATA_DIR / "collinear3.txt").read_text(),
         *map(serialize_hamiltonian, SUMS[1:])]


def paths(node, here=()):
    """The path of every node below the root of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield (*here, key)
        yield from paths(child, (*here, key))


def mutate_field(doc, path, rng):
    """Replace, scale or delete the node at path, if the document still has it."""
    parent = doc
    try:
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return
    kind = rng.randrange(3)
    if kind == 1 and isinstance(node, (int, float)) and not isinstance(node, bool):
        parent[path[-1]] = node * rng.choice(SCALES)
    elif kind == 2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(LEAVES)


def plan_mutants(rng, count):
    docs = [(text, list(paths(json.loads(text)))) for text in PLANS]
    for _ in range(count):
        text, doc_paths = rng.choice(docs)
        doc = json.loads(text)
        for path in rng.sample(doc_paths, rng.randint(1, 2)):
            mutate_field(doc, path, rng)
        yield json.dumps(doc)


def text_mutants(rng, count):
    for _ in range(count):
        lines = [line.split() for line in rng.choice(TEXTS).splitlines()]
        for _ in range(rng.randint(1, 2)):
            tokens = rng.choice(lines)
            at = rng.randint(0, len(tokens))
            kind = rng.randrange(3)
            if kind == 0 and at < len(tokens):
                tokens[at] = rng.choice(TOKENS)
            elif kind == 1 and at < len(tokens):
                del tokens[at]
            else:
                tokens.insert(at, rng.choice(TOKENS))
        yield "\n".join(" ".join(tokens) for tokens in lines) + "\n"


def state_mutants(rng, count):
    for _ in range(count):
        n = rng.choice(list(STATES))
        lines = [line.split() for line in STATES[n].splitlines()]
        for _ in range(rng.randint(1, 2)):
            tokens = rng.choice(lines)
            at = rng.randrange(len(tokens) + 1)
            kind = rng.randrange(4)
            if kind == 0 and at < len(tokens):
                tokens[at] = rng.choice(STATE_TOKENS)
            elif kind == 1 and at < len(tokens):
                del tokens[at]
            elif kind == 2 and at < len(tokens):
                try:
                    tokens[at] = repr(float(tokens[at]) * rng.choice(STATE_SCALES))
                except ValueError:
                    pass
            else:
                tokens.insert(at, rng.choice(STATE_TOKENS))
        yield n, "\n".join(" ".join(tokens) for tokens in lines) + "\n"


#: Mutants once found to end in another exception or in numpy warnings.
FIXED_PLANS = [
    exchange_plan_with("unitary_re", 10**400),
    exchange_plan_with("unitary_im", 10**400),
    exchange_plan_with("unitary_re", 1e308),
]
FIXED_TEXTS = [f"qubits: {'9' * 5000}\n1.0 Z0\n", f"1.0 Z0\n1.0 X{'9' * 5000}\n"]
FIXED_STATES = [(1, "1e308 1e308\n0 0\n")]


def read_plan(text):
    """Whether the library reads and validates the plan; only a ValueError is a refusal."""
    try:
        validate_plan(parse_plan(text))
    except ValueError:
        return False
    return True


def read_hamiltonian(text):
    try:
        parse_hamiltonian(text)
    except ValueError:
        return False
    return True


def renormalizing(caught):
    """Whether the warnings caught are the renormalization notice at most."""
    return all(
        w.category is UserWarning and str(w.message).startswith("renormalizing state")
        for w in caught
    )


def read_state(text):
    """Whether the library reads the state; it warns of nothing but renormalization."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse_state(text)
        except ValueError:
            return False
        finally:
            assert renormalizing(caught), [str(w.message) for w in caught]
    return True


def assert_one_outcome(capsys, code):
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err[:500]
    else:
        assert captured.err == ""


def seeded_states():
    """The text of a state file for each register size of the sums."""
    rng = np.random.default_rng(0)
    return {
        n: serialize_state(StateVector(n, random_amplitudes(rng, n)))
        for n in {h.n_qubits for h in SUMS}
    }


STATES = seeded_states()


@pytest.fixture
def state_files(tmp_path):
    """A state file for each register size of the plans."""
    files = {}
    for n, text in STATES.items():
        files[n] = tmp_path / f"state{n}.txt"
        files[n].write_text(text)
    return files


def test_fixed_mutants_are_refused():
    assert not any(map(read_plan, FIXED_PLANS))
    assert not any(map(read_hamiltonian, FIXED_TEXTS))


def test_plan_mutants_are_read_or_refused_with_a_value_error(tmp_path, capsys, state_files):
    mutants = [*FIXED_PLANS, *plan_mutants(random.Random(SEED), PLAN_MUTANTS)]
    refused = sum(not read_plan(text) for text in mutants)
    # Both outcomes occur, so the mutants reach past the first field check.
    assert 0 < refused < len(mutants)
    path = tmp_path / "plan.json"
    for text in mutants[: len(FIXED_PLANS) + PLAN_COMMANDS]:
        path.write_text(text)
        # A mutated register size meets the state of the source register.
        n = json.loads(text).get("n_qubits")
        state = state_files.get(n if type(n) is int else 2, state_files[2])
        code = main(["measure", "--plan", str(path), "--state", str(state),
                     "--shots", "8", "--seed", "1"])
        assert_one_outcome(capsys, code)


def test_hamiltonian_mutants_are_read_or_refused_with_a_value_error(tmp_path, capsys):
    mutants = [*FIXED_TEXTS, *text_mutants(random.Random(SEED), TEXT_MUTANTS)]
    refused = sum(not read_hamiltonian(text) for text in mutants)
    assert 0 < refused < len(mutants)
    path = tmp_path / "h.txt"
    for text in mutants[: len(FIXED_TEXTS) + TEXT_COMMANDS]:
        path.write_text(text)
        assert_one_outcome(capsys, main(["info", str(path)]))


def test_state_mutants_are_read_or_refused_with_a_value_error(tmp_path, capsys):
    mutants = [*FIXED_STATES, *state_mutants(random.Random(SEED), STATE_MUTANTS)]
    read = [read_state(text) for _, text in mutants]
    assert 0 < sum(read) < len(mutants)
    # A model and its mf1 plan on the register of each state.
    files = {}
    for i, h in enumerate(SUMS):
        n = h.n_qubits
        files[n] = (tmp_path / f"h{i}.txt", tmp_path / f"plan{i}.json")
        files[n][0].write_text(serialize_hamiltonian(h))
        files[n][1].write_text(serialize_plan(greedy_partition(h)))
    path = tmp_path / "state.txt"
    for n, text in mutants[: len(FIXED_STATES) + STATE_COMMANDS]:
        path.write_text(text)
        h_path, plan_path = files.get(n, files[2])
        for args in (["variance", str(h_path)],
                     ["measure", "--plan", str(plan_path), "--shots", "8", "--seed", "1"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([*args, "--state", str(path)])
            assert_one_outcome(capsys, code)
            # The notice comes only with a state that is read.
            assert renormalizing(caught) and not (caught and code), text[:200]
