"""Text formats: Hamiltonian term lists, statevectors, and plan JSON.

Hamiltonian files are line-oriented: an optional ``qubits: N`` header,
then one term per line as ``<coefficient> [<axis><index>]...`` with axes
X/Y/Z and zero-based qubit indices (``1.5 X0 Z2``).  A bare coefficient
is an identity term and ``#`` starts a comment.  State files hold one
``<re> <im>`` amplitude pair per line, index little-endian in qubit 0.

Plans are serialized to JSON with fixed key order so diffs stay
readable; floats pass through ``repr`` and round-trip exactly.
"""

from __future__ import annotations

import functools
import json
import math
import re
import warnings

import numpy as np

from .entangler import EntanglerSpec, KQubitOp, _check_subset, _check_word
from .meanfield import (
    MFCertificate,
    ProductTerminalMap,
    ReductionStep,
    UniformBranchOps,
)
from .partition import MFFragment, PartitionPlan
from .pauli import PauliSum, PauliWord, SingleQubitOp
from .simulator import StateVector

__all__ = [
    "parse_hamiltonian",
    "serialize_hamiltonian",
    "parse_state",
    "serialize_state",
    "serialize_plan",
    "parse_plan",
]

_HEADER_RE = re.compile(r"qubits\s*:\s*(\d+)$")
_FACTOR_RE = re.compile(r"([XYZxyz])(\d+)$")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _factors(tokens: list[str]) -> dict[int, str]:
    """Qubit-to-axis map of factor tokens such as ``['X0', 'z3']``."""
    axes: dict[int, str] = {}
    for tok in tokens:
        factor = _FACTOR_RE.match(tok)
        if factor is None:
            raise ValueError(f"malformed factor {tok!r}")
        qubit = int(factor.group(2))
        if qubit in axes:
            raise ValueError(f"qubit {qubit} repeated in one term")
        axes[qubit] = factor.group(1).upper()
    return axes


def parse_hamiltonian(text: str) -> PauliSum:
    """Parse a Hamiltonian term list; errors carry 1-based line numbers."""
    declared: int | None = None
    parsed: list[tuple[int, float, dict[int, str]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        header = _HEADER_RE.match(line)
        if header:
            if declared is not None:
                raise ValueError(f"line {ln}: duplicate qubits header")
            if parsed:
                raise ValueError(f"line {ln}: qubits header must precede terms")
            declared = int(header.group(1))
            continue
        tokens = line.split()
        try:
            coeff = float(tokens[0])
        except ValueError:
            raise ValueError(f"line {ln}: malformed coefficient {tokens[0]!r}") from None
        if not math.isfinite(coeff):
            raise ValueError(f"line {ln}: coefficient {tokens[0]!r} is not finite")
        try:
            axes = _factors(tokens[1:])
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
        parsed.append((ln, coeff, axes))
    if not parsed:
        raise ValueError("no terms found")
    highest = max((q for _, _, axes in parsed for q in axes), default=-1)
    if declared is not None:
        for ln, _, axes in parsed:
            if axes and max(axes) >= declared:
                raise ValueError(
                    f"line {ln}: qubit {max(axes)} outside declared range of {declared}"
                )
        n_qubits = declared
    else:
        n_qubits = highest + 1 if highest >= 0 else 1
    return PauliSum.from_terms(
        n_qubits,
        ((PauliWord.from_axes(n_qubits, axes), coeff) for _, coeff, axes in parsed),
        prune=None,
    )


def serialize_hamiltonian(h: PauliSum) -> str:
    lines = [f"qubits: {h.n_qubits}"]
    for word, coeff in h.sorted_terms():
        if word.is_identity:
            lines.append(repr(coeff))
        else:
            lines.append(f"{coeff!r} {word.label()}")
    return "\n".join(lines) + "\n"


def parse_state(text: str) -> StateVector:
    rows: list[complex] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected '<re> <im>', got {line!r}")
        try:
            rows.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ValueError(f"line {ln}: malformed amplitude {line!r}") from None
        if not np.isfinite(rows[-1]):
            raise ValueError(f"line {ln}: amplitude {line!r} is not finite")
    if not rows:
        raise ValueError("no amplitudes found")
    n_qubits = (len(rows) - 1).bit_length()
    if len(rows) != 1 << n_qubits:
        raise ValueError(f"{len(rows)} amplitudes is not a power of two")
    amps = np.array(rows, dtype=complex)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state norm {norm} is too far from 1")
    if abs(norm - 1.0) > 1e-10:
        warnings.warn(f"renormalizing state with norm {norm}", stacklevel=2)
        amps = amps / norm
    return StateVector(n_qubits, amps)


def serialize_state(psi: StateVector) -> str:
    return "\n".join(
        f"{float(a.real)!r} {float(a.imag)!r}" for a in psi.amplitudes
    ) + "\n"


def _prefix_key(prefix: tuple[int, ...]) -> str:
    return "".join("+" if s == 1 else "-" for s in prefix)


@functools.lru_cache(maxsize=4096)
def _outcomes(key: str) -> tuple[int, ...] | None:
    """The outcome prefix a key such as '+-+' stands for, or None."""
    if key.strip("+-"):
        return None
    return tuple(1 if c == "+" else -1 for c in key)


def _prefix_from_key(key: str, path: tuple) -> tuple[int, ...]:
    prefix = _outcomes(key)
    if prefix is None:
        raise ValueError(f"plan field {_name(path)!r}: key {key!r} is not a run of + and -")
    return prefix


# Field paths are nested pairs (parent, key or index), turned into names
# such as 'fragments[0].terms' only for an error message.


def _name(path: tuple) -> str:
    if not path:
        return ""
    parent, part = path
    head = _name(parent)
    if isinstance(part, int):
        return f"{head}[{part}]"
    return f"{head}.{part}" if head else part


_JSON_TYPES = ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
               (str, "a string"), (list, "an array"), (dict, "an object"))


def _json_type(value) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)), "null")


def _check(value, kind: type, path: tuple):
    """The value, if it has the JSON type ``kind`` (float: any finite number)."""
    if type(value) is kind or (kind is float and type(value) is int):
        # json reads NaN, Infinity and overflowing literals such as 1e999.
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"plan field {_name(path)!r} must be finite, not {value!r}")
        return value
    expected = dict(_JSON_TYPES)[kind]
    raise ValueError(f"plan field {_name(path)!r} must be {expected}, not {_json_type(value)}")


def _get(obj: dict, key: str, kind: type, path: tuple):
    """obj[key] checked against a JSON type; errors name the field."""
    if key not in obj:
        raise ValueError(f"plan field {_name((path, key))!r} is missing")
    return _check(obj[key], kind, (path, key))


def _items(obj: dict, key: str, kind: type, path: tuple) -> list[tuple[tuple, object]]:
    """(path, item) pairs of a list field whose items have one JSON type."""
    here = (path, key)
    return [
        ((here, i), _check(item, kind, (here, i)))
        for i, item in enumerate(_get(obj, key, list, path))
    ]


def _terms_payload(h: PauliSum) -> list[dict]:
    return [
        {"word": word.label(), "coeff": float(coeff)} for word, coeff in h.sorted_terms()
    ]


def _sum_from_payload(n_qubits: int, doc: dict, key: str, path: tuple) -> PauliSum:
    terms = []
    for here, row in _items(doc, key, dict, path):
        word = _word_from_label(n_qubits, _get(row, "word", str, here), (here, "word"))
        terms.append((word, _get(row, "coeff", float, here)))
    return PauliSum.from_terms(n_qubits, terms, prune=None)


def _word_from_label(n_qubits: int, label: str, path: tuple) -> PauliWord:
    if label == "I":
        return PauliWord.identity(n_qubits)
    try:
        return PauliWord.from_axes(n_qubits, _factors(label.split()))
    except ValueError as exc:
        raise ValueError(f"plan field {_name(path)!r}: word {label!r}: {exc}") from None


def _step_payload(step: ReductionStep) -> dict:
    if isinstance(step.ops, UniformBranchOps):
        return {"qubit": step.qubit, "uniform_op": list(step.ops.op.bloch)}
    return {
        "qubit": step.qubit,
        "ops": {
            _prefix_key(prefix): list(step.ops[prefix].bloch) for prefix in step.ops
        },
    }


def _certificate_payload(cert: MFCertificate) -> dict:
    payload = {
        "n_qubits": cert.n_qubits,
        "qubit_order": list(cert.qubit_order),
        "steps": [_step_payload(step) for step in cert.steps],
    }
    tv = cert.terminal_values
    if isinstance(tv, ProductTerminalMap):
        payload["terminal_products"] = [
            {"positions": list(positions), "coeff": coeff} for positions, coeff in tv.terms
        ]
    else:
        payload["terminal_values"] = {_prefix_key(o): float(tv[o]) for o in tv}
    return payload


def _bloch(value, path: tuple) -> tuple:
    if type(value) is not list or len(value) != 3:
        raise ValueError(f"plan field {_name(path)!r} must be an array of 3 numbers")
    return tuple(_check(v, float, (path, i)) for i, v in enumerate(value))


def _certificate_from_payload(payload: dict, path: tuple) -> MFCertificate:
    steps = []
    for depth, (here, row) in enumerate(_items(payload, "steps", dict, path)):
        qubit = _get(row, "qubit", int, here)
        if "uniform_op" in row:
            op_path = (here, "uniform_op")
            op = _named(SingleQubitOp, op_path, qubit, _bloch(row["uniform_op"], op_path))
            ops = UniformBranchOps(depth, op)
        else:
            ops_path = (here, "ops")
            ops = {
                _prefix_from_key(key, ops_path): _named(
                    SingleQubitOp, (ops_path, key), qubit, _bloch(bloch, (ops_path, key))
                )
                for key, bloch in _get(row, "ops", dict, here).items()
            }
        steps.append(ReductionStep(qubit, ops))
    order = [q for _, q in _items(payload, "qubit_order", int, path)]
    measured = [step.qubit for step in steps]
    if order != measured:
        name = _name((path, "qubit_order"))
        raise ValueError(f"plan field {name!r} is {order}, but the steps measure {measured}")
    if "terminal_products" in payload:
        products = []
        for here, row in _items(payload, "terminal_products", dict, path):
            positions = tuple(p for _, p in _items(row, "positions", int, here))
            if not all(0 <= p < len(steps) for p in positions):
                name = _name((here, "positions"))
                raise ValueError(f"plan field {name!r} names a step outside the {len(steps)} steps")
            products.append((positions, _get(row, "coeff", float, here)))
        terminal = ProductTerminalMap(len(steps), tuple(products))
    else:
        values_path = (path, "terminal_values")
        terminal = {
            _prefix_from_key(key, values_path): _check(value, float, (values_path, key))
            for key, value in _get(payload, "terminal_values", dict, path).items()
        }
    return MFCertificate(_get(payload, "n_qubits", int, path), tuple(steps), terminal)


def _entangler_payload(spec: EntanglerSpec) -> dict:
    return {
        "subset": list(spec.subset),
        "unitary_re": spec.unitary.real.tolist(),
        "unitary_im": spec.unitary.imag.tolist(),
        "origin": {
            "n_qubits": spec.origin.n_qubits,
            "subset": list(spec.origin.subset),
            "coefficients": {
                word.label(): float(coeff)
                for word, coeff in sorted(
                    spec.origin.coefficients.items(), key=lambda kv: kv[0].sort_key()
                )
            },
        },
    }


def _matrix(payload: dict, key: str, path: tuple) -> np.ndarray:
    value = _get(payload, key, list, path)
    name = _name((path, key))
    try:
        matrix = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"plan field {name!r} must be a matrix of numbers") from None
    if not np.isfinite(matrix).all():
        raise ValueError(f"plan field {name!r} must be a matrix of finite numbers")
    return matrix


def _named(check, path: tuple, *args):
    """check(*args), with a ValueError re-raised under the field's name."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"plan field {_name(path)!r}: {exc}") from None


def _entangler_from_payload(payload: dict, path: tuple, n: int) -> EntanglerSpec:
    unitary = _matrix(payload, "unitary_re", path) + 1j * _matrix(payload, "unitary_im", path)
    origin_path = (path, "origin")
    origin_data = _get(payload, "origin", dict, path)
    if (origin_n := _get(origin_data, "n_qubits", int, origin_path)) != n:
        name = _name((origin_path, "n_qubits"))
        raise ValueError(f"plan field {name!r} is {origin_n}, but the plan has {n} qubits")
    origin_subset = tuple(q for _, q in _items(origin_data, "subset", int, origin_path))
    _named(_check_subset, (origin_path, "subset"), n, origin_subset)
    coeff_path = (origin_path, "coefficients")
    coefficients = {}
    for label, coeff in _get(origin_data, "coefficients", dict, origin_path).items():
        word = _word_from_label(n, label, (coeff_path, label))
        _named(_check_word, (coeff_path, label), word, origin_subset)
        coefficients[word] = _check(coeff, float, (coeff_path, label))
    # The subset and every word passed; what the operator can still refuse
    # is its coefficients as a whole.
    origin = _named(KQubitOp, coeff_path, n, origin_subset, coefficients)
    subset = tuple(q for _, q in _items(payload, "subset", int, path))
    if subset != origin.subset:
        name = _name((path, "subset"))
        raise ValueError(f"plan field {name!r} is {list(subset)}, but the origin acts on "
                         f"{list(origin.subset)}")
    return _named(EntanglerSpec, path, subset, unitary, origin)


def serialize_plan(plan: PartitionPlan) -> str:
    doc = {
        "format": "mf-partition-plan",
        "version": 1,
        "level": plan.level,
        "n_qubits": plan.source.n_qubits,
        "n_fragments": plan.n_fragments,
        "source_terms": _terms_payload(plan.source),
        "fragments": [
            {
                "terms": _terms_payload(frag.hamiltonian),
                "certificate": _certificate_payload(frag.certificate),
                "entangler": (
                    None if frag.entangler is None else _entangler_payload(frag.entangler)
                ),
            }
            for frag in plan.fragments
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_plan(text: str) -> PartitionPlan:
    """Rebuild a plan from :func:`serialize_plan` output.

    A missing or mistyped field, or a header that contradicts the rest
    of the plan (version, level, fragment count, a chain's qubit order),
    raises ValueError naming the field.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "mf-partition-plan":
        raise ValueError("not a partition-plan document")
    n = _get(doc, "n_qubits", int, ())
    version = _get(doc, "version", int, ())
    if version != 1:
        raise ValueError(f"plan field 'version' must be 1, not {version}")
    level = _get(doc, "level", str, ())
    if level not in ("mf1", "mf2"):
        raise ValueError(f"plan field 'level' must be 'mf1' or 'mf2', not {level!r}")
    fragments = []
    for here, row in _items(doc, "fragments", dict, ()):
        spec = None
        # A null entangler is allowed; a missing one is reported by _get.
        if row.get("entangler", {}) is not None:
            payload = _get(row, "entangler", dict, here)
            if level == "mf1":
                raise ValueError(f"plan field {_name((here, 'entangler'))!r} must be null at mf1")
            spec = _entangler_from_payload(payload, (here, "entangler"), n)
        certificate = _certificate_from_payload(
            _get(row, "certificate", dict, here), (here, "certificate")
        )
        fragments.append(
            MFFragment(
                hamiltonian=_sum_from_payload(n, row, "terms", here),
                certificate=certificate,
                entangler=spec,
            )
        )
    listed = _get(doc, "n_fragments", int, ())
    if listed != len(fragments):
        raise ValueError(f"plan field 'n_fragments' is {listed}, but {len(fragments)} are listed")
    source = _sum_from_payload(n, doc, "source_terms", ())
    return PartitionPlan(source=source, fragments=tuple(fragments), level=level)
