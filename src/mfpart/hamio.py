"""Text formats: Hamiltonian term lists, statevectors, and plan JSON.

Hamiltonian files are line-oriented: an optional ``qubits: N`` header,
then one term per line as ``<coefficient> [<axis><index>]...`` with axes
X/Y/Z and zero-based qubit indices (``1.5 X0 Z2``).  A bare coefficient
is an identity term and ``#`` starts a comment.  State files hold one
``<re> <im>`` amplitude pair per line, index little-endian in qubit 0.

Plans are serialized to JSON with fixed key order so diffs stay
readable; floats pass through ``repr`` and round-trip exactly.  The
output equals ``json.dumps(payload, indent=2)``, written by a small
recursive writer rather than that encoder's per-element generators.
"""

from __future__ import annotations

import functools
import json
import math
import re
import struct
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .entangler import EntanglerSpec, KQubitOp, _check_subset, _check_word
from .meanfield import (
    BranchTable,
    MFCertificate,
    ProductTerminalMap,
    ReductionStep,
    UniformBranchOps,
    _made_op,
    _prefix_index,
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

#: The largest register a Hamiltonian file or a plan may name (``info`` walks every qubit).
_MAX_QUBITS = 1024

# Leading zeros are dropped: more than four digits are past the bound, and are not given to int().
_HEADER_RE = re.compile(r"qubits\s*:\s*0*(\d+)$")
_FACTOR_RE = re.compile(r"([XYZxyz])0*(\d+)$")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _factors(tokens: list[str]) -> dict[int, str]:
    """Qubit-to-axis map of factor tokens such as ``['X0', 'z3']``."""
    axes: dict[int, str] = {}
    for tok in tokens:
        factor = _FACTOR_RE.match(tok)
        if factor is None:
            raise ValueError(f"malformed factor {tok!r}")
        digits = factor.group(2)
        if len(digits) > 4 or int(digits) >= _MAX_QUBITS:
            shown = digits if len(digits) <= 30 else f"index of {len(digits)} digits"
            raise ValueError(f"qubit {shown} is past the {_MAX_QUBITS}-qubit register bound")
        qubit = int(digits)
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
            declared = int(d) if len(d := header.group(1)) <= 4 else _MAX_QUBITS + 1
            if declared > _MAX_QUBITS:
                raise ValueError(f"line {ln}: header past the {_MAX_QUBITS}-qubit register bound")
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
    with np.errstate(over="ignore"):  # inf past the float range, refused below
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


# Prefix keys repeat across fragments and plans: each is made once.  Word
# labels are plan data and live in a dict of one serialize_plan call,
# made at a word's first sight: no label is empty, so "get(word) or"
# stops at a kept one.
@functools.lru_cache(maxsize=4096)
def _prefix_key(prefix: tuple[int, ...]) -> str:
    return "".join("+" if s == 1 else "-" for s in prefix)


def _table(depth: int, rows: dict, path: tuple, read) -> BranchTable:
    """A table field keyed by runs of + and -, each value read by ``read(value, at)``.

    The 2^depth outcome prefixes may be listed in any order, and the values
    make a :class:`BranchTable` in bit order; a field that misses or adds a
    prefix raises ValueError naming the field.
    """
    for key in rows:
        if key.strip("+-"):
            raise ValueError(f"plan field {_name(path)!r}: key {key!r} is not a run of + and -")
        if len(key) != depth:
            raise ValueError(f"plan field {_name(path)!r}: key {key!r} is not of length {depth}")
    # Distinct keys of one length: the right count is every prefix once.
    if len(rows) != 1 << depth:
        raise ValueError(f"plan field {_name(path)!r} lists {len(rows)} of {1 << depth} prefixes")
    keys = map(_prefix_key, _prefix_index(depth))
    return BranchTable(depth, [read(rows[key], (path, key)) for key in keys])


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
_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _json_type(value) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)), "null")


def _check(value, kind: type, path: tuple):
    """The value, if it has the JSON type ``kind`` (float: any finite number, as a float)."""
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"plan field {_name(path)!r} must be finite, "
                             f"not an integer of {len(str(abs(value)))} digits") from None
    if type(value) is kind:
        # json reads NaN, Infinity and overflowing literals such as 1e999.
        if kind is float and not math.isfinite(value):
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


def _terms_payload(h: PauliSum, labels: dict) -> list[dict]:
    return [
        {"word": labels.get(word) or labels.setdefault(word, word.label()), "coeff": float(coeff)}
        for word, coeff in h.sorted_terms()
    ]


def _sum_from_payload(words: dict, n_qubits: int, doc: dict, key: str, path: tuple) -> PauliSum:
    terms = []
    for here, row in _items(doc, key, dict, path):
        word = _word_from_label(words, n_qubits, _get(row, "word", str, here), (here, "word"))
        terms.append((word, _get(row, "coeff", float, here)))
    return PauliSum.from_terms(n_qubits, terms, prune=None)


def _word_from_label(words: dict, n_qubits: int, label: str, path: tuple) -> PauliWord:
    """The word of a label, decoded once per label and kept in ``words``."""
    word = words.get(label)
    if word is None:
        try:
            axes = _factors([] if label == "I" else label.split())
            word = words[label] = PauliWord.from_axes(n_qubits, axes)
        except ValueError as exc:
            raise ValueError(f"plan field {_name(path)!r}: word {label!r}: {exc}") from None
    return word


def _step_payload(step: ReductionStep) -> dict:
    # Each op's own Bloch tuple, which _write renders once per object.
    if isinstance(step.ops, UniformBranchOps):
        return {"qubit": step.qubit, "uniform_op": step.ops.op.bloch}
    return {
        "qubit": step.qubit,
        "ops": {_prefix_key(prefix): op.bloch for prefix, op in step.ops.items()},
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
        payload["terminal_values"] = {_prefix_key(o): float(v) for o, v in tv.items()}
    return payload


def _bloch(value, path: tuple) -> tuple:
    if type(value) is not list or len(value) != 3:
        raise ValueError(f"plan field {_name(path)!r} must be an array of 3 numbers")
    return tuple(_check(v, float, (path, i)) for i, v in enumerate(value))


def _read_op(made: dict, qubit: int, value, path: tuple) -> SingleQubitOp:
    """The op of a Bloch field: its entries checked, then one op made and
    checked per qubit and bit pattern of the three floats (see
    :func:`mfpart.meanfield._made_op`)."""
    return _named(_made_op, path, made, qubit, _bloch(value, path))


def _read_value(made: dict, value, path: tuple) -> float:
    """A terminal value, checked, then one float object per bit pattern."""
    value = _check(value, float, path)
    return made.setdefault(struct.pack("d", value), value)


def _certificate_from_payload(
    payload: dict, path: tuple, ops: dict, values: dict
) -> MFCertificate:
    """A certificate whose ops and terminal values are shared through ``ops`` and ``values``."""
    steps = []
    for depth, (here, row) in enumerate(_items(payload, "steps", dict, path)):
        qubit = _get(row, "qubit", int, here)
        if "uniform_op" in row:
            step_ops = UniformBranchOps(
                depth, _read_op(ops, qubit, row["uniform_op"], (here, "uniform_op"))
            )
        else:
            step_ops = _table(
                depth, _get(row, "ops", dict, here), (here, "ops"),
                lambda value, at: _read_op(ops, qubit, value, at),
            )
        steps.append(ReductionStep(qubit, step_ops))
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
        rows = _get(payload, "terminal_values", dict, path)
        terminal = _table(
            len(steps), rows, (path, "terminal_values"),
            lambda value, at: _read_value(values, value, at),
        )
    return MFCertificate(_get(payload, "n_qubits", int, path), tuple(steps), terminal)


def _entangler_payload(spec: EntanglerSpec, labels: dict) -> dict:
    return {
        "subset": list(spec.subset),
        "unitary_re": spec.unitary.real.tolist(),
        "unitary_im": spec.unitary.imag.tolist(),
        "origin": {
            "n_qubits": spec.origin.n_qubits,
            "subset": list(spec.origin.subset),
            "coefficients": {
                labels.get(word) or labels.setdefault(word, word.label()): float(coeff)
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
    except OverflowError:  # an integer literal past the float range
        raise ValueError(f"plan field {name!r} must be a matrix of finite numbers") from None
    if not np.isfinite(matrix).all():
        raise ValueError(f"plan field {name!r} must be a matrix of finite numbers")
    return matrix


def _named(check, path: tuple, *args):
    """check(*args), with a ValueError re-raised under the field's name."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ValueError(f"plan field {_name(path)!r}: {exc}") from None


def _entangler_from_payload(payload: dict, path: tuple, n: int, words: dict) -> EntanglerSpec:
    # Set part by part, the unitary keeps the sign of every zero; re + 1j * im does not.
    unitary = _matrix(payload, "unitary_re", path).astype(complex)
    imag = _matrix(payload, "unitary_im", path)
    if imag.shape != unitary.shape:
        name = _name((path, "unitary_im"))
        raise ValueError(f"plan field {name!r} has shape {imag.shape}, but "
                         f"'unitary_re' has {unitary.shape}")
    unitary.imag = imag
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
        word = _word_from_label(words, n, label, (coeff_path, label))
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


def _write(value, indent: str, out: list[str], memo: dict) -> None:
    """Append ``value`` as ``json.dumps(indent=2)`` writes it at this indent,
    with json.encoder's dispatch; keys must be strings, as plan keys are.

    A tuple is rendered once per object and indent and kept in ``memo``,
    so a shared op's Bloch tuple is written from one string; the caller
    keeps every value alive while ``memo`` is in use.  A list or dict of
    finite floats is rendered with one join.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append("NaN" if value != value else _INFINITIES.get(value) or float.__repr__(value))
    elif isinstance(value, tuple):
        text = memo.get(key := (id(value), indent))
        if text is None:
            part: list[str] = []
            _write_container(value, indent, part, memo)
            text = memo[key] = "".join(part)
        out.append(text)
    elif isinstance(value, (list, dict)):
        _write_container(value, indent, out, memo)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _finite_float(value) -> bool:
    return type(value) is float and math.isfinite(value)


def _write_container(value, indent: str, out: list[str], memo: dict) -> None:
    is_dict = isinstance(value, dict)
    inner = indent + "  "
    sep = ",\n" + inner
    open_, close = ("{", "}") if is_dict else ("[", "]")
    if value and all(map(_finite_float, value.values() if is_dict else value)):
        if is_dict:
            body = sep.join(
                encode_basestring_ascii(key) + ": " + float.__repr__(item)
                for key, item in value.items()
            )
        else:
            body = sep.join(map(float.__repr__, value))
        out.append(f"{open_}\n{inner}{body}\n{indent}{close}")
        return
    out.append(open_)
    for i, item in enumerate(value.items() if is_dict else value):
        out.append(sep if i else "\n" + inner)
        if is_dict:
            key, item = item
            out.append(encode_basestring_ascii(key) + ": ")
        _write(item, inner, out, memo)
    out.append(("\n" + indent if value else "") + close)


def _plan_payload(plan: PartitionPlan) -> dict:
    labels: dict[PauliWord, str] = {}
    return {
        "format": "mf-partition-plan",
        "version": 1,
        "level": plan.level,
        "n_qubits": plan.source.n_qubits,
        "n_fragments": plan.n_fragments,
        "source_terms": _terms_payload(plan.source, labels),
        "fragments": [
            {
                "terms": _terms_payload(frag.hamiltonian, labels),
                "certificate": _certificate_payload(frag.certificate),
                "entangler": (
                    None if frag.entangler is None
                    else _entangler_payload(frag.entangler, labels)
                ),
            }
            for frag in plan.fragments
        ],
    }


def serialize_plan(plan: PartitionPlan) -> str:
    out: list[str] = []
    _write(_plan_payload(plan), "", out, {})
    out.append("\n")
    return "".join(out)


def parse_plan(text: str) -> PartitionPlan:
    """Rebuild a plan from :func:`serialize_plan` output.

    A missing or mistyped field, or a header that contradicts the rest
    of the plan (version, level, fragment count, a chain's qubit order),
    raises ValueError naming the field, as does a table that misses or
    adds an outcome prefix; its prefixes may be listed in any order, and
    it is read into a :class:`~mfpart.meanfield.BranchTable` in bit order.
    Numbers are read as floats, a JSON integer as the float it names.
    Across the plan, each distinct op (qubit and bit pattern of its Bloch
    vector) and terminal value (its bit pattern) is made once and shared,
    so 0.0 and -0.0 never merge, and each word label is decoded once, so
    equal words are one object.  These memos are dicts of the call:
    nothing outlives it but the plan.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("plan is nested too deeply to read") from None
    if not isinstance(doc, dict) or doc.get("format") != "mf-partition-plan":
        raise ValueError("not a partition-plan document")
    n = _get(doc, "n_qubits", int, ())
    if n > _MAX_QUBITS:
        raise ValueError(f"plan field 'n_qubits' is {n}, past the {_MAX_QUBITS}-qubit bound")
    version = _get(doc, "version", int, ())
    if version != 1:
        raise ValueError(f"plan field 'version' must be 1, not {version}")
    level = _get(doc, "level", str, ())
    if level not in ("mf1", "mf2"):
        raise ValueError(f"plan field 'level' must be 'mf1' or 'mf2', not {level!r}")
    fragments = []
    ops: dict[tuple[int, bytes], SingleQubitOp] = {}
    values: dict[bytes, float] = {}
    words: dict[str, PauliWord] = {}
    for here, row in _items(doc, "fragments", dict, ()):
        spec = None
        # A null entangler is allowed; a missing one is reported by _get.
        if row.get("entangler", {}) is not None:
            payload = _get(row, "entangler", dict, here)
            if level == "mf1":
                raise ValueError(f"plan field {_name((here, 'entangler'))!r} must be null at mf1")
            spec = _entangler_from_payload(payload, (here, "entangler"), n, words)
        certificate = _certificate_from_payload(
            _get(row, "certificate", dict, here), (here, "certificate"), ops, values
        )
        fragments.append(
            MFFragment(
                hamiltonian=_sum_from_payload(words, n, row, "terms", here),
                certificate=certificate,
                entangler=spec,
            )
        )
    listed = _get(doc, "n_fragments", int, ())
    if listed != len(fragments):
        raise ValueError(f"plan field 'n_fragments' is {listed}, but {len(fragments)} are listed")
    source = _sum_from_payload(words, n, doc, "source_terms", ())
    return PartitionPlan(source=source, fragments=tuple(fragments), level=level)
