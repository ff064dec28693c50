"""Command-line front end.

Subcommands cover the full pipeline: inspect a Hamiltonian file,
group it, build measurement plans, and sample them.  Every run that
involves randomness takes its seed on the command line, so outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from . import hamio
from .meanfield import _l_values, verify_mf
from .partition import PartitionPlan, greedy_partition, validate_plan
from .pauli import PauliSum
from .qwc import qwc_partition
from .simulator import estimate_energy, expectation, to_dense, variance

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfpart",
        description="Partition Hamiltonians into mean-field-measurable fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("hamiltonian", help="Hamiltonian term-list file")
        return p

    command("info", "qubit/term counts and the per-qubit l table")
    command("group-qwc", "qubit-wise commuting grouping")

    p = command("partition", "build a mean-field measurement plan")
    p.add_argument("--output", help="write the plan JSON here")
    p.add_argument("--level", choices=("mf1", "mf2"), default="mf1")

    command("verify-mf", "check mean-field measurability")

    p = command("variance", "analytic expectation and variance in a state")
    p.add_argument("--state", required=True, help="statevector file")

    p = sub.add_parser("measure", help="sample a plan and report estimates")
    p.add_argument("--plan", required=True, help="plan JSON from 'partition'")
    p.add_argument("--state", required=True, help="statevector file")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", help="write the JSON report here")

    command("spectrum", "dense eigenvalues (small registers)")
    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse(parse, path: str):
    """parse(text of the file); parse errors name the file."""
    try:
        return parse(_read(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_hamiltonian(args: argparse.Namespace) -> PauliSum:
    return _parse(hamio.parse_hamiltonian, args.hamiltonian)


def _cmd_info(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    ls = _l_values(h, range(h.n_qubits))
    print(f"qubits: {h.n_qubits}")
    print(f"terms: {h.n_terms}")
    print("qubit  l")
    for q, l in ls.items():
        print(f"{q:5d}  {l}")
    return 0


def _cmd_group_qwc(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    grouping = qwc_partition(h)
    print(f"groups: {grouping.n_groups}")
    for gi, group in enumerate(grouping.groups):
        labels = ", ".join(str(w) for w, _ in group.sorted_terms())
        print(f"group {gi}: {group.n_terms} terms ({labels})")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    plan = greedy_partition(h, level=args.level)
    problems = validate_plan(plan)
    baseline = qwc_partition(h)
    print(f"fragments: {plan.n_fragments}")
    print(f"qwc baseline: {baseline.n_groups}")
    for fi, frag in enumerate(plan.fragments):
        tag = " (entangled subset %s)" % (frag.entangler.subset,) if frag.entangler else ""
        order = ",".join(map(str, frag.certificate.qubit_order))
        print(f"fragment {fi}: {frag.hamiltonian.n_terms} terms, chain [{order}]{tag}")
    if args.output:
        _write(args.output, hamio.serialize_plan(plan))
        print(f"plan written to {args.output}")
    if problems:
        for problem in problems:
            print(f"validation: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_mf(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    cert = verify_mf(h)
    if cert is None:
        print("mean-field measurable: no")
        return 1
    order = ",".join(map(str, cert.qubit_order))
    print("mean-field measurable: yes")
    print(f"chain: [{order}]")
    print(f"branches: {cert.n_branches}")
    return 0


def _cmd_variance(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    psi = _parse(hamio.parse_state, args.state)
    print(f"expectation: {expectation(h, psi)!r}")
    print(f"variance: {variance(h, psi)!r}")
    return 0


def _load_plan(path: str) -> PartitionPlan:
    """A parsed plan that passes validate_plan.

    validate_plan checks every branch, so samples follow checked
    certificates only.
    """
    plan = _parse(hamio.parse_plan, path)
    problems = validate_plan(plan)
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"{path}: plan fails validation: {problems[0]}{more}")
    return plan


def _cmd_measure(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    psi = _parse(hamio.parse_state, args.state)
    if plan.source.n_qubits != psi.n_qubits:
        raise ValueError(
            f"plan acts on {plan.source.n_qubits} qubits, state on {psi.n_qubits}"
        )
    report = estimate_energy(plan, psi, args.shots, args.seed)
    print(f"shots per fragment: {report.shots}")
    print("frag      mean       var     exact  exact var")
    for est in report.fragments:
        print(
            f"{est.index:4d} {est.sample_mean:9.5f} {est.sample_variance:9.5f}"
            f" {est.analytic_expectation:9.5f} {est.analytic_variance:10.5f}"
        )
    print(f"energy estimate: {report.energy_estimate!r}")
    print(f"summed variance: {report.summed_variance!r}")
    print(f"analytic expectation: {report.analytic_expectation!r}")
    print(f"analytic summed variance: {report.analytic_summed_variance!r}")
    if args.output:
        _write(args.output, json.dumps(asdict(report), indent=2) + "\n")
        print(f"report written to {args.output}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    h = _load_hamiltonian(args)
    evals = np.linalg.eigvalsh(to_dense(h))
    for value in evals:
        print(repr(float(value)))
    return 0


_HANDLERS = {
    "info": _cmd_info,
    "group-qwc": _cmd_group_qwc,
    "partition": _cmd_partition,
    "verify-mf": _cmd_verify_mf,
    "variance": _cmd_variance,
    "measure": _cmd_measure,
    "spectrum": _cmd_spectrum,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
