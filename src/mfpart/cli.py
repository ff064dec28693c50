"""Command-line front end.

Subcommands cover the full pipeline: inspect a Hamiltonian file,
group it, build measurement plans, and sample them.  Every run that
involves randomness takes its seed on the command line, so outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import hamio
from .entangler import MAX_SUBSET_SIZE
from .meanfield import GRAM_TOL_SCALE, compute_l, decompose_by_qubit, verify_mf
from .partition import PartitionPlan, greedy_partition, validate_plan
from .pauli import PauliSum
from .qwc import qwc_partition
from .simulator import StateVector, estimate_energy, expectation, to_dense, variance

__all__ = ["main"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    hamiltonian_path: str | None
    plan_path: str | None
    state_path: str | None
    level: str
    shots: int
    seed: int | None
    tolerance: float
    output: str | None
    max_entangler_qubits: int


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfpart",
        description="Partition Hamiltonians into mean-field-measurable fragments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, hamiltonian=True):
        if hamiltonian:
            p.add_argument("hamiltonian", help="Hamiltonian term-list file")
        p.add_argument(
            "--tolerance",
            type=float,
            default=GRAM_TOL_SCALE,
            help="relative tolerance scale for rank and kernel decisions",
        )
        p.add_argument("--output", help="write the machine-readable result here")

    add_common(sub.add_parser("info", help="qubit/term counts and the per-qubit l table"))
    add_common(sub.add_parser("group-qwc", help="qubit-wise commuting grouping"))

    p = sub.add_parser("partition", help="build a mean-field measurement plan")
    add_common(p)
    p.add_argument("--level", choices=("mf1", "mf2"), default="mf1")
    p.add_argument(
        "--max-entangler-qubits",
        type=int,
        choices=(0, MAX_SUBSET_SIZE),
        default=MAX_SUBSET_SIZE,
        help="0 disables entangling corrections at level mf2",
    )

    add_common(sub.add_parser("verify-mf", help="check mean-field measurability"))

    p = sub.add_parser("variance", help="analytic expectation and variance in a state")
    add_common(p)
    p.add_argument("--state", required=True, help="statevector file")

    p = sub.add_parser("measure", help="sample a plan and report estimates")
    p.add_argument("--plan", required=True, help="plan JSON from 'partition'")
    p.add_argument("--state", required=True, help="statevector file")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", help="write the JSON report here")

    add_common(sub.add_parser("spectrum", help="dense eigenvalues (small registers)"))
    return parser


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_hamiltonian(cfg: RunConfig) -> PauliSum:
    try:
        return hamio.parse_hamiltonian(_read(cfg.hamiltonian_path))
    except ValueError as exc:
        raise ValueError(f"{cfg.hamiltonian_path}: {exc}") from None


def _load_state(path: str) -> StateVector:
    try:
        return hamio.parse_state(_read(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_info(cfg: RunConfig) -> int:
    h = _load_hamiltonian(cfg)
    print(f"qubits: {h.n_qubits}")
    print(f"terms: {h.n_terms}")
    print("qubit  l")
    for q in range(h.n_qubits):
        gram = compute_l(decompose_by_qubit(h, q), cfg.tolerance)
        print(f"{q:5d}  {gram.l}")
    return 0


def _cmd_group_qwc(cfg: RunConfig) -> int:
    h = _load_hamiltonian(cfg)
    grouping = qwc_partition(h)
    print(f"groups: {grouping.n_groups}")
    for gi, group in enumerate(grouping.groups):
        labels = ", ".join(str(w) for w, _ in group.sorted_terms())
        print(f"group {gi}: {group.n_terms} terms ({labels})")
    return 0


def _cmd_partition(cfg: RunConfig) -> int:
    h = _load_hamiltonian(cfg)
    plan = greedy_partition(
        h,
        level=cfg.level,
        tol_scale=cfg.tolerance,
        max_entangler_qubits=cfg.max_entangler_qubits,
    )
    problems = validate_plan(plan)
    baseline = qwc_partition(h)
    print(f"fragments: {plan.n_fragments}")
    print(f"qwc baseline: {baseline.n_groups}")
    for fi, frag in enumerate(plan.fragments):
        tag = " (entangled subset %s)" % (frag.entangler.subset,) if frag.entangler else ""
        order = ",".join(map(str, frag.certificate.qubit_order))
        print(f"fragment {fi}: {frag.hamiltonian.n_terms} terms, chain [{order}]{tag}")
    if cfg.output:
        _write(cfg.output, hamio.serialize_plan(plan))
        print(f"plan written to {cfg.output}")
    if problems:
        for problem in problems:
            print(f"validation: {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_mf(cfg: RunConfig) -> int:
    h = _load_hamiltonian(cfg)
    cert = verify_mf(h, cfg.tolerance)
    if cert is None:
        print("mean-field measurable: no")
        return 1
    order = ",".join(map(str, cert.qubit_order))
    print("mean-field measurable: yes")
    print(f"chain: [{order}]")
    print(f"branches: {cert.n_branches}")
    return 0


def _cmd_variance(cfg: RunConfig) -> int:
    h = _load_hamiltonian(cfg)
    psi = _load_state(cfg.state_path)
    print(f"expectation: {expectation(h, psi)!r}")
    print(f"variance: {variance(h, psi)!r}")
    return 0


def _load_plan(path: str) -> PartitionPlan:
    """A parsed plan that passes validate_plan, so samples follow checked certificates."""
    try:
        plan = hamio.parse_plan(_read(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    problems = validate_plan(plan)
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"{path}: plan fails validation: {problems[0]}{more}")
    return plan


def _cmd_measure(cfg: RunConfig) -> int:
    plan = _load_plan(cfg.plan_path)
    psi = _load_state(cfg.state_path)
    if plan.source.n_qubits != psi.n_qubits:
        raise ValueError(
            f"plan acts on {plan.source.n_qubits} qubits, state on {psi.n_qubits}"
        )
    report = estimate_energy(plan, psi, cfg.shots, cfg.seed)
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
    if cfg.output:
        import json

        _write(cfg.output, json.dumps(asdict(report), indent=2) + "\n")
        print(f"report written to {cfg.output}")
    return 0


def _cmd_spectrum(cfg: RunConfig) -> int:
    h = _load_hamiltonian(cfg)
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
    cfg = RunConfig(
        command=args.command,
        hamiltonian_path=getattr(args, "hamiltonian", None),
        plan_path=getattr(args, "plan", None),
        state_path=getattr(args, "state", None),
        level=getattr(args, "level", "mf1"),
        shots=getattr(args, "shots", 0),
        seed=getattr(args, "seed", None),
        tolerance=getattr(args, "tolerance", GRAM_TOL_SCALE),
        output=getattr(args, "output", None),
        max_entangler_qubits=getattr(args, "max_entangler_qubits", MAX_SUBSET_SIZE),
    )
    try:
        return _HANDLERS[cfg.command](cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
