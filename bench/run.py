"""Seeded benchmark of the mfpart pipeline, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload mf1-large --seed 0 --seconds 15 --trace 0

Each workload runs single-process and closed-loop: one sequential pass
``parse_hamiltonian -> greedy_partition -> validate_plan -> serialize_plan``
per model, then ``parse_plan -> parse_state -> estimate_energy`` per
sampled model, then (cli-readme only) the README's ``partition`` and
``measure`` commands as subprocesses.  After a warm-up, passes repeat
while they fit in ``--seconds`` (at least one runs) and each stage's time
is the sum over models of the per-model median.  ``--trace 1`` instead
runs one untraced and one traced pass and reports per-layer call counts
and self times.  The program is imported from ``src/`` of the checkout;
a human-readable report precedes the final JSON line, and the full
report plus the trace spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# OpenBLAS starts one thread per core by default and its idle threads
# spin, so on a shared host with few cores the program's speed follows
# the neighbours' load: on 2 cores, one other busy process slowed the
# mf2-sweep planning pass from about 5 s to 75 s.  One BLAS thread keeps
# runs comparable.  A value already in the environment wins; the report
# records the thread count in effect.  Set before numpy loads, and
# inherited by the set-up and CLI subprocesses.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402

WORKLOADS = ("mf1-large", "mf2-sweep", "estimate-13q", "cli-readme")
#: Fresh set-up processes per run.  They are spread over the run, since
#: the host's speed drifts over seconds and a burst of probes would all
#: see the same drift.
SETUP_REPEATS = 11
SHOTS = 1000
#: Fragments with more branches than this are sampled shot by shot.
CDF_BRANCH_LIMIT = 4096
CLI_PARTITION = ["partition", "model.txt", "--level", "mf2", "--output", "plan.json"]
CLI_MEASURE = ["measure", "--plan", "plan.json", "--state", "ground.txt", "--shots", "2000", "--seed", "7"]


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_program():
    sys.path.insert(0, str(SRC))
    try:
        import mfpart
    except ImportError as exc:
        raise BenchError(f"cannot import mfpart from {SRC}: {exc}") from None
    if not Path(mfpart.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"mfpart was imported from {mfpart.__file__}, not from {SRC}")
    return mfpart


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# -- workloads ------------------------------------------------------------


@dataclass
class Job:
    """One model: planned, and sampled in its state when ``sample`` is set.

    The state also scores the plan: fragment variances are taken in it.
    """

    text: str
    level: str
    state: str
    sample: bool = True
    shots: int = SHOTS
    seed: int = 0


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: list[Job]
    cli_dir: Path | None = None
    transcripts: tuple[str, str] = ("", "")


def _readme_case() -> tuple[str, str, str]:
    """The README model and its partition and measure transcripts."""
    try:
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise BenchError(f"cannot read the README: {exc}") from None

    def block_after(marker: str) -> list[str]:
        try:
            start = lines.index(marker) + 1
        except ValueError:
            raise BenchError(f"README has no line {marker!r}") from None
        end = start
        while end < len(lines) and lines[end] not in ("EOF", "```"):
            end += 1
        return lines[start:end]

    model = "\n".join(block_after("cat > model.txt <<'EOF'")) + "\n"
    partition = "\n".join(block_after("$ mfpart " + " ".join(CLI_PARTITION))) + "\n"
    measure = "\n".join(block_after("$ mfpart " + " ".join(CLI_MEASURE))) + "\n"
    return model, partition, measure


def load(name: str, seed: int, mfpart) -> Workload:
    """Generate the workload's inputs; everything here counts as set-up."""
    if name == "mf1-large":
        text, state = inputs.mf1_large(seed)
        lines = text.splitlines(keepends=True)
        warm = Job("".join(lines[:101]), "mf1", state, sample=False)
        return Workload(name, [Job(text, "mf1", state, sample=False)], [warm])
    if name == "mf2-sweep":
        jobs = [Job(t, "mf2", s, seed=i) for i, (t, s) in enumerate(inputs.mf2_sweep(seed))]
        return Workload(name, jobs, jobs[:5])
    if name == "estimate-13q":
        text, state = inputs.estimate_13q(seed)
        job = Job(text, "mf1", state)
        return Workload(name, [job], [Job(text, "mf1", state, shots=50)])
    if name == "cli-readme":
        model, partition, measure = _readme_case()
        _, ground = mfpart.eigensolve(mfpart.parse_hamiltonian(model))
        ground_text = mfpart.serialize_state(ground)
        workdir = OUT / "cli-readme"
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "model.txt").write_text(model, encoding="utf-8")
        (workdir / "ground.txt").write_text(ground_text, encoding="utf-8")
        job = Job(model, "mf2", ground_text, shots=2000, seed=7)
        return Workload(name, [job], [job], workdir, (partition, measure))
    raise BenchError(f"unknown workload {name!r}")


# -- one pass ---------------------------------------------------------------


@dataclass
class PassResult:
    """Per-job stage times of one pass, and what the pass produced."""

    plan: list[float] = field(default_factory=list)
    estimate: list[float] = field(default_factory=list)
    cli: list[float] = field(default_factory=list)
    plans: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    cli_runs: list = field(default_factory=list)

    @property
    def plan_s(self) -> float:
        return sum(self.plan)

    @property
    def estimate_s(self) -> float:
        return sum(self.estimate)

    @property
    def cli_s(self) -> float:
        return sum(self.cli)


def run_pass(mfpart, jobs: list[Job], wl: Workload, tracer=None) -> PassResult:
    res = PassResult()
    clock = time.perf_counter
    gc.collect()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.run_id = i
        t0 = clock()
        h = mfpart.parse_hamiltonian(job.text)
        plan = mfpart.greedy_partition(h, level=job.level)
        problems = mfpart.validate_plan(plan)
        plan_text = mfpart.serialize_plan(plan)
        res.plan.append(clock() - t0)
        res.plans.append((h, plan, problems, plan_text))
    gc.collect()
    for i, job in enumerate(jobs):
        if not job.sample:
            res.reports.append(None)
            continue
        if tracer is not None:
            tracer.run_id = i
        t0 = clock()
        loaded = mfpart.parse_plan(res.plans[i][3])
        psi = mfpart.parse_state(job.state)
        report = mfpart.estimate_energy(loaded, psi, job.shots, job.seed)
        res.estimate.append(clock() - t0)
        res.reports.append((loaded, psi, report))
    if wl.cli_dir is not None:
        gc.collect()
        env = cli_env()
        for args in (CLI_PARTITION, CLI_MEASURE):
            t0 = clock()
            proc = subprocess.run(
                [sys.executable, "-m", "mfpart.cli", *args],
                cwd=wl.cli_dir, env=env, capture_output=True, timeout=60,
            )
            res.cli.append(clock() - t0)
            res.cli_runs.append(proc)
    return res


# -- correctness ------------------------------------------------------------


class Checks:
    """Counts correctness checks; failures feed `failed` and failed_frac."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_pass(mfpart, wl: Workload, res: PassResult, checks: Checks):
    """Plan and estimate checks on one pass's outputs."""
    for i, (job, (h, plan, problems, _)) in enumerate(zip(wl.jobs, res.plans)):
        checks.check(not problems, f"model {i}: validate_plan reported {problems[:3]}")
        baseline = mfpart.qwc_partition(h).n_groups
        checks.check(
            plan.n_fragments <= baseline,
            f"model {i}: {plan.n_fragments} fragments exceed the QWC baseline {baseline}",
        )
        if res.reports[i] is None:
            continue
        _, psi, report = res.reports[i]
        exact = mfpart.expectation(h, psi)
        checks.check(
            abs(report.analytic_expectation - exact) <= 1e-9,
            f"model {i}: analytic expectation {report.analytic_expectation!r} != {exact!r}",
        )
        sigma = max(report.analytic_summed_variance, 0.0) ** 0.5
        gap = abs(report.energy_estimate - report.analytic_expectation)
        checks.check(
            gap <= 5.0 * sigma / job.shots**0.5 + 1e-12,
            f"model {i}: estimate is {gap:.3g} from the analytic value",
        )
    if wl.name == "estimate-13q":
        branches = [f.certificate.n_branches for f in res.plans[0][1].fragments]
        checks.check(
            min(branches) <= CDF_BRANCH_LIMIT < max(branches),
            f"fragment branch counts {sorted(branches)} do not reach both sampling paths",
        )


def check_workers(mfpart, jobs: list[Job], res: PassResult, checks: Checks):
    """Seeded reports must not depend on the worker count (untimed)."""
    for i, (job, sampled) in enumerate(zip(jobs, res.reports)):
        if sampled is None:
            continue
        loaded, psi, report = sampled
        parallel = mfpart.estimate_energy(loaded, psi, job.shots, job.seed, workers=2)
        checks.check(parallel == report, f"model {i}: workers=2 changed the report")


def check_cli(wl: Workload, res: PassResult, checks: Checks):
    for proc, expected in zip(res.cli_runs, wl.transcripts):
        checks.check(proc.returncode == 0, f"CLI exited {proc.returncode}: {proc.stderr[-300:]!r}")
        checks.check(
            proc.stdout.decode() == expected,
            f"CLI output differs from the README:\n{proc.stdout.decode()}",
        )


def quality(mfpart, wl: Workload, res: PassResult) -> dict[str, float]:
    """Fragment count and fragment variances in the workload's states."""
    fragments = 0
    summed = 0.0
    sigma_sum = 0.0
    for job, (_, plan, _, _) in zip(wl.jobs, res.plans):
        fragments += plan.n_fragments
        psi = mfpart.parse_state(job.state)
        for frag in plan.fragments:
            var = max(mfpart.variance(frag.hamiltonian, psi), 0.0)
            summed += var
            sigma_sum += var**0.5
    return {"fragments": fragments, "summed_variance": summed, "shot_budget": sigma_sum**2}


# -- environment ------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports for itself, if it is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_times() -> list[int] | None:
    """Aggregate jiffies from /proc/stat (user ... steal)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ
        },
        "machine": platform.machine(),
    }


def steal(before, after) -> dict:
    if before is None or after is None:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta) or 1
    return {"steal_s": delta[7] / os.sysconf("SC_CLK_TCK"), "steal_share": delta[7] / total,
            "contended": delta[7] / total > 0.05}


# -- statistics -------------------------------------------------------------


def spread(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals), "min": vals[0], "max": vals[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = vals[n - 11]
    return out


def subprocess_wall(args: list[str], repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(args, env=cli_env(), capture_output=True, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports mfpart and loads the inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.decode()[-500:]}")
    return elapsed


# -- modes --------------------------------------------------------------------


def measure(mfpart, wl: Workload, seed: int, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """Warm up, then repeat passes while they fit in ``seconds``.

    At least one pass runs.  Checks and quality scores use the last pass.
    Set-up probes run between passes, in step with the passes' progress;
    their time is not counted against ``seconds``.

    A stage's time is the sum over jobs of each job's median across passes,
    so a burst of contention spoils one sample of a few jobs rather than
    a whole pass; ``pass_s`` adds the stages up.
    """
    warm = run_pass(mfpart, wl.warmup, wl)
    check_workers(mfpart, wl.warmup, warm, checks)
    passes: list[PassResult] = []
    setup: list[float] = []
    elapsed = 0.0
    while True:
        while len(setup) < SETUP_REPEATS * elapsed / seconds:
            setup.append(setup_probe(wl.name, seed))
        start = time.perf_counter()
        res = run_pass(mfpart, wl.jobs, wl)
        elapsed += time.perf_counter() - start
        passes.append(res)
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        check_cli(wl, res, checks)
        res.plans = res.reports = None
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(wl.name, seed))
    check_pass(mfpart, wl, res, checks)
    check_cli(wl, res, checks)
    stages: dict[str, dict] = {}
    for key in ("plan", "estimate", "cli"):
        per_job = list(zip(*(getattr(r, key) for r in passes)))
        if per_job:
            stages[f"{key}_s"] = {
                "value": sum(statistics.median(t) for t in per_job),
                "per_pass": spread([sum(t) for t in zip(*per_job)]),
            }
    metrics = {"pass_s": sum(st["value"] for st in stages.values())}
    metrics.update(quality(mfpart, wl, res))
    metrics["setup_s"] = statistics.median(setup)
    stages["setup_s"] = {"value": metrics["setup_s"], "per_process": spread(setup)}
    return metrics, stages


def traced(mfpart, wl: Workload, checks: Checks) -> tuple[dict, dict]:
    from spans import PER_LAYER, REPORT_ONLY, Tracer

    run_pass(mfpart, wl.warmup, wl)
    plain = run_pass(mfpart, wl.jobs, wl)
    tracer = Tracer()
    tracer.install()
    try:
        res = run_pass(mfpart, wl.jobs, wl, tracer)
    finally:
        tracer.uninstall()
    check_pass(mfpart, wl, res, checks)
    # The cli layer is timed on every workload: those without CLI runs of
    # their own time the README pair.
    cli_wl = wl if wl.cli_dir is not None else load("cli-readme", 0, mfpart)
    cli_res = res if wl.cli_dir is not None else run_pass(mfpart, [], cli_wl)
    check_cli(cli_wl, cli_res, checks)
    s = tracer.summary()
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{wl.name}.npz", **tracer.spans())

    py = sys.executable
    s["python_s"] = subprocess_wall([py, "-c", "pass"])
    s["import_s"] = subprocess_wall([py, "-c", "import mfpart.cli"]) - s["python_s"]
    s["partition_s"], s["measure_s"] = cli_res.cli
    s["groups"] = sum(mfpart.qwc_partition(h).n_groups for h, _, _, _ in res.plans)
    # Traced over untraced time, so the figure stays positive when the
    # overhead is smaller than the noise of a single pass.
    s["plan_overhead_ratio"] = res.plan_s / plain.plan_s if plain.plan_s else 0.0
    s["estimate_overhead_ratio"] = res.estimate_s / plain.estimate_s if plain.estimate_s else 0.0
    metrics = {
        f"{layer}.{name}": s.get(name, 0) for layer, names in PER_LAYER.items() for name in names
    }
    report_only = {name: metrics.pop(name) for name in REPORT_ONLY}

    detail = {
        "untraced": {"plan_s": plain.plan_s, "estimate_s": plain.estimate_s, "cli_s": plain.cli_s},
        "traced": {"plan_s": res.plan_s, "estimate_s": res.estimate_s, "cli_s": res.cli_s},
        "absent": tracer.absent,
        "report_only": report_only,
        "spans": len(tracer.start),
        "summary": s,
        "quality": quality(mfpart, wl, res),
    }
    return metrics, detail


UNITS = {
    "setup_s": "s", "plan_s": "s", "pass_s": "s", "fragments": "count",
    "summed_variance": "energy_sq", "shot_budget": "energy_sq", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("coverage"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        mfpart = import_program()
        wl = load(args.workload, args.seed, mfpart)
        if args.setup_only:
            return 0
        stat_before = cpu_times()
        checks = Checks()
        if args.trace:
            metrics, detail = traced(mfpart, wl, checks)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, detail = measure(mfpart, wl, args.seed, args.seconds, checks)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = UNITS
        stat_after = cpu_times()
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(checks.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "contention": steal(stat_before, stat_after),
        "checks": {"attempted": checks.attempted, "failed": failed,
                   "failed_frac": failed / max(checks.attempted, 1),
                   "failures": checks.failures},
        "metrics": metrics,
        "detail": detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8"
    )
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(f"contention: {json.dumps(report['contention'])}")
    if args.trace:
        print(f"trace: {detail['spans']} spans, absent: {', '.join(detail['absent']) or 'none'}")
        for name, value in detail["report_only"].items():
            print(f"{name}: {value:.6g} {per_layer_unit(name)} (report only)")
    else:
        for key in ("plan_s", "estimate_s", "cli_s", "setup_s"):
            if key not in detail:
                print(f"{key}: not run by {args.workload}")
                continue
            (what, st), = ((k, v) for k, v in detail[key].items() if k != "value")
            rest = ", ".join(f"{k} {v:.6g}" for k, v in st.items())
            print(f"{key}: {detail[key]['value']:.6g} s ({what}: {rest})")
    print(f"failed_frac: {report['checks']['failed_frac']:.6g} ratio"
          f" ({failed} failed of {checks.attempted} checks)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
