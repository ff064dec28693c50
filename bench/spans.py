"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``mfpart`` modules with
wrappers in every module namespace that binds them, so calls made
through ``partition.verify_mf`` or ``cli.greedy_partition`` are seen as
well as direct ones.  Spans (name, start, end, parent, run id) stay in
flat arrays until the run ends; self time is a span's duration minus the
time its child spans cover.  Functions too cheap to time are only
counted.  A name missing from its module is reported as absent, so the
benchmark keeps running across refactors.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

#: Timed public functions per layer (module of the ``mfpart`` package).
TIMED = {
    "meanfield": ("verify_mf", "compute_l", "decompose_by_qubit", "reduce_qubit", "factor_l1"),
    "partition": ("greedy_partition", "validate_plan"),
    "qwc": ("qwc_partition",),
    "entangler": (
        "find_commuting_ops",
        "factorability_check",
        "build_unentangler",
        "build_clifford_unentangler",
        "apply_unitary",
    ),
    "simulator": (
        "estimate_energy",
        "branch_distribution",
        "measure_fragment",
        "expectation",
        "variance",
    ),
    "hamio": ("parse_hamiltonian", "serialize_plan", "parse_plan", "parse_state"),
}

#: Functions that are counted but not timed: a wrapper's own cost would
#: swamp theirs.
COUNTED = {"pauli": ("commutes", "qwc_commutes", "multiply_words")}

#: Coarse spans that also record process CPU time (all threads).
COARSE = ("greedy_partition", "validate_plan", "estimate_energy")

#: Reported per-layer metrics, keyed as in :meth:`Tracer.summary` plus the
#: harness's own ``groups``, ``cli`` and ``trace`` entries.  Self times of
#: functions that some workloads never call (``measure_fragment``,
#: ``build_unentangler``) are left to the report file, so no reported time
#: reads zero on every run.
PER_LAYER = {
    "meanfield": (
        "verify_mf.calls", "verify_mf.accepts", "verify_mf.accept_ratio", "verify_mf.self_s",
        "compute_l.calls", "compute_l.self_s", "decompose_by_qubit.calls",
        "decompose_by_qubit.self_s", "reduce_qubit.calls", "reduce_qubit.self_s",
        "factor_l1.calls",
    ),
    "partition": (
        "greedy_partition.self_s", "greedy_partition.cpu_s", "validate_plan.self_s",
        "validate_plan.cpu_s", "validate_plan.reduce_calls", "validate_plan.coverage",
        "qwc_fallbacks",
    ),
    "qwc": ("qwc_partition.calls", "qwc_partition.self_s", "groups"),
    "entangler": (
        "find_commuting_ops.calls", "find_commuting_ops.self_s", "find_commuting_ops.ops_found",
        "factorability_check.calls", "factorability_check.ok", "factorability_check.self_s",
        "build_unentangler.calls",
        "build_clifford_unentangler.calls", "apply_unitary.calls", "apply_unitary.self_s",
        "tried", "accepted", "accept_ratio",
    ),
    "simulator": (
        "estimate_energy.self_s", "estimate_energy.cpu_s", "branch_distribution.calls",
        "branch_distribution.self_s", "branch_distribution.branches",
        "measure_fragment.calls", "expectation.calls",
        "expectation.self_s", "variance.calls", "variance.self_s",
    ),
    "hamio": (
        "parse_hamiltonian.self_s", "serialize_plan.self_s", "serialize_plan.bytes",
        "parse_plan.self_s", "parse_state.self_s",
    ),
    "pauli": ("commutes.calls", "qwc_commutes.calls", "multiply_words.calls"),
    "cli": ("python_s", "import_s", "partition_s", "measure_s"),
    "trace": ("plan_overhead_ratio", "estimate_overhead_ratio"),
}

#: Counters that read 0 on some workloads: nothing calls ``commutes``,
#: the mf2 sums never fall back to QWC or take the per-shot path, and the
#: README model has no entangled fragment.  The report prints them; the
#: result line leaves them out.
REPORT_ONLY = (
    "partition.qwc_fallbacks", "entangler.factorability_check.ok",
    "entangler.build_unentangler.calls", "simulator.measure_fragment.calls",
    "pauli.commutes.calls",
)


class Tracer:
    """Installs wrappers, records spans, and restores the modules."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.cpu: dict[str, float] = {name: 0.0 for name in COARSE}
        self.counts: dict[str, int] = {}
        self.extra: dict[str, float] = {}
        self.run_id = 0
        self._branch_limit = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "mfpart" or name.startswith("mfpart."))
        ]
        for layer, names in TIMED.items():
            for name in names:
                self._install_one(layer, name, modules, timed=True)
        for layer, names in COUNTED.items():
            for name in names:
                self._install_one(layer, name, modules, timed=False)

    def _install_one(self, layer, name, modules, timed):
        qualified = f"{layer}.{name}"
        try:
            home = importlib.import_module(f"mfpart.{layer}")
        except ImportError:
            home = None
        fn = getattr(home, name, None)
        if not callable(fn):
            self.absent.append(qualified)
            return
        wrapper = self._timed(fn, name) if timed else self._counted(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- wrappers -------------------------------------------------------

    def _counted(self, fn, name):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        hook = getattr(self, f"_after_{name}", None)
        coarse = name in COARSE
        stack = self._stack
        clock = time.perf_counter
        cpu_clock = time.process_time
        if name == "validate_plan":
            limit = inspect.signature(fn).parameters.get("branch_limit")
            self._branch_limit = None if limit is None else limit.default

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            self.end.append(0.0)
            stack.append(idx)
            c0 = cpu_clock() if coarse else 0.0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                if coarse:
                    self.cpu[name] += cpu_clock() - c0
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def _add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value

    # Hooks see the result and the call's arguments; they run after the
    # span closes, so their cost lands in the caller's self time.

    def _after_verify_mf(self, cert, *args, **kwargs):
        self._add("verify_mf.accepts", cert is not None)

    def _after_factorability_check(self, verdict, *args, **kwargs):
        self._add("factorability_check.ok", bool(getattr(verdict, "ok", False)))

    def _after_find_commuting_ops(self, ops, *args, **kwargs):
        self._add("find_commuting_ops.ops_found", len(ops))

    def _after_branch_distribution(self, result, *args, **kwargs):
        self._add("branch_distribution.branches", len(result[0]))

    def _after_serialize_plan(self, text, *args, **kwargs):
        self._add("serialize_plan.bytes", len(text.encode()))

    def _after_greedy_partition(self, plan, *args, **kwargs):
        self._add("accepted", sum(f.entangler is not None for f in plan.fragments))

    def _after_validate_plan(self, problems, plan, *args, **kwargs):
        """Branches the check walked, against all the plan's branches."""
        limit = kwargs.get("branch_limit", args[1] if len(args) > 1 else self._branch_limit)
        for frag in plan.fragments:
            total = len(frag.certificate.terminal_values)
            self._add("validate_plan.branches", total)
            self._add("validate_plan.checked", total if limit is None else min(total, limit))

    # -- summary --------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "names": np.array(self.names),
        }

    def summary(self) -> dict[str, float]:
        """Per-function calls and self time, plus the derived counters."""
        s = self.spans()
        n_names = len(self.names)
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child[: len(dur)]
        calls = np.bincount(s["name_id"], minlength=n_names)
        self_s = np.bincount(s["name_id"], weights=self_time, minlength=n_names)
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.self_s"] = float(self_s[nid])
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        for name, seconds in self.cpu.items():
            out[f"{name}.cpu_s"] = seconds
        out.update(self.extra)

        def child_count(parent_name, child_name):
            """Calls of child_name made directly under parent_name, per parent span."""
            if parent_name not in self.names or child_name not in self.names:
                return np.zeros(0, dtype=np.int64), 0
            pid = self.names.index(parent_name)
            cid = self.names.index(child_name)
            parents = s["parent"][(s["name_id"] == cid) & has_parent]
            parents = parents[s["name_id"][parents] == pid]
            per_parent = np.bincount(parents, minlength=len(dur))
            return per_parent[s["name_id"] == pid], int(parents.size)

        _, out["validate_plan.reduce_calls"] = child_count("validate_plan", "reduce_qubit")
        per_greedy, _ = child_count("greedy_partition", "qwc_partition")
        out["qwc_fallbacks"] = int(np.sum(per_greedy > 1))
        # Every candidate rotation is applied straight from the partitioner;
        # build_unentangler's own applications sit under its span.
        _, out["tried"] = child_count("greedy_partition", "apply_unitary")

        def ratio(num, den):
            return out.get(num, 0) / out[den] if out.get(den) else 0.0

        out["verify_mf.accept_ratio"] = ratio("verify_mf.accepts", "verify_mf.calls")
        out["accept_ratio"] = ratio("accepted", "tried")
        out["validate_plan.coverage"] = ratio("validate_plan.checked", "validate_plan.branches")
        return out
