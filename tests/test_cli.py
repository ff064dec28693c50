import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    DATA_DIR,
    README_MODEL,
    exchange_plan_with,
    h2_model,
    random_amplitudes,
    wide_table_model,
)
from mfpart import cli, meanfield
from mfpart.cli import main
from mfpart.hamio import parse_plan, serialize_hamiltonian, serialize_plan, serialize_state
from mfpart.partition import greedy_partition
from mfpart.pauli import PauliSum, PauliWord
from mfpart.simulator import StateVector, estimate_energy, expectation, variance

EXAMPLE = str(DATA_DIR / "collinear3.txt")


def write_state(tmp_path, n_qubits, seed=0):
    rng = np.random.default_rng(seed)
    psi = StateVector(n_qubits, random_amplitudes(rng, n_qubits))
    path = tmp_path / "state.txt"
    path.write_text(serialize_state(psi))
    return str(path), psi


def test_info_prints_l_table(capsys):
    assert main(["info", EXAMPLE]) == 0
    out = capsys.readouterr().out
    assert "qubits: 3" in out
    assert "terms: 24" in out
    lines = out.splitlines()
    table = lines[lines.index("qubit  l") + 1 :]
    assert [row.split() for row in table] == [["0", "2"], ["1", "1"], ["2", "1"]]


def test_group_qwc_lists_groups(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Z0\n0.5 Z0 Z1\n0.25 X0\n")
    assert main(["group-qwc", str(path)]) == 0
    out = capsys.readouterr().out
    assert "groups: 2" in out
    assert "group 0:" in out and "group 1:" in out


def test_partition_writes_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert "fragments: 2" in out
    assert "qwc baseline:" in out
    assert f"plan written to {plan_path}" in out
    plan = parse_plan(plan_path.read_text())
    assert plan.n_fragments == 2


def test_partition_mf2_reports_entangled_subset(tmp_path, capsys):
    rng = np.random.default_rng(21)
    path = tmp_path / "h2.txt"
    path.write_text(serialize_hamiltonian(h2_model(rng)))
    assert main(["partition", str(path), "--level", "mf2"]) == 0
    out = capsys.readouterr().out
    assert "fragments: 1" in out
    assert "entangled subset (1, 3)" in out


def test_partition_entanglers_can_be_disabled(tmp_path, capsys):
    rng = np.random.default_rng(22)
    path = tmp_path / "h2.txt"
    path.write_text(serialize_hamiltonian(h2_model(rng)))
    assert main(["partition", str(path), "--level", "mf1"]) == 0
    out = capsys.readouterr().out
    assert "fragments: 3" in out
    assert "entangled subset" not in out


def test_verify_mf_accepts_diagonal_chain(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Z0\n0.5 Z0 Z1\n")
    assert main(["verify-mf", str(path)]) == 0
    out = capsys.readouterr().out
    assert "mean-field measurable: yes" in out
    assert "chain: [0,1]" in out
    assert "branches: 4" in out


def test_verify_mf_rejects_and_signals_failure(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Z0 Z1\n1.0 X0 X1\n")
    assert main(["verify-mf", str(path)]) == 1
    assert "mean-field measurable: no" in capsys.readouterr().out


def test_variance_matches_library(tmp_path, capsys, collinear3):
    state_path, psi = write_state(tmp_path, 3, seed=5)
    assert main(["variance", EXAMPLE, "--state", state_path]) == 0
    out = capsys.readouterr().out
    reported = {}
    for line in out.splitlines():
        key, value = line.split(": ")
        reported[key] = float(value)
    assert reported["expectation"] == pytest.approx(expectation(collinear3, psi), abs=1e-12)
    assert reported["variance"] == pytest.approx(variance(collinear3, psi), abs=1e-12)


def test_measure_end_to_end(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    report_path = tmp_path / "report.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    state_path, psi = write_state(tmp_path, 3, seed=9)
    argv = [
        "measure",
        "--plan", str(plan_path),
        "--state", state_path,
        "--shots", "128",
        "--seed", "3",
        "--output", str(report_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "shots per fragment: 128" in first
    assert "energy estimate:" in first

    doc = json.loads(report_path.read_text())
    plan = parse_plan(plan_path.read_text())
    report = estimate_energy(plan, psi, shots=128, seed=3)
    assert doc["energy_estimate"] == report.energy_estimate
    assert doc["analytic_expectation"] == report.analytic_expectation
    assert len(doc["fragments"]) == plan.n_fragments

    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_spectrum_prints_sorted_eigenvalues(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Z0\n")
    assert main(["spectrum", str(path)]) == 0
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert values == [-1.0, 1.0]


def test_missing_file_reports_error(capsys):
    assert main(["info", "/nonexistent/h.txt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_parse_errors_name_the_file(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1.0 Q0\n")
    assert main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "line 1" in err


def test_measure_register_mismatch(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    state_path, _ = write_state(tmp_path, 2)
    code = main(
        ["measure", "--plan", str(plan_path), "--state", state_path,
         "--shots", "8", "--seed", "1"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def measure_args(plan_path, state_path):
    return ["measure", "--plan", str(plan_path), "--state", state_path,
            "--shots", "16", "--seed", "1"]


def test_measure_reports_schema_errors(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"format": "mf-partition-plan"}))
    state_path, _ = write_state(tmp_path, 3)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "n_qubits" in lines[0] and str(plan_path) in lines[0]


def test_measure_reports_a_deeply_nested_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("[" * 100_000)
    state_path, _ = write_state(tmp_path, 3)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "nested too deeply" in lines[0]


def test_measure_reports_a_shot_count_beyond_memory(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    state_path, _ = write_state(tmp_path, 3)
    argv = measure_args(plan_path, state_path)
    argv[argv.index("--shots") + 1] = str(10**15)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "allocate" in lines[0]


def test_measure_refuses_a_negative_seed(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    state_path, _ = write_state(tmp_path, 3)
    argv = measure_args(plan_path, state_path)
    argv[argv.index("--seed") + 1] = "-1"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and "seed" in lines[0] and "-1" in lines[0]


def test_measure_refuses_a_plan_whose_op_table_misses_a_prefix(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    del doc["fragments"][1]["certificate"]["steps"][2]["ops"]["-+"]
    plan_path.write_text(json.dumps(doc, indent=2))
    state_path, _ = write_state(tmp_path, 3)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {plan_path}: plan field 'fragments[1].certificate.steps[2].ops' "
        "lists 3 of 4 prefixes"
    ]


def test_measure_refuses_a_plan_that_fails_validation(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    doc["fragments"][0]["terms"][0]["coeff"] += 0.5
    plan_path.write_text(json.dumps(doc))
    state_path, _ = write_state(tmp_path, 3)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "fails validation" in lines[0]
    assert "do not sum to the source" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["info", EXAMPLE, "--output", "x.json"],
        ["group-qwc", EXAMPLE, "--tolerance", "1e-6"],
        ["group-qwc", EXAMPLE, "--output", "x.json"],
        ["verify-mf", EXAMPLE, "--output", "x.json"],
        ["variance", EXAMPLE, "--state", "s.txt", "--tolerance", "1e-6"],
        ["variance", EXAMPLE, "--state", "s.txt", "--output", "x.json"],
        ["spectrum", EXAMPLE, "--tolerance", "1e-6"],
        ["spectrum", EXAMPLE, "--output", "x.json"],
        ["partition", EXAMPLE, "--max-entangler-qubits", "0"],
        ["info", EXAMPLE, "--tolerance", "1e-6"],
        ["partition", EXAMPLE, "--tolerance", "1"],
        ["verify-mf", EXAMPLE, "--tolerance", "1e-6"],
    ],
)
def test_flags_a_command_ignores_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_measure_checks_every_branch_of_a_loaded_plan(tmp_path, capsys):
    # Qubit 0 carries X and Z, so the 9-step chain keeps a branch table.
    model = tmp_path / "h.txt"
    model.write_text(serialize_hamiltonian(wide_table_model()))
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    assert len(doc["fragments"]) == 1
    values = doc["fragments"][0]["certificate"]["terminal_values"]
    assert len(values) == 512
    state_path, _ = write_state(tmp_path, 9)
    assert main(measure_args(plan_path, state_path)) == 0
    capsys.readouterr()

    late = list(values)[300]
    values[late] += 0.5
    plan_path.write_text(json.dumps(doc))
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "terminal mismatch" in lines[0]


def test_measure_checks_a_product_plan_beyond_the_branch_table(tmp_path, capsys):
    n = 13
    model = tmp_path / "h.txt"
    model.write_text("".join(f"1.0 Z{q}\n" for q in range(n)))
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    assert len(doc["fragments"]) == 1
    assert len(doc["fragments"][0]["certificate"]["qubit_order"]) == n
    state_path, _ = write_state(tmp_path, n)
    assert main(measure_args(plan_path, state_path)) == 0
    assert "energy estimate:" in capsys.readouterr().out

    doc["fragments"][0]["certificate"]["terminal_products"][5]["coeff"] += 0.5
    plan_path.write_text(json.dumps(doc))
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert f"branch {(1,) * n} terminal mismatch" in lines[0]


def repeat_first_step(doc):
    cert = doc["fragments"][0]["certificate"]
    cert["steps"].append({"qubit": 0, "uniform_op": [0.0, 0.0, 1.0]})
    cert["qubit_order"].append(0)


def nan_product_coeff(doc):
    doc["fragments"][0]["certificate"]["terminal_products"][0]["coeff"] = float("nan")


def measure_x_on_a_z_qubit(doc):
    # X on qubit 0 zeroes Z0 Z1; the products left match that wrong chain.
    cert = doc["fragments"][0]["certificate"]
    cert["steps"][0]["uniform_op"] = [1.0, 0.0, 0.0]
    products = cert["terminal_products"]
    cert["terminal_products"] = [p for p in products if p["positions"] != [0, 1]]
    assert len(cert["terminal_products"]) == len(products) - 1


def overflow_first_op(doc):
    # Each component is finite but the norm is not: read as a zero direction,
    # the op would commute with every branch and the chain pass validation.
    measure_x_on_a_z_qubit(doc)
    doc["fragments"][0]["certificate"]["steps"][0]["uniform_op"] = [1e308, 0.0, 1e308]


def put_header(key, value):
    return lambda doc: doc.update({key: value})


def reverse_qubit_order(doc):
    cert = doc["fragments"][0]["certificate"]
    cert["qubit_order"] = cert["qubit_order"][::-1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (repeat_first_step, "fragment 0: certificate measures qubit 0 twice"),
        (nan_product_coeff,
         "'fragments[0].certificate.terminal_products[0].coeff' must be finite, not nan"),
        (measure_x_on_a_z_qubit, "fragment 0: branch (1, 1, 1) op at step 0 does not commute"),
        (overflow_first_op, "plan field 'fragments[0].certificate.steps[0].uniform_op': "
         "Bloch vector norm must be finite"),
        (put_header("version", 99), "plan field 'version' must be 1, not 99"),
        (put_header("n_fragments", 7), "plan field 'n_fragments' is 7, but 1 are listed"),
        (put_header("level", "banana"), "plan field 'level' must be 'mf1' or 'mf2', not 'banana'"),
        (reverse_qubit_order,
         "plan field 'fragments[0].certificate.qubit_order' is [2, 1, 0], "
         "but the steps measure [0, 1, 2]"),
        # json.dumps writes 10**400 as an integer literal that no float holds.
        (lambda doc: doc["fragments"][0]["certificate"]["steps"][0].update(
            uniform_op=[10**400, 0.0, 0.0]),
         "plan field 'fragments[0].certificate.steps[0].uniform_op[0]' must be finite, "
         "not an integer of 401 digits"),
        (lambda doc: doc["fragments"][0]["terms"][0].update(coeff=10**400),
         "plan field 'fragments[0].terms[0].coeff' must be finite, not an integer of 401 digits"),
    ],
)
def test_measure_refuses_a_tampered_product_plan(tmp_path, capsys, edit, message):
    model = tmp_path / "h.txt"
    model.write_text("1.0 Z0 Z1\n0.5 Z1\n0.3 Z2\n")
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    assert "terminal_products" in doc["fragments"][0]["certificate"]
    edit(doc)
    plan_path.write_text(json.dumps(doc))
    state_path, _ = write_state(tmp_path, 3)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert message in lines[0]


def test_measure_reads_an_integer_bloch_entry_as_a_float(tmp_path, capsys):
    # 2^70 is past numpy's integer types; read as the float it names, it
    # scales fragment 0's X0 op without turning it, so the report stays.
    model = tmp_path / "model.txt"
    model.write_text(README_MODEL)
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--level", "mf2", "--output", str(plan_path)]) == 0
    state_path, _ = write_state(tmp_path, 3)
    capsys.readouterr()
    assert main(measure_args(plan_path, state_path)) == 0
    report = capsys.readouterr().out
    doc = json.loads(plan_path.read_text())
    assert doc["fragments"][0]["certificate"]["steps"][0]["uniform_op"] == [1.0, 0.0, 0.0]
    doc["fragments"][0]["certificate"]["steps"][0]["uniform_op"] = [2**70, 0.0, 0.0]
    plan_path.write_text(json.dumps(doc))
    assert main(measure_args(plan_path, state_path)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == report


def assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and message in lines[0]


@pytest.mark.parametrize("header", ["1180591620717411303424", "1025"])
def test_info_refuses_a_register_past_the_bound(tmp_path, capsys, header):
    path = tmp_path / "h.txt"
    path.write_text(f"qubits: {header}\n1.0 Z0\n")
    assert main(["info", str(path)]) == 1
    assert_one_error_line(capsys, "line 1: header past the 1024-qubit register bound")


def test_measure_refuses_a_plan_register_past_the_bound(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text(README_MODEL)
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--level", "mf2", "--output", str(plan_path)]) == 0
    doc = json.loads(plan_path.read_text())
    doc["n_qubits"] = 2**70
    plan_path.write_text(json.dumps(doc))
    state_path, _ = write_state(tmp_path, 3)
    capsys.readouterr()
    assert main(measure_args(plan_path, state_path)) == 1
    assert_one_error_line(capsys, "'n_qubits' is 1180591620717411303424, past the 1024-qubit")


def test_measure_refuses_an_entangler_on_another_register(tmp_path, capsys):
    model = tmp_path / "h2.txt"
    model.write_text(serialize_hamiltonian(h2_model(np.random.default_rng(21))))
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--level", "mf2", "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    doc["fragments"][0]["entangler"]["origin"]["n_qubits"] = 99
    plan_path.write_text(json.dumps(doc))
    state_path, _ = write_state(tmp_path, 4)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "'fragments[0].entangler.origin.n_qubits' is 99, but the plan has 4 qubits" in lines[0]


def test_measure_refuses_a_nan_amplitude(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    assert main(["partition", EXAMPLE, "--output", str(plan_path)]) == 0
    capsys.readouterr()
    state_path = tmp_path / "state.txt"
    state_path.write_text("nan 0\n" + "0 0\n" * 7)
    assert main(measure_args(plan_path, str(state_path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "line 1: amplitude 'nan 0' is not finite" in lines[0]


def test_partition_refuses_a_plan_certified_at_a_loose_tolerance(tmp_path, capsys, monkeypatch):
    model = tmp_path / "model.txt"
    model.write_text(README_MODEL)
    assert main(["partition", str(model), "--level", "mf2"]) == 0
    capsys.readouterr()

    def loose_partition(*args, **kwargs):
        # Only the search runs loose; validate_plan sees the real constant.
        with monkeypatch.context() as patch:
            patch.setattr(meanfield, "GRAM_TOL_SCALE", 1.0)
            return greedy_partition(*args, **kwargs)

    monkeypatch.setattr(cli, "greedy_partition", loose_partition)
    assert main(["partition", str(model)]) == 1
    captured = capsys.readouterr()
    assert "fragments: 1" in captured.out
    assert captured.err.splitlines() == [
        "validation: fragment 0: branch (1, 1, 1) op at step 0 does not commute"
    ]


def test_partition_refuses_coefficients_whose_squares_overflow(tmp_path, capsys):
    model = tmp_path / "big.txt"
    model.write_text("1e308 X0 X1\n1e308 Z0 Z1\n1e308 Y0 Y1\n1.0 X0 Z1\n")
    assert main(["partition", str(model), "--level", "mf1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coefficients are too large: the sum of their squares is not finite\n"
    )


@pytest.mark.parametrize("command", ["info", "verify-mf"])
def test_inspection_refuses_coefficients_whose_squares_overflow(tmp_path, capsys, command):
    model = tmp_path / "big.txt"
    model.write_text("1e308 X0 X1\n1e308 Z0 Z1\n1e308 Y0 Y1\n1.0 X0 Z1\n")
    assert main([command, str(model)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: coefficients are too large: the sum of their squares is not finite\n"
    )


@pytest.mark.parametrize("label", ["Z0 Z1", "X1 X2", "Y1 Y2"])
def test_measure_refuses_a_fragment_whose_squares_overflow(tmp_path, capsys, label):
    model = tmp_path / "model.txt"
    model.write_text(README_MODEL)
    plan_path = tmp_path / "plan.json"
    assert main(["partition", str(model), "--level", "mf2", "--output", str(plan_path)]) == 0
    capsys.readouterr()
    doc = json.loads(plan_path.read_text())
    for terms in (doc["source_terms"], doc["fragments"][1]["terms"]):
        next(t for t in terms if t["word"] == label)["coeff"] = 1e308
    plan_path.write_text(json.dumps(doc))
    state_path, _ = write_state(tmp_path, 3)
    assert main(measure_args(plan_path, state_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0] == (
        f"error: {plan_path}: plan fails validation: fragment 1: "
        "coefficients are too large: the sum of their squares is not finite"
    )


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    # Only estimate_energy with workers > 1 needs concurrent.futures.
    code = "import sys, mfpart.cli; print('concurrent.futures' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"


def exchange_plan_files(tmp_path, key, value):
    """The exchange model's mf2 plan file, one unitary entry replaced, and a state file."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(exchange_plan_with(key, value))
    return plan_path, write_state(tmp_path, 2)[0]


@pytest.mark.parametrize("key", ["unitary_re", "unitary_im"])
def test_measure_refuses_a_unitary_integer_past_the_float_range(tmp_path, capsys, key):
    plan_path, state_path = exchange_plan_files(tmp_path, key, 10**400)
    assert main(measure_args(plan_path, state_path)) == 1
    assert_one_error_line(capsys, f"'fragments[0].entangler.{key}' must be a matrix of finite")


def test_measure_refuses_a_unitary_entry_past_one_in_one_line(tmp_path):
    plan_path, state_path = exchange_plan_files(tmp_path, "unitary_re", 1e308)
    # As a program, so that numpy's warnings would reach stderr.
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "mfpart.cli", *measure_args(plan_path, state_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [
        f"error: {plan_path}: plan field 'fragments[0].entangler': matrix is not unitary"
    ]


@pytest.mark.parametrize("command", ["variance", "measure"])
def test_a_state_whose_norm_overflows_is_refused_in_one_line(tmp_path, command):
    h = PauliSum.from_terms(1, [(PauliWord.from_axes(1, {0: "Z"}), 1.0)])
    h_path, plan_path, state_path = (tmp_path / name for name in ("h.txt", "plan.json", "big.txt"))
    h_path.write_text(serialize_hamiltonian(h))
    plan_path.write_text(serialize_plan(greedy_partition(h)))
    state_path.write_text("1e308 1e308\n0 0\n")
    args = (measure_args(plan_path, str(state_path)) if command == "measure"
            else ["variance", str(h_path), "--state", str(state_path)])
    # As a program, so that numpy's warnings would reach stderr.
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "mfpart.cli", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"},
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.splitlines() == [f"error: {state_path}: state norm inf is too far from 1"]


@pytest.mark.parametrize(
    "text, message",
    [
        (f"qubits: {'9' * 5000}\n1.0 Z0\n", "line 1: header past the 1024-qubit register bound"),
        (f"1.0 Z0\n1.0 X{'9' * 5000}\n",
         "line 2: qubit index of 5000 digits is past the 1024-qubit register bound"),
    ],
    ids=["header", "factor"],
)
def test_info_names_the_line_of_a_number_too_long_to_read(tmp_path, capsys, text, message):
    path = tmp_path / "h.txt"
    path.write_text(text)
    assert main(["info", str(path)]) == 1
    assert_one_error_line(capsys, message)
