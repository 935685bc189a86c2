import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    haar_gates,
    random_su2,
    random_unitary,
    reference_polar,
    reference_plain,
    reference_protocol_to_json,
)
from gateforge import gates
from gateforge.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_VALIDATION,
    _admitted_unitary,
    _plain,
    _run,
    _sig,
    main,
    protocol_from_json,
    protocol_to_json,
)
from gateforge.errors import GateforgeError, NonUnitaryError, ValidationError
from gateforge.linalg import LocalUnitaryPair, _unitarity_gap
from gateforge.protocol import Protocol, Segment, simulate, synthesize, verify

# Computational-basis CNOT printed in the reversed |11>,|10>,|01>,|00> order.
CNOT_REVERSED_ORDER = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


def run_batch(capsys, tmp_path, lines, *flags):
    path = tmp_path / "lines.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code, out, _ = run_cli(capsys, *flags, "batch", "--input", str(path))
    assert code == EXIT_OK
    return [json.loads(line) for line in out.splitlines()]


def test_canon_cnot(capsys):
    code, out, _ = run_cli(capsys, "canon", "--gate", "CNOT")
    assert code == EXIT_OK
    data = last_json(out)
    assert data["alpha"] == [0.7853981634, 0.0, 0.0]


def test_canon_identity(capsys):
    code, out, _ = run_cli(capsys, "canon", "--gate", "IDENTITY")
    assert code == EXIT_OK
    assert last_json(out)["alpha"] == [0.0, 0.0, 0.0]


def test_canon_full_includes_kak(capsys):
    code, out, _ = run_cli(capsys, "canon", "--gate", "SWAP", "--full")
    data = last_json(out)
    assert code == EXIT_OK
    assert data["kak"]["reassembly_residual"] <= 1e-8
    assert data["kak"]["alpha"] == [0.7853981634] * 3


def test_canon_product_matrix_file(capsys, tmp_path):
    rng = np.random.default_rng(0)
    u = np.kron(
        np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0],
        np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0],
    )
    path = tmp_path / "g.json"
    path.write_text(json.dumps([[z.real, z.imag] for z in u.ravel()]))
    code, out, _ = run_cli(capsys, "canon", "--matrix-file", str(path))
    assert code == EXIT_OK
    assert last_json(out)["alpha"] == [0.0, 0.0, 0.0]


def test_matrix_file_accepts_both_basis_orders(capsys, tmp_path):
    # The same CNOT entered in the standard |00>..|11> ordering and in the
    # reversed |11>..|00> ordering must canonicalize identically.
    reversed_entries = [[float(x), 0.0] for row in CNOT_REVERSED_ORDER for x in row]
    path = tmp_path / "cnot_reversed.json"
    path.write_text(json.dumps({"matrix": reversed_entries, "order": "reversed"}))
    code, out, _ = run_cli(capsys, "canon", "--matrix-file", str(path))
    assert code == EXIT_OK
    assert last_json(out)["alpha"] == [0.7853981634, 0.0, 0.0]

    standard_entries = [[z.real, z.imag] for z in gates.CNOT.ravel()]
    path2 = tmp_path / "cnot_standard.json"
    path2.write_text(json.dumps({"matrix": standard_entries}))
    code, out, _ = run_cli(capsys, "canon", "--matrix-file", str(path2))
    assert code == EXIT_OK
    assert last_json(out)["alpha"] == [0.7853981634, 0.0, 0.0]

    # The --matrix-order flag overrides the file's own ordering field.
    code, out, _ = run_cli(
        capsys, "canon", "--matrix-file", str(path2), "--matrix-order", "reversed"
    )
    assert code == EXIT_OK
    assert last_json(out)["alpha"] == [0.7853981634, 0.0, 0.0]


def test_cost_swap_exchange(capsys):
    code, out, _ = run_cli(capsys, "cost", "--gate", "SWAP", "--alpha", "1,1,1")
    assert code == EXIT_OK
    assert last_json(out)["cost"] == 0.7853981634


def test_cost_identity_is_free(capsys):
    code, out, _ = run_cli(capsys, "cost", "--gate", "IDENTITY", "--alpha", "1,0,0")
    assert code == EXIT_OK
    assert last_json(out)["cost"] == 0.0


def test_cost_dcnot_ising(capsys):
    code, out, _ = run_cli(capsys, "cost", "--gate", "DCNOT", "--alpha", "1,0,0")
    assert code == EXIT_OK
    assert last_json(out)["cost"] == 1.570796327


def test_cost_infeasible_exit_code(capsys):
    code, out, _ = run_cli(capsys, "cost", "--gate", "SWAP", "--alpha", "0,0,0")
    assert code == EXIT_INFEASIBLE
    data = last_json(out)
    assert data["infeasible"] is True
    assert data["cost"] is None


def test_cost_alpha_reorder_warning(capsys):
    code, out, err = run_cli(capsys, "cost", "--gate", "CNOT", "--alpha", "0,1,0")
    assert code == EXIT_OK
    assert "reordered" in err
    assert last_json(out)["cost"] == 0.7853981634


def test_synth_and_verify_round_trip(capsys, tmp_path):
    proto_path = tmp_path / "cnot.json"
    code, out, _ = run_cli(
        capsys, "synth", "--gate", "CNOT", "--alpha", "1,0,0", "--out", str(proto_path)
    )
    assert code == EXIT_OK
    summary = last_json(out)
    assert summary["segments"] == 1
    assert summary["total_time"] == 0.7853981634
    assert summary["verification"]["passed"] is True

    code, out, _ = run_cli(capsys, "verify", "--protocol", str(proto_path), "--gate", "CNOT")
    assert code == EXIT_OK
    assert last_json(out)["passed"] is True

    code, out, _ = run_cli(capsys, "verify", "--protocol", str(proto_path), "--gate", "SWAP")
    assert code == EXIT_RESIDUAL
    assert last_json(out)["passed"] is False


def test_synth_identity_empty_protocol(capsys, tmp_path):
    proto_path = tmp_path / "id.json"
    code, out, _ = run_cli(
        capsys, "synth", "--gate", "IDENTITY", "--alpha", "1,1,1", "--out", str(proto_path)
    )
    assert code == EXIT_OK
    summary = last_json(out)
    assert summary["segments"] == 0
    assert summary["total_time"] == 0.0


def test_synth_swap_from_exchange_coupling(capsys, tmp_path):
    coupling = tmp_path / "exchange.json"
    coupling.write_text(json.dumps(np.eye(3).tolist()))
    proto_path = tmp_path / "swap.json"
    code, out, _ = run_cli(
        capsys,
        "synth",
        "--gate",
        "SWAP",
        "--coupling-file",
        str(coupling),
        "--out",
        str(proto_path),
    )
    assert code == EXIT_OK
    summary = last_json(out)
    assert summary["total_time"] == 0.7853981634
    assert summary["segments"] <= 3
    assert "coupling_conjugators" in summary


def test_verification_reproducible_at_stated_precision(capsys, tmp_path):
    proto_path = tmp_path / "p.json"
    run_cli(capsys, "synth", "--gate", "SWAP", "--alpha", "1,0.7,-0.2", "--out", str(proto_path))
    code1, out1, _ = run_cli(capsys, "verify", "--protocol", str(proto_path), "--gate", "SWAP")
    code2, out2, _ = run_cli(capsys, "verify", "--protocol", str(proto_path), "--gate", "SWAP")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # bit-identical at the serialized precision


def test_protocol_json_round_trip_simulates_identically():
    p = synthesize(gates.DCNOT, np.array([1.0, 0.8, 0.1]))
    blob = json.dumps(protocol_to_json(p))
    p2 = protocol_from_json(json.loads(blob))
    report = verify(p2, gates.DCNOT, 1e-7)
    assert report.passed
    blob2 = json.dumps(protocol_to_json(p2))
    p3 = protocol_from_json(json.loads(blob2))
    r2, r3 = verify(p2, gates.DCNOT), verify(p3, gates.DCNOT)
    assert r2.total_time == r3.total_time


def test_family_gate_spec(capsys):
    code, out, _ = run_cli(capsys, "canon", "--gate", "FAMILY:3.141592653589793,0,1.5707963267948966")
    assert code == EXIT_OK
    assert last_json(out)["alpha"] == [0.7853981634, 0.7853981634, 0.0]


def test_classify_class_tol_override(capsys):
    # A content a hair off the pi/4 landmark classifies as NoTransmission at
    # the default tolerance; a loose override lets noisy inputs through.
    code, out, _ = run_cli(capsys, "classify", "--gate", "CONTROLLED_U:0.7853")
    assert code == EXIT_OK
    assert last_json(out)["class"] == "NoTransmission"
    code, out, _ = run_cli(
        capsys, "classify", "--gate", "CONTROLLED_U:0.7853", "--class-tol", "1e-3"
    )
    assert code == EXIT_OK
    assert last_json(out)["class"] == "ClassCNOT"


def test_classify_rows(capsys):
    code, out, _ = run_cli(capsys, "classify", "--gate", "CNOT")
    assert code == EXIT_OK
    data = last_json(out)
    assert data["class"] == "ClassCNOT"
    assert data["row"] == "✓ × ×"

    code, out, _ = run_cli(capsys, "classify", "--gate", "SWAP")
    assert last_json(out)["row"] == "✓ ✓ ✓"

    code, out, _ = run_cli(capsys, "classify", "--gate", "CONTROLLED_U:0.3")
    data = last_json(out)
    assert data["class"] == "NoTransmission"
    assert data["row"] == "× × ×"


def test_commcost(capsys):
    code, out, _ = run_cli(capsys, "commcost", "--task", "cbit-a-to-b", "--alpha", "1,0,0")
    assert code == EXIT_OK
    data = last_json(out)
    assert data["cost"] == 0.7853981634
    assert data["realizing_gate_hint"] == "CNOT"


def test_order(capsys):
    code, out, _ = run_cli(capsys, "order", "--gate-u", "CNOT", "--gate-v", "CONTROLLED_U:0.3")
    assert code == EXIT_OK
    assert last_json(out)["verdict"] == "MoreNonlocal"

    code, out, _ = run_cli(capsys, "order", "--gate-u", "SWAP", "--gate-v", "CNOT")
    assert last_json(out)["verdict"] == "OutsideRegion"


def test_unknown_gate_exit_code(capsys):
    code, _, err = run_cli(capsys, "canon", "--gate", "TOFFOLI")
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_degrees_flag(capsys):
    code, out, _ = run_cli(capsys, "--degrees", "cost", "--gate", "CNOT", "--alpha", "57.29577951,0,0")
    assert code == EXIT_OK
    assert last_json(out)["cost"] == pytest.approx(0.7853981634, abs=1e-8)


def test_batch_three_lines(capsys, tmp_path):
    lines = [
        {"cmd": "canon", "gate": "CNOT"},
        {"cmd": "cost", "gate": "SWAP", "alpha": [1, 1, 1]},
        {"cmd": "classify", "gate": {"controlled_u": 0.3}},
    ]
    path = tmp_path / "batch.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    results = [json.loads(line) for line in out.strip().splitlines()]
    assert len(results) == 3
    assert all(r["ok"] for r in results)
    assert results[0]["result"]["alpha"] == [0.7853981634, 0.0, 0.0]
    assert results[1]["result"]["cost"] == 0.7853981634
    assert results[2]["result"]["class"] == "NoTransmission"


def test_batch_synth_and_verify(capsys, tmp_path):
    path = tmp_path / "sv.jsonl"
    path.write_text(json.dumps({"cmd": "synth", "gate": "CNOT", "alpha": [1, 0, 0]}) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    result = json.loads(out.strip())["result"]
    assert result["verification"]["passed"] is True

    line = {"cmd": "verify", "protocol": result["protocol"], "gate": "CNOT"}
    path.write_text(json.dumps(line) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    assert json.loads(out.strip())["result"]["passed"] is True


def test_batch_accepts_matrices_rounded_to_cli_precision(capsys, tmp_path):
    # Entries rounded to the CLI's own 10 significant digits leave a unitary
    # only to ~1e-9, short of the library's 1e-10 tier; the loader projects
    # them back onto the nearest unitary instead of failing downstream.
    rng = np.random.default_rng(31)
    lines = []
    for _ in range(200):
        u = random_unitary(4, rng)
        entries = [[float(f"{z.real:.10g}"), float(f"{z.imag:.10g}")] for z in u.ravel()]
        gate = {"matrix": entries}
        lines.append({"cmd": "canon", "full": True, "gate": gate})
        lines.append({"cmd": "synth", "gate": gate, "alpha": [1.0, 0.7, -0.2]})
    path = tmp_path / "rounded.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    results = [json.loads(line) for line in out.strip().splitlines()]
    assert len(results) == 400
    assert all(r["ok"] for r in results), next(r["error"] for r in results if not r["ok"])
    assert all(r["result"]["verification"]["passed"] for r in results[1::2])


def test_batch_rejects_matrix_off_unitary_by_1e_6(capsys, tmp_path):
    u = random_unitary(4, np.random.default_rng(32))
    u[0, 0] += 1e-6
    entries = [[z.real, z.imag] for z in u.ravel()]
    path = tmp_path / "off.jsonl"
    path.write_text(json.dumps({"cmd": "canon", "gate": {"matrix": entries}}) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    result = json.loads(out.strip())
    assert not result["ok"]
    assert "not unitary" in result["error"]


def test_batch_empty_file(capsys, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    assert out.strip() == ""


def test_batch_malformed_line_does_not_abort(capsys, tmp_path):
    bad = {
        "not json": "Expecting value",
        "3": "must be a JSON object",
        "[1,2]": "must be a JSON object",
        '{"cmd": "canon", "gate": {"named": 3}}': "named must be a gate name string",
        '{"cmd": "canon", "gate": {"matrix": [1]}}': "matrix must be 16 finite [re, im] pairs",
    }
    path = tmp_path / "bad.jsonl"
    good = ['{"cmd": "canon", "gate": "CNOT"}', '{"cmd": "canon", "gate": "SWAP"}']
    path.write_text("\n".join([good[0], *bad, good[1]]) + "\n")
    code, out, _ = run_cli(capsys, "batch", "--input", str(path))
    assert code == EXIT_OK
    results = [json.loads(line) for line in out.strip().splitlines()]
    assert len(results) == 2 + len(bad)
    assert results[0]["ok"] and results[-1]["ok"]
    for result, message in zip(results[1:-1], bad.values()):
        assert not result["ok"]
        assert message in result["error"]


def test_ragged_coupling_is_a_validation_error(capsys, tmp_path):
    ragged = [[1, 0], [0, 1, 2]]
    path = tmp_path / "c.json"
    for coupling in (ragged, [[1, 0, 0], [0, "x", 0], [0, 0, 1]], [[1, 0, 0]] * 2):
        path.write_text(json.dumps(coupling))
        code, _, err = run_cli(capsys, "cost", "--gate", "CNOT", "--coupling-file", str(path))
        assert code == EXIT_VALIDATION
        assert json.loads(err)["error"] == "coupling must be a finite 3x3 real matrix"
    (result,) = run_batch(capsys, tmp_path, [{"cmd": "cost", "gate": "CNOT", "coupling": ragged}])
    message = "coupling must be a finite 3x3 real matrix"
    assert result == {"ok": False, "error": message, "error_type": "ValidationError"}


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tolerances_are_rejected(capsys, tmp_path, value):
    proto_path = tmp_path / "cnot.json"
    run_cli(capsys, "synth", "--gate", "CNOT", "--alpha", "1,0,0", "--out", str(proto_path))
    code, _, err = run_cli(
        capsys, "verify", "--protocol", str(proto_path), "--gate", "CNOT", f"--tolerance={value}"
    )
    assert code == EXIT_VALIDATION
    assert "tolerance must be a finite non-negative number" in err
    code, _, err = run_cli(capsys, "classify", "--gate", "CNOT", f"--class-tol={value}")
    assert code == EXIT_VALIDATION
    assert "class_tol must be a finite non-negative number" in err

    protocol = json.loads(proto_path.read_text())
    results = run_batch(
        capsys,
        tmp_path,
        [
            {"cmd": "verify", "gate": "CNOT", "protocol": protocol, "tolerance": float(value)},
            {"cmd": "classify", "gate": "CNOT", "class_tol": float(value)},
        ],
    )
    assert [r["ok"] for r in results] == [False, False]


@pytest.mark.parametrize("full", ["false", "yes", 1, 0, None, []])
def test_a_mistyped_full_flag_is_rejected(capsys, tmp_path, full):
    # "false" used to give the full decomposition, being a truthy string.
    line = {"cmd": "canon", "gate": "CNOT", "full": full}
    error = {"ok": False, "error": "full must be true or false", "error_type": "ValidationError"}
    assert run_batch(capsys, tmp_path, [line]) == [error]
    with pytest.raises(ValidationError, match="full must be true or false"):
        _run(line, False)


def test_boolean_tolerances_are_rejected(capsys, tmp_path):
    # true used to be read as a tolerance of 1.0.
    protocol = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.0, 0.0])))
    results = run_batch(
        capsys,
        tmp_path,
        [
            {"cmd": "verify", "gate": "CNOT", "protocol": protocol, "tolerance": True},
            {"cmd": "classify", "gate": "CNOT", "class_tol": True},
            {"cmd": "classify", "gate": "CNOT", "class_tol": False},
        ],
    )
    assert [r.get("error") for r in results] == [
        "tolerance must be a finite non-negative number",
        "class_tol must be a finite non-negative number",
        "class_tol must be a finite non-negative number",
    ]


@pytest.mark.parametrize(
    "duration, message",
    [
        (float("nan"), "segment 0 duration"),
        (float("inf"), "segment 0 duration"),
        (1.7e308, "drift phase"),
        (-0.1, "segment 0 duration"),
    ],
)
def test_non_finite_segment_duration_is_a_validation_error(duration, message):
    # The library's one check of durations answers for the CLI too.
    p = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.5, 0.2])))
    p["segments"][0]["duration"] = duration
    with pytest.raises(ValidationError, match=message):
        _run({"cmd": "verify", "gate": "CNOT", "protocol": p}, False)


def test_batch_verify_of_a_negative_duration_names_the_segment(capsys, tmp_path):
    # The error line used to read "duration -0.1 is negative".
    p = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3])))
    assert len(p["segments"]) >= 2
    p["segments"][1]["duration"] = -0.1
    [out] = run_batch(capsys, tmp_path, [{"cmd": "verify", "gate": "CNOT", "protocol": p}])
    assert out == {"ok": False, "error": "segment 1 duration -0.1 is negative", "error_type": "NegativeDurationError"}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p["opening"].update(u_a=(2 * np.array(p["opening"]["u_a"])).tolist()),
         "opening u_a is not unitary within 1e-08"),
        (lambda p: p["segments"][0].update(u_b=[[[0.0, 0.0]] * 2] * 2), "segment 0 u_b is not unitary within 1e-08"),
        (lambda p: p["closing"].update(u_b=(np.array(p["closing"]["u_b"]) * (1 + 2e-8)).tolist()),
         "closing u_b is not unitary within 1e-08"),
        (lambda p: p["closing"].update(phase=[0.0, 0.0]), "closing phase must be a finite nonzero"),
        (lambda p: p["segments"][0].update(phase=[float("nan"), 0.0]), "segment 0 phase must be a finite nonzero"),
        (lambda p: p["opening"].update(phase=[float("inf"), 1.0]), "opening phase must be a finite nonzero"),
        (lambda p: p.update(global_phase=[0.0, 0.0]), "global_phase must be a finite nonzero"),
    ],
    ids=["doubled", "all_zero", "just_outside_tier", "zero_phase", "nan_phase", "inf_phase", "zero_global_phase"],
)
def test_protocol_factors_must_be_unitary_and_phases_finite_and_nonzero(edit, message):
    # Projected onto a unitary unchecked, a doubled or all-zero factor gave
    # "passed": true, and a zero phase an untyped "complex division by zero".
    p = json.loads(json.dumps(protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3])))))
    assert p["segments"]
    assert _run({"cmd": "verify", "gate": "CNOT", "protocol": p}, False)["passed"]  # 10 digits still load
    edit(p)
    with pytest.raises(ValidationError, match=message):
        protocol_from_json(p)
    with pytest.raises(ValidationError, match=message):
        _run({"cmd": "verify", "gate": "CNOT", "protocol": p}, False)


def test_protocol_factor_unitary_within_the_residual_tier_loads():
    p = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3])))
    p["closing"]["u_b"] = (np.array(p["closing"]["u_b"]) * (1 + 2e-9)).tolist()
    assert _run({"cmd": "verify", "gate": "CNOT", "protocol": p}, False)["passed"]


_DRIFT = np.array([1.0, 0.6, -0.3])


def _cli_gate_matrix(scale):
    u = random_unitary(4, np.random.default_rng(40)) * scale
    _run({"cmd": "canon", "gate": {"matrix": [[z.real, z.imag] for z in u.ravel()]}}, False)


def _cli_protocol_factor(scale):
    p = protocol_to_json(synthesize(gates.CNOT, _DRIFT))  # 10 digits: unitary to ~1e-10
    p["segments"][0]["u_b"] = (np.array(p["segments"][0]["u_b"]) * scale).tolist()
    assert _run({"cmd": "verify", "gate": "CNOT", "protocol": p}, False)["passed"]


def _library_protocol_factor(scale):
    p = synthesize(gates.CNOT, _DRIFT)
    local = p.segments[0].local
    segment = Segment(replace(local, u_b=local.u_b * scale), p.segments[0].duration)
    simulate(replace(p, segments=(segment, *p.segments[1:])))


def _validate(scale):
    rng = np.random.default_rng(41)
    LocalUnitaryPair(random_su2(rng) * scale, random_su2(rng)).validate()


def _controlled_gate(scale):
    gates.controlled_gate(np.diag([1.0, np.exp(1j * np.pi / 5)]) * scale)


@pytest.mark.parametrize(
    "load, tier, name",
    [
        (_cli_gate_matrix, 1e-8, "matrix"),
        (_cli_protocol_factor, 1e-8, "segment 0 u_b"),
        (_library_protocol_factor, 1e-10, "segment 0 u_b"),
        (_validate, 1e-10, "u_a"),
        (_controlled_gate, 1e-10, "controlled operation"),
    ],
    ids=["cli-gate-matrix", "cli-protocol-factor", "library-protocol-factor", "validate", "controlled_gate"],
)
def test_each_caller_admits_unitaries_by_the_one_rule(load, tier, name):
    # Scaling a unitary by 1 + e moves u u^dag off the identity by 2e + e^2.
    load(1 + 0.4 * tier)
    with pytest.raises(NonUnitaryError, match=f"^{re.escape(name)} is not unitary within {tier:g}$"):
        load(1 + 0.6 * tier)


@settings(max_examples=60, deadline=None)
@given(gate=haar_gates(), data=st.data())
def test_cli_and_library_name_the_same_corrupted_field(gate, data):
    p = synthesize(gate, _DRIFT)
    k = len(p.segments)
    field = data.draw(st.sampled_from(["u_a", "u_b", "phase", "duration"][: 4 if k else 3]))
    i = data.draw(st.integers(1, k) if field == "duration" else st.integers(0, k + 1))
    name = f"{['opening', *(f'segment {j}' for j in range(k)), 'closing'][i]} {field}"

    obj = protocol_to_json(p)
    objs = [obj["opening"], *obj["segments"], obj["closing"]]
    pairs = [p.opening, *(seg.local for seg in p.segments), p.closing]
    durations = [seg.duration for seg in p.segments]
    if field == "duration":
        objs[i]["duration"] = durations[i - 1] = -0.1
    elif field == "phase":
        objs[i]["phase"] = [0.0, 0.0]
        pairs[i] = replace(pairs[i], phase=0.0)
    else:
        objs[i][field] = (2 * np.array(objs[i][field])).tolist()
        pairs[i] = replace(pairs[i], **{field: 2 * getattr(pairs[i], field)})
    corrupted = replace(
        p,
        opening=pairs[0],
        segments=tuple(Segment(local, t) for local, t in zip(pairs[1:-1], durations)),
        closing=pairs[-1],
    )
    with pytest.raises(ValidationError) as cli_error:
        _run({"cmd": "verify", "gate": "CNOT", "protocol": obj}, False)
    with pytest.raises(ValidationError) as library_error:
        verify(corrupted, gate)
    assert str(cli_error.value).startswith(name)
    assert str(library_error.value).startswith(name)


def test_synth_protocols_of_random_gates_verify_after_the_json_round_trip():
    # At 10 digits a global phase is unit-modulus only to ~1e-10; loaded
    # as written, it made about half of these fail with NonUnitaryError on
    # the simulated gate.
    rng = np.random.default_rng(5)
    for _ in range(20):
        gate = {"matrix": [[z.real, z.imag] for z in random_unitary(4, rng).ravel()]}
        p = json.loads(json.dumps(_run({"cmd": "synth", "gate": gate, "alpha": [1, 0.6, -0.3]}, False)["protocol"]))
        assert _run({"cmd": "verify", "gate": gate, "protocol": p}, False)["passed"]


def test_batch_verify_of_an_all_zero_factor_is_an_error_line(capsys, tmp_path):
    p = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3])))
    p["opening"]["u_a"] = [[[0.0, 0.0]] * 2] * 2
    [out] = run_batch(capsys, tmp_path, [{"cmd": "verify", "gate": "CNOT", "protocol": p}])
    assert out == {"ok": False, "error": "opening u_a is not unitary within 1e-08", "error_type": "NonUnitaryError"}


def test_overflowing_drift_is_a_validation_error():
    # Drift eigenvalues of 3e308 overflow: unchecked, synth raises an untyped
    # ValueError and cost and commcost answer 0.
    for cmd in ("cost", "synth", "commcost"):
        for ham in ({"alpha": [1e308] * 3}, {"coupling": np.diag([1e308] * 3).tolist()}):
            line = {"cmd": cmd, "gate": "SWAP", "task": "qubit-both-ways", **ham}
            with pytest.raises(ValidationError, match="overflow"):
                _run(line, False)


def test_malformed_protocol_file_and_unwritable_out_are_validation_errors(capsys, tmp_path):
    proto_path = tmp_path / "cnot.json"
    run_cli(capsys, "synth", "--gate", "CNOT", "--alpha", "1,0,0", "--out", str(proto_path))
    protocol = json.loads(proto_path.read_text())
    for alpha in ([1.0], [1.0, 0.0, 0.0, 0.0], ["x", 0, 0]):
        proto_path.write_text(json.dumps({**protocol, "hamiltonian_alpha": alpha}))
        code, _, err = run_cli(capsys, "verify", "--protocol", str(proto_path), "--gate", "CNOT")
        assert code == EXIT_VALIDATION
        assert "hamiltonian_alpha must be a finite 3-vector" in err
    out = tmp_path / "missing-dir" / "p.json"
    code, _, err = run_cli(capsys, "synth", "--gate", "CNOT", "--alpha", "1,0,0", "--out", str(out))
    assert code == EXIT_VALIDATION
    assert "cannot write protocol file" in err


@pytest.mark.parametrize("flags", [[], ["--degrees"]])
def test_subcommands_match_their_batch_lines(capsys, tmp_path, flags):
    # Each subcommand flag maps to one batch field, so a subcommand prints
    # exactly the result of its batch line; synth writes the protocol to
    # --out instead of inlining it.
    entries = [[z.real, z.imag] for z in random_unitary(4, np.random.default_rng(34)).ravel()]
    matrix_path = tmp_path / "u.json"
    matrix_path.write_text(json.dumps({"matrix": entries}))
    coupling = [[0.9, 0.1, 0.0], [0.2, 0.5, -0.1], [0.0, 0.3, -0.2]]
    coupling_path = tmp_path / "c.json"
    coupling_path.write_text(json.dumps({"coupling": coupling}))
    proto_path = tmp_path / "p.json"
    synth_path = tmp_path / "s.json"
    run_cli(capsys, "synth", "--gate", "DCNOT", "--alpha", "1,0.8,0.1", "--out", str(proto_path))
    protocol = json.loads(proto_path.read_text())
    m, c = str(matrix_path), str(coupling_path)
    cases = [
        (
            ["canon", "--full", "--matrix-file", m, "--matrix-order", "reversed"],
            {"cmd": "canon", "full": True, "gate": {"matrix": entries, "order": "reversed"}},
        ),
        (
            ["cost", "--gate", "CNOT", "--coupling-file", c],
            {"cmd": "cost", "gate": "CNOT", "coupling": coupling},
        ),
        (
            ["cost", "--matrix-file", m, "--alpha", "0.2,1,0.5"],
            {"cmd": "cost", "gate": {"matrix": entries}, "alpha": [0.2, 1, 0.5]},
        ),
        (
            ["classify", "--gate", "CONTROLLED_U:0.7853", "--class-tol", "1e-3"],
            {"cmd": "classify", "gate": {"controlled_u": 0.7853}, "class_tol": 1e-3},
        ),
        (
            ["commcost", "--task", "cbit-both-ways", "--alpha", "1,0.5,-0.2"],
            {"cmd": "commcost", "task": "cbit-both-ways", "alpha": [1, 0.5, -0.2]},
        ),
        (
            ["order", "--gate-u", "FAMILY:1,0.5,0.3", "--gate-v", "CONTROLLED_U:0.3"],
            {"cmd": "order", "gate_u": {"family": [1, 0.5, 0.3]}, "gate_v": "CONTROLLED_U:0.3"},
        ),
        (
            ["verify", "--protocol", str(proto_path), "--gate", "DCNOT", "--tolerance", "1e-9"],
            {"cmd": "verify", "protocol": protocol, "gate": "DCNOT", "tolerance": 1e-9},
        ),
        (
            ["synth", "--matrix-file", m, "--coupling-file", c, "--out", str(synth_path)],
            {"cmd": "synth", "gate": {"matrix": entries}, "coupling": coupling},
        ),
    ]
    results = run_batch(capsys, tmp_path, [line for _, line in cases], *flags)
    for (argv, line), batch in zip(cases, results):
        assert batch["ok"], (line["cmd"], batch["error"])
        _, out, _ = run_cli(capsys, *flags, *argv)
        expected = batch["result"]
        if line["cmd"] == "synth":
            assert json.loads(synth_path.read_text()) == expected.pop("protocol")
            expected["protocol_file"] = str(synth_path)
        assert last_json(out) == expected, line["cmd"]


_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)
_GATE_KEYS = st.sampled_from(["named", "controlled_u", "family", "matrix", "order"])
_GATES = (
    _ANY_JSON
    | st.sampled_from(["CNOT", "CONTROLLED_U:0.3", "FAMILY:1,2,3", "FILE:", {"named": "SWAP"}])
    | st.dictionaries(_GATE_KEYS, _ANY_JSON, max_size=2)
)
_FIELDS = {
    "gate": _GATES,
    "gate_u": _GATES,
    "gate_v": _GATES,
    "alpha": _ANY_JSON | st.lists(st.floats(), min_size=3, max_size=3),
    "coupling": _ANY_JSON,
    "task": _ANY_JSON | st.just("cbit-a-to-b"),
    "tolerance": _ANY_JSON,
    "class_tol": _ANY_JSON,
    "full": _ANY_JSON,
    "protocol": _ANY_JSON,
}


@settings(max_examples=300, deadline=None)
@given(
    line=_ANY_JSON
    | st.builds(
        lambda cmd, fields: {"cmd": cmd, **fields},
        st.sampled_from(["canon", "cost", "synth", "verify", "classify", "commcost", "order"])
        | _ANY_JSON,
        st.fixed_dictionaries({}, optional=_FIELDS),
    ),
    degrees=st.booleans(),
)
def test_request_runner_answers_or_raises_a_typed_error(line, degrees):
    # Every request either gets a result that is strict JSON (no NaN or
    # Infinity) or fails with a GateforgeError that names the violated
    # precondition; nothing else escapes the runner.
    try:
        result = _run(line, degrees)
        assert isinstance(result, dict)
        json.dumps(result, allow_nan=False)
    except GateforgeError as exc:
        assert str(exc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("opening"), "protocol needs an 'opening' field"),
        (lambda p: p.pop("hamiltonian_alpha"), "protocol needs a 'hamiltonian_alpha' field"),
        (lambda p: p["segments"][0].pop("duration"), "segment 0 needs a 'duration' field"),
        (lambda p: p["closing"].pop("u_a"), "closing needs a 'u_a' field"),
        (lambda p: p["segments"][1].pop("phase"), "segment 1 needs a 'phase' field"),
        (lambda p: p.update(segments=5), "segments must be a list"),
        (lambda p: p["segments"].__setitem__(0, 3), "segment 0 must be a JSON object"),
        (lambda p: p.update(global_phase=[1.0]), "global_phase must be a finite nonzero [re, im] pair"),
        (lambda p: p["segments"][0].update(phase=None), "segment 0 phase must be a finite nonzero [re, im] pair"),
        (lambda p: p["opening"].update(phase=["a", "b"]), "opening phase must be a finite nonzero [re, im] pair"),
        (lambda p: p["segments"][1].update(duration=[0.1]), "segment 1 duration must be a number"),
    ],
)
def test_missing_or_mistyped_protocol_field_is_named(edit, message):
    # These used to answer "cannot load protocol: 'opening'", "... list index
    # out of range", "... 'NoneType' object is not subscriptable" or "...
    # Value after * must be an iterable, not int".
    p = protocol_to_json(synthesize(gates.CNOT, _DRIFT))
    assert len(p["segments"]) >= 2
    edit(p)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _run({"cmd": "verify", "gate": "CNOT", "protocol": p}, False)


@pytest.mark.parametrize("value", [None, [], "p", 3])
def test_a_protocol_that_is_no_object_is_named(value):
    with pytest.raises(ValidationError, match="^protocol must be a JSON object$"):
        _run({"cmd": "verify", "gate": "CNOT", "protocol": value}, False)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p["segments"][1]["u_b"][0].__setitem__(0, [float("nan"), 0.0]),
        lambda p: p["segments"][1].update(u_b=[[1.0, 0.0], [0.0, 1.0]]),
    ],
    ids=["nan_entry", "real_2x2_list"],
)
def test_malformed_factor_names_its_field(capsys, tmp_path, edit):
    # Both used to answer "u_a and u_b must be 2x2 matrices of finite
    # [re, im] pairs", without naming the factor.
    p = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3])))
    assert len(p["segments"]) >= 2
    edit(p)
    message = "segment 1 u_b must be a 2x2 matrix of finite [re, im] pairs"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        protocol_from_json(p)
    [out] = run_batch(capsys, tmp_path, [{"cmd": "verify", "gate": "CNOT", "protocol": p}])
    assert out == {"ok": False, "error": message, "error_type": "ValidationError"}


def _unitaries(rng, n):
    return np.array([np.exp(2j * np.pi * rng.random()) * random_su2(rng) for _ in range(n)])


def _at_admission_edge(rows, rng):
    """Each matrix moved by complex noise until its unitarity gap is ~0.99e-8,
    just inside the 1e-8 admission tier."""
    noise = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
    probe = _unitarity_gap(rows + 1e-9 * noise).max(axis=(-2, -1))
    return rows + (1e-9 * 0.99e-8 / probe)[:, None, None] * noise


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), edge=st.booleans())
def test_closed_form_polar_matches_svd_oracle(seed, n, edge):
    # Over 16,000 such matrices the closed form stayed within 8.9e-16 of
    # unitary, while the svd oracle reached 2.0e-15; the two differed by at
    # most 1.1e-15.
    rng = np.random.default_rng(seed)
    rows = _unitaries(rng, n)
    if edge:
        rows = _at_admission_edge(rows, rng)
    else:
        rows = np.vectorize(_sig)(rows.real) + 1j * np.vectorize(_sig)(rows.imag)
    assert _unitarity_gap(rows).max() <= 1e-8
    polar = _admitted_unitary(rows)
    assert np.abs(polar - reference_polar(rows)).max() <= 2e-15
    assert _unitarity_gap(polar).max() <= 1e-15


_EDGE_VALUES = [-0.0, 5e-324, -5e-324, 1e-300, 1 - 1e-16, -(1 - 1e-16), float("inf"), float("nan")]
#: Values with 11 significant digits whose 11th is a 5: rounding to 10 digits
#: goes up or down with the binary value's side of the decimal tie.
_TIES = st.builds(
    lambda digits, exp, sign: sign * float(f"{digits}5e{exp}"),
    st.integers(10**9, 10**10 - 1),
    st.integers(-330, 297),
    st.sampled_from([1.0, -1.0]),
)


@settings(max_examples=100, deadline=None)
@given(gate=haar_gates(), data=st.data())
def test_protocol_to_json_is_byte_identical_to_per_scalar_rounding(gate, data):
    p = synthesize(gate, _DRIFT)
    pairs = [p.opening, *(seg.local for seg in p.segments), p.closing]
    k = len(pairs)
    # Every number of the protocol in one float array: factors and phases,
    # then the drift, the durations and the global phase.
    z = np.array([[*pair.u_a.ravel(), *pair.u_b.ravel(), pair.phase] for pair in pairs], dtype=complex)
    rest = [*p.hamiltonian_alpha, *(seg.duration for seg in p.segments), p.global_phase.real, p.global_phase.imag]
    numbers = np.concatenate([z.view(float).ravel(), rest])
    values = st.one_of(st.sampled_from(_EDGE_VALUES), _TIES, st.floats())
    for i, x in data.draw(st.lists(st.tuples(st.integers(0, len(numbers) - 1), values), max_size=12)):
        numbers[i] = x
    z = numbers[: 18 * k].view(complex).reshape(k, 9)
    pairs = [LocalUnitaryPair(row[:4].reshape(2, 2), row[4:8].reshape(2, 2), row[8]) for row in z]
    edited = Protocol(
        opening=pairs[0],
        segments=tuple(Segment(pair, t) for pair, t in zip(pairs[1:-1], numbers[18 * k + 3 : -2])),
        closing=pairs[-1],
        hamiltonian_alpha=numbers[18 * k : 18 * k + 3],
        global_phase=complex(numbers[-2], numbers[-1]),
    )
    assert json.dumps(protocol_to_json(edited)) == json.dumps(reference_protocol_to_json(edited))


_FLOATS = st.one_of(st.sampled_from(_EDGE_VALUES), _TIES, st.floats())
_COMPLEXES = st.builds(complex, _FLOATS, _FLOATS)
_LEAVES = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    _COMPLEXES,
    _COMPLEXES.map(np.complex128),
    st.lists(_FLOATS, min_size=1, max_size=6).map(np.array),
    st.lists(_COMPLEXES, min_size=4, max_size=4).map(lambda zs: np.array(zs).reshape(2, 2)),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        _LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), inner, max_size=4),
        ),
        max_leaves=24,
    )
)
def test_plain_rounds_each_number_as_the_per_scalar_reference(value):
    # Bools stay true/false and ints stay ints: only floats are rounded.
    assert json.dumps(_plain(value)) == json.dumps(reference_plain(value))


F, I, B, S = "float", "int", "bool", "str"
_C = [F, F]
_PAIR = {"u_a": [[_C, _C], [_C, _C]], "u_b": [[_C, _C], [_C, _C]], "phase": _C}
_VERIFICATION = {"max_abs_error_up_to_phase": F, "content_error": F, "total_time": F, "passed": B}


def _shape(value):
    """The JSON types of a result, in its key order."""
    if isinstance(value, dict):
        return {key: _shape(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return {float: F, int: I, bool: B, str: S, type(None): None}[type(value)]


def _synth_shape(n):
    protocol = {
        "hamiltonian_alpha": [F] * 3,
        "opening": _PAIR,
        "segments": [{**_PAIR, "duration": F}] * n,
        "closing": _PAIR,
        "global_phase": _C,
        "total_time": F,
    }
    return {
        "total_time": F,
        "segments": I,
        "hamiltonian_alpha": [F] * 3,
        "verification": _VERIFICATION,
        "coupling_conjugators": _PAIR,
        "protocol": protocol,
    }


def test_each_command_result_has_its_key_order_and_json_types():
    coupling = [[1, 0.2, 0], [0.1, 0.6, 0], [0, 0, -0.3]]
    cases = [
        ({"cmd": "canon", "gate": "CNOT"}, {"alpha": [F] * 3, "lambda": [F] * 4}),
        (
            {"cmd": "canon", "gate": "SWAP", "full": True},
            {
                "alpha": [F] * 3,
                "lambda": [F] * 4,
                "kak": {"post_local": _PAIR, "alpha": [F] * 3, "pre_local": _PAIR, "global_phase": _C,
                        "reassembly_residual": F},
            },
        ),
        *(
            (
                {"cmd": "cost", "gate": "CNOT", "alpha": alpha},
                {"cost": cost, "infeasible": B, "branch": [I] * 3, "beta_used": [F] * 3, "beta": [F] * 3,
                 "alpha": [F] * 3},
            )
            for alpha, cost in (([1, 0.5, 0.2], F), ([0, 0, 0], None))
        ),
        ({"cmd": "synth", "gate": "CNOT", "coupling": coupling}, None),
        ({"cmd": "classify", "gate": "DCNOT"}, {"class": S, "beta": [F] * 3, "capabilities": [S] * 4, "row": S}),
        (
            {"cmd": "commcost", "task": "cbit-both-ways", "alpha": [1, 1, 1]},
            {"task": S, "cost": F, "optimal_beta": [F] * 3, "realizing_gate_hint": S},
        ),
        ({"cmd": "order", "gate_u": "CNOT", "gate_v": "SWAP"}, {"verdict": S, "beta_u": [F] * 3, "beta_v": [F] * 3}),
    ]
    for line, expected in cases:
        result = _run(line, False)
        if line["cmd"] == "synth":
            expected = _synth_shape(result["segments"])
            verify = _run({"cmd": "verify", "gate": "CNOT", "protocol": result["protocol"]}, False)
            assert json.dumps(_shape(verify)) == json.dumps(_VERIFICATION)
        assert json.dumps(_shape(result)) == json.dumps(expected), line
