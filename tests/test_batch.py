"""The chunked ``batch`` path: per-line answers and errors are those of each
line run alone, whatever the chunking; one stacked content call and one
stacked KAK call per chunk; undecodable lines and streaming stdin."""

import contextlib
import io
import json
import os
import select
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gateforge
from gateforge import cli, gates, protocol
from gateforge.cli import _run, main, protocol_to_json
from gateforge.errors import BranchResolutionError, GateforgeError
from gateforge.protocol import synthesize

_PROTOCOL = protocol_to_json(synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3])))
_OFF_UNITARY = np.eye(4, dtype=complex)
_OFF_UNITARY[0, 0] += 1e-6
_OFF_UNITARY_ENTRIES = [[z.real, z.imag] for z in _OFF_UNITARY.ravel()]
_ROUNDED_CNOT = [[float(f"{z.real:.10g}"), 0.0] for z in gates.CNOT.ravel()]

_VALID = [
    {"cmd": "canon", "gate": "CNOT"},
    {"cmd": "canon", "gate": {"matrix": _ROUNDED_CNOT, "order": "reversed"}},
    {"cmd": "canon", "gate": "SWAP", "full": True},
    {"cmd": "cost", "gate": "DCNOT", "alpha": [1, 0.5, 0.2]},
    {"cmd": "cost", "gate": "CNOT", "coupling": [[1, 0.2, 0], [0.1, 0.6, 0], [0, 0, -0.3]]},
    {"cmd": "synth", "gate": "CONTROLLED_U:0.3", "alpha": [1, 1, 0]},
    {"cmd": "verify", "gate": "CNOT", "protocol": _PROTOCOL},
    {"cmd": "classify", "gate": {"family": [1, 2, 3]}},
    {"cmd": "commcost", "task": "cbit-both-ways", "alpha": [1, 1, 1]},
    {"cmd": "order", "gate_u": "CNOT", "gate_v": {"matrix": _ROUNDED_CNOT}},
]
_BAD = [
    b"not json",
    b"[1, 2]",
    json.dumps({"cmd": "teleport", "gate": "CNOT"}).encode(),
    json.dumps({"cmd": "classify"}).encode(),
    json.dumps({"cmd": "canon", "gate": {"matrix": _OFF_UNITARY_ENTRIES}}).encode(),
    json.dumps({"cmd": "order", "gate_u": "CNOT", "gate_v": {"matrix": _OFF_UNITARY_ENTRIES}}).encode(),
    json.dumps({"cmd": "cost", "gate": {"matrix": _OFF_UNITARY_ENTRIES}, "alpha": [1, "x", 0]}).encode(),
    json.dumps({"cmd": "synth", "gate": {"matrix": _OFF_UNITARY_ENTRIES}, "alpha": [1, 0.5, 0]}).encode(),
    json.dumps({"cmd": "synth", "gate": {"matrix": _OFF_UNITARY_ENTRIES}, "alpha": [1, "x", 0]}).encode(),
    json.dumps({"cmd": "canon", "gate": {"matrix": _OFF_UNITARY_ENTRIES}, "full": True}).encode(),
    json.dumps({"cmd": "canon", "gate": "CNOT", "full": "yes"}).encode(),
    b"\xff\xfe",
    b"",
    b"   \t",
]
_LINES = st.sampled_from([json.dumps(line).encode() for line in _VALID] + _BAD)


def batch_output(data: bytes, *flags: str) -> str:
    """What ``gateforge batch`` prints for an input file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes(data)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*flags, "batch", "--input", str(path)]) == cli.EXIT_OK
    return out.getvalue()


def one_at_a_time(lines: list[bytes]) -> str:
    """The answers of ``lines``, each run alone through ``_run``."""
    out = []
    for raw in lines:
        try:
            text = raw.decode("utf-8").strip()
            if not text:
                continue
            answer = {"ok": True, "result": _run(json.loads(text), False)}
        except (GateforgeError, ValueError, KeyError, TypeError) as exc:
            answer = {"ok": False, "error": str(exc), "error_type": type(exc).__name__}
        out.append(json.dumps(answer) + "\n")
    return "".join(out)


@settings(max_examples=20, deadline=None)
@given(lines=st.lists(_LINES, max_size=70))
def test_answers_do_not_depend_on_the_chunking(lines):
    data = b"".join(line + b"\n" for line in lines)
    chunked = batch_output(data)
    with mock.patch.object(cli, "_CHUNK_LINES", 1):
        assert batch_output(data) == chunked
    assert one_at_a_time(lines) == chunked


def test_bad_alpha_is_named_before_a_bad_gate():
    lines = [{"cmd": cmd, "gate": {"matrix": _OFF_UNITARY_ENTRIES}, "alpha": [1, "x", 0]} for cmd in ("cost", "synth")]
    data = b"".join(json.dumps(x).encode() + b"\n" for x in [_VALID[0], *lines, _VALID[3]])
    first, *bad, last = (json.loads(out) for out in batch_output(data).splitlines())
    assert first["ok"] and last["ok"]
    error = {"ok": False, "error": "alpha must be a finite 3-vector", "error_type": "ValidationError"}
    assert bad == [error, error]


def test_undecodable_line_gets_an_error_line():
    # The whole run used to die in readlines() with a UnicodeDecodeError,
    # printing no answer at all.
    data = b'{"cmd": "canon", "gate": "CNOT"}\n\xff\xfe\n{"cmd": "canon", "gate": "SWAP"}\n'
    first, bad, last = (json.loads(out) for out in batch_output(data).splitlines())
    assert first["ok"] and last["ok"]
    assert bad["ok"] is False and bad["error_type"] == "UnicodeDecodeError"
    assert "can't decode byte 0xff" in bad["error"]


@pytest.mark.parametrize(
    "line, error_type",
    [
        (b'{"cmd": "teleport"}', "ValidationError"),
        (json.dumps({"cmd": "canon", "gate": {"matrix": _OFF_UNITARY_ENTRIES}}).encode(), "NonUnitaryError"),
        (b'{"cmd": "commcost", "task": "qubit-both-ways", "alpha": [1e-320, 0, 0]}', "InfeasibleError"),
        (b"{not json", "JSONDecodeError"),
    ],
    ids=["validation", "non_unitary", "infeasible", "json_decode"],
)
def test_error_lines_name_their_type(line, error_type):
    (out,) = batch_output(line + b"\n").splitlines()
    assert out.startswith('{"ok": false, "error": ')
    answer = json.loads(out)
    assert list(answer) == ["ok", "error", "error_type"]
    assert answer["error_type"] == error_type


def test_a_failing_stacked_content_call_is_redone_gate_by_gate(monkeypatch):
    # SWAP is marked: a stack holding it raises naming its row, as the
    # library's stacked errors do; alone it raises the single-call text.
    content = cli.interaction_content
    swap = gates.named_gate("SWAP")

    def marked(g):
        if g.ndim == 3:
            rows = [k for k, m in enumerate(g) if np.array_equal(m, swap)]
            if rows:
                raise BranchResolutionError(f"no eigenvalue branch in row {rows[0]}")
        elif np.array_equal(g, swap):
            raise BranchResolutionError("no eigenvalue branch")
        return content(g)

    lines = [_VALID[0], {"cmd": "cost", "gate": "SWAP", "alpha": [1, 1, 1]}, _VALID[3], _VALID[7], _VALID[9]]
    data = b"".join(json.dumps(line).encode() + b"\n" for line in lines)
    expected = batch_output(data).splitlines()
    monkeypatch.setattr(cli, "interaction_content", marked)
    answers = batch_output(data).splitlines()
    error = {"ok": False, "error": "no eigenvalue branch", "error_type": "BranchResolutionError"}
    assert json.loads(answers[1]) == error
    assert answers[:1] + answers[2:] == expected[:1] + expected[2:]


def test_a_failing_stacked_kak_call_is_redone_gate_by_gate(monkeypatch):
    # As for the content call: SWAP is marked, so a stacked decomposition
    # holding it raises naming its row, and alone it raises the single-call
    # text, which only SWAP's lines get (synth's from inside the synthesis).
    kak = cli.kak_decompose
    swap = gates.named_gate("SWAP")

    def marked(g):
        if g.ndim == 3:
            rows = [k for k, m in enumerate(g) if np.array_equal(m, swap)]
            if rows:
                raise BranchResolutionError(f"reassembly residual 1 in row {rows[0]} exceeds 1e-08")
        elif np.array_equal(g, swap):
            raise BranchResolutionError("reassembly residual 1 exceeds 1e-08")
        return kak(g)

    lines = [
        _VALID[5],
        {"cmd": "synth", "gate": "SWAP", "alpha": [1, 1, 1]},
        {"cmd": "canon", "gate": "CNOT", "full": True},
        _VALID[2],
        _VALID[3],
    ]
    data = b"".join(json.dumps(line).encode() + b"\n" for line in lines)
    expected = batch_output(data).splitlines()
    monkeypatch.setattr(cli, "kak_decompose", marked)
    answers = batch_output(data).splitlines()
    error = {"ok": False, "error": "reassembly residual 1 exceeds 1e-08", "error_type": "BranchResolutionError"}
    assert [json.loads(answers[k]) for k in (1, 3)] == [error, error]
    assert [answers[k] for k in (0, 2, 4)] == [expected[k] for k in (0, 2, 4)]


def test_a_synth_chunk_makes_one_kak_call(monkeypatch):
    calls, library_calls = [], []
    kak = cli.kak_decompose

    def counted(g):
        calls.append(np.shape(g))
        return kak(g)

    monkeypatch.setattr(cli, "kak_decompose", counted)
    monkeypatch.setattr(protocol, "kak_decompose", lambda g: library_calls.append(g) or kak(g))
    gate_specs = ["CNOT", "SWAP", "CONTROLLED_U:0.3", *(f"FAMILY:{0.1 * k},0.2,0.05" for k in range(29))]
    lines = [{"cmd": "synth", "gate": gate, "alpha": [1, 0.6, -0.3]} for gate in gate_specs]
    data = b"".join(json.dumps(line).encode() + b"\n" for line in lines)
    answers = [json.loads(out) for out in batch_output(data).splitlines()]
    assert len(answers) == 32 and all(answer["ok"] for answer in answers)
    # One stacked decomposition for the chunk; the synthesis reuses it.
    assert calls == [(32, 4, 4)]
    assert library_calls == []


def test_an_analyze_chunk_makes_one_content_call(monkeypatch):
    calls = []
    content = cli.interaction_content

    def counted(g):
        calls.append(np.shape(g))
        return content(g)

    monkeypatch.setattr(cli, "interaction_content", counted)
    analyze = [line for line in _VALID if line["cmd"] not in ("synth", "verify")]
    lines = [analyze[k % len(analyze)] for k in range(64)]
    data = b"".join(json.dumps(line).encode() + b"\n" for line in lines)
    assert len(batch_output(data).splitlines()) == 64
    # One stacked call per chunk of 32 lines, holding every content the
    # chunk needs (an order line needs two, canon with full none).
    needed = [2 if line["cmd"] == "order" else line["cmd"] != "commcost" and not line.get("full") for line in lines]
    assert calls == [(sum(needed[:32]), 4, 4), (sum(needed[32:]), 4, 4)]


def test_stdin_answers_each_line_before_the_next_arrives():
    # stdin used to be read to its end before the first answer.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(gateforge.__file__).resolve().parents[1])
    with subprocess.Popen(
        [sys.executable, "-m", "gateforge.cli", "batch", "--input", "-"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
    ) as proc:
        try:
            for gate in ("CNOT", "SWAP"):
                proc.stdin.write(json.dumps({"cmd": "canon", "gate": gate}).encode() + b"\n")
                proc.stdin.flush()
                assert select.select([proc.stdout], [], [], 10)[0], f"no answer to {gate} within 10 s"
                assert json.loads(proc.stdout.readline())["ok"]
            proc.stdin.close()
            assert proc.wait(timeout=10) == cli.EXIT_OK
            assert proc.stdout.read() == b""
        finally:
            proc.kill()
