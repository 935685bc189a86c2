"""Command-line interface: gate and Hamiltonian loading, JSON serialization
of protocols and reports, and batch processing.

External formats
----------------
Gate matrices enter as JSON: a flat list of 16 ``[re, im]`` pairs, row-major,
computational basis ordered |00>, |01>, |10>, |11> (pass ``reversed`` to load
files written in the opposite |11>..|00> ordering; entries are mirrored on
load).  Hamiltonians enter as an ``--alpha`` 3-vector (s-ordered on input,
with a warning when reordering was needed) or as a 3x3 coupling-matrix JSON
file routed through the canonicalizer.  Protocol files are JSON with fields
``hamiltonian_alpha``, ``opening``, ``segments`` (each
``{u_a, u_b, phase, duration}``), ``closing``, ``global_phase`` and
``total_time``; complex numbers are ``[re, im]`` pairs.  All numeric output
is printed at 10 significant digits.  Angles are radians; ``--degrees``
converts inputs only.

Exit codes: 0 success/verified, 1 validation error, 2 infeasible,
3 internal residual failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import comm, cost, gates, protocol, tolerances
from .canonical import alpha_to_lambda, hamiltonian_canonical, interaction_content, kak_decompose, s_order
from .errors import (
    GateforgeError,
    InfeasibleError,
    NonUnitaryError,
    ValidationError,
)
from .linalg import LocalUnitaryPair, is_unitary

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_RESIDUAL = 3

_SIG_DIGITS = 10


# ---------------------------------------------------------------------------
# Number and matrix (de)serialization.
# ---------------------------------------------------------------------------

def _sig(x: float) -> float:
    """Rounds to 10 significant digits (idempotent, so round-trips are stable)."""
    if x == 0:
        return 0.0
    if not math.isfinite(x):
        return x
    return float(f"{x:.{_SIG_DIGITS}g}")


def _json_complex(z: complex) -> list[float]:
    return [_sig(float(np.real(z))), _sig(float(np.imag(z)))]


def _json_vector(v) -> list[float]:
    return [_sig(float(x)) for x in np.asarray(v, dtype=float)]


def _json_matrix2(m: np.ndarray) -> list[list[list[float]]]:
    return [[_json_complex(m[i, j]) for j in range(2)] for i in range(2)]


def _complex_from(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def _matrix2_from(rows) -> np.ndarray:
    return np.array([[_complex_from(rows[i][j]) for j in range(2)] for i in range(2)])


def _pair_to_json(pair: LocalUnitaryPair) -> dict:
    return {
        "u_a": _json_matrix2(pair.u_a),
        "u_b": _json_matrix2(pair.u_b),
        "phase": _json_complex(pair.phase),
    }


def _closest_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _pair_from_json(obj: dict) -> LocalUnitaryPair:
    """Reconstructs a pair, projecting each factor back onto an exact unitary.

    Serialized entries carry 10 significant digits, so the raw factors are
    unitary only to ~1e-9; the polar projection restores the type invariant
    without moving any entry by more than the serialization error.
    """
    phase = _complex_from(obj["phase"])
    return LocalUnitaryPair(
        _closest_unitary(_matrix2_from(obj["u_a"])),
        _closest_unitary(_matrix2_from(obj["u_b"])),
        phase / abs(phase),
    )


def protocol_to_json(p: protocol.Protocol) -> dict:
    """Serializable form of a protocol (see the module docstring for fields)."""
    return {
        "hamiltonian_alpha": _json_vector(p.hamiltonian_alpha),
        "opening": _pair_to_json(p.opening),
        "segments": [
            {**_pair_to_json(seg.local), "duration": _sig(seg.duration)}
            for seg in p.segments
        ],
        "closing": _pair_to_json(p.closing),
        "global_phase": _json_complex(p.global_phase),
        "total_time": _sig(p.total_time),
    }


def protocol_from_json(obj: dict) -> protocol.Protocol:
    segments = tuple(
        protocol.Segment(local=_pair_from_json(seg), duration=float(seg["duration"]))
        for seg in obj["segments"]
    )
    return protocol.Protocol(
        opening=_pair_from_json(obj["opening"]),
        segments=segments,
        closing=_pair_from_json(obj["closing"]),
        hamiltonian_alpha=np.asarray(obj["hamiltonian_alpha"], dtype=float),
        global_phase=_complex_from(obj["global_phase"]),
    )


# ---------------------------------------------------------------------------
# Input parsing.
# ---------------------------------------------------------------------------

def _angle_scale(degrees: bool) -> float:
    return math.pi / 180.0 if degrees else 1.0


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ValidationError(f"{what} needs {n} comma-separated numbers")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad number in {what}: {exc}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{what} entries must be finite")
    return values


def _matrix_from_entries(entries, order: str) -> np.ndarray:
    """Loads a 4x4 gate, admitting it if unitary to the RESIDUAL tier and then
    projecting it onto the nearest unitary, so that matrices rounded to this
    module's own 10-digit output meet the library's STRUCTURAL tier."""
    if len(entries) != 16:
        raise ValidationError("matrix spec needs exactly 16 [re, im] entries")
    m = np.array([_complex_from(e) for e in entries]).reshape(4, 4)
    if order == "reversed":
        m = m[::-1, ::-1].copy()
    elif order != "standard":
        raise ValidationError(f"unknown basis order {order!r}")
    if not is_unitary(m, tolerances.RESIDUAL):
        raise NonUnitaryError("loaded matrix is not unitary")
    return _closest_unitary(m)


def _load_matrix_file(path: str, order: str | None) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"matrix file is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        entries = data.get("matrix")
        file_order = data.get("order", "standard")
    else:
        entries, file_order = data, "standard"
    if entries is None:
        raise ValidationError("matrix file must contain a 'matrix' field or a bare list")
    return _matrix_from_entries(entries, order or file_order)


def parse_gate_spec(spec: str, degrees: bool = False, order: str | None = None) -> np.ndarray:
    """Gate mini-language: a registry name, ``CONTROLLED_U:beta``,
    ``FAMILY:eta,theta,omega``, or ``FILE:path``."""
    scale = _angle_scale(degrees)
    head, _, rest = spec.partition(":")
    key = head.strip().upper()
    if key == "CONTROLLED_U":
        (beta,) = _parse_floats(rest, 1, "controlled-U parameter")
        return gates.named_gate("CONTROLLED_U", beta=beta * scale)
    if key == "FAMILY":
        eta, theta, omega = (x * scale for x in _parse_floats(rest, 3, "family angles"))
        return comm.family_gate(eta, theta, omega)
    if key == "FILE":
        return _load_matrix_file(rest.strip(), order)
    return gates.named_gate(key)


def _gate_from_args(args) -> np.ndarray:
    if getattr(args, "matrix_file", None):
        return _load_matrix_file(args.matrix_file, args.matrix_order)
    if getattr(args, "gate", None):
        return parse_gate_spec(args.gate, args.degrees, getattr(args, "matrix_order", None))
    raise ValidationError("no gate given: pass --gate or --matrix-file")


def _gate_from_batch(obj, degrees: bool) -> np.ndarray:
    if isinstance(obj, str):
        return parse_gate_spec(obj, degrees)
    if isinstance(obj, dict):
        if "named" in obj:
            return gates.named_gate(obj["named"])
        if "controlled_u" in obj:
            scale = _angle_scale(degrees)
            return gates.named_gate("CONTROLLED_U", beta=float(obj["controlled_u"]) * scale)
        if "family" in obj:
            scale = _angle_scale(degrees)
            eta, theta, omega = (float(x) * scale for x in obj["family"])
            return comm.family_gate(eta, theta, omega)
        if "matrix" in obj:
            return _matrix_from_entries(obj["matrix"], obj.get("order", "standard"))
    raise ValidationError("unrecognized gate spec in batch line")


def _load_coupling_file(path: str, degrees: bool) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read coupling file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"coupling file is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        data = data.get("coupling")
    c = np.asarray(data, dtype=float)
    if c.shape != (3, 3) or not np.all(np.isfinite(c)):
        raise ValidationError("coupling must be a finite 3x3 real matrix")
    return c * _angle_scale(degrees)


def _ham_from_args(args) -> tuple[np.ndarray, LocalUnitaryPair | None, list[str]]:
    """Returns (s-ordered alpha, conjugator pair for coupling input, warnings)."""
    warnings: list[str] = []
    if getattr(args, "coupling_file", None):
        c = _load_coupling_file(args.coupling_file, args.degrees)
        alpha, pair = hamiltonian_canonical(c)
        return alpha, pair, warnings
    if getattr(args, "alpha", None):
        raw = np.array(_parse_floats(args.alpha, 3, "--alpha")) * _angle_scale(args.degrees)
        ordered, _ = s_order(raw)
        if np.max(np.abs(ordered - raw)) > 0:
            warnings.append(f"alpha reordered to s-ordered form {_json_vector(ordered)}")
        return ordered, None, warnings
    raise ValidationError("no Hamiltonian given: pass --alpha or --coupling-file")


def _ham_from_batch(line: dict, degrees: bool) -> tuple[np.ndarray, LocalUnitaryPair | None]:
    """Reads the Hamiltonian spec off a batch line: ``alpha`` or ``coupling``."""
    scale = _angle_scale(degrees)
    if "coupling" in line:
        c = np.asarray(line["coupling"], dtype=float) * scale
        if c.shape != (3, 3) or not np.all(np.isfinite(c)):
            raise ValidationError("coupling must be a finite 3x3 real matrix")
        return hamiltonian_canonical(c)
    if "alpha" in line:
        raw = np.asarray(line["alpha"], dtype=float) * scale
        if raw.shape != (3,) or not np.all(np.isfinite(raw)):
            raise ValidationError("alpha must be a finite 3-vector")
        ordered, _ = s_order(raw)
        return ordered, None
    raise ValidationError("batch line needs an 'alpha' or 'coupling' field")


# ---------------------------------------------------------------------------
# Command bodies (shared by argparse handlers and batch mode).
# ---------------------------------------------------------------------------

def _run_canon(gate: np.ndarray, full: bool) -> dict:
    alpha = interaction_content(gate)
    out = {"alpha": _json_vector(alpha), "lambda": _json_vector(alpha_to_lambda(alpha))}
    if full:
        kak = kak_decompose(gate)
        out["kak"] = {
            "post_local": _pair_to_json(kak.post_local),
            "alpha": _json_vector(kak.alpha),
            "pre_local": _pair_to_json(kak.pre_local),
            "global_phase": _json_complex(kak.global_phase),
            "reassembly_residual": _sig(float(np.max(np.abs(kak.matrix() - gate)))),
        }
    return out


def _cost_report_json(report: cost.CostReport) -> dict:
    return {
        "cost": None if report.infeasible else _sig(report.cost),
        "infeasible": report.infeasible,
        "branch": list(report.branch),
        "beta_used": _json_vector(report.beta_used),
    }


def _run_cost(gate: np.ndarray, alpha: np.ndarray) -> dict:
    beta = interaction_content(gate)
    report = cost.interaction_cost(beta, alpha)
    out = _cost_report_json(report)
    out["beta"] = _json_vector(beta)
    out["alpha"] = _json_vector(alpha)
    return out


def _run_synth(gate: np.ndarray, alpha: np.ndarray, pair: LocalUnitaryPair | None) -> tuple[dict, dict]:
    p, report = protocol._synthesize(gate, alpha)
    summary = {
        "total_time": _sig(p.total_time),
        "segments": len(p.segments),
        "hamiltonian_alpha": _json_vector(alpha),
        "verification": _verification_json(report),
    }
    if pair is not None:
        summary["coupling_conjugators"] = _pair_to_json(pair)
    return protocol_to_json(p), summary


def _verification_json(report: protocol.VerificationReport) -> dict:
    return {
        "max_abs_error_up_to_phase": _sig(report.max_abs_error_up_to_phase),
        "content_error": _sig(report.content_error),
        "total_time": _sig(report.total_time),
        "passed": report.passed,
    }


def _run_classify(gate: np.ndarray, class_tol: float) -> dict:
    beta = interaction_content(gate)
    cls = comm.classify(beta, atol=class_tol)
    row = comm.capability_row(cls)
    marks = " ".join("✓" if ok else "×" for ok in row)
    return {
        "class": cls.value,
        "beta": _json_vector(beta),
        "capabilities": sorted(task.value for task in comm.capabilities(cls)),
        "row": marks,
    }


def _run_commcost(task: comm.CommTask, alpha: np.ndarray) -> dict:
    report = comm.task_cost(task, alpha)
    return {
        "task": task.value,
        "cost": _sig(report.cost),
        "optimal_beta": _json_vector(report.optimal_beta),
        "realizing_gate_hint": report.realizing_gate_hint,
    }


def _run_order(gate_u: np.ndarray, gate_v: np.ndarray) -> dict:
    beta_u = interaction_content(gate_u)
    beta_v = interaction_content(gate_v)
    verdict = cost.partial_order(beta_u, beta_v)
    return {
        "verdict": verdict.value,
        "beta_u": _json_vector(beta_u),
        "beta_v": _json_vector(beta_v),
    }


# ---------------------------------------------------------------------------
# argparse wiring.
# ---------------------------------------------------------------------------

def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _add_gate_flags(sub, required: bool = True) -> None:
    sub.add_argument("--gate", help="named gate, CONTROLLED_U:beta, FAMILY:e,t,o, or FILE:path")
    sub.add_argument("--matrix-file", help="JSON matrix file (16 [re,im] entries, row-major)")
    sub.add_argument(
        "--matrix-order",
        choices=["standard", "reversed"],
        default=None,
        help="basis ordering of a matrix file: standard |00>..|11> or reversed |11>..|00>",
    )


def _add_ham_flags(sub) -> None:
    sub.add_argument("--alpha", help="drift coefficients a1,a2,a3 (s-ordered on input)")
    sub.add_argument("--coupling-file", help="JSON 3x3 coupling matrix, canonicalized on load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gateforge",
        description="Canonical forms, interaction costs, time-optimal protocols, "
        "and communication classes for two-qubit gates.",
    )
    parser.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")
    commands = parser.add_subparsers(dest="command", required=True)

    canon = commands.add_parser("canon", help="interaction content and optional full decomposition")
    _add_gate_flags(canon)
    canon.add_argument("--full", action="store_true", help="include the full KAK factorization")

    cost_cmd = commands.add_parser("cost", help="minimal interaction time for a gate under a drift")
    _add_gate_flags(cost_cmd)
    _add_ham_flags(cost_cmd)

    synth = commands.add_parser("synth", help="synthesize a time-optimal protocol")
    _add_gate_flags(synth)
    _add_ham_flags(synth)
    synth.add_argument("--out", required=True, help="path for the protocol JSON file")

    verify_cmd = commands.add_parser("verify", help="verify a protocol file against a gate")
    _add_gate_flags(verify_cmd)
    verify_cmd.add_argument("--protocol", required=True, help="protocol JSON file")
    verify_cmd.add_argument("--tolerance", type=float, default=1e-7)

    classify_cmd = commands.add_parser("classify", help="transmission-capability class of a gate")
    _add_gate_flags(classify_cmd)
    classify_cmd.add_argument(
        "--class-tol",
        type=float,
        default=tolerances.BOUNDARY,
        help="tolerance for the pi/4 landmark comparisons (raise for noisy inputs)",
    )

    commcost = commands.add_parser("commcost", help="optimal content and cost of a transmission task")
    commcost.add_argument("--task", required=True, choices=[t.value for t in comm.CommTask])
    _add_ham_flags(commcost)

    order_cmd = commands.add_parser("order", help="absolute non-locality comparison of two gates")
    order_cmd.add_argument("--gate-u", required=True, help="gate spec (same mini-language as --gate)")
    order_cmd.add_argument("--gate-v", required=True, help="gate spec")

    batch = commands.add_parser("batch", help="JSON-lines batch processing")
    batch.add_argument("--input", required=True, help="JSON-lines command file, or - for stdin")
    return parser


def _dispatch(args) -> int:
    if args.command == "canon":
        _emit(_run_canon(_gate_from_args(args), args.full))
        return EXIT_OK
    if args.command == "cost":
        alpha, _, warnings = _ham_from_args(args)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        out = _run_cost(_gate_from_args(args), alpha)
        _emit(out)
        return EXIT_INFEASIBLE if out["infeasible"] else EXIT_OK
    if args.command == "synth":
        alpha, pair, warnings = _ham_from_args(args)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        proto_json, summary = _run_synth(_gate_from_args(args), alpha, pair)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(proto_json, fh, indent=2)
            fh.write("\n")
        summary["protocol_file"] = args.out
        _emit(summary)
        return EXIT_OK if summary["verification"]["passed"] else EXIT_RESIDUAL
    if args.command == "verify":
        try:
            with open(args.protocol, encoding="utf-8") as fh:
                p = protocol_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"cannot load protocol: {exc}") from None
        report = protocol.verify(p, _gate_from_args(args), args.tolerance)
        _emit(_verification_json(report))
        return EXIT_OK if report.passed else EXIT_RESIDUAL
    if args.command == "classify":
        _emit(_run_classify(_gate_from_args(args), args.class_tol))
        return EXIT_OK
    if args.command == "commcost":
        alpha, _, warnings = _ham_from_args(args)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        _emit(_run_commcost(comm.CommTask(args.task), alpha))
        return EXIT_OK
    if args.command == "order":
        gate_u = parse_gate_spec(args.gate_u, args.degrees)
        gate_v = parse_gate_spec(args.gate_v, args.degrees)
        _emit(_run_order(gate_u, gate_v))
        return EXIT_OK
    if args.command == "batch":
        return _run_batch(args)
    raise ValidationError(f"unknown command {args.command!r}")


def _batch_line(obj: dict, degrees: bool) -> dict:
    cmd = obj.get("cmd")
    if cmd == "canon":
        return _run_canon(_gate_from_batch(obj.get("gate"), degrees), bool(obj.get("full")))
    if cmd == "cost":
        alpha, _ = _ham_from_batch(obj, degrees)
        return _run_cost(_gate_from_batch(obj.get("gate"), degrees), alpha)
    if cmd == "classify":
        tol = float(obj.get("class_tol", tolerances.BOUNDARY))
        return _run_classify(_gate_from_batch(obj.get("gate"), degrees), tol)
    if cmd == "commcost":
        alpha, _ = _ham_from_batch(obj, degrees)
        return _run_commcost(comm.CommTask(obj["task"]), alpha)
    if cmd == "order":
        return _run_order(
            _gate_from_batch(obj.get("gate_u"), degrees),
            _gate_from_batch(obj.get("gate_v"), degrees),
        )
    if cmd == "synth":
        alpha, pair = _ham_from_batch(obj, degrees)
        proto_json, summary = _run_synth(_gate_from_batch(obj.get("gate"), degrees), alpha, pair)
        summary["protocol"] = proto_json
        return summary
    if cmd == "verify":
        p = protocol_from_json(obj["protocol"])
        report = protocol.verify(
            p, _gate_from_batch(obj.get("gate"), degrees), float(obj.get("tolerance", 1e-7))
        )
        return _verification_json(report)
    raise ValidationError(f"unknown batch command {cmd!r}")


def _run_batch(args) -> int:
    if args.input == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValidationError(f"cannot read batch file: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            result = _batch_line(obj, args.degrees)
            print(json.dumps({"ok": True, "result": result}))
        except (GateforgeError, ValueError, KeyError, TypeError) as exc:
            print(json.dumps({"ok": False, "error": str(exc)}))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValidationError, NonUnitaryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INFEASIBLE
    except GateforgeError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
