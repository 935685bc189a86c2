"""Command-line interface: one request path for the subcommands and for
``batch``, and JSON serialization of gates, protocols and reports.

Every subcommand builds the same request object that a ``batch`` line
carries (``_request``: one flag, one field), and one runner (``_run``)
validates and answers both.  Only writing ``synth``'s protocol to ``--out``,
alpha-reorder warnings and exit codes belong to the subcommands.

External formats
----------------
Gate matrices enter as JSON: a flat list of 16 ``[re, im]`` pairs, row-major,
computational basis ordered |00>, |01>, |10>, |11> (pass ``reversed`` to load
files written in the opposite |11>..|00> ordering; entries are mirrored on
load).  Hamiltonians enter as an ``alpha`` 3-vector (s-ordered on input,
the subcommands warn when reordering was needed) or as a 3x3 coupling matrix
routed through the canonicalizer.  Protocol files are JSON with fields
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
from .canonical import _s_sort, alpha_to_lambda, hamiltonian_canonical, interaction_content, kak_decompose
from .errors import GateforgeError, InfeasibleError, NonUnitaryError, ValidationError
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
    alpha = _reals(obj["hamiltonian_alpha"], (3,), "hamiltonian_alpha must be a finite 3-vector")
    durations = [float(seg["duration"]) for seg in obj["segments"]]
    for i, duration in enumerate(durations):
        if not math.isfinite(duration):
            raise ValidationError(f"segment {i} duration must be a finite number")
    # |a1| + |a2| + |a3| is the largest modulus of a drift eigenvalue.
    if not math.isfinite(sum(map(abs, durations)) * sum(map(abs, alpha.tolist()))):
        raise ValidationError("the total drift phase of the protocol overflows")
    return protocol.Protocol(
        opening=_pair_from_json(obj["opening"]),
        segments=tuple(
            protocol.Segment(local=_pair_from_json(seg), duration=duration)
            for seg, duration in zip(obj["segments"], durations)
        ),
        closing=_pair_from_json(obj["closing"]),
        hamiltonian_alpha=alpha,
        global_phase=_complex_from(obj["global_phase"]),
    )


# ---------------------------------------------------------------------------
# Request fields: gates, Hamiltonians, tolerances.
# ---------------------------------------------------------------------------

def _angle_scale(degrees: bool) -> float:
    return math.pi / 180.0 if degrees else 1.0


def _reals(value, shape: tuple, message: str) -> np.ndarray:
    """``value`` as a float array of ``shape`` with finite entries; anything
    else raises ``ValidationError(message)``."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(message) from None
    if a.shape != shape or not np.isfinite(a).all():
        raise ValidationError(message)
    return a


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ValidationError(f"{what} needs {n} comma-separated numbers")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad number in {what}: {exc}") from None


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what}: {exc}") from None
    except ValueError as exc:  # also undecodable bytes
        raise ValidationError(f"{what} is not valid JSON: {exc}") from None


def _field(line: dict, key: str):
    if key not in line:
        raise ValidationError(f"{line['cmd']} needs a {key!r} field")
    return line[key]


def _matrix_from_entries(entries, order: str) -> np.ndarray:
    """Loads a 4x4 gate, admitting it if unitary to the RESIDUAL tier and then
    projecting it onto the nearest unitary, so that matrices rounded to this
    module's own 10-digit output meet the library's STRUCTURAL tier."""
    pairs = _reals(entries, (16, 2), "matrix must be 16 finite [re, im] pairs")
    m = pairs.view(complex).reshape(4, 4)  # each [re, im] row is one complex
    if order == "reversed":
        m = m[::-1, ::-1]
    elif order != "standard":
        raise ValidationError(f"unknown basis order {order!r}")
    if not is_unitary(m, tolerances.RESIDUAL):
        raise NonUnitaryError("loaded matrix is not unitary")
    return _closest_unitary(m)


def _matrix_file(path: str, order: str | None = None) -> dict:
    """The gate object of a matrix file, which holds a bare entry list or
    ``{"matrix": [...], "order": ...}``; ``order`` overrides the file's."""
    data = _read_json(path, "matrix file")
    if not isinstance(data, dict):
        data = {"matrix": data}
    return {"matrix": data.get("matrix"), "order": order or data.get("order", "standard")}


def _gate(line: dict, key: str, degrees: bool) -> np.ndarray:
    """Resolves the gate in field ``key``.

    A gate is an object with one of ``named``, ``controlled_u`` (beta),
    ``family`` ([eta, theta, omega]) or ``matrix`` (16 ``[re, im]`` entries,
    optional ``order``), or a spec string for one of them: a registry name,
    ``CONTROLLED_U:beta``, ``FAMILY:eta,theta,omega`` or ``FILE:path``.
    """
    spec = _field(line, key)
    if isinstance(spec, str):
        head, _, rest = spec.partition(":")
        name = head.strip().upper()
        if name == "CONTROLLED_U":
            spec = {"controlled_u": _parse_floats(rest, 1, "controlled-U parameter")[0]}
        elif name == "FAMILY":
            spec = {"family": _parse_floats(rest, 3, "family angles")}
        elif name == "FILE":
            spec = _matrix_file(rest.strip())
        else:
            spec = {"named": name}
    if not isinstance(spec, dict):
        raise ValidationError(f"{key} must be a gate spec string or object")
    scale = _angle_scale(degrees)
    if "named" in spec:
        if not isinstance(spec["named"], str):
            raise ValidationError("named must be a gate name string")
        return gates.named_gate(spec["named"])
    if "controlled_u" in spec:
        beta = _reals(spec["controlled_u"], (), "controlled_u must be a finite number")
        return gates.named_gate("CONTROLLED_U", beta=float(beta) * scale)
    if "family" in spec:
        eta, theta, omega = _reals(spec["family"], (3,), "family must be 3 finite angles") * scale
        return comm.family_gate(eta, theta, omega)
    if "matrix" in spec:
        return _matrix_from_entries(spec["matrix"], spec.get("order", "standard"))
    raise ValidationError(f"{key} needs one of 'named', 'controlled_u', 'family' or 'matrix'")


def _hamiltonian(line: dict, degrees: bool) -> tuple[np.ndarray, LocalUnitaryPair | None]:
    """The s-ordered drift of a request, from ``coupling`` (a 3x3 matrix,
    canonicalized; its conjugator pair is returned too) or ``alpha``."""
    scale = _angle_scale(degrees)
    if "coupling" in line:
        c = _reals(line["coupling"], (3, 3), "coupling must be a finite 3x3 real matrix")
        alpha, pair = hamiltonian_canonical(c * scale)
    elif "alpha" in line:
        alpha, pair = _s_sort(_reals(line["alpha"], (3,), "alpha must be a finite 3-vector")[None] * scale)[0][0], None
    else:
        raise ValidationError(f"{line['cmd']} needs an 'alpha' or 'coupling' field")
    if not math.isfinite(sum(map(abs, alpha.tolist()))):  # the largest drift eigenvalue modulus
        raise ValidationError("the drift eigenvalues of the Hamiltonian overflow")
    return alpha, pair


def _tolerance(line: dict, key: str, default: float) -> float:
    message = f"{key} must be a finite non-negative number"
    tol = float(_reals(line.get(key, default), (), message))
    if tol < 0:
        raise ValidationError(message)
    return tol


# ---------------------------------------------------------------------------
# Commands: each runs one request object and returns its result object.
# ---------------------------------------------------------------------------

def _run_canon(line: dict, degrees: bool) -> dict:
    gate = _gate(line, "gate", degrees)
    kak = kak_decompose(gate) if line.get("full") else None
    alpha = interaction_content(gate) if kak is None else kak.alpha
    out = {"alpha": _json_vector(alpha), "lambda": _json_vector(alpha_to_lambda(alpha))}
    if kak is not None:
        out["kak"] = {
            "post_local": _pair_to_json(kak.post_local),
            "alpha": _json_vector(kak.alpha),
            "pre_local": _pair_to_json(kak.pre_local),
            "global_phase": _json_complex(kak.global_phase),
            "reassembly_residual": _sig(float(np.max(np.abs(kak.matrix() - gate)))),
        }
    return out


def _run_cost(line: dict, degrees: bool) -> dict:
    alpha = _hamiltonian(line, degrees)[0]
    beta = interaction_content(_gate(line, "gate", degrees))
    report = cost.interaction_cost(beta, alpha)
    return {
        "cost": None if report.infeasible else _sig(report.cost),
        "infeasible": report.infeasible,
        "branch": list(report.branch),
        "beta_used": _json_vector(report.beta_used),
        "beta": _json_vector(beta),
        "alpha": _json_vector(alpha),
    }


def _verification_json(report: protocol.VerificationReport) -> dict:
    return {
        "max_abs_error_up_to_phase": _sig(report.max_abs_error_up_to_phase),
        "content_error": _sig(report.content_error),
        "total_time": _sig(report.total_time),
        "passed": report.passed,
    }


def _run_synth(line: dict, degrees: bool) -> dict:
    alpha, pair = _hamiltonian(line, degrees)
    p, report = protocol._synthesize(_gate(line, "gate", degrees), alpha)
    out = {
        "total_time": _sig(p.total_time),
        "segments": len(p.segments),
        "hamiltonian_alpha": _json_vector(alpha),
        "verification": _verification_json(report),
    }
    if pair is not None:
        out["coupling_conjugators"] = _pair_to_json(pair)
    out["protocol"] = protocol_to_json(p)
    return out


def _run_verify(line: dict, degrees: bool) -> dict:
    try:
        p = protocol_from_json(_field(line, "protocol"))
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"cannot load protocol: {exc}") from None
    report = protocol.verify(p, _gate(line, "gate", degrees), _tolerance(line, "tolerance", 1e-7))
    return _verification_json(report)


def _run_classify(line: dict, degrees: bool) -> dict:
    beta = interaction_content(_gate(line, "gate", degrees))
    cls = comm.classify(beta, atol=_tolerance(line, "class_tol", tolerances.BOUNDARY))
    row = comm.capability_row(cls)
    return {
        "class": cls.value,
        "beta": _json_vector(beta),
        "capabilities": sorted(task.value for task in comm.capabilities(cls)),
        "row": " ".join("✓" if ok else "×" for ok in row),
    }


def _run_commcost(line: dict, degrees: bool) -> dict:
    task = _field(line, "task")
    if task not in _TASKS:
        raise ValidationError(f"task must be one of {', '.join(_TASKS)}")
    report = comm.task_cost(comm.CommTask(task), _hamiltonian(line, degrees)[0])
    return {
        "task": task,
        "cost": _sig(report.cost),
        "optimal_beta": _json_vector(report.optimal_beta),
        "realizing_gate_hint": report.realizing_gate_hint,
    }


def _run_order(line: dict, degrees: bool) -> dict:
    beta_u = interaction_content(_gate(line, "gate_u", degrees))
    beta_v = interaction_content(_gate(line, "gate_v", degrees))
    return {
        "verdict": cost.partial_order(beta_u, beta_v).value,
        "beta_u": _json_vector(beta_u),
        "beta_v": _json_vector(beta_v),
    }


_TASKS = [t.value for t in comm.CommTask]
_COMMANDS = {
    "canon": _run_canon,
    "cost": _run_cost,
    "synth": _run_synth,
    "verify": _run_verify,
    "classify": _run_classify,
    "commcost": _run_commcost,
    "order": _run_order,
}


def _run(line, degrees: bool) -> dict:
    """Runs one request: a batch line, or a subcommand's flags as
    :func:`_request` writes them."""
    if not isinstance(line, dict):
        raise ValidationError("a batch line must be a JSON object")
    cmd = line.get("cmd")
    if not isinstance(cmd, str) or cmd not in _COMMANDS:
        raise ValidationError(f"unknown command {cmd!r}")
    return _COMMANDS[cmd](line, degrees)


# ---------------------------------------------------------------------------
# argparse wiring: each subcommand flag maps to one request field.
# ---------------------------------------------------------------------------

def _add_gate_flags(sub) -> None:
    sub.add_argument("--gate", help="named gate, CONTROLLED_U:beta, FAMILY:e,t,o, or FILE:path")
    sub.add_argument("--matrix-file", help="JSON matrix file (16 [re,im] entries, row-major)")
    sub.add_argument(
        "--matrix-order",
        choices=["standard", "reversed"],
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
    commcost.add_argument("--task", required=True, choices=_TASKS)
    _add_ham_flags(commcost)

    order_cmd = commands.add_parser("order", help="absolute non-locality comparison of two gates")
    order_cmd.add_argument("--gate-u", required=True, help="gate spec (same mini-language as --gate)")
    order_cmd.add_argument("--gate-v", required=True, help="gate spec")

    batch = commands.add_parser("batch", help="JSON-lines batch processing")
    batch.add_argument("--input", required=True, help="JSON-lines command file, or - for stdin")
    return parser


def _request(args: argparse.Namespace) -> dict:
    """The batch line that a subcommand's flags stand for.  Files named by
    flags are read here; a matrix file becomes a ``matrix`` gate object."""
    flags = vars(args)
    line = {"cmd": args.command}
    for key in ("full", "class_tol", "task", "gate_u", "gate_v", "tolerance"):
        if key in flags:
            line[key] = flags[key]
    head, _, rest = (flags.get("gate") or "").partition(":")
    if flags.get("matrix_file") or head.strip().upper() == "FILE":
        line["gate"] = _matrix_file(flags["matrix_file"] or rest.strip(), flags["matrix_order"])
    elif flags.get("gate"):
        line["gate"] = flags["gate"]
    if flags.get("coupling_file"):
        data = _read_json(flags["coupling_file"], "coupling file")
        line["coupling"] = data.get("coupling") if isinstance(data, dict) else data
    elif flags.get("alpha"):
        line["alpha"] = _parse_floats(flags["alpha"], 3, "--alpha")
    if flags.get("protocol"):
        line["protocol"] = _read_json(flags["protocol"], "protocol file")
    return line


def _run_batch(args) -> int:
    if args.input == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValidationError(f"cannot read batch file: {exc}") from None
    for text in lines:
        text = text.strip()
        if not text:
            continue
        try:
            out = {"ok": True, "result": _run(json.loads(text), args.degrees)}
        except (GateforgeError, ValueError, KeyError, TypeError) as exc:
            out = {"ok": False, "error": str(exc)}
        print(json.dumps(out))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            return _run_batch(args)
        line = _request(args)
        if "alpha" in line:
            ordered = _hamiltonian(line, args.degrees)[0]
            if np.any(ordered != np.multiply(line["alpha"], _angle_scale(args.degrees))):
                warning = f"alpha reordered to s-ordered form {_json_vector(ordered)}"
                print(f"warning: {warning}", file=sys.stderr)
        result = _run(line, args.degrees)
        if args.command == "synth":
            proto = result.pop("protocol")
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(proto, indent=2) + "\n")
            except OSError as exc:
                raise ValidationError(f"cannot write protocol file: {exc}") from None
            result["protocol_file"] = args.out
    except GateforgeError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        if isinstance(exc, ValidationError):
            return EXIT_VALIDATION
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_RESIDUAL
    print(json.dumps(result))
    if result.get("infeasible"):
        return EXIT_INFEASIBLE
    return EXIT_OK if result.get("verification", result).get("passed", True) else EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
