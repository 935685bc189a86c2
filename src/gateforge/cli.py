"""Command-line interface: one request path for the subcommands and for
``batch``, and JSON serialization of gates, protocols and reports.

Every subcommand builds the same request object that a ``batch`` line
carries (``_request``: one flag, one field), and one chunk runner answers
both: ``batch`` runs its input in chunks of up to 32 lines, a subcommand
(and ``_run``) is a chunk of one.  Each chunk starts with one pre-pass
(``_prepare``): it parses every line, resolves every gate field, admits and
projects all matrix gates as one stack, takes the interaction contents
that ``canon`` (without ``full``), ``cost``, ``classify`` and ``order``
need from one stacked content call, and the KAK decompositions that
``synth`` and ``canon`` with ``full`` need from one stacked
``kak_decompose`` call (``synth`` hands its decomposition to the library's
synthesis, which then does not decompose again).  If a stacked call
raises, each gate is redone alone, so that its error names no stack row.
A field that failed keeps its exception, which the command runner raises
when it reaches that field (a failed decomposition is raised by the
synthesis where it would decompose, after its drift checks), so each line
answers or fails exactly as it would alone.  The
command runners return library values; each result becomes JSON data in
one pass (``_plain``), which rounds every number once.  Only writing
``synth``'s protocol to ``--out``, alpha-reorder warnings and exit codes
belong to the subcommands.

``batch`` reads its input as bytes and decodes each line on its own, so an
undecodable line gets an error line and the others their answers.  A chunk
closes at 32 lines, at the end of the input, or when the next read would
block, so a producer on stdin gets each answer once its line has arrived.
Answers are written in input order, each as soon as it is done, and stdout
is flushed after each chunk.  An error line is ``{"ok": false, "error":
..., "error_type": ...}``, the type being the exception's class name.

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
``total_time``; complex numbers are ``[re, im]`` pairs.  Loading only
parses, admits matrices unitary within the RESIDUAL tier and projects them
onto their unitary polar factors (one ``svd`` for a 4x4 gate, a closed form
for a protocol's 2x2 factors); the library checks durations.  Output has 10
significant digits, each number rounded once by that one pass.  Angles are
radians; ``--degrees`` converts inputs only.

Exit codes: 0 success/verified, 1 validation error, 2 infeasible,
3 internal residual failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import sys

import numpy as np

from . import comm, cost, gates, protocol, tolerances
from .canonical import _s_sort, alpha_to_lambda, hamiltonian_canonical, interaction_content, kak_decompose
from .errors import GateforgeError, InfeasibleError, ValidationError
from .linalg import LocalUnitaryPair, _require_unitary

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_RESIDUAL = 3


# ---------------------------------------------------------------------------
# Number and matrix (de)serialization.
# ---------------------------------------------------------------------------

def _sig(x: float) -> float:
    """Rounds to 10 significant digits (idempotent, so round-trips are stable);
    zero, also ``-0.0``, becomes ``0.0``, and inf and NaN pass through."""
    return 0.0 if x == 0 else float(f"{x:.10g}")


def _plain(value):
    """``value`` as JSON-ready Python data, each number rounded once: dicts,
    lists and tuples become objects and lists, numpy arrays and scalars go
    through ``tolist``, a complex number becomes ``[re, im]`` and every float
    goes through :func:`_sig`; ints, bools, strings and ``None`` pass through."""
    if isinstance(value, float):
        return _sig(value)
    if isinstance(value, complex):
        return [_sig(value.real), _sig(value.imag)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        return _plain(value.tolist())
    return value


def _unit_phase_from(value, what: str) -> complex:
    """A serialized ``[re, im]`` phase scaled to unit modulus, which its 10
    digits only approximate; anything but a finite nonzero pair raises
    ``ValidationError`` naming ``what``."""
    try:
        re, im = value
        phase = complex(float(re), float(im))
    except (TypeError, ValueError, OverflowError):
        phase = math.nan  # not a pair of numbers: rejected below
    if not (math.isfinite(abs(phase)) and phase != 0):
        raise ValidationError(f"{what} must be a finite nonzero [re, im] pair")
    return phase / abs(phase)


def _pair_layout(pair: LocalUnitaryPair) -> dict:
    """A local pair's fields; its factors are taken as complex, so that each
    entry serializes as ``[re, im]`` whatever the factors' dtype."""
    u_a, u_b = np.asarray(pair.u_a, dtype=complex), np.asarray(pair.u_b, dtype=complex)
    return {"u_a": u_a, "u_b": u_b, "phase": complex(pair.phase)}


def _admitted_unitary(m: np.ndarray, names: tuple[str, ...] | None = None) -> np.ndarray:
    """``m``, or each matrix of a stack (named ``names`` in errors), admitted
    when unitary within the RESIDUAL tier and projected onto its unitary
    polar factor, which moves no entry by more than the admitted error.

    A 4x4 gate takes its polar factor from one ``svd``.  A ``(k, 2, 2)``
    stack takes it in closed form: by Cayley-Hamilton, ``M + e^{i arg det M}
    adj(M)^H`` is ``s1 + s2`` times the polar factor of ``M``, whose
    Frobenius norm is ``sqrt 2``."""
    m = _require_unitary(m, atol=tolerances.RESIDUAL, names=names)
    if m.shape[-1] != 2:
        u, _, vh = np.linalg.svd(m)
        return u @ vh
    a, b, c, d = m.reshape(-1, 4).T
    det = a * d - b * c
    adj_h = np.stack([d, -c, -b, a], axis=-1).conj().reshape(-1, 2, 2)
    y = m + (det / np.abs(det))[:, None, None] * adj_h
    yf = y.reshape(-1, 4).view(float)
    return y * (np.sqrt(2) / np.sqrt((yf * yf).sum(axis=-1)))[:, None, None]


def _protocol_layout(p: protocol.Protocol) -> dict:
    """A protocol's fields (see the module docstring), unrounded."""
    return {
        "hamiltonian_alpha": np.asarray(p.hamiltonian_alpha, dtype=float),
        "opening": _pair_layout(p.opening),
        "segments": [{**_pair_layout(seg.local), "duration": float(seg.duration)} for seg in p.segments],
        "closing": _pair_layout(p.closing),
        "global_phase": complex(p.global_phase),
        "total_time": p.total_time,
    }


def protocol_to_json(p: protocol.Protocol) -> dict:
    """Serializable form of a protocol (see the module docstring for fields)."""
    return _plain(_protocol_layout(p))


def protocol_from_json(obj: dict) -> protocol.Protocol:
    """Loads a protocol object (see the module docstring for fields).

    Only parses: all factors are parsed in one call, then admitted and
    projected as one stack by :func:`_admitted_unitary` (a closed-form polar
    factor, no LAPACK), and each phase is scaled to unit modulus, which its
    10 digits only approximate.  Durations are left to the library, which
    checks them, naming the segment, when the protocol is used.

    Raises:
        ValidationError: naming the field at fault (``segment 0 needs a
            'duration' field``, ``segment 1 u_b must be a 2x2 matrix of finite
            [re, im] pairs``): a missing or mistyped field, a factor not
            unitary within 1e-8 or a zero phase.
    """
    alpha = _reals(_field(obj, "hamiltonian_alpha", "protocol"), (3,), "hamiltonian_alpha must be a finite 3-vector")
    segments = _field(obj, "segments", "protocol")
    if not isinstance(segments, list):
        raise ValidationError("segments must be a list")
    n = len(segments)
    objs = [_field(obj, "opening", "protocol"), *segments, _field(obj, "closing", "protocol")]
    # Each section indexes its fields directly; only on a KeyError or a
    # TypeError does it walk them again through _field, which names the
    # field at fault in the order of the walk.
    try:
        values = [pair[key] for pair in objs for key in ("u_a", "u_b")]
    except (KeyError, TypeError):
        values = [_field(pair, key, owner) for pair, owner in zip(objs, _pair_owners(n)) for key in ("u_a", "u_b")]
    names = protocol._field_names(n, "u_a", "u_b")
    try:
        factors = _reals(values, (len(values), 2, 2, 2), "u_a and u_b must be 2x2 matrices of finite [re, im] pairs")
    except ValidationError:
        # Only on failure: parse factor by factor to name the one at fault.
        for value, name in zip(values, names):
            _reals(value, (2, 2, 2), f"{name} must be a 2x2 matrix of finite [re, im] pairs")
        raise
    factors = _admitted_unitary(factors.view(complex).reshape(-1, 2, 2), names).reshape(-1, 2, 2, 2)
    names = protocol._field_names(n, "phase")
    try:
        phases = [_unit_phase_from(pair["phase"], name) for pair, name in zip(objs, names)]
    except (KeyError, TypeError):
        phases = [
            _unit_phase_from(_field(pair, "phase", owner), name)
            for pair, owner, name in zip(objs, _pair_owners(n), names)
        ]
    opening, *locals_, closing = (LocalUnitaryPair(u_a, u_b, phase) for (u_a, u_b), phase in zip(factors, phases))
    try:
        durations = [float(seg["duration"]) for seg in segments]
    except (KeyError, TypeError, ValueError, OverflowError):
        durations = []
        for seg, owner in zip(segments, _pair_owners(n)[1:]):
            try:
                durations.append(float(_field(seg, "duration", owner)))
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{owner} duration must be a number") from None
    return protocol.Protocol(
        opening=opening,
        segments=tuple(protocol.Segment(pair, t) for pair, t in zip(locals_, durations)),
        closing=closing,
        hamiltonian_alpha=alpha,
        global_phase=_unit_phase_from(_field(obj, "global_phase", "protocol"), "global_phase"),
    )


def _pair_owners(segments: int) -> list[str]:
    """The names of a protocol's local pairs: ``opening``, ``segment i``
    and ``closing``."""
    return ["opening", *(f"segment {i}" for i in range(segments)), "closing"]


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


def _field(obj: dict, key: str, owner: str | None = None):
    """``obj[key]``; a missing key, or an ``obj`` that is no JSON object,
    raises ``ValidationError`` naming ``owner`` (by default the command)."""
    try:
        return obj[key]
    except (KeyError, TypeError):
        owner = owner or obj["cmd"]
        if not isinstance(obj, dict):
            raise ValidationError(f"{owner} must be a JSON object") from None
        raise ValidationError(f"{owner} needs {'an' if key[0] in 'aeio' else 'a'} {key!r} field") from None


def _matrix_from_entries(entries, order: str) -> np.ndarray:
    """The 4x4 matrix of 16 ``[re, im]`` entries in basis ``order``, still
    to be admitted by :func:`_admitted_unitary`, so that matrices rounded to
    this module's own 10-digit output meet the library's STRUCTURAL tier."""
    pairs = _reals(entries, (16, 2), "matrix must be 16 finite [re, im] pairs")
    m = pairs.view(complex).reshape(4, 4)  # each [re, im] row is one complex
    if order == "reversed":
        m = m[::-1, ::-1]
    elif order != "standard":
        raise ValidationError(f"unknown basis order {order!r}")
    return m


def _matrix_file(path: str, order: str | None = None) -> dict:
    """The gate object of a matrix file, which holds a bare entry list or
    ``{"matrix": [...], "order": ...}``; ``order`` overrides the file's."""
    data = _read_json(path, "matrix file")
    if not isinstance(data, dict):
        data = {"matrix": data}
    return {"matrix": data.get("matrix"), "order": order or data.get("order", "standard")}


def _gate(line: dict, key: str, degrees: bool) -> tuple[np.ndarray, bool]:
    """Resolves the gate in field ``key``, and tells whether it is a matrix
    still to be admitted by :func:`_admitted_unitary`.

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
        return gates.named_gate(spec["named"]), False
    if "controlled_u" in spec:
        beta = _reals(spec["controlled_u"], (), "controlled_u must be a finite number")
        return gates.named_gate("CONTROLLED_U", beta=float(beta) * scale), False
    if "family" in spec:
        eta, theta, omega = _reals(spec["family"], (3,), "family must be 3 finite angles") * scale
        return comm.family_gate(eta, theta, omega), False
    if "matrix" in spec:
        return _matrix_from_entries(spec["matrix"], spec.get("order", "standard")), True
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
    value = line.get(key, default)
    if isinstance(value, bool):  # not read as 0 or 1
        raise ValidationError(message)
    tol = float(_reals(value, (), message))
    if tol < 0:
        raise ValidationError(message)
    return tol


def _full(line: dict) -> bool:
    """The ``full`` flag of a ``canon`` request: a JSON boolean, false when
    absent; anything else raises ``ValidationError``."""
    full = line.get("full", False)
    if not isinstance(full, bool):
        raise ValidationError("full must be true or false")
    return full


# ---------------------------------------------------------------------------
# Chunks: one pre-pass per chunk of requests, then one runner per request.
# ---------------------------------------------------------------------------

#: Lines of ``batch`` input that share one pre-pass.
_CHUNK_LINES = 32
#: The errors that give a request an error line; anything else is a bug.
_LINE_ERRORS = (GateforgeError, ValueError, KeyError, TypeError)


def _raised(value):
    """``value``, unless it is an exception: that is raised."""
    if isinstance(value, Exception):
        raise value
    return value


class _Request:
    """A request (the parsed line, or the exception its decoding or parse
    raised) and what its chunk's pre-pass found for it: the gate of each
    gate field and, where its command needs it, the gate's interaction
    content or its KAK decomposition.  A field that failed holds its
    exception, raised when the command runner reaches that field."""

    __slots__ = ("line", "degrees", "gates", "contents", "kaks")

    def __init__(self, line, degrees: bool) -> None:
        self.line = line
        self.degrees = degrees
        self.gates: dict = {}
        self.contents: dict = {}
        self.kaks: dict = {}

    def gate(self, key: str) -> np.ndarray:
        return _raised(self.gates[key])

    def content(self, key: str) -> np.ndarray:
        self.gate(key)
        return _raised(self.contents[key])


def _each(f, items: list) -> list:
    """``f`` of each of ``items`` (4x4 matrices), from one call on their
    stack.  If that call raises, each item is redone alone and gives its
    value or the exception it raised, whose text then names no stack row."""
    if not items:
        return []
    try:
        return list(f(np.stack(items)))
    except Exception:
        values = []
        for item in items:
            try:
                values.append(f(item))
            except Exception as exc:
                values.append(exc)
        return values


def _prepare(lines: list, degrees: bool) -> list[_Request]:
    """The pre-pass of a chunk of ``lines`` (parsed requests, or the
    exceptions their parse raised): resolves every gate field of the
    commands in ``_GATE_FIELDS``, admits and projects all matrix gates as
    one stack, takes the contents that ``canon`` (without ``full``),
    ``cost``, ``classify`` and ``order`` need from one stacked
    :func:`interaction_content` call, and the decompositions that ``synth``
    and ``canon`` with ``full`` need from one stacked :func:`kak_decompose`
    call."""
    requests = [_Request(line, degrees) for line in lines]
    admit, needed, decompose = [], [], []
    for req in requests:
        cmd = req.line.get("cmd") if isinstance(req.line, dict) else None
        if not isinstance(cmd, str) or cmd not in _GATE_FIELDS:
            continue
        for key in _GATE_FIELDS[cmd]:
            try:
                req.gates[key], raw = _gate(req.line, key, degrees)
            except Exception as exc:
                req.gates[key] = exc
                continue
            if raw:
                admit.append((req, key))
        try:
            full = cmd == "canon" and _full(req.line)
        except ValidationError:
            continue  # raised by the runner, after the gate
        if cmd == "synth" or full:
            decompose.append((req, "gate"))
        elif cmd in _CONTENT_COMMANDS:
            needed += [(req, key) for key in _GATE_FIELDS[cmd]]
    for (req, key), gate in zip(admit, _each(_admitted_unitary, [req.gates[key] for req, key in admit])):
        req.gates[key] = gate
    needed = [(req, key) for req, key in needed if not isinstance(req.gates[key], Exception)]
    for (req, key), beta in zip(needed, _each(interaction_content, [req.gates[key] for req, key in needed])):
        req.contents[key] = beta
    decompose = [(req, key) for req, key in decompose if not isinstance(req.gates[key], Exception)]
    for (req, key), kak in zip(decompose, _each(kak_decompose, [req.gates[key] for req, key in decompose])):
        req.kaks[key] = kak
    return requests


def _answers(requests: list[_Request]):
    """Runs each prepared request in turn and yields its result as
    :func:`_plain` data, or the exception it raised."""
    for req in requests:
        try:
            line = _raised(req.line)
            if not isinstance(line, dict):
                raise ValidationError("a batch line must be a JSON object")
            cmd = line.get("cmd")
            if not isinstance(cmd, str) or cmd not in _COMMANDS:
                raise ValidationError(f"unknown command {cmd!r}")
            yield _plain(_COMMANDS[cmd](req))
        except _LINE_ERRORS as exc:
            yield exc


def _run(line, degrees: bool) -> dict:
    """Runs one request, a batch line or a subcommand's flags as
    :func:`_request` writes them, as a chunk of one and returns its result
    as :func:`_plain` data: the runners return library values, and this
    rounds each number once."""
    (answer,) = _answers(_prepare([line], degrees))
    return _raised(answer)


# ---------------------------------------------------------------------------
# Commands: each runs one prepared request and returns its result object.
# ---------------------------------------------------------------------------

def _run_canon(req: _Request) -> dict:
    gate = req.gate("gate")
    kak = _raised(req.kaks["gate"]) if _full(req.line) else None
    alpha = req.content("gate") if kak is None else kak.alpha
    out = {"alpha": alpha, "lambda": alpha_to_lambda(alpha)}
    if kak is not None:
        out["kak"] = {
            "post_local": _pair_layout(kak.post_local),
            "alpha": kak.alpha,
            "pre_local": _pair_layout(kak.pre_local),
            "global_phase": kak.global_phase,
            "reassembly_residual": np.max(np.abs(kak.matrix() - gate)),
        }
    return out


def _run_cost(req: _Request) -> dict:
    alpha = _hamiltonian(req.line, req.degrees)[0]
    beta = req.content("gate")
    report = cost.interaction_cost(beta, alpha)
    return {
        "cost": None if report.infeasible else report.cost,
        "infeasible": report.infeasible,
        "branch": report.branch,
        "beta_used": report.beta_used,
        "beta": beta,
        "alpha": alpha,
    }


def _run_synth(req: _Request) -> dict:
    alpha, pair = _hamiltonian(req.line, req.degrees)
    p, report = protocol._synthesize(req.gate("gate"), alpha, req.kaks["gate"])
    out = {"total_time": p.total_time, "segments": len(p.segments), "hamiltonian_alpha": alpha}
    out["verification"] = vars(report)
    if pair is not None:
        out["coupling_conjugators"] = _pair_layout(pair)
    out["protocol"] = _protocol_layout(p)
    return out


def _run_verify(req: _Request) -> dict:
    try:
        p = protocol_from_json(_field(req.line, "protocol"))
    except (KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"cannot load protocol: {exc}") from None
    return vars(protocol.verify(p, req.gate("gate"), _tolerance(req.line, "tolerance", tolerances.VERIFY)))


def _run_classify(req: _Request) -> dict:
    beta = req.content("gate")
    cls = comm.classify(beta, atol=_tolerance(req.line, "class_tol", tolerances.BOUNDARY))
    row = comm.capability_row(cls)
    return {
        "class": cls.value,
        "beta": beta,
        "capabilities": sorted(task.value for task in comm.capabilities(cls)),
        "row": " ".join("✓" if ok else "×" for ok in row),
    }


def _run_commcost(req: _Request) -> dict:
    task = _field(req.line, "task")
    if task not in _TASKS:
        raise ValidationError(f"task must be one of {', '.join(_TASKS)}")
    return {"task": task, **vars(comm.task_cost(comm.CommTask(task), _hamiltonian(req.line, req.degrees)[0]))}


def _run_order(req: _Request) -> dict:
    beta_u = req.content("gate_u")
    beta_v = req.content("gate_v")
    return {"verdict": cost.partial_order(beta_u, beta_v).value, "beta_u": beta_u, "beta_v": beta_v}


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
#: The gate fields each command reads, resolved by the pre-pass.
_GATE_FIELDS = {
    "canon": ("gate",),
    "cost": ("gate",),
    "synth": ("gate",),
    "verify": ("gate",),
    "classify": ("gate",),
    "order": ("gate_u", "gate_v"),
}
#: The commands whose gates' contents the pre-pass takes (``canon`` only
#: without ``full``; with it, as for ``synth``, the pre-pass takes the
#: gate's decomposition instead).
_CONTENT_COMMANDS = ("canon", "cost", "classify", "order")


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
    verify_cmd.add_argument("--tolerance", type=float, default=tolerances.VERIFY)

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


def _chunks(fd: int):
    """The non-blank lines read from ``fd``, as bytes, in chunks of at most
    ``_CHUNK_LINES``.  A chunk closes at that size, at the end of the input,
    or when the next read would block.  ``\\n``, ``\\r`` and ``\\r\\n``
    each end a line, as in text mode."""
    lines: list[bytes] = []
    partial = b""
    eof = False
    while lines or not eof:
        while len(lines) < _CHUNK_LINES and not eof:
            if lines and not select.select([fd], [], [], 0)[0]:
                break  # the next read would block
            data = os.read(fd, 1 << 16)
            if data:
                *complete, partial = (partial + data).replace(b"\r", b"\n").split(b"\n")
            else:
                eof, complete = True, [partial]
            lines += [line for line in complete if line.strip()]
        chunk, lines = lines[:_CHUNK_LINES], lines[_CHUNK_LINES:]
        if chunk:
            yield chunk


def _parsed(chunk: list[bytes]) -> list:
    """Each line of ``chunk`` decoded on its own and parsed as JSON, or the
    exception that raised; lines blank after decoding are dropped."""
    lines = []
    for raw in chunk:
        try:
            text = raw.decode("utf-8").strip()
            if text:
                lines.append(json.loads(text))
        except ValueError as exc:  # also undecodable bytes
            lines.append(exc)
    return lines


def _run_batch(args) -> int:
    try:
        fh = sys.stdin if args.input == "-" else open(args.input, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read batch file: {exc}") from None
    try:
        for chunk in _chunks(fh.fileno()):
            for answer in _answers(_prepare(_parsed(chunk), args.degrees)):
                if isinstance(answer, Exception):
                    out = {"ok": False, "error": str(answer), "error_type": type(answer).__name__}
                else:
                    out = {"ok": True, "result": answer}
                print(json.dumps(out))
            sys.stdout.flush()
    finally:
        if fh is not sys.stdin:
            fh.close()
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
                warning = f"alpha reordered to s-ordered form {_plain(ordered)}"
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
