"""Synthesis of explicit time-optimal control protocols, simulation of
arbitrary protocols, verification against targets, and the majorization-flow
necessity check on protocol prefixes.

A protocol alternates instantaneous local unitary pairs with periods of free
evolution under a fixed canonical drift: opening locals, then for each segment
a local pair followed by a drift of the stated duration, then closing locals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .canonical import (
    KakDecomposition,
    _lambda_perm_for_move,
    _local_gate_of_lambda_perm,
    _shift_factor,
    alpha_to_lambda,
    interaction_content,
    is_s_ordered,
    kak_decompose,
    s_order,
)
from .cost import _feasible_rows, interaction_cost
from .errors import InfeasibleError, NegativeDurationError, SynthesisResidualError, ValidationError
from .linalg import LocalUnitaryPair, _kron2, _require_unit_modulus, _require_unitary, from_magic, kron_factor, to_magic
from .majorization import birkhoff_express


@dataclass(frozen=True)
class Segment:
    """One protocol step: apply ``local``, then drift for ``duration``."""

    local: LocalUnitaryPair
    duration: float


@dataclass(frozen=True)
class Protocol:
    """An explicit control sequence realizing a gate from a fixed drift.

    ``hamiltonian_alpha`` is the s-ordered generator of every drift segment;
    synthesized time-optimal protocols carry at most three segments.
    """

    opening: LocalUnitaryPair
    segments: tuple[Segment, ...]
    closing: LocalUnitaryPair
    hamiltonian_alpha: np.ndarray
    global_phase: complex = 1.0 + 0j

    @property
    def total_time(self) -> float:
        return float(sum(seg.duration for seg in self.segments))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a protocol against a target gate."""

    max_abs_error_up_to_phase: float
    content_error: float
    total_time: float
    passed: bool


@functools.lru_cache(maxsize=64)
def _field_names(segments: int, *fields: str) -> tuple[str, ...]:
    """The names of ``fields`` of a protocol's local pairs, pair by pair:
    ``opening <field>``, ``segment i <field>`` and ``closing <field>``.
    Cached, so that checks which pass build no strings."""
    pairs = ["opening", *(f"segment {i}" for i in range(segments)), "closing"]
    return tuple(f"{pair} {field}" for pair in pairs for field in fields)


def _magic_locals(p: Protocol) -> np.ndarray:
    """The protocol's local pairs (opening, one per segment, closing) as one
    ``(k, 4, 4)`` stack in the magic basis.

    All factors are checked unitary within ``STRUCTURAL`` as one stack, and
    the pair phases unit-modulus within ``PHASE``.

    Raises:
        NonUnitaryError: naming the field at fault, e.g. ``opening u_b`` or
            ``segment 2 phase``.
    """
    pairs = (p.opening, *(seg.local for seg in p.segments), p.closing)
    factors = np.array([(pair.u_a, pair.u_b) for pair in pairs], dtype=complex)
    _require_unitary(factors.reshape(-1, 2, 2), names=_field_names(len(p.segments), "u_a", "u_b"))
    phases = [pair.phase for pair in pairs]
    _require_unit_modulus(phases, _field_names(len(p.segments), "phase"))
    return to_magic(np.array(phases, dtype=complex)[:, None, None] * _kron2(factors[:, 0], factors[:, 1]))


def _drift_and_durations(p: Protocol) -> tuple[np.ndarray, np.ndarray]:
    """The drift eigenvalues and the segment durations of the protocol.

    Raises:
        ValidationError: if a drift component or a segment's duration is
            infinite or NaN, or the total drift phase overflows.
        NegativeDurationError: naming the segment, if its duration is negative.
    """
    alpha = np.asarray(p.hamiltonian_alpha, dtype=float)
    if not np.isfinite(alpha).all():
        raise ValidationError(f"drift {alpha.tolist()} is not finite")
    durations = np.array([seg.duration for seg in p.segments], dtype=float)
    if not np.isfinite(durations).all():
        i = int(np.argmin(np.isfinite(durations)))
        raise ValidationError(f"segment {i} duration {durations[i]} is not finite")
    if np.any(durations < 0):
        i = int(np.argmax(durations < 0))
        raise NegativeDurationError(f"segment {i} duration {durations[i]} is negative")
    lam = alpha_to_lambda(alpha)
    # Python floats overflow to inf without a warning.
    if not math.isfinite(float(np.abs(lam).max()) * sum(durations.tolist())):
        raise ValidationError("the total drift phase of the protocol overflows")
    return lam, durations


def _running_products(m: np.ndarray) -> np.ndarray:
    """``m[k] @ ... @ m[0]`` for every ``k`` of a stack ``(n, 4, 4)``, in
    ``ceil(log2 n)`` batched products (a Hillis-Steele scan)."""
    m = m.copy()
    step = 1
    while step < len(m):
        m[step:] = m[step:] @ m[:-step]
        step *= 2
    return m


def simulate(p: Protocol) -> np.ndarray:
    """Exact matrix of the gate a protocol performs.

    All locals enter the magic basis in one batched change, where each drift
    is a diagonal phase that scales the rows of the local before it; the
    chain of ``k`` factors is multiplied out in ``ceil(log2 k)`` batched
    products and leaves the magic basis once.

    Raises:
        ValidationError: if the drift or a segment's duration is infinite or
            NaN, or the total drift phase overflows.
        NegativeDurationError: naming the segment, if its duration is negative.
        NonUnitaryError: naming the field, if a local factor is not unitary
            or a pair phase or ``global_phase`` is not unit-modulus.
    """
    lam, durations = _drift_and_durations(p)
    _require_unit_modulus([p.global_phase], ["global_phase"])
    locals_ = _magic_locals(p)
    locals_[1:-1] *= np.exp(-1j * lam * durations[:, None])[..., None]
    return p.global_phase * from_magic(_running_products(locals_)[-1])


def synthesize(target: np.ndarray, alpha: np.ndarray) -> Protocol:
    """Time-optimal protocol realizing ``target`` from the drift ``alpha``.

    Pipeline: canonical decomposition of the target picks out its content
    ``beta``; the two-branch cost optimization fixes the total time and the
    shifted content actually simulated; a Birkhoff certificate splits the
    content's eigenvalue vector into permuted copies of ``alpha``'s, each
    permutation realized by a local conjugation and each copy's weight times
    the total time becoming a segment's duration, however short.  At the
    cost's time the content lies on the boundary of the permutohedron, so
    the certificate's face descent gives at most three segments.  Adjacent
    locals are merged and the decomposition's locals wrap the whole
    sequence; a target of cost 0 gets no segment.

    Raises:
        NonUnitaryError: if ``target`` is not unitary.
        ValidationError: if ``alpha`` is not finite or not s-ordered.
        InfeasibleError: if ``alpha`` is local-only and the target is not.
        SynthesisResidualError: if the result fails its own verification at
            ``tolerances.VERIFY`` (1e-7), which indicates an internal
            inconsistency.
    """
    return _synthesize(target, alpha)[0]


def _synthesize(
    target: np.ndarray, alpha: np.ndarray, _kak: KakDecomposition | Exception | None = None
) -> tuple[Protocol, VerificationReport]:
    """:func:`synthesize`, also returning the report of its self-check.

    ``_kak`` is the target's decomposition when the caller already has it
    (the CLI takes a chunk's decompositions from one stacked call), or the
    exception computing it raised, which is raised where the target would
    be decomposed, after the drift checks; ``None`` decomposes here."""
    alpha = np.asarray(alpha, dtype=float)
    if not np.isfinite(alpha).all():
        raise ValidationError(f"drift {alpha.tolist()} is not finite")
    if not is_s_ordered(alpha):
        raise ValidationError(f"drift {alpha.tolist()} is not s-ordered")
    if isinstance(_kak, Exception):
        raise _kak
    kak = kak_decompose(target) if _kak is None else _kak
    report = interaction_cost(kak.alpha, alpha)
    if report.infeasible:
        raise InfeasibleError("local-only drift cannot realize a non-local target")

    t_total = report.cost
    pre = kak.pre_local.matrix()
    post = kak.post_local.matrix()

    if t_total == 0:
        protocol = Protocol(
            opening=kak.pre_local,
            segments=(),
            closing=kak.post_local,
            hamiltonian_alpha=alpha,
            global_phase=kak.global_phase,
        )
        return _verified(protocol, target, kak.alpha)

    # Shift branch: E(beta) = E(beta + (pi/2) n) @ shift_factor(-n).
    branch = np.asarray(report.branch, dtype=int)
    shifted = kak.alpha + (np.pi / 2) * branch
    shift_local = _shift_factor(tuple((-branch).tolist()))

    # Reorder the shifted content to its s-ordered form by a local conjugation.
    ordered, move = s_order(shifted)
    conj = _local_gate_of_lambda_perm(_lambda_perm_for_move(move))

    lam = alpha_to_lambda(alpha)
    mu = alpha_to_lambda(ordered)
    terms = birkhoff_express(mu, lam, t_total).terms
    conjugators = [_local_gate_of_lambda_perm(perm) for perm, _ in terms]
    durations = [w * t_total for _, w in terms]

    # target = post conj^dag [prod_i L_i E(t_i) L_i^dag] conj shift pre phase;
    # regroup so each drift is preceded by one merged local, and factor the
    # opening, the merged locals and the closing in one stacked call.
    products = [conjugators[0].conj().T @ conj @ shift_local @ pre]
    products += [after.conj().T @ before for before, after in zip(conjugators, conjugators[1:])]
    products.append(post @ conj.conj().T @ conjugators[-1])
    opening, *merged, closing = kron_factor(np.stack(products))
    segments = [Segment(local, t) for local, t in zip([LocalUnitaryPair.identity(), *merged], durations)]

    protocol = Protocol(
        opening=opening,
        segments=tuple(segments),
        closing=closing,
        hamiltonian_alpha=alpha,
        global_phase=kak.global_phase,
    )
    return _verified(protocol, target, kak.alpha)


def _verified(
    protocol: Protocol, target: np.ndarray, target_content: np.ndarray
) -> tuple[Protocol, VerificationReport]:
    report = _verify(protocol, target, tol.VERIFY, target_content)
    if not report.passed:
        raise SynthesisResidualError(
            f"synthesized protocol misses target by {report.max_abs_error_up_to_phase:.3g}"
        )
    return protocol, report


def phase_free_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-abs distance between two operators minimized over a global phase.

    The minimizing phase is the unit-normalized trace overlap.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    overlap = np.trace(v.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-300 else 1.0
    return float(np.max(np.abs(u - phase * v)))


def verify(p: Protocol, target: np.ndarray, tolerance: float = tol.VERIFY) -> VerificationReport:
    """Checks a protocol against a target up to global phase.

    Also compares the interaction contents of the simulated and target gates;
    a protocol can only be correct if these agree.

    Raises:
        The errors of :func:`simulate`, naming the protocol field at fault;
        ``NonUnitaryError`` if ``target`` is not unitary.
    """
    return _verify(p, target, tolerance, None)


def _verify(
    p: Protocol, target: np.ndarray, tolerance: float, target_content: np.ndarray | None
) -> VerificationReport:
    """:func:`verify`, reusing the target's content when the caller has it."""
    sim = simulate(p)
    error = phase_free_distance(sim, target)
    if target_content is None:
        sim_content, target_content = interaction_content(np.stack([sim, np.asarray(target, dtype=complex)]))
    else:
        sim_content = interaction_content(sim)
    content_error = float(np.linalg.norm(sim_content - target_content))
    return VerificationReport(
        max_abs_error_up_to_phase=error,
        content_error=content_error,
        total_time=p.total_time,
        passed=bool(error <= tolerance),
    )


def trajectory_check(
    p: Protocol, samples_per_segment: int = 4, atol: float = 1e-7
) -> bool:
    """Necessity check: along the whole protocol, the accumulated content must
    stay reachable by the drift in the elapsed time.

    Every prefix (after each segment, plus ``samples_per_segment`` interior
    times inside each drift) has its interaction content tested for
    feasibility at the elapsed time.  Early prefixes sit exactly on the
    feasibility boundary, so the comparison carries a small slack ``atol``.
    All prefixes are built in one broadcast, since the drift is diagonal in
    the magic basis, and their contents are taken in one stacked call.  A
    prefix passes when one of its two branches has a minimal time, with
    slack ``atol``, of at most the elapsed time: the test of
    :func:`gateforge.cost.feasible`, exact at every drift scale.  A drift
    without interaction (``a1 = 0``) passes a prefix whose slack-lowered
    partial sums are all within ``STRUCTURAL``, at any elapsed time.

    Raises:
        ValidationError: if the drift or a segment's duration is infinite or
            NaN, or the total drift phase overflows.
        NegativeDurationError: naming the segment, if its duration is negative.
        NonUnitaryError: naming the field, if a local factor is not unitary
            or a pair phase is not unit-modulus.
    """
    lam, durations = _drift_and_durations(p)
    if not p.segments:
        return True
    fractions = np.append(np.arange(1, samples_per_segment + 1) / (samples_per_segment + 1), 1.0)
    into_segment = fractions * durations[:, None]
    elapsed = np.concatenate([[0.0], np.cumsum(durations)[:-1]])[:, None] + into_segment
    # Magic-basis drift phases for each prefix; the last column ends the segment.
    phases = np.exp(-1j * lam * into_segment[..., None])
    # Chain factors: the opening, then each segment's local with its whole
    # drift applied; a segment starts from its local times the chain before it.
    locals_ = _magic_locals(p)[:-1]
    chain = np.concatenate([locals_[:1], phases[:, -1, :, None] * locals_[1:]])
    starts = locals_[1:] @ _running_products(chain)[:-1]
    prefixes = from_magic(phases[..., None] * starts[:, None])
    gamma = interaction_content(prefixes.reshape(-1, 4, 4))
    return bool(np.all(_feasible_rows(gamma, p.hamiltonian_alpha, elapsed.ravel(), atol) >= 0))
