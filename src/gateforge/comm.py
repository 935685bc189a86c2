"""Communication capability of two-qubit gates: the four-class taxonomy, the
tasks each class can perform, the cheapest interaction content for each task
under a given drift, and the one-parameter gate family saturating the
bidirectional-cbit bound.

All transmission semantics are ancilla-free and entanglement-free: one
application of the gate, no shared resources.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .canonical import QUARTER_PI, canonical_reduce
from .cost import interaction_cost
from .errors import InfeasibleError


class GateClass(enum.Enum):
    """Transmission-capability classes, keyed by which content components
    reach the pi/4 landmark."""

    NO_TRANSMISSION = "NoTransmission"
    CNOT_CLASS = "ClassCNOT"
    DCNOT_CLASS = "ClassDCNOT"
    SWAP_CLASS = "ClassSWAP"


class CommTask(enum.Enum):
    """Single-shot transmission tasks between the two parties."""

    CBIT_A_TO_B = "cbit-a-to-b"
    CBIT_BOTH_WAYS = "cbit-both-ways"
    QUBIT_A_TO_B = "qubit-a-to-b"
    QUBIT_A_TO_B_PLUS_CBIT_B_TO_A = "qubit-a-to-b-plus-cbit-b-to-a"
    QUBIT_BOTH_WAYS = "qubit-both-ways"


@dataclass(frozen=True)
class TaskCostReport:
    """Cheapest way to perform a transmission task with a given drift."""

    cost: float
    optimal_beta: np.ndarray
    realizing_gate_hint: str


def classify(beta: np.ndarray, atol: float = tol.BOUNDARY) -> GateClass:
    """Class of a canonical content vector.

    Membership is decided solely by which of the three components equal pi/4
    within ``atol``: none, only the first, the first two, or all three.
    """
    beta = np.asarray(beta, dtype=float)
    at_max = [abs(b - QUARTER_PI) <= atol for b in beta]
    if at_max[2]:
        return GateClass.SWAP_CLASS
    if at_max[1]:
        return GateClass.DCNOT_CLASS
    if at_max[0]:
        return GateClass.CNOT_CLASS
    return GateClass.NO_TRANSMISSION


_CAPABILITIES = {
    GateClass.NO_TRANSMISSION: frozenset(),
    GateClass.CNOT_CLASS: frozenset({CommTask.CBIT_A_TO_B}),
    GateClass.DCNOT_CLASS: frozenset(
        {
            CommTask.CBIT_A_TO_B,
            CommTask.CBIT_BOTH_WAYS,
            CommTask.QUBIT_A_TO_B,
            CommTask.QUBIT_A_TO_B_PLUS_CBIT_B_TO_A,
        }
    ),
    GateClass.SWAP_CLASS: frozenset(CommTask),
}


def capabilities(cls: GateClass) -> frozenset[CommTask]:
    """Tasks a class can perform in a single gate application."""
    return _CAPABILITIES[cls]


def task_cost(task: CommTask, alpha: np.ndarray) -> TaskCostReport:
    """Optimal interaction content and minimal drift time for a task.

    One classical bit one way is cheapest via a CNOT-content gate; every
    bidirectional task short of a double qubit swap shares the optimum
    ``beta = pi/4 (1, 1, 2 a3/(a1+a2))``; swapping two qubits forces the full
    SWAP content.  The cost is :func:`gateforge.cost.interaction_cost` of the
    optimal content, exact at every finite drift scale.  ``alpha`` must be
    s-ordered with a positive leading component.

    Raises:
        InfeasibleError: if ``alpha`` has no interaction at all, or so little
            that the cost overflows.
    """
    a = np.asarray(alpha, dtype=float)
    if a[0] <= 0.0:
        raise InfeasibleError("drift with no interaction cannot transmit anything")

    if task is CommTask.CBIT_A_TO_B:
        beta, hint = np.array([QUARTER_PI, 0.0, 0.0]), "CNOT"
    elif task is CommTask.QUBIT_BOTH_WAYS:
        beta, hint = np.full(3, QUARTER_PI), "SWAP"
    else:
        # cbit both ways, qubit one way, and qubit+cbit share one optimum.
        _, a2, a3 = a / a[0]
        b = a3 / (1.0 + a2)
        beta = canonical_reduce(np.array([QUARTER_PI, QUARTER_PI, 2 * b * QUARTER_PI]))
        hint = f"cbit-family(vartheta={QUARTER_PI * (1 - 2 * b):.12g})"
    cost = interaction_cost(beta, a).cost
    if not math.isfinite(cost):
        raise InfeasibleError(f"drift {a.tolist()} is too weak to {task.value} in finite time")
    return TaskCostReport(cost=cost, optimal_beta=beta, realizing_gate_hint=hint)


def family_gate(eta: float, theta: float, omega: float) -> np.ndarray:
    """The explicit special-unitary family saturating the bidirectional-cbit
    bound, in the computational basis |00>, |01>, |10>, |11>.

    Its content always has the first two components at pi/4, with the third
    controlled by the three angles; the double-CNOT sits at
    ``(pi, 0, pi/2)`` and the SWAP at ``eta + theta = 0, omega = 0``.
    """
    prefactor = np.exp(-1j * math.pi / 4) * np.exp(1j * (eta + theta) / 4)
    c, s = math.cos(omega), math.sin(omega)
    # Rows/columns ordered |11>, |10>, |01>, |00>; reversed below.
    m = prefactor * np.array(
        [
            [np.exp(-1j * (eta + theta)) * c, 0, np.exp(-1j * theta) * s, 0],
            [-np.exp(-1j * eta) * s, 0, c, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )
    return m[::-1, ::-1].copy()


def capability_row(cls: GateClass) -> tuple[bool, bool, bool]:
    """The three-column capability row of the classification table:
    (cbit one way, qubit one way + cbit back, qubit both ways)."""
    caps = capabilities(cls)
    return (
        CommTask.CBIT_A_TO_B in caps,
        CommTask.QUBIT_A_TO_B_PLUS_CBIT_B_TO_A in caps,
        CommTask.QUBIT_BOTH_WAYS in caps,
    )
