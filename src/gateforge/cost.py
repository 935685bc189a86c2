"""Interaction cost of gates, feasibility of simulation at a given time,
and the interaction-based partial order on gates.

The cost of realizing a gate with content ``beta`` from a drift ``alpha``
under instantaneous local control is the smallest ``t`` such that a pi/2
shift of ``beta`` is s-majorized by ``alpha * t``.  For canonical ``beta``
only the shifts ``(0,0,0)`` and ``(-1,0,0)`` can ever win, so both the cost
optimizer and the feasibility test look at these two branches alone, s-order
both shifted rows in one call and compare their s-majorization partial sums
(:mod:`gateforge.majorization`).  The test suite checks both against a scan
over every shift in {-2..2}^3.  Every cost, that of a named landmark gate
or of a communication task too, is this two-branch minimal time, taken on the
drift in units of its leading component: it is exact at every finite drift
scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .canonical import HALF_PI, QUARTER_PI, _s_sort, is_canonical
from .errors import BetaOutOfRangeError, UnknownGateError
from .majorization import _min_times, _s_sums, s_majorizes

#: The only shifts of a canonical content that can be s-majorized first,
#: in the order they are tried.
_BRANCHES = ((0, 0, 0), (-1, 0, 0))
_BRANCH_SHIFTS = HALF_PI * np.array(_BRANCHES, dtype=float)

#: Canonical contents of the landmark gates of :func:`named_gate_cost`.
_NAMED_CONTENTS = {
    "CNOT": QUARTER_PI * np.array([1.0, 0.0, 0.0]),
    "DCNOT": QUARTER_PI * np.array([1.0, 1.0, 0.0]),
    "SWAP": QUARTER_PI * np.array([1.0, 1.0, 1.0]),
}


@dataclass(frozen=True)
class CostReport:
    """Outcome of the two-branch cost optimization.

    ``cost`` is ``math.inf`` when the drift cannot reach the target at any
    time; ``infeasible`` makes that case explicit.  ``beta_used`` is the
    s-ordered shifted content the winning branch actually simulates.
    """

    cost: float
    branch: tuple[int, int, int]
    beta_used: np.ndarray

    @property
    def infeasible(self) -> bool:
        return math.isinf(self.cost)


class OrderVerdict(enum.Enum):
    """Result of comparing two gates under the interaction-cost partial order."""

    MORE_NONLOCAL = "MoreNonlocal"
    LESS_NONLOCAL = "LessNonlocal"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"
    OUTSIDE_REGION = "OutsideRegion"


def _feasible_rows(beta: np.ndarray, alpha: np.ndarray, t: np.ndarray, atol: float) -> np.ndarray:
    """Row-wise two-branch feasibility of canonical contents ``beta`` (n, 3)
    at times ``t`` (n,).

    Row ``i`` gets the index into :data:`_BRANCHES` of the first branch whose
    shift of ``beta[i]`` is s-majorized by ``alpha * t[i]`` with slack
    ``atol`` on each of the three inequalities, or -1 when neither is.
    """
    beta = np.asarray(beta, dtype=float)
    reach = _s_sums(_s_sort(np.asarray(alpha, dtype=float) * np.asarray(t, dtype=float)[:, None])[0])
    shifted, _ = _s_sort((beta[:, None, :] + _BRANCH_SHIFTS).reshape(-1, 3))
    need = _s_sums(shifted).reshape(len(beta), len(_BRANCHES), 3)
    ok = np.all(reach[:, None, :] >= need - atol, axis=-1)
    return np.where(ok[:, 0], 0, np.where(ok[:, 1], 1, -1))


def feasible(
    beta: np.ndarray,
    alpha: np.ndarray,
    t: float,
    atol: float = tol.STRUCTURAL,
) -> tuple[bool, tuple[int, int, int] | None]:
    """Whether some pi/2 shift of the canonical content ``beta`` is
    s-majorized by ``alpha * t``, with slack ``atol`` on each inequality.

    Tries the branches ``(0,0,0)`` and ``(-1,0,0)`` in that order and returns
    the first hit, or ``(False, None)``.  For a canonical ``beta`` (as
    produced by :func:`gateforge.canonical.interaction_content`) no other
    shift can be feasible when these two are not.

    Raises:
        BetaOutOfRangeError: if ``beta`` is not canonical.
    """
    if not is_canonical(beta):
        raise BetaOutOfRangeError(f"content {np.asarray(beta).tolist()} is not canonical")
    k = int(_feasible_rows(np.asarray(beta, dtype=float)[None], alpha, np.array([t], dtype=float), atol)[0])
    return (True, _BRANCHES[k]) if k >= 0 else (False, None)


def interaction_cost(beta: np.ndarray, alpha: np.ndarray) -> CostReport:
    """Minimal total drift time realizing content ``beta`` from drift ``alpha``.

    Takes the better of the two candidate shifts in one pass; ties (and two
    infinite costs) are reported as branch ``(0,0,0)`` for determinism.
    ``beta`` should be canonical (as produced by
    :func:`gateforge.canonical.interaction_content`) and ``alpha`` s-ordered.
    """
    costs, ordered = _min_times(np.asarray(beta, dtype=float) + _BRANCH_SHIFTS, alpha)
    k = int(costs.argmin())
    return CostReport(cost=float(costs[k]), branch=_BRANCHES[k], beta_used=ordered[k])


def named_gate_cost(gate: str, alpha: np.ndarray, beta: float | None = None) -> float:
    """Interaction cost of a landmark gate under drift ``alpha``.

    ``gate`` is one of ``"CNOT"``, ``"DCNOT"``, ``"SWAP"`` or
    ``"CONTROLLED_U"`` (the latter takes the content parameter ``beta`` in
    ``[0, pi/4]``).  The value is :func:`interaction_cost` of the gate's fixed
    canonical content: ``(pi/4)(1, 0, 0)``, ``(pi/4)(1, 1, 0)``,
    ``(pi/4)(1, 1, 1)`` or ``(beta, 0, 0)``.

    Raises:
        UnknownGateError: for an unrecognized name.
        BetaOutOfRangeError: if ``beta`` is missing or outside ``[0, pi/4]``.
    """
    name = gate.upper()
    if name == "CONTROLLED_U":
        if beta is None or not 0.0 <= beta <= QUARTER_PI:
            raise BetaOutOfRangeError("controlled-U parameter must lie in [0, pi/4]")
        content = np.array([beta, 0.0, 0.0])
    elif name in _NAMED_CONTENTS:
        content = _NAMED_CONTENTS[name]
    else:
        raise UnknownGateError(f"no closed-form cost for gate {gate!r}")
    return interaction_cost(content, alpha).cost


def partial_order(beta_u: np.ndarray, beta_v: np.ndarray) -> OrderVerdict:
    """Absolute (Hamiltonian-independent) comparison of two gate contents.

    Valid only in the region ``beta_1 + |beta_3| <= pi/4`` where the shift
    optimization never activates; outside it no absolute order exists and
    ``OUTSIDE_REGION`` is returned rather than extrapolating.
    """
    beta_u = np.asarray(beta_u, dtype=float)
    beta_v = np.asarray(beta_v, dtype=float)
    for b in (beta_u, beta_v):
        if b[0] + abs(b[2]) > QUARTER_PI + tol.BOUNDARY:
            return OrderVerdict.OUTSIDE_REGION
    u_dominates = s_majorizes(beta_u, beta_v)
    v_dominates = s_majorizes(beta_v, beta_u)
    if u_dominates and v_dominates:
        return OrderVerdict.EQUIVALENT
    if u_dominates:
        return OrderVerdict.MORE_NONLOCAL
    if v_dominates:
        return OrderVerdict.LESS_NONLOCAL
    return OrderVerdict.INCOMPARABLE
