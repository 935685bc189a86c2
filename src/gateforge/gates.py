"""Named landmark gates and constructors, in the computational basis
|00>, |01>, |10>, |11> with the first qubit acting as control where relevant.
"""

from __future__ import annotations

import numpy as np

from .errors import BetaOutOfRangeError, UnknownGateError
from .linalg import _require_unitary

IDENTITY = np.eye(4, dtype=complex)

#: Flips the second qubit when the first is |1>.
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

#: |i j> -> |j, i xor j>: two back-to-back CNOTs with alternating control.
DCNOT = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]], dtype=complex
)

#: Exchanges the two qubit states.
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def controlled_gate(u: np.ndarray) -> np.ndarray:
    """Applies the 2x2 unitary ``u`` to the second qubit when the first is |1>."""
    u = _require_unitary(u, "controlled operation")
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


def controlled_u(beta: float) -> np.ndarray:
    """Controlled gate with interaction content ``(beta, 0, 0)``.

    The controlled 2x2 operation has eigenvalues ``exp(+-2i beta)``; ``beta``
    ranges over ``[0, pi/4]``, with the CNOT content at ``beta = pi/4``.
    """
    if not 0.0 <= beta <= np.pi / 4:
        raise BetaOutOfRangeError("controlled-U parameter must lie in [0, pi/4]")
    return controlled_gate(np.diag([np.exp(2j * beta), np.exp(-2j * beta)]))


NAMED_GATES = {
    "IDENTITY": IDENTITY,
    "CNOT": CNOT,
    "DCNOT": DCNOT,
    "SWAP": SWAP,
}


def named_gate(name: str, beta: float | None = None) -> np.ndarray:
    """Looks up a gate by registry name (``CONTROLLED_U`` takes ``beta``).

    Raises:
        UnknownGateError: for names outside the registry.
        BetaOutOfRangeError: for a controlled-U parameter outside [0, pi/4].
    """
    key = name.upper()
    if key == "CONTROLLED_U":
        if beta is None:
            raise BetaOutOfRangeError("CONTROLLED_U requires a phase parameter")
        return controlled_u(beta)
    try:
        return NAMED_GATES[key].copy()
    except KeyError:
        raise UnknownGateError(f"unknown gate {name!r}") from None
