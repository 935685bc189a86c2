"""Dense 4x4 matrix utilities: the magic-basis frame change, joint
diagonalization of symmetric unitaries by real orthogonal matrices, and
factorization of product operators into single-qubit unitary pairs.

Conventions: gate matrices are 4x4 complex numpy arrays in the computational
basis ordered |00>, |01>, |10>, |11>.  The magic basis is the fixed maximally
entangled basis in which canonical two-qubit drifts are diagonal and
determinant-one local unitaries are real orthogonal.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .errors import (
    DiagonalizationFailedError,
    ImproperRotationError,
    NegativeDurationError,
    NonUnitaryError,
    NotAProductError,
    NotSymmetricError,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

#: sigma_k (x) sigma_k for k = 1, 2, 3.
PAULI_PAIRS = tuple(np.kron(p, p) for p in PAULIS)

_S = 1 / np.sqrt(2)

#: Columns are the four magic states expressed in the computational basis:
#: -i(|01>+|10>)/sqrt2, (|00>+|11>)/sqrt2, -i(|00>-|11>)/sqrt2, (|01>-|10>)/sqrt2.
#: Every other piece of the package depends on this single constant.
MAGIC = np.array(
    [
        [0, _S, -1j * _S, 0],
        [-1j * _S, 0, 0, _S],
        [-1j * _S, 0, 0, -_S],
        [0, _S, 1j * _S, 0],
    ]
)

_MAGIC_DAG = MAGIC.conj().T


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 matrices, by broadcasting (no wrapper overhead)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def is_unitary(m: np.ndarray, atol: float = tol.STRUCTURAL) -> bool:
    """Whether ``m @ m.conj().T`` is the identity within ``atol`` (max-abs)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= atol)


def _require_unitary(m: np.ndarray, what: str = "matrix", atol: float = tol.STRUCTURAL) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m, atol):
        raise NonUnitaryError(f"{what} is not unitary within {atol:g}")
    return m


@dataclass(frozen=True)
class LocalUnitaryPair:
    """A product operator ``phase * (u_a (x) u_b)`` acting on two qubits.

    ``u_a`` and ``u_b`` are 2x2 unitaries, gauge-fixed to determinant one by
    :func:`kron_factor`, and ``phase`` is a unit-modulus scalar.
    """

    u_a: np.ndarray
    u_b: np.ndarray
    phase: complex = 1.0 + 0j

    def matrix(self) -> np.ndarray:
        """The 4x4 operator this pair represents."""
        return self.phase * _kron2(self.u_a, self.u_b)

    def dagger(self) -> "LocalUnitaryPair":
        return LocalUnitaryPair(
            self.u_a.conj().T, self.u_b.conj().T, np.conj(self.phase)
        )

    @staticmethod
    def identity() -> "LocalUnitaryPair":
        return LocalUnitaryPair(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 1.0 + 0j)

    def validate(self, atol: float = tol.STRUCTURAL) -> None:
        if not is_unitary(self.u_a, atol) or not is_unitary(self.u_b, atol):
            raise NonUnitaryError("local factor is not unitary")
        if abs(abs(self.phase) - 1.0) > tol.PHASE:
            raise NonUnitaryError("pair phase is not unit modulus")


def to_magic(m: np.ndarray) -> np.ndarray:
    """Expresses a computational-basis operator in the magic basis.

    Returns ``Q^dag m Q`` for the fixed basis-change matrix :data:`MAGIC`.
    Determinant-one product operators become real orthogonal under this map.
    """
    return _MAGIC_DAG @ np.asarray(m, dtype=complex) @ MAGIC


def from_magic(m: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_magic`."""
    return MAGIC @ np.asarray(m, dtype=complex) @ _MAGIC_DAG


def special_normalize(m: np.ndarray) -> tuple[np.ndarray, complex]:
    """Rescales a unitary to determinant one.

    Returns ``(m / c, c)`` where ``c`` is the principal fourth root of
    ``det(m)`` (argument in (-pi/4, pi/4]).

    Raises:
        NonUnitaryError: if ``m`` is not unitary.
    """
    m = _require_unitary(m)
    det = np.linalg.det(m)
    c = cmath.exp(1j * cmath.phase(det) / 4)
    return m / c, c


def joint_diagonalize_symmetric_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalizes a symmetric unitary by a real orthogonal congruence.

    For symmetric unitary ``m`` the real and imaginary parts are commuting
    real symmetric matrices, so they share a real orthogonal eigenbasis.
    Re(m) is diagonalized by LAPACK ``eigh``; within each of its degenerate
    eigenspaces a second ``eigh`` on the restriction of Im(m) resolves the
    remaining freedom.  No random perturbation is used, so the output is
    deterministic.

    Returns:
        ``(o, theta)`` with ``o`` proper orthogonal (det +1) and ``theta`` the
        four eigenphases, sorted nonincreasingly, such that
        ``m = o.T @ diag(exp(1j * theta)) @ o``.

    Raises:
        NotSymmetricError: if ``m`` differs from its transpose beyond tolerance.
        NonUnitaryError: if ``m`` is not unitary.
        DiagonalizationFailedError: if the final residual exceeds 1e-8,
            signalling numerically pathological input.
    """
    m = np.asarray(m, dtype=complex)
    if np.max(np.abs(m - m.T)) > tol.SYMMETRY:
        raise NotSymmetricError("matrix is not symmetric")
    _require_unitary(m, "symmetric input")

    x = (m.real + m.real.T) / 2
    y = (m.imag + m.imag.T) / 2
    d, v = np.linalg.eigh(x)

    order = np.argsort(-d, kind="stable")
    v, d = v[:, order], d[order]

    # Degenerate Re(m) eigenspaces: diagonalize the restriction of Im(m).
    i = 0
    n = d.size
    while i < n:
        j = i + 1
        while j < n and abs(d[j] - d[i]) < tol.CLUSTER:
            j += 1
        if j - i > 1:
            block = v[:, i:j]
            restricted = block.T @ y @ block
            _, w = np.linalg.eigh((restricted + restricted.T) / 2)
            v[:, i:j] = block @ w
        i = j

    xs = np.einsum("ji,jk,ki->i", v, x, v)
    ys = np.einsum("ji,jk,ki->i", v, y, v)
    theta = np.arctan2(ys, xs)

    order = np.argsort(-theta, kind="stable")
    v, theta = v[:, order], theta[order]

    o = v.T.copy()
    if np.linalg.det(o) < 0:
        o[-1, :] = -o[-1, :]

    residual = np.max(np.abs(m - o.T @ np.diag(np.exp(1j * theta)) @ o))
    if residual > 1e-8:
        raise DiagonalizationFailedError(
            f"joint diagonalization residual {residual:.3g} exceeds 1e-8"
        )
    return o, theta


def kron_factor(m: np.ndarray) -> LocalUnitaryPair:
    """Factors a product operator into ``phase * (A (x) B)``.

    Works by rearranging ``m`` into the 4x4 matrix whose rank counts the
    Kronecker rank, then reading the factors off the dominant singular pair.
    The gauge is fixed deterministically: ``det(A) = det(B) = 1`` and the
    first above-threshold entry of each factor has argument in (-pi/2, pi/2]
    (real nonnegative whenever a sign flip can achieve it).

    Raises:
        NonUnitaryError: if ``m`` is not unitary.
        NotAProductError: if the second singular value of the rearranged
            matrix exceeds 1e-8, i.e. ``m`` is genuinely non-local.
    """
    m = _require_unitary(m, "product candidate", atol=tol.RESIDUAL)
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, sv, vh = np.linalg.svd(r)
    if sv[1] > 1e-8:
        raise NotAProductError(
            f"second Kronecker singular value {sv[1]:.3g} exceeds 1e-8", residual=float(sv[1])
        )
    a = u[:, 0].reshape(2, 2) * np.sqrt(2)
    b = vh[0, :].reshape(2, 2) * (sv[0] / np.sqrt(2))

    a = a / np.sqrt(np.linalg.det(a))
    b = b / np.sqrt(np.linalg.det(b))
    kron = _kron2(a, b)
    idx = np.unravel_index(np.argmax(np.abs(kron)), kron.shape)
    phase = m[idx] / kron[idx]
    phase = phase / abs(phase)

    a, flip_a = _sign_gauge(a)
    b, flip_b = _sign_gauge(b)
    phase = phase * flip_a * flip_b

    residual = np.max(np.abs(m - phase * _kron2(a, b)))
    if residual > 1e-8:
        raise NotAProductError(
            f"product reassembly residual {residual:.3g} exceeds 1e-8", residual=float(residual)
        )
    return LocalUnitaryPair(a, b, phase)


def _sign_gauge(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Flips the overall sign so the leading entry has argument in (-pi/2, pi/2]."""
    flat = a.ravel()
    lead = flat[np.argmax(np.abs(flat) > 1e-8)]
    if lead.real < -1e-12 or (abs(lead.real) <= 1e-12 and lead.imag < 0):
        return -a, -1.0
    return a, 1.0


def so4_to_local(o: np.ndarray) -> LocalUnitaryPair:
    """Maps a proper rotation of the magic basis to the local pair realizing it.

    This is the SU(2) x SU(2) ~ SO(4) homomorphism made concrete: the
    computational-basis image ``from_magic(o)`` of any proper o in SO(4) is a
    product operator, which is then factored by :func:`kron_factor`.

    Raises:
        ImproperRotationError: if ``det(o) = -1``; the caller must sign-flip a
            column first.
    """
    o = np.asarray(o, dtype=float)
    det = np.linalg.det(o)
    if det < 0:
        raise ImproperRotationError("rotation has determinant -1")
    return kron_factor(from_magic(o))


def drift_exponential(lam: np.ndarray, t: float) -> np.ndarray:
    """Exact evolution ``exp(-i H t)`` of a canonical drift.

    ``lam`` holds the four drift eigenvalues on the magic states, so the
    propagator is diagonal there and the exponential is closed-form.

    Raises:
        NegativeDurationError: if ``t < 0``.
    """
    if t < 0:
        raise NegativeDurationError(f"duration {t} is negative")
    lam = np.asarray(lam, dtype=float)
    return from_magic(np.diag(np.exp(-1j * lam * t)))
