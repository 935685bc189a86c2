"""Dense 4x4 matrix utilities: the magic-basis frame change, joint
diagonalization of symmetric unitaries by real orthogonal matrices, and
factorization of product operators into single-qubit unitary pairs.

Conventions: gate matrices are 4x4 complex numpy arrays in the computational
basis ordered |00>, |01>, |10>, |11>.  The magic basis is the fixed maximally
entangled basis in which canonical two-qubit drifts are diagonal and
determinant-one local unitaries are real orthogonal.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    """``np.kron`` of two 2x2 matrices, or of each pair of two stacks
    ``(..., 2, 2)``, by broadcasting (no wrapper overhead)."""
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(*a.shape[:-2], 4, 4)


def _unitarity_gap(rows: np.ndarray) -> np.ndarray:
    """Entrywise ``|m @ m.conj().T - I|`` for each matrix ``m`` of a stack."""
    return np.abs(rows @ rows.transpose(0, 2, 1).conj() - np.eye(rows.shape[-1]))


def _first_row_over(err: np.ndarray, limit: float) -> tuple[int, float]:
    """The first matrix of a stack ``err`` (n, k, k) with an entry above
    ``limit`` (or NaN), and that matrix's largest entry."""
    worst = err.max(axis=(-2, -1))
    row = int(np.argmax(~(worst <= limit)))
    return row, float(worst[row])


def _row_label(stacked: bool, row: int) -> str:
    """`` in row k`` for an error about one matrix of a stack, else empty."""
    return f" in row {row}" if stacked else ""


def is_unitary(m: np.ndarray, atol: float = tol.STRUCTURAL) -> bool:
    """Whether ``m @ m.conj().T`` is the identity within ``atol`` (max-abs)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(_unitarity_gap(m[None]).max() <= atol)


def _require_unitary(
    m: np.ndarray, what: str = "matrix", atol: float = tol.STRUCTURAL, names: Sequence[str] | None = None
) -> np.ndarray:
    """``m`` as a complex array, checked unitary within ``atol``; a stack
    ``(n, k, k)`` is checked matrix by matrix and an error names the first
    failing row, or its entry of ``names`` (one name per row).  The
    package's one unitarity check; loaders of 10-digit input pass RESIDUAL."""
    m = np.asarray(m, dtype=complex)
    stacked = m.ndim == 3
    rows = m if stacked else m[None]
    if rows.ndim != 3 or rows.shape[-1] != rows.shape[-2]:
        raise NonUnitaryError(f"{what} is not a square matrix")
    gap = _unitarity_gap(rows)
    if not gap.max() <= atol:
        row, _ = _first_row_over(gap, atol)
        field = f"{what}{_row_label(stacked, row)}" if names is None else names[row]
        raise NonUnitaryError(f"{field} is not unitary within {atol:g}")
    return m


def _require_unit_modulus(phases, names: Sequence[str]) -> None:
    """Checks each scalar of ``phases`` unit-modulus within ``PHASE``; an
    error names the first failing one from ``names``."""
    for phase, name in zip(phases, names):
        if not abs(abs(phase) - 1.0) <= tol.PHASE:
            raise NonUnitaryError(f"{name} is not unit modulus within {tol.PHASE:g}")


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
        """Raises ``NonUnitaryError`` naming ``u_a``, ``u_b`` or ``phase``."""
        _require_unitary(self.u_a, "u_a", atol)
        _require_unitary(self.u_b, "u_b", atol)
        _require_unit_modulus([self.phase], ["phase"])


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
    ``det(m)`` (argument in (-pi/4, pi/4]).  A stack ``(n, 4, 4)`` is
    rescaled matrix by matrix and ``c`` has shape ``(n,)``.

    Raises:
        NonUnitaryError: if ``m`` (or any matrix of a stack) is not unitary.
    """
    m = _require_unitary(m)
    det = np.linalg.det(m)
    c = np.exp(0.25j * np.arctan2(det.imag, det.real))
    return m / c[..., None, None], c


def joint_diagonalize_symmetric_unitary(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalizes a symmetric unitary by a real orthogonal congruence.

    For symmetric unitary ``m`` the real and imaginary parts are commuting
    real symmetric matrices, so they share a real orthogonal eigenbasis.
    Re(m) is diagonalized by LAPACK ``eigh``; within each of its degenerate
    eigenspaces a second ``eigh`` on the restriction of Im(m), or of
    Im(m) - Re(m) where the eigenphases lie near +-pi/2, resolves the
    remaining freedom.  No random perturbation is used, so the
    output is deterministic.

    ``m`` is one 4x4 matrix or a stack ``(n, 4, 4)``.  A stack goes through
    one batched ``eigh``; only matrices with a degenerate cluster take the
    second pass.  A single matrix is the ``n = 1`` case of the same code, so
    each matrix of a stack gets exactly the result it gets alone.

    Returns:
        ``(o, theta)`` with ``o`` proper orthogonal (det +1) and ``theta`` the
        four eigenphases, sorted nonincreasingly, such that
        ``m = o.T @ diag(exp(1j * theta)) @ o``; for a stack, ``(n, 4, 4)``
        and ``(n, 4)``.

    Raises:
        NotSymmetricError: if ``m`` differs from its transpose beyond tolerance.
        NonUnitaryError: if ``m`` is not unitary.
        DiagonalizationFailedError: if the final residual exceeds ``RESIDUAL``,
            signalling numerically pathological input.
        For a stack, the message names the first failing row.
    """
    m = np.asarray(m, dtype=complex)
    stacked = m.ndim == 3
    ms = m if stacked else m[None]
    asymmetry = np.abs(ms - ms.transpose(0, 2, 1))
    if asymmetry.max() > tol.SYMMETRY:
        row, _ = _first_row_over(asymmetry, tol.SYMMETRY)
        raise NotSymmetricError(f"matrix{_row_label(stacked, row)} is not symmetric")
    _require_unitary(m, "symmetric input")

    # z.real and z.imag are the symmetrized Re(m) and Im(m).
    z = (ms + ms.transpose(0, 2, 1)) * 0.5
    d, v = np.linalg.eigh(z.real)

    # Indexing with (row, order) moves the gathered eigenvectors to rows.
    rows = np.arange(len(ms))[:, None]
    order = (-d).argsort(axis=-1, kind="stable")
    d = d[rows, order]
    v = v[rows, :, order].transpose(0, 2, 1)

    # A degenerate Re(m) eigenspace holds phases near +-c, where cos(c) = d.
    # On it diagonalize the restriction of Im(m): its eigenvalues sin(theta)
    # split the groups at +c and -c, and within a group they move with slope
    # cos(theta) = d.  Where |d| < 1/2 that slope is too flat, so take
    # Im(m) - Re(m) = sqrt2 sin(theta - pi/4) instead, whose slope at +-c is
    # then at least 0.26 of its maximum.  A cluster is a run of sorted
    # eigenvalues whose neighbours lie within CLUSTER; most stacks have none.
    close = d[:, :-1] - d[:, 1:] < tol.CLUSTER
    if close.any():
        _resolve_clusters(z, d, v, close)

    # Rayleigh quotients v^T z v are cos + i sin of each eigenphase.
    zs = np.einsum("nji,njk,nki->ni", v, z, v)
    theta = np.arctan2(zs.imag, zs.real)

    order = (-theta).argsort(axis=-1, kind="stable")
    theta = theta[rows, order]
    o = v[rows, :, order]
    o[:, -1, :] *= np.sign(np.linalg.det(o))[:, None]  # det is +-1: make it +1

    residual = np.abs(ms - (o.transpose(0, 2, 1) * np.exp(1j * theta)[:, None, :]) @ o)
    if residual.max() > tol.RESIDUAL:
        row, worst = _first_row_over(residual, tol.RESIDUAL)
        raise DiagonalizationFailedError(
            f"joint diagonalization residual {worst:.3g}{_row_label(stacked, row)} exceeds {tol.RESIDUAL:g}"
        )
    return (o, theta) if stacked else (o[0], theta[0])


def _resolve_clusters(z: np.ndarray, d: np.ndarray, v: np.ndarray, close: np.ndarray) -> None:
    """The second pass of :func:`joint_diagonalize_symmetric_unitary`, in
    place on the eigenvectors ``v``: the block of ``v`` of every degenerate
    cluster (a run of ``close`` neighbours) of every row is rotated to
    diagonalize the restriction of Im(m), or of Im(m) - Re(m) where
    ``|d| < 1/2``.  The restrictions are taken cluster by cluster, as for a
    matrix alone, and diagonalized with one batched ``eigh`` per cluster
    size."""
    by_size: dict = {}
    for r in close.any(axis=-1).nonzero()[0].tolist():
        cuts = [0, *((~close[r]).nonzero()[0] + 1).tolist(), 4]
        for i, j in zip(cuts, cuts[1:]):
            if j - i > 1:
                f = z[r].imag if abs(d[r, i]) >= 0.5 else z[r].imag - z[r].real
                block = v[r, :, i:j]
                by_size.setdefault(j - i, []).append((block, block.T @ f @ block))
    for clusters in by_size.values():
        blocks, restricted = zip(*clusters)
        restricted = np.array(restricted)
        _, w = np.linalg.eigh((restricted + restricted.swapaxes(-1, -2)) / 2)
        for block, rotation in zip(blocks, w):
            block[...] = block @ rotation


def kron_factor(m: np.ndarray) -> LocalUnitaryPair | tuple[LocalUnitaryPair, ...]:
    """Factors a product operator into ``phase * (A (x) B)``.

    Rearranges ``m`` into the 4x4 matrix ``R = vec(A) vec(B)^T``, which is
    rank one for a product, and reads the factors off it without LAPACK:
    ``vec(A) = R conj(r)`` for its largest-norm row ``r``, then
    ``vec(B) = R^T conj(vec A) / |vec A|^2``.  Both are then scaled to
    determinant one by the closed-form 2x2 determinant ``ad - bc``.  The
    gauge is fixed deterministically: ``det(A) = det(B) = 1`` and the first
    above-threshold entry of each factor has argument in (-pi/2, pi/2] (real
    nonnegative whenever a sign flip can achieve it).

    ``m`` is one 4x4 matrix or a stack ``(n, 4, 4)``, which returns a tuple
    of ``n`` pairs.  Every step works row by row, so each matrix of a stack
    gets exactly the pair it gets alone.

    Raises:
        NonUnitaryError: if ``m`` is not unitary within ``RESIDUAL`` (1e-8).
        NotAProductError: if the rank-one residual ``max|R - vec(A) vec(B)^T|``
            exceeds ``RESIDUAL``, i.e. ``m`` is genuinely non-local, or the
            factors fail to reassemble ``m`` within it; ``residual`` holds the
            offending (finite) value.
        For a stack, the message names the first failing row.
    """
    m = _require_unitary(m, "product candidate", atol=tol.RESIDUAL)
    stacked = m.ndim == 3
    ms = m if stacked else m[None]
    n = len(ms)
    rows = np.arange(n)
    r = ms.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    # A unitary's R has Frobenius norm 2, so its largest row r has
    # |r|^2 >= 1, and A's entry on that row is |r|^2.  Taking B from A is
    # one power step: (A, B) is then the dominant singular pair to second
    # order in m's distance from a product (~1e-10 for 10-digit input).
    rf = r.view(float)
    norms = (rf * rf).sum(axis=-1)
    longest = norms.argmax(axis=-1)
    a = (r @ r[rows, longest, :, None].conj())[..., 0]
    af = a.view(float)
    b = (a[:, None].conj() @ r)[:, 0] / (af * af).sum(axis=-1)[:, None]
    rank_one = np.abs(r - a[:, :, None] * b[:, None, :])
    if not rank_one.max() <= tol.RESIDUAL:
        row, worst = _first_row_over(rank_one, tol.RESIDUAL)
        raise NotAProductError(
            f"Kronecker rank-one residual {worst:.3g}{_row_label(stacked, row)} exceeds {tol.RESIDUAL:g}",
            residual=worst,
        )
    # ab[:, 0] and ab[:, 1] are the factors A and B, scaled to determinant one.
    ab = np.stack([a, b], axis=1)
    det = ab[..., 0] * ab[..., 3] - ab[..., 1] * ab[..., 2]
    ab = (ab / np.sqrt(det)[..., None]).reshape(n, 2, 2, 2)
    kron = _kron2(ab[:, 0], ab[:, 1])
    flat = kron.reshape(n, 16)
    idx = np.abs(flat).argmax(axis=-1)
    phase = ms.reshape(n, 16)[rows, idx] / flat[rows, idx]
    # np.hypot rounds as abs() of one complex does; numpy's vectorized
    # complex abs may differ from it in the last bit.
    phase = phase / np.hypot(phase.real, phase.imag)
    # The sign gauge below flips factors and phase together, so the
    # reassembly residual does not depend on it.
    residual = np.abs(ms - phase[:, None, None] * kron)
    if not residual.max() <= tol.RESIDUAL:
        row, worst = _first_row_over(residual, tol.RESIDUAL)
        raise NotAProductError(
            f"product reassembly residual {worst:.3g}{_row_label(stacked, row)} exceeds {tol.RESIDUAL:g}",
            residual=worst,
        )

    # Sign gauge: negate a factor whose leading entry (its first above 1e-8)
    # has argument outside (-pi/2, pi/2], and the phase with it.
    entries = ab.reshape(2 * n, 4)
    lead = entries[np.arange(2 * n), (np.abs(entries) > 1e-8).argmax(axis=-1)].reshape(n, 2)
    flip = (lead.real < -1e-12) | ((np.abs(lead.real) <= 1e-12) & (lead.imag < 0))
    ab = np.where(flip[..., None, None], -ab, ab)
    sign = np.where(flip, -1.0, 1.0)
    phase = phase * sign[:, 0] * sign[:, 1]
    pairs = tuple(LocalUnitaryPair(a, b, z) for (a, b), z in zip(ab, phase))
    return pairs if stacked else pairs[0]


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
