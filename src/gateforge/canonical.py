"""Interaction content and full canonical (KAK) decomposition of two-qubit
gates, normal forms of drift coefficient vectors, and canonicalization of
pure-interaction Hamiltonians.

A gate's non-local character is captured by a 3-vector ``alpha`` of drift
coefficients, unique once reduced to the chamber
``pi/4 >= a1 >= a2 >= |a3|`` (with ``a3 >= 0`` on the ``a1 = pi/4`` boundary).
The equivalent 4-vector ``lambda`` holds the drift eigenvalues on the magic
states.  Everything here is a pure function; all values are immutable.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import BranchResolutionError, NotTracelessError
from .linalg import (
    PAULIS,
    PAULI_PAIRS,
    LocalUnitaryPair,
    _row_label,
    drift_exponential,
    from_magic,
    joint_diagonalize_symmetric_unitary,
    kron_factor,
    special_normalize,
    to_magic,
)

HALF_PI = np.pi / 2
QUARTER_PI = np.pi / 4

#: Sign patterns mapping alpha components to the four drift eigenvalues:
#: lam_j = sum_k _LAMBDA_SIGNS[j, k] * alpha_k.
_LAMBDA_SIGNS = np.array(
    [[1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]], dtype=int
)


def alpha_to_lambda(a: np.ndarray) -> np.ndarray:
    """Drift eigenvalues (lam1..lam4) of the coefficient vector ``a``.

    The four components always sum to zero: the drift is traceless.
    """
    a = np.asarray(a, dtype=float)
    return _LAMBDA_SIGNS @ a


def lambda_to_alpha(lam: np.ndarray, atol: float = tol.BOUNDARY) -> np.ndarray:
    """Inverse of :func:`alpha_to_lambda`.

    Raises:
        NotTracelessError: if the components do not sum to zero within ``atol``.
    """
    lam = np.asarray(lam, dtype=float)
    if abs(lam.sum()) > atol:
        raise NotTracelessError(f"lambda components sum to {lam.sum():.3g}, not 0")
    return _lambda_to_alpha_unchecked(lam)


def _lambda_to_alpha_unchecked(lam: np.ndarray) -> np.ndarray:
    return np.array(
        [(lam[0] + lam[1]) / 2, (lam[0] + lam[2]) / 2, (lam[1] + lam[2]) / 2]
    )


class SOrderMove(NamedTuple):
    """Permutation-and-signs record of an s-ordering, sufficient to invert.

    ``out[i] = signs[i] * a[perm[i]]``; the sign pattern always has an even
    number of flips (zeros absorb parity), which is exactly the set of moves
    realizable by local unitaries.
    """

    perm: tuple[int, int, int]
    signs: tuple[int, int, int]

    def apply(self, a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return np.array([self.signs[i] * a[self.perm[i]] for i in range(3)])

    def invert(self, out: np.ndarray) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        a = np.empty(3)
        for i in range(3):
            a[self.perm[i]] = self.signs[i] * out[i]
        return a


def _s_sort(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise s-ordering of an ``(n, 3)`` array: the s-ordered rows and, per
    row, the permutation ``perm`` with ``|out[i]| = |row[perm[i]]|``.

    One stable sort by nonincreasing modulus; the third slot carries the sign
    of the product of all three components (zero if any factor is zero).
    """
    mags = np.abs(rows)
    perm = (-mags).argsort(axis=1, kind="stable")
    out = mags[np.arange(len(rows))[:, None], perm]
    out[:, 2] *= np.sign(rows).prod(axis=1)
    return out, perm


def _s_move(a: np.ndarray, out: np.ndarray, perm: np.ndarray) -> SOrderMove:
    """The record of the s-ordering ``out`` of the 3-vector ``a`` by ``perm``."""
    signs = np.where((a[perm] < 0) != (out < 0), -1, 1)
    if signs.prod() < 0:
        # Parity must be even to be a local move; flip the sign on a zero slot.
        signs[np.argmax(out == 0.0)] = -1
    return SOrderMove(tuple(perm.tolist()), tuple(signs.tolist()))


def s_order(a: np.ndarray) -> tuple[np.ndarray, SOrderMove]:
    """Reorders a 3-vector by nonincreasing modulus, third slot carrying the
    sign of the product of all three components (zero if any factor is zero).

    Returns the s-ordered vector and the move that produced it.
    """
    a = np.asarray(a, dtype=float)
    out, perm = _s_sort(a[None])
    return out[0], _s_move(a, out[0], perm[0])


def is_s_ordered(a: np.ndarray, atol: float = tol.BOUNDARY) -> bool:
    """Whether ``a1 >= a2 >= |a3|`` and the third component carries the product sign."""
    a = np.asarray(a, dtype=float)
    return bool(np.max(np.abs(_s_sort(a[None])[0][0] - a)) <= atol)


def is_canonical(a: np.ndarray, atol: float = tol.BOUNDARY) -> bool:
    """Whether ``pi/4 >= a1 >= a2 >= |a3|`` (boundary gauge not enforced)."""
    a = np.asarray(a, dtype=float)
    return bool(
        a[0] <= QUARTER_PI + atol and a[0] >= a[1] - atol and a[1] >= abs(a[2]) - atol
    )


#: The pi/2 shift of the a1 = pi/4 boundary gauge.
_GAUGE_SHIFT = np.array([1, 0, 0])


def _chamber_reduce(rows: np.ndarray):
    """Row-wise chamber reduction of an ``(n, 3)`` array, and the moves that
    reach it.

    Each row is reduced componentwise mod pi/2 into (-pi/4, pi/4], with
    ``row = reduced + (pi/2) shift``, and s-ordered to ``ordered`` by ``perm``.
    Rows in ``boundary`` (a1 = pi/4 with a3 < 0) then take the gauge move
    ``(pi/4, a2, a3) ~ (pi/4, a2, -a3)``: the shift ``_GAUGE_SHIFT`` and a
    second s-ordering by ``gauge_perm`` (one row per boundary row).

    Returns ``(canonical, shift, ordered, perm, boundary, gauge_perm)``.
    """
    shift = np.ceil(rows / HALF_PI - 0.5)
    ordered, perm = _s_sort(rows - HALF_PI * shift)
    boundary = (ordered[:, 0] > QUARTER_PI - tol.BOUNDARY) & (ordered[:, 2] < 0)
    canonical, gauge_perm = ordered, perm[:0]
    if np.any(boundary):
        canonical = ordered.copy()
        canonical[boundary], gauge_perm = _s_sort(ordered[boundary] - HALF_PI * _GAUGE_SHIFT)
    return canonical, shift, ordered, perm, boundary, gauge_perm


def canonical_reduce(a: np.ndarray) -> np.ndarray:
    """Canonical representative of the local equivalence class of ``a``.

    Componentwise reduction mod pi/2 into (-pi/4, pi/4], then s-ordering,
    then the boundary gauge forcing ``a3 >= 0`` when ``a1 = pi/4``.  Each step
    is a local move, so the gate of the result is locally equivalent to the
    gate of the input.
    """
    return _chamber_reduce(np.asarray(a, dtype=float)[None])[0][0]


# ---------------------------------------------------------------------------
# Local realizations of lambda permutations and pi/2 shifts.
# ---------------------------------------------------------------------------

def _lambda_perm_for_move(move: SOrderMove) -> tuple[int, ...]:
    """The permutation ``pi`` of drift eigenvalues induced by an even
    signed permutation of alpha: ``lam_out[j] = lam_in[pi[j]]``.

    Matching is exact integer pattern lookup, never floating comparison.
    """
    perm, signs = move
    out = []
    for j in range(4):
        pattern = np.zeros(3, dtype=int)
        for k in range(3):
            pattern[perm[k]] = _LAMBDA_SIGNS[j, k] * signs[k]
        hits = np.flatnonzero((_LAMBDA_SIGNS == pattern).all(axis=1))
        if hits.size != 1:
            raise ValueError(f"move {move} does not induce a lambda permutation")
        out.append(int(hits[0]))
    return tuple(out)


def permutation_matrix(perm: tuple[int, ...]) -> np.ndarray:
    """Proper 4x4 permutation matrix ``P`` with ``(P d P.T)_jj = d[perm[j]]``
    for diagonal ``d``.

    Odd permutations get one column negated to land in SO(4); conjugation of a
    diagonal matrix is insensitive to the column sign.
    """
    p = np.zeros((4, 4))
    for j, src in enumerate(perm):
        p[j, src] = 1.0
    if np.linalg.det(p) < 0:
        p[:, perm[0]] *= -1.0
    return p


@functools.lru_cache(maxsize=None)
def _local_gate_of_lambda_perm(perm: tuple[int, ...]) -> np.ndarray:
    """Computational-basis local gate conjugating drifts by a magic-state
    permutation: ``E(perm . lam) = W E(lam) W^dag``."""
    w = from_magic(permutation_matrix(perm))
    w.flags.writeable = False
    return w


def _shift_factor(n: np.ndarray) -> np.ndarray:
    """The commuting local factor splitting off a pi/2 shift of alpha:
    ``E(a) = E(a - (pi/2) n) @ _shift_factor(n)``.

    Built from ``exp(-i (pi/2) sigma_k x sigma_k) = -i sigma_k x sigma_k``.
    """
    f = np.eye(4, dtype=complex)
    for k in range(3):
        steps = int(n[k])
        base = -1j * PAULI_PAIRS[k] if steps > 0 else 1j * PAULI_PAIRS[k]
        for _ in range(abs(steps)):
            f = f @ base
    return f


# ---------------------------------------------------------------------------
# Interaction content and KAK decomposition.
# ---------------------------------------------------------------------------

#: Offsets (in units of pi) tried per eigenvalue when fixing the branch of
#: lam_k = -theta_k / 2 (each defined mod pi) subject to sum(lam) = 0 mod 2pi.
_BRANCH_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=4)), dtype=int)


def _content_from_phases(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical content and the chosen eigenvalue branch.

    ``theta`` are the eigenphases of U^T U in the magic basis, so the drift
    eigenvalues are ``lam_k = -theta_k/2 + m_k pi``.  All branch assignments
    with ``sum(lam) = 0 mod 2pi`` reduce to the same canonical vector; the
    lexicographically largest reduction is kept as a deterministic tie-break
    against roundoff, and the winning branch's lambda (folded to an exactly
    zero sum) is returned for reassembly.

    ``theta`` is one 4-vector or a stack ``(n, 4)``, giving ``(3,), (4,)`` or
    ``(n, 3), (n, 4)``; each row is reduced exactly as it would be alone.

    Raises:
        BranchResolutionError: if no branch of some row has a 2pi-periodic
            sum; for a stack the message names the row.
    """
    theta = np.asarray(theta, dtype=float)
    stacked = theta.ndim == 2
    rows = theta if stacked else theta[None]
    candidates = (-rows / 2)[:, None, :] + np.pi * _BRANCH_OFFSETS
    totals = candidates.sum(axis=-1)
    wraps = (totals / (2 * np.pi)).round()
    valid = np.abs(totals - 2 * np.pi * wraps) <= 1e-6
    counts = valid.sum(axis=-1)
    if not counts.all():
        where = _row_label(stacked, int(counts.argmin()))
        raise BranchResolutionError(f"no eigenvalue branch has a 2pi-periodic sum{where}")
    row = valid.nonzero()[0]
    lams = candidates[valid]
    lams[:, 3] -= 2 * np.pi * wraps[valid]
    lams -= (lams.sum(axis=1) / 4)[:, None]  # spread residual; moves D by < 1e-9
    alphas = np.column_stack(
        [
            (lams[:, 0] + lams[:, 1]) / 2,
            (lams[:, 0] + lams[:, 2]) / 2,
            (lams[:, 1] + lams[:, 2]) / 2,
        ]
    )
    reduced = _chamber_reduce(alphas)[0]
    keys = reduced.round(12)
    # Stable sort by row, then key: the last entry of each row's run is that
    # row's largest key, ties going to the highest branch index.
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0], row))
    best = order[counts.cumsum() - 1]
    if stacked:
        return reduced[best], lams[best]
    return reduced[best[0]], lams[best[0]]


def interaction_content(g: np.ndarray) -> np.ndarray:
    """Canonical interaction-content vector of a two-qubit gate.

    Phase-normalizes to determinant one, moves to the magic basis, and reads
    the drift eigenvalues off the eigenphases of ``g^T g`` there; local
    factors drop out because they are real orthogonal in that frame.

    ``g`` is one 4x4 gate or a stack ``(n, 4, 4)``, giving ``(3,)`` or
    ``(n, 3)``.  A stack is diagonalized in one batched pass, and each row
    equals the content of that gate computed alone, bit for bit.

    Raises:
        NonUnitaryError: if ``g`` (or any gate of a stack) is not unitary;
            for a stack the message names the row.
    """
    g_special, _ = special_normalize(g)
    m = to_magic(g_special)
    _, theta = joint_diagonalize_symmetric_unitary(m.swapaxes(-1, -2) @ m)
    return _content_from_phases(theta)[0]


@dataclass(frozen=True)
class KakDecomposition:
    """Full factorization ``g = post * exp(-i H_alpha) * pre * phase`` with
    canonical ``alpha`` and local unitary pairs on both sides."""

    post_local: LocalUnitaryPair
    alpha: np.ndarray
    pre_local: LocalUnitaryPair
    global_phase: complex

    def matrix(self) -> np.ndarray:
        """Reassembles the gate this decomposition represents."""
        drift = drift_exponential(alpha_to_lambda(self.alpha), 1.0)
        return self.global_phase * (
            self.post_local.matrix() @ drift @ self.pre_local.matrix()
        )


def kak_decompose(g: np.ndarray) -> KakDecomposition:
    """Constructive canonical decomposition of a two-qubit gate.

    In the magic basis ``g^T g = O^T D^2 O`` for proper orthogonal ``O``; once
    the eigenvalue branch of ``D`` is fixed so the determinant constraints
    hold, the left factor ``O~ = g O^T D^-1`` comes out real orthogonal and
    both factors split into single-qubit pairs.  Residual chamber reductions
    of alpha are folded into extra local factors so the returned ``alpha`` is
    canonical.

    Raises:
        NonUnitaryError: if ``g`` is not unitary.
        BranchResolutionError: if no branch renders the left factor real
            within 1e-6 (numerically degenerate input; surfaced, not patched).
    """
    g = np.asarray(g, dtype=complex)
    g_special, phase = special_normalize(g)
    m = to_magic(g_special)
    o_right, theta = joint_diagonalize_symmetric_unitary(m.T @ m)
    _, lam = _content_from_phases(theta)

    d_inv = np.exp(1j * lam)  # inverse of D = diag(exp(-i lam))
    o_left = m @ o_right.T @ np.diag(d_inv)
    imag_mass = np.max(np.abs(o_left.imag))
    if imag_mass > 1e-6:
        raise BranchResolutionError(
            f"left orthogonal factor has imaginary mass {imag_mass:.3g}"
        )
    o_left = o_left.real

    left = from_magic(o_left)
    right = from_magic(o_right)
    alpha = _lambda_to_alpha_unchecked(lam)

    # Fold the chamber reduction of alpha into the local factors: the pi/2
    # shift, the s-ordering and, on the a1 = pi/4 boundary, the gauge move.
    canonical, shift, ordered, perm, boundary, gauge_perm = _chamber_reduce(alpha[None])
    steps = [(shift[0], alpha, ordered[0], perm[0])]
    if boundary[0]:
        steps.append((_GAUGE_SHIFT, ordered[0], canonical[0], gauge_perm[0]))
    for n, before, after, p in steps:
        if np.any(n != 0):
            right = _shift_factor(n) @ right
        w = _local_gate_of_lambda_perm(_lambda_perm_for_move(_s_move(before - HALF_PI * n, after, p)))
        left = left @ w.conj().T
        right = w @ right

    decomp = KakDecomposition(
        post_local=kron_factor(left),
        alpha=canonical[0],
        pre_local=kron_factor(right),
        global_phase=phase,
    )
    residual = np.max(np.abs(decomp.matrix() - g))
    if residual > tol.RESIDUAL:
        raise BranchResolutionError(f"reassembly residual {residual:.3g} exceeds 1e-8")
    return decomp


# ---------------------------------------------------------------------------
# Pure-interaction Hamiltonians.
# ---------------------------------------------------------------------------

def coupling_hamiltonian(c: np.ndarray) -> np.ndarray:
    """The 4x4 Hermitian operator ``sum_ij c_ij sigma_i (x) sigma_j``."""
    c = np.asarray(c, dtype=float)
    h = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            h += c[i, j] * np.kron(PAULIS[i], PAULIS[j])
    return h


def alpha_hamiltonian(a: np.ndarray) -> np.ndarray:
    """The canonical drift ``sum_k a_k sigma_k (x) sigma_k``."""
    a = np.asarray(a, dtype=float)
    return sum(a[k] * PAULI_PAIRS[k] for k in range(3))


def _su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """Deterministic SU(2) lift of an SO(3) rotation.

    Quaternion extraction via the most stable diagonal pivot; the double-cover
    sign is fixed to the nonnegative-trace branch (first nonzero quaternion
    component positive when the trace vanishes).
    """
    r = np.asarray(r, dtype=float)
    tr = np.trace(r)
    choices = [tr, r[0, 0], r[1, 1], r[2, 2]]
    pivot = int(np.argmax(choices))
    if pivot == 0:
        s = 2.0 * np.sqrt(1.0 + tr)
        q = np.array(
            [s / 4, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif pivot == 1:
        s = 2.0 * np.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2])
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, s / 4, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif pivot == 2:
        s = 2.0 * np.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2])
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, s / 4, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = 2.0 * np.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1])
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, s / 4]
        )
    q = q / np.linalg.norm(q)
    if q[0] < 0 or (q[0] == 0 and q[np.argmax(np.abs(q) > 0)] < 0):
        q = -q
    w, x, y, z = q
    return w * np.eye(2, dtype=complex) - 1j * (x * PAULIS[0] + y * PAULIS[1] + z * PAULIS[2])


def rotation_of_su2(u: np.ndarray) -> np.ndarray:
    """Adjoint SO(3) rotation of an SU(2) element: ``u s_j u^dag = sum_i R_ij s_i``."""
    u = np.asarray(u, dtype=complex)
    return np.array(
        [
            [0.5 * np.trace(PAULIS[i] @ u @ PAULIS[j] @ u.conj().T).real for j in range(3)]
            for i in range(3)
        ]
    )


def hamiltonian_canonical(c: np.ndarray) -> tuple[np.ndarray, LocalUnitaryPair]:
    """Canonical form of a pure-interaction coupling matrix.

    Real SVD of ``c`` with determinant signs absorbed into the last singular
    value gives rotations ``O1, O2`` in SO(3) and an s-ordered coefficient
    vector ``alpha`` (not capped at pi/4: Hamiltonian strength is unbounded).
    The rotations lift to an SU(2) conjugator pair ``(U, V)`` with
    ``(U (x) V) H_c (U (x) V)^dag = H_alpha``.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (3, 3):
        raise ValueError("coupling matrix must be 3x3")
    o1, sigma, o2t = np.linalg.svd(c)
    o2 = o2t.T
    d1 = np.linalg.det(o1)
    d2 = np.linalg.det(o2)
    o1[:, 2] *= d1
    o2[:, 2] *= d2
    alpha = _s_sort(np.array([[sigma[0], sigma[1], sigma[2] * d1 * d2]]))[0][0]
    u = _su2_from_rotation(o1.T)
    v = _su2_from_rotation(o2.T)
    return alpha, LocalUnitaryPair(u, v, 1.0 + 0j)
