"""Shared sampling helpers and test-local oracles for the test suite."""

import itertools

import numpy as np
from hypothesis import strategies as st

from gateforge.canonical import QUARTER_PI, alpha_to_lambda, s_order
from gateforge.linalg import MAGIC, PAULIS, LocalUnitaryPair, drift_exponential


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(n, rng)
    return u / np.linalg.det(u) ** (1.0 / n)


def random_su2(rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(2, rng)
    return u / np.sqrt(np.linalg.det(u))


def random_local_pair(rng: np.random.Generator) -> LocalUnitaryPair:
    return LocalUnitaryPair(random_su2(rng), random_su2(rng), 1.0 + 0j)


def random_proper_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_s_ordered_alpha(
    rng: np.random.Generator, lo: float = 0.1, hi: float = 1.5
) -> np.ndarray:
    raw = rng.uniform(lo, hi, size=3) * rng.choice([-1.0, 1.0], size=3)
    ordered, _ = s_order(raw)
    return ordered


def random_canonical_alpha(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish sample of the canonical chamber pi/4 >= a1 >= a2 >= |a3|."""
    while True:
        a1 = rng.uniform(0.0, QUARTER_PI)
        a2 = rng.uniform(0.0, a1)
        a3 = rng.uniform(-a2, a2)
        if a1 > QUARTER_PI - 1e-6 and a3 < 0:
            continue  # stay off the boundary gauge ambiguity
        return np.array([a1, a2, a3])


# Test-local cost oracle, independent of gateforge.cost: vectorized
# s-ordering and a feasibility scan over every shift in {-2..2}^3.
_SHIFTS = (np.pi / 2) * np.array(list(itertools.product(range(-2, 3), repeat=3)), dtype=float)


def _s_order_rows(m):
    idx = np.argsort(-np.abs(m), axis=1, kind="stable")
    out = np.take_along_axis(np.abs(m), idx, axis=1)
    out[:, 2] *= np.sign(m[:, 0]) * np.sign(m[:, 1]) * np.sign(m[:, 2])
    return out


def _scan_feasible(beta, alpha, t, atol=0.0):
    """Whether some shift of ``beta`` is s-majorized by ``alpha * t`` with
    slack ``atol`` on each inequality."""
    rows = _s_order_rows(beta[None, :] + _SHIFTS)
    a = alpha * t
    return bool(
        np.any(
            (rows[:, 0] <= a[0] + atol)
            & (rows[:, 0] + rows[:, 1] - rows[:, 2] <= a[0] + a[1] - a[2] + atol)
            & (rows[:, 0] + rows[:, 1] + rows[:, 2] <= a[0] + a[1] + a[2] + atol)
        )
    )


#: Places in the chamber pi/4 >= a1 >= a2 >= |a3| that a drawn content sits on.
_WALLS = ("interior", "a1=a2", "a2=a3", "a2=-a3", "a3=0", "a1=pi/4", "a1=pi/4,a3<0", "a1=pi/8", "zero")
#: Degenerate drifts whose multi-segment prefixes are drawn as well.
_PREFIX_DRIFTS = {"ising": (1.0, 0.0, 0.0), "xy": (1.0, 1.0, 0.0), "heisenberg": (1.0, 1.0, 1.0)}


@st.composite
def dressed_gates(draw):
    """A dressed gate whose content is ``size`` (1e-12 .. pi/4) on a chamber
    wall, or a prefix of a protocol under a degenerate drift."""
    kind = draw(st.sampled_from(_WALLS + tuple(_PREFIX_DRIFTS)))
    size = 10.0 ** draw(st.floats(-12.0, float(np.log10(QUARTER_PI))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u1, u2 = rng.random(2)
    if kind in _PREFIX_DRIFTS:
        lam = alpha_to_lambda(np.array(_PREFIX_DRIFTS[kind]))
        g = random_local_pair(rng).matrix()
        for _ in range(rng.integers(1, 4)):
            g = drift_exponential(lam, size * rng.random()) @ random_local_pair(rng).matrix() @ g
        return g
    a1 = {"a1=pi/4": QUARTER_PI, "a1=pi/4,a3<0": QUARTER_PI, "a1=pi/8": QUARTER_PI / 2}.get(kind, size)
    a2 = {"a1=a2": a1, "zero": 0.0}.get(kind, u1 * min(a1, size))
    a3 = {"a2=a3": a2, "a2=-a3": -a2, "a3=0": 0.0, "a1=pi/4,a3<0": -u2 * a2, "zero": 0.0}.get(
        kind, (2 * u2 - 1) * a2
    )
    a = np.array([0.0 if kind == "zero" else a1, a2, a3])
    left, right = random_local_pair(rng).matrix(), random_local_pair(rng).matrix()
    return np.exp(2j * np.pi * rng.random()) * left @ drift_exponential(alpha_to_lambda(a), 1.0) @ right


# Test-local invariant oracle, independent of the diagonalizer: Makhlin's
# local invariants (Makhlin, QIP 1, 243 (2002); Zhang, Vala, Sastry and
# Whaley, PRA 67, 042313 (2003)).  Two gates are locally equivalent exactly
# when their invariants agree.

def content_gate(a):
    """``exp(-i (a1 XX + a2 YY + a3 ZZ))``, by a Hermitian eigendecomposition."""
    h = sum(c * np.kron(p, p) for c, p in zip(a, PAULIS))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def makhlin_invariants(u):
    """``(G1, G2)`` with ``G1 = tr^2(m) / (16 det u)`` and
    ``G2 = (tr^2(m) - tr(m^2)) / (4 det u)``, where ``m = u_B^T u_B`` and
    ``u_B`` is ``u`` in the magic basis."""
    ub = MAGIC.conj().T @ u @ MAGIC
    m = ub.T @ ub
    det, tr = np.linalg.det(u), np.trace(m)
    return np.array([tr**2 / (16 * det), (tr**2 - np.trace(m @ m)) / (4 * det)])


def invariant_gap(u, v):
    """Largest difference between the Makhlin invariants of ``u`` and ``v``."""
    return float(np.max(np.abs(makhlin_invariants(u) - makhlin_invariants(v))))
