"""Shared sampling helpers and test-local oracles for the test suite."""

import itertools

import numpy as np

from gateforge.canonical import QUARTER_PI, s_order
from gateforge.linalg import LocalUnitaryPair


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
