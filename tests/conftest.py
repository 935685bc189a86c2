"""Shared sampling helpers and test-local oracles for the test suite."""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from gateforge.canonical import QUARTER_PI, _chamber_reduce, alpha_to_lambda, s_order
from gateforge.linalg import MAGIC, PAULIS, LocalUnitaryPair, _kron2, drift_exponential


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


# Test-local branch oracle: every eigenvalue branch of the content core,
# tried one by one.
_BRANCH_OFFSETS = np.array(list(itertools.product((-1, 0, 1), repeat=4)), dtype=int)


def reference_content_from_phases(theta):
    """Content and eigenvalue branch of magic-basis eigenphases ``theta``
    (one 4-vector or a stack ``(n, 4)``), by enumeration: each of the 81
    branches ``lam = -theta/2 + pi m``, ``m`` in ``{-1, 0, 1}^4``, whose sum is
    2pi-periodic within 1e-6 is folded to a zero sum and chamber-reduced; the
    lexicographically largest reduction, rounded to 12 decimals, wins, ties
    going to the highest branch index.  Returns ``None`` for a row with no
    such branch."""
    theta = np.asarray(theta, dtype=float)
    out = []
    for row in np.atleast_2d(theta):
        best = None
        for m in _BRANCH_OFFSETS:
            lam = -row / 2 + np.pi * m
            wrap = np.round(lam.sum() / (2 * np.pi))
            if abs(lam.sum() - 2 * np.pi * wrap) > 1e-6:
                continue
            lam[3] -= 2 * np.pi * wrap
            lam -= lam.sum() / 4
            alpha = np.array([lam[0] + lam[1], lam[0] + lam[2], lam[1] + lam[2]]) / 2
            content = _chamber_reduce(alpha[None])[0][0]
            key = tuple(content.round(12))
            if best is None or key >= best[0]:
                best = (key, content, lam)
        out.append(None if best is None else best[1:])
    return out if theta.ndim == 2 else out[0]


def reference_simulate(p):
    """The gate a protocol performs, segment by segment: each local pair's
    4x4 matrix and each drift exponential multiplied in turn."""
    lam = alpha_to_lambda(p.hamiltonian_alpha)
    u = p.opening.matrix()
    for seg in p.segments:
        u = drift_exponential(lam, seg.duration) @ seg.local.matrix() @ u
    return p.global_phase * (p.closing.matrix() @ u)


@st.composite
def haar_gates(draw):
    """A Haar-random two-qubit gate."""
    return random_unitary(4, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


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


#: Walls that one side of a weak-wall content sits on.
_WEAK_WALLS = ("a1=pi/8", "a1=a2", "a2=-a3", "a3=0", "a1=pi/4")
#: Fixed drift shapes of ``weak_wall_targets``, besides a random one.
_WALL_DRIFTS = {**_PREFIX_DRIFTS, "oblique": (1.0, 0.6, -0.3)}


@st.composite
def weak_wall_targets(draw):
    """``(gate, drift)``: a dressed gate whose content has one side on a
    chamber wall and its other components weak (1e-12 .. 1e-9), and a
    random, Ising, XY, Heisenberg or ``(1, 0.6, -0.3)`` drift scaled by
    1e-300 .. 1e300."""
    wall = draw(st.sampled_from(_WEAK_WALLS))
    big, small = sorted((10.0 ** draw(st.floats(-12.0, -9.0)) for _ in range(2)), reverse=True)
    sign = draw(st.sampled_from([-1.0, 1.0]))
    a = {
        "a1=pi/8": (QUARTER_PI / 2, big, sign * small),
        "a1=pi/4": (QUARTER_PI, big, sign * small),
        "a1=a2": (big, big, sign * small),
        "a2=-a3": (big, small, -small),
        "a3=0": (big, small, 0.0),
    }[wall]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", *_WALL_DRIFTS)))
    shape = random_s_ordered_alpha(rng) if kind == "random" else np.array(_WALL_DRIFTS[kind])
    alpha = shape * 10.0 ** draw(st.floats(-300.0, 300.0))
    left, right = random_local_pair(rng).matrix(), random_local_pair(rng).matrix()
    gate = np.exp(2j * np.pi * rng.random()) * left @ drift_exponential(alpha_to_lambda(np.array(a)), 1.0) @ right
    return gate, alpha


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


# Test-local local-layer oracles: LAPACK ``svd`` where the package uses
# closed forms, and per-scalar rounding where it rounds in one pass.

def reference_polar(m):
    """The unitary polar factor of each matrix of a stack, by ``svd``."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def reference_kron_factor(m):
    """``(u_a, u_b, phase)`` stacks of the product operators of a stack
    ``(n, 4, 4)``, from the dominant singular pair of the rearranged matrix,
    in the gauge of :func:`gateforge.linalg.kron_factor`: determinant one,
    each factor's first entry above 1e-8 with argument in (-pi/2, pi/2]."""
    n = len(m)
    r = m.reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    u, sv, vh = np.linalg.svd(r)
    ab = np.stack([u[:, :, 0] * np.sqrt(2), vh[:, 0] * (sv[:, :1] / np.sqrt(2))], axis=1).reshape(n, 2, 2, 2)
    ab = ab / np.sqrt(np.linalg.det(ab))[..., None, None]
    rows = np.arange(n)
    flat = _kron2(ab[:, 0], ab[:, 1]).reshape(n, 16)
    idx = np.abs(flat).argmax(axis=-1)
    phase = m.reshape(n, 16)[rows, idx] / flat[rows, idx]
    phase = phase / np.hypot(phase.real, phase.imag)
    entries = ab.reshape(2 * n, 4)
    lead = entries[np.arange(2 * n), (np.abs(entries) > 1e-8).argmax(axis=-1)].reshape(n, 2)
    flip = (lead.real < -1e-12) | ((np.abs(lead.real) <= 1e-12) & (lead.imag < 0))
    ab = np.where(flip[..., None, None], -ab, ab)
    sign = np.where(flip, -1.0, 1.0)
    return ab[:, 0], ab[:, 1], phase * sign[:, 0] * sign[:, 1]


def _reference_sig(x):
    if x == 0:
        return 0.0
    if not math.isfinite(x):
        return x
    return float(f"{x:.10g}")


def _reference_complex(z):
    return [_reference_sig(float(np.real(z))), _reference_sig(float(np.imag(z)))]


def _reference_pair(pair):
    def matrix(m):
        return [[_reference_complex(m[i, j]) for j in range(2)] for i in range(2)]

    return {"u_a": matrix(pair.u_a), "u_b": matrix(pair.u_b), "phase": _reference_complex(pair.phase)}


def reference_protocol_to_json(p):
    """A protocol's JSON object, every number rounded on its own."""
    return {
        "hamiltonian_alpha": [_reference_sig(float(x)) for x in np.asarray(p.hamiltonian_alpha, dtype=float)],
        "opening": _reference_pair(p.opening),
        "segments": [{**_reference_pair(seg.local), "duration": _reference_sig(seg.duration)} for seg in p.segments],
        "closing": _reference_pair(p.closing),
        "global_phase": _reference_complex(p.global_phase),
        "total_time": _reference_sig(p.total_time),
    }


def reference_plain(value):
    """JSON data of nested dicts, lists, tuples, numpy arrays and scalars,
    each number rounded on its own, arrays walked entry by entry."""
    if isinstance(value, dict):
        return {key: reference_plain(v) for key, v in value.items()}
    if isinstance(value, np.ndarray):
        return reference_plain(value[()]) if value.ndim == 0 else [reference_plain(v) for v in value]
    if isinstance(value, (list, tuple)):
        return [reference_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return _reference_complex(value)
    if isinstance(value, (float, np.floating)):
        return _reference_sig(float(value))
    return value
