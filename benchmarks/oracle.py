"""Reference answers for the benchmark, computed without gateforge.

Gates are built from their interaction content, so the content is known by
construction.  Drifts are exponentiated through ``numpy.linalg.eigh`` of the
4x4 Hamiltonian, products of single-qubit factors use a local Kronecker
product, and the interaction cost is the two-branch closed form written out
afresh.  Every ``check_*`` function returns ``None`` for a correct answer and
a short reason otherwise.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

QUARTER_PI = math.pi / 4
HALF_PI = math.pi / 2

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices."""
    return np.einsum("ij,kl->ikjl", a, b).reshape(4, 4)


_PAIRS = tuple(kron(p, p) for p in (_X, _Y, _Z))

#: Phase-free distance within which two gates count as equal; it is also
#: the tolerance the CLI's own ``verify`` applies.
GATE_TOL = 1e-7
#: Content components are compared to this absolute tolerance.
CONTENT_TOL = 1e-7


def content_gate(beta) -> np.ndarray:
    """``exp(-i sum_k beta_k sigma_k (x) sigma_k)`` in closed form.

    The three terms commute; on span{|00>, |11>} the exponent is
    ``(b1 - b2) X + b3 I`` and on span{|01>, |10>} it is ``(b1 + b2) X - b3 I``.
    """
    b1, b2, b3 = (float(b) for b in beta)
    u = np.zeros((4, 4), dtype=complex)
    for (i, j), angle, phase in (((0, 3), b1 - b2, -b3), ((1, 2), b1 + b2, b3)):
        c, s = cmath.exp(1j * phase) * math.cos(angle), -1j * cmath.exp(1j * phase) * math.sin(angle)
        u[i, i] = u[j, j] = c
        u[i, j] = u[j, i] = s
    return u


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) element from a uniform unit quaternion."""
    q = rng.normal(size=4).tolist()
    norm = math.sqrt(sum(x * x for x in q))
    a, b, c, d = (x / norm for x in q)
    return np.array([[complex(a, b), complex(c, d)], [complex(-c, d), complex(a, -b)]])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Random proper 3x3 rotation."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def dressed_gate(beta, rng: np.random.Generator) -> np.ndarray:
    """``phase (A (x) B) exp(-i H_beta) (C (x) D)`` with Haar-random locals."""
    phase = np.exp(2j * math.pi * rng.random())
    left = kron(random_su2(rng), random_su2(rng))
    right = kron(random_su2(rng), random_su2(rng))
    return phase * (left @ content_gate(beta) @ right)


class Drift:
    """``t -> exp(-i t H_alpha)`` from one eigendecomposition of ``H_alpha``."""

    def __init__(self, alpha) -> None:
        h = sum(a * p for a, p in zip(alpha, _PAIRS))
        self.w, self.v = np.linalg.eigh(h)

    def __call__(self, t: float) -> np.ndarray:
        return (self.v * np.exp(-1j * t * self.w)) @ self.v.conj().T


def pair_matrix(pair: dict) -> np.ndarray:
    """Matrix of a serialized local pair ``phase (u_a (x) u_b)``."""
    return complex_of(pair["phase"]) * kron(matrix2_of(pair["u_a"]), matrix2_of(pair["u_b"]))


def complex_of(z) -> complex:
    return complex(float(z[0]), float(z[1]))


def matrix2_of(rows) -> np.ndarray:
    return np.array([[complex_of(rows[i][j]) for j in range(2)] for i in range(2)])


def matrix4_of(entries) -> np.ndarray:
    return np.array([complex_of(e) for e in entries]).reshape(4, 4)


def protocol_matrix(proto: dict) -> np.ndarray:
    """Re-simulates a protocol in gateforge's JSON format."""
    drift = Drift(proto["hamiltonian_alpha"])
    u = pair_matrix(proto["opening"])
    for seg in proto["segments"]:
        u = drift(float(seg["duration"])) @ pair_matrix(seg) @ u
    return complex_of(proto["global_phase"]) * (pair_matrix(proto["closing"]) @ u)


def phase_free_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-abs distance between ``u`` and ``v`` after the best global phase."""
    overlap = np.trace(v.conj().T @ u)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(u - phase * v)))


def s_order(a) -> np.ndarray:
    """Nonincreasing moduli, the third carrying the sign of the product."""
    mags = sorted((abs(float(x)) for x in a), reverse=True)
    sign = float(np.sign(a[0]) * np.sign(a[1]) * np.sign(a[2]))
    return np.array([mags[0], mags[1], sign * mags[2]])


def drift_eigenvalues(alpha) -> np.ndarray:
    """The four eigenvalues of ``H_alpha`` on the magic states."""
    a1, a2, a3 = alpha
    return np.array([a1 + a2 - a3, a1 - a2 + a3, -a1 + a2 + a3, -a1 - a2 - a3])


def _min_time(b, a) -> float:
    b, a = s_order(b), s_order(a)
    worst = 0.0
    for num, den in (
        (b[0], a[0]),
        (b[0] + b[1] - b[2], a[0] + a[1] - a[2]),
        (b[0] + b[1] + b[2], a[0] + a[1] + a[2]),
    ):
        if den <= 0.0:
            if num > 1e-12:
                return math.inf
            continue
        worst = max(worst, num / den)
    return worst


def cost(beta, alpha) -> float:
    """Interaction cost: the better of the shifts ``(0,0,0)`` and ``(-1,0,0)``."""
    beta = np.asarray(beta, dtype=float)
    return min(_min_time(beta, alpha), _min_time(beta - [HALF_PI, 0.0, 0.0], alpha))


def same_content(got, beta, tol: float = CONTENT_TOL) -> bool:
    """Equality of canonical contents, allowing the ``a1 = pi/4`` gauge."""
    got = np.asarray(got, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if got.shape != (3,):
        return False
    if np.max(np.abs(got - beta)) <= tol:
        return True
    on_gauge_wall = abs(beta[0] - QUARTER_PI) <= tol
    return bool(on_gauge_wall and np.max(np.abs(np.abs(got) - np.abs(beta))) <= tol)


def gate_class(beta, atol: float = 1e-9) -> str:
    at_max = [abs(b - QUARTER_PI) <= atol for b in beta]
    if at_max[2]:
        return "ClassSWAP"
    if at_max[1]:
        return "ClassDCNOT"
    if at_max[0]:
        return "ClassCNOT"
    return "NoTransmission"


def _s_majorizes(a, b, atol: float = 1e-10) -> bool:
    a, b = s_order(a), s_order(b)
    return bool(
        a[0] >= b[0] - atol
        and a[0] + a[1] - a[2] >= b[0] + b[1] - b[2] - atol
        and a[0] + a[1] + a[2] >= b[0] + b[1] + b[2] - atol
    )


def order_verdict(beta_u, beta_v) -> str:
    """Absolute non-locality order of two canonical contents."""
    for b in (beta_u, beta_v):
        if b[0] + abs(b[2]) > QUARTER_PI + 1e-9:
            return "OutsideRegion"
    u_dom, v_dom = _s_majorizes(beta_u, beta_v), _s_majorizes(beta_v, beta_u)
    if u_dom and v_dom:
        return "Equivalent"
    if u_dom:
        return "MoreNonlocal"
    if v_dom:
        return "LessNonlocal"
    return "Incomparable"


def task_cost(task: str, alpha) -> float:
    """Closed-form drift time of a single-shot transmission task."""
    a1, a2, a3 = s_order(alpha)
    if task == "cbit-a-to-b":
        return QUARTER_PI / a1
    if task == "qubit-both-ways":
        return 3 * QUARTER_PI / (a1 + a2 + abs(a3))
    return HALF_PI / (a1 + a2)


def _time_close(got, expected: float, alpha) -> bool:
    """Times agree when the drift phase they imply differs by at most 1e-7."""
    if got is None:
        return False
    scale = float(np.max(np.abs(drift_eigenvalues(s_order(alpha)))))
    return abs(float(got) - expected) * scale <= GATE_TOL + 1e-9 * expected * scale


# ---------------------------------------------------------------------------
# Per-command checks.  ``expect`` is what the generator knows about the line.
# ---------------------------------------------------------------------------

def check_canon(result: dict, expect: dict) -> str | None:
    if not same_content(result["alpha"], expect["beta"]):
        return f"content {result['alpha']} != {list(expect['beta'])}"
    if np.max(np.abs(np.asarray(result["lambda"]) - drift_eigenvalues(result["alpha"]))) > 1e-8:
        return "lambda does not match alpha"
    if expect.get("full"):
        kak = result["kak"]
        rebuilt = (
            complex_of(kak["global_phase"])
            * pair_matrix(kak["post_local"])
            @ content_gate(kak["alpha"])
            @ pair_matrix(kak["pre_local"])
        )
        err = float(np.max(np.abs(rebuilt - expect["gate"])))
        if err > GATE_TOL:
            return f"KAK reassembles the gate only to {err:.3g}"
    return None


def check_cost(result: dict, expect: dict) -> str | None:
    if not same_content(result["beta"], expect["beta"]):
        return f"content {result['beta']} != {list(expect['beta'])}"
    if np.max(np.abs(np.asarray(result["alpha"]) - expect["alpha"])) > 1e-8:
        return f"drift {result['alpha']} != {list(expect['alpha'])}"
    want = cost(expect["beta"], expect["alpha"])
    if result["infeasible"] or not _time_close(result["cost"], want, expect["alpha"]):
        return f"cost {result['cost']} != {want!r}"
    return None


def check_classify(result: dict, expect: dict) -> str | None:
    want = gate_class(expect["beta"])
    if result["class"] != want:
        return f"class {result['class']} != {want}"
    if not same_content(result["beta"], expect["beta"]):
        return f"content {result['beta']} != {list(expect['beta'])}"
    return None


def check_order(result: dict, expect: dict) -> str | None:
    want = order_verdict(expect["beta_u"], expect["beta_v"])
    if result["verdict"] != want:
        return f"verdict {result['verdict']} != {want}"
    return None


def check_commcost(result: dict, expect: dict) -> str | None:
    want = task_cost(expect["task"], expect["alpha"])
    if not _time_close(result["cost"], want, expect["alpha"]):
        return f"task cost {result['cost']} != {want!r}"
    return None


def check_synth(result: dict, expect: dict) -> str | None:
    proto = result["protocol"]
    alpha = expect["alpha"]
    if np.max(np.abs(np.asarray(proto["hamiltonian_alpha"]) - alpha)) > 1e-8:
        return f"drift {proto['hamiltonian_alpha']} != {list(alpha)}"
    if len(proto["segments"]) > 3:
        return f"{len(proto['segments'])} segments"
    want = cost(expect["beta"], alpha)
    if not _time_close(result["total_time"], want, alpha):
        return f"total time {result['total_time']} != {want!r}"
    err = phase_free_distance(protocol_matrix(proto), expect["gate"])
    if err > GATE_TOL:
        return f"protocol misses the target by {err:.3g}"
    if not result["verification"]["passed"]:
        return "protocol reported as unverified"
    return None


def check_verify(result: dict, expect: dict) -> str | None:
    if result["passed"] != expect["passed"]:
        return f"verdict {result['passed']} != {expect['passed']}"
    return None


def check_trajectory(result: dict, expect: dict) -> str | None:
    if result["passed"] is not True:
        return "trajectory check rejected a physical protocol"
    return None


CHECKS = {
    "canon": check_canon,
    "cost": check_cost,
    "classify": check_classify,
    "order": check_order,
    "commcost": check_commcost,
    "synth": check_synth,
    "verify": check_verify,
    "trajectory": check_trajectory,
}


def check(result: dict, expect: dict) -> str | None:
    """Oracle verdict on one successful result line."""
    try:
        return CHECKS[expect["cmd"]](result, expect)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed result: {exc!r}"
