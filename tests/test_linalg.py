import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dressed_gates,
    random_local_pair,
    random_proper_orthogonal,
    random_su2,
    random_unitary,
    reference_kron_factor,
)
from gateforge import gates
from gateforge.canonical import interaction_content, kak_decompose
from gateforge.comm import family_gate
from gateforge.cli import _sig
from gateforge.errors import (
    ImproperRotationError,
    NegativeDurationError,
    NonUnitaryError,
    NotAProductError,
    NotSymmetricError,
)
from gateforge.linalg import (
    MAGIC,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    LocalUnitaryPair,
    _require_unitary,
    _unitarity_gap,
    drift_exponential,
    from_magic,
    is_unitary,
    joint_diagonalize_symmetric_unitary,
    kron_factor,
    so4_to_local,
    special_normalize,
    to_magic,
)

# The magic-basis image of e^{-i pi/4} CNOT: every entry is +-1 or +-i times
# e^{-i pi/4} / 2.
CNOT_MAGIC = (
    np.exp(-1j * np.pi / 4)
    / 2
    * np.array(
        [
            [1, -1j, -1, -1j],
            [1j, 1, 1j, -1],
            [-1, -1j, 1, -1j],
            [1j, -1, 1j, 1],
        ]
    ).T
)


def test_magic_basis_is_unitary():
    assert is_unitary(MAGIC, 1e-14)


def test_to_magic_fixes_identity():
    assert np.allclose(to_magic(np.eye(4)), np.eye(4), atol=1e-14)


def test_to_magic_cnot_explicit_matrix():
    m = to_magic(np.exp(-1j * np.pi / 4) * gates.CNOT)
    assert np.max(np.abs(m - CNOT_MAGIC)) < 1e-12
    assert np.allclose(np.abs(m), 0.5)


def test_to_magic_of_product_is_real():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        pair = random_local_pair(rng)
        m = to_magic(np.kron(pair.u_a, pair.u_b))
        assert np.max(np.abs(m.imag)) <= 1e-9


def test_from_magic_inverts_to_magic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_unitary(4, rng)
        assert np.max(np.abs(from_magic(to_magic(g)) - g)) <= 1e-12
    assert np.allclose(from_magic(to_magic(gates.CNOT)), gates.CNOT, atol=1e-12)


def test_special_normalize_identity():
    m, c = special_normalize(np.eye(4))
    assert np.allclose(m, np.eye(4))
    assert c == pytest.approx(1.0)


def test_special_normalize_scalar_phase():
    m, c = special_normalize(np.exp(1j * np.pi / 7) * np.eye(4))
    assert c == pytest.approx(np.exp(1j * np.pi / 7), abs=1e-12)
    assert abs(np.linalg.det(m) - 1) < 1e-12


def test_special_normalize_cnot_phase():
    # det(CNOT) = -1; the principal fourth root is e^{i pi/4}, matching the
    # determinant-one normalization e^{-i pi/4} CNOT up to the root branch.
    m, c = special_normalize(gates.CNOT)
    assert c == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-12)
    assert np.allclose(m, np.exp(-1j * np.pi / 4) * gates.CNOT, atol=1e-12)


def test_special_normalize_rejects_nonunitary():
    with pytest.raises(NonUnitaryError):
        special_normalize(np.ones((4, 4)))


def test_joint_diagonalize_identity():
    o, theta = joint_diagonalize_symmetric_unitary(np.eye(4, dtype=complex))
    assert np.allclose(theta, 0)
    assert np.allclose(o @ o.T, np.eye(4), atol=1e-12)
    assert np.linalg.det(o) == pytest.approx(1.0)


def test_joint_diagonalize_cnot_phases():
    m = to_magic(np.exp(-1j * np.pi / 4) * gates.CNOT)
    _, theta = joint_diagonalize_symmetric_unitary(m.T @ m)
    assert np.allclose(np.sort(theta), np.sort([np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2]), atol=1e-10)


@pytest.mark.parametrize("phases", [(0.3, 0.1, -0.2, -0.2), (1.0, 1.0, -1.0, -1.0), (0.5, 0.5, 0.5, 0.5)])
def test_joint_diagonalize_recovers_constructed_phases(phases):
    rng = np.random.default_rng(hash(phases) % 2**32)
    o = random_proper_orthogonal(4, rng)
    m = o.T @ np.diag(np.exp(1j * np.array(phases))) @ o
    o2, theta = joint_diagonalize_symmetric_unitary(m)
    assert np.allclose(np.sort(theta), np.sort(phases), atol=1e-9)
    assert np.max(np.abs(m - o2.T @ np.diag(np.exp(1j * theta)) @ o2)) <= 1e-9
    assert np.linalg.det(o2) == pytest.approx(1.0, abs=1e-10)


def test_joint_diagonalize_random_with_degeneracies():
    rng = np.random.default_rng(42)
    for _ in range(200):
        o = random_proper_orthogonal(4, rng)
        theta = rng.uniform(-np.pi, np.pi, size=4)
        if rng.random() < 0.5:
            theta[1] = theta[0]  # inject duplicates
        if rng.random() < 0.25:
            theta[3] = theta[2]
        m = o.T @ np.diag(np.exp(1j * theta)) @ o
        _, got = joint_diagonalize_symmetric_unitary(m)
        assert np.allclose(np.sort(got), np.sort(theta), atol=1e-8)


def test_joint_diagonalize_near_cluster_phases():
    # theta = (phi, -phi + delta, psi, -psi): Re(m) has two eigenvalue pairs
    # split by ~delta, just above CLUSTER, so each is diagonalized on its own
    # and the reassembly must not lose digits there.
    rng = np.random.default_rng(11)
    worst = 0.0
    for delta in (1e-6, 3e-6, 1e-5):
        for _ in range(200):
            o = random_proper_orthogonal(4, rng)
            phi, psi = rng.uniform(0, np.pi, size=2)
            theta = np.array([phi, -phi + delta, psi, -psi])
            m = o.T @ np.diag(np.exp(1j * theta)) @ o
            o2, got = joint_diagonalize_symmetric_unitary(m)
            worst = max(worst, np.max(np.abs(m - o2.T @ np.diag(np.exp(1j * got)) @ o2)))
    assert worst <= 1e-9


def test_joint_diagonalize_clusters_around_flat_phases():
    # theta = (c +- eps, -c +- big): Re(m) has one cluster, holding the pair
    # c +- eps.  A second pass on Im(m) alone has zero slope on that pair at
    # c = pi/2 (65 of these 200 matrices raised), one on Re(m) + Im(m) at
    # c = pi/4 and -3pi/4 (56 and 61 of 200 raised); each mixed the pair and
    # left residuals up to 1e-7.
    rng = np.random.default_rng(13)
    worst = 0.0
    for c in (np.pi / 2, np.pi / 4, -3 * np.pi / 4):
        for eps in (1e-9, 1e-8, 1e-7, 3e-7):
            for _ in range(50):
                o = random_proper_orthogonal(4, rng)
                big = rng.uniform(1e-7, 1e-4)
                theta = np.array([c + eps, c - eps, -c + big, -c - big])
                m = o.T @ np.diag(np.exp(1j * theta)) @ o
                o2, got = joint_diagonalize_symmetric_unitary(m)
                worst = max(worst, np.max(np.abs(m - o2.T @ np.diag(np.exp(1j * got)) @ o2)))
    assert worst <= 1e-9


def test_joint_diagonalize_stack_equals_row_by_row():
    # Generic, degenerate (cluster second pass) and near-cluster phases in one
    # stack; each row must come out exactly as it does alone.
    rng = np.random.default_rng(14)
    stack = []
    for phases in ([0.3, 0.1, -0.2, -0.2], [1.0, 1.0, -1.0, -1.0], [0.5, 0.5, 0.5, 0.5], [0.7, -0.7 + 3e-6, 2.0, -2.0]):
        o = random_proper_orthogonal(4, rng)
        stack.append(o.T @ np.diag(np.exp(1j * np.array(phases))) @ o)
    stack = np.array(stack + [stack[0]])
    o_all, theta_all = joint_diagonalize_symmetric_unitary(stack)
    assert o_all.shape == (5, 4, 4) and theta_all.shape == (5, 4)
    for k, m in enumerate(stack):
        o_k, theta_k = joint_diagonalize_symmetric_unitary(m)
        assert np.array_equal(o_all[k], o_k) and np.array_equal(theta_all[k], theta_k)


def test_a_stack_of_walls_and_landmarks_makes_one_eigh_per_cluster_size(monkeypatch):
    # The degenerate clusters of all rows are resolved with one batched
    # eigh per cluster size; row by row this stack made 49 eigh calls.
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(np.shape(a))
        return eigh(a)

    stack = np.array([gates.CNOT, gates.named_gate("SWAP"), gates.named_gate("DCNOT"), family_gate(0.3, 0.3, 0)] * 8)
    rows = np.array([interaction_content(g) for g in stack])
    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert np.array_equal(interaction_content(stack), rows)
    assert 2 <= len(calls) <= 4


def test_joint_diagonalize_stack_names_failing_row():
    stack = np.array([np.eye(4, dtype=complex)] * 3)
    stack[2, 0, 1] = 0.5
    with pytest.raises(NotSymmetricError, match="row 2"):
        joint_diagonalize_symmetric_unitary(stack)
    stack = np.array([np.eye(4, dtype=complex)] * 3)
    stack[1] *= 1.1
    with pytest.raises(NonUnitaryError, match="row 1"):
        joint_diagonalize_symmetric_unitary(stack)


def test_joint_diagonalize_rejects_asymmetric():
    m = np.eye(4, dtype=complex)
    m[0, 1], m[1, 0] = 0.6, -0.6
    m[0, 0] = m[1, 1] = 0.8
    assert is_unitary(m, 1e-12)
    with pytest.raises(NotSymmetricError):
        joint_diagonalize_symmetric_unitary(m)


def test_kron_factor_pauli_product():
    pair = kron_factor(np.kron(PAULI_X, PAULI_Z))
    assert np.max(np.abs(pair.matrix() - np.kron(PAULI_X, PAULI_Z))) <= 1e-12
    assert abs(np.linalg.det(pair.u_a) - 1) < 1e-12
    assert abs(np.linalg.det(pair.u_b) - 1) < 1e-12


def test_kron_factor_identity():
    pair = kron_factor(np.eye(4, dtype=complex))
    assert np.allclose(pair.u_a, np.eye(2))
    assert np.allclose(pair.u_b, np.eye(2))
    assert pair.phase == pytest.approx(1.0)


def test_kron_factor_magic_permutation():
    # Swapping magic states 1<->2 and 3<->4 is proper, hence local.
    p = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    assert np.linalg.det(p) == pytest.approx(1.0)
    pair = kron_factor(from_magic(p))
    assert np.max(np.abs(pair.matrix() - from_magic(p))) <= 1e-8


def test_kron_factor_random_products_and_gauge_idempotence():
    rng = np.random.default_rng(3)
    for _ in range(200):
        phase = np.exp(2j * np.pi * rng.random())
        m = phase * np.kron(random_su2(rng), random_su2(rng))
        pair = kron_factor(m)
        assert np.max(np.abs(pair.matrix() - m)) <= 1e-9
        assert np.max(np.abs(pair.matrix() - pair.phase * np.kron(pair.u_a, pair.u_b))) <= 1e-15
        again = kron_factor(pair.matrix())
        assert np.max(np.abs(again.u_a - pair.u_a)) <= 1e-9
        assert np.max(np.abs(again.u_b - pair.u_b)) <= 1e-9
        assert abs(again.phase - pair.phase) <= 1e-9


def test_kron_factor_rejects_entangling_gate():
    with pytest.raises(NotAProductError) as err:
        kron_factor(gates.CNOT)
    assert err.value.residual > 1e-3


def _assert_rows_factor_as_alone(stack):
    # Each row of a stacked call must get exactly the pair it gets alone.
    pairs = kron_factor(stack)
    assert isinstance(pairs, tuple) and len(pairs) == len(stack)
    for m, pair in zip(stack, pairs):
        alone = kron_factor(m)
        assert np.array_equal(pair.u_a, alone.u_a)
        assert np.array_equal(pair.u_b, alone.u_b)
        assert pair.phase == alone.phase


def _round10(m):
    """Each real and imaginary part at the CLI's 10 significant digits."""
    r = np.vectorize(_sig)
    return r(m.real) + 1j * r(m.imag)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rounded=st.booleans())
def test_kron_factor_stack_rows_equal_single_calls(seed, n, rounded):
    rng = np.random.default_rng(seed)
    stack = np.array(
        [np.exp(2j * np.pi * rng.random()) * np.kron(random_su2(rng), random_su2(rng)) for _ in range(n)]
    )
    _assert_rows_factor_as_alone(_round10(stack) if rounded else stack)


@settings(max_examples=150, deadline=None)
@given(g=dressed_gates())
def test_kron_factor_stack_of_kak_locals_equals_single_calls(g):
    kak = kak_decompose(g)
    _assert_rows_factor_as_alone(np.stack([kak.post_local.matrix(), kak.pre_local.matrix()]))


def test_kron_factor_stack_names_failing_row():
    rng = np.random.default_rng(12)
    stack = np.array([np.kron(random_su2(rng), random_su2(rng)) for _ in range(3)])
    stack[1] = gates.CNOT
    with pytest.raises(NotAProductError, match="Kronecker rank-one residual .* in row 1 exceeds") as err:
        kron_factor(stack)
    assert err.value.residual > 1e-3
    stack[1] = 1.1 * np.eye(4)
    with pytest.raises(NonUnitaryError, match="row 1"):
        kron_factor(stack)


# The closed-form factors agree with the svd oracle to rounding: over 28,000
# products (random, 10-digit rounded, KAK locals of dressed gates) the largest
# entry difference was 1.3e-15, the oracle's own LU determinant and svd
# carrying about as much error as the closed form.
_ORACLE_AGREEMENT = 2e-15


def _assert_pairs_match_oracle(stack):
    u_a, u_b, phase = reference_kron_factor(stack)
    for pair, a, b, z in zip(kron_factor(stack), u_a, u_b, phase):
        assert np.abs(pair.u_a - a).max() <= _ORACLE_AGREEMENT
        assert np.abs(pair.u_b - b).max() <= _ORACLE_AGREEMENT
        assert abs(pair.phase - z) <= _ORACLE_AGREEMENT


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rounded=st.booleans())
def test_kron_factor_matches_svd_oracle_on_products(seed, n, rounded):
    rng = np.random.default_rng(seed)
    stack = np.array(
        [np.exp(2j * np.pi * rng.random()) * np.kron(random_su2(rng), random_su2(rng)) for _ in range(n)]
    )
    _assert_pairs_match_oracle(_round10(stack) if rounded else stack)


@settings(max_examples=150, deadline=None)
@given(g=dressed_gates())
def test_kron_factor_matches_svd_oracle_on_kak_locals(g):
    kak = kak_decompose(g)
    _assert_pairs_match_oracle(np.stack([kak.post_local.matrix(), kak.pre_local.matrix()]))


def _controlled_pair(u, v):
    """``|0><0| (x) u + |1><1| (x) v``."""
    return np.kron(np.diag([1, 0]), u) + np.kron(np.diag([0, 1]), v)


@pytest.mark.parametrize("name", ["CNOT", "SWAP", "DCNOT"])
def test_kron_factor_residual_of_entangling_gates_is_finite(name):
    # The rank-one test runs before the division by det(A), which is 0 for
    # these gates' A; after it, the residual would read nan.
    with pytest.raises(NotAProductError, match="rank-one residual") as err:
        kron_factor(getattr(gates, name))
    assert np.isfinite(err.value.residual) and err.value.residual > 1e-3


def test_kron_factor_residual_is_finite_for_a_row_with_singular_a():
    # For |0><0| (x) u + |1><1| (x) u i sigma the rearranged matrix R has
    # two nonzero rows, vec(u) and vec(u i sigma), orthogonal and of equal
    # norm: A = R conj(vec u) = diag(2, 0) is singular, and so is the A of
    # the other row.
    rng = np.random.default_rng(21)
    u = random_su2(rng)
    sigma = sum(c * p for c, p in zip(rng.normal(size=3), (PAULI_X, PAULI_Y, PAULI_Z)))
    v = u @ (1j * sigma / np.sqrt(0.5 * np.trace(sigma @ sigma).real))
    m = _controlled_pair(u, v)
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    a = r @ r[0].conj()
    assert abs(a[0] * a[3] - a[1] * a[2]) <= 1e-12
    stack = np.array([np.kron(random_su2(rng), random_su2(rng)), m, gates.CNOT])
    for rows, row in ((stack, 1), (stack[2:], 0)):
        with pytest.raises(NotAProductError, match=f"rank-one residual .* in row {row} exceeds") as err:
            kron_factor(rows)
        assert np.isfinite(err.value.residual) and err.value.residual > 1e-3


def _perturbed_unitaries(rng, n, scales):
    """``n`` random 2x2 unitaries, each moved by complex noise of one of
    ``scales`` (largest entry)."""
    rows = np.array([np.exp(2j * np.pi * rng.random()) * random_su2(rng) for _ in range(n)])
    noise = rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)
    noise /= np.abs(noise).max(axis=(-2, -1), keepdims=True)
    return rows + rng.choice(scales, size=n)[:, None, None] * noise


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), named=st.booleans())
def test_require_unitary_names_the_first_row_over_the_bound(seed, n, named):
    rng = np.random.default_rng(seed)
    rows = _perturbed_unitaries(rng, n, [1e-14, 1e-12, 1e-11, 1e-9, 1e-7])
    reference = _unitarity_gap(rows).max(axis=(-2, -1))
    names = tuple(f"factor {i}" for i in range(n)) if named else None
    if np.all(reference <= 1e-10):
        _require_unitary(rows, names=names)
        return
    first = int(np.argmax(reference > 1e-10))
    field = names[first] if named else f"matrix in row {first}"
    with pytest.raises(NonUnitaryError, match=f"^{field} is not unitary within 1e-10$"):
        _require_unitary(rows, names=names)


@pytest.mark.parametrize(
    "m", [[[0, 1], [1, 0]], np.eye(2, dtype=int), np.eye(2, dtype=np.float32), np.eye(4, dtype=np.complex64)]
)
def test_is_unitary_takes_integer_and_single_precision_matrices(m):
    assert is_unitary(m)


def test_so4_to_local_identity():
    pair = so4_to_local(np.eye(4))
    assert np.allclose(pair.matrix(), np.eye(4), atol=1e-12)


@pytest.mark.parametrize(
    "o",
    [
        np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float),
        np.diag([1.0, 1.0, -1.0, -1.0]),
    ],
)
def test_so4_to_local_reassembles(o):
    pair = so4_to_local(o)
    assert np.max(np.abs(pair.matrix() - from_magic(o))) <= 1e-8


def test_so4_to_local_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        o = random_proper_orthogonal(4, rng)
        pair = so4_to_local(o)
        assert np.max(np.abs(pair.matrix() - from_magic(o))) <= 1e-8


def test_so4_to_local_rejects_improper():
    with pytest.raises(ImproperRotationError):
        so4_to_local(np.diag([1.0, 1.0, 1.0, -1.0]))


def test_drift_exponential_zero_time():
    lam = np.array([0.3, 0.2, -0.1, -0.4])
    assert np.allclose(drift_exponential(lam, 0.0), np.eye(4), atol=1e-14)


def test_drift_exponential_is_unitary_and_additive():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.normal(size=3)
        lam = np.array([a[0] + a[1] - a[2], a[0] - a[1] + a[2], -a[0] + a[1] + a[2], -a[0] - a[1] - a[2]])
        s, t = rng.uniform(0, 2, size=2)
        whole = drift_exponential(lam, s + t)
        split = drift_exponential(lam, s) @ drift_exponential(lam, t)
        assert np.max(np.abs(whole - split)) <= 1e-10
        assert is_unitary(whole, 1e-10)


def test_drift_exponential_rejects_negative_time():
    with pytest.raises(NegativeDurationError):
        drift_exponential(np.zeros(4), -0.1)


def test_local_pair_matrix_and_dagger():
    rng = np.random.default_rng(23)
    pair = LocalUnitaryPair(random_su2(rng), random_su2(rng), np.exp(0.7j))
    m = pair.matrix()
    assert np.max(np.abs(m - pair.phase * np.kron(pair.u_a, pair.u_b))) <= 1e-15
    assert np.allclose(pair.dagger().matrix(), m.conj().T, atol=1e-12)
    pair.validate()
