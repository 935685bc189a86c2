import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    content_gate,
    dressed_gates,
    haar_gates,
    invariant_gap,
    random_canonical_alpha,
    random_local_pair,
    random_special_unitary,
    random_su2,
    random_unitary,
    reference_content_from_phases,
)
from gateforge import gates
from gateforge.canonical import (
    QUARTER_PI,
    _content_from_phases,
    alpha_hamiltonian,
    alpha_to_lambda,
    canonical_reduce,
    coupling_hamiltonian,
    hamiltonian_canonical,
    interaction_content,
    is_canonical,
    is_s_ordered,
    kak_decompose,
    lambda_to_alpha,
    rotation_of_su2,
    s_order,
)
from gateforge.errors import BranchResolutionError, NonUnitaryError, NotTracelessError, ValidationError
from gateforge.linalg import drift_exponential, joint_diagonalize_symmetric_unitary, special_normalize, to_magic


def gate_of_alpha(a):
    return drift_exponential(alpha_to_lambda(a), 1.0)


# ---------------------------------------------------------------------------
# alpha <-> lambda
# ---------------------------------------------------------------------------

def test_alpha_to_lambda_zero():
    assert np.allclose(alpha_to_lambda(np.zeros(3)), np.zeros(4))


def test_alpha_to_lambda_cnot_values():
    lam = alpha_to_lambda(QUARTER_PI * np.array([1, 0, 0]))
    assert np.allclose(lam, QUARTER_PI * np.array([1, 1, -1, -1]), atol=1e-15)


def test_alpha_to_lambda_exchange_values():
    lam = alpha_to_lambda(QUARTER_PI * np.array([1, 1, 1]))
    assert np.allclose(lam, QUARTER_PI * np.array([1, 1, 1, -3]), atol=1e-15)


def test_lambda_alpha_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.normal(size=3)
        lam = alpha_to_lambda(a)
        assert abs(lam.sum()) <= 1e-12
        assert np.max(np.abs(lambda_to_alpha(lam) - a)) <= 1e-12


def test_lambda_to_alpha_rejects_traceful():
    with pytest.raises(NotTracelessError):
        lambda_to_alpha(np.array([1.0, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# s_order / canonical_reduce
# ---------------------------------------------------------------------------

def test_s_order_positive_entries():
    out, _ = s_order(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [3.0, 2.0, 1.0])


def test_s_order_zero_product():
    out, _ = s_order(np.array([-QUARTER_PI, QUARTER_PI, 0.0]))
    assert np.allclose(out, [QUARTER_PI, QUARTER_PI, 0.0])


def test_s_order_negative_product():
    out, _ = s_order(np.array([0.1, -0.5, 0.2]))
    assert np.allclose(out, [0.5, 0.2, -0.1])


def test_s_order_record_inverts():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = rng.normal(size=3)
        if rng.random() < 0.3:
            a[rng.integers(3)] = 0.0
        out, move = s_order(a)
        assert is_s_ordered(out)
        assert np.allclose(move.apply(a), out, atol=1e-15)
        assert np.allclose(move.invert(out), a, atol=1e-15)
        assert move.signs[0] * move.signs[1] * move.signs[2] == 1


def test_canonical_reduce_fixed_point():
    a = QUARTER_PI * np.array([1.0, 1.0, 1.0])
    assert np.allclose(canonical_reduce(a), a)


@pytest.mark.parametrize(
    "raw",
    [
        QUARTER_PI * np.array([3.0, 0.0, 0.0]),
        np.array([np.pi / 2 + 0.1, 0.0, 0.0]),
        np.array([0.3, -1.9, 0.77]),
        QUARTER_PI * np.array([1.0, 1.0, -1.0]),
    ],
)
def test_canonical_reduce_preserves_gate_content(raw):
    reduced = canonical_reduce(raw)
    assert is_canonical(reduced)
    # Oracle: the assembled gates of input and output have equal content.
    got = interaction_content(gate_of_alpha(raw))
    assert np.max(np.abs(got - interaction_content(gate_of_alpha(reduced)))) <= 1e-8
    assert np.max(np.abs(got - reduced)) <= 1e-8


def test_canonical_reduce_examples():
    assert np.allclose(canonical_reduce(QUARTER_PI * np.array([3, 0, 0])), QUARTER_PI * np.array([1, 0, 0]), atol=1e-12)
    assert np.allclose(canonical_reduce(np.array([np.pi / 2 + 0.1, 0, 0])), np.array([0.1, 0, 0]), atol=1e-12)


# ---------------------------------------------------------------------------
# interaction_content
# ---------------------------------------------------------------------------

def test_content_of_named_gates():
    assert np.allclose(interaction_content(gates.CNOT), QUARTER_PI * np.array([1, 0, 0]), atol=1e-10)
    assert np.allclose(interaction_content(gates.DCNOT), QUARTER_PI * np.array([1, 1, 0]), atol=1e-9)
    assert np.allclose(interaction_content(gates.SWAP), QUARTER_PI * np.array([1, 1, 1]), atol=1e-9)


def test_content_next_to_a1_pi_over_8():
    # sqrt(CNOT) with a 1e-7 error: eigenphase pairs +-pi/4 +- 2(a2 +- a3),
    # each inside one Re(m) cluster.
    rng = np.random.default_rng(16)
    for a in ([np.pi / 8, 1e-7, 0.0], [np.pi / 8, 5e-8, 5e-8], [np.pi / 8, 1e-7, -3e-8]):
        for _ in range(30):
            left, right = random_local_pair(rng).matrix(), random_local_pair(rng).matrix()
            got = interaction_content(left @ gate_of_alpha(np.array(a)) @ right)
            assert np.max(np.abs(got - a)) <= 1e-9


def test_content_of_product_gates_vanishes():
    rng = np.random.default_rng(4)
    for _ in range(50):
        g = np.exp(2j * np.pi * rng.random()) * np.kron(random_unitary(2, rng), random_unitary(2, rng))
        assert np.max(np.abs(interaction_content(g))) <= 1e-9


def test_content_local_invariance():
    rng = np.random.default_rng(6)
    for _ in range(200):
        g = random_unitary(4, rng)
        left = random_local_pair(rng).matrix()
        right = random_local_pair(rng).matrix()
        base = interaction_content(g)
        dressed = interaction_content(left @ g @ right)
        assert np.max(np.abs(base - dressed)) <= 1e-8


def test_content_inverts_drift_on_canonical_region():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = random_canonical_alpha(rng)
        got = interaction_content(gate_of_alpha(a))
        assert np.max(np.abs(got - a)) <= 1e-8


def test_content_of_landmark_drifts():
    # Chamber-boundary landmarks, excluded from the random sampler above.
    for vec in ([1, 0, 0], [1, 1, 0], [1, 1, 1]):
        a = QUARTER_PI * np.array(vec, dtype=float)
        got = interaction_content(gate_of_alpha(a))
        assert np.max(np.abs(got - a)) <= 1e-9


def test_content_rejects_nonunitary():
    with pytest.raises(NonUnitaryError):
        interaction_content(np.ones((4, 4)))


@settings(max_examples=150, deadline=None)
@given(st.lists(dressed_gates(), min_size=1, max_size=6))
def test_stacked_content_equals_row_by_row(gs):
    stack = np.array(gs)
    rows = np.array([interaction_content(g) for g in gs])
    assert np.array_equal(interaction_content(stack), rows)
    # canon --full reads the content off the decomposition, without a
    # second diagonalization.
    assert np.array_equal(np.array([kak_decompose(g).alpha for g in gs]), rows)


def test_stacked_content_names_nonunitary_row():
    rng = np.random.default_rng(12)
    stack = np.array([random_unitary(4, rng) for _ in range(5)])
    stack[3] = np.ones((4, 4))
    with pytest.raises(NonUnitaryError, match="row 3"):
        interaction_content(stack)


def kak_fields(kak):
    """Every array of a decomposition, as bytes: alpha, both pairs' factors
    and phases, and the global phase."""
    pairs = (kak.post_local, kak.pre_local)
    values = [kak.alpha, *(np.asarray(x) for pair in pairs for x in (pair.u_a, pair.u_b, pair.phase))]
    return [np.asarray(x).tobytes() for x in (*values, kak.global_phase)]


@settings(max_examples=60, deadline=None)
@given(st.lists(haar_gates() | dressed_gates(), min_size=1, max_size=12))
def test_stacked_kak_equals_row_by_row(gs):
    stacked = kak_decompose(np.array(gs))
    assert isinstance(stacked, tuple) and len(stacked) == len(gs)
    for g, row in zip(gs, stacked):
        assert kak_fields(row) == kak_fields(kak_decompose(g))


def test_stacked_kak_names_its_failing_row():
    rng = np.random.default_rng(15)
    stack = np.array([random_unitary(4, rng) for _ in range(4)])
    stack[2] = np.ones((4, 4))
    with pytest.raises(NonUnitaryError, match="in row 2"):
        kak_decompose(stack)
    with pytest.raises(NonUnitaryError) as alone:
        kak_decompose(stack[2])
    assert "row" not in str(alone.value)


def magic_phases(g):
    """Eigenphases of ``g^T g`` in the magic basis, for a gate or a stack."""
    m = to_magic(special_normalize(g)[0])
    return joint_diagonalize_symmetric_unitary(m.swapaxes(-1, -2) @ m)[1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(haar_gates(), dressed_gates()), min_size=1, max_size=6))
def test_content_core_matches_the_branch_enumeration_oracle(gs):
    # Haar gates, every chamber wall, weak contents from 1e-12 to pi/4,
    # landmarks and protocol prefixes, as one stack.  Where the oracle's
    # 12-decimal keys split roundoff-equal contents (about 7 rows in 10,000)
    # it takes another branch, whose eigenvalues (up to 3.5 pi in modulus)
    # round differently: two of their ulps bound the gap, 1.3e-15 at most
    # seen on 1.2 million Haar rows.
    theta = magic_phases(np.array(gs))
    contents, lams = _content_from_phases(theta)
    for g, row, content, lam, (want, _) in zip(gs, theta, contents, lams, reference_content_from_phases(theta)):
        assert np.max(np.abs(content - want)) <= 2 * np.spacing(3.5 * np.pi)
        assert abs(lam.sum()) <= 1e-12
        # lam is a branch of -theta/2: every component off by a multiple of pi.
        offsets = (lam + row / 2) / np.pi
        assert np.max(np.abs(offsets - offsets.round())) <= 1e-6
        kak = kak_decompose(g)
        assert np.array_equal(kak.alpha, content)
        assert np.max(np.abs(kak.matrix() - g)) <= 1e-8


def test_content_core_gives_exact_zeros_on_landmarks_and_products():
    # The pi offset of the branch rounds noise-level components to exact
    # zeros, which the s-ordering's sign rule and move parity rely on.
    rng = np.random.default_rng(4)
    cases = [(gates.CNOT, [1, 0, 0]), (gates.DCNOT, [1, 1, 0]), (gates.SWAP, [1, 1, 1]), (gates.IDENTITY, [0, 0, 0])]
    for _ in range(200):
        product = np.exp(2j * np.pi * rng.random()) * np.kron(random_unitary(2, rng), random_unitary(2, rng))
        cases.append((product, [0, 0, 0]))
    for g, landmark in cases:
        theta = magic_phases(g)
        content, _ = _content_from_phases(theta)
        assert np.array_equal(content, reference_content_from_phases(theta)[0])
        assert np.array_equal(content, QUARTER_PI * np.array(landmark, dtype=float))
        assert np.array_equal(interaction_content(g), content)


def test_content_core_names_the_row_without_a_periodic_branch():
    rng = np.random.default_rng(21)
    theta = magic_phases(np.array([random_unitary(4, rng) for _ in range(5)]))
    near = theta.copy()
    near[2, 0] += 2e-7  # sum(-theta/2) misses a multiple of pi by 1e-7
    _content_from_phases(near)
    theta[2, 0] += 1e-5  # ... by 5e-6
    assert reference_content_from_phases(theta)[2] is None
    with pytest.raises(BranchResolutionError, match="2pi-periodic sum in row 2$"):
        _content_from_phases(theta)
    with pytest.raises(BranchResolutionError, match="2pi-periodic sum$"):
        _content_from_phases(theta[2])


# ---------------------------------------------------------------------------
# kak_decompose
# ---------------------------------------------------------------------------

def test_kak_identity():
    kak = kak_decompose(np.eye(4, dtype=complex))
    assert np.allclose(kak.alpha, 0)
    assert np.max(np.abs(kak.matrix() - np.eye(4))) <= 1e-10
    assert abs(kak.global_phase - 1) <= 1e-10


def test_kak_cnot():
    kak = kak_decompose(gates.CNOT)
    assert np.allclose(kak.alpha, QUARTER_PI * np.array([1, 0, 0]), atol=1e-9)
    assert np.max(np.abs(kak.matrix() - gates.CNOT)) <= 1e-8


def test_kak_random_reassembly():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        g = random_unitary(4, rng)
        kak = kak_decompose(g)
        worst = max(worst, float(np.max(np.abs(kak.matrix() - g))))
        assert is_canonical(kak.alpha)
    assert worst <= 1e-8


def test_kak_matches_content():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g = random_special_unitary(4, rng)
        assert np.max(np.abs(kak_decompose(g).alpha - interaction_content(g))) <= 1e-9


def test_kak_content_has_the_invariants_of_haar_gates():
    rng = np.random.default_rng(13)
    for _ in range(300):
        g = random_unitary(4, rng)
        assert invariant_gap(content_gate(kak_decompose(g).alpha), g) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(dressed_gates())
def test_kak_content_has_the_invariants_of_dressed_gates(g):
    # Contents of 1e-12 .. pi/4 on every chamber wall, and protocol prefixes.
    assert invariant_gap(content_gate(kak_decompose(g).alpha), g) <= 1e-12


# ---------------------------------------------------------------------------
# hamiltonian_canonical
# ---------------------------------------------------------------------------

def test_hamiltonian_canonical_ising():
    alpha, pair = hamiltonian_canonical(np.diag([1.0, 0.0, 0.0]))
    assert np.allclose(alpha, [1.0, 0.0, 0.0], atol=1e-12)
    h = coupling_hamiltonian(np.diag([1.0, 0.0, 0.0]))
    conj = pair.matrix() @ h @ pair.matrix().conj().T
    assert np.max(np.abs(conj - alpha_hamiltonian(alpha))) <= 1e-8


def test_hamiltonian_canonical_exchange():
    alpha, _ = hamiltonian_canonical(np.eye(3))
    assert np.allclose(alpha, [1.0, 1.0, 1.0], atol=1e-12)


def test_hamiltonian_canonical_random_conjugation():
    rng = np.random.default_rng(10)
    for _ in range(200):
        c = rng.normal(size=(3, 3))
        alpha, pair = hamiltonian_canonical(c)
        assert is_s_ordered(alpha)
        sv = np.linalg.svd(c, compute_uv=False)
        assert np.allclose(np.sort(np.abs(alpha)), np.sort(sv), atol=1e-10)
        conj = pair.matrix() @ coupling_hamiltonian(c) @ pair.matrix().conj().T
        assert np.max(np.abs(conj - alpha_hamiltonian(alpha))) <= 1e-8


def test_su2_rotation_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        u = random_su2(rng)
        r = rotation_of_su2(u)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "c",
    [np.full((3, 3), np.nan), np.diag([np.inf, 1.0, 0.0]), np.eye(2), np.ones(3)],
    ids=["nan", "inf", "2x2", "vector"],
)
def test_hamiltonian_canonical_rejects_non_finite_or_misshapen_couplings(c):
    with pytest.raises(ValidationError, match="not a finite 3x3 real matrix"):
        hamiltonian_canonical(c)
