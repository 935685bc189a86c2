import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _scan_feasible,
    dressed_gates,
    invariant_gap,
    random_local_pair,
    random_s_ordered_alpha,
    random_unitary,
)
from gateforge import gates
from gateforge.canonical import (
    QUARTER_PI,
    alpha_hamiltonian,
    alpha_to_lambda,
    coupling_hamiltonian,
    hamiltonian_canonical,
    interaction_content,
)
from gateforge.cost import interaction_cost
from gateforge.errors import InfeasibleError, NegativeDurationError
from gateforge.linalg import LocalUnitaryPair, drift_exponential, is_unitary
from gateforge.protocol import (
    Protocol,
    _synthesize,
    Segment,
    phase_free_distance,
    simulate,
    synthesize,
    trajectory_check,
    verify,
)


def empty_protocol(alpha=None):
    return Protocol(
        opening=LocalUnitaryPair.identity(),
        segments=(),
        closing=LocalUnitaryPair.identity(),
        hamiltonian_alpha=np.array([1.0, 0.0, 0.0]) if alpha is None else alpha,
    )


def random_protocol(rng, max_segments=10, alpha=None):
    alpha = random_s_ordered_alpha(rng) if alpha is None else alpha
    n = rng.integers(1, max_segments + 1)
    segments = tuple(
        Segment(local=random_local_pair(rng), duration=rng.uniform(0.0, 1.0))
        for _ in range(n)
    )
    return Protocol(
        opening=random_local_pair(rng),
        segments=segments,
        closing=random_local_pair(rng),
        hamiltonian_alpha=alpha,
        global_phase=np.exp(2j * np.pi * rng.random()),
    )


def test_simulate_empty_is_identity():
    assert np.allclose(simulate(empty_protocol()), np.eye(4), atol=1e-14)


def test_simulate_single_segment_is_locally_cnot_equivalent():
    alpha = QUARTER_PI * np.array([1.0, 0.0, 0.0])
    p = Protocol(
        opening=LocalUnitaryPair.identity(),
        segments=(Segment(LocalUnitaryPair.identity(), 1.0),),
        closing=LocalUnitaryPair.identity(),
        hamiltonian_alpha=alpha,
    )
    got = interaction_content(simulate(p))
    assert np.allclose(got, QUARTER_PI * np.array([1, 0, 0]), atol=1e-9)


def test_simulate_output_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert is_unitary(simulate(random_protocol(rng)), 1e-9)


def test_synthesize_identity_target():
    p = synthesize(np.eye(4, dtype=complex), np.array([1.0, 0.5, 0.2]))
    assert p.total_time == 0.0
    assert len(p.segments) == 0
    assert verify(p, np.eye(4)).passed


def test_synthesize_cnot_from_ising():
    p = synthesize(gates.CNOT, np.array([1.0, 0.0, 0.0]))
    assert p.total_time == pytest.approx(QUARTER_PI, abs=1e-10)
    assert len(p.segments) <= 3
    assert verify(p, gates.CNOT, 1e-7).passed


def test_synthesize_swap_from_exchange():
    p = synthesize(gates.SWAP, np.array([1.0, 1.0, 1.0]))
    assert p.total_time == pytest.approx(QUARTER_PI, abs=1e-10)
    assert len(p.segments) <= 3
    assert verify(p, gates.SWAP, 1e-7).passed


@pytest.mark.parametrize(
    "gate,alpha,expected_time",
    [
        ("SWAP", (1.0, 0.0, 0.0), 3 * QUARTER_PI),
        ("DCNOT", (1.0, 0.0, 0.0), np.pi / 2),
        ("SWAP", (1.0, 0.8, -0.5), 3 * QUARTER_PI / 2.3),
    ],
)
def test_synthesize_from_degenerate_drifts(gate, alpha, expected_time):
    # Rank-deficient and sign-mixed drifts have repeated eigenvalue entries,
    # stressing certificate selection among tied permutations.
    target = getattr(gates, gate)
    p = synthesize(target, np.array(alpha))
    assert p.total_time == pytest.approx(expected_time, abs=1e-10)
    assert len(p.segments) <= 3
    assert verify(p, target, 1e-7).passed


def test_synthesize_round_trip_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g = random_unitary(4, rng)
        alpha = random_s_ordered_alpha(rng)
        p = synthesize(g, alpha)
        report = verify(p, g, 1e-7)
        assert report.passed
        assert len(p.segments) <= 3
        expected = interaction_cost(interaction_content(g), alpha).cost
        assert abs(p.total_time - expected) <= 1e-10


def test_synthesized_protocol_has_the_invariants_of_haar_gates():
    rng = np.random.default_rng(14)
    for _ in range(100):
        g = random_unitary(4, rng)
        assert invariant_gap(simulate(synthesize(g, random_s_ordered_alpha(rng))), g) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(dressed_gates(), st.sampled_from(["random", "ising", "xy", "heisenberg"]), st.integers(0, 2**32 - 1))
def test_synthesized_protocol_has_the_invariants_of_dressed_gates(g, drift, seed):
    rng = np.random.default_rng(seed)
    alpha = {"ising": [1.0, 0.0, 0.0], "xy": [1.0, 1.0, 0.0], "heisenberg": [1.0, 1.0, 1.0]}.get(drift)
    alpha = random_s_ordered_alpha(rng) if alpha is None else np.array(alpha)
    # The Birkhoff certificate accepts a residual of 1e-9 of max|lam * t|: at
    # content (pi/8, 1e-10, -7e-11) under the Ising drift a one-term
    # certificate drops the two small components, a gap of 7e-10.
    assert invariant_gap(simulate(synthesize(g, alpha)), g) <= 1e-8


def test_synthesize_self_check_report_is_verify_report():
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = random_unitary(4, rng)
        p, report = _synthesize(g, random_s_ordered_alpha(rng))
        assert report == verify(p, g, 1e-7)


def test_synthesize_requires_s_ordered_alpha():
    with pytest.raises(ValueError):
        synthesize(gates.CNOT, np.array([0.0, 1.0, 0.0]))


def test_synthesize_infeasible_for_local_drift():
    with pytest.raises(InfeasibleError):
        synthesize(gates.CNOT, np.zeros(3))


def test_verify_empty_against_identity():
    report = verify(empty_protocol(), np.eye(4), 1e-8)
    assert report.passed
    assert report.total_time == 0.0


def test_verify_cnot_protocol_against_swap_fails():
    p = synthesize(gates.CNOT, np.array([1.0, 0.0, 0.0]))
    report = verify(p, gates.SWAP, 1e-7)
    assert not report.passed
    # Contents differ in two components by pi/4.
    assert report.content_error == pytest.approx(QUARTER_PI * np.sqrt(2), abs=1e-6)


def test_phase_free_distance_ignores_global_phase():
    rng = np.random.default_rng(2)
    g = random_unitary(4, rng)
    assert phase_free_distance(g, np.exp(0.37j) * g) <= 1e-12


def test_trajectory_check_empty():
    assert trajectory_check(empty_protocol())


def test_trajectory_check_synthesized_optimal():
    for target, alpha in [
        (gates.CNOT, np.array([1.0, 0.0, 0.0])),
        (gates.SWAP, np.array([1.0, 1.0, 1.0])),
        (gates.DCNOT, np.array([1.0, 1.0, -0.3])),
    ]:
        p = synthesize(target, alpha)
        assert trajectory_check(p)


def test_trajectory_check_random_protocols():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert trajectory_check(random_protocol(rng, max_segments=6))


def _reference_trajectory_check(p, samples_per_segment=4, atol=1e-7):
    """Prefix by prefix, as a loop: each prefix's content on its own, tested
    by the {-2..2}^3 shift-scan oracle at the elapsed time."""
    lam = alpha_to_lambda(p.hamiltonian_alpha)
    u = p.opening.matrix()
    elapsed = 0.0
    fractions = [(k + 1) / (samples_per_segment + 1) for k in range(samples_per_segment)]
    for seg in p.segments:
        u = seg.local.matrix() @ u
        for f in fractions + [1.0]:
            gamma = interaction_content(drift_exponential(lam, f * seg.duration) @ u)
            if not _scan_feasible(gamma, p.hamiltonian_alpha, elapsed + f * seg.duration, atol):
                return False
        u = drift_exponential(lam, seg.duration) @ u
        elapsed += seg.duration
    return True


@pytest.mark.parametrize(
    "drift",
    [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 0.5, -0.2), None],
    ids=["ising", "xy", "heisenberg", "negative_heisenberg", "anisotropic", "random"],
)
def test_trajectory_check_matches_scan_reference(drift):
    # atol -1e-3 pushes every prefix on the reachability boundary (the first
    # one always is) out of reach, so the False path is covered as well.
    rng = np.random.default_rng(8)
    seen = set()
    for k in range(12):
        alpha = random_s_ordered_alpha(rng) if drift is None else np.array(drift)
        p = random_protocol(rng, max_segments=6, alpha=alpha)
        if k % 3 == 0:
            durations = [0.0 if rng.random() < 0.5 else seg.duration for seg in p.segments]
            p = Protocol(p.opening, tuple(Segment(seg.local, d) for seg, d in zip(p.segments, durations)),
                         p.closing, alpha, p.global_phase)
        samples = int(rng.integers(0, 5))
        for atol in (1e-7, -1e-3):
            got = trajectory_check(p, samples, atol)
            assert got == _reference_trajectory_check(p, samples, atol)
            seen.add(got)
    assert seen == {True, False}
    empty = empty_protocol(np.array(drift if drift is not None else (1.0, 0.5, 0.2)))
    assert trajectory_check(empty, atol=-1e-3) == _reference_trajectory_check(empty, atol=-1e-3) is True


def test_trajectory_check_rejects_negative_duration():
    p = Protocol(LocalUnitaryPair.identity(), (Segment(LocalUnitaryPair.identity(), -0.1),),
                 LocalUnitaryPair.identity(), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NegativeDurationError):
        trajectory_check(p)


def test_synthesize_weak_targets_across_decades():
    # Contents of 1e-8 .. 1e-5 under random drifts: the Birkhoff certificate
    # used absolute thresholds and raised NoTripleFoundError on most of them.
    rng = np.random.default_rng(9)
    for size in (1e-8, 1e-7, 1e-6, 1e-5):
        for _ in range(8):
            alpha = random_s_ordered_alpha(rng)
            a = np.sort(rng.uniform(0.0, 1.0, size=3))[::-1] * size
            a[2] *= rng.choice([-1.0, 1.0])
            target = random_local_pair(rng).matrix() @ drift_exponential(alpha_to_lambda(a), 1.0) @ random_local_pair(rng).matrix()
            p = synthesize(target, alpha)
            assert verify(p, target, 1e-7).passed
            assert abs(p.total_time - interaction_cost(interaction_content(target), alpha).cost) <= 1e-12


def test_coupling_conjugators_give_three_finite_steps():
    # Pure-interaction coupling: the synthesized protocol needs no
    # infinitesimal layer; conjugating each drift by the canonicalizer's
    # local pair reproduces the target from the physical coupling directly.
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = rng.normal(size=(3, 3))
        alpha, pair = hamiltonian_canonical(c)
        target = random_unitary(4, rng)
        p = synthesize(target, alpha)
        assert len(p.segments) <= 3

        h_c = coupling_hamiltonian(c)
        evals, evecs = np.linalg.eigh(h_c)
        k = pair.matrix()

        def drift_c(t):
            return evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T

        u = (k.conj().T @ p.opening.matrix()).copy()
        for seg in p.segments:
            u = drift_c(seg.duration) @ (k.conj().T @ seg.local.matrix() @ k) @ u
        u = p.global_phase * (p.closing.matrix() @ k @ u)
        assert phase_free_distance(u, target) <= 1e-7


def test_verify_reports_match_alpha_drift():
    # Sanity: e^{-i H_alpha t} = K e^{-i H_c t} K^dag for the conjugators.
    rng = np.random.default_rng(5)
    c = rng.normal(size=(3, 3))
    alpha, pair = hamiltonian_canonical(c)
    h_c = coupling_hamiltonian(c)
    evals, evecs = np.linalg.eigh(h_c)
    t = 0.37
    via_c = pair.matrix() @ evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T @ pair.matrix().conj().T
    direct = drift_exponential(alpha_to_lambda(alpha), t)
    assert np.max(np.abs(via_c - direct)) <= 1e-8
    assert np.max(np.abs(alpha_hamiltonian(alpha) - pair.matrix() @ h_c @ pair.matrix().conj().T)) <= 1e-8


def test_synthesize_does_not_depend_on_drift_scale():
    # The duration floor is a drift phase, not a time: at drift scales of 1e12
    # and above the whole optimal time lies below 1e-12.
    rng = np.random.default_rng(21)
    chamber = random_local_pair(rng).matrix() @ drift_exponential(
        alpha_to_lambda(np.array([0.6, 0.4, -0.2])), 1.0
    ) @ random_local_pair(rng).matrix()
    targets = [gates.named_gate(name) for name in ("CNOT", "DCNOT", "SWAP")] + [chamber]
    base = np.array([1.0, 0.6, -0.3])
    scales = [1e-6, 1.0, 1e6, 1e12, 1e100, 1e300]
    for target in targets:
        reference = synthesize(target, base)
        for scale in scales:
            p = synthesize(target, base * scale)
            assert verify(p, target, 1e-7).passed
            assert len(p.segments) == len(reference.segments)
            assert p.total_time * scale == pytest.approx(reference.total_time, rel=1e-12)
    c = rng.normal(size=(3, 3))
    alpha, _ = hamiltonian_canonical(c)
    alpha_big, _ = hamiltonian_canonical(c * 1e300)
    for target in targets:
        reference = synthesize(target, alpha)
        p = synthesize(target, alpha_big)
        assert verify(p, target, 1e-7).passed
        assert len(p.segments) == len(reference.segments)
        assert p.total_time * 1e300 == pytest.approx(reference.total_time, rel=1e-12)
