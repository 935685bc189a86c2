import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _scan_feasible,
    dressed_gates,
    invariant_gap,
    random_local_pair,
    random_s_ordered_alpha,
    random_su2,
    random_unitary,
    reference_simulate,
    weak_wall_targets,
)
from gateforge import gates
from gateforge.canonical import (
    QUARTER_PI,
    alpha_hamiltonian,
    alpha_to_lambda,
    coupling_hamiltonian,
    hamiltonian_canonical,
    interaction_content,
    kak_decompose,
)
from gateforge.cost import interaction_cost
from gateforge.errors import BranchResolutionError, InfeasibleError, NegativeDurationError, NonUnitaryError, ValidationError
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
    assert invariant_gap(simulate(synthesize(g, alpha)), g) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(weak_wall_targets())
def test_synthesize_weak_contents_on_the_walls(case):
    # At content (pi/8, 1e-10, -7e-11) under the Ising drift a certificate
    # searched with a residual of 1e-9 of max|lam * t| took one term and
    # dropped the two small components; a segment below a drift-phase floor
    # of 1e-12 was dropped too, which cut the protocol short of its cost.
    # A time below the normal range is a multiple of the least subnormal, so
    # each duration may round by up to one such unit.
    g, alpha = case
    p = synthesize(g, alpha)
    assert invariant_gap(simulate(p), g) <= 1e-12
    assert len(p.segments) <= 3
    cost = interaction_cost(interaction_content(g), alpha).cost
    assert p.total_time == pytest.approx(cost, rel=1e-12, abs=len(p.segments) * math.ulp(0.0))


def test_synthesize_self_check_report_is_verify_report():
    rng = np.random.default_rng(10)
    for _ in range(5):
        g = random_unitary(4, rng)
        p, report = _synthesize(g, random_s_ordered_alpha(rng))
        assert report == verify(p, g, 1e-7)


def test_synthesize_takes_a_precomputed_decomposition():
    # The CLI hands over each target's decomposition from one stacked call:
    # the result is the one synthesize computes itself, and a stored failure
    # is raised where the target would be decomposed, after the drift checks.
    alpha = np.array([1.0, 0.6, -0.3])
    (given, given_report), (own, own_report) = (
        _synthesize(gates.CNOT, alpha, kak) for kak in (kak_decompose(gates.CNOT), None)
    )
    assert given_report == own_report
    assert simulate(given).tobytes() == simulate(own).tobytes()
    failure = BranchResolutionError("reassembly residual 1 exceeds 1e-08")
    with pytest.raises(ValidationError, match="is not s-ordered"):
        _synthesize(gates.CNOT, np.array([0.0, 1.0, 0.0]), failure)
    with pytest.raises(BranchResolutionError, match="reassembly residual"):
        _synthesize(gates.CNOT, alpha, failure)


def test_synthesize_requires_s_ordered_alpha():
    with pytest.raises(ValidationError, match=r"drift \[0.0, 1.0, 0.0\] is not s-ordered"):
        synthesize(gates.CNOT, np.array([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("alpha", [[np.inf, 0, 0], [np.nan, 0, 0], [1, 0.5, -np.inf]])
def test_synthesize_rejects_a_non_finite_drift(alpha):
    # These used to raise a bare "must be s-ordered" ValueError, inf also
    # with a RuntimeWarning from the s-order check.
    with pytest.raises(ValidationError, match=r"drift \[.*\] is not finite"):
        synthesize(gates.CNOT, np.array(alpha, dtype=float))


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


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_simulate_matches_the_segment_by_segment_product(scale):
    rng = np.random.default_rng(41)

    def pair():
        return LocalUnitaryPair(random_su2(rng), random_su2(rng), np.exp(2j * np.pi * rng.random()))

    for n in range(11):
        for _ in range(4):
            segments = tuple(
                Segment(pair(), 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0))) for _ in range(n)
            )
            p = Protocol(pair(), segments, pair(), random_s_ordered_alpha(rng) * scale,
                         np.exp(2j * np.pi * rng.random()))
            assert np.max(np.abs(simulate(p) - reference_simulate(p))) <= 1e-13


def test_simulate_and_verify_reject_negative_duration():
    identity = LocalUnitaryPair.identity()
    p = Protocol(identity, (Segment(identity, 0.5), Segment(identity, -0.1)), identity, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NegativeDurationError, match="-0.1"):
        simulate(p)
    with pytest.raises(NegativeDurationError, match="-0.1"):
        verify(p, np.eye(4))


def test_trajectory_check_rejects_negative_duration():
    p = Protocol(LocalUnitaryPair.identity(), (Segment(LocalUnitaryPair.identity(), -0.1),),
                 LocalUnitaryPair.identity(), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NegativeDurationError):
        trajectory_check(p)


def _cnot_protocol():
    return synthesize(gates.CNOT, np.array([1.0, 0.6, -0.3]))


def _with_segment(p, i, **fields):
    segments = list(p.segments)
    segments[i] = replace(segments[i], **fields)
    return replace(p, segments=tuple(segments))


def _verify_cnot(p):
    return verify(p, gates.CNOT)


_CALLS = pytest.mark.parametrize("call", [simulate, _verify_cnot, trajectory_check], ids=["simulate", "verify", "trajectory_check"])


@_CALLS
@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda p: _with_segment(p, 1, duration=float("nan")), "segment 1 duration nan is not finite"),
        (lambda p: _with_segment(p, 0, duration=float("inf")), "segment 0 duration inf is not finite"),
        (lambda p: _with_segment(p, 1, duration=-float("inf")), "segment 1 duration -inf is not finite"),
        (lambda p: replace(p, hamiltonian_alpha=np.array([np.inf, 0.0, 0.0])), r"drift \[inf, 0.0, 0.0\] is not finite"),
        (lambda p: replace(p, hamiltonian_alpha=np.array([1.0, np.nan, 0.0])), r"drift \[1.0, nan, 0.0\] is not finite"),
        (lambda p: replace(_with_segment(p, 0, duration=1e10), hamiltonian_alpha=np.array([1e300, 0.0, 0.0])),
         "total drift phase of the protocol overflows"),
        (lambda p: _with_segment(p, 1, duration=-0.1), "segment 1 duration -0.1 is negative"),
    ],
    ids=["nan-duration", "inf-duration", "minus-inf-duration", "inf-drift", "nan-drift", "phase-overflow",
         "negative-duration"],
)
def test_non_finite_durations_and_drifts_are_named(call, edit, match):
    with pytest.raises(ValidationError, match=match):
        call(edit(_cnot_protocol()))


@_CALLS
@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda p: replace(p, opening=LocalUnitaryPair(np.eye(2), 2 * np.eye(2))), "opening u_b is not unitary within 1e-10"),
        (lambda p: _with_segment(p, 1, local=LocalUnitaryPair(np.eye(2) * (1 + 1e-9), np.eye(2))),
         "segment 1 u_a is not unitary within 1e-10"),
        (lambda p: replace(p, closing=LocalUnitaryPair(np.full((2, 2), np.nan), np.eye(2))), "closing u_a is not unitary"),
        (lambda p: _with_segment(p, 0, local=LocalUnitaryPair(np.eye(2), np.eye(2), 1.001)),
         "segment 0 phase is not unit modulus within 1e-12"),
        (lambda p: replace(p, opening=replace(p.opening, phase=complex("nan"))), "opening phase is not unit modulus"),
    ],
    ids=["opening-u_b", "segment-u_a", "closing-nan", "segment-phase", "opening-nan-phase"],
)
def test_non_unitary_protocol_fields_are_named(call, edit, match):
    with pytest.raises(NonUnitaryError, match=match):
        call(edit(_cnot_protocol()))


@pytest.mark.parametrize("phase", [1.5, 0.0, complex("nan")])
def test_non_unit_global_phase_is_named_where_it_is_used(phase):
    p = replace(_cnot_protocol(), global_phase=phase)
    for call in (simulate, _verify_cnot):
        with pytest.raises(NonUnitaryError, match="global_phase is not unit modulus within 1e-12"):
            call(p)
    # The prefixes' contents do not depend on the global phase.
    assert trajectory_check(p)


def test_protocol_fields_inside_their_tiers_are_admitted():
    p = _cnot_protocol()
    p = _with_segment(p, 1, local=LocalUnitaryPair(np.eye(2) * (1 + 2e-11), np.eye(2), np.exp(1j) * (1 + 5e-13)))
    assert verify(p, simulate(p)).passed
    assert trajectory_check(p)


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


def test_synthesize_weak_targets_take_their_whole_cost():
    # Contents of 1e-14 .. 1e-10: every certificate term is a segment, however
    # short, so the protocol lasts exactly the cost.  A floor of 1e-12 on the
    # drift phase dropped segments and cut such protocols short.
    rng = np.random.default_rng(25)
    for size in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10):
        for _ in range(8):
            alpha = random_s_ordered_alpha(rng)
            a = np.sort(rng.uniform(0.0, 1.0, size=3))[::-1] * size
            a[2] *= rng.choice([-1.0, 1.0])
            target = random_local_pair(rng).matrix() @ drift_exponential(alpha_to_lambda(a), 1.0) @ random_local_pair(rng).matrix()
            p = synthesize(target, alpha)
            assert verify(p, target).passed
            assert p.total_time == pytest.approx(interaction_cost(interaction_content(target), alpha).cost, rel=1e-12, abs=0.0)


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
    # Durations scale as the inverse of the drift: at drift scales of 1e12
    # and above the whole optimal time lies below 1e-12, and no segment is
    # dropped for being short.
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
