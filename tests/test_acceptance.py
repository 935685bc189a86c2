"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    _scan_feasible,
    random_canonical_alpha,
    random_local_pair,
    random_s_ordered_alpha,
    random_su2,
    random_unitary,
)
from gateforge import gates
from gateforge.canonical import (
    QUARTER_PI,
    alpha_to_lambda,
    canonical_reduce,
    interaction_content,
    s_order,
)
from gateforge.comm import CommTask, GateClass, capability_row, classify, family_gate, task_cost
from gateforge.cost import interaction_cost, named_gate_cost, partial_order, OrderVerdict
from gateforge.linalg import joint_diagonalize_symmetric_unitary, special_normalize, to_magic
from gateforge.majorization import majorizes, s_majorizes
from gateforge.protocol import Protocol, Segment, synthesize, trajectory_check, verify


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}")


def _multiset_gap(got, expected):
    """Largest pairing distance between two complex multisets (greedy match)."""
    got = list(got)
    worst = 0.0
    for target in expected:
        k = int(np.argmin([abs(g - target) for g in got]))
        worst = max(worst, abs(got.pop(k) - target))
    return worst


def test_criterion_01_cnot_canonicalization():
    with criterion(1, "CNOT content pi/4(1,0,0); magic-basis eigenvalues {i,i,-i,-i}"):
        beta = interaction_content(gates.CNOT)
        assert np.max(np.abs(beta - QUARTER_PI * np.array([1, 0, 0]))) <= 1e-10

        m = to_magic(special_normalize(gates.CNOT)[0])
        _, theta = joint_diagonalize_symmetric_unitary(m.T @ m)
        expected = [1j, 1j, -1j, -1j]
        assert _multiset_gap(np.exp(1j * theta), expected) <= 1e-10
        # Independent eigensolver cross-check.
        assert _multiset_gap(np.linalg.eigvals(m.T @ m), expected) <= 1e-10


def test_criterion_02_named_gate_contents():
    with criterion(2, "DCNOT/SWAP/controlled-U contents"):
        assert np.max(np.abs(interaction_content(gates.DCNOT) - QUARTER_PI * np.array([1, 1, 0]))) <= 1e-9
        assert np.max(np.abs(interaction_content(gates.SWAP) - QUARTER_PI * np.array([1, 1, 1]))) <= 1e-9
        rng = np.random.default_rng(20)
        for _ in range(25):
            b = rng.uniform(0.0, QUARTER_PI)
            got = interaction_content(gates.controlled_u(b))
            assert np.max(np.abs(got - np.array([b, 0, 0]))) <= 1e-9
            # General controlled-U whose 2x2 operation has eigenvalues
            # exp(+-2ib) in a random eigenbasis.
            v = random_su2(rng)
            u = v @ np.diag([np.exp(2j * b), np.exp(-2j * b)]) @ v.conj().T
            got = interaction_content(gates.controlled_gate(u))
            assert np.max(np.abs(got - np.array([b, 0, 0]))) <= 1e-9


def test_criterion_03_cost_formulas():
    with criterion(3, "closed-form costs on 100 random drifts; Ising/exchange reversal"):
        rng = np.random.default_rng(30)
        beta_cnot = interaction_content(gates.CNOT)
        beta_dcnot = interaction_content(gates.DCNOT)
        beta_swap = interaction_content(gates.SWAP)
        for _ in range(100):
            a = random_s_ordered_alpha(rng)
            a1, a2, a3 = a
            assert abs(interaction_cost(beta_cnot, a).cost - np.pi / (4 * a1)) <= 1e-10
            b = rng.uniform(0, QUARTER_PI)
            assert abs(interaction_cost(np.array([b, 0, 0]), a).cost - b / a1) <= 1e-10
            assert abs(
                interaction_cost(beta_dcnot, a).cost - (np.pi / 2) / (a1 + a2 - abs(a3))
            ) <= 1e-10
            assert abs(
                interaction_cost(beta_swap, a).cost - (3 * np.pi / 4) / (a1 + a2 + abs(a3))
            ) <= 1e-10

        ising = np.array([1.0, 0.0, 0.0])
        exchange = np.array([1.0, 1.0, 1.0])
        assert named_gate_cost("CNOT", ising) == pytest.approx(np.pi / 4, abs=1e-12)
        assert named_gate_cost("DCNOT", ising) == pytest.approx(np.pi / 2, abs=1e-12)
        assert named_gate_cost("SWAP", ising) == pytest.approx(3 * np.pi / 4, abs=1e-12)
        assert named_gate_cost("SWAP", exchange) == pytest.approx(np.pi / 4, abs=1e-12)
        assert named_gate_cost("DCNOT", exchange) == pytest.approx(np.pi / 2, abs=1e-12)
        assert named_gate_cost("SWAP", exchange) < named_gate_cost("DCNOT", exchange)


def test_criterion_04_cost_equals_scan_bisection():
    with criterion(4, "two-branch optimizer equals shift-scan bisection on 1000 instances"):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            beta = random_canonical_alpha(rng)
            alpha = random_s_ordered_alpha(rng)
            lo, hi = 0.0, 32.0
            assert _scan_feasible(beta, alpha, hi)
            for _ in range(55):
                mid = 0.5 * (lo + hi)
                if _scan_feasible(beta, alpha, mid):
                    hi = mid
                else:
                    lo = mid
            assert abs(interaction_cost(beta, alpha).cost - hi) <= 1e-8


def test_criterion_05_synthesis_round_trip():
    with criterion(5, "200 targets x 20 drifts: <=3 segments, optimal time, residual <= 1e-7"):
        rng = np.random.default_rng(50)
        drifts = [random_s_ordered_alpha(rng) for _ in range(20)]
        for _ in range(200):
            g = random_unitary(4, rng)
            beta = interaction_content(g)
            for alpha in drifts:
                p = synthesize(g, alpha)
                assert len(p.segments) <= 3
                assert abs(p.total_time - interaction_cost(beta, alpha).cost) <= 1e-10
                report = verify(p, g, 1e-7)
                assert report.passed


def test_criterion_06_necessity_on_random_protocols():
    with criterion(6, "100 random protocols pass the prefix-feasibility check"):
        rng = np.random.default_rng(60)
        for _ in range(100):
            alpha = random_s_ordered_alpha(rng)
            n = rng.integers(1, 11)
            segments = tuple(
                Segment(local=random_local_pair(rng), duration=rng.uniform(0.0, 1.0))
                for _ in range(n)
            )
            p = Protocol(
                opening=random_local_pair(rng),
                segments=segments,
                closing=random_local_pair(rng),
                hamiltonian_alpha=alpha,
                global_phase=np.exp(2j * np.pi * rng.random()),
            )
            assert trajectory_check(p)


def test_criterion_07_result5_grid_search():
    with criterion(7, "bidirectional-cbit optimum matches grid search on 100 drifts"):
        rng = np.random.default_rng(70)
        grid = np.arange(-0.5, 0.5 + 1e-12, 1e-4)
        for _ in range(100):
            a1, a2, a3 = random_s_ordered_alpha(rng, 0.2, 1.5)
            objective = np.maximum.reduce(
                [
                    np.full_like(grid, np.pi / (4 * a1)),
                    (np.pi / 2) * (1 - grid) / (a1 + a2 - a3),
                    (np.pi / 2) * (1 + grid) / (a1 + a2 + a3),
                ]
            )
            k = int(np.argmin(objective))
            closed = (np.pi / 2) / (a1 + a2)
            assert abs(objective[k] - closed) <= 1e-3
            assert abs(grid[k] - a3 / (a1 + a2)) <= 1e-3
            report = task_cost(CommTask.CBIT_BOTH_WAYS, np.array([a1, a2, a3]))
            assert report.cost == pytest.approx(closed, abs=1e-14)


def test_criterion_08_family_gate_law():
    with criterion(8, "family-gate content law over 200 random parameter triples"):
        rng = np.random.default_rng(80)
        for _ in range(200):
            eta, theta, omega = rng.uniform(-np.pi, np.pi, size=3)
            beta = interaction_content(family_gate(eta, theta, omega))
            assert abs(beta[0] - QUARTER_PI) <= 1e-8
            assert abs(beta[1] - QUARTER_PI) <= 1e-8
            with np.errstate(divide="ignore"):
                rhs = (1 / np.cos((eta + theta) / 2) ** 2) * (1 / np.cos(omega) ** 2) - 1
            vartheta = QUARTER_PI - beta[2]
            if np.isfinite(rhs) and abs(rhs) <= 100:
                lhs = np.tan(2 * vartheta) ** 2
                assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))
            else:
                # Equivalent bounded form of the same identity.
                assert abs(
                    np.sin(2 * beta[2]) ** 2
                    - np.cos((eta + theta) / 2) ** 2 * np.cos(omega) ** 2
                ) <= 1e-8
        dcnot_beta = interaction_content(family_gate(np.pi, 0.0, np.pi / 2))
        assert np.max(np.abs(dcnot_beta - QUARTER_PI * np.array([1, 1, 0]))) <= 1e-8
        swap_beta = interaction_content(family_gate(0.0, 0.0, 0.0))
        assert np.max(np.abs(swap_beta - QUARTER_PI * np.array([1, 1, 1]))) <= 1e-8


def test_criterion_09_classification_table():
    with criterion(9, "all six classification-table rows reproduce"):
        rng = np.random.default_rng(90)
        for _ in range(25):
            a = random_s_ordered_alpha(rng)
            a1, a2, a3 = a
            x = rng.uniform(0.05, QUARTER_PI - 0.05)
            y = rng.uniform(0.0, QUARTER_PI - 1e-3)
            z = rng.uniform(-y, y)

            rows = [
                # (content, class, row marks, closed-form cost or lower bound)
                (np.array([x, 0, 0]), GateClass.NO_TRANSMISSION, (False, False, False), x / a1),
                (QUARTER_PI * np.array([1, 0, 0]), GateClass.CNOT_CLASS, (True, False, False), np.pi / (4 * a1)),
                (np.array([QUARTER_PI, y, z]), GateClass.CNOT_CLASS, (True, False, False), None),
                (QUARTER_PI * np.array([1, 1, 0]), GateClass.DCNOT_CLASS, (True, True, False), (np.pi / 2) / (a1 + a2 - abs(a3))),
                (canonical_reduce(np.array([QUARTER_PI, QUARTER_PI, QUARTER_PI * 2 * a3 / (a1 + a2)])), GateClass.DCNOT_CLASS, (True, True, False), (np.pi / 2) / (a1 + a2)),
                (QUARTER_PI * np.array([1, 1, 1]), GateClass.SWAP_CLASS, (True, True, True), (3 * np.pi / 4) / (a1 + a2 + abs(a3))),
            ]
            for beta, expected_class, marks, cost_value in rows:
                beta = canonical_reduce(beta)
                cls = classify(beta)
                assert cls is expected_class
                assert capability_row(cls) == marks
                got = interaction_cost(beta, a).cost
                if cost_value is None:
                    assert got >= np.pi / (4 * a1) - 1e-12  # type-I bound
                else:
                    assert abs(got - cost_value) <= 1e-10


def test_criterion_10_majorization_equivalence():
    with criterion(10, "s-majorization <=> 4-vector majorization on 10^4 pairs"):
        rng = np.random.default_rng(100)
        for _ in range(10_000):
            a = rng.normal(size=3) * rng.uniform(0.1, 2)
            b = rng.normal(size=3) * rng.uniform(0.1, 2)
            a_s, _ = s_order(a)
            b_s, _ = s_order(b)
            assert s_majorizes(a, b) == majorizes(
                alpha_to_lambda(a_s), alpha_to_lambda(b_s)
            )


def test_criterion_11_partial_order_behavior():
    with criterion(11, "order verdicts consistent with costs over sampled drifts"):
        rng = np.random.default_rng(110)
        seen = set()
        for k in range(50):
            beta_u = _in_region_alpha(rng)
            if k % 2 == 0:
                beta_v = beta_u * rng.uniform(0.3, 0.95)  # comparable by construction
            else:
                beta_v = _in_region_alpha(rng)
            verdict = partial_order(beta_u, beta_v)
            seen.add(verdict)
            drifts = [s_order(beta_u)[0], s_order(beta_v)[0]] + [
                random_s_ordered_alpha(rng) for _ in range(98)
            ]
            costs = [
                (interaction_cost(beta_u, a).cost, interaction_cost(beta_v, a).cost)
                for a in drifts
            ]
            if verdict is OrderVerdict.MORE_NONLOCAL:
                assert all(cu >= cv - 1e-12 for cu, cv in costs)
            elif verdict is OrderVerdict.LESS_NONLOCAL:
                assert all(cv >= cu - 1e-12 for cu, cv in costs)
            elif verdict is OrderVerdict.EQUIVALENT:
                assert all(abs(cu - cv) <= 1e-12 for cu, cv in costs)
            elif verdict is OrderVerdict.INCOMPARABLE:
                assert any(cu > cv + 1e-12 for cu, cv in costs)
                assert any(cv > cu + 1e-12 for cu, cv in costs)
            else:
                raise AssertionError("in-region pair classified outside region")
        assert OrderVerdict.MORE_NONLOCAL in seen
        assert OrderVerdict.INCOMPARABLE in seen


def _in_region_alpha(rng):
    while True:
        beta = random_canonical_alpha(rng)
        if beta[0] + abs(beta[2]) <= QUARTER_PI and beta[0] > 0.05:
            return beta
