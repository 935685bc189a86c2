import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_s_ordered_alpha
from gateforge import gates
from gateforge.canonical import QUARTER_PI, canonical_reduce, interaction_content
from gateforge.comm import (
    CommTask,
    GateClass,
    capabilities,
    capability_row,
    classify,
    family_gate,
    task_cost,
)
from gateforge.errors import InfeasibleError
from gateforge.linalg import is_unitary


def test_classify_landmarks():
    assert classify(QUARTER_PI * np.array([1, 0, 0])) is GateClass.CNOT_CLASS
    assert classify(QUARTER_PI * np.array([1, 1, 0.3])) is GateClass.DCNOT_CLASS
    assert classify(QUARTER_PI * np.array([1, 1, 1])) is GateClass.SWAP_CLASS
    assert classify(np.array([0.2, 0.1, 0.05])) is GateClass.NO_TRANSMISSION


def test_classify_of_gate_contents():
    assert classify(interaction_content(gates.CNOT)) is GateClass.CNOT_CLASS
    assert classify(interaction_content(gates.DCNOT)) is GateClass.DCNOT_CLASS
    assert classify(interaction_content(gates.SWAP)) is GateClass.SWAP_CLASS
    controlled_phase = gates.controlled_gate(np.diag([1.0, np.exp(1j * np.pi / 5)]))
    assert classify(interaction_content(controlled_phase)) is GateClass.NO_TRANSMISSION


def test_capabilities_table():
    assert capabilities(GateClass.NO_TRANSMISSION) == frozenset()
    assert capabilities(GateClass.CNOT_CLASS) == {CommTask.CBIT_A_TO_B}
    assert capabilities(GateClass.DCNOT_CLASS) == {
        CommTask.CBIT_A_TO_B,
        CommTask.CBIT_BOTH_WAYS,
        CommTask.QUBIT_A_TO_B,
        CommTask.QUBIT_A_TO_B_PLUS_CBIT_B_TO_A,
    }
    assert capabilities(GateClass.SWAP_CLASS) == frozenset(CommTask)


def test_capability_rows():
    assert capability_row(GateClass.CNOT_CLASS) == (True, False, False)
    assert capability_row(GateClass.DCNOT_CLASS) == (True, True, False)
    assert capability_row(GateClass.SWAP_CLASS) == (True, True, True)
    assert capability_row(GateClass.NO_TRANSMISSION) == (False, False, False)


def test_task_cost_cbit_one_way():
    report = task_cost(CommTask.CBIT_A_TO_B, np.array([1.0, 0.0, 0.0]))
    assert report.cost == pytest.approx(QUARTER_PI)
    assert np.allclose(report.optimal_beta, QUARTER_PI * np.array([1, 0, 0]))
    assert report.realizing_gate_hint == "CNOT"


def test_task_cost_cbit_both_ways_exchange():
    report = task_cost(CommTask.CBIT_BOTH_WAYS, np.array([1.0, 1.0, 1.0]))
    assert report.cost == pytest.approx(QUARTER_PI)
    assert np.allclose(report.optimal_beta, QUARTER_PI * np.array([1, 1, 1]), atol=1e-12)


def test_task_cost_qubit_both_ways():
    report = task_cost(CommTask.QUBIT_BOTH_WAYS, np.array([1.0, 1.0, 0.0]))
    assert report.cost == pytest.approx(3 * QUARTER_PI / 2)
    assert np.allclose(report.optimal_beta, QUARTER_PI * np.array([1, 1, 1]))


def test_task_cost_requires_interaction():
    with pytest.raises(InfeasibleError):
        task_cost(CommTask.CBIT_A_TO_B, np.zeros(3))
    # A subnormal drift has an interaction, but every task cost overflows.
    for task in CommTask:
        with pytest.raises(InfeasibleError, match="finite time"):
            task_cost(task, np.array([1e-320, 0.0, 0.0]))


def test_task_cost_consistent_with_interaction_cost():
    # The closed forms are the oracle: task_cost takes its cost from
    # interaction_cost, so comparing the two would check the code against itself.
    rng = np.random.default_rng(0)
    for _ in range(100):
        alpha = random_s_ordered_alpha(rng)
        a1, a2, a3 = alpha
        bidirectional = (
            (np.pi / 2) / (a1 + a2),
            canonical_reduce(QUARTER_PI * np.array([1.0, 1.0, 2 * a3 / (a1 + a2)])),
        )
        closed = {
            CommTask.CBIT_A_TO_B: (QUARTER_PI / a1, QUARTER_PI * np.array([1.0, 0.0, 0.0])),
            CommTask.CBIT_BOTH_WAYS: bidirectional,
            CommTask.QUBIT_A_TO_B: bidirectional,
            CommTask.QUBIT_A_TO_B_PLUS_CBIT_B_TO_A: bidirectional,
            CommTask.QUBIT_BOTH_WAYS: ((3 * QUARTER_PI) / (a1 + a2 + abs(a3)), np.full(3, QUARTER_PI)),
        }
        for task, (cost, beta) in closed.items():
            report = task_cost(task, alpha)
            assert report.cost == pytest.approx(cost, rel=1e-12)
            assert np.max(np.abs(report.optimal_beta - beta)) <= 1e-12


def test_task_cost_optimal_beta_class_supports_task():
    rng = np.random.default_rng(1)
    for _ in range(50):
        alpha = random_s_ordered_alpha(rng)
        for task in CommTask:
            report = task_cost(task, alpha)
            cls = classify(report.optimal_beta)
            assert task in capabilities(cls)


def test_result5_grid_search_oracle():
    rng = np.random.default_rng(2)
    grid = np.linspace(-0.5, 0.5, 10001)
    for _ in range(50):
        a1, a2, a3 = random_s_ordered_alpha(rng, 0.2, 1.5)
        objective = np.maximum.reduce(
            [
                np.full_like(grid, np.pi / (4 * a1)),
                (np.pi / 2) * (1 - grid) / (a1 + a2 - a3),
                (np.pi / 2) * (1 + grid) / (a1 + a2 + a3),
            ]
        )
        k = int(np.argmin(objective))
        assert objective[k] == pytest.approx((np.pi / 2) / (a1 + a2), abs=1e-3)
        assert grid[k] == pytest.approx(a3 / (a1 + a2), abs=1e-3)


def test_family_gate_landmark_points():
    dcnot = family_gate(np.pi, 0.0, np.pi / 2)
    assert np.allclose(
        interaction_content(dcnot), QUARTER_PI * np.array([1, 1, 0]), atol=1e-9
    )
    swap = family_gate(0.0, 0.0, 0.0)
    assert np.allclose(
        interaction_content(swap), QUARTER_PI * np.array([1, 1, 1]), atol=1e-9
    )


def test_family_gate_is_special_unitary():
    rng = np.random.default_rng(3)
    for _ in range(100):
        eta, theta, omega = rng.uniform(-np.pi, np.pi, size=3)
        g = family_gate(eta, theta, omega)
        assert is_unitary(g, 1e-10)
        assert abs(np.linalg.det(g) - 1) <= 1e-10


def test_family_gate_content_law():
    rng = np.random.default_rng(4)
    for _ in range(100):
        eta, theta, omega = rng.uniform(-np.pi, np.pi, size=3)
        beta = interaction_content(family_gate(eta, theta, omega))
        assert abs(beta[0] - QUARTER_PI) <= 1e-8
        assert abs(beta[1] - QUARTER_PI) <= 1e-8
        # Bounded form of the beta_3 law.
        lhs = np.sin(2 * beta[2]) ** 2
        rhs = np.cos((eta + theta) / 2) ** 2 * np.cos(omega) ** 2
        assert abs(lhs - rhs) <= 1e-8


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.1, 1.5),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(-1.0, 1.0),
    st.floats(-300.0, 308.0),
)
@example(1.5, 1.0, 1.0, 308.0)
@example(1.5, 1.0, -1.0, 308.0)
def test_task_cost_is_homogeneous_in_the_drift(a1, u2, u3, exponent):
    # Cost has degree -1 in the drift and the optimal content degree 0.
    alpha = np.array([a1, a1 * u2, a1 * u2 * u3])
    s = 10.0**exponent
    for task in CommTask:
        base, scaled = task_cost(task, alpha), task_cost(task, s * alpha)
        assert abs(scaled.cost * s - base.cost) <= 1e-12 * base.cost
        assert np.max(np.abs(scaled.optimal_beta - base.optimal_beta)) <= 1e-12


def test_task_cost_at_the_largest_drift():
    alpha = np.full(3, 1e308)
    for task in CommTask:
        report = task_cost(task, alpha)
        # Every task costs pi/4 per unit of the leading coupling here.
        assert report.cost == pytest.approx(QUARTER_PI / 1e308, rel=1e-14)
        if task is not CommTask.CBIT_A_TO_B:
            assert np.array_equal(report.optimal_beta, np.full(3, QUARTER_PI))
