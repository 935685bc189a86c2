import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import _scan_feasible, random_canonical_alpha, random_s_ordered_alpha
from gateforge.canonical import QUARTER_PI, s_order
from gateforge.cost import (
    OrderVerdict,
    feasible,
    interaction_cost,
    named_gate_cost,
    partial_order,
)
from gateforge.errors import BetaOutOfRangeError, UnknownGateError
from gateforge.majorization import min_time

CNOT_BETA = QUARTER_PI * np.array([1, 0, 0])
DCNOT_BETA = QUARTER_PI * np.array([1, 1, 0])
SWAP_BETA = QUARTER_PI * np.array([1, 1, 1])


def test_feasible_zero_target_zero_time():
    ok, n = feasible(np.zeros(3), np.array([1.0, 0.5, 0.2]), 0.0)
    assert ok and n == (0, 0, 0)


def test_feasible_below_minimum():
    ok, n = feasible(CNOT_BETA, np.array([1.0, 0.0, 0.0]), QUARTER_PI - 0.01)
    assert not ok and n is None


def test_feasible_swap_negative_branch():
    alpha = np.array([1.0, 1.0, -1.0])
    report = interaction_cost(SWAP_BETA, alpha)
    assert report.branch == (-1, 0, 0)
    ok, n = feasible(SWAP_BETA, alpha, report.cost)
    assert ok and n == report.branch
    shifted, _ = s_order(SWAP_BETA + (np.pi / 2) * np.asarray(n))
    assert np.allclose(shifted, report.beta_used)
    # Strictly below the optimum nothing is feasible.
    assert not feasible(SWAP_BETA, alpha, report.cost * (1 - 1e-9))[0]


def test_interaction_cost_cnot():
    report = interaction_cost(CNOT_BETA, np.array([1.0, 0.0, 0.0]))
    assert report.cost == pytest.approx(QUARTER_PI, abs=1e-12)
    assert report.branch == (0, 0, 0)


def test_interaction_cost_swap_positive_exchange():
    report = interaction_cost(SWAP_BETA, np.array([1.0, 1.0, 1.0]))
    assert report.cost == pytest.approx(QUARTER_PI, abs=1e-12)
    assert report.branch == (0, 0, 0)


def test_interaction_cost_swap_negative_coupling_uses_shift():
    report = interaction_cost(SWAP_BETA, np.array([1.0, 1.0, -1.0]))
    assert report.cost == pytest.approx(QUARTER_PI, abs=1e-12)
    assert report.branch == (-1, 0, 0)
    assert np.allclose(report.beta_used, QUARTER_PI * np.array([1, 1, -1]))


def test_interaction_cost_infeasible():
    report = interaction_cost(CNOT_BETA, np.zeros(3))
    assert report.infeasible
    assert math.isinf(report.cost)


def test_named_gate_cost_values():
    assert named_gate_cost("CNOT", np.array([1.0, 0, 0])) == pytest.approx(QUARTER_PI)
    assert named_gate_cost("DCNOT", np.array([1.0, 1, 1])) == pytest.approx(np.pi / 2)
    assert named_gate_cost("SWAP", np.array([1.0, 1, 1])) == pytest.approx(QUARTER_PI)
    assert named_gate_cost("CONTROLLED_U", np.array([1.0, 0, 0]), beta=np.pi / 8) == pytest.approx(np.pi / 8)


def test_named_gate_cost_ising_vs_exchange_order_reversal():
    ising = np.array([1.0, 0.0, 0.0])
    exchange = np.array([1.0, 1.0, 1.0])
    assert named_gate_cost("CNOT", ising) == pytest.approx(QUARTER_PI)
    assert named_gate_cost("DCNOT", ising) == pytest.approx(np.pi / 2)
    assert named_gate_cost("SWAP", ising) == pytest.approx(3 * QUARTER_PI)
    # With the exchange interaction the SWAP is cheaper than the DCNOT.
    assert named_gate_cost("SWAP", exchange) < named_gate_cost("DCNOT", exchange)


def test_named_gate_cost_matches_optimizer():
    # The closed forms are the oracle: named_gate_cost is interaction_cost of
    # a fixed content, so comparing the two would check the code against itself.
    rng = np.random.default_rng(0)
    for _ in range(100):
        alpha = random_s_ordered_alpha(rng)
        a1, a2, a3 = alpha
        closed = {
            "CNOT": QUARTER_PI / a1,
            "DCNOT": (np.pi / 2) / (a1 + a2 - abs(a3)),
            "SWAP": (3 * QUARTER_PI) / (a1 + a2 + abs(a3)),
        }
        for name, cost in closed.items():
            assert named_gate_cost(name, alpha) == pytest.approx(cost, rel=1e-12)
        b = rng.uniform(0, QUARTER_PI)
        assert named_gate_cost("CONTROLLED_U", alpha, beta=b) == pytest.approx(b / a1, rel=1e-12)


def test_named_gate_cost_errors():
    with pytest.raises(UnknownGateError):
        named_gate_cost("TOFFOLI", np.array([1.0, 0, 0]))
    with pytest.raises(BetaOutOfRangeError):
        named_gate_cost("CONTROLLED_U", np.array([1.0, 0, 0]), beta=1.0)
    with pytest.raises(BetaOutOfRangeError):
        named_gate_cost("CONTROLLED_U", np.array([1.0, 0, 0]))


def test_cost_matches_bisection_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        beta = random_canonical_alpha(rng)
        alpha = random_s_ordered_alpha(rng)
        report = interaction_cost(beta, alpha)
        oracle = _bisect_feasible(beta, alpha)
        assert abs(report.cost - oracle) <= 1e-8


def _bisect_feasible(beta, alpha, hi=20.0):
    lo = 0.0
    assert _scan_feasible(beta, alpha, hi)
    for _ in range(60):
        mid = (lo + hi) / 2
        if _scan_feasible(beta, alpha, mid):
            hi = mid
        else:
            lo = mid
    return hi


def test_feasible_matches_shift_scan_oracle():
    # The two-branch test against every shift in {-2..2}^3, with the same
    # slack, at times straddling the optimum and far from it.
    rng = np.random.default_rng(5)
    for _ in range(300):
        beta = random_canonical_alpha(rng)
        alpha = random_s_ordered_alpha(rng)
        cost = interaction_cost(beta, alpha).cost
        for t in (0.0, cost * 0.5, cost * (1 - 1e-6), cost, cost * (1 + 1e-6), cost * 3):
            for atol in (1e-10, 1e-7, -1e-3):
                ok, branch = feasible(beta, alpha, t, atol=atol)
                assert ok == _scan_feasible(beta, alpha, t, atol)
                assert (branch is None) == (not ok)


def test_feasible_rejects_noncanonical_beta():
    # (pi/2, 0, 0) is CNOT shifted by (1,0,0); the two branches cover only
    # canonical contents, so it is refused rather than answered False.
    alpha = np.array([1.0, 0.5, 0.2])
    for beta in ([2 * QUARTER_PI, 0.0, 0.0], [0.1, 0.3, 0.0], [0.3, 0.1, -0.2]):
        with pytest.raises(BetaOutOfRangeError, match="not canonical"):
            feasible(np.array(beta), alpha, 10.0)


def test_cost_monotone_in_leading_alpha_components_and_scale():
    # Growing the first or second drift coefficient (s-order preserved), or
    # scaling the whole vector up, never raises the cost: those moves enlarge
    # every denominator of the closed form.
    rng = np.random.default_rng(2)
    for _ in range(200):
        beta = random_canonical_alpha(rng)
        alpha = np.sort(rng.uniform(0.2, 1.0, size=3))[::-1]
        if rng.random() < 0.5:
            alpha[2] *= -1.0
            alpha, _ = s_order(alpha)
        base = interaction_cost(beta, alpha).cost
        grown = alpha.copy()
        if rng.random() < 0.5:
            grown[0] += rng.uniform(0, 0.5)
        else:
            grown[1] = rng.uniform(alpha[1], alpha[0])
        assert interaction_cost(beta, grown).cost <= base + 1e-12
        scaled = alpha * rng.uniform(1.0, 3.0)
        assert interaction_cost(beta, scaled).cost <= base + 1e-12


def test_cost_not_monotone_in_third_component():
    # Growing |alpha_3| is NOT universally helpful: the double-CNOT needs
    # alpha_1 + alpha_2 - |alpha_3| large, so strengthening the third coupling
    # axis strictly raises its cost.
    beta = QUARTER_PI * np.array([1.0, 1.0, 0.0])
    weak = interaction_cost(beta, np.array([1.0, 1.0, 0.0])).cost
    strong = interaction_cost(beta, np.array([1.0, 1.0, 0.5])).cost
    assert weak == pytest.approx(QUARTER_PI, abs=1e-12)
    assert strong == pytest.approx((np.pi / 2) / 1.5, abs=1e-12)
    assert strong > weak


def test_inside_region_branch_zero_always_wins():
    rng = np.random.default_rng(3)
    for _ in range(300):
        beta = random_canonical_alpha(rng)
        if beta[0] + abs(beta[2]) > QUARTER_PI:
            continue
        alpha = random_s_ordered_alpha(rng)
        assert interaction_cost(beta, alpha).branch == (0, 0, 0)


def test_partial_order_examples():
    assert partial_order(CNOT_BETA, np.array([np.pi / 8, 0, 0])) is OrderVerdict.MORE_NONLOCAL
    assert partial_order(np.array([np.pi / 8, 0, 0]), CNOT_BETA) is OrderVerdict.LESS_NONLOCAL
    x = np.array([0.2, 0.1, 0.05])
    assert partial_order(x, x) is OrderVerdict.EQUIVALENT
    assert partial_order(SWAP_BETA, CNOT_BETA) is OrderVerdict.OUTSIDE_REGION


def test_partial_order_incomparable():
    u = np.array([0.19, 0.15, 0.15])
    v = np.array([0.20, 0.10, 0.05])
    assert partial_order(u, v) is OrderVerdict.INCOMPARABLE
    # Witness Hamiltonians reverse the cost comparison.
    at_u = (interaction_cost(u, s_order(u)[0]).cost, interaction_cost(v, s_order(u)[0]).cost)
    at_v = (interaction_cost(u, s_order(v)[0]).cost, interaction_cost(v, s_order(v)[0]).cost)
    assert (at_u[0] - at_u[1]) * (at_v[0] - at_v[1]) < 0


def test_min_time_consistency_with_cost_inside_region():
    rng = np.random.default_rng(4)
    for _ in range(100):
        beta = random_canonical_alpha(rng)
        if beta[0] + abs(beta[2]) > QUARTER_PI:
            continue
        alpha = random_s_ordered_alpha(rng)
        assert interaction_cost(beta, alpha).cost == pytest.approx(min_time(beta, alpha), abs=1e-12)


# ---------------------------------------------------------------------------
# Drift scale: cost is homogeneous of degree -1 in the drift
# ---------------------------------------------------------------------------

#: Drift coefficient moduli: zero or O(1), so that every s * alpha is finite.
_MODULI = st.one_of(st.just(0.0), st.floats(0.1, 1.5))


@st.composite
def _drifts(draw):
    raw = [draw(st.floats(0.1, 1.5)), draw(_MODULI), draw(_MODULI)]
    signs = [draw(st.sampled_from([-1.0, 1.0])) for _ in range(3)]
    return s_order(np.array(raw) * signs)[0]


@st.composite
def _contents(draw):
    # a1 >= 0.01 keeps the cost at s = 1e308 far above the subnormal spacing.
    a1 = draw(st.floats(0.01, QUARTER_PI))
    a2 = a1 * draw(st.floats(0.0, 1.0))
    return np.array([a1, a2, a2 * draw(st.floats(-1.0, 1.0))])


def _scaled_costs(beta, alpha, s):
    """Every cost of ``beta`` and the landmarks under ``s * alpha``, times ``s``."""
    drift = s * alpha
    costs = [interaction_cost(beta, drift).cost, min_time(beta, drift)]
    costs += [named_gate_cost(name, drift) for name in ("CNOT", "DCNOT", "SWAP")]
    costs.append(named_gate_cost("CONTROLLED_U", drift, beta=float(beta[0])))
    return np.array(costs) * s


@settings(max_examples=300, deadline=None)
@given(_contents(), _drifts(), st.floats(-300.0, 308.0))
@example(QUARTER_PI * np.ones(3), np.array([1.5, 1.5, 1.5]), 308.0)
@example(QUARTER_PI * np.ones(3), np.array([1.5, 1.5, -1.5]), 308.0)
@example(np.array([0.01, 0.0, 0.0]), np.array([0.1, 0.0, 0.0]), -300.0)
def test_costs_are_homogeneous_in_the_drift(beta, alpha, exponent):
    base = _scaled_costs(beta, alpha, 1.0)
    scaled = _scaled_costs(beta, alpha, 10.0**exponent)
    assert np.all(np.abs(scaled - base) <= 1e-12 * base)


def test_costs_at_the_largest_drift():
    alpha = np.full(3, 1e308)
    assert interaction_cost(DCNOT_BETA, alpha).cost == (np.pi / 2) / 1e308
    assert min_time(DCNOT_BETA, alpha) == (np.pi / 2) / 1e308
    assert named_gate_cost("DCNOT", alpha) == (np.pi / 2) / 1e308
    assert named_gate_cost("SWAP", alpha) == pytest.approx((np.pi / 4) / 1e308, rel=1e-15)
    assert named_gate_cost("CNOT", alpha) == pytest.approx((np.pi / 4) / 1e308, rel=1e-15)
