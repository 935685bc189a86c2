import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gateforge

from conftest import dressed_gates, random_s_ordered_alpha
from gateforge.canonical import QUARTER_PI, alpha_to_lambda, interaction_content, s_order
from gateforge.cost import interaction_cost
from gateforge.errors import NotMajorizedError
from gateforge.majorization import PermutationWeighting, birkhoff_express, majorizes, min_time, s_majorizes

PERMUTATIONS = tuple(itertools.permutations(range(4)))


def test_majorizes_reflexive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=4)
        assert majorizes(x, x)


def test_majorizes_examples():
    assert majorizes([1, 0, 0, -1], [0.5, 0.5, -0.5, -0.5])
    assert not majorizes([0.5, 0.5, -0.5, -0.5], [1, 0, 0, -1])


def test_majorizes_requires_equal_totals():
    assert not majorizes([2, 0, 0, 0], [1, 0, 0, 0])


def test_s_majorizes_reflexive_and_examples():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.normal(size=3)
        assert s_majorizes(a, a)
    # DCNOT content dominates CNOT content.
    assert s_majorizes(QUARTER_PI * np.array([1, 1, 0]), QUARTER_PI * np.array([1, 0, 0]))
    assert not s_majorizes(QUARTER_PI * np.array([1, 0, 0]), QUARTER_PI * np.array([1, 1, 0]))


def test_s_majorizes_swap_branches_incomparable():
    swap = QUARTER_PI * np.array([1, 1, 1])
    shifted = QUARTER_PI * np.array([1, 1, -1])
    assert not s_majorizes(swap, shifted)
    assert not s_majorizes(shifted, swap)


def test_s_majorization_equals_majorization_of_lambdas():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        a = rng.normal(size=3) * rng.uniform(0.1, 2)
        b = rng.normal(size=3) * rng.uniform(0.1, 2)
        a_s, _ = s_order(a)
        b_s, _ = s_order(b)
        lhs = s_majorizes(a, b)
        rhs = majorizes(alpha_to_lambda(a_s), alpha_to_lambda(b_s))
        assert lhs == rhs


def test_min_time_zero_target():
    assert min_time(np.zeros(3), np.array([1.0, 0.5, 0.2])) == 0.0


def test_min_time_cnot_and_dcnot_values():
    assert min_time(QUARTER_PI * np.array([1, 0, 0]), np.array([1.0, 0, 0])) == pytest.approx(QUARTER_PI)
    assert min_time(QUARTER_PI * np.array([1, 1, 0]), np.array([1.0, 1, 1])) == pytest.approx(np.pi / 2)


def test_min_time_infeasible():
    assert math.isinf(min_time(np.array([0.1, 0, 0]), np.zeros(3)))


def test_min_time_is_the_infimum():
    rng = np.random.default_rng(3)
    for _ in range(300):
        b = random_s_ordered_alpha(rng, 0.2, 1.5)
        a = random_s_ordered_alpha(rng, 0.2, 1.5)
        t = min_time(b, a)
        assert t > 0
        assert s_majorizes(a * t, b)
        assert not s_majorizes(a * t * (1 - 1e-6), b)


def test_birkhoff_identity_case():
    lam = np.array([0.5, 0.3, -0.2, -0.6])
    w = birkhoff_express(lam * 0.7, lam, 0.7)
    assert len(w.terms) == 1
    assert w.terms[0][0] == (0, 1, 2, 3)
    assert w.terms[0][1] == pytest.approx(1.0)


def test_birkhoff_cnot_case():
    mu = QUARTER_PI * np.array([1, 1, -1, -1])
    lam = alpha_to_lambda(np.array([1.0, 0.0, 0.0]))
    w = birkhoff_express(mu, lam, QUARTER_PI)
    assert len(w.terms) == 1
    assert w.terms[0][0] == (0, 1, 2, 3)


def test_birkhoff_swap_from_exchange():
    mu = alpha_to_lambda(QUARTER_PI * np.array([1, 1, 1]))
    lam = alpha_to_lambda(np.array([1.0, 1.0, 1.0]))
    t = QUARTER_PI
    w = birkhoff_express(mu, lam, t)
    assert len(w.terms) <= 3
    assert np.max(np.abs(w.apply(lam, t) - mu)) <= 1e-9


def _roundoff(lam, t):
    """Twice the certificate's tightness slack of 64 rounding units of
    ``lam * t``: a prefix sum within that slack of its bound is taken as
    tight, and a slot's error is the difference of two prefix sums."""
    scale = float(np.max(np.abs(lam * t)))
    return 128 * max(math.ulp(scale), scale * (math.ulp(t) / t if t else 0.0))


def _has_tight_prefix(mu, lam, t):
    reach = np.cumsum(np.sort(lam * t)[::-1])[:3]
    need = np.cumsum(np.sort(mu)[::-1])[:3]
    return bool(np.any(reach - need <= 1e-12 * np.max(np.abs(lam * t))))


def test_birkhoff_random_instances_reverify():
    # Mixtures of at most 3 permuted copies at a random time: a point inside
    # the permutohedron takes up to 4 terms, a point on its boundary (some
    # prefix sum tight) at most 3.
    rng = np.random.default_rng(4)
    for _ in range(200):
        lam = np.sort(rng.normal(size=4))[::-1]
        lam = lam - lam.mean()
        t = rng.uniform(0.1, 2.0)
        k = rng.integers(1, 4)
        picks = rng.choice(24, size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        mu = np.zeros(4)
        for i, p in enumerate(picks):
            mu += weights[i] * lam[list(PERMUTATIONS[p])] * t
        w = birkhoff_express(mu, lam, t)
        assert len(w.terms) <= (3 if _has_tight_prefix(mu, lam, t) else 4)
        total = sum(weight for _, weight in w.terms)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert all(weight >= 0 for _, weight in w.terms)
        assert np.max(np.abs(w.apply(lam, t) - mu)) <= 1e-9
        w.validate()


def test_birkhoff_drift_next_to_a_wall():
    # A drift a hair off the a2 = -a3 wall has two nearly equal eigenvalues,
    # so two permuted copies of lam nearly coincide and the triple solve is
    # ill-conditioned; time-optimal targets on that wall still need a triple.
    rng = np.random.default_rng(7)
    for gap in (1e-5, 1e-4, 1e-3):
        for _ in range(50):
            a1 = rng.uniform(0.5, 1.5)
            a2 = rng.uniform(0.2, a1)
            b1 = rng.uniform(0, QUARTER_PI)
            b2 = rng.uniform(0, b1)
            alpha, beta = np.array([a1, a2, -a2 + gap]), np.array([b1, b2, -b2])
            t = min_time(beta, alpha)
            lam, mu = alpha_to_lambda(alpha), alpha_to_lambda(beta)
            w = birkhoff_express(mu, lam, t)
            assert len(w.terms) <= 3
            assert np.max(np.abs(w.apply(lam, t) - mu)) <= 1e-9


@st.composite
def _optimal_instances(draw):
    """``(mu, lam, t)`` at the optimal time, as synthesis builds them: a dressed
    gate's content under a random, Ising, XY, Heisenberg or near-wall drift."""
    beta = interaction_content(draw(dressed_gates()))
    kind = draw(st.sampled_from(["random", "ising", "xy", "heisenberg", "near-wall"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        alpha = random_s_ordered_alpha(rng)
    elif kind == "near-wall":
        a1 = rng.uniform(0.5, 1.5)
        a2 = rng.uniform(0.2, a1)
        alpha = np.array([a1, a2, -a2 + 1e-5])
    else:
        alpha = np.array({"ising": [1.0, 0, 0], "xy": [1.0, 1, 0], "heisenberg": [1.0, 1, 1]}[kind])
    used = interaction_cost(beta, alpha).beta_used
    return alpha_to_lambda(used), alpha_to_lambda(alpha), min_time(used, alpha)


@settings(max_examples=300, deadline=None)
@given(_optimal_instances())
def test_birkhoff_optimal_instances_take_at_most_three_terms(instance):
    # At the optimal time mu lies on the boundary of the permutohedron of
    # lam * t, so the face descent ends after at most two splits.
    mu, lam, t = instance
    w = birkhoff_express(mu, lam, t)
    w.validate()
    weights = np.array([weight for _, weight in w.terms])
    assert len(w.terms) <= 3
    assert np.all(weights > 0) and weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(w.apply(lam, t) - mu)) <= _roundoff(lam, t)


def _assert_interior_certificate(mu, lam, t):
    """A certificate of at most 4 terms that reconstructs ``mu``."""
    w = birkhoff_express(mu, lam, t)
    w.validate()
    assert 1 <= len(w.terms) <= 4
    assert np.max(np.abs(w.apply(lam, t) - mu)) <= _roundoff(lam, t)
    return w


def test_birkhoff_without_a_tight_sum_reconstructs_mu():
    # Halfway between lam and its reverse, t = 1 is above the optimal time:
    # no partial sum of mu is tight, so the descent starts from the whole
    # permutohedron and may take four terms.
    lam = np.array([0.9, 0.4, -0.1, -1.2])
    mu = 0.5 * (lam + lam[::-1])
    assert np.all(np.cumsum(np.sort(mu)[::-1])[:3] < np.cumsum(lam)[:3] - 0.1)
    _assert_interior_certificate(mu, lam, 1.0)


def test_birkhoff_rejects_nonmajorized():
    lam = np.array([1.0, 0.5, -0.5, -1.0])
    with pytest.raises(NotMajorizedError):
        birkhoff_express(np.array([2.0, 0.5, -0.5, -2.0]), lam, 1.0)


def test_birkhoff_rejects_nonmajorized_at_every_scale():
    # The majorization check is relative to max|lam * t|: an absolute slack
    # of 1e-10 would admit any weak mu and certify it with garbage.
    lam = np.array([1.0, 0.5, -0.5, -1.0])
    for scale in (1e-12, 1e-300):
        with pytest.raises(NotMajorizedError):
            birkhoff_express(np.array([2.0, 0.5, -0.5, -2.0]) * scale, lam, scale)
        w = birkhoff_express(np.array([0.5, 0.5, -0.5, -0.5]) * scale, lam, scale)
        assert np.max(np.abs(w.apply(lam, scale) / scale - [0.5, 0.5, -0.5, -0.5])) <= 1e-15


def test_birkhoff_no_triple_on_non_optimal_instance():
    # The <=3 bound covers time-optimal instances, where the target sits on
    # the boundary of the permutohedron.  An interior point like mu = 0 at
    # t > 0 (simulating the identity while burning time) needs four
    # permutations, and gets them.
    w = _assert_interior_certificate(np.zeros(4), np.array([0.9, 0.4, -0.1, -1.2]), 1.0)
    assert len(w.terms) == 4


def test_birkhoff_express_does_not_import_scipy():
    script = (
        "import sys, numpy as np\n"
        "from gateforge.majorization import birkhoff_express\n"
        "birkhoff_express(np.zeros(4), np.array([0.9, 0.4, -0.1, -1.2]), 1.0)\n"
        "print('scipy' in sys.modules)\n"
    )
    src = str(Path(gateforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_weighting_doubly_stochastic():
    rng = np.random.default_rng(5)
    for _ in range(100):
        lam = np.sort(rng.normal(size=4))[::-1]
        lam -= lam.mean()
        t = rng.uniform(0.5, 1.5)
        picks = rng.choice(24, size=3, replace=False)
        weights = rng.dirichlet(np.ones(3))
        mu = sum(weights[i] * lam[list(PERMUTATIONS[p])] for i, p in enumerate(picks)) * t
        w = birkhoff_express(mu, lam, t)
        q = w.doubly_stochastic()
        assert np.allclose(q.sum(axis=0), 1.0, atol=1e-10)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(q >= -1e-12)


def test_weighting_validate_flags_bad_weights():
    w = PermutationWeighting((((0, 1, 2, 3), 0.5),))
    with pytest.raises(ValueError):
        w.validate()
