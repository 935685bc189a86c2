import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gateforge

from conftest import random_s_ordered_alpha
from gateforge.canonical import QUARTER_PI, alpha_to_lambda, s_order
from gateforge.errors import NoTripleFoundError, NotMajorizedError
from gateforge.majorization import (
    PERMUTATIONS,
    PermutationWeighting,
    birkhoff_express,
    majorizes,
    min_time,
    s_majorizes,
)


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


def test_birkhoff_random_instances_reverify():
    rng = np.random.default_rng(4)
    for _ in range(200):
        lam = np.sort(rng.normal(size=4))[::-1]
        lam = lam - lam.mean()
        t = rng.uniform(0.1, 2.0)
        # Build mu as a convex mixture of <= 3 permuted copies, so a 3-term
        # certificate must exist.
        k = rng.integers(1, 4)
        picks = rng.choice(24, size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        mu = np.zeros(4)
        for i, p in enumerate(picks):
            mu += weights[i] * lam[list(PERMUTATIONS[p])] * t
        w = birkhoff_express(mu, lam, t)
        assert len(w.terms) <= 3
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


def test_birkhoff_rejects_nonmajorized():
    lam = np.array([1.0, 0.5, -0.5, -1.0])
    with pytest.raises(NotMajorizedError):
        birkhoff_express(np.array([2.0, 0.5, -0.5, -2.0]), lam, 1.0)


def test_birkhoff_no_triple_on_non_optimal_instance():
    # The <=3 bound covers time-optimal instances, where the target sits on a
    # face of the permutohedron.  An interior point like mu = 0 at t > 0
    # (simulating the identity while burning time) generically needs four
    # permutations; the error carries the instance and how close the best
    # nonnegative triple came.
    lam = np.array([0.9, 0.4, -0.1, -1.2])
    with pytest.raises(NoTripleFoundError) as err:
        birkhoff_express(np.zeros(4), lam, 1.0)
    assert np.array_equal(err.value.mu, np.zeros(4))
    assert np.array_equal(err.value.lam, lam)
    assert err.value.t == 1.0
    assert 1e-9 < err.value.residual < 1.0


def test_no_triple_error_does_not_import_scipy():
    script = (
        "import sys, numpy as np\n"
        "from gateforge.errors import NoTripleFoundError\n"
        "from gateforge.majorization import birkhoff_express\n"
        "try:\n"
        "    birkhoff_express(np.zeros(4), np.array([0.9, 0.4, -0.1, -1.2]), 1.0)\n"
        "except NoTripleFoundError:\n"
        "    print('scipy' in sys.modules)\n"
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
