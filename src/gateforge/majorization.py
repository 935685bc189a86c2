"""Majorization and s-majorization predicates, the closed-form minimal-time
solver for drift simulation, and certificates expressing a majorization as a
convex combination of at most three magic-state permutations.

The three s-majorization partial sums are written once, row-wise, in
``_s_sums``; ``gateforge.cost`` compares them too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .canonical import _s_sort
from .errors import NotMajorizedError, NoTripleFoundError

#: All 24 permutations of four elements in lexicographic one-line order; the
#: enumeration order below makes every returned certificate reproducible.
PERMUTATIONS: tuple[tuple[int, ...], ...] = tuple(itertools.permutations(range(4)))

_PAIR_INDEX = np.array(tuple(itertools.combinations(range(24), 2)))
_TRIPLE_INDEX = np.array(tuple(itertools.combinations(range(24), 3)))
_PERM_GATHER = np.array([list(p) for p in PERMUTATIONS])

#: Weights this far below zero are roundoff at a polytope face, not
#: infeasibility; they are clamped to exactly zero.
_WEIGHT_CLAMP = -1e-12

_CERT_RESIDUAL = 1e-9


def majorizes(x: np.ndarray, y: np.ndarray, atol: float = tol.STRUCTURAL) -> bool:
    """Whether ``x`` majorizes ``y``: after sorting nonincreasingly, every
    prefix sum of ``x`` dominates and the totals agree within ``atol``."""
    xs = -np.sort(-np.asarray(x, dtype=float))
    ys = -np.sort(-np.asarray(y, dtype=float))
    if xs.shape != ys.shape:
        raise ValueError("vectors must have equal length")
    cx, cy = np.cumsum(xs), np.cumsum(ys)
    if abs(cx[-1] - cy[-1]) > atol:
        return False
    return bool(np.all(cx[:-1] >= cy[:-1] - atol))


def _s_sums(rows: np.ndarray) -> np.ndarray:
    """The three partial sums compared by s-majorization, for s-ordered rows
    ``(..., 3)``: ``a1``, ``a1 + a2 - a3`` and ``a1 + a2 + a3``."""
    a1, a2, a3 = rows[..., 0], rows[..., 1], rows[..., 2]
    return np.stack([a1, a1 + a2 - a3, a1 + a2 + a3], axis=-1)


def s_majorizes(a: np.ndarray, b: np.ndarray, atol: float = tol.STRUCTURAL) -> bool:
    """Whether ``a`` s-majorizes ``b``.

    Both vectors are s-ordered internally; the relation is the three
    inequalities ``a1 >= b1``, ``a1+a2-a3 >= b1+b2-b3``, ``a1+a2+a3 >= b1+b2+b3``,
    equivalent to ordinary majorization of the associated 4-vectors.
    """
    sums_a, sums_b = _s_sums(_s_sort(np.array([a, b], dtype=float))[0])
    return bool(np.all(sums_a >= sums_b - atol))


def _min_times(targets: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`min_time` of the targets ``(n, 3)`` against the drift
    ``alpha``, and the targets s-ordered together with the drift.

    Time is homogeneous of degree -1 in the drift, so the drift is taken in
    units of its leading component ``a1`` and the largest ratio divided by
    ``a1`` last: exact for every finite drift, ``inf`` only where the true
    time overflows.  With ``a1 = 0`` a target takes time 0 if no partial sum
    exceeds ``STRUCTURAL``, and ``inf`` otherwise.
    """
    ordered, _ = _s_sort(np.vstack([targets, np.asarray(alpha, dtype=float)]))
    rows, a1 = ordered[:-1], ordered[-1, 0]
    need = _s_sums(rows)
    if a1 == 0.0:
        return np.where(need.max(axis=-1) > tol.STRUCTURAL, math.inf, 0.0), rows
    # s-ordered, the unit drift's partial sums are all at least 1.
    with np.errstate(over="ignore"):
        return (need / _s_sums(ordered[-1] / a1)).max(axis=-1) / a1, rows


def min_time(b: np.ndarray, a: np.ndarray) -> float:
    """Minimal ``t >= 0`` with ``a * t`` s-majorizing ``b``, in closed form.

    The three s-majorization inequalities are linear in ``t``, so the infimum
    is the largest of the three ratios.  Returns ``math.inf`` when the drift
    has no interaction and the target is not trivial: the drift cannot reach
    it at any time.
    """
    return float(_min_times(np.asarray(b, dtype=float)[None], a)[0][0])


@dataclass(frozen=True)
class PermutationWeighting:
    """Convex combination of magic-state permutations certifying ``mu`` as a
    mixture of permuted copies of ``lam * t``."""

    terms: tuple[tuple[tuple[int, ...], float], ...]

    def apply(self, lam: np.ndarray, t: float) -> np.ndarray:
        """The mixture ``t * sum_i p_i (P_i lam)``."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(4)
        for perm, weight in self.terms:
            out += weight * lam[list(perm)]
        return out * t

    def doubly_stochastic(self) -> np.ndarray:
        """The doubly stochastic matrix ``sum_i p_i P_i`` implied by the terms."""
        q = np.zeros((4, 4))
        for perm, weight in self.terms:
            for row, col in enumerate(perm):
                q[row, col] += weight
        return q

    def validate(self) -> None:
        weights = np.array([w for _, w in self.terms])
        if len(self.terms) > 3:
            raise ValueError("certificate has more than 3 terms")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > tol.STRUCTURAL:
            raise ValueError("weights are not a probability distribution")


def birkhoff_express(mu: np.ndarray, lam: np.ndarray, t: float) -> PermutationWeighting:
    """Certificate ``mu = t * sum p_i (P_i lam)`` with at most three terms.

    Subsets of the 24 permutations are enumerated in a fixed canonical order
    (singletons, then pairs, then triples, lexicographic throughout); for each
    subset the small linear system for the weights is solved and the first
    subset with nonnegative weights and residual at most 1e-9 is returned,
    making the output deterministic.  Residuals and solvability thresholds
    are taken relative to ``max|lam * t|``, so the result does not depend on
    the scale of the content.

    Raises:
        NotMajorizedError: if ``lam * t`` does not majorize ``mu``.
        NoTripleFoundError: if no 3-subset certifies the relation.  For
            time-optimal instances three terms always suffice, so this error
            is a finding to report; the exception carries the inputs and the
            smallest residual of a triple with nonnegative weights.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not majorizes(lam * t, mu):
        raise NotMajorizedError("lam * t does not majorize mu")

    # The thresholds below are relative: everything is measured in units of
    # max|lam * t|, so a weak target is certified as readily as a strong one.
    scale = float(np.max(np.abs(lam * t))) or 1.0
    target = mu / scale
    columns = lam[_PERM_GATHER] * t / scale  # 24 x 4

    # Singletons.
    gaps = np.max(np.abs(columns - target), axis=1)
    hits = np.flatnonzero(gaps <= _CERT_RESIDUAL)
    if hits.size:
        return PermutationWeighting(((PERMUTATIONS[hits[0]], 1.0),))

    # Pairs: mu = w a + (1-w) b has the scalar solution w = <mu-b, a-b>/|a-b|^2.
    a = columns[_PAIR_INDEX[:, 0]]
    b = columns[_PAIR_INDEX[:, 1]]
    diff = a - b
    denom = np.einsum("ij,ij->i", diff, diff)
    solvable = denom > 1e-18
    w = np.where(
        solvable,
        np.einsum("ij,ij->i", target - b, diff) / np.where(solvable, denom, 1.0),
        -1.0,
    )
    admissible = solvable & (w >= _WEIGHT_CLAMP) & (w <= 1 - _WEIGHT_CLAMP)
    wc = np.clip(w, 0.0, 1.0)
    mix = wc[:, None] * a + (1 - wc)[:, None] * b
    residual = np.max(np.abs(mix - target), axis=1)
    winners = np.flatnonzero(admissible & (residual <= _CERT_RESIDUAL))
    if winners.size:
        k = int(winners[0])
        i, j = _PAIR_INDEX[k]
        return PermutationWeighting(
            ((PERMUTATIONS[i], float(wc[k])), (PERMUTATIONS[j], float(1 - wc[k])))
        )

    # Triples, batch-solved by a Gram-Schmidt QR of the two difference columns
    # after eliminating the sum-to-one constraint.  Normal equations would
    # square the columns' condition number, which is large when a drift next
    # to a chamber wall makes two permuted copies nearly equal.  Subsets with
    # parallel difference columns (r11 * r22, the root of their Gram
    # determinant, at most 1e-9) are skipped: anything they could certify was
    # already caught by a pair.
    a = columns[_TRIPLE_INDEX[:, 0]]
    b = columns[_TRIPLE_INDEX[:, 1]]
    c = columns[_TRIPLE_INDEX[:, 2]]
    m1, m2, r = a - c, b - c, target - c
    r11 = np.sqrt(np.einsum("ij,ij->i", m1, m1))
    q1 = m1 / np.where(r11 > 0, r11, 1.0)[:, None]
    r12 = np.einsum("ij,ij->i", q1, m2)
    u = m2 - r12[:, None] * q1
    r22 = np.sqrt(np.einsum("ij,ij->i", u, u))
    solvable = r11 * r22 > 1e-9
    safe_r11 = np.where(solvable, r11, 1.0)
    safe_r22 = np.where(solvable, r22, 1.0)
    w2 = np.where(solvable, np.einsum("ij,ij->i", u, r) / (safe_r22 * safe_r22), -1.0)
    w1 = np.where(solvable, (np.einsum("ij,ij->i", q1, r) - r12 * w2) / safe_r11, -1.0)
    w3 = 1.0 - w1 - w2
    mix = w1[:, None] * a + w2[:, None] * b + w3[:, None] * c
    residual = np.max(np.abs(mix - target), axis=1)
    nonnegative = solvable & (w1 >= _WEIGHT_CLAMP) & (w2 >= _WEIGHT_CLAMP) & (w3 >= _WEIGHT_CLAMP)
    winners = np.flatnonzero(nonnegative & (residual <= _CERT_RESIDUAL))
    if winners.size:
        k = int(winners[0])
        weights = np.clip([w1[k], w2[k], w3[k]], 0.0, None)
        weights = weights / weights.sum()
        subset = _TRIPLE_INDEX[k]
        return PermutationWeighting(
            tuple((PERMUTATIONS[subset[m]], float(weights[m])) for m in range(3))
        )

    raise NoTripleFoundError(
        "no certificate with at most 3 permutations; this contradicts the "
        "3-term bound for time-optimal instances",
        mu=mu,
        lam=lam,
        t=t,
        residual=float(residual[nonnegative].min()) if nonnegative.any() else math.inf,
    )
