"""Majorization and s-majorization predicates, the closed-form minimal-time
solver for drift simulation, and certificates expressing a majorization as a
convex combination of permuted copies: at most three at the optimal time,
built by a face descent on the permutohedron.

The three s-majorization partial sums are written once, row-wise, in
``_s_sums``; ``_min_times`` reads them as a minimal time, which is both the
interaction cost and, compared with a given time, the feasibility test of
``gateforge.cost``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .canonical import _s_sort
from .errors import NotMajorizedError, ValidationError

#: The 14 nonempty proper subsets of the four slots, one mask per row, and
#: their sizes.
_SUBSETS = (np.arange(1, 15)[:, None] >> np.arange(4) & 1).astype(bool)
_SIZES = _SUBSETS.sum(axis=1)


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
    ``(..., 3)``: ``a1``, ``a1 + a2 - a3`` and ``a1 + a2 + a3``.  They are
    written into one preallocated array, at about half the cost of stacking
    the three columns: the cost and every feasibility test come here."""
    a1, a2, a3 = rows[..., 0], rows[..., 1], rows[..., 2]
    sums = np.empty(rows.shape)
    sums[..., 0] = a1
    pair = a1 + a2
    np.subtract(pair, a3, out=sums[..., 1])
    np.add(pair, a3, out=sums[..., 2])
    return sums


def s_majorizes(a: np.ndarray, b: np.ndarray, atol: float = tol.STRUCTURAL) -> bool:
    """Whether ``a`` s-majorizes ``b``.

    Both vectors are s-ordered internally; the relation is the three
    inequalities ``a1 >= b1``, ``a1+a2-a3 >= b1+b2-b3``, ``a1+a2+a3 >= b1+b2+b3``,
    equivalent to ordinary majorization of the associated 4-vectors.
    """
    sums_a, sums_b = _s_sums(_s_sort(np.array([a, b], dtype=float))[0])
    return bool(np.all(sums_a >= sums_b - atol))


def _min_times(targets: np.ndarray, alpha: np.ndarray, slack: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`min_time` of the targets ``(n, 3)`` against the drift
    ``alpha``, and the targets s-ordered together with the drift.

    Each of the targets' partial sums is lowered by ``slack`` first: the time
    is then the least ``t`` at which ``alpha * t`` s-majorizes the target with
    that slack on every inequality, and at most 0 where ``t = 0`` already
    does.  The cost takes no slack; a feasibility test passes its own.

    Time is homogeneous of degree -1 in the drift, so the drift is taken in
    units of its leading component ``a1`` and the largest ratio divided by
    ``a1`` last: exact for every finite drift, ``inf`` only where the true
    time overflows.  With ``a1 = 0`` a target takes time 0 if no
    slack-lowered partial sum exceeds ``STRUCTURAL``, and ``inf`` otherwise.
    A target or drift component that is infinite or NaN raises
    ``ValidationError``.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not np.isfinite(alpha).all():
        raise ValidationError(f"drift {alpha.tolist()} is not finite")
    if not np.isfinite(targets).all():
        raise ValidationError(f"target {targets[~np.isfinite(targets).all(axis=-1)][0].tolist()} is not finite")
    ordered, _ = _s_sort(np.vstack([targets, alpha]))
    rows, a1 = ordered[:-1], ordered[-1, 0]
    need = _s_sums(rows) - slack
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
    it at any time.  Raises ``ValidationError`` for a non-finite drift.
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
        if len(self.terms) > 4:
            raise ValueError("certificate has more than 4 terms")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > tol.STRUCTURAL:
            raise ValueError("weights are not a probability distribution")


def birkhoff_express(mu: np.ndarray, lam: np.ndarray, t: float) -> PermutationWeighting:
    """Certificate ``mu = t * sum p_i (P_i lam)``, built by a face descent on
    the permutohedron of ``lam * t``.

    A face of the permutohedron is a product of smaller permutohedra, one per
    block of an ordered partition of the four slots: the first block holds
    the largest values of ``lam * t``, the next block the next ones, and so
    on.  The descent starts on the face that ``mu`` lies in, splitting the
    slots at every prefix of ``mu``'s sorted order whose partial sum is
    tight.  Then, until every block is one slot, it takes the face's vertex
    sorted like the current point within each block and shoots the ray from
    that vertex through the point.  The ray leaves the face where a subset
    sum of some block first becomes tight, the least ratio over at most 14
    subsets; the vertex takes its share of the weight, the point moves to
    the exit, and that block splits in two.  The last point is a vertex.

    Each split lowers the face's dimension by one, so the certificate has at
    most three terms when ``mu`` lies on the boundary of the permutohedron,
    as every time-optimal instance does, and at most four otherwise.  The
    one threshold is roundoff, 64 rounding units of ``lam * t``: the larger
    of the unit of ``max|lam * t|`` and that scale times the relative unit
    of ``t``, since a time near underflow carries fewer bits than the
    product.  A prefix within it of its bound is tight, and a ray within it
    of the vertex has arrived.  The majorization check is relative too
    (``STRUCTURAL`` times ``max|lam * t|``), so the result does not depend
    on the scale of the content.

    Raises:
        NotMajorizedError: if ``lam * t`` does not majorize ``mu``.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    # Values by rank, and the sum of the values of ranks [0, k) as tops[k].
    rank = np.argsort(-lam * t, kind="stable")
    values = lam[rank] * t
    tops = np.concatenate([[0.0], np.cumsum(values)])
    scale = float(np.max(np.abs(values)))
    if not majorizes(values, mu, atol=tol.STRUCTURAL * scale):
        raise NotMajorizedError("lam * t does not majorize mu")
    tight = 64 * max(math.ulp(scale), scale * (math.ulp(t) / t if t else 0.0))

    # Each slot's block is the interval [lo, hi) of ranks it shares.
    order = np.argsort(-mu, kind="stable")
    cuts = np.flatnonzero(tops[1:4] - np.cumsum(mu[order])[:3] <= tight) + 1
    bounds = np.concatenate([[0], cuts, [4]])
    block = np.searchsorted(cuts, np.arange(4), side="right")
    lo, hi = np.empty(4, dtype=int), np.empty(4, dtype=int)
    lo[order], hi[order] = bounds[block], bounds[block + 1]

    # What is left of mu to express and the weight left for it: the current
    # point times that weight, so that every comparison is in units of mu
    # and roundoff does not grow as the weight shrinks.
    rest, left, terms = mu, 1.0, []
    while True:
        pos = np.empty(4, dtype=int)
        pos[np.lexsort((-rest, lo))] = np.arange(4)  # by block, then like the point
        vertex = values[pos]
        perm = tuple(rank[pos].tolist())
        # A subset lies in one block when lo is the same over it, and it is
        # proper when it ends before that block does.
        first = np.where(_SUBSETS, lo, 4).min(axis=1)
        end = first + _SIZES
        inner = (first == np.where(_SUBSETS, lo, -1).max(axis=1)) & (end < np.where(_SUBSETS, hi, 0).max(axis=1))
        sums = _SUBSETS @ rest
        slack = np.maximum(left * (tops[np.minimum(end, 4)] - tops[first]) - sums, 0.0)
        rise = sums - left * (_SUBSETS @ vertex)
        exits = np.flatnonzero(inner & (rise > tight))
        if not exits.size:
            return PermutationWeighting((*terms, (perm, left)))
        k = exits[np.argmin(slack[exits] / rise[exits])]
        weight = left * float(slack[k] / (slack[k] + rise[k]))
        if weight > 0:
            terms.append((perm, weight))
            rest = rest - weight * vertex
            left -= weight
        lo[(lo == first[k]) & ~_SUBSETS[k]] = end[k]
        hi[_SUBSETS[k]] = end[k]
