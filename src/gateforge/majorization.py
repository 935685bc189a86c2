"""Majorization and s-majorization predicates, the closed-form minimal-time
solver for drift simulation, and certificates expressing a majorization as a
convex combination of at most three magic-state permutations.  One search
builds a certificate: over the tight face's few permutations first, over all
24 only when that finds nothing, in the same canonical order.

The three s-majorization partial sums are written once, row-wise, in
``_s_sums``; ``_min_times`` reads them as a minimal time, which is both the
interaction cost and, compared with a given time, the feasibility test of
``gateforge.cost``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .canonical import _s_sort
from .errors import NoTripleFoundError, NotMajorizedError, ValidationError

#: All 24 permutations of four elements in lexicographic one-line order; the
#: enumeration order below makes every returned certificate reproducible.
PERMUTATIONS: tuple[tuple[int, ...], ...] = tuple(itertools.permutations(range(4)))

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
        if len(self.terms) > 3:
            raise ValueError("certificate has more than 3 terms")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > tol.STRUCTURAL:
            raise ValueError("weights are not a probability distribution")


def birkhoff_express(mu: np.ndarray, lam: np.ndarray, t: float) -> PermutationWeighting:
    """Certificate ``mu = t * sum p_i (P_i lam)`` with at most three terms.

    Subsets of the permutations are enumerated in a fixed canonical order
    (singletons, then pairs, then triples, lexicographic by permutation index
    throughout); for each subset the small linear system for the weights is
    solved and the first subset with nonnegative weights and residual at most
    1e-9 is returned, making the output deterministic.  Residuals and
    solvability thresholds are taken relative to ``max|lam * t|``, so the
    result does not depend on the scale of the content.  The tight face is
    searched first: the permutations reaching each majorization partial sum
    of ``mu`` that some copy of ``lam * t`` reaches within 1e-9.  Every
    certificate lies in it; at the optimal time it has at most 6 permutations
    for distinct drift eigenvalues.  If it yields nothing, all 24 are searched.

    Raises:
        NotMajorizedError: if ``lam * t`` does not majorize ``mu``.
        NoTripleFoundError: if no 3-subset certifies the relation.  For
            time-optimal instances three terms always suffice, so this error
            is a finding to report; the exception carries the inputs and the
            smallest residual of a nonnegative-weight triple over all 24.
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

    # Partial sums of target's top-k entries, and of each copy on those slots.
    order = np.argsort(-target, kind="stable")
    need = np.cumsum(target[order])[:3]
    reach = np.cumsum(columns[:, order], axis=1)[:, :3]  # 24 x 3
    tight = reach.max(axis=0) - need <= _CERT_RESIDUAL
    on_face = np.all(reach[:, tight] >= need[tight] - _CERT_RESIDUAL, axis=1)
    face = tuple(np.flatnonzero(on_face).tolist())
    for candidates in dict.fromkeys((face, tuple(range(24)))):  # face first, all 24 unless equal
        found, residual = _search(target, columns, candidates)
        if found is not None:
            return found
    raise NoTripleFoundError(
        "no certificate with at most 3 permutations; this contradicts the "
        "3-term bound for time-optimal instances", mu=mu, lam=lam, t=t, residual=residual
    )


@functools.lru_cache(maxsize=None)
def _subsets(candidates: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Lexicographic singleton, pair and triple tables over ascending ``candidates``."""
    tables = tuple(
        np.array(list(itertools.combinations(candidates, k)), dtype=int).reshape(-1, k) for k in (1, 2, 3)
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _search(target: np.ndarray, columns: np.ndarray, candidates: tuple[int, ...]):
    """``(certificate, 0.0)`` for the first certificate over ``candidates`` in
    canonical order, else ``(None, r)`` with ``r`` the smallest residual of a
    nonnegative-weight triple (``inf`` if none).  ``target`` and the 24
    copies ``columns`` are in units of ``max|lam * t|``."""
    singles, pairs, triples = _subsets(candidates)
    gaps = np.max(np.abs(columns[singles[:, 0]] - target), axis=1)
    hits = np.flatnonzero(gaps <= _CERT_RESIDUAL)
    if hits.size:
        return PermutationWeighting(((PERMUTATIONS[singles[hits[0], 0]], 1.0),)), 0.0

    # Pairs: mu = w a + (1-w) b has the scalar solution w = <mu-b, a-b>/|a-b|^2.
    a = columns[pairs[:, 0]]
    b = columns[pairs[:, 1]]
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
        i, j = pairs[k]
        return PermutationWeighting(
            ((PERMUTATIONS[i], float(wc[k])), (PERMUTATIONS[j], float(1 - wc[k])))
        ), 0.0

    # Triples, batch-solved by a Gram-Schmidt QR of the two difference columns
    # after eliminating the sum-to-one constraint.  Normal equations would
    # square the columns' condition number, which is large when a drift next
    # to a chamber wall makes two permuted copies nearly equal.  Subsets with
    # parallel difference columns (r11 * r22, the root of their Gram
    # determinant, at most 1e-9) are skipped: anything they could certify was
    # already caught by a pair.
    a = columns[triples[:, 0]]
    b = columns[triples[:, 1]]
    c = columns[triples[:, 2]]
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
        subset = triples[k]
        return PermutationWeighting(
            tuple((PERMUTATIONS[subset[m]], float(weights[m])) for m in range(3))
        ), 0.0
    return None, float(residual[nonnegative].min()) if nonnegative.any() else math.inf
