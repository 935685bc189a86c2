"""Centralized numerical tolerances.

Two tiers: STRUCTURAL for "the input is wrong" checks (unitarity, tracelessness,
orthogonality) and RESIDUAL for "accumulated roundoff" checks (factorization and
reassembly residuals).  The optional environment variable ``GATEFORGE_TOL``
scales both tiers multiplicatively, for callers feeding in noisy external data.
"""

import os

_SCALE = float(os.environ.get("GATEFORGE_TOL", "1.0"))

#: Structural validation tier.
STRUCTURAL = 1e-10 * _SCALE

#: Factorization / reassembly tier.
RESIDUAL = 1e-8 * _SCALE

#: Unit-modulus check on scalar phases.
PHASE = 1e-12 * _SCALE

#: Chamber-boundary and class-membership comparisons against exact landmarks
#: such as pi/4; inputs produced by our own canonicalizer are accurate to the
#: RESIDUAL tier, so a threshold one decade below STRUCTURAL-adjacent accuracy
#: keeps classification of synthesized contents stable.
BOUNDARY = 1e-9 * _SCALE

#: Symmetry precondition of the joint diagonalizer.
SYMMETRY = 1e-9 * _SCALE

#: Eigenvalue clustering gap of the joint diagonalizer (LAPACK ``eigh`` with a
#: degenerate-cluster second pass).  A run of Re(m) eigenvalues whose
#: neighbours lie closer than this is resolved by a second ``eigh`` on the
#: restriction of Im(m), or of Im(m) - Re(m) where the cluster's Re(m)
#: eigenvalue d has |d| < 1/2; commutation makes the final residual
#: insensitive to the exact cutoff (the residual check is authoritative).
CLUSTER = 1e-6

#: Durations below this are dropped from synthesized protocols.
DURATION_FLOOR = 1e-12
