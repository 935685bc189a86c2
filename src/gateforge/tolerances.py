"""Centralized numerical tolerances.

Two tiers: STRUCTURAL for "the input is wrong" checks (unitarity, tracelessness,
orthogonality) and RESIDUAL for "accumulated roundoff" checks (factorization and
reassembly residuals).
"""

#: Structural validation tier.
STRUCTURAL = 1e-10

#: Factorization / reassembly tier.
RESIDUAL = 1e-8

#: Unit-modulus check on scalar phases.
PHASE = 1e-12

#: Chamber-boundary and class-membership comparisons against exact landmarks
#: such as pi/4; inputs produced by our own canonicalizer are accurate to the
#: RESIDUAL tier, so a threshold one decade below STRUCTURAL-adjacent accuracy
#: keeps classification of synthesized contents stable.
BOUNDARY = 1e-9

#: Symmetry precondition of the joint diagonalizer.
SYMMETRY = 1e-9

#: Eigenvalue clustering gap of the joint diagonalizer (LAPACK ``eigh`` with a
#: degenerate-cluster second pass).  A run of Re(m) eigenvalues whose
#: neighbours lie closer than this is resolved by a second ``eigh`` on the
#: restriction of Im(m), or of Im(m) - Re(m) where the cluster's Re(m)
#: eigenvalue d has |d| < 1/2; commutation makes the final residual
#: insensitive to the exact cutoff (the residual check is authoritative).
CLUSTER = 1e-6

#: Largest phase-free distance at which a protocol passes verification: the
#: default of ``protocol.verify`` and of the CLI's ``verify``, and the bound
#: of the self-check of every synthesized protocol.
VERIFY = 1e-7
