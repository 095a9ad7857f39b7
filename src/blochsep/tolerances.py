"""Shared numeric tolerance constants.

EXACT_TOL bounds algebraic identities that hold to rounding error, such as
the Hermiticity and unit trace of a validated density matrix; the named
constants below each guard one specific comparison.
"""

EXACT_TOL = 1e-10

# slack below zero allowed for eigenvalues of a positive semidefinite matrix
PSD_TOL = 1e-9

# rounding slack of the |imaginary part| of a coefficient that must be real;
# bloch._residue_tol adds the part that validation's EXACT_TOL lets through
IMAG_TOL = 1e-8

# singular values below RANK_CUTOFF * sigma_max count as zero for rank purposes
RANK_CUTOFF = 1e-12

# half-width of the closed guard band around every norm bound (t1, c1, c2);
# a norm inside the band is reported inconclusive with a borderline flag
# instead of picking a side
BOUND_GUARD = 1e-9

# a Bloch component with norm at or below this is treated as vanishing when a
# criterion requires certain components to be exactly zero
ZERO_COMPONENT_TOL = 1e-9

# half-width of the closed band around 1 that absorbs the rounding of the
# sufficiency sum: only a sum below 1 - SUFFICIENCY_SLACK certifies
# separability, and one inside the band is inconclusive and borderline
SUFFICIENCY_SLACK = 1e-10

# a separable-decomposition term of weight at or below this is dropped
WEIGHT_CUTOFF = 1e-12
