"""Separability tests built on Ky Fan norms of the correlation tensors.

Three kinds of statement are implemented:

* a necessary criterion: for every fully separable state the Ky Fan norm of
  the full correlation tensor stays below a bound fixed by the subsystem
  dimensions, so exceeding the bound certifies entanglement (and the same
  holds subset-wise for the reduced states);
* an exact criterion for N-qubit states whose only nonvanishing expansion
  component is the full correlation tensor, provided that tensor admits a
  completely orthogonal rank-1 decomposition;
* a sufficient criterion: if a weighted sum of all component norms stays
  at or below one, the state is separable, and an explicit mixture of
  product states witnessing this is constructed from even-parity sign
  tables.

Norm-versus-bound comparisons respect a small guard band; results inside
the band are reported inconclusive with ``borderline=True`` rather than
pretending to a resolution the arithmetic cannot support.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import combinations
import math

import numpy as np

from .bloch import _from_coefficients, ball_radii, correlation_tensor, decompose
from .errors import CriterionUnavailableError
from .states import DensityMatrix, ZooSpec
from .tensors import (
    KruskalForm,
    find_orthogonal_kruskal,
    kruskal_to_tensor,
    sign_table,
    tensor_kyfan,
)
from .tolerances import BOUND_GUARD, SUFFICIENCY_SLACK, ZERO_COMPONENT_TOL

__all__ = [
    "Decision",
    "Verdict",
    "SeparableDecomposition",
    "separability_bound",
    "necessary_test",
    "subset_scan",
    "qubit_exact_test",
    "sufficiency_test",
    "separable_decomposition",
    "assemble_decomposition",
    "threshold_search",
    "noise_threshold_table",
]


class Decision(str, Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion on one state (or reduced state).

    ``norm_value`` and ``bound_value`` document the comparison that decided;
    ``borderline`` marks a comparison inside the guard band; ``reason`` is a
    short code explaining an inconclusive outcome where one applies;
    ``subset`` is the ascending index tuple a norm test read, if any.
    """

    decision: Decision
    norm_value: float | None
    bound_value: float | None
    criterion: str
    borderline: bool = False
    reason: str | None = None
    subset: tuple | None = None


@dataclass(frozen=True)
class SeparableDecomposition:
    """Explicit mixture of product states plus a maximally mixed remainder.

    Every term is a pair (weight, factor vectors), one coherence vector per
    subsystem; a zero vector stands for the maximally mixed factor.  All
    factor vectors lie inside their subsystem's inball, so each term is a
    valid product state, and the weights together with ``identity_weight``
    sum to one.
    """

    dims: tuple
    terms: tuple
    identity_weight: float


def separability_bound(dims) -> float:
    """Largest full-tensor Ky Fan norm a fully separable state on ``dims``
    can reach: sqrt(prod_k d_k (d_k - 1) / 2^N).  Equals 1 for qubits."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("the bound concerns at least 2 subsystems")
    if any(d < 2 for d in dims):
        raise ValueError(f"every subsystem dimension must be at least 2, got {dims}")
    return math.sqrt(math.prod(d * (d - 1) / 2.0 for d in dims))


def _check_guard(guard: float) -> None:
    if not (math.isfinite(guard) and guard >= 0.0):
        raise ValueError(f"guard band must be a finite number >= 0, got {guard}")


def necessary_test(
    rho: DensityMatrix, subset=None, guard: float = BOUND_GUARD
) -> Verdict:
    """Compare the Ky Fan norm of a correlation tensor with the separable
    bound.  ``subset=None`` means the full system; a proper subset tests the
    reduced state, whose entanglement also rules out full separability of
    ``rho``.  Never returns Separable: the criterion is only necessary."""
    _check_guard(guard)
    if subset is None:
        subset = range(rho.n_parties)
    subset = tuple(sorted({int(k) for k in subset}))
    norm = tensor_kyfan(correlation_tensor(rho, subset))
    bound = separability_bound(tuple(rho.dims[k] for k in subset))
    crit = "necessary-norm"
    if norm > bound + guard:
        return Verdict(Decision.ENTANGLED, norm, bound, crit, subset=subset)
    return Verdict(Decision.INCONCLUSIVE, norm, bound, crit, norm > bound - guard, subset=subset)


def _select_subsets(n_parties: int, selector) -> list:
    if isinstance(selector, str):
        if selector == "full":
            return [tuple(range(n_parties))]
        if selector == "all":
            sizes = range(2, n_parties + 1)
        elif selector == "pairs":
            sizes = (2,)
        else:
            raise ValueError(f"unknown subset selector {selector!r}")
        return [s for m in sizes for s in combinations(range(n_parties), m)]
    if isinstance(selector, int):
        if not 2 <= selector <= n_parties:
            raise ValueError(f"subset size must lie in [2, {n_parties}], got {selector}")
        return list(combinations(range(n_parties), selector))
    subsets = sorted(
        {tuple(sorted(set(int(k) for k in s))) for s in selector},
        key=lambda s: (len(s), s),
    )
    for s in subsets:
        if len(s) < 2 or s[0] < 0 or s[-1] >= n_parties:
            raise ValueError(f"invalid subset {s} for {n_parties} parties")
    return subsets


def subset_scan(
    rho: DensityMatrix, subsets="all", guard: float = BOUND_GUARD
) -> list:
    """Run the necessary norm test on each selected subsystem subset and
    return the verdicts in selector order, each carrying its ``subset``.

    ``subsets`` may be "all" (every subset of size >= 2), "full", "pairs",
    an integer size, or an explicit iterable of index tuples.
    """
    _check_guard(guard)
    return [necessary_test(rho, s, guard) for s in _select_subsets(rho.n_parties, subsets)]


def qubit_exact_test(rho: DensityMatrix, guard: float = BOUND_GUARD) -> Verdict:
    """Exact separability decision for the qubit class with only top-order
    correlations.

    Applies to N-qubit states whose coherence vectors and proper-subset
    tensors all vanish and whose full tensor admits a completely orthogonal
    rank-1 decomposition.  On that class the state is separable exactly when
    the Ky Fan norm (the decomposition's weight sum) is at most 1.  Unmet
    preconditions yield Inconclusive with a reason code.
    """
    _check_guard(guard)
    crit = "qubit-exact"
    if rho.n_parties < 2 or any(d != 2 for d in rho.dims):
        return Verdict(
            Decision.INCONCLUSIVE, None, 1.0, crit, reason="not-a-multiqubit-state"
        )
    data = decompose(rho)
    for k in range(rho.n_parties):
        if np.linalg.norm(data.singles[k]) > ZERO_COMPONENT_TOL:
            return Verdict(
                Decision.INCONCLUSIVE, None, 1.0, crit, reason="coherence-vectors-nonzero"
            )
    full = tuple(range(rho.n_parties))
    for subset, t in data.tensors.items():
        if subset != full and np.linalg.norm(t) > ZERO_COMPONENT_TOL:
            return Verdict(
                Decision.INCONCLUSIVE,
                None,
                1.0,
                crit,
                reason="lower-order-tensors-nonzero",
            )
    form = find_orthogonal_kruskal(data.tensors[full])
    if form is None:
        return Verdict(
            Decision.INCONCLUSIVE, None, 1.0, crit, reason="no-orthogonal-decomposition"
        )
    norm = float(form.weights.sum())
    if norm > 1.0 + guard:
        return Verdict(Decision.ENTANGLED, norm, 1.0, crit)
    if norm < 1.0 - guard:
        return Verdict(Decision.SEPARABLE, norm, 1.0, crit)
    return Verdict(Decision.INCONCLUSIVE, norm, 1.0, crit, borderline=True)


def _component_coefficient(dims, subset) -> float:
    return math.sqrt(math.prod(2.0 * (dims[k] - 1) / dims[k] for k in subset))


def _sufficiency_parts(rho: DensityMatrix):
    """Shared workhorse for the sufficiency sum and the decomposition.

    Returns (lhs, single_parts, subset_parts) or (None, failing_subset, None)
    when some order >= 3 tensor has no completely orthogonal decomposition.
    """
    data = decompose(rho)
    dims = rho.dims
    total = 0.0
    single_parts = []
    for k in sorted(data.singles):
        s = data.singles[k]
        nrm = float(np.linalg.norm(s))
        total += _component_coefficient(dims, (k,)) * nrm
        single_parts.append((k, nrm, s))
    subset_parts = []
    for subset in sorted(data.tensors, key=lambda s: (len(s), s)):
        form = find_orthogonal_kruskal(data.tensors[subset])
        if form is None:
            return None, subset, None
        total += _component_coefficient(dims, subset) * float(form.weights.sum())
        subset_parts.append((subset, form))
    return total, single_parts, subset_parts


def sufficiency_test(rho: DensityMatrix, slack: float = SUFFICIENCY_SLACK) -> Verdict:
    """Sufficient criterion: ``norm_value`` is the weighted sum

        lhs = sum_k c_k ||s^(k)|| + sum_S c_S ||T^S||_KF,   c_S = sqrt(prod 2(d-1)/d),

    and lhs <= 1 certifies separability.  lhs is None when some tensor of
    order >= 3 has no completely orthogonal decomposition; that and a larger
    sum are merely inconclusive."""
    crit = "sufficiency-sum"
    total, detail, parts = _sufficiency_parts(rho)
    if parts is None:
        return Verdict(
            Decision.INCONCLUSIVE,
            None,
            1.0,
            crit,
            reason=f"no-orthogonal-decomposition:{detail}",
        )
    if total <= 1.0 + slack:
        return Verdict(Decision.SEPARABLE, total, 1.0, crit)
    return Verdict(Decision.INCONCLUSIVE, total, 1.0, crit, reason="sum-exceeds-one")


WEIGHT_CUTOFF = 1e-12


def separable_decomposition(rho: DensityMatrix) -> SeparableDecomposition:
    """Materialize the mixture of product states promised by the sufficient
    criterion.

    Each nonzero coherence vector contributes one product term; each rank-1
    term of a subset tensor's orthogonal decomposition contributes 2^(M-1)
    sign-balanced product terms whose lower-order contributions cancel
    row-wise.  Factor vectors are rescaled onto the subsystem inball so each
    factor is a valid state, and the leftover weight goes to the maximally
    mixed state.  Raises CriterionUnavailableError when the criterion does
    not apply (sum above one or a decomposition missing).
    """
    total, detail, subset_parts = _sufficiency_parts(rho)
    if subset_parts is None:
        raise CriterionUnavailableError(
            f"correlation tensor of subset {detail} has no completely "
            "orthogonal rank-1 decomposition"
        )
    if total > 1.0 + SUFFICIENCY_SLACK:
        raise CriterionUnavailableError(
            f"weighted component norm sum {total:.12g} exceeds 1; "
            "the sufficient criterion does not apply"
        )
    dims = rho.dims
    n = len(dims)
    inball = [ball_radii(d)[0] for d in dims]
    vec_sizes = [d * d - 1 for d in dims]

    def blank():
        return [np.zeros(sz) for sz in vec_sizes]

    terms = []
    for k, nrm, s in detail:
        if nrm <= WEIGHT_CUTOFF:
            continue
        factors = blank()
        factors[k] = inball[k] * (s / nrm)
        terms.append((_component_coefficient(dims, (k,)) * nrm, tuple(factors)))
    for subset, form in subset_parts:
        m = len(subset)
        coef = _component_coefficient(dims, subset)
        table = sign_table(m)
        share = 1.0 / table.shape[0]
        for j in range(form.rank):
            weight = coef * float(form.weights[j]) * share
            if weight <= WEIGHT_CUTOFF:
                continue
            base = [
                inball[k] * form.factors[pos][:, j] for pos, k in enumerate(subset)
            ]
            for row in table:
                factors = blank()
                for pos, k in enumerate(subset):
                    factors[k] = row[pos] * base[pos]
                terms.append((weight, tuple(factors)))
    return SeparableDecomposition(
        dims=dims, terms=tuple(terms), identity_weight=1.0 - total
    )


def assemble_decomposition(dec: SeparableDecomposition) -> DensityMatrix:
    """Turn a separable decomposition back into its density matrix.

    A product term (x)_k (I + v_k . g)/d_k has the rank-1 coefficient array
    (x)_k (1, v_k), so the terms form one Kruskal form; the maximally mixed
    remainder adds ``identity_weight`` at index 0...0.  The inverse
    coefficient map turns the sum into a matrix.
    """
    dims = dec.dims
    rank = len(dec.terms)
    factors = [
        np.vstack([np.ones((1, rank)),
                   np.reshape([f[k] for _, f in dec.terms], (rank, d * d - 1)).T])
        for k, d in enumerate(dims)
    ]
    coeff = kruskal_to_tensor(KruskalForm([w for w, _ in dec.terms], factors))
    coeff[(0,) * len(dims)] += dec.identity_weight
    return _from_coefficients(dims, coeff)


_CRITERION_KEYS = ("t1", "c1", "c2", "p2")


def _verdicts(rho: DensityMatrix, criterion: str, subsets) -> list:
    """The verdicts one criterion key reads on ``rho``."""
    if criterion == "t1":
        return [necessary_test(rho)]
    if criterion == "c1":
        return subset_scan(rho, subsets)
    if criterion == "c2":
        return [qubit_exact_test(rho)]
    return [sufficiency_test(rho)]


def _closed_form_threshold(sigma: DensityMatrix, criterion: str, subsets) -> float | None:
    """Flip point of a criterion on the family (1-p)/D I + p sigma.

    Every coherence vector and correlation tensor of the mixture is p times
    sigma's, so each norm and the sufficiency sum grow linearly in p and one
    evaluation on sigma fixes where the verdict flips.
    """
    verdicts = _verdicts(sigma, criterion, subsets)
    if criterion == "p2":
        (v,) = verdicts
        if v.decision is Decision.SEPARABLE:
            return None
        if v.norm_value is None:
            # find_orthogonal_kruskal's cutoff is relative to the tensor's
            # scale, so the sum is unavailable at every p > 0 as well
            return 0.0
        return (1.0 + SUFFICIENCY_SLACK) / v.norm_value
    return min(
        (
            (v.bound_value + BOUND_GUARD) / v.norm_value
            for v in verdicts
            if v.decision is Decision.ENTANGLED
        ),
        default=None,
    )


def threshold_search(family, criterion: str = "t1", subsets="all") -> float | None:
    """Locate the noise weight p in [0, 1] where a criterion's verdict flips.

    ``family`` is a ZooSpec with a free noise parameter.  Zoo families have
    the form (1-p)/D I + p sigma, so the flip is computed in closed form from
    one evaluation of the criterion on sigma (the state at p = 1).  Returns
    None when the verdict never flips on [0, 1], and 0.0 when the state is
    flagged at every p > 0.
    """
    if criterion not in _CRITERION_KEYS:
        raise ValueError(
            f"unknown criterion {criterion!r} (known: {', '.join(_CRITERION_KEYS)})"
        )
    if not isinstance(family, ZooSpec):
        raise TypeError("family must be a ZooSpec")
    if not family.noise_parameterized:
        raise ValueError(f"family {family.family!r} has no noise parameter to sweep")
    return _closed_form_threshold(replace(family, noise=1.0).build(), criterion, subsets)


def noise_threshold_table(max_parties: int = 6) -> list:
    """Entanglement thresholds of the white-noise GHZ and W families for
    3..max_parties qubits under the necessary norm test, each in closed
    form.  Returns rows of (family, parties, threshold)."""
    rows = []
    for fam in ("ghz-noisy", "w-noisy"):
        for n in range(3, max_parties + 1):
            p_star = threshold_search(ZooSpec(fam, parties=n), "t1")
            rows.append((fam, n, p_star))
    return rows
