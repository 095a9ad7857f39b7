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

A component is the coefficient-array slice of one nonempty subsystem subset;
a coherence vector is the order-1 case, so the criteria walk them in one loop.

One rule, ``_side``, decides every verdict against the closed guard band of
its limit, ``BOUND_GUARD`` around a norm bound and ``SUFFICIENCY_SLACK``
around the sum's 1; inside the band it is inconclusive with ``borderline``.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
import math
from typing import NamedTuple

import numpy as np

from .bloch import _contract, _from_coefficients, _groups, _name, _subsets, ball_radii
from .errors import CriterionUnavailableError
from .states import (
    DensityMatrix,
    ZooSpec,
    _check_fits,
    _checked_subset,
    _instance,
    _integer,
    _subsystem_dims,
)
from .tensors import (
    KruskalForm,
    _kyfan_norms,
    _orthogonal_forms,
    kruskal_to_tensor,
    sign_table,
)
from .tolerances import BOUND_GUARD, SUFFICIENCY_SLACK, WEIGHT_CUTOFF, ZERO_COMPONENT_TOL


class Decision(str, Enum):
    ENTANGLED = "entangled"
    SEPARABLE = "separable"
    INCONCLUSIVE = "inconclusive"


class Verdict(NamedTuple):
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

    ``terms`` is a KruskalForm over coherence vectors: ``terms.weights[t]``
    is the weight of product term t and column t of ``terms.factors[k]``,
    of shape (d_k^2 - 1, R), is its coherence vector on subsystem k; a zero
    column stands for the maximally mixed factor.  All factor vectors lie
    inside their subsystem's inball, so each term is a valid product state,
    and the weights together with ``identity_weight`` sum to one.
    """

    dims: tuple
    terms: KruskalForm
    identity_weight: float


def separability_bound(dims) -> float:
    """Largest full-tensor Ky Fan norm a fully separable state on ``dims``
    can reach: sqrt(prod_k d_k (d_k - 1) / 2^N).  Equals 1 for qubits."""
    dims = _subsystem_dims(dims)
    if len(dims) < 2:
        raise ValueError("the bound concerns at least 2 subsystems")
    return math.sqrt(math.prod(d * (d - 1) / 2.0 for d in dims))


def necessary_test(rho: DensityMatrix) -> Verdict:
    """Compare the Ky Fan norm of the full correlation tensor with the
    separable bound: the verdict of :func:`subset_scan` under ``"full"``.
    The tensor alone is contracted (``bloch._contract(rho, 1)``), so the
    state is not expanded whole.  A reduced state is tested through
    :func:`subset_scan` with a list of subsets.  Never returns Separable:
    the criterion is only necessary."""
    _instance(rho, DensityMatrix, "rho")
    full = _select_subsets(rho.n_parties, "full")
    return _norm_verdicts(rho, full, [(np.zeros(1, dtype=np.intp), _contract(rho, 1)[None])])[0]


def _select_subsets(n_parties: int, selector) -> list:
    if n_parties < 2:
        raise ValueError(
            f"the necessary test needs at least 2 subsystems, the state has {n_parties}")
    # every named and integer selector picks the subsets of some sizes
    named = {"full": (n_parties,), "pairs": (2,), "all": range(2, n_parties + 1)}
    if isinstance(selector, str):
        if selector not in named:
            raise ValueError(f"unknown subset selector {selector!r}")
        sizes = named[selector]
    else:
        try:
            size = _integer(selector)
        except TypeError:
            try:
                subsets = {_checked_subset(s, n_parties, 2) for s in selector}
            except TypeError:
                raise ValueError(f"unknown subset selector {selector!r}") from None
            return sorted(subsets, key=lambda s: (len(s), s))
        if not 2 <= size <= n_parties:
            raise ValueError(f"subset size must lie in [2, {n_parties}], got {size}")
        sizes = (size,)
    return [s for s in _subsets(n_parties) if len(s) in sizes]


def subset_scan(rho: DensityMatrix, subsets="all") -> list:
    """Run the necessary norm test on each selected subsystem subset and
    return the verdicts in selector order, each carrying its ``subset``.

    ``subsets`` may be "all" (every subset of size >= 2), "full", "pairs",
    an integer size, or an explicit iterable of index tuples.  Selector
    order is by size, then lexicographic; an explicit list is normalised to
    ascending tuples, deduplicated and put in that order.  Every norm
    verdict of the necessary criterion is made here, from components
    stacked by shape through ``_groups`` and norms from ``_kyfan_norms``,
    which takes one SVD call per component shape, or per shape and mode
    where the subset's dimensions differ.  The bound is computed once per
    stack, whose shape fixes its subsets' dimensions.  A single-party state
    raises ``ValueError`` under every selector, and a ``rho`` that is not a
    DensityMatrix under every one too.
    """
    _instance(rho, DensityMatrix, "rho")
    subsets = _select_subsets(rho.n_parties, subsets)
    return _norm_verdicts(rho, subsets, _groups(rho, subsets))


def _side(value, limit, guard):
    """+1 above ``limit + guard``, -1 below ``limit - guard`` and 0 in the
    closed band between, elementwise on an array: every verdict's rule."""
    return (value > limit + guard) * 1 - (value < limit - guard)


def _norm_verdicts(rho: DensityMatrix, subsets: list, groups: list) -> list:
    """The necessary criterion's verdicts on ``subsets``, whose components
    ``groups`` holds stacked by shape, in the order of ``subsets``: the one
    home of its bound.  A norm above the band is Entangled."""
    norms, bounds = _kyfan_norms(groups), np.empty(len(subsets))
    for positions, _ in groups:
        bounds[positions] = separability_bound([rho.dims[k] for k in subsets[positions[0]]])
    sides = _side(np.array(norms), bounds, BOUND_GUARD).tolist()
    decisions = (Decision.INCONCLUSIVE, Decision.INCONCLUSIVE, Decision.ENTANGLED)
    return [Verdict(decisions[side + 1], norm, bound, "necessary-norm", side == 0, None, subset)
            for subset, norm, bound, side in zip(subsets, norms, bounds.tolist(), sides)]


def qubit_exact_test(rho: DensityMatrix) -> Verdict:
    """Exact separability decision for the qubit class with only top-order
    correlations.

    Applies to N-qubit states whose coherence vectors and proper-subset
    tensors all vanish and whose full tensor admits a completely orthogonal
    rank-1 decomposition.  On that class the state is separable exactly when
    the Ky Fan norm (the decomposition's weight sum) is at most 1.  Unmet
    preconditions yield Inconclusive with a reason code; the proper
    components are read one order at a time, up to the first order that
    holds a nonzero one.
    """
    crit = "qubit-exact"
    _instance(rho, DensityMatrix, "rho")
    n = rho.n_parties
    if n < 2 or any(d != 2 for d in rho.dims):
        return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason="not-a-multiqubit-state")
    # the subsets of one size are a contiguous run of the component order
    for size, run in groupby(_subsets(n)[:-1], len):
        ((_, stack),) = _groups(rho, run)
        if any(np.linalg.norm(c) > ZERO_COMPONENT_TOL for c in stack):
            reason = "coherence-vectors-nonzero" if size == 1 else "lower-order-tensors-nonzero"
            return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason=reason)
    stacks, _ = _orthogonal_forms(_groups(rho, _subsets(n)[-1:]))
    if stacks is None:
        reason = "no-orthogonal-decomposition"
        return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason=reason)
    norm = float(stacks[0].sums()[0])
    side = _side(norm, 1.0, BOUND_GUARD)
    decision = (Decision.SEPARABLE, Decision.INCONCLUSIVE, Decision.ENTANGLED)[side + 1]
    return Verdict(decision, norm, 1.0, crit, borderline=side == 0)


def _sufficiency_parts(rho: DensityMatrix):
    """Shared workhorse for the sufficiency sum and the decomposition.

    Returns (lhs, [(c_S, stack)]), the completely orthogonal forms of every
    component, coherence vectors included, as ``tensors._FormStack`` stacks
    by shape, each with the c_S of its subsets' dims, which its shape
    fixes; or (None, failing_subset) for the first component, in component
    order, whose order >= 3 tensor has none.  lhs adds each component's
    c_S times its weight sum in component order.
    """
    _instance(rho, DensityMatrix, "rho")
    subsets = _subsets(rho.n_parties)
    stacks, failed = _orthogonal_forms(_groups(rho))
    if stacks is None:
        return None, subsets[failed]
    parts, terms = [], np.empty(len(subsets))
    for stack in stacks:
        dims = [rho.dims[k] for k in subsets[stack.members[0]]]
        coef = math.sqrt(math.prod(2.0 * (d - 1) / d for d in dims))
        terms[stack.members] = coef * stack.sums()
        parts.append((coef, stack))
    total = 0.0
    for term in terms.tolist():
        total += term
    return total, parts


def sufficiency_test(rho: DensityMatrix) -> Verdict:
    """Sufficient criterion: ``norm_value`` is the weighted sum over every
    nonempty subset S of subsystems

        lhs = sum_S c_S ||T^S||_KF,   c_S = sqrt(prod_{k in S} 2(d_k - 1)/d_k),

    where T^S for a single subsystem is its coherence vector, whose Ky Fan
    norm is its Euclidean norm; lhs <= 1 certifies separability.  lhs is
    None when some tensor of order >= 3 has no completely orthogonal
    decomposition.  Only lhs below the band of ``SUFFICIENCY_SLACK`` around 1
    certifies: inside it the verdict is borderline, "sum-within-guard-band"."""
    crit = "sufficiency-sum"
    total, parts = _sufficiency_parts(rho)
    if total is None:
        reason = f"no-orthogonal-decomposition:{parts}"
        return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason=reason)
    side = _side(total, 1.0, SUFFICIENCY_SLACK)
    decision = Decision.SEPARABLE if side < 0 else Decision.INCONCLUSIVE
    reason = (None, "sum-within-guard-band", "sum-exceeds-one")[side + 1]
    return Verdict(decision, total, 1.0, crit, borderline=side == 0, reason=reason)


def separable_decomposition(rho: DensityMatrix) -> SeparableDecomposition:
    """Materialize the mixture of product states promised by the sufficient
    criterion.

    Each rank-1 term of a component's orthogonal decomposition, on a subset
    of M subsystems, contributes 2^(M-1) sign-balanced product terms whose
    lower-order contributions cancel row-wise; a nonzero coherence vector
    (M = 1) thus gives one term.  Terms of weight at most ``WEIGHT_CUTOFF``
    are dropped.  Factor vectors are rescaled onto the subsystem inball so
    each factor is a valid state, and the leftover weight goes to the
    maximally mixed state.  Terms run by component, then rank-1 term, then
    sign row.  Raises CriterionUnavailableError wherever p2 is not Separable,
    so ``identity_weight`` is at least ``SUFFICIENCY_SLACK``.
    """
    total, parts = _sufficiency_parts(rho)
    if total is None:
        raise CriterionUnavailableError(
            f"{_name(parts)} has no completely orthogonal rank-1 decomposition")
    side = _side(total, 1.0, SUFFICIENCY_SLACK)
    if side >= 0:
        where = "exceeds 1" if side else f"lies within {SUFFICIENCY_SLACK:g} of 1"
        raise CriterionUnavailableError(f"weighted component norm sum {total:.12g} {where}; "
                                        "the sufficient criterion does not apply")
    dims, subsets = rho.dims, _subsets(rho.n_parties)
    inball = [ball_radii(d)[0] for d in dims]
    tables = {m: sign_table(m) for m in {len(stack.factors) for _, stack in parts}}
    # per stack: its weights shared out over 2^(M-1) sign rows, which of
    # them make terms, and each term's rank among its component's, from 1
    plans = []
    counts = np.zeros(len(subsets), dtype=np.intp)
    for coef, stack in parts:
        if not stack.keep.any():
            continue  # zero components, such as vanishing coherence vectors
        table = tables[len(stack.factors)]
        w = coef * stack.weights * (1.0 / len(table))
        kept = stack.keep & (w > WEIGHT_CUTOFF)
        if kept.any():
            ranks = np.cumsum(kept, axis=1)
            counts[stack.members] = ranks[:, -1] * len(table)
            plans.append((stack, table, w, kept, ranks))
    ends = np.cumsum(counts)
    starts, rank = ends - counts, int(ends[-1])
    # each factor is a term-major C-ordered matrix read transposed: the layout
    # fixes the BLAS path of assembly, and with it the residual's last bits;
    # a component's rows are zero on the subsystems it does not hold.  The
    # matrices of the subsystems of one dimension are slices of one array,
    # so a stack fills each position's with one scatter
    blocks = {d: np.zeros((dims.count(d), rank, d * d - 1)) for d in set(dims)}
    slots = np.array([dims[:k].count(d) for k, d in enumerate(dims)])
    weights = np.empty(rank)
    for stack, table, w, kept, ranks in plans:
        c, j = np.nonzero(kept)
        # row (c, j, r) is term j of component c under sign row r: a
        # component's terms run from its start, each over its sign rows
        signs = len(table)
        rows = (starts[stack.members[c]] + (ranks[c, j] - 1) * signs)[:, None] + np.arange(signs)
        weights[rows] = w[c, j][:, None]
        # the slot of each term's subsystem at each position; a position's
        # subsystems share one dimension, that of the first member's
        held = slots[np.array([subsets[i] for i in stack.members.tolist()])[c]]
        for pos, (factor, k) in enumerate(zip(stack.factors, subsets[stack.members[0]])):
            block = inball[k] * factor[c, :, j][:, None] * table[:, pos, None]
            blocks[dims[k]][held[:, pos, None], rows] = block
    factors = [blocks[d][slot] for d, slot in zip(dims, slots.tolist())]
    terms = KruskalForm(weights, [f.T for f in factors])
    return SeparableDecomposition(dims=dims, terms=terms, identity_weight=1.0 - total)


def _mixture_matrix(dec: SeparableDecomposition) -> np.ndarray:
    """The matrix of the mixture ``dec`` describes, not validated.

    A product term (x)_k (I + v_k . g)/d_k has the rank-1 coefficient array
    (x)_k (1, v_k), so a row of ones on each factor matrix of ``dec.terms``
    gives the Kruskal form of the coefficient array; the maximally mixed
    remainder adds ``identity_weight`` at index 0...0.  The inverse
    coefficient map turns the sum into a matrix.
    """
    form = dec.terms
    coeff = kruskal_to_tensor(KruskalForm(
        form.weights, [np.vstack([np.ones((1, form.rank)), f]) for f in form.factors]))
    coeff[(0,) * len(dec.dims)] += dec.identity_weight
    return _from_coefficients(dec.dims, coeff)


def assemble_decomposition(dec: SeparableDecomposition) -> DensityMatrix:
    """Turn a separable decomposition back into its density matrix, which is
    validated: ``dec`` may come from outside the package."""
    _instance(dec, SeparableDecomposition, "dec")
    return DensityMatrix(dec.dims, _mixture_matrix(dec))


# Every criterion key: its verdicts on a state under a subset selector, and
# whether ``--criteria all`` runs it.  Each entry looks its function up by
# name when called, so a wrapper rebound over the module attribute sees every call.
_CRITERIA = {
    "t1": (lambda rho, subsets: [necessary_test(rho)], False),
    "c1": (lambda rho, subsets: subset_scan(rho, subsets), True),
    "c2": (lambda rho, subsets: [qubit_exact_test(rho)], True),
    "p2": (lambda rho, subsets: [sufficiency_test(rho)], True),
}


def threshold_search(family, criterion: str = "t1") -> float | None:
    """Locate the noise weight p in [0, 1] where a criterion's verdict flips.

    ``family`` is a ZooSpec of a noise family with ``noise`` left unset; an
    unknown family is named as such before the noise parameter is looked for.
    Zoo families have the form (1-p)/D I + p sigma, so the flip is computed
    in closed form from one evaluation of the criterion on sigma (the state
    at p = 1), where p times a norm crosses its band's upper edge, or the sum
    its lower edge.  Returns None when the verdict never flips on [0, 1], and
    0.0 when the state is flagged at every p > 0.
    """
    if criterion not in _CRITERIA:
        raise ValueError(
            f"unknown criterion {criterion!r} (known: {', '.join(_CRITERIA)})"
        )
    _instance(family, ZooSpec, "family")
    if not family.noise_parameterized:
        raise ValueError(f"family {family.family!r} has no noise parameter to sweep")
    if family.noise is not None:
        raise ValueError("a threshold sweeps the noise weight itself; "
                         f"leave noise unset (got {family.noise})")
    # every coherence vector and correlation tensor of the mixture is p times
    # sigma's, so each norm and the sufficiency sum grow linearly in p
    verdicts = _CRITERIA[criterion][0](family._state(), "all")
    edge, crossed = BOUND_GUARD, Decision.ENTANGLED
    if criterion == "p2":
        if verdicts[0].norm_value is None:
            # the orthogonal-form cutoff is relative to the tensor's
            # scale, so the sum is unavailable at every p > 0 as well
            return 0.0
        edge, crossed = -SUFFICIENCY_SLACK, Decision.INCONCLUSIVE
    return min(((v.bound_value + edge) / v.norm_value
                for v in verdicts if v.decision is crossed), default=None)


def noise_threshold_table(max_parties: int = 6) -> list:
    """Entanglement thresholds of the white-noise GHZ and W families for
    3..max_parties qubits under the necessary norm test, each in closed
    form.  Returns rows of (family, parties, threshold).  Raises ValueError
    when max_parties is below 3 or its states would not fit in memory, before
    any state is built."""
    max_parties = _integer(max_parties, "max_parties")
    if max_parties < 3:
        raise ValueError(f"max_parties must be at least 3, the size of the table's "
                         f"first row (got {max_parties})")
    _check_fits((2,), max_parties)
    rows = []
    for fam in ("ghz-noisy", "w-noisy"):
        for n in range(3, max_parties + 1):
            p_star = threshold_search(ZooSpec(fam, parties=n))
            rows.append((fam, n, p_star))
    return rows
