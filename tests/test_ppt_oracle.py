"""Soundness of the verdicts against the partial-transpose (PPT) oracle.

Every separable state has a positive partial transpose across every
bipartite cut, and on 2x2 and 2x3 a positive partial transpose is also
enough for separability.  So an Entangled verdict there must come with a
negative eigenvalue of the partial transpose, and a Separable verdict must
never come with one on any cut.
"""

from itertools import combinations

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from blochsep import (
    CriterionUnavailableError,
    Decision,
    DensityMatrix,
    ZooSpec,
    assemble_decomposition,
    ghz,
    necessary_test,
    noisy,
    qubit_exact_test,
    separable_decomposition,
    subset_scan,
    sufficiency_test,
    threshold_search,
)
from blochsep.tolerances import SUFFICIENCY_SLACK
from conftest import decomposition_candidates, random_density, random_separable


def partial_transpose(rho, parties):
    """rho with the row and column indices of ``parties`` swapped."""
    n = rho.n_parties
    axes = list(range(2 * n))
    for k in parties:
        axes[k], axes[n + k] = n + k, k
    dim = rho.matrix.shape[0]
    return rho.matrix.reshape(rho.dims * 2).transpose(axes).reshape(dim, dim)


def min_pt_eigenvalue(rho, parties):
    return float(np.linalg.eigvalsh(partial_transpose(rho, parties))[0])


def cuts(n):
    """One side of every bipartition of n parties (the other side's
    partial transpose is the full transpose of this one)."""
    return [(0, *rest) for m in range(n - 1) for rest in combinations(range(1, n), m)]


@st.composite
def noisy_states(draw, dims_choices):
    """(1-p)/D I + p sigma for a random sigma of random rank."""
    dims = draw(st.sampled_from(dims_choices))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, int(np.prod(dims))))
    return noisy(random_density(rng, dims, rank), draw(st.floats(0.0, 1.0)))


def test_partial_transpose_oracle():
    # the Bell state is NPT on its one cut and the identity PPT
    bell = np.zeros((4, 4), complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    assert min_pt_eigenvalue(DensityMatrix((2, 2), bell), (0,)) == pytest.approx(-0.5)
    assert min_pt_eigenvalue(DensityMatrix((2, 2), np.eye(4) / 4), (0,)) == 0.25
    assert cuts(3) == [(0,), (0, 1), (0, 2)]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_noisy_ghz_meets_the_duer_cirac_threshold(n):
    """(1-p)/D I + p GHZ_N is fully separable for p up to
    p_DC = 1/(1 + 2^(N-1)) and NPT across every cut above it (Dür & Cirac,
    Phys. Rev. A 61, 042314 (2000)).  So t1 and c1 may flip no lower than
    p_DC, and c2 and p2 never say Separable above it."""
    p_dc = 1 / (1 + 2 ** (n - 1))
    below = noisy(ghz(n), p_dc * (1 - 1e-6))
    for parties in cuts(n):
        assert min_pt_eigenvalue(below, parties) >= 0.0
    assert min_pt_eigenvalue(noisy(ghz(n), p_dc * (1 + 1e-6)), (0,)) < 0.0
    for criterion in ("t1", "c1"):
        assert threshold_search(ZooSpec("ghz-noisy", parties=n), criterion) >= p_dc
    for p in np.linspace(p_dc * (1 + 1e-6), 1.0, 5):
        rho = noisy(ghz(n), p)
        assert qubit_exact_test(rho).decision is not Decision.SEPARABLE
        assert sufficiency_test(rho).decision is not Decision.SEPARABLE


@settings(max_examples=200, deadline=None)
@given(rho=noisy_states([(2, 2), (2, 3)]))
def test_norm_entangled_verdicts_are_npt(rho):
    for v in [necessary_test(rho), *subset_scan(rho, "all")]:
        if v.decision is Decision.ENTANGLED:
            assert min_pt_eigenvalue(rho, (0,)) < 0.0


@settings(max_examples=200, deadline=None)
@given(rho=st.one_of(noisy_states([(2, 2), (2, 3), (3, 3), (2, 4)]),
                     decomposition_candidates()))
def test_sufficiency_separable_verdicts_are_ppt(rho):
    if sufficiency_test(rho).decision is Decision.SEPARABLE:
        for parties in cuts(rho.n_parties):
            assert min_pt_eigenvalue(rho, parties) >= -1e-10


@settings(max_examples=150, deadline=None)
@given(dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 3, 2), (2, 2, 2, 2)]),
       n_terms=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_mixtures_of_products_are_never_entangled(dims, n_terms, seed):
    rho = random_separable(np.random.default_rng(seed), dims, n_terms)
    verdicts = [necessary_test(rho), *subset_scan(rho, "all"),
                qubit_exact_test(rho), sufficiency_test(rho)]
    assert all(v.decision is not Decision.ENTANGLED for v in verdicts)


@settings(max_examples=150, deadline=None)
@given(rho=decomposition_candidates())
def test_every_decomposition_rebuilds_its_state(rho):
    try:
        dec = separable_decomposition(rho)
    except CriterionUnavailableError:
        return
    assert np.abs(assemble_decomposition(dec).matrix - rho.matrix).max() <= 1e-10
    assert abs(dec.terms.weights.sum() + dec.identity_weight - 1.0) <= 1e-10
    assert dec.identity_weight >= SUFFICIENCY_SLACK


def in_the_band(verdict):
    return (verdict.decision, verdict.borderline, verdict.reason) == (
        Decision.INCONCLUSIVE, True, "sum-within-guard-band")


@pytest.mark.parametrize("excess", [1e-12, 1e-11, 3e-11])
def test_p2_is_borderline_on_npt_werner_states_in_its_band(excess):
    """Werner's sum is 3p, so these states lie 3e-12 to 9e-11 above 1,
    inside the band of SUFFICIENCY_SLACK = 1e-10 around it, and their
    partial transposes have eigenvalues -0.75 excess: p2 cannot certify
    them, and no decomposition is built."""
    rho = ZooSpec("werner", noise=1 / 3 + excess).build()
    assert min_pt_eigenvalue(rho, (0,)) == pytest.approx(-0.75 * excess, rel=1e-3)
    assert in_the_band(sufficiency_test(rho))
    with pytest.raises(CriterionUnavailableError):
        separable_decomposition(rho)


def test_p2_is_borderline_on_werner_at_one_third():
    # the true sum is 1, on the bound, and the computed one 1 - 2.2e-16
    rho = ZooSpec("werner", noise=1 / 3).build()
    v = sufficiency_test(rho)
    assert v.norm_value == 1.0 - 2.0**-52
    assert in_the_band(v)


# each sign pattern of t with t_1 t_2 t_3 < 0: there the tetrahedron of
# Bell-diagonal states reaches beyond the octahedron sum_i |t_i| <= 1 of
# the separable ones, and its states beyond it are NPT
SIGNS = [np.array([a, b, -a * b]) for a in (1.0, -1.0) for b in (1.0, -1.0)]
PAULI = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def bell_diagonal(share, delta, signs):
    """(I + sum_i t_i sigma_i x sigma_i)/4, its |t_i| in the proportions of
    ``share`` and summing to 1 + delta."""
    t = signs * np.asarray(share) / sum(share) * (1.0 + delta)
    return DensityMatrix((2, 2), (np.eye(4) + sum(
        w * np.kron(s, s) for w, s in zip(t.tolist(), PAULI))) / 4)


@settings(max_examples=300, deadline=None)
@given(share=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
       delta=st.one_of(st.floats(-1e-9, 1e-9),
                       st.sampled_from([0.0, 1e-15, 1e-12, 5e-11, 1e-10, -1e-10])),
       signs=st.sampled_from(SIGNS))
@example(share=[1.0, 1.0, 1.0], delta=5e-11, signs=SIGNS[0])
@example(share=[1.0, 0.5, 0.0], delta=1e-12, signs=SIGNS[3])
def test_p2_never_certifies_an_npt_bell_diagonal_state(share, delta, signs):
    """On 2x2, PPT decides separability, and a Bell-diagonal state whose
    correlations sum past 1 is NPT.  Within 1e-9 of that sum, p2 says
    Separable only where the partial transpose has no eigenvalue below
    -1e-15, and a decomposition, where one is built, leaves the identity
    a weight of at least the slack."""
    rho = bell_diagonal(share, delta, signs)
    npt = min_pt_eigenvalue(rho, (0,)) < -1e-15
    separable = sufficiency_test(rho).decision is Decision.SEPARABLE
    assert not (npt and separable)
    try:
        dec = separable_decomposition(rho)
    except CriterionUnavailableError:
        assert not separable
        return
    assert separable and dec.identity_weight >= SUFFICIENCY_SLACK
