"""Tests for the separability criteria, decompositions, and threshold
search."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from blochsep import (
    CriterionUnavailableError,
    Decision,
    DensityMatrix,
    ZooSpec,
    assemble_decomposition,
    ball_radii,
    basis_ket,
    bloch_vector,
    correlation_tensor,
    duer_be4,
    ghz,
    kron,
    maximally_mixed,
    necessary_test,
    noise_threshold_table,
    noisy,
    partial_trace,
    projector,
    qubit_exact_test,
    reconstruct,
    reduced_w_noisy,
    separability_bound,
    separable_decomposition,
    smolin,
    state_234,
    subset_scan,
    sufficiency_test,
    tensor_kyfan,
    threshold_search,
    w_state,
    zoo_state,
)
from conftest import (bisect_threshold, diagonal_qubit_state, empty_bloch_data,
                      random_pure_product, random_separable, random_unitary)


def test_separability_bound_values():
    assert separability_bound((2, 2)) == pytest.approx(1.0)
    assert separability_bound((2,) * 5) == pytest.approx(1.0)
    assert separability_bound((3, 3)) == pytest.approx(3.0)
    assert separability_bound((3, 3, 3)) == pytest.approx(np.sqrt(27))
    assert separability_bound((2, 3, 4)) == pytest.approx(np.sqrt(18))
    with pytest.raises(ValueError):
        separability_bound((2, 1))


def test_necessary_test_flags_bound_entangled_states():
    v = necessary_test(smolin())
    assert v.decision == Decision.ENTANGLED
    assert v.norm_value == pytest.approx(3.0, abs=1e-9)
    assert v.bound_value == pytest.approx(1.0)
    w = necessary_test(duer_be4())
    assert w.decision == Decision.ENTANGLED
    assert w.norm_value == pytest.approx(1.4, abs=1e-6)


def test_necessary_test_never_claims_separable():
    for rho in [maximally_mixed((2, 2, 2)), zoo_state("werner", noise=0.1),
                noisy(w_state(3), 0.2)]:
        v = necessary_test(rho)
        assert v.decision == Decision.INCONCLUSIVE


def test_necessary_test_rejects_single_subsystem():
    with pytest.raises(ValueError):
        necessary_test(maximally_mixed((3,)))


def test_borderline_flag_on_product_state():
    v0 = basis_ket((0,), (2,))
    rho = DensityMatrix((2, 2), projector(np.kron(v0, v0)))
    v = necessary_test(rho)
    assert v.decision == Decision.INCONCLUSIVE
    assert v.borderline
    assert v.norm_value == pytest.approx(v.bound_value, abs=1e-9)


def test_subset_scan_selectors():
    g = ghz(3)
    assert [v.subset for v in subset_scan(g, "full")] == [(0, 1, 2)]
    assert [v.subset for v in subset_scan(g, "pairs")] == [
        (0, 1), (0, 2), (1, 2)]
    assert [v.subset for v in subset_scan(g, "all")] == [
        (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert [v.subset for v in subset_scan(g, 2)] == [
        (0, 1), (0, 2), (1, 2)]
    assert [v.subset for v in subset_scan(g, [(2, 0)])] == [(0, 2)]
    assert [v.subset for v in subset_scan(g, [(1, 2), (0, 1, 2), (0, 1)])] == [
        (0, 1), (1, 2), (0, 1, 2)]
    with pytest.raises(ValueError):
        subset_scan(g, "everything")
    with pytest.raises(ValueError):
        subset_scan(g, [(0,)])


def test_subset_scan_returns_the_necessary_verdicts():
    rho = state_234()
    verdicts = subset_scan(rho, "all")
    assert verdicts == [necessary_test(rho, v.subset) for v in verdicts]
    assert necessary_test(rho).subset == (0, 1, 2)
    assert necessary_test(rho, [2, 0, 2]).subset == (0, 2)
    assert necessary_test(rho, [2, 0]) == verdicts[1]


def test_subset_scan_ghz_pairs_borderline():
    for v in subset_scan(ghz(3), "pairs"):
        assert v.norm_value == pytest.approx(1.0, abs=1e-9)
        assert v.bound_value == pytest.approx(1.0)
        assert v.decision == Decision.INCONCLUSIVE
        assert v.borderline


def test_subset_scan_reduced_noisy_w():
    # tracing two parties from a noisy six-party W leaves a four-party state
    # that the full-tensor test certifies at p = 0.6
    rho = reduced_w_noisy(6, 2, 0.6)
    (v,) = subset_scan(rho, "full")
    assert v.decision == Decision.ENTANGLED


def test_subset_scan_product_state_inconclusive():
    rng = np.random.default_rng(23)
    rho = DensityMatrix((2, 2, 3), random_pure_product(rng, (2, 2, 3)))
    for v in subset_scan(rho, "all"):
        assert v.decision == Decision.INCONCLUSIVE
        assert v.norm_value <= v.bound_value + 1e-9


@pytest.mark.parametrize("guard", [-2.0, float("nan"), float("inf")])
def test_criteria_reject_bad_guard(guard):
    rho = maximally_mixed((2, 2))
    for test in (necessary_test, subset_scan, qubit_exact_test):
        with pytest.raises(ValueError, match="guard"):
            test(rho, guard=guard)


def test_qubit_exact_decides_diagonal_states():
    assert qubit_exact_test(smolin()).decision == Decision.ENTANGLED
    v = qubit_exact_test(diagonal_qubit_state(4, (0.3, 0.3, 0.3)))
    assert v.decision == Decision.SEPARABLE
    assert v.norm_value == pytest.approx(0.9, abs=1e-10)


def test_qubit_exact_reason_codes():
    assert qubit_exact_test(noisy(ghz(3), 0.5)).reason == "lower-order-tensors-nonzero"
    assert qubit_exact_test(w_state(3)).reason == "coherence-vectors-nonzero"
    assert qubit_exact_test(ghz(3, 3)).reason == "not-a-multiqubit-state"
    data = empty_bloch_data((2, 2, 2))
    arr = np.zeros((3, 3, 3))
    arr[0, 0, 0] = 0.5
    arr[0, 1, 2] = 0.3
    data.tensors[(0, 1, 2)] = arr
    rho = reconstruct(data)
    assert qubit_exact_test(rho).reason == "no-orthogonal-decomposition"


def test_sufficiency_lhs_closed_forms():
    def lhs(rho):
        return sufficiency_test(rho).norm_value

    for p in (0.1, 0.25, 0.33):
        assert lhs(zoo_state("werner", noise=p)) == pytest.approx(3 * p, abs=1e-10)
    for t in (0.2, 0.7):
        assert lhs(diagonal_qubit_state(3, (0, 0, t))) == pytest.approx(t, abs=1e-10)
    assert lhs(noisy(ghz(3), 0.5)) is None


def test_sufficiency_verdicts():
    assert sufficiency_test(maximally_mixed((2, 3))).decision == Decision.SEPARABLE
    assert sufficiency_test(zoo_state("werner", noise=0.3)).decision == Decision.SEPARABLE
    v = sufficiency_test(smolin())
    assert v.decision == Decision.INCONCLUSIVE
    assert v.reason == "sum-exceeds-one"
    g = sufficiency_test(ghz(3))
    assert g.decision == Decision.INCONCLUSIVE
    assert "orthogonal" in g.reason


def test_decomposition_werner():
    rho = zoo_state("werner", noise=0.3)
    dec = separable_decomposition(rho)
    assert len(dec.terms) == 6
    np.testing.assert_allclose([w for w, _ in dec.terms], 0.15, atol=1e-10)
    assert dec.identity_weight == pytest.approx(0.1, abs=1e-10)
    residual = np.abs(assemble_decomposition(dec).matrix - rho.matrix).max()
    assert residual <= 1e-10


def test_decomposition_diagonal_three_qubit():
    rho = diagonal_qubit_state(3, (0, 0, 0.8))
    dec = separable_decomposition(rho)
    assert len(dec.terms) == 4
    np.testing.assert_allclose([w for w, _ in dec.terms], 0.2, atol=1e-10)
    assert dec.identity_weight == pytest.approx(0.2, abs=1e-10)
    assert np.abs(assemble_decomposition(dec).matrix - rho.matrix).max() <= 1e-9


def test_decomposition_identity_only():
    dec = separable_decomposition(maximally_mixed((2, 2)))
    assert len(dec.terms) == 0
    assert dec.identity_weight == pytest.approx(1.0)


def test_decomposition_unavailable():
    with pytest.raises(CriterionUnavailableError):
        separable_decomposition(ghz(3))
    with pytest.raises(CriterionUnavailableError):
        separable_decomposition(smolin())


def decomposition_grid():
    rng = np.random.default_rng(25)
    yield zoo_state("werner", noise=0.05)
    yield zoo_state("werner", noise=0.25)
    yield diagonal_qubit_state(3, (0, 0.3, 0.4))
    yield diagonal_qubit_state(4, (0.2, 0.2, 0.2))
    v = np.kron(basis_ket((0,), (2,)), basis_ket((1,), (3,)))
    yield noisy(DensityMatrix((2, 3), projector(v)), 0.1)
    yield zoo_state("qutrit-ghz-noisy", parties=2, noise=0.05)
    yield zoo_state("ghz-noisy", parties=2, levels=4, noise=0.02)


def test_decomposition_invariants():
    for rho in decomposition_grid():
        dec = separable_decomposition(rho)
        total = sum(w for w, _ in dec.terms) + dec.identity_weight
        assert total == pytest.approx(1.0, abs=1e-10)
        for weight, factors in dec.terms:
            assert weight > 0
            assert len(factors) == len(rho.dims)
            for d, vec in zip(rho.dims, factors):
                r, _ = ball_radii(d)
                assert np.linalg.norm(vec) <= r + 1e-10
        rebuilt = assemble_decomposition(dec)
        assert np.abs(rebuilt.matrix - rho.matrix).max() <= 1e-9


def test_soundness_on_random_separable_states():
    rng = np.random.default_rng(26)
    for _ in range(80):
        dims = [(2, 2), (2, 3), (3, 3, 2), (2, 2, 2)][rng.integers(4)]
        rho = random_separable(rng, dims, n_terms=int(rng.integers(1, 9)))
        assert necessary_test(rho).decision != Decision.ENTANGLED
        for v in subset_scan(rho, "all"):
            assert v.decision != Decision.ENTANGLED
            assert v.norm_value <= v.bound_value + 1e-9


def test_no_state_both_separable_and_entangled():
    rng = np.random.default_rng(27)
    candidates = [zoo_state("werner", noise=p) for p in np.linspace(0, 1, 9)]
    candidates += [diagonal_qubit_state(3, (0, 0, t)) for t in (0.3, 0.9, 1.0)]
    candidates += [random_separable(rng, (2, 2, 2)) for _ in range(5)]
    for rho in candidates:
        t1 = necessary_test(rho).decision
        p2 = sufficiency_test(rho).decision
        assert not (t1 == Decision.ENTANGLED and p2 == Decision.SEPARABLE)


def test_verdicts_invariant_under_local_unitaries():
    rng = np.random.default_rng(28)
    for rho in [smolin(), zoo_state("werner", noise=0.8), noisy(ghz(3), 0.6)]:
        us = [random_unitary(rng, d) for d in rho.dims]
        big = kron(*us)
        rotated = DensityMatrix(rho.dims, big @ rho.matrix @ big.conj().T)
        a, b = necessary_test(rho), necessary_test(rotated)
        assert a.decision == b.decision
        assert a.norm_value == pytest.approx(b.norm_value, abs=1e-8)


def test_pure_state_criterion_chain():
    # a pure state is a full product exactly when its full tensor is the
    # outer product of its coherence vectors, and then every one-party
    # marginal is pure; GHZ and W fail both
    def outer_gap(rho):
        singles = [bloch_vector(rho, k) for k in range(3)]
        product = reduce(np.multiply.outer, singles)
        return np.linalg.norm(correlation_tensor(rho, (0, 1, 2)) - product)

    def pure_marginals(rho):
        marginals = [partial_trace(rho, (k,)).matrix for k in range(3)]
        return [np.vdot(m, m).real >= 1 - 1e-8 for m in marginals]

    rng = np.random.default_rng(29)
    prod = DensityMatrix((2, 2, 2), random_pure_product(rng, (2, 2, 2)))
    assert outer_gap(prod) <= 1e-8
    assert pure_marginals(prod) == [True] * 3
    full = correlation_tensor(prod, (0, 1, 2))
    norms = [np.linalg.norm(bloch_vector(prod, k)) for k in range(3)]
    assert tensor_kyfan(full) == pytest.approx(np.prod(norms), abs=1e-8)
    for rho in (ghz(3), w_state(3)):
        assert outer_gap(rho) > 1e-8
        assert pure_marginals(rho) == [False] * 3


def test_noise_scales_tensor_norm():
    for base in [ghz(3), w_state(4), state_234()]:
        subset = tuple(range(base.n_parties))
        pure_norm = tensor_kyfan(correlation_tensor(base, subset))
        for p in (0.2, 0.7):
            mixed_norm = tensor_kyfan(correlation_tensor(noisy(base, p), subset))
            assert mixed_norm == pytest.approx(p * pure_norm, abs=1e-10)


def test_threshold_search_known_values():
    assert threshold_search(ZooSpec(family="ghz-noisy", parties=3)) == pytest.approx(
        0.35355, abs=5e-4)
    assert threshold_search(ZooSpec(family="w-noisy", parties=4)) == pytest.approx(
        0.3018, abs=5e-4)
    assert threshold_search(ZooSpec(family="werner")) == pytest.approx(
        1 / 3, abs=2e-6)
    assert threshold_search(ZooSpec(family="werner"), criterion="p2") == pytest.approx(
        1 / 3, abs=2e-6)


def test_threshold_search_edge_cases():
    assert bisect_threshold(lambda p: maximally_mixed((2, 2))) is None
    assert bisect_threshold(lambda p: noisy(ghz(2), 0.9)) == 0.0
    assert bisect_threshold(lambda p: noisy(ghz(2), p)) == pytest.approx(
        1 / 3, abs=2e-6)
    for family in ("werner", lambda p: noisy(ghz(2), p)):
        with pytest.raises(TypeError):
            threshold_search(family)
    with pytest.raises(ValueError, match="unknown criterion"):
        threshold_search(ZooSpec(family="werner"), criterion="t2")
    with pytest.raises(ValueError, match="no noise parameter"):
        threshold_search(ZooSpec(family="smolin"))


CLOSED_FORM_CASES = [
    (ZooSpec(family="werner"), "t1"),
    (ZooSpec(family="werner"), "c2"),
    (ZooSpec(family="werner"), "p2"),
    (ZooSpec(family="ghz-noisy", parties=3), "c1"),
    (ZooSpec(family="ghz-noisy", parties=3), "p2"),
    (ZooSpec(family="reduced-w-noisy", parties=6, removed=3), "t1"),
    (ZooSpec(family="reduced-w-noisy", parties=6, removed=4), "t1"),
    (ZooSpec(family="qutrit-ghz-noisy", parties=3), "t1"),
    (ZooSpec(family="state-234-noisy"), "c1"),
]


@pytest.mark.parametrize("spec, criterion", CLOSED_FORM_CASES)
def test_closed_form_threshold_matches_bisection(spec, criterion):
    closed = threshold_search(spec, criterion)
    reference = bisect_threshold(lambda p: replace(spec, noise=p).build(), criterion, tol=1e-9)
    if reference is None:
        assert closed is None
    else:
        assert closed == pytest.approx(reference, abs=1e-9)


@pytest.mark.parametrize("criterion", ["t1", "c2", "p2"])
def test_werner_thresholds_are_one_third(criterion):
    assert threshold_search(ZooSpec(family="werner"), criterion) == pytest.approx(
        1 / 3, abs=1e-9)


def test_noise_threshold_table_small():
    rows = noise_threshold_table(max_parties=4)
    as_dict = {(fam, n): p for fam, n, p in rows}
    assert as_dict[("ghz-noisy", 3)] == pytest.approx(0.35355, abs=5e-4)
    assert as_dict[("ghz-noisy", 4)] == pytest.approx(0.2, abs=5e-4)
    assert as_dict[("w-noisy", 3)] == pytest.approx(0.3068, abs=5e-4)
    assert as_dict[("w-noisy", 4)] == pytest.approx(0.3018, abs=5e-4)
