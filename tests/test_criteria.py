"""Tests for the separability criteria, decompositions, and threshold
search."""

from dataclasses import replace
from functools import reduce
from itertools import combinations, permutations
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import blochsep.criteria
import blochsep.tensors
from blochsep.bloch import _plan, _subsets
from blochsep.criteria import _select_subsets, _sufficiency_parts
from blochsep.tensors import _kyfan_norms, _orthogonal_forms
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
    separability_bound,
    separable_decomposition,
    singular_values,
    smolin,
    state_234,
    subset_scan,
    sufficiency_test,
    tensor_kyfan,
    threshold_search,
    unfold,
    w_state,
)
from blochsep.tolerances import BOUND_GUARD
from conftest import (ZOO_GRID, bisect_threshold, component_views, count_calls,
                      decomposition_candidates, diagonal_qubit_state, empty_bloch_data,
                      low_rank_pair, per_component_exact_test, per_component_forms,
                      per_matrix_kyfan,
                      per_tensor_form, per_tensor_norms, per_term_assembly,
                      per_term_decomposition, random_density, random_pure_product,
                      random_separable, random_unitary, same_form, shape_groups,
                      stacked_forms)


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
    for rho in [maximally_mixed((2, 2, 2)), ZooSpec("werner", noise=0.1).build(),
                noisy(w_state(3), 0.2)]:
        v = necessary_test(rho)
        assert v.decision == Decision.INCONCLUSIVE


@pytest.mark.parametrize("dims, draws", [
    ((2, 2), 20), ((8, 8), 4), ((16, 16), 2), ((32, 32), 1), ((2,) * 10, 2), ((3,) * 6, 2),
], ids=["2x2", "8x8", "16x16", "32x32", "10-qubits", "6-qutrits"])
def test_necessary_test_is_borderline_on_pure_products(dims, draws):
    """A pure product state attains t1's bound, so its norm lands on the
    bound up to rounding: Inconclusive with the borderline flag, inside
    ``BOUND_GUARD``, never Entangled.  The largest norm - bound measured
    over many draws was 4.4e-16 at 2x2, 3.2e-14 at 8x8, 1.3e-12 at 16x16,
    1.0e-11 at 32x32, 2.4e-15 on 10 qubits and 4.6e-14 on 6 qutrits."""
    rng = np.random.default_rng(len(dims) * 100 + dims[0])
    for _ in range(draws):
        verdict = necessary_test(DensityMatrix(dims, random_pure_product(rng, dims)))
        assert verdict.decision == Decision.INCONCLUSIVE and verdict.borderline
        assert abs(verdict.norm_value - verdict.bound_value) < BOUND_GUARD


def test_necessary_test_rejects_single_subsystem():
    with pytest.raises(ValueError):
        necessary_test(maximally_mixed((3,)))


@pytest.mark.parametrize("selector", ["full", "all", "pairs", 2, [(0,)]],
                         ids=["full", "all", "pairs", "k2", "explicit"])
def test_subset_scan_refuses_a_single_party_under_every_selector(selector):
    with pytest.raises(ValueError, match="^the necessary test needs at least 2 subsystems, "
                                         "the state has 1$"):
        subset_scan(maximally_mixed((4,)), selector)


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
    assert verdicts == [subset_scan(rho, [v.subset])[0] for v in verdicts]
    assert necessary_test(rho).subset == (0, 1, 2)
    assert subset_scan(rho, [[2, 0, 2]])[0].subset == (0, 2)
    assert subset_scan(rho, [[2, 0]])[0] == verdicts[1]


def test_subset_scan_ghz_pairs_borderline():
    for v in subset_scan(ghz(3), "pairs"):
        assert v.norm_value == pytest.approx(1.0, abs=1e-9)
        assert v.bound_value == pytest.approx(1.0)
        assert v.decision == Decision.INCONCLUSIVE
        assert v.borderline


def test_subset_scan_reduced_noisy_w():
    # tracing two parties from a noisy six-party W leaves a four-party state
    # that the full-tensor test certifies at p = 0.6
    rho = ZooSpec("reduced-w-noisy", parties=6, removed=2, noise=0.6).build()
    (v,) = subset_scan(rho, "full")
    assert v.decision == Decision.ENTANGLED


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([(2, 2, 2, 2), (2, 3, 4), (3, 2, 2, 3), (3, 3, 3), (2, 3, 2, 3)]),
       seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), data=st.data())
def test_subset_scan_norms_equal_the_per_tensor_reference(dims, seed, rank, data):
    # stacking components by shape must hand LAPACK the very matrices the
    # per-tensor loop did: norms compare with ==, not within a tolerance
    rho = random_density(np.random.default_rng(seed), dims, rank)
    n = len(dims)
    every = [s for k in range(2, n + 1) for s in combinations(range(n), k)]
    # mixed shapes, out of order, indices unsorted, duplicates allowed; on
    # (2, 3, 2, 3) the pairs (0, 1) and (0, 3) share a stack that (0, 2) does
    # not, so verdicts in stack order would be out of selector order
    explicit = data.draw(st.lists(
        st.sampled_from(every).flatmap(st.permutations), min_size=1, max_size=12))
    selector_order = sorted({tuple(sorted(s)) for s in explicit}, key=lambda s: (len(s), s))
    for selector, order in (("all", every), ("pairs", every[:n * (n - 1) // 2]),
                            (explicit, selector_order)):
        verdicts = subset_scan(rho, selector)
        assert [v.subset for v in verdicts] == order
        assert [v.norm_value for v in verdicts] == per_tensor_norms(rho, order)


def test_selections_on_one_dims_give_their_own_records():
    # index plans are cached per (dims, selection): selections made one after
    # another, and again, on two states of one dims each give their own
    # subsets and norms
    _plan.cache_clear()
    rng = np.random.default_rng(34)
    states = [random_density(rng, (2, 3, 2, 2), rank=2) for _ in range(2)]
    selectors = ["all", "pairs", 3, "full", [(3, 1), (0, 2, 1), (1, 3)], 2, "all", 4]
    for rho in states:
        for selector in selectors:
            order = _select_subsets(4, selector)
            verdicts = subset_scan(rho, selector)
            assert [v.subset for v in verdicts] == order
            assert [v.norm_value for v in verdicts] == per_tensor_norms(rho, order)


def test_norms_agree_with_svds_of_the_row_oriented_unfoldings():
    # the norms take SVDs of transposed unfoldings; the singular values of
    # each unfolding as ``unfold`` gives it agree to rounding, and the
    # verdicts they give are the same.  Werner at p = 1/3 sits on its bound
    states = [random_density(np.random.default_rng(seed), dims, rank=1 + seed % 3)
              for dims in [(2, 2), (3, 3), (2, 3, 4), (2, 2, 2, 2), (3, 3, 3), (2,) * 6]
              for seed in range(4)]
    states.append(ZooSpec("werner", noise=1 / 3).build())
    seen = set()
    for rho in states:
        for v in subset_scan(rho, "all"):
            t = correlation_tensor(rho, v.subset)
            norm = max(singular_values(unfold(t, m)).sum() for m in range(t.ndim))
            assert v.norm_value == pytest.approx(norm, rel=1e-15, abs=0)
            entangled = norm > v.bound_value + BOUND_GUARD
            borderline = not entangled and norm >= v.bound_value - BOUND_GUARD
            assert (v.decision, v.borderline) == (
                Decision.ENTANGLED if entangled else Decision.INCONCLUSIVE, borderline)
            seen.add((v.decision, v.borderline))
    assert seen == {(Decision.ENTANGLED, False), (Decision.INCONCLUSIVE, False),
                    (Decision.INCONCLUSIVE, True)}


def test_norms_take_one_svd_call_per_shape(monkeypatch):
    # components of one shape share a stack, and when every mode of the
    # shape has one dimension, every unfolding has one matrix shape, so the
    # stack's unfoldings of all modes go to one SVD call: GHZ-6 has one
    # shape per size m = 2..6 (5 calls where the 57 subsets have 186
    # unfoldings).  A shape with unequal dimensions takes one call per mode:
    # psi-234's three pairs and full set all differ in shape (2 + 2 + 2 + 3)
    cases = {
        "ghz-6": (lambda: subset_scan(ghz(6), "all"), 5),
        "psi-234": (lambda: subset_scan(state_234(), "all"), 9),
        "order-4": (lambda: tensor_kyfan(np.ones((3, 3, 3, 3))), 1),
        "matrix": (lambda: tensor_kyfan(np.eye(3)), 1),
    }
    for name, (call, want) in cases.items():
        counts = {"svd": 0}
        with monkeypatch.context() as patch:
            count_calls(patch, counts, "svd", blochsep.tensors, "singular_values")
            call()
        assert counts["svd"] == want, name


def count_matrices(call) -> int:
    """How many matrices ``call`` hands to LAPACK through
    ``tensors.singular_values``."""
    counts = {"matrices": 0}
    svd = blochsep.tensors.singular_values

    def counted(matrix):
        counts["matrices"] += int(np.prod(np.shape(matrix)[:-2]))
        return svd(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blochsep.tensors, "singular_values", counted)
        call()
    return counts["matrices"]


def test_norms_send_each_distinct_unfolding_to_lapack_once():
    # the reduced states of a permutation-symmetric state coincide, and so,
    # bit for bit, do most of their correlation tensors and unfoldings:
    # GHZ-7 sends one matrix per shape where its 120 subsets have 441
    # unfoldings.  psi-234's shapes all differ, and a random state's tensors
    # differ from each other and from their cyclic shifts, so neither shares
    rng = np.random.default_rng(35)
    cases = {
        "ghz-6": (ghz(6), 186, 5),
        "ghz-7": (ghz(7), 441, 6),
        "w-7": (w_state(7), 441, 10),
        "w-8": (w_state(8), 1016, 13),
        "smolin": (smolin(), 28, 3),
        "psi-234": (state_234(), 9, 9),
        "random-6": (random_density(rng, (2,) * 6, rank=2), 186, 186),
    }
    for name, (rho, unfoldings, want) in cases.items():
        subsets = _select_subsets(rho.n_parties, "all")
        assert sum(len(s) for s in subsets) == unfoldings, name
        assert count_matrices(lambda: subset_scan(rho, "all")) == want, name


def symmetrized(rho: DensityMatrix) -> DensityMatrix:
    """``rho`` averaged over every permutation of its parties, whose
    dimensions are equal."""
    dims, n = rho.dims, rho.n_parties
    blocks = rho.matrix.reshape(dims + dims)
    perms = list(permutations(range(n)))
    mat = sum(blocks.transpose(list(p) + [n + k for k in p]) for p in perms) / len(perms)
    return DensityMatrix(dims, mat.reshape(rho.matrix.shape))


def shifted(t: np.ndarray) -> np.ndarray:
    """``t`` with its modes in the cyclic order that starts at mode 1."""
    return t.transpose(list(range(1, t.ndim)) + [0])


@st.composite
def near_duplicate_stacks(draw):
    """Tensors of one shape, some repeated exactly, some copies differing
    from an earlier one in one entry by one ulp or by the sign of a zero,
    and some equal bit for bit to their cyclic shifts."""
    order = draw(st.integers(2, 4), label="order")
    dims = draw(st.sampled_from([(d,) * order for d in (1, 2, 3)] + [(2, 3, 3)[:order], (3, 2)]),
                label="dims")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    base = rng.normal(size=dims)
    if len(set(dims)) == 1 and draw(st.booleans(), label="supersymmetric"):
        # each entry is read at its sorted multi-index, so the tensor equals
        # every permutation of its modes bit for bit
        index = np.sort(np.indices(dims).reshape(order, -1), axis=0)
        base = base.ravel()[np.ravel_multi_index(index, dims)].reshape(dims)
    tensors = [base]
    for _ in range(draw(st.integers(1, 6), label="copies")):
        t = tensors[draw(st.integers(0, len(tensors) - 1))].copy()
        change = draw(st.sampled_from(["same", "ulp", "zero"]))
        at = tuple(draw(st.integers(0, d - 1)) for d in dims)
        if change == "ulp":
            t[at] = np.nextafter(t[at], np.inf)
        elif change == "zero":
            # a +0.0 and a -0.0 copy, equal as floats but not bit for bit;
            # the entry's permutations are zeroed too, so that a tensor equal
            # to its shifts stays so in the +0.0 copy
            for i in set(permutations(at)) if len(set(dims)) == 1 else [at]:
                t[i] = 0.0
            tensors.append(t.copy())
            t[at] = -0.0
        tensors.append(t)
    return tensors


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_norms_are_the_per_tensor_norms_bit_for_bit(data):
    # sharing an SVD between equal tensors, or between the unfoldings of a
    # tensor equal to its cyclic shift, must hand LAPACK the matrices each
    # tensor gives alone: norms compare with ==.  Tensors that differ in one
    # bit, such as an ulp or the sign of a zero, are not merged
    kind = data.draw(st.sampled_from(["zoo", "symmetrized", "stack"]), label="kind")
    if kind == "stack":
        tensors = data.draw(near_duplicate_stacks(), label="tensors")
        norms = []
        matrices = count_matrices(lambda: norms.extend(_kyfan_norms(shape_groups(tensors))))
        assert norms == [per_matrix_kyfan(t) for t in tensors]
        distinct = {t.tobytes(): t for t in tensors}.values()
        cyclic = len(set(tensors[0].shape)) == 1
        assert matrices == sum(1 if cyclic and t.tobytes() == shifted(t).tobytes() else t.ndim
                               for t in distinct)
        return
    if kind == "zoo":
        family = data.draw(st.sampled_from(["ghz", "w", "ghz-noisy", "w-noisy", "qutrit-ghz-noisy"]),
                           label="family")
        # qutrit GHZ tensors differ from their shifts and from each other in a
        # few entries by rounding, so their stacks share only in part
        top = 4 if family.startswith("qutrit") else 7
        params = {"parties": data.draw(st.integers(2, top), label="parties")}
        if family.endswith("noisy"):
            params["noise"] = data.draw(st.sampled_from([0.0, 0.37, 0.5, 1.0]), label="noise")
        rho = ZooSpec(family, **params).build()
    else:
        dims = data.draw(st.sampled_from([(2, 2), (2, 2, 2), (2,) * 4, (3, 3, 3)]), label="dims")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rho = symmetrized(random_density(np.random.default_rng(seed), dims, rank=2))
    subsets = _select_subsets(rho.n_parties, "all")
    assert [v.norm_value for v in subset_scan(rho, "all")] == per_tensor_norms(rho, subsets)


def test_a_signed_zero_is_not_shared():
    # a supersymmetric tensor and its copy with one zero negated are equal
    # as floats, and the copy equals its cyclic shift as floats: neither is
    # shared, so the copy takes all three unfoldings and the tensor one
    index = np.sort(np.indices((3, 3, 3)).reshape(3, -1), axis=0)
    t = np.arange(1.0, 28.0)[np.ravel_multi_index(index, (3, 3, 3))].reshape(3, 3, 3)
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 0.0
    u = t.copy()
    u[0, 1, 0] = -0.0
    for tensors, want in (([t, u], 1 + 3), ([u, t, u], 3 + 1), ([t, t], 1)):
        norms = []
        matrices = count_matrices(lambda: norms.extend(_kyfan_norms(shape_groups(tensors))))
        assert norms == [per_matrix_kyfan(x) for x in tensors]
        assert matrices == want


def test_sufficiency_takes_one_svd_call_for_its_pair_matrices(monkeypatch):
    # the 15 pair tensors of six qubits share one shape, so one SVD call
    # gives all their forms, and coherence vectors and higher tensors take
    # none.  GHZ-6's full tensor has no form, which the diagonal tests find
    # before any form is built, so it takes no SVD call at all
    q = np.random.default_rng(43).random(64)
    classical = DensityMatrix((2,) * 6, np.diag(q / q.sum()).astype(complex))
    for rho, reason, want in ((classical, "sum-exceeds-one", 1),
                              (ghz(6), "no-orthogonal-decomposition:(0, 1, 2, 3, 4, 5)", 0)):
        counts = {"svd": 0}
        with monkeypatch.context() as patch:
            count_calls(patch, counts, "svd", np.linalg, "svd")
            assert sufficiency_test(rho).reason == reason
        assert counts["svd"] == want


def sufficiency_candidates() -> dict:
    """Random states on mixed dims, whose first order-3 tensor has no form,
    random diagonal qubit states, all of whose tensors have one, and states
    with zero components, by name."""
    rng = np.random.default_rng(41)
    states = {}
    for dims in [(2, 3), (3, 3), (2, 4), (3, 4), (2, 3, 2), (2, 2, 3), (3, 2, 2, 2)]:
        name = "x".join(map(str, dims))
        for k in range(4):
            states[f"random-{name}-{k}"] = random_density(rng, dims, rank=int(rng.integers(1, 4)))
        states[f"mixed-{name}"] = maximally_mixed(dims)
    for n in (3, 4, 5):
        q = rng.random(2**n)
        states[f"diagonal-{n}"] = DensityMatrix((2,) * n, np.diag(q / q.sum()).astype(complex))
    # rows of 8 and 15 weights of which the SVD keeps 5 to 7: there the kept
    # weights' sum differs from a sum with zeros in place of the dropped ones
    # (qutrits, ququarts, and a qutrit beside a ququart); and SVD factors
    # that hold -0.0 (Werner, qutrit GHZ)
    for dims, rank, seed in [((3, 3), 5, 1), ((3, 3), 6, 3), ((4, 4), 6, 0), ((4, 4), 7, 2),
                             ((3, 4), 5, 0)]:
        states[f"low-rank-{'x'.join(map(str, dims))}-{rank}"] = low_rank_pair(seed, dims, rank, 0.05)
    states["werner"] = ZooSpec("werner", noise=0.3).build()
    states["qutrit-ghz-noisy-2"] = ZooSpec("qutrit-ghz-noisy", parties=2, noise=0.05).build()
    return {**states, "ghz-noisy-4": noisy(ghz(4), 0.1), "smolin": smolin(), "psi-234": state_234()}


@pytest.mark.parametrize("rho", [pytest.param(rho, id=name)
                                 for name, rho in sufficiency_candidates().items()])
def test_orthogonal_forms_match_the_per_component_reference(rho):
    # the batched search gives the one-tensor search's forms bit for bit, or
    # names the first component without one, and the sufficiency parts
    # match the per-component loop's
    views = [c for _, c in component_views(rho)]
    want = [per_tensor_form(c) for c in views]
    stacks, failed = _orthogonal_forms(shape_groups(views))
    if None in want:
        assert (stacks, failed) == (None, want.index(None))
    else:
        forms = stacked_forms(stacks)
        assert failed is None and len(forms) == len(want)
        assert all(same_form(f, w) for f, w in zip(forms, want))
    total, parts = _sufficiency_parts(rho)
    want_total, want_parts = per_component_forms(rho)
    assert total == want_total
    if total is None:
        assert parts == want_parts
        return
    # each component's (subset, c_S, form), from the stacks in component order
    subsets = _subsets(rho.n_parties)
    coefs = {int(i): coef for coef, stack in parts for i in stack.members}
    forms = stacked_forms([stack for _, stack in parts])
    parts = [(subsets[i], coefs[i], form) for i, form in enumerate(forms)]
    assert [(s, c) for s, c, _ in parts] == [(s, c) for s, c, _ in want_parts]
    assert all(same_form(f, w) for (_, _, f), (_, _, w) in zip(parts, want_parts))


def test_the_first_component_without_a_form_is_named_in_component_order():
    # on dims (2, 2, 2, 2, 3) the shapes interleave: the (3, 3, 3) group is
    # met first, at (0, 1, 2), and its first failure is (0, 2, 3), which is
    # not diagonal; (0, 1, 4), of shape (3, 3, 8), is nonzero with unequal
    # dims and comes first in component order, though its group is met second
    data = empty_bloch_data((2, 2, 2, 2, 3))
    data.tensors[(0, 2, 3)][0, 1, 2] = 0.05
    data.tensors[(0, 1, 4)][2, 2, 7] = 0.05
    rho = reconstruct(data)
    assert per_component_forms(rho) == (None, (0, 1, 4))
    assert sufficiency_test(rho).reason == "no-orthogonal-decomposition:(0, 1, 4)"
    with pytest.raises(CriterionUnavailableError) as got:
        separable_decomposition(rho)
    assert str(got.value) == ("correlation tensor of subset (0, 1, 4) has no completely "
                              "orthogonal rank-1 decomposition")


def test_subset_scan_product_state_inconclusive():
    rng = np.random.default_rng(23)
    rho = DensityMatrix((2, 2, 3), random_pure_product(rng, (2, 2, 3)))
    for v in subset_scan(rho, "all"):
        assert v.decision == Decision.INCONCLUSIVE
        assert v.norm_value <= v.bound_value + 1e-9


def test_guard_band_is_fixed():
    # the band only absorbs rounding; no caller can narrow it into calling
    # separable states entangled
    rho = maximally_mixed((2, 2))
    for test in (necessary_test, subset_scan, qubit_exact_test):
        with pytest.raises(TypeError):
            test(rho, guard=0.0)
    with pytest.raises(TypeError):
        sufficiency_test(rho, slack=0.0)


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


def test_the_exact_test_reads_one_order_at_a_time(monkeypatch):
    # the proper components are gathered one order at a time, and the test
    # stops at the first order that holds a nonzero one: W's coherence
    # vectors, GHZ's pair tensors.  Smolin's proper components all vanish,
    # so its three proper orders are read and then its full tensor
    for rho, reason, want in ((w_state(10), "coherence-vectors-nonzero", 1),
                              (ghz(10), "lower-order-tensors-nonzero", 2),
                              (smolin(), None, 4)):
        counts = {"groups": 0}
        with monkeypatch.context() as patch:
            count_calls(patch, counts, "groups", blochsep.criteria, "_groups")
            assert qubit_exact_test(rho).reason == reason
        assert counts["groups"] == want


# zoo states on at most 6 parties; those that are not multiqubit states
# check the refusal
SMALL_ZOO = {family: [p for p in grid if p.get("parties", 2) <= 6 and len(p.get("dims", ())) <= 6]
             for family, grid in ZOO_GRID.items()}


@st.composite
def exact_test_candidates(draw):
    """States for the exact test on N = 2..6 qubits: random rank-r states,
    zoo states, and states with full correlations only, mixed with white
    noise so that their Ky Fan norm lands on either side of the bound or
    inside the guard band.  The latter are sum_a w_a sigma_a^(x N), whose
    norm is sum_a |w_a|, as they are or under local unitaries that keep or
    break their diagonal form, Smolin's state and Werner's, both of norm 3
    at p = 1."""
    kind = draw(st.sampled_from(["random", "zoo", "diagonal", "smolin", "werner"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "random":
        n = draw(st.integers(2, 6), label="parties")
        return random_density(rng, (2,) * n, rank=draw(st.integers(1, 3), label="rank"))
    if kind == "zoo":
        family = draw(st.sampled_from(sorted(SMALL_ZOO)), label="family")
        return ZooSpec(family, **draw(st.sampled_from(SMALL_ZOO[family]), label="params")).build()
    target = draw(st.one_of(st.floats(0.2, 2.0),
                            st.sampled_from([1.0 + k * BOUND_GUARD / 2 for k in range(-3, 4)])),
                  label="target")
    if kind == "smolin":
        return noisy(smolin(), min(1.0, target / 3.0))
    if kind == "werner":
        return ZooSpec("werner", noise=min(1.0, target / 3.0)).build()
    # |w_a| <= 1/2 keeps (1/2^N)(I + sum_a w_a sigma_a^(x N)) positive.  On
    # odd N the three terms anticommute, so its eigenvalues are
    # (1 +- |w|) / 2^N.  On even N they commute, and its eigenvalues are
    # (1 + w . s) / 2^N over the sign patterns s whose product is
    # (-1)^(N/2); the signs of w are made one of those patterns
    n = draw(st.integers(2, 6), label="parties")
    signs = rng.choice([-1.0, 1.0], size=3)
    if n % 2 == 0:
        signs[2] = (-1) ** (n // 2) * signs[0] * signs[1]
    weights = signs * rng.uniform(0.0, 0.5, size=3)
    sigma = diagonal_qubit_state(n, weights)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    local = draw(st.sampled_from(["none", "hadamard", "random"]), label="local")
    if local != "none":
        u = reduce(np.kron, [random_unitary(rng, 2) if local == "random"
                             else hadamard if rng.random() < 0.5 else np.eye(2)
                             for _ in range(n)])
        sigma = DensityMatrix(sigma.dims, u @ sigma.matrix @ u.conj().T)
    return noisy(sigma, min(1.0, target / np.abs(weights).sum()))


@settings(max_examples=150, deadline=None)
@given(rho=exact_test_candidates())
def test_exact_test_matches_the_per_component_reference(rho):
    # decision, reason, borderline flag and norm, the last bit for bit:
    # repr shows a float's shortest round-trip form
    assert repr(qubit_exact_test(rho)) == repr(per_component_exact_test(rho))


def test_sufficiency_lhs_closed_forms():
    def lhs(rho):
        return sufficiency_test(rho).norm_value

    for p in (0.1, 0.25, 0.33):
        assert lhs(ZooSpec("werner", noise=p).build()) == pytest.approx(3 * p, abs=1e-10)
    for t in (0.2, 0.7):
        assert lhs(diagonal_qubit_state(3, (0, 0, t))) == pytest.approx(t, abs=1e-10)
    assert lhs(noisy(ghz(3), 0.5)) is None


def test_sufficiency_verdicts():
    assert sufficiency_test(maximally_mixed((2, 3))).decision == Decision.SEPARABLE
    assert sufficiency_test(ZooSpec("werner", noise=0.3).build()).decision == Decision.SEPARABLE
    v = sufficiency_test(smolin())
    assert v.decision == Decision.INCONCLUSIVE
    assert v.reason == "sum-exceeds-one"
    g = sufficiency_test(ghz(3))
    assert g.decision == Decision.INCONCLUSIVE
    assert "orthogonal" in g.reason


def test_decomposition_werner():
    rho = ZooSpec("werner", noise=0.3).build()
    dec = separable_decomposition(rho)
    assert dec.terms.rank == 6
    np.testing.assert_allclose(dec.terms.weights, 0.15, atol=1e-10)
    assert dec.identity_weight == pytest.approx(0.1, abs=1e-10)
    residual = np.abs(assemble_decomposition(dec).matrix - rho.matrix).max()
    assert residual <= 1e-10


def test_decomposition_diagonal_three_qubit():
    rho = diagonal_qubit_state(3, (0, 0, 0.8))
    dec = separable_decomposition(rho)
    assert dec.terms.rank == 4
    np.testing.assert_allclose(dec.terms.weights, 0.2, atol=1e-10)
    assert dec.identity_weight == pytest.approx(0.2, abs=1e-10)
    assert np.abs(assemble_decomposition(dec).matrix - rho.matrix).max() <= 1e-9


def test_decomposition_identity_only():
    dec = separable_decomposition(maximally_mixed((2, 2)))
    assert dec.terms.rank == 0
    assert dec.identity_weight == pytest.approx(1.0)


def test_decomposition_unavailable():
    with pytest.raises(CriterionUnavailableError):
        separable_decomposition(ghz(3))
    with pytest.raises(CriterionUnavailableError):
        separable_decomposition(smolin())


@pytest.mark.parametrize("rho, message", [
    (ghz(3), "correlation tensor of subset (0, 1, 2) has no completely orthogonal rank-1 "
             "decomposition"),
    (smolin(), "weighted component norm sum 3 exceeds 1; the sufficient criterion does not apply"),
    (ZooSpec("werner", noise=1 / 3 + 1e-11).build(),
     "weighted component norm sum 1.00000000003 lies within 1e-10 of 1; "
     "the sufficient criterion does not apply"),
    (ZooSpec("werner", noise=1 / 3).build(),
     "weighted component norm sum 1 lies within 1e-10 of 1; the sufficient criterion does not apply"),
], ids=["no-form", "sum-exceeds-one", "sum-within-guard-band", "sum-one"])
def test_decomposition_refusals_keep_their_messages(rho, message):
    # one line for each way the sufficient criterion fails to certify
    with pytest.raises(CriterionUnavailableError) as got:
        separable_decomposition(rho)
    assert str(got.value) == message


def noisy_qubit_qutrit_product():
    """|0><0| x |1><1| on (2, 3) with noise weight 0.1: both coherence
    vectors and the correlation tensor are nonzero."""
    v = np.kron(basis_ket((0,), (2,)), basis_ket((1,), (3,)))
    return noisy(DensityMatrix((2, 3), projector(v)), 0.1)


def decomposition_grid():
    rng = np.random.default_rng(25)
    yield ZooSpec("werner", noise=0.05).build()
    yield ZooSpec("werner", noise=0.25).build()
    yield diagonal_qubit_state(3, (0, 0.3, 0.4))
    yield diagonal_qubit_state(4, (0.2, 0.2, 0.2))
    yield noisy_qubit_qutrit_product()
    yield ZooSpec("qutrit-ghz-noisy", parties=2, noise=0.05).build()
    yield ZooSpec("ghz-noisy", parties=2, levels=4, noise=0.02).build()


def test_decomposition_invariants():
    for rho in decomposition_grid():
        dec = separable_decomposition(rho)
        total = sum(dec.terms.weights) + dec.identity_weight
        assert total == pytest.approx(1.0, abs=1e-10)
        for t, weight in enumerate(dec.terms.weights):
            factors = [f[:, t] for f in dec.terms.factors]
            assert weight > 0
            assert len(factors) == len(rho.dims)
            for d, vec in zip(rho.dims, factors):
                r, _ = ball_radii(d)
                assert np.linalg.norm(vec) <= r + 1e-10
        rebuilt = assemble_decomposition(dec)
        assert np.abs(rebuilt.matrix - rho.matrix).max() <= 1e-9


def test_qudit_coherence_vectors_give_one_term_each():
    # one term per coherence vector (subsystem 0, then 1), then the
    # 2-term sign-balanced pair of the rank-1 correlation tensor
    dec = separable_decomposition(noisy_qubit_qutrit_product())
    assert dec.terms.rank == 4
    assert list(dec.terms.weights) == pytest.approx([0.1, 0.2, 0.1, 0.1], abs=1e-15)
    assert dec.identity_weight == pytest.approx(0.5, abs=1e-15)
    columns = range(dec.terms.rank)
    assert [np.flatnonzero(dec.terms.factors[0][:, t]).size for t in columns] == [1, 0, 1, 1]
    assert [np.flatnonzero(dec.terms.factors[1][:, t]).size for t in columns] == [0, 2, 2, 2]


@settings(max_examples=150, deadline=None)
@given(rho=decomposition_candidates())
@example(rho=low_rank_pair(1, (3, 3), 5, 0.05))
@example(rho=low_rank_pair(0, (4, 4), 6, 0.05))
@example(rho=low_rank_pair(0, (3, 4), 5, 0.05))
def test_decomposition_matches_the_per_term_reference(rho):
    # the Kruskal form holds the per-term loop's floats, bit for bit and in
    # its order, and assembles to the same matrix bits as its restack
    try:
        terms, identity_weight = per_term_decomposition(rho)
    except CriterionUnavailableError as exc:
        with pytest.raises(CriterionUnavailableError) as got:
            separable_decomposition(rho)
        assert str(got.value) == str(exc)
        return
    dec = separable_decomposition(rho)
    assert dec.dims == rho.dims
    assert dec.identity_weight == identity_weight
    assert dec.terms.rank == len(terms)
    assert dec.terms.weights.tobytes() == np.array([w for w, _ in terms]).tobytes()
    for t, (_, factors) in enumerate(terms):
        for k, vec in enumerate(factors):
            assert dec.terms.factors[k][:, t].tobytes() == vec.tobytes()
    rebuilt = per_term_assembly(rho.dims, terms, identity_weight)
    assert assemble_decomposition(dec).matrix.tobytes() == rebuilt.matrix.tobytes()


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
    candidates = [ZooSpec("werner", noise=p).build() for p in np.linspace(0, 1, 9)]
    candidates += [diagonal_qubit_state(3, (0, 0, t)) for t in (0.3, 0.9, 1.0)]
    candidates += [random_separable(rng, (2, 2, 2)) for _ in range(5)]
    for rho in candidates:
        t1 = necessary_test(rho).decision
        p2 = sufficiency_test(rho).decision
        assert not (t1 == Decision.ENTANGLED and p2 == Decision.SEPARABLE)


def test_verdicts_invariant_under_local_unitaries():
    rng = np.random.default_rng(28)
    for rho in [smolin(), ZooSpec("werner", noise=0.8).build(), noisy(ghz(3), 0.6)]:
        us = [random_unitary(rng, d) for d in rho.dims]
        big = kron(*us)
        rotated = DensityMatrix(rho.dims, big @ rho.matrix @ big.conj().T)
        a, b = necessary_test(rho), necessary_test(rotated)
        assert a.decision == b.decision
        assert a.norm_value == pytest.approx(b.norm_value, abs=1e-8)


def permuted(rho, perm):
    """``rho`` with its parties listed in the order ``perm``: party j of the
    result is party ``perm[j]`` of ``rho``."""
    n = rho.n_parties
    m = rho.matrix.reshape(rho.dims * 2).transpose([*perm, *(n + k for k in perm)])
    return DensityMatrix(tuple(rho.dims[k] for k in perm), m.reshape(rho.dim, rho.dim))


# every zoo spec of ZOO_GRID on two to four parties and at most 81 levels
INVARIANCE_ZOO = [spec for spec, rho in ((spec, spec.build()) for spec in (
    ZooSpec(family, **params) for family, grid in ZOO_GRID.items() for params in grid))
    if 2 <= rho.n_parties <= 4 and rho.dim <= 81]


@st.composite
def invariance_states(draw):
    """A random rank-r state or a mixture of products on two to four qubits
    or qudits, at most 81 levels in all, or a zoo state of ``INVARIANCE_ZOO``."""
    kind = draw(st.sampled_from(["random", "products", "zoo"]))
    if kind == "zoo":
        return draw(st.sampled_from(INVARIANCE_ZOO)).build()
    dims = draw(st.one_of(
        st.lists(st.just(2), min_size=2, max_size=4),
        st.lists(st.sampled_from([2, 3, 4]), min_size=2, max_size=4).filter(
            lambda ds: math.prod(ds) <= 81)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_density(rng, dims, draw(st.sampled_from([1, 2, None])))
    return random_separable(rng, dims, draw(st.integers(1, 4)))


def close(a, b, rel):
    """``a`` and ``b``, norms or None, equal within ``rel`` relative; a norm
    of a zero component is rounding, 1e-14 absolute on these states."""
    return a is b if a is None or b is None else a == pytest.approx(b, rel=rel, abs=1e-14)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verdicts_invariant_under_party_permutations(data):
    """Listing the parties in another order π changes no verdict: t1, c2
    and p2 keep their decision, borderline flag and reason, c1's record for
    a subset S equals its record for π(S), the norm within 1e-10 relative,
    and so do t1's norm and p2's sum."""
    rho = data.draw(invariance_states(), label="rho")
    perm = data.draw(st.permutations(range(rho.n_parties)), label="perm")
    moved = permuted(rho, perm)
    where = np.argsort(perm).tolist()  # party k of rho is party where[k] of moved

    def same(a, b):
        assert (a.decision, a.borderline, a.reason, a.bound_value) == (
            b.decision, b.borderline, b.reason, b.bound_value)
        assert close(a.norm_value, b.norm_value, 1e-10), (a, b)

    for test in (necessary_test, qubit_exact_test, sufficiency_test):
        same(test(rho), test(moved))
    records = {v.subset: v for v in subset_scan(moved, "all")}
    for v in subset_scan(rho, "all"):
        same(v, records[tuple(sorted(where[k] for k in v.subset))])


@settings(max_examples=80, deadline=None)
@given(rho=invariance_states(), seed=st.integers(0, 2**32 - 1))
def test_verdicts_invariant_under_haar_local_unitaries(rho, seed):
    """A Haar local unitary on every party keeps the decisions of t1 and of
    each c1 record, their norms within 1e-8."""
    rng = np.random.default_rng(seed)
    big = kron(*(random_unitary(rng, d) for d in rho.dims))
    rotated = DensityMatrix(rho.dims, big @ rho.matrix @ big.conj().T)
    pairs = [(necessary_test(rho), necessary_test(rotated)),
             *zip(subset_scan(rho, "all"), subset_scan(rotated, "all"))]
    for a, b in pairs:
        assert a.subset == b.subset and a.decision == b.decision
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
    for family, kind in (("werner", "str"), (lambda p: noisy(ghz(2), p), "function")):
        with pytest.raises(ValueError) as got:
            threshold_search(family)
        assert str(got.value) == f"family must be a ZooSpec, got {kind}"
    with pytest.raises(ValueError, match="unknown criterion"):
        threshold_search(ZooSpec(family="werner"), criterion="t2")
    with pytest.raises(ValueError, match="no noise parameter"):
        threshold_search(ZooSpec(family="smolin"))


def test_threshold_search_rejects_noise_weight(monkeypatch):
    built = []
    monkeypatch.setattr(ZooSpec, "_state", lambda spec: built.append(spec))
    with pytest.raises(ValueError, match="sweeps the noise weight"):
        threshold_search(ZooSpec("ghz-noisy", parties=3, noise=0.5))
    assert built == []


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


@pytest.mark.parametrize("max_parties", [2, 1, -1])
def test_noise_threshold_table_starts_at_three_parties(max_parties):
    with pytest.raises(ValueError, match="max_parties must be at least 3"):
        noise_threshold_table(max_parties)


def test_noise_threshold_table_refuses_a_size_that_does_not_fit(monkeypatch):
    # the largest N is checked before any state is built
    def unreachable(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr("blochsep.criteria.threshold_search", unreachable)
    with pytest.raises(ValueError, match="GiB of physical memory$"):
        noise_threshold_table(40)


def test_noise_threshold_table_small():
    rows = noise_threshold_table(max_parties=4)
    as_dict = {(fam, n): p for fam, n, p in rows}
    assert as_dict[("ghz-noisy", 3)] == pytest.approx(0.35355, abs=5e-4)
    assert as_dict[("ghz-noisy", 4)] == pytest.approx(0.2, abs=5e-4)
    assert as_dict[("w-noisy", 3)] == pytest.approx(0.3068, abs=5e-4)
    assert as_dict[("w-noisy", 4)] == pytest.approx(0.3018, abs=5e-4)
