"""Tests for the Bloch representation: coherence vectors, correlation
tensors, and reconstruction."""

import contextlib
import functools
import itertools
import math
import re

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

from blochsep import (
    BlochData,
    CriterionUnavailableError,
    DensityMatrix,
    InvalidStateError,
    NumericIntegrityError,
    ZooSpec,
    ball_radii,
    basis_ket,
    bloch_vector,
    build_basis,
    correlation_tensor,
    decompose,
    ghz,
    is_supersymmetric,
    kron,
    maximally_mixed,
    noisy,
    partial_trace,
    projector,
    reconstruct,
    singular_values,
    smolin,
    unfold,
    w_state,
)
import blochsep.bloch
from blochsep.bloch import (_coefficients, _contract, _from_coefficients, _groups, _plan,
                            _real_part, _residue_tol, _stack, _subsets)
from blochsep.criteria import _CRITERIA, _select_subsets, necessary_test, subset_scan
from blochsep.tolerances import EXACT_TOL, IMAG_TOL
from conftest import (ZOO_GRID, brute_correlation, component_views, empty_bloch_data,
                      limit_memory, qutrit_ghz_spectrum, random_density, random_pure_product,
                      random_unitary, tensordot_expansion)

SIX_PROFILES = [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 3, 4), (2, 2, 2, 2)]


def test_single_qubit_vector():
    rho = DensityMatrix((2,), projector(basis_ket((0,), (2,))))
    np.testing.assert_allclose(bloch_vector(rho, 0), [0, 0, 1], atol=1e-12)


def test_maximally_mixed_vector_is_zero():
    np.testing.assert_allclose(bloch_vector(maximally_mixed((3,)), 0), 0,
                               atol=1e-12)


def test_pure_qutrit_vector_length():
    rng = np.random.default_rng(14)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    s = bloch_vector(DensityMatrix((3,), np.outer(v, v.conj())), 0)
    assert np.linalg.norm(s) == pytest.approx(np.sqrt(3), abs=1e-10)


def test_subsystem_out_of_range():
    with pytest.raises(ValueError):
        bloch_vector(ghz(2), 2)
    with pytest.raises(ValueError):
        correlation_tensor(ghz(3), (0, 3))
    with pytest.raises(ValueError):
        correlation_tensor(ghz(3), (1,))
    with pytest.raises(ValueError):
        correlation_tensor(ghz(3), (1, 1))


def test_bell_pair_tensor():
    v = (basis_ket((0, 0), (2, 2)) + basis_ket((1, 1), (2, 2))) / np.sqrt(2)
    rho = DensityMatrix((2, 2), projector(v))
    np.testing.assert_allclose(correlation_tensor(rho, (0, 1)),
                               np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_product_state_tensor_is_outer_product():
    rng = np.random.default_rng(15)
    rho = DensityMatrix((2, 3), random_pure_product(rng, (2, 3)))
    s0 = bloch_vector(rho, 0)
    s1 = bloch_vector(rho, 1)
    np.testing.assert_allclose(correlation_tensor(rho, (0, 1)),
                               np.outer(s0, s1), atol=1e-10)


def test_smolin_tensor_is_diagonal():
    t = correlation_tensor(smolin(), (0, 1, 2, 3))
    expected = np.zeros((3, 3, 3, 3))
    for i in range(3):
        expected[i, i, i, i] = 1.0
    np.testing.assert_allclose(t, expected, atol=1e-12)


def test_ghz3_components_frozen():
    data = decompose(ghz(3))
    for k in range(3):
        np.testing.assert_allclose(data.singles[k], 0, atol=1e-12)
    for pair in [(0, 1), (0, 2), (1, 2)]:
        np.testing.assert_allclose(data.tensors[pair], np.diag([0.0, 0.0, 1.0]),
                                   atol=1e-12)
    full = np.zeros((3, 3, 3))
    full[0, 0, 0] = 1.0
    full[0, 1, 1] = full[1, 0, 1] = full[1, 1, 0] = -1.0
    np.testing.assert_allclose(data.tensors[(0, 1, 2)], full, atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (2, 3, 2, 2)])
def test_correlation_tensor_against_brute_oracle(dims):
    rng = np.random.default_rng(16)
    rho = random_density(rng, dims)
    n = len(dims)
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            np.testing.assert_allclose(correlation_tensor(rho, subset),
                                       brute_correlation(rho, subset),
                                       atol=1e-10)
    # coherence vectors against reduced-state traces, one generator at a time
    for k in range(n):
        expected = [(rho.dims[k] / 2) * np.trace(
            partial_trace(rho, (k,)).matrix @ g).real
            for g in build_basis(rho.dims[k])]
        np.testing.assert_allclose(bloch_vector(rho, k), expected, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_qutrit_ghz_spectrum_closed_form(n):
    # the closed form the acceptance thresholds are pinned to, checked
    # against the oracle in every mode
    t = brute_correlation(ghz(n, 3), tuple(range(n)))
    for mode in range(n):
        unfolded = np.moveaxis(t, mode, 0).reshape(8, -1)
        np.testing.assert_allclose(np.linalg.svd(unfolded, compute_uv=False),
                                   np.sort(qutrit_ghz_spectrum(n))[::-1],
                                   atol=1e-10)


@pytest.mark.parametrize("pos, name", [
    ((2, 0, 3), "correlation tensor of subset (0, 2)"),
    ((0, 1, 0), "coherence vector of subsystem 1"),
    ((1, 3, 2), "correlation tensor of subset (0, 1, 2)"),
])
def test_imaginary_residue_names_its_component(pos, name):
    coeff = np.ones((4, 4, 4), dtype=complex)
    coeff[pos] += 1e-6j
    with pytest.raises(NumericIntegrityError, match=r"^" + re.escape(name) + " "):
        _real_part(coeff, (2, 2, 2), 0)


def test_imaginary_residue_of_the_full_tensor_names_the_full_set():
    # every entry of the full tensor belongs to the full set, index 0 included
    coeff = np.ones((3, 3, 3), dtype=complex)
    coeff[0, 2, 0] += 1e-6j
    with pytest.raises(NumericIntegrityError,
                       match=r"^correlation tensor of subset \(0, 1, 2\) carries "):
        _real_part(coeff, (2, 2, 2), 1)


def test_returned_components_are_copies():
    rho = random_density(np.random.default_rng(23), (2, 3, 2))
    t = correlation_tensor(rho, (0, 2))
    expected = t.copy()
    t[...] = 7.0
    np.testing.assert_array_equal(correlation_tensor(rho, (0, 2)), expected)
    s = bloch_vector(rho, 1)
    s[0] = 7.0
    assert bloch_vector(rho, 1)[0] != 7.0
    decompose(rho).tensors[(0, 1, 2)][...] = 7.0
    assert not np.any(correlation_tensor(rho, (0, 1, 2)) == 7.0)


def test_noisy_scales_every_component():
    rng = np.random.default_rng(17)
    base = random_density(rng, (2, 3), rank=1)
    p = 0.37
    mixed = noisy(base, p)
    d0, d1 = decompose(base), decompose(mixed)
    for k in d0.singles:
        np.testing.assert_allclose(d1.singles[k], p * d0.singles[k], atol=1e-10)
    for s in d0.tensors:
        np.testing.assert_allclose(d1.tensors[s], p * d0.tensors[s], atol=1e-10)


def test_component_count():
    for dims in SIX_PROFILES:
        data = decompose(maximally_mixed(dims))
        assert len(data.singles) + len(data.tensors) == 2 ** len(dims) - 1


def test_empty_bloch_data_reconstructs_to_mixed():
    for dims in [(2, 2), (2, 3, 4)]:
        rho = reconstruct(empty_bloch_data(dims))
        np.testing.assert_allclose(rho.matrix,
                                   np.eye(int(np.prod(dims))) / np.prod(dims),
                                   atol=1e-12)


@pytest.mark.parametrize("dims", SIX_PROFILES)
def test_round_trip_on_random_states(dims):
    rng = np.random.default_rng(sum(dims))
    for _ in range(5):
        rho = random_density(rng, dims)
        back = reconstruct(decompose(rho))
        assert np.abs(back.matrix - rho.matrix).max() <= 1e-10


def test_round_trip_bulk_three_qubits():
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng, (2, 2, 2))
        back = reconstruct(decompose(rho))
        worst = max(worst, np.abs(back.matrix - rho.matrix).max())
    assert worst <= 1e-10


def test_zzz_tensor_eigenvalues():
    t = 0.6
    data = empty_bloch_data((2, 2, 2))
    tensors = dict(data.tensors)
    arr = np.zeros((3, 3, 3))
    arr[2, 2, 2] = t
    tensors[(0, 1, 2)] = arr
    rho = reconstruct(BlochData((2, 2, 2), data.singles, tensors))
    eig = np.sort(np.linalg.eigvalsh(rho.matrix))
    expected = np.sort([(1 + t) / 8] * 4 + [(1 - t) / 8] * 4)
    np.testing.assert_allclose(eig, expected, atol=1e-12)


def test_reconstruct_rejects_malformed_data():
    data = decompose(ghz(2))
    bad_tensors = dict(data.tensors)
    bad_tensors[(0, 1)] = np.zeros((3, 4))
    with pytest.raises(ValueError):
        reconstruct(BlochData((2, 2), data.singles, bad_tensors))
    with pytest.raises(ValueError):
        reconstruct(BlochData((2, 2), data.singles, {}))
    with pytest.raises(ValueError, match="^singles must hold exactly one vector per subsystem$"):
        reconstruct(BlochData((2, 2), {0: data.singles[0]}, data.tensors))


def test_marginal_consistency():
    rng = np.random.default_rng(19)
    rho = random_density(rng, (2, 3, 2))
    for size in (2, 3):
        for subset in itertools.combinations(range(3), size):
            via_full = correlation_tensor(rho, subset)
            reduced = partial_trace(rho, subset)
            via_reduced = correlation_tensor(reduced,
                                             tuple(range(len(subset))))
            np.testing.assert_allclose(via_full, via_reduced, atol=1e-10)


def test_pure_product_factorization_property():
    rng = np.random.default_rng(20)
    dims = (2, 2, 3)
    rho = DensityMatrix(dims, random_pure_product(rng, dims))
    data = decompose(rho)
    for subset, tensor in data.tensors.items():
        outer = data.singles[subset[0]]
        for k in subset[1:]:
            outer = np.multiply.outer(outer, data.singles[k])
        assert np.linalg.norm(tensor - outer) <= 1e-9
    ghz_full = correlation_tensor(ghz(3), (0, 1, 2))
    ghz_outer = np.zeros_like(ghz_full)
    assert np.linalg.norm(ghz_full - ghz_outer) >= 1.0


def test_local_unitary_invariance():
    rng = np.random.default_rng(21)
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        rho = random_density(rng, dims)
        us = [random_unitary(rng, d) for d in dims]
        rotated = DensityMatrix(dims, kron(*us) @ rho.matrix @ kron(*us).conj().T)
        a, b = decompose(rho), decompose(rotated)
        for k in a.singles:
            assert np.linalg.norm(a.singles[k]) == pytest.approx(
                np.linalg.norm(b.singles[k]), abs=1e-8)
        for subset in a.tensors:
            for mode in range(len(subset)):
                np.testing.assert_allclose(
                    singular_values(unfold(a.tensors[subset], mode)),
                    singular_values(unfold(b.tensors[subset], mode)),
                    atol=1e-8)


def test_symmetric_states_give_supersymmetric_tensors():
    for rho in [ghz(3), w_state(3), noisy(ghz(4), 0.7), noisy(w_state(4), 0.4)]:
        full = correlation_tensor(rho, tuple(range(rho.n_parties)))
        assert is_supersymmetric(full)


def test_ball_radii_values():
    assert ball_radii(2) == pytest.approx((1.0, 1.0))
    r3, big3 = ball_radii(3)
    assert r3 == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert big3 == pytest.approx(np.sqrt(3), abs=1e-12)
    with pytest.raises(ValueError):
        ball_radii(1)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_inball_vectors_give_states(d):
    rng = np.random.default_rng(22 + d)
    r, _ = ball_radii(d)
    gens = build_basis(d)
    for _ in range(200):
        v = rng.normal(size=d * d - 1)
        v *= r / np.linalg.norm(v)
        mat = (np.eye(d) + np.tensordot(v, gens, axes=1)) / d
        assert np.linalg.eigvalsh(mat).min() >= -1e-12


@pytest.mark.parametrize("pages, fits", [(9, False), (10, True)])
def test_generator_stacks_are_budgeted(monkeypatch, pages, fits):
    # the stacks of d = 5 take 4 x 16 bytes per entry of a 25 x 25 array:
    # 40,000 bytes, more than nine 4,096-byte pages and less than ten.  Both
    # directions build stacks, and a cached stack would skip the check.
    rho = DensityMatrix((5,), np.eye(5) / 5)
    data = decompose(rho)
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    limit_memory(monkeypatch, sizes.__getitem__)
    _stack.cache_clear()
    calls = [lambda: bloch_vector(DensityMatrix((5,), np.eye(5) / 5), 0),
             lambda: reconstruct(data)]
    for call in calls:
        if fits:
            call()
        else:
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == (
                "the generator stacks of a subsystem of dimension 5 need about 3.73e-05 GiB "
                "of working memory, more than the 3.43e-05 GiB of physical memory")


def assert_expansion_is_the_tensordot_one(rho):
    coeff, matrix = tensordot_expansion(rho)
    assert _coefficients(rho).tobytes() == coeff.tobytes()
    assert _from_coefficients(rho.dims, coeff).tobytes() == matrix.tobytes()


@pytest.mark.parametrize("family", list(ZOO_GRID))
def test_expansion_is_the_tensordot_contraction_on_the_zoo(family):
    # each mode step is the matrix product tensordot makes, so the
    # coefficients and the inverse map's matrix keep its bits
    for params in ZOO_GRID[family]:
        assert_expansion_is_the_tensordot_one(ZooSpec(family, **params).build())


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(
           lambda dims: math.prod(dims) <= 64),
       seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 3))
def test_expansion_is_the_tensordot_contraction_on_random_states(dims, seed, rank):
    assert_expansion_is_the_tensordot_one(random_density(np.random.default_rng(seed), dims, rank))


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(2, 3), min_size=2, max_size=5).filter(
           lambda dims: math.prod(dims) <= 243),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_groups_are_the_components_stacked_by_shape(dims, seed, data):
    # qubits, qutrits and mixed dims under every selector, and explicit lists
    # of components out of order and repeated: each group's stack is the
    # components' views at its positions, bit for bit, and the shapes come
    # in order of first appearance
    rho = random_density(np.random.default_rng(seed), tuple(dims), rank=2)
    n = len(dims)
    every = [s for s in _subsets(n) if len(s) > 1]
    unsorted = data.draw(st.lists(st.sampled_from(every).flatmap(st.permutations),
                                  min_size=1, max_size=12), label="unsorted")
    repeated = data.draw(st.lists(st.sampled_from(_subsets(n)), min_size=1, max_size=12),
                         label="repeated")
    selectors = ["full", "all", "pairs", *range(2, n + 1), unsorted]
    for subsets in [*(_select_subsets(n, s) for s in selectors), repeated, None]:
        views = [c for _, c in component_views(rho, subsets)]
        groups = _groups(rho, subsets)
        assert [stack.shape[1:] for _, stack in groups] == list(dict.fromkeys(
            v.shape for v in views))
        assert sorted(i for positions, _ in groups for i in positions) == list(range(len(views)))
        for positions, stack in groups:
            want = np.stack([views[i] for i in positions])
            assert positions.dtype == np.intp
            assert stack.shape == want.shape and stack.tobytes() == want.tobytes()


def test_index_plans_are_cached_per_selection_and_bounded():
    # a plan is built once per (dims, selection) and holds read-only index
    # arrays only; the cache is bounded
    assert _plan.cache_info().maxsize == 64
    _plan.cache_clear()
    for rho in (ghz(4), w_state(4)):
        for subsets in ("all", "pairs", "all"):
            _groups(rho, _select_subsets(4, subsets))
    info = _plan.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    for positions, idx in _plan((2, 2, 2, 2), tuple(_select_subsets(4, "all"))):
        assert positions.dtype == idx.dtype == np.intp
        assert not positions.flags.writeable and not idx.flags.writeable


def test_one_subset_reads_leave_the_plan_cache_alone():
    # the public one-subset readers and reconstruct index the coefficient
    # array by slices, so a walk over many subsets does not push the
    # analyze path's plans out, nor asks the cache at all
    rho = w_state(10)
    _groups(rho, _select_subsets(10, "all"))
    data = decompose(w_state(4))
    before = _plan.cache_info()
    for subset in itertools.islice(itertools.combinations(range(10), 3), 99):
        correlation_tensor(rho, subset)
    bloch_vector(rho, 4)
    reconstruct(data)
    assert _plan.cache_info() == before


QUDIT_DIMS = (st.lists(st.integers(2, 5), min_size=1, max_size=5)
              .filter(lambda dims: math.prod(dims) <= 128).map(tuple))


@settings(max_examples=60, deadline=None)
@given(dims=QUDIT_DIMS, seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([None, 1, 2]))
def test_one_subset_reads_are_the_component_views(dims, seed, rank):
    # each reader copies its slice of the coefficient array: the view's
    # shape and bits, in a fresh C-ordered array of the caller's own
    rho = random_density(np.random.default_rng(seed), dims, rank)
    for subset, view in component_views(rho):
        got = bloch_vector(rho, subset[0]) if len(subset) == 1 else correlation_tensor(rho, subset)
        assert got.shape == view.shape and got.tobytes() == view.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, view)


@settings(max_examples=40, deadline=None)
@given(dims=QUDIT_DIMS, seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([None, 1, 2]))
def test_reconstruct_writes_the_parts_that_groups_reads_back(dims, seed, rank):
    # the array reconstruct assigns by slices, read back through the plans
    # of _groups, gives every part bit for bit and 1 at the origin
    data = decompose(random_density(np.random.default_rng(seed), dims, rank))
    written, inverse = [], _from_coefficients
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blochsep.bloch, "_from_coefficients",
                      lambda dims, coeff: written.append(coeff) or inverse(dims, coeff))
        reconstruct(data)
    (coeff,) = written
    assert coeff.shape == tuple(d * d for d in dims) and coeff[(0,) * len(dims)] == 1.0
    carrier = maximally_mixed(dims)
    object.__setattr__(carrier, "_coefficients", coeff)
    parts = [data.singles[s[0]] if len(s) == 1 else data.tensors[s] for s in _subsets(len(dims))]
    for positions, stack in _groups(carrier):
        assert stack.tobytes() == np.stack([parts[i] for i in positions]).tobytes()


def test_residue_bound_is_the_closed_form_of_the_stack_rows():
    # c_k = sqrt(2 d (d - 1)), the l1 norm of the largest row of mode k's
    # scaled stack: the float read from the stack for d <= 5, and within
    # 2 ulp of it up to d = 16
    read = {d: float(np.abs(_stack(d, d / 2)).sum(axis=1).max()) for d in range(2, 17)}
    for d, c in read.items():
        closed = math.sqrt(2 * d * (d - 1))
        assert abs(c - closed) <= (0 if d <= 5 else 2) * math.ulp(closed), d
    for dims in [(2,), (2, 3), (3, 4, 5), (5, 5), (2,) * 10, (4, 2, 3, 2)]:
        assert _residue_tol(dims) == IMAG_TOL + EXACT_TOL / 2 * math.prod(map(read.get, dims))


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(2, 4), min_size=2, max_size=7)
       .filter(lambda dims: math.prod(dims) <= 128).map(tuple),
       seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([None, 1, 2]))
def test_the_full_tensor_contracted_alone_has_the_gathered_bits(dims, seed, rank):
    """Contracted against the generator rows alone, the full tensor has the
    bits of the one gathered from the whole coefficient array, and the
    necessary test gives one Verdict whether or not the array was cached,
    the Verdict that subset_scan gives under "full"."""
    made = random_density(np.random.default_rng(seed), dims, rank)
    fresh = DensityMatrix._built(made.dims, made.matrix)
    alone, verdict = _contract(fresh, 1), necessary_test(fresh)
    assert fresh._coefficients is None
    ((_, (gathered,)),) = _groups(fresh, _subsets(len(dims))[-1:])
    assert alone.shape == gathered.shape == tuple(d * d - 1 for d in dims)
    assert alone.tobytes() == gathered.tobytes()
    assert necessary_test(fresh) == verdict == subset_scan(fresh, "full")[0]


@settings(max_examples=25, deadline=None)
@given(dims=st.one_of(st.integers(2, 10).map(lambda n: (2,) * n),
                      st.lists(st.integers(2, 4), min_size=2, max_size=6)
                      .filter(lambda dims: math.prod(dims) <= 1024).map(tuple)),
       seed=st.integers(0, 2**32 - 1), picks=st.lists(st.integers(0, 15), min_size=10, max_size=10))
@example(dims=(2,) * 10, seed=0, picks=[1] * 10)
@example(dims=(2,) * 8, seed=1, picks=[2, 1, 3, 1, 2, 2, 1, 3, 0, 0])
@example(dims=(3, 3, 4), seed=2, picks=[5, 1, 10, 0, 0, 0, 0, 0, 0, 0])
@example(dims=(3,) * 6, seed=3, picks=[1, 2, 3, 4, 5, 6, 0, 0, 0, 0])
def test_states_at_the_validator_limit_get_a_verdict_from_every_criterion(dims, seed, picks):
    """The anti-Hermitian K = i (delta / 2) S, S the phases of the entries
    of one component's stack row A_a, puts the largest imaginary part that
    a Hermiticity deviation of delta allows into that coefficient: delta / 2
    times A_a's entrywise l1 norm, 5.12e-08 for X...X on 10 qubits and
    3.6e-08 for an off-diagonal row on 6 qutrits at delta = EXACT_TOL.
    S's diagonal is dropped where its trace would move the state's.  Just
    under EXACT_TOL every criterion gives a verdict or finds that it does
    not apply; just above, validation refuses the state."""
    total = math.prod(dims)
    g = np.random.default_rng(seed).normal(size=(total, 4)).view(complex)
    # half a rank-2 state, half I/D, exactly Hermitian
    h = g @ g.conj().T / (2 * np.linalg.norm(g) ** 2) + np.eye(total) / (2 * total)
    h = (h + h.conj().T) / 2
    row = functools.reduce(np.kron, [_stack(d, d / 2)[p % (d * d)].reshape(d, d)
                                     for d, p in zip(dims, picks)])
    phases = np.divide(row, np.abs(row), out=np.zeros_like(row), where=row != 0)
    if np.trace(phases) != 0:
        np.fill_diagonal(phases, 0)
    assume(phases.any())
    with pytest.raises(InvalidStateError, match="^matrix is not Hermitian "):
        DensityMatrix(dims, h + 0.5j * EXACT_TOL * (1 + 1e-6) * phases)
    rho = DensityMatrix(dims, h + 0.5j * EXACT_TOL * (1 - 1e-6) * phases)
    for criterion, _ in _CRITERIA.values():
        with contextlib.suppress(CriterionUnavailableError):
            assert criterion(rho, "pairs")
