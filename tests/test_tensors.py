"""Tests for unfoldings, Ky Fan norms, Kruskal forms, and sign tables."""

from functools import reduce
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochsep import (
    KruskalForm,
    find_orthogonal_kruskal,
    is_supersymmetric,
    kruskal_to_tensor,
    sign_table,
    singular_values,
    tensor_kyfan,
    unfold,
)
from blochsep.tensors import _kyfan_norms, _orthogonal_forms
from blochsep.tolerances import RANK_CUTOFF
from conftest import (limit_memory, per_matrix_kyfan, per_tensor_form, same_form, shape_groups,
                      stacked_forms)

# hand-checkable 3x2x3 example with integer entries
EXAMPLE_ENTRIES = {
    (0, 0, 0): 1, (0, 0, 1): 1, (1, 0, 0): 1, (1, 0, 1): -1,
    (1, 0, 2): 2, (2, 0, 0): 2, (2, 0, 2): 2,
    (0, 1, 0): 2, (0, 1, 1): 2, (1, 1, 0): 2, (1, 1, 1): -2,
    (1, 1, 2): 4, (2, 1, 0): 4, (2, 1, 2): 4,
}


def example_tensor():
    t = np.zeros((3, 2, 3))
    for idx, val in EXAMPLE_ENTRIES.items():
        t[idx] = val
    return t


def test_unfold_mode0_reference():
    expected = np.array([
        [1, 1, 0, 2, 2, 0],
        [1, -1, 2, 2, -2, 4],
        [2, 0, 2, 4, 0, 4],
    ])
    np.testing.assert_array_equal(unfold(example_tensor(), 0), expected)


def test_unfold_mode1_reference():
    expected = np.array([
        [1, 1, 2, 1, -1, 0, 0, 2, 2],
        [2, 2, 4, 2, -2, 0, 0, 4, 4],
    ])
    np.testing.assert_array_equal(unfold(example_tensor(), 1), expected)


def test_unfold_mode2_reference():
    expected = np.array([
        [1, 2, 1, 2, 2, 4],
        [1, 2, -1, -2, 0, 0],
        [0, 0, 2, 4, 2, 4],
    ])
    np.testing.assert_array_equal(unfold(example_tensor(), 2), expected)


@pytest.mark.parametrize("shape", [(3, 2, 3), (2, 3, 4), (2, 2, 2, 3), (4, 5)])
def test_unfold_column_formula(shape):
    # independent check of the backward cyclic column layout: the column of
    # entry (i_0 .. i_{N-1}) in mode n runs over i_{n+1}, .., i_{n-1} with the
    # earliest of those indices slowest
    rng = np.random.default_rng(5)
    t = rng.normal(size=shape)
    n_modes = t.ndim
    for mode in range(n_modes):
        mat = unfold(t, mode)
        order = [(mode + k) % n_modes for k in range(1, n_modes)]
        for idx in itertools.product(*[range(s) for s in shape]):
            col = 0
            for pos, m in enumerate(order):
                stride = 1
                for m2 in order[pos + 1:]:
                    stride *= shape[m2]
                col += idx[m] * stride
            assert mat[idx[mode], col] == t[idx]


def test_singular_values_closed_form():
    sigma = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
    expected = np.array([(np.sqrt(5) + 1) / 2, (np.sqrt(5) - 1) / 2])
    np.testing.assert_allclose(sigma, expected, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(batch=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       rows=st.integers(1, 7), cols=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_singular_values_of_a_stack_are_the_per_matrix_values(batch, rows, cols, seed):
    stack = np.random.default_rng(seed).normal(size=(*batch, rows, cols))
    values = singular_values(stack)
    assert values.shape == (*batch, min(rows, cols))
    for idx in np.ndindex(*batch):
        assert singular_values(stack[idx]).tobytes() == values[idx].tobytes()


@pytest.mark.parametrize("bad, message", [
    (np.float64(1.0), "singular_values expects a matrix"),
    (np.ones(3), "singular_values expects a matrix"),
    (np.array([[1.0, np.nan]]), "matrix contains non-finite entries"),
    (np.array([[[1.0, 0.0]], [[np.inf, 0.0]]]), "matrix contains non-finite entries"),
], ids=["scalar", "vector", "nan-matrix", "inf-in-stack"])
def test_singular_values_refusals_keep_their_messages(bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        singular_values(bad)


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_tensor_kyfan_equals_the_per_matrix_reference(shape, seed):
    t = np.random.default_rng(seed).normal(size=shape)
    assert tensor_kyfan(t) == per_matrix_kyfan(t)


def test_matrix_kyfan_matches_gram_route():
    # independent route: singular values are the square roots of the
    # eigenvalues of A A^T; squaring halves the precision of the small
    # singular values, hence the looser tolerance
    rng = np.random.default_rng(7)
    for shape in [(3, 5), (6, 4), (2, 9)]:
        a = rng.normal(size=shape)
        gram = np.linalg.eigvalsh(a @ a.T)
        expected = np.sqrt(np.clip(gram, 0.0, None)).sum()
        assert tensor_kyfan(a) == pytest.approx(expected, abs=1e-7)


def test_tensor_kyfan_picks_largest_mode():
    t = example_tensor()
    per_mode = [singular_values(unfold(t, m)).sum() for m in range(3)]
    assert tensor_kyfan(t) == pytest.approx(max(per_mode), rel=1e-12)


def test_supersymmetric_shortcut_agrees():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(4, 4, 4))
    sym = np.zeros_like(raw)
    for perm in itertools.permutations(range(3)):
        sym += raw.transpose(perm)
    assert is_supersymmetric(sym)
    assert not is_supersymmetric(raw)
    # for a supersymmetric tensor the first unfolding already gives the norm
    assert tensor_kyfan(unfold(sym, 0)) == pytest.approx(tensor_kyfan(sym), rel=1e-12)


def test_supersymmetric_spectra_equal_across_modes():
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(3, 3, 3, 3))
    sym = np.zeros_like(raw)
    for perm in itertools.permutations(range(4)):
        sym += raw.transpose(perm)
    base = singular_values(unfold(sym, 0))
    for mode in range(1, 4):
        np.testing.assert_allclose(singular_values(unfold(sym, mode)), base,
                                   atol=1e-8)


def test_kruskal_form_validation():
    with pytest.raises(ValueError):
        KruskalForm(weights=np.ones(2), factors=(np.ones((3, 3)),))
    with pytest.raises(ValueError):
        KruskalForm(weights=np.ones((2, 2)), factors=(np.ones((3, 2)),))


@pytest.mark.parametrize("call, message", [
    (lambda: tensor_kyfan(np.ones(3)),
     r"tensor of order 1 not supported here \(need order >= 2\)"),
    (lambda: unfold(np.float64(2.0), 0),
     r"tensor of order 0 not supported here \(need order >= 2\)"),
    (lambda: find_orthogonal_kruskal(np.float64(2.0)),
     r"tensor of order 0 not supported here \(need order >= 1\)"),
    (lambda: tensor_kyfan(np.array([[1.0, np.inf]])), "tensor contains non-finite entries"),
    (lambda: find_orthogonal_kruskal(np.array([1.0, np.nan])),
     "tensor contains non-finite entries"),
    (lambda: unfold(np.ones((2, 2, 2)), 3), "mode 3 out of range for order-3 tensor"),
    (lambda: unfold(np.ones((2, 2)), -1), "mode -1 out of range for order-2 tensor"),
    (lambda: KruskalForm([1.0, -0.5], [np.ones((3, 2))]), "term weights must be nonnegative"),
    (lambda: KruskalForm([np.nan], [np.ones((3, 1))]), "term weights must be nonnegative"),
    (lambda: KruskalForm([1.0], []), "a Kruskal form needs at least one mode"),
    (lambda: tensor_kyfan(np.zeros((3, 0))), r"tensor of shape \(3, 0\) has no entries"),
    (lambda: find_orthogonal_kruskal(np.zeros(0)), r"tensor of shape \(0,\) has no entries"),
    # a complex tensor is refused, not truncated to its real part
    (lambda: tensor_kyfan(np.array([[1j, 0], [0, 1]])),
     "tensor has complex dtype complex128; only real entries are read"),
    (lambda: singular_values(np.array([[1j, 0], [0, 1]])),
     "matrix has complex dtype complex128; only real entries are read"),
    (lambda: unfold([[1j, 0], [0, 1]], 0),
     "tensor has complex dtype complex128; only real entries are read"),
    (lambda: find_orthogonal_kruskal(np.array([1j, 1.0])),
     "tensor has complex dtype complex128; only real entries are read"),
    # a mode and a table width are integers and no bool
    (lambda: unfold(np.ones((2, 2)), True), "mode must be an integer, got True"),
    (lambda: unfold(np.ones((2, 2)), 1.0), r"mode must be an integer, got 1\.0"),
    (lambda: sign_table(2.0), r"n_parties must be an integer, got 2\.0"),
    (lambda: sign_table(True), "n_parties must be an integer, got True"),
    # shared unfoldings still reach the SVD's check: two equal tensors, and
    # one equal to its cyclic shift, whose one unfolding stands for all
    (lambda: _kyfan_norms(shape_groups([np.array([[1.0, np.nan]])] * 2)),
     "matrix contains non-finite entries"),
    (lambda: _kyfan_norms(shape_groups([np.full((2, 2, 2), np.inf)])),
     "matrix contains non-finite entries"),
], ids=["order-1", "order-0-unfold", "order-0-kruskal", "inf", "nan", "mode-too-large",
        "mode-negative", "negative-weight", "nan-weight", "no-mode", "empty-kyfan",
        "empty-kruskal", "complex-kyfan", "complex-singular-values", "complex-unfold",
        "complex-kruskal", "bool-mode", "float-mode", "float-sign-table", "bool-sign-table",
        "nan-repeated", "inf-cyclic"])
def test_tensor_refusals_keep_their_messages(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_object_arrays_of_numbers_are_still_read():
    """Bools and strings are refused, but an object array whose entries are
    numbers converts as before."""
    m = np.array([[2, 0], [0, 1.5]], dtype=object)
    assert singular_values(m).tolist() == [2.0, 1.5]
    assert tensor_kyfan(m) == 3.5
    assert unfold(m, 1).tolist() == [[2.0, 0.0], [0.0, 1.5]]
    assert find_orthogonal_kruskal(np.array([3, 4], dtype=object)).weights.tolist() == [5.0]


def test_a_sign_table_too_large_is_refused_before_it_is_sized(monkeypatch):
    """10**30 columns overflowed sizing the table; on 4 GiB of memory, 40
    columns are refused in one line too, and 10 fit.  The need of 10**30
    columns is a power of two: a float's fraction of its base-10 logarithm
    holds no true digit."""
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20}
    limit_memory(monkeypatch, sizes.__getitem__)
    for n, need in [(10**30, "2^1e+30"), (40, "1.76e+05")]:
        with pytest.raises(ValueError) as got:
            sign_table(n)
        assert str(got.value) == (f"a sign table of {n} columns needs about {need} GiB of "
                                  "working memory, more than the 4 GiB of physical memory")
    assert sign_table(10).shape == (512, 10)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2), (2, 3, 2, 3), (5,), (2, 3, 2, 3, 2)])
def test_kruskal_to_tensor_matches_outer_sum(shape):
    rng = np.random.default_rng(10)
    r = 3
    weights = rng.uniform(0.1, 2.0, size=r)
    factors = tuple(rng.normal(size=(s, r)) for s in shape)
    form = KruskalForm(weights=weights, factors=factors)
    expected = np.zeros(shape)
    for w in range(r):
        expected += weights[w] * reduce(np.multiply.outer, [f[:, w] for f in factors])
    np.testing.assert_allclose(kruskal_to_tensor(form), expected, atol=1e-12)


def assert_orthonormal_columns(form):
    for f in form.factors:
        np.testing.assert_allclose(f.T @ f, np.eye(form.rank), atol=1e-10)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2), (2, 3, 2, 3)])
def test_kruskal_unfold_matches_tensor_unfold(shape):
    # the mode unfolding of a Kruskal form, assembled factor-wise, is
    # (A_mode diag(w)) times the transposed column-wise Kronecker chain of
    # the other modes' factors in the unfolding's cyclic column order
    rng = np.random.default_rng(11)
    r = 4
    form = KruskalForm(
        weights=rng.uniform(0.1, 2.0, size=r),
        factors=tuple(rng.normal(size=(s, r)) for s in shape),
    )
    dense = kruskal_to_tensor(form)
    order = len(shape)
    for mode in range(order):
        chain = np.ones((1, r))
        for m in [(mode + k) % order for k in range(1, order)]:
            chain = (chain[:, None, :] * form.factors[m][None, :, :]).reshape(-1, r)
        np.testing.assert_allclose((form.factors[mode] * form.weights) @ chain.T,
                                   unfold(dense, mode), atol=1e-12)


def test_orthogonal_form_for_matrices():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(4, 6))
    form = find_orthogonal_kruskal(a)
    assert form is not None
    assert_orthonormal_columns(form)
    np.testing.assert_allclose(kruskal_to_tensor(form), a, atol=1e-10)
    assert form.weights.sum() == pytest.approx(tensor_kyfan(a), rel=1e-10)


def test_orthogonal_form_for_diagonal_tensor():
    t = np.zeros((3, 3, 3))
    for i, v in enumerate((0.5, -0.2, 0.1)):
        t[i, i, i] = v
    form = find_orthogonal_kruskal(t)
    assert form is not None
    assert_orthonormal_columns(form)
    np.testing.assert_allclose(sorted(form.weights), [0.1, 0.2, 0.5], atol=1e-12)
    np.testing.assert_allclose(kruskal_to_tensor(form), t, atol=1e-12)
    assert form.weights.sum() == pytest.approx(0.8, abs=1e-12)
    assert tensor_kyfan(t) == pytest.approx(0.8, abs=1e-12)


def test_orthogonal_form_absent_for_off_diagonal_tensor():
    # the three-party tensor with entries at (0,0,0) and the mixed positions
    # has no completely orthogonal rank-one expansion this finder can produce
    t = np.zeros((3, 3, 3))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    assert find_orthogonal_kruskal(t) is None


def test_orthogonal_form_zero_tensor():
    form = find_orthogonal_kruskal(np.zeros((3, 3, 3)))
    assert form is not None
    assert form.rank == 0
    assert [f.shape for f in form.factors] == [(3, 0)] * 3
    assert form.weights.sum() == 0.0
    np.testing.assert_array_equal(kruskal_to_tensor(form), np.zeros((3, 3, 3)))


def test_orthogonal_form_for_vectors():
    # a vector's form is one term: weight ||v|| and the signed unit vector
    v = np.array([-3.0, 0.0, 4.0])
    form = find_orthogonal_kruskal(v)
    assert form.rank == 1 and form.order == 1
    assert form.weights[0] == 5.0
    np.testing.assert_array_equal(form.factors[0][:, 0], [-0.6, 0.0, 0.8])
    np.testing.assert_array_equal(kruskal_to_tensor(form), v)
    rng = np.random.default_rng(13)
    w = rng.normal(size=7)
    w[0] = -abs(w[0])
    form = find_orthogonal_kruskal(w)
    assert form.weights[0] == np.linalg.norm(w)
    np.testing.assert_allclose(kruskal_to_tensor(form), w, rtol=0, atol=1e-15)
    zero = find_orthogonal_kruskal(np.zeros(5))
    assert zero.rank == 0
    assert [f.shape for f in zero.factors] == [(5, 0)]
    np.testing.assert_array_equal(kruskal_to_tensor(zero), np.zeros(5))


def test_orthogonal_form_for_a_vector_whose_squares_underflow():
    # 1e-187 squared is below the smallest double; the form must still be
    # the unit vector and the norm, not a division by zero
    v = np.array([-3e-187, 0.0, 4e-187])
    form = find_orthogonal_kruskal(v)
    assert form.weights[0] == pytest.approx(5e-187, rel=1e-15)
    np.testing.assert_allclose(form.factors[0][:, 0], [-0.6, 0.0, 0.8], rtol=1e-15)


def diagonal_tensor(values, off=0.0):
    """The (3, 3, 3) tensor with ``values`` on its diagonal and ``off`` at
    the off-diagonal position (0, 1, 2)."""
    t = np.zeros((3, 3, 3))
    t[(np.arange(3),) * 3] = values
    t[0, 1, 2] = off
    return t


def test_orthogonal_forms_match_the_per_tensor_search():
    # the largest entry is 2, so entries at or below RANK_CUTOFF * 2 count
    # as zero: an off-diagonal entry there leaves the tensor diagonal, and a
    # diagonal entry there is no term; one ulp above, it counts
    rng = np.random.default_rng(32)
    cutoff = RANK_CUTOFF * 2.0
    above = np.nextafter(cutoff, np.inf)
    tensors = [
        np.zeros(3), np.array([-3e-187, 0.0, 4e-187]), rng.normal(size=3), np.zeros(8),
        np.zeros((3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 8)),
        rng.normal(size=(3, 3)), np.zeros((3, 3, 8)), np.zeros((3, 3, 3)),
        diagonal_tensor([0.5, -0.2, 0.0]), diagonal_tensor([-2.0, 0.0, 1.0]),
        diagonal_tensor([2.0, -1.0, 0.5], off=cutoff),
        diagonal_tensor([2.0, -1.0, 0.5], off=-np.nextafter(cutoff, 0.0)),
        diagonal_tensor([2.0, cutoff, -above]), np.array([5e-324, 0.0, -5e-324]),
    ]
    want = [per_tensor_form(t) for t in tensors]
    assert None not in want
    stacks, failed = _orthogonal_forms(shape_groups(tensors))
    forms = stacked_forms(stacks)
    assert failed is None and len(forms) == len(tensors)
    assert all(same_form(f, w) for f, w in zip(forms, want))
    assert all(same_form(find_orthogonal_kruskal(t), w) for t, w in zip(tensors, want))
    # a tensor without a form is named wherever it stands, and no form is given
    for bad in (diagonal_tensor([2.0, -1.0, 0.5], off=above), rng.normal(size=(3, 3, 8))):
        assert per_tensor_form(bad) is None and find_orthogonal_kruskal(bad) is None
        for position in range(len(tensors) + 1):
            batch = tensors[:position] + [bad] + tensors[position:]
            assert _orthogonal_forms(shape_groups(batch)) == (None, position)


def test_sign_table_needs_a_column():
    with pytest.raises(ValueError):
        sign_table(0)


def test_sign_table_two_parties():
    np.testing.assert_array_equal(sign_table(2), [[1, 1], [-1, -1]])


def test_sign_table_three_parties():
    np.testing.assert_array_equal(sign_table(3), [
        [1, 1, 1],
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ])


def test_sign_table_four_parties():
    np.testing.assert_array_equal(sign_table(4), [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
        [-1, 1, -1, 1],
        [-1, -1, 1, 1],
        [-1, -1, -1, -1],
    ])


@pytest.mark.parametrize("m", range(1, 14))
def test_sign_table_is_the_per_column_loop(m):
    # the reference builds column c < m-1 from blocks of 2^(m-2-c) rows
    rows = 1 << (m - 1)
    want = np.ones((rows, m), dtype=int)
    for c in range(m - 1):
        want[:, c] = np.where((np.arange(rows) // (1 << (m - 2 - c))) % 2 == 0, 1, -1)
    want[:, -1] = want[:, :-1].prod(axis=1)
    table = sign_table(m)
    assert table.dtype == want.dtype and table.shape == want.shape
    assert table.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 1])
def test_sign_table_is_even_parity_group(m):
    table = sign_table(m)
    assert table.shape == (2 ** (m - 1), m)
    assert len({tuple(row) for row in table}) == 2 ** (m - 1)
    np.testing.assert_array_equal(table.prod(axis=1), 1)
    # products over proper nonempty column subsets cancel row-wise, which is
    # what removes the cross terms from the sign-balanced mixtures
    for size in range(1, m):
        for cols in itertools.combinations(range(m), size):
            assert table[:, cols].prod(axis=1).sum() == 0


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=2, max_size=3),
       seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 3.0))
def test_kyfan_norm_axioms(shape, seed, scale):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=tuple(shape))
    b = rng.normal(size=tuple(shape))
    na, nb = tensor_kyfan(a), tensor_kyfan(b)
    assert tensor_kyfan(scale * a) == pytest.approx(abs(scale) * na, abs=1e-9)
    assert tensor_kyfan(a + b) <= na + nb + 1e-9
    assert na >= np.linalg.norm(a) - 1e-9
