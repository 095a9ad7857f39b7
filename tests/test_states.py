"""Tests for density-matrix utilities and the bundled example states."""

from dataclasses import replace
import json
import math
import os
import resource

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from blochsep import (
    DensityMatrix,
    InvalidStateError,
    KruskalForm,
    SeparableDecomposition,
    ZooSpec,
    assemble_decomposition,
    ball_radii,
    basis_ket,
    bell_states,
    bloch_vector,
    build_basis,
    correlation_tensor,
    decompose,
    duer_be4,
    find_orthogonal_kruskal,
    ghz,
    kron,
    kruskal_to_tensor,
    load_state,
    maximally_mixed,
    necessary_test,
    noise_threshold_table,
    noisy,
    partial_trace,
    projector,
    qubit_exact_test,
    reconstruct,
    save_state,
    separability_bound,
    separable_decomposition,
    sign_table,
    singular_values,
    smolin,
    state_234,
    subset_scan,
    sufficiency_test,
    tensor_kyfan,
    threshold_search,
    unfold,
    validate_density,
    w_state,
    zoo_families,
)
from blochsep.stateio import state_from_jsonable, state_text
import blochsep.states
from blochsep.states import _FAMILIES, _subsystem_dims
from blochsep.tolerances import PSD_TOL
from conftest import (
    ZOO_GRID,
    basis_ket_zoo_state,
    empty_bloch_data,
    limit_memory,
    random_density,
    random_unitary,
    whole_matrix_validate_density,
)

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_basis_ket_index_layout():
    # subsystem 0 is the most significant digit
    v = basis_ket((1, 0, 2), (2, 2, 3))
    expected_index = 1 * 6 + 0 * 3 + 2
    assert v[expected_index] == 1.0
    assert np.count_nonzero(v) == 1


def test_projector_is_rank_one():
    v = basis_ket((0, 1), (2, 2))
    p = projector(v)
    np.testing.assert_array_equal(p, np.outer(v, v.conj()))


def test_kron_matches_numpy():
    rng = np.random.default_rng(0)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    np.testing.assert_allclose(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_validation_accepts_zoo_states():
    samples = [
        ZooSpec("ghz", parties=3).build(),
        ZooSpec("werner", noise=0.4).build(),
        ZooSpec("w", parties=4).build(),
        ZooSpec("qutrit-ghz-noisy", parties=3, noise=0.5).build(),
        ZooSpec("reduced-w-noisy", parties=5, removed=2, noise=0.3).build(),
        ZooSpec("psi-234").build(),
        ZooSpec("smolin").build(),
        ZooSpec("duer4").build(),
        ZooSpec("mixed", dims=(2, 3)).build(),
    ]
    for rho in samples:
        validate_density(rho.matrix, rho.dims)


def test_validation_rejects_non_hermitian():
    mat = np.array(maximally_mixed((2, 2)).matrix)
    mat[0, 1] += 1e-6
    with pytest.raises(InvalidStateError, match="[Hh]ermitian"):
        validate_density(mat, (2, 2))


def test_validation_rejects_bad_trace():
    mat = np.array(maximally_mixed((2, 2)).matrix)
    mat[0, 0] += 1e-6
    with pytest.raises(InvalidStateError, match="trace"):
        validate_density(mat, (2, 2))
    # the all-zero matrix has an empty block, and its trace refuses it
    with pytest.raises(InvalidStateError) as got:
        validate_density(np.zeros((4, 4)), (2, 2))
    assert str(got.value) == "trace is 0+0j, expected 1"


def test_validation_rejects_negative_eigenvalue():
    v0 = basis_ket((0,), (2,))
    v1 = basis_ket((1,), (2,))
    mat = (1 + 1e-6) * projector(v0) - 1e-6 * projector(v1)
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        validate_density(mat, (2,))


# least eigenvalues at, and 0.1 %, 1 % and 10 % either side of, -PSD_TOL
# (where the eigenvalue rule decides) and -PSD_TOL/2 (where the Cholesky
# factorization stops accepting), and at 0
BOUNDARY_EIGENVALUES = [0.0] + [-edge * PSD_TOL * (1 + offset)
                                for edge in (1.0, 0.5)
                                for offset in (0.0, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1)]


def boundary_state(rng, dim, least, real=False):
    """A dim x dim matrix of trace 1 with least eigenvalue ``least``, its
    other eigenvalues positive and its eigenvectors random, real ones if
    ``real``."""
    rest = rng.random(dim - 1) + 0.01
    evals = np.concatenate([[least], rest * (1.0 - least) / rest.sum()])
    u = np.linalg.qr(rng.normal(size=(dim, dim)))[0] if real else random_unitary(rng, dim)
    return (u * evals) @ u.conj().T


def embedded(rng, block, total):
    """A total x total matrix of zeros with ``block`` at the rows and
    columns of ``len(block)`` random indices, in random order."""
    at = rng.choice(total, len(block), replace=False)
    m = np.zeros((total, total), dtype=block.dtype)
    m[np.ix_(at, at)] = block
    return m


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([2, 3, 4, 8, 16, 64, 128]), least=st.sampled_from(BOUNDARY_EIGENVALUES),
       pad=st.sampled_from([0, 1, 7, 64]), seed=st.integers(0, 2**32 - 1))
def test_psd_decision_is_the_eigenvalue_rule(dim, least, pad, seed):
    """``validate_density`` accepts a state exactly when ``eigvalsh`` puts
    its least eigenvalue at or above -PSD_TOL, whichever of the Cholesky
    factorization and ``eigvalsh`` decides, also when ``pad`` zero rows and
    columns lie among the state's, so that only its block is factored."""
    rng = np.random.default_rng(seed)
    m = embedded(rng, boundary_state(rng, dim, least), dim + pad)
    try:
        validate_density(m, (dim + pad,))
        accepted = True
    except InvalidStateError as exc:
        assert "positive semidefinite" in str(exc)
        accepted = False
    assert accepted == (np.linalg.eigvalsh(m)[0] >= -PSD_TOL)


@st.composite
def validation_inputs(draw):
    """A square matrix for ``validate_density``: a state block, real or
    complex, with least eigenvalue one of BOUNDARY_EIGENVALUES, at drawn
    indices among zero rows and columns, or at every index.  Then, as drawn:
    a lone entry, Hermitian or not, in a zero row or column; NaN or an
    infinity there; or every entry zero.  Zero entries may be -0.0."""
    total = draw(st.sampled_from([2, 3, 4, 8, 16, 64]))
    k = draw(st.one_of(st.just(total), st.integers(1, total)))
    least = draw(st.sampled_from(BOUNDARY_EIGENVALUES))
    real = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = boundary_state(rng, k, least, real) if k > 1 else np.ones((1, 1))
    m = embedded(rng, block if real else block.astype(complex), total)
    zero_rows = np.flatnonzero(~(m != 0).any(axis=1))
    change = draw(st.sampled_from(["none", "lone", "lone hermitian", "nonfinite", "all zero"]))
    if change == "all zero":
        m[:] = 0
    elif change != "none" and len(zero_rows):
        i, j = rng.choice(zero_rows), rng.integers(total)
        if change == "nonfinite":
            value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        else:
            value = draw(st.sampled_from([1e-12, 1e-6, 0.01, -0.5]))
        if not real:
            value *= draw(st.sampled_from([1, 1j]))
        if draw(st.booleans()):
            i, j = j, i
        m[i, j] = value
        if change == "lone hermitian":
            m[j, i] = np.conj(value)
    if draw(st.booleans()):
        m[(m == 0) & (rng.random(m.shape) < 0.5)] = -0.0 if real else complex(-0.0, -0.0)
    return m


def validation_outcome(validate, m):
    """None if ``validate`` accepts ``m``, else the type and message of what
    it raises."""
    try:
        validate(m, (len(m),))
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(m=validation_inputs())
def test_block_validation_matches_the_whole_matrix_check(m):
    """Checking the block of nonzero rows and columns accepts what the
    check of the whole matrix accepts, and refuses the rest with the same
    error and message; the matrix is left as it was."""
    before = m.copy()
    got = validation_outcome(validate_density, m)
    assert m.tobytes() == before.tobytes()
    assert got == validation_outcome(whole_matrix_validate_density, m)


@pytest.mark.parametrize("matrix, dtype", [
    (np.eye(2, dtype=bool), "bool"),
    ([[True, False], [False, False]], "bool"),
    (np.array([["0.5", "0"], ["0", "0.5"]]), "<U3"),
    (np.array([[0.5, 0], [0, 0.5]], dtype=object), "object"),
])
def test_validation_refuses_non_numeric_dtypes(matrix, dtype):
    # numpy's own TypeError ("numpy boolean subtract ...", "ufunc 'isfinite'
    # not supported ...") does not escape; integers are numbers
    for call in (lambda: validate_density(matrix, (2,)), lambda: DensityMatrix((2,), matrix)):
        with pytest.raises(InvalidStateError) as got:
            call()
        assert str(got.value) == f"matrix entries must be numbers, got dtype {dtype}"
    for integers in (np.diag([1, 0]), np.diag([0, 1]).astype(np.uint8)):
        validate_density(integers, (2,))


def test_validation_rejects_shape_and_dims():
    with pytest.raises(InvalidStateError):
        validate_density(np.eye(3) / 3, (2, 2))
    with pytest.raises(InvalidStateError):
        validate_density(np.eye(2) / 2, (2, 1))
    with pytest.raises(InvalidStateError):
        validate_density(np.full((2, 2), np.nan), (2,))


def dims_entry_points(dims, zoo=True):
    """What each entry point that takes subsystem dimensions makes of ``dims``."""
    entries = {
        "DensityMatrix": lambda: DensityMatrix(dims, np.eye(6) / 6).dims,
        "validate_density": lambda: validate_density(np.eye(6) / 6, dims),
        "reconstruct": lambda: reconstruct(replace(empty_bloch_data((2, 3)), dims=dims)).dims,
        "separability_bound": lambda: separability_bound(dims),
        "basis_ket": lambda: basis_ket((0, 0), dims).shape,
        "state_from_jsonable": lambda: state_from_jsonable(
            {"schema": "blochsep/1", "kind": "state", "dims": dims,
             "matrix": [[[1 / 6 if i == j else 0, 0] for j in range(6)] for i in range(6)]}).dims,
    }
    if zoo:
        entries["ZooSpec"] = lambda: ZooSpec("mixed", dims=dims).build().dims
    return entries


def test_dims_follow_one_rule():
    # every entry point refuses bad dimensions with _subsystem_dims' message
    # and accepts numpy integers as ints
    for dims in [(2.7, 2.2), [2.0, 2.0], None, ("a",), (), (2, 1), (2, True)]:
        with pytest.raises(InvalidStateError) as want:
            _subsystem_dims(dims)
        for name, call in dims_entry_points(dims, zoo=dims is not None).items():
            with pytest.raises(InvalidStateError) as got:
                call()
            assert str(got.value) == str(want.value), (name, dims)
    got = {name: call() for name, call in dims_entry_points((np.int64(2), np.int32(3))).items()}
    assert got == {"DensityMatrix": (2, 3), "validate_density": None, "reconstruct": (2, 3),
                   "separability_bound": pytest.approx(np.sqrt(3)), "basis_ket": (6,),
                   "state_from_jsonable": (2, 3), "ZooSpec": (2, 3)}
    assert all(type(d) is int for d in got["DensityMatrix"] + got["reconstruct"])


@pytest.mark.parametrize("dims, need", [
    ((2**32, 2**32), f"{2**64}x{2**64}"),
    ((2**21,) * 3, f"{2**63}x{2**63}"),
])
def test_huge_dims_are_named_without_wrapping(dims, need):
    # the dimension product is a Python int, not an int64 that wraps to 0 or
    # to a negative number
    with pytest.raises(InvalidStateError) as got:
        validate_density(np.eye(2) / 2, dims)
    assert str(got.value) == f"matrix shape (2, 2) does not match dims {dims} (need {need})"


def test_density_matrix_basics():
    rho = ZooSpec("werner", noise=0.5).build()
    assert rho.n_parties == 2
    assert rho.dim == 4
    purity = np.vdot(rho.matrix, rho.matrix).real
    assert 0.25 <= purity <= 1.0
    assert not purity >= 1 - 1e-9
    assert np.vdot(ghz(2).matrix, ghz(2).matrix).real >= 1 - 1e-9


def test_density_matrix_is_immutable():
    rho = ghz(2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(1)
    a = random_density(rng, (2,))
    b = random_density(rng, (3,))
    joint = DensityMatrix((2, 3), np.kron(a.matrix, b.matrix))
    np.testing.assert_allclose(partial_trace(joint, (0,)).matrix, a.matrix,
                               atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (1,)).matrix, b.matrix,
                               atol=1e-12)


def index_entry_points(indices):
    """What each entry point that takes a list of subsystem indices makes of
    ``indices`` on a GHZ state of three qubits."""
    rho = ghz(3)
    return {
        "partial_trace": lambda: partial_trace(rho, indices).dims,
        "correlation_tensor": lambda: correlation_tensor(rho, indices).shape,
        "subset_scan": lambda: [v.subset for v in subset_scan(rho, [indices])],
    }


@pytest.mark.parametrize("indices", [(0, 1.7), [0.9, 1], (2.0, 1), (0, np.float64(1)),
                                     "01", (0, "1"), 5, None, (0, True), [True, False],
                                     (0, np.True_), True])
def test_subsystem_indices_follow_one_rule(indices):
    # a float, a bool, a string or a lone index is refused with one message,
    # never truncated, read as 0 or 1 or read character by character
    want = f"subsystem indices must be an iterable of integers, got {indices!r}"
    for name, call in index_entry_points(indices).items():
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == want, name


def test_index_refusals_keep_their_messages():
    rho = ghz(3)
    refusals = {
        "bloch_vector(1.9)": (lambda: bloch_vector(rho, 1.9),
                              "subsystem indices must be an iterable of integers, got (1.9,)"),
        "subset_scan(2.0)": (lambda: subset_scan(rho, 2.0), "unknown subset selector 2.0"),
        "partial_trace-empty": (lambda: partial_trace(rho, []),
                                "subset () too small (need at least 1 subsystems)"),
        "partial_trace-out-of-range": (lambda: partial_trace(rho, [0, 3]),
                                       "subset (0, 3) out of range for 3 parties"),
        "partial_trace-negative": (lambda: partial_trace(rho, [-1]),
                                   "subset (-1,) out of range for 3 parties"),
        "correlation_tensor-one": (lambda: correlation_tensor(rho, (1, 1)),
                                   "subset (1,) too small (need at least 2 subsystems)"),
    }
    for name, (call, message) in refusals.items():
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == message, name


def test_integer_indices_of_every_kind_are_read_alike():
    # numpy integers, unsorted and repeated indices name the same subset
    rho = ghz(3)
    want = {"partial_trace": (2, 2), "correlation_tensor": (3, 3), "subset_scan": [(0, 2)]}
    for indices in [(0, 2), (np.int64(2), np.int32(0)), [2, 0, 2], np.array([2, 0])]:
        got = {name: call() for name, call in index_entry_points(indices).items()}
        assert got == want, indices
        assert all(type(k) is int for k in got["subset_scan"][0])
    assert bloch_vector(rho, np.int64(1)).tobytes() == bloch_vector(rho, 1).tobytes()
    # an integer selector of subset_scan is a subset size of any integer type,
    # and a bool is no size
    for size in (np.int64(2), np.int32(3), np.array(2)):
        assert subset_scan(rho, size) == subset_scan(rho, int(size))
    for refused in (True, False, np.True_):
        with pytest.raises(ValueError) as got:
            subset_scan(rho, refused)
        assert str(got.value) == f"unknown subset selector {refused!r}"
    with pytest.raises(ValueError) as got:
        bloch_vector(rho, True)
    assert str(got.value) == "subsystem indices must be an iterable of integers, got (True,)"
    assert partial_trace(rho, range(3)) is rho
    assert basis_ket(np.array([1, 0]), (2, 2)).tobytes() == basis_ket((1, 0), (2, 2)).tobytes()
    # zoo parameters and the table size read numpy integers as ints, and noise
    # takes any real number, numpy's and integers included
    built = ZooSpec("ghz-noisy", parties=np.int64(3), levels=np.int32(2), noise=np.float64(0.5))
    want = ZooSpec("ghz-noisy", parties=3, noise=0.5).build()
    assert built.build().matrix.tobytes() == want.matrix.tobytes()
    assert (ZooSpec("w-noisy", parties=3, noise=1).build().matrix.tobytes()
            == ZooSpec("w-noisy", parties=3, noise=1.0).build().matrix.tobytes())
    assert noise_threshold_table(np.int64(3)) == noise_threshold_table(3)
    # a tensor mode and a sign table's width read numpy integers as ints too,
    # and refuse a bool or a float
    t = np.arange(24.0).reshape(2, 3, 4)
    for mode in (np.int64(1), np.int32(2), np.array(0)):
        assert unfold(t, mode).tobytes() == unfold(t, int(mode)).tobytes()
    assert sign_table(np.int64(3)).tobytes() == sign_table(3).tobytes()
    for refused in (True, np.True_, 1.0):
        with pytest.raises(ValueError) as got:
            unfold(t, refused)
        assert str(got.value) == f"mode must be an integer, got {refused!r}"
        with pytest.raises(ValueError) as got:
            sign_table(refused)
        assert str(got.value) == f"n_parties must be an integer, got {refused!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: basis_ket((0.5, 1), (2, 2)), "levels must be an iterable of integers, got (0.5, 1)"),
    (lambda: basis_ket("01", (2, 2)), "levels must be an iterable of integers, got '01'"),
    (lambda: basis_ket((0,), (2, 2)), "one level per subsystem required"),
    (lambda: basis_ket((0, 2), (2, 2)), "level 2 out of range for dimension 2"),
    (lambda: basis_ket((-1, 0), (2, 2)), "level -1 out of range for dimension 2"),
    (lambda: kron(), "kron needs at least one operand"),
    (lambda: ghz(1), "ghz needs at least 2 parties"),
    (lambda: ghz(3.0), "n_parties must be an integer, got 3.0"),
    (lambda: w_state(3.0), "n_parties must be an integer, got 3.0"),
    (lambda: ghz(3, 2.0), "d must be an integer, got 2.0"),
    (lambda: ghz(True), "n_parties must be an integer, got True"),
    (lambda: separability_bound((2,)), "the bound concerns at least 2 subsystems"),
    (lambda: ball_radii(2.0), "d must be an integer, got 2.0"),
    (lambda: ball_radii("3"), "d must be an integer, got '3'"),
    (lambda: build_basis(2.0), "d must be an integer, got 2.0"),
    (lambda: build_basis([2]), "d must be an integer, got [2]"),
    # an integer difference must not wrap: 1 - 2 is -1, not 255, and 0 - -128
    # is 128, not -128, which hid the deviation and accepted the matrix
    (lambda: validate_density(np.array([[1, 1], [2, 0]], np.uint8), (2,)),
     "matrix is not Hermitian (max deviation 1.000e+00)"),
    (lambda: validate_density(np.array([[1, -128], [0, 0]], np.int8), (2,)),
     "matrix is not Hermitian (max deviation 1.280e+02)"),
    (lambda: ZooSpec("ghz", parties=3.0).build(), "parameter 'parties' must be an integer, got 3.0"),
    (lambda: ZooSpec("w", parties=3.0).build(), "parameter 'parties' must be an integer, got 3.0"),
    (lambda: ZooSpec("ghz", parties=3, levels=2.0).build(),
     "parameter 'levels' must be an integer, got 2.0"),
    (lambda: ZooSpec("reduced-w-noisy", parties=3, removed=1.0, noise=0.5).build(),
     "parameter 'removed' must be an integer, got 1.0"),
    (lambda: ZooSpec("w-noisy", parties="3", noise=0.5).build(),
     "parameter 'parties' must be an integer, got '3'"),
    (lambda: noise_threshold_table(3.5), "max_parties must be an integer, got 3.5"),
    # a bool is no integer anywhere an integer is read
    (lambda: basis_ket((True, 0), (2, 2)),
     "levels must be an iterable of integers, got (True, 0)"),
    (lambda: _subsystem_dims((2, True)), "dims must be a sequence of integers"),
    (lambda: ZooSpec("ghz", parties=True).build(),
     "parameter 'parties' must be an integer, got True"),
    (lambda: ZooSpec("ghz", parties=3, levels=True).build(),
     "parameter 'levels' must be an integer, got True"),
    (lambda: ZooSpec("reduced-w-noisy", parties=3, removed=True, noise=0.5).build(),
     "parameter 'removed' must be an integer, got True"),
    (lambda: noise_threshold_table(True), "max_parties must be an integer, got True"),
    # noise is a real number and no bool, refused by noisy itself
    (lambda: ZooSpec("ghz-noisy", parties=3, noise="0.5").build(),
     "noise weight p must be a real number, got '0.5'"),
    (lambda: ZooSpec("ghz-noisy", parties=3, noise=True).build(),
     "noise weight p must be a real number, got True"),
    (lambda: ZooSpec("werner", noise=np.True_).build(),
     f"noise weight p must be a real number, got {np.True_!r}"),
    (lambda: ZooSpec("werner", noise=0.5j).build(),
     "noise weight p must be a real number, got 0.5j"),
    # noisy does not validate its mixture, so it takes only a validated state
    (lambda: noisy(np.eye(2) / 2, 0.5), "state must be a DensityMatrix, got ndarray"),
    (lambda: noisy(None, 0.5), "state must be a DensityMatrix, got NoneType"),
    (lambda: noisy("ghz", 0.5), "state must be a DensityMatrix, got str"),
    # and neither does partial_trace its marginal
    (lambda: partial_trace(np.eye(4) / 4, (0,)), "rho must be a DensityMatrix, got ndarray"),
    # every criterion names its state parameter by the same rule
    (lambda: subset_scan(np.eye(2) / 2, "all"), "rho must be a DensityMatrix, got ndarray"),
    (lambda: necessary_test(np.eye(4) / 4), "rho must be a DensityMatrix, got ndarray"),
    (lambda: qubit_exact_test(np.eye(4) / 4), "rho must be a DensityMatrix, got ndarray"),
    (lambda: sufficiency_test(np.eye(4) / 4), "rho must be a DensityMatrix, got ndarray"),
    (lambda: separable_decomposition(np.eye(4) / 4), "rho must be a DensityMatrix, got ndarray"),
    (lambda: subset_scan(None, "pairs"), "rho must be a DensityMatrix, got NoneType"),
    # and so does every function that takes one of the package's classes
    (lambda: bloch_vector(None, 0), "rho must be a DensityMatrix, got NoneType"),
    (lambda: correlation_tensor(np.eye(4) / 4, (0, 1)), "rho must be a DensityMatrix, got ndarray"),
    (lambda: decompose("ghz"), "rho must be a DensityMatrix, got str"),
    (lambda: reconstruct(None), "data must be a BlochData, got NoneType"),
    (lambda: assemble_decomposition(1), "dec must be a SeparableDecomposition, got int"),
    (lambda: kruskal_to_tensor("x"), "form must be a KruskalForm, got str"),
    # the writers read rho's dims and matrix, so they refuse it before a
    # file or its temporary sibling is made
    (lambda: save_state("x", "state.json"), "rho must be a DensityMatrix, got str"),
    (lambda: state_text(None), "rho must be a DensityMatrix, got NoneType"),
    (lambda: threshold_search(True), "family must be a ZooSpec, got bool"),
    # an array whose entries do not convert to floats names its parameter
    (lambda: singular_values("x"), "matrix has dtype <U1, whose entries are not all real numbers"),
    (lambda: tensor_kyfan("x"), "tensor has dtype <U1, whose entries are not all real numbers"),
    (lambda: unfold("x", 0), "tensor has dtype <U1, whose entries are not all real numbers"),
    (lambda: find_orthogonal_kruskal([["x", "y"], ["z", "w"]]),
     "tensor has dtype <U1, whose entries are not all real numbers"),
    (lambda: singular_values(np.array([[10**400, 1], [1, 1]], dtype=object)),
     "matrix has dtype object, whose entries are not all real numbers"),
    # strings that parse as numbers, bools and bytes are refused too, not
    # read as the numbers astype makes of them
    (lambda: singular_values([["1.5", "0"], ["0", "2"]]),
     "matrix has dtype <U3, whose entries are not all real numbers"),
    (lambda: tensor_kyfan(np.eye(2, dtype=bool)),
     "tensor has dtype bool, whose entries are not all real numbers"),
    (lambda: unfold(np.array([[b"1", b"0"], [b"0", b"1"]]), 0),
     "tensor has dtype |S1, whose entries are not all real numbers"),
    (lambda: find_orthogonal_kruskal([True, False]),
     "tensor has dtype bool, whose entries are not all real numbers"),
], ids=["basis_ket-float", "basis_ket-string", "basis_ket-count", "basis_ket-range",
        "basis_ket-negative", "kron-empty", "ghz-one-party", "ghz-float-parties",
        "w-float-parties", "ghz-float-d", "ghz-bool-parties", "bound-one-party",
        "ball_radii-float-d", "ball_radii-string-d", "build_basis-float-d", "build_basis-list-d",
        "uint8-hermiticity",
        "int8-hermiticity",
        "zoo-ghz-float-parties", "zoo-w-float-parties", "zoo-float-levels",
        "zoo-float-removed", "zoo-string-parties", "threshold-table-float-parties",
        "basis_ket-bool", "dims-bool", "zoo-bool-parties", "zoo-bool-levels", "zoo-bool-removed",
        "threshold-table-bool-parties", "zoo-string-noise", "zoo-bool-noise",
        "zoo-numpy-bool-noise", "zoo-complex-noise", "noisy-array-state",
        "noisy-none-state", "noisy-string-state", "partial_trace-array-rho",
        "subset_scan-array-rho",
        "necessary_test-array-rho", "qubit_exact_test-array-rho", "sufficiency_test-array-rho",
        "separable_decomposition-array-rho", "subset_scan-none-rho", "bloch_vector-none-rho",
        "correlation_tensor-array-rho", "decompose-string-rho", "reconstruct-none-data",
        "assemble_decomposition-int-dec", "kruskal_to_tensor-string-form",
        "save_state-string-rho", "state_text-none-rho", "threshold_search-bool-family",
        "singular_values-string", "tensor_kyfan-string", "unfold-string",
        "find_orthogonal_kruskal-strings", "singular_values-huge-int",
        "singular_values-number-strings", "tensor_kyfan-bool", "unfold-bytes",
        "find_orthogonal_kruskal-bool-vector"])
def test_refusals_keep_their_messages(call, message, tmp_path, monkeypatch):
    # each call runs in an empty directory, which a refusal leaves empty
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as got:
        call()
    assert str(got.value) == message
    assert list(tmp_path.iterdir()) == []


def test_partial_trace_composes():
    rng = np.random.default_rng(2)
    rho = random_density(rng, (2, 3, 2))
    two_step = partial_trace(partial_trace(rho, (0, 1)), (0,))
    one_step = partial_trace(rho, (0,))
    np.testing.assert_allclose(two_step.matrix, one_step.matrix, atol=1e-12)


def test_partial_trace_loop_oracle():
    # independent nested-loop contraction
    rng = np.random.default_rng(3)
    rho = random_density(rng, (2, 3))
    reduced = np.zeros((2, 2), dtype=complex)
    mat = rho.matrix.reshape(2, 3, 2, 3)
    for i in range(2):
        for j in range(2):
            for t in range(3):
                reduced[i, j] += mat[i, t, j, t]
    np.testing.assert_allclose(partial_trace(rho, (0,)).matrix, reduced,
                               atol=1e-12)


def tolerance_edge_states():
    """Two accepted 2-qubit states whose marginal on qubit 1 sums their
    deviations past the tolerances they met: an eigenvalue of -9e-10 twice,
    and a Hermiticity deviation of 6e-11 twice."""
    below = DensityMatrix((2, 2), np.diag([0.5 + 9e-10, -9e-10, 0.5 + 9e-10, -9e-10]))
    skewed = np.eye(4) / 4
    skewed[0, 1] += 6e-11
    skewed[2, 3] += 6e-11
    return {"eigenvalue": (below, np.diag([1 + 1.8e-9, -1.8e-9])),
            "hermiticity": (DensityMatrix((2, 2), skewed), np.array([[0.5, 1.2e-10], [0, 0.5]]))}


@pytest.mark.parametrize("case", ["eigenvalue", "hermiticity"])
def test_partial_trace_takes_the_marginal_of_every_accepted_state(case):
    # the marginal is the sum of the traced blocks, not validated again
    rho, want = tolerance_edge_states()[case]
    marginal = partial_trace(rho, [1])
    assert marginal.dims == (2,)
    reduced = rho.matrix[:2, :2] + rho.matrix[2:, 2:]
    assert marginal.matrix.tobytes() == reduced.tobytes()
    np.testing.assert_allclose(marginal.matrix, want, rtol=0, atol=1e-24)
    assert not marginal.matrix.flags.writeable


def test_ghz_marginals_are_maximally_mixed():
    for d in (2, 3):
        g = ghz(3, d)
        single = partial_trace(g, (1,))
        np.testing.assert_allclose(single.matrix, np.eye(d) / d, atol=1e-12)


def test_w_state_pair_marginal():
    red = partial_trace(w_state(3), (0, 1))
    dims = (2, 2)
    psi_plus = (basis_ket((0, 1), dims) + basis_ket((1, 0), dims)) / np.sqrt(2)
    expected = projector(basis_ket((0, 0), dims)) / 3 + 2 * projector(psi_plus) / 3
    np.testing.assert_allclose(red.matrix, expected, atol=1e-12)


def test_bell_states_orthonormal():
    vecs = bell_states()
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_noisy_eigenvalues():
    rho = noisy(ghz(2), 0.5)
    eig = np.sort(np.linalg.eigvalsh(rho.matrix))
    np.testing.assert_allclose(eig, [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_noisy_is_affine_in_p():
    base = ghz(3)
    blend = 0.6 * noisy(base, 0.0).matrix + 0.4 * noisy(base, 0.75).matrix
    np.testing.assert_allclose(noisy(base, 0.3).matrix, blend, atol=1e-12)


def test_noisy_rejects_out_of_range():
    with pytest.raises(ValueError):
        noisy(ghz(2), 1.5)
    with pytest.raises(ValueError):
        noisy(ghz(2), -0.1)


@pytest.mark.parametrize("p", ["0.5", True, np.True_, 0.5j], ids=repr)
def test_noisy_refuses_a_weight_that_is_no_real_number(p):
    with pytest.raises(ValueError) as got:
        noisy(ghz(2), p)
    assert str(got.value) == f"noise weight p must be a real number, got {p!r}"


@settings(max_examples=100, deadline=None)
@given(dims=st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2, 2), (2, 2, 2)]),
       rank=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       p=st.floats(0.0, 1.0) | st.floats(0.0, 1.0, width=32).map(np.float32))
def test_noisy_of_a_valid_state_is_valid(dims, rank, seed, p):
    """``noisy`` does not validate its mixture; it passes the check all the
    same, and is the mixture its formula names, in double precision also
    for a float32 weight."""
    rho = random_density(np.random.default_rng(seed), dims, rank=rank)
    mixed = noisy(rho, p)
    validate_density(mixed.matrix, mixed.dims)
    total, p = math.prod(dims), float(p)
    assert mixed.dims == rho.dims
    np.testing.assert_allclose(mixed.matrix, (1 - p) / total * np.eye(total) + p * rho.matrix,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_every_zoo_state_is_valid(family):
    """The zoo builds its states from formulas and does not validate them;
    each passes the check, and is, bit for bit, what the validating
    constructor makes of its matrix and the state that sums of checked
    ``basis_ket`` calls give."""
    assert set(ZOO_GRID) == set(_FAMILIES), "every zoo family needs a row in ZOO_GRID"
    for params in ZOO_GRID[family]:
        rho = ZooSpec(family, **params).build()
        validate_density(rho.matrix, rho.dims)
        checked = DensityMatrix(rho.dims, rho.matrix)
        assert rho.dims == checked.dims and all(type(d) is int for d in rho.dims)
        assert rho.matrix.dtype == checked.matrix.dtype
        assert rho.matrix.flags.c_contiguous and not rho.matrix.flags.writeable
        assert rho.matrix.tobytes() == checked.matrix.tobytes()
        assert rho.matrix.tobytes() == basis_ket_zoo_state(family, params).matrix.tobytes()
        if "noise" in params:
            # the noise weight is the weight of sigma, not of I/D
            total = rho.dim
            sigma = ZooSpec(family, **{k: v for k, v in params.items() if k != "noise"})._state()
            want = {0.0: np.eye(total) / total, 1.0: sigma.matrix}.get(params["noise"])
            if want is not None:
                assert np.array_equal(rho.matrix, want)


def test_a_state_from_outside_is_still_validated(tmp_path):
    """Every path that takes a matrix from outside the package refuses one
    that is not positive semidefinite: here diag(2, -1), or its expansion."""
    message = "matrix is not positive semidefinite (min eigenvalue -1.000e+00)"
    bad = np.diag([2.0, -1.0])
    path = tmp_path / "bad.json"
    save_state(maximally_mixed((2,)), str(path))
    doc = json.loads(path.read_text())
    doc["matrix"] = [[[float(x), 0.0] for x in row] for row in bad]
    path.write_text(json.dumps(doc, indent=2))
    pure = decompose(DensityMatrix((2,), np.diag([1.0, 0.0])))
    terms = KruskalForm(np.array([1.0]), [3.0 * pure.singles[0][:, None]])
    for call in (
        lambda: DensityMatrix((2,), bad),
        lambda: load_state(str(path)),
        lambda: reconstruct(replace(pure, singles={0: 3.0 * pure.singles[0]})),
        lambda: assemble_decomposition(SeparableDecomposition((2,), terms, 0.0)),
    ):
        with pytest.raises(InvalidStateError) as got:
            call()
        assert str(got.value) == message


def test_reduced_w_matches_direct_construction():
    n_total, removed, p = 5, 2, 0.3
    kept = n_total - removed
    red = partial_trace(w_state(n_total), tuple(range(kept)))
    expected = (1 - p) * np.eye(2 ** kept) / 2 ** kept + p * red.matrix
    got = ZooSpec("reduced-w-noisy", parties=n_total, removed=removed, noise=p).build()
    assert got.dims == (2,) * kept
    np.testing.assert_allclose(got.matrix, expected, atol=1e-12)


def test_smolin_bloch_identity():
    # the state equals (I + sum_i sigma_i^x4) / 16
    expected = np.eye(16, dtype=complex)
    for s in PAULI:
        expected = expected + kron(s, s, s, s)
    np.testing.assert_allclose(smolin().matrix, expected / 16, atol=1e-12)


def test_duer_state_shape():
    rho = duer_be4()
    assert rho.dims == (2, 2, 2, 2)
    assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12


def test_state_234_components():
    rho = state_234()
    assert rho.dims == (2, 3, 4)
    assert np.vdot(rho.matrix, rho.matrix).real >= 1 - 1e-9
    dims = (2, 3, 4)
    vec = 0.5 * (basis_ket((0, 0, 1), dims) + basis_ket((0, 1, 2), dims)
                 + basis_ket((1, 0, 3), dims) + basis_ket((1, 2, 3), dims))
    np.testing.assert_allclose(rho.matrix, projector(vec), atol=1e-12)


def test_zoo_spec_noise_parameterization():
    spec = ZooSpec(family="ghz-noisy", parties=3)
    assert spec.noise_parameterized
    assert not ZooSpec(family="smolin").noise_parameterized
    np.testing.assert_allclose(replace(spec, noise=0.0).build().matrix,
                               np.eye(8) / 8, atol=1e-12)
    np.testing.assert_allclose(replace(spec, noise=1.0).build().matrix,
                               ghz(3).matrix, atol=1e-12)


def test_zoo_spec_missing_parameters():
    with pytest.raises(ValueError, match="parties"):
        ZooSpec(family="ghz").build()
    with pytest.raises(ValueError, match="noise"):
        ZooSpec(family="werner").build()
    with pytest.raises(ValueError, match="unknown state family"):
        ZooSpec(family="nope").build()
    with pytest.raises(ValueError, match="unknown state family 'nope'"):
        ZooSpec(family="nope").noise_parameterized
    with pytest.raises(ValueError, match="takes no parameter"):
        ZooSpec("smolin", parties=3).build()


FAMILY_PARAMS = {
    "ghz": dict(parties=3),
    "ghz-noisy": dict(parties=3, noise=0.4),
    "qutrit-ghz-noisy": dict(parties=3, noise=0.4),
    "werner": dict(noise=0.4),
    "w": dict(parties=3),
    "w-noisy": dict(parties=3, noise=0.4),
    "reduced-w-noisy": dict(parties=4, removed=1, noise=0.4),
    "psi-234": {},
    "state-234-noisy": dict(noise=0.4),
    "smolin": {},
    "duer4": {},
    "mixed": dict(dims=(2, 2)),
}


def test_zoo_families_all_buildable():
    assert set(FAMILY_PARAMS) == set(zoo_families())
    for family, kwargs in FAMILY_PARAMS.items():
        rho = ZooSpec(family, **kwargs).build()
        validate_density(rho.matrix, rho.dims)


@pytest.mark.parametrize(
    "family", [f for f in zoo_families() if ZooSpec(f).noise_parameterized])
def test_noise_families_mix_sigma_with_white_noise(family):
    # the closed-form thresholds assume (1-p)/D I + p sigma, sigma the p = 1 state
    spec = ZooSpec(family, **FAMILY_PARAMS[family])
    sigma = replace(spec, noise=1.0).build().matrix
    white = np.eye(len(sigma)) / len(sigma)
    for p in (0.0, 0.37, 1.0):
        np.testing.assert_allclose(replace(spec, noise=p).build().matrix,
                                   (1 - p) * white + p * sigma, rtol=0, atol=1e-12)


def test_werner_is_two_party_ghz_noisy():
    np.testing.assert_allclose(
        ZooSpec("werner", noise=0.3).build().matrix,
        ZooSpec("ghz-noisy", parties=2, noise=0.3).build().matrix,
        atol=1e-12)


@pytest.mark.parametrize("pages, fits", [(1, False), (2, True)])
def test_working_memory_estimate(monkeypatch, pages, fits):
    # a 3-qubit state needs 72 bytes per entry of its 8 x 8 matrix: 4,608
    # bytes, more than one 4,096-byte page and less than two
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
    limit_memory(monkeypatch, sizes.__getitem__)
    if fits:
        assert ghz(3).dims == (2, 2, 2)
    else:
        with pytest.raises(ValueError, match="^a state of dimension 8 needs about 4.29e-06 GiB"):
            ghz(3)


def test_working_memory_is_not_checked_where_it_is_not_reported(monkeypatch):
    def unavailable(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    limit_memory(monkeypatch, unavailable)
    assert maximally_mixed((2, 2)).dims == (2, 2)


def pages(n):
    """``os.sysconf`` on a machine of ``n`` 4,096-byte pages."""
    return {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": n}.__getitem__


PLENTY = pages(2**20)  # 4 GiB


LIMITS = ["physical memory", "the cgroup's memory.max", "address space left under RLIMIT_AS"]


@pytest.mark.parametrize("name", LIMITS, ids=["physical", "cgroup", "rlimit-as"])
def test_the_least_memory_limit_is_taken(monkeypatch, tmp_path, name):
    """A 3-qubit state, 4,608 bytes of working memory, is refused under
    4,096 bytes of any one limit, the others plentiful, and fits in 8,192."""
    (tmp_path / "cgroup").write_text("12:memory:/x\n0::/a/b\n")
    (tmp_path / "a" / "b").mkdir(parents=True)
    for size in (4096, 8192):
        (tmp_path / "a" / "b" / "memory.max").write_text(
            f"{size if name == LIMITS[1] else 2**32}\n")
        limit_memory(monkeypatch, pages(size // 4096 if name == LIMITS[0] else 2**20),
                     cgroup=(str(tmp_path / "cgroup"), str(tmp_path)),
                     address_space=2**20 + size if name == LIMITS[2] else None, mapped=2**20)
        if size == 8192:
            assert ghz(3).dims == (2, 2, 2)
            continue
        with pytest.raises(ValueError) as got:
            ghz(3)
        assert str(got.value) == ("a state of dimension 8 needs about 4.29e-06 GiB of working "
                                  f"memory, more than the 3.81e-06 GiB of {name}")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc/self/statm")
def test_mapped_memory_is_a_positive_number_of_pages():
    mapped = blochsep.states._mapped_bytes()
    assert mapped > 0 and mapped % resource.getpagesize() == 0


def test_mapped_memory_is_read_only_under_an_address_space_limit(monkeypatch):
    limit_memory(monkeypatch, PLENTY)

    def unread():
        raise AssertionError("/proc/self/statm read without an RLIMIT_AS")

    monkeypatch.setattr(blochsep.states, "_mapped_bytes", unread)
    assert ghz(3).dims == (2, 2, 2)


def test_the_fixed_limits_are_read_once(monkeypatch):
    reads = []

    def sysconf(name):
        reads.append(name)
        return PLENTY(name)

    limit_memory(monkeypatch, sysconf)
    for _ in range(3):
        ghz(3)
        maximally_mixed((2, 2))
    assert reads == ["SC_PAGE_SIZE", "SC_PHYS_PAGES"]


@pytest.mark.parametrize("lines, files, want", [
    ("12:memory:/x\n0::/a/b\n", {"a/b/memory.max": "1073741824\n"}, 1073741824),
    ("0::/\n", {"memory.max": "4096\n"}, 4096),
    ("0::/a\n", {"a/memory.max": "max\n"}, math.inf),
    ("0::/a\n", {}, math.inf),
    ("4:memory:/a\n", {"a/memory.max": "4096\n"}, math.inf),
], ids=["nested", "root", "max", "missing", "v1-only"])
def test_the_cgroup_limit_is_read_from_the_process_cgroup(monkeypatch, tmp_path, lines, files,
                                                          want):
    def unavailable(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(blochsep.states.os, "sysconf", unavailable)
    (tmp_path / "cgroup").write_text(lines)
    for name, text in files.items():
        (tmp_path / "fs" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / name).write_text(text)
    have, _ = blochsep.states._fixed_limit.__wrapped__(str(tmp_path / "cgroup"),
                                                       str(tmp_path / "fs"))
    assert have == want
