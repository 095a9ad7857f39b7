"""Tests for density-matrix utilities and the bundled example states."""

from dataclasses import replace

import numpy as np
import pytest

from blochsep import (
    DensityMatrix,
    InvalidStateError,
    ZooSpec,
    basis_ket,
    bell_states,
    duer_be4,
    ghz,
    kron,
    maximally_mixed,
    noisy,
    partial_trace,
    projector,
    reduced_w_noisy,
    smolin,
    state_234,
    validate_density,
    w_state,
    zoo_families,
    zoo_state,
)
from conftest import random_density

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
        zoo_state("ghz", parties=3),
        zoo_state("werner", noise=0.4),
        zoo_state("w", parties=4),
        zoo_state("qutrit-ghz-noisy", parties=3, noise=0.5),
        zoo_state("reduced-w-noisy", parties=5, removed=2, noise=0.3),
        zoo_state("psi-234"),
        zoo_state("smolin"),
        zoo_state("duer4"),
        zoo_state("mixed", dims=(2, 3)),
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


def test_validation_rejects_negative_eigenvalue():
    v0 = basis_ket((0,), (2,))
    v1 = basis_ket((1,), (2,))
    mat = (1 + 1e-6) * projector(v0) - 1e-6 * projector(v1)
    with pytest.raises(InvalidStateError, match="positive semidefinite"):
        validate_density(mat, (2,))


def test_validation_rejects_shape_and_dims():
    with pytest.raises(InvalidStateError):
        validate_density(np.eye(3) / 3, (2, 2))
    with pytest.raises(InvalidStateError):
        validate_density(np.eye(2) / 2, (2, 1))
    with pytest.raises(InvalidStateError):
        validate_density(np.full((2, 2), np.nan), (2,))


def test_density_matrix_basics():
    rho = zoo_state("werner", noise=0.5)
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


def test_reduced_w_matches_direct_construction():
    n_total, removed, p = 5, 2, 0.3
    kept = n_total - removed
    red = partial_trace(w_state(n_total), tuple(range(kept)))
    expected = (1 - p) * np.eye(2 ** kept) / 2 ** kept + p * red.matrix
    got = reduced_w_noisy(n_total, removed, p)
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
        rho = zoo_state(family, **kwargs)
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
        zoo_state("werner", noise=0.3).matrix,
        zoo_state("ghz-noisy", parties=2, noise=0.3).matrix,
        atol=1e-12)
