"""Tests for the traceless Hermitian generator basis and its structure
constants."""

import numpy as np
import pytest

from blochsep import DensityMatrix, bloch_vector, build_basis
from conftest import loop_basis

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]])
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def structure_constants(d):
    """(f, g) from the triple-product traces Tr(g_a g_b g_c) = 2 g_abc + 2i f_abc."""
    gens = build_basis(d)
    triple = np.einsum("aij,bjk,cki->abc", gens, gens, gens, optimize=True)
    return triple.imag / 2.0, triple.real / 2.0


def test_qubit_generators_are_pauli():
    gens = build_basis(2)
    np.testing.assert_array_equal(gens[0], PAULI_X)
    np.testing.assert_array_equal(gens[1], PAULI_Y)
    np.testing.assert_array_equal(gens[2], PAULI_Z)


@pytest.mark.parametrize("d", range(2, 13))
def test_basis_has_the_bits_of_the_loop_over_generators(d):
    # the closed form fills the pairs through np.triu_indices and the
    # diagonals through one np.where, signed zeros included
    gens = build_basis(d)
    assert gens.dtype == complex and gens.flags.c_contiguous
    assert gens.tobytes() == loop_basis(d).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_generator_count_and_orthogonality(d):
    gens = build_basis(d)
    assert gens.shape == (d * d - 1, d, d)
    gram = np.einsum("aij,bji->ab", gens, gens)
    np.testing.assert_allclose(gram, 2.0 * np.eye(d * d - 1), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_generators_traceless_hermitian(d):
    gens = build_basis(d)
    traces = np.einsum("aii->a", gens)
    np.testing.assert_allclose(traces, 0, atol=1e-12)
    np.testing.assert_allclose(gens, gens.conj().transpose(0, 2, 1), atol=1e-12)


def test_generator_arrays_read_only():
    gens = build_basis(3)
    with pytest.raises(ValueError):
        gens[0, 0, 0] = 1.0


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError):
        build_basis(1)
    with pytest.raises(ValueError):
        build_basis(0)


def test_basis_is_cached():
    assert build_basis(4) is build_basis(4)
    assert not build_basis(4).flags.writeable


def test_qubit_structure_constants():
    f, g = structure_constants(2)
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    np.testing.assert_allclose(f, eps, atol=1e-12)
    np.testing.assert_allclose(g, 0, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_products_reconstruct_from_structure_constants(d):
    # lam_a lam_b = (2/d) delta_ab I + sum_c (g_abc + i f_abc) lam_c
    f, g = structure_constants(d)
    gens = build_basis(d)
    direct = np.einsum("aik,bkj->abij", gens, gens)
    rebuilt = np.einsum("abc,cij->abij", g + 1j * f, gens)
    rebuilt += (2.0 / d) * np.einsum("ab,ij->abij", np.eye(d * d - 1), np.eye(d))
    np.testing.assert_allclose(direct, rebuilt, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_structure_constant_symmetries(d):
    f, g = structure_constants(d)
    np.testing.assert_allclose(f, -f.transpose(1, 0, 2), atol=1e-12)
    np.testing.assert_allclose(f, f.transpose(1, 2, 0), atol=1e-12)
    np.testing.assert_allclose(g, g.transpose(1, 0, 2), atol=1e-12)
    np.testing.assert_allclose(g, g.transpose(1, 2, 0), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_state_vector_length(d):
    rng = np.random.default_rng(41 + d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    rho = DensityMatrix((d,), np.outer(v, v.conj()))
    s = bloch_vector(rho, 0)
    assert np.linalg.norm(s) == pytest.approx(np.sqrt(d * (d - 1) / 2), abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pure_state_star_product_identity(d):
    # for pure states the g-contraction of s with itself returns (d-2) s
    _, g = structure_constants(d)
    rng = np.random.default_rng(97 + d)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    rho = DensityMatrix((d,), np.outer(v, v.conj()))
    s = bloch_vector(rho, 0)
    contracted = np.einsum("i,j,ijk->k", s, s, g)
    np.testing.assert_allclose(contracted, (d - 2) * s, atol=1e-10)
