"""Hilbert-Schmidt expansion of multipartite density matrices.

A state on dimensions (d_0, ..., d_{N-1}) is contracted once, mode by mode,
against the identity-augmented stacks A^(k) = [I, (d_k/2) g_1, ...] of SU(d_k)
generators, giving the real coefficient array (cached on the state)

    C_{a_0...a_{N-1}} = Tr(rho (A^(0)_{a_0} x ... x A^(N-1)_{a_{N-1}})).

Every component is a slice of C, :func:`_index`: index 0 in the traced-out
modes and ``1:`` in the held ones.  The public one-subset readers copy that
slice, and :func:`reconstruct` assigns each part to it.  Stacked reads go
through :func:`_plan`, the map from a selection of subsets to the flat
positions of their entries in C, cached per selection: :func:`_groups`
gathers the components of each shape through it into one stack.  The full
tensor alone, all the necessary test reads, is the slice of C with no
index 0: ``_contract(rho, 1)`` gives it with the same bits from the stacks
without their identity rows, and ``_contract(rho, 0)`` gives C.  As an
identity factor traces its mode out, the slices are the coherence vectors
s^(k)_a = (d_k / 2) Tr(rho_k g_a) and, for each subset S with |S| >= 2,
the correlation tensors
t_{a_1...a_M} = (prod_{k in S} d_k / 2^M) Tr(rho_S (g_{a_1} x ... x g_{a_M}))
of the reduced states.  C_{0...0} = 1 completes the parameterization:
:func:`_from_coefficients` runs the contraction in reverse with the unscaled
stacks and divides by D = prod_k d_k.  It is the only map from coefficients
back to a matrix; :func:`reconstruct` and the assembly of separable
decompositions both end in it.  It does not validate the matrix it gives:
:func:`reconstruct` and ``criteria.assemble_decomposition`` do.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
import math

import numpy as np

from .errors import NumericIntegrityError
from .states import (DensityMatrix, _check_memory, _checked_subset, _instance, _integer,
                     _subsystem_dims)
from .su_basis import build_basis
from .tolerances import EXACT_TOL, IMAG_TOL


@dataclass
class BlochData:
    """Coherence vectors and correlation tensors of one state.

    ``singles[k]`` is the length d_k^2 - 1 coherence vector of subsystem k;
    ``tensors[subset]`` is the correlation tensor of the ascending index
    tuple ``subset``.  A complete expansion holds 2^N - 1 components.
    """

    dims: tuple
    singles: dict
    tensors: dict


@lru_cache(maxsize=None)
def _stack(d: int, scale: float) -> np.ndarray:
    """[I, scale g_1, ...] as a (d^2, d^2) matrix: row a is A_a flattened.
    Refuses, before building anything, a d whose stacks would not fit in
    memory: the expansion holds four complex (d^2, d^2) arrays per d, the
    generators, both scaled stacks and the conjugate of the scaled one."""
    _check_memory(math.log2(4 * 16 * d**4),
                  f"the generator stacks of a subsystem of dimension {d} need")
    gens = scale * build_basis(d)
    arr = np.concatenate([np.eye(d, dtype=complex)[None], gens]).reshape(d * d, d * d)
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple:
    """Nonempty subsets of range(n), by size and then lexicographically."""
    return tuple(s for m in range(1, n + 1) for s in combinations(range(n), m))


def _name(subset) -> str:
    """How messages name the component of ``subset``."""
    return (f"coherence vector of subsystem {subset[0]}" if len(subset) == 1
            else f"correlation tensor of subset {subset}")


def _mode_products(arr: np.ndarray, mats) -> np.ndarray:
    """Contract axis k of ``arr`` with axis 1 of ``mats[k]`` for every k; each
    step takes the leading axis and appends the new one, keeping axis order.
    A step is the matrix product ``np.tensordot`` makes of it, without its
    bookkeeping: the leading axis as the columns of a transposed view."""
    for m in mats:
        arr = (arr.reshape(m.shape[1], -1).T @ m.T).reshape(arr.shape[1:] + m.shape[:1])
    return arr


def _residue_tol(dims: tuple) -> float:
    """The largest imaginary residue a coefficient of a state on ``dims``
    may carry: IMAG_TOL for rounding, plus what validation lets through.
    The anti-Hermitian part K of a matrix it accepts has entries of at most
    EXACT_TOL / 2, and Tr(H A_a) of its Hermitian part H is real, so
    |Im C_a| = |Tr(K A_a)| is at most EXACT_TOL / 2 times the entrywise l1
    norm of A_a: the product over the modes of c_k = sqrt(2 d_k (d_k - 1)),
    the l1 norm of the last diagonal row (d_k / 2) g_{d_k^2 - 1} of mode k's
    stack, its largest row, which is 2 for a qubit."""
    return IMAG_TOL + EXACT_TOL / 2 * math.prod(math.sqrt(2 * d * (d - 1)) for d in dims)


def _real_part(coeff: np.ndarray, dims: tuple, first: int) -> np.ndarray:
    """Real part of ``coeff``, a state on ``dims`` contracted against the
    stack rows from ``first`` on; an imaginary residue above
    ``_residue_tol(dims)`` raises, naming the component that holds the
    largest one, held in the modes whose index plus ``first`` is above 0."""
    imag = np.abs(coeff.imag)
    pos = np.unravel_index(int(np.argmax(imag)), imag.shape)
    tol = _residue_tol(dims)
    if imag[pos] > tol:
        subset = tuple(k for k, a in enumerate(pos) if a + first > 0)
        raise NumericIntegrityError(
            f"{_name(subset)} carries imaginary residue {imag[pos]:.3e} "
            f"above tolerance {tol:.3e}"
        )
    return np.ascontiguousarray(coeff.real)


def _paired(rho: DensityMatrix) -> np.ndarray:
    """``rho.matrix`` with the row and column index of each mode paired into
    one axis of d_k^2 entries, the layout the expansion contracts."""
    dims, n = rho.dims, rho.n_parties
    pairs = [a for k in range(n) for a in (k, n + k)]
    return rho.matrix.reshape(dims + dims).transpose(pairs).reshape([d * d for d in dims])


def _contract(rho: DensityMatrix, first: int) -> np.ndarray:
    """The real part of ``rho`` contracted against the rows from ``first``
    on of each conjugated stack, whose row a is A_a^T flattened, so each
    step gives Tr(. A_a): at 0 the whole coefficient array, and at 1 the
    full tensor alone, fresh, with the bits of its slice of the array at
    the cost of prod (d_k^2 - 1) entries of prod d_k^2.  The residue bound
    is the whole array's either way, checked on the entries contracted."""
    mats = [_stack(d, d / 2).conj()[first:] for d in rho.dims]
    return _real_part(_mode_products(_paired(rho), mats), rho.dims, first)


def _coefficients(rho: DensityMatrix) -> np.ndarray:
    """The read-only coefficient array of ``rho``, built on first use."""
    coeff = rho._coefficients
    if coeff is None:
        coeff = _contract(rho, 0)
        coeff.flags.writeable = False
        object.__setattr__(rho, "_coefficients", coeff)
    return coeff


@lru_cache(maxsize=64)
def _plan(dims: tuple, subsets: tuple) -> tuple:
    """Where the components of ``subsets`` sit in the flat coefficient array
    of a state on ``dims``: per component shape, in order of first
    appearance, (positions, idx), the read-only ``intp`` arrays of the
    positions in ``subsets`` of the components of that shape and of their
    flat indices, of shape (members,) + shape.  The plan holds structure
    only, no coefficients.

    Entry (a_1, ..., a_M) of the component of (k_1, ..., k_M) sits at flat
    index sum_j (a_j + 1) s_{k_j}, s_k being the stride of mode k, so each
    mode of a group adds one broadcast term.  The terms are added from the
    last mode back, so that each broadcast runs along the modes after it,
    which hold the most entries."""
    sizes = [d * d for d in dims]
    strides = np.array([math.prod(sizes[k + 1:]) for k in range(len(dims))], dtype=np.intp)
    axes = [size - 1 for size in sizes]
    groups = {}
    for i, subset in enumerate(subsets):
        positions, members = groups.setdefault(tuple(map(axes.__getitem__, subset)), ([], []))
        positions.append(i)
        members.append(subset)
    plan = []
    for shape, (positions, members) in groups.items():
        mode_strides = strides[np.array(members, dtype=np.intp)]
        idx = np.zeros((len(members), 1), dtype=np.intp)
        for j in reversed(range(len(shape))):
            steps = mode_strides[:, j, None] * np.arange(1, shape[j] + 1)
            idx = (steps[:, :, None] + idx[:, None]).reshape(len(members), -1)
        idx = idx.reshape((len(members),) + shape)
        positions = np.array(positions, dtype=np.intp)
        positions.flags.writeable = idx.flags.writeable = False
        plan.append((positions, idx))
    return tuple(plan)


def _groups(rho: DensityMatrix, subsets=None) -> list:
    """The components of ``subsets`` (ascending index tuples; every
    component when left out) stacked by shape: (positions, stack) per shape
    of :func:`_plan`, ``stack`` a fresh copy of the components at
    ``positions``, one gather per shape."""
    coeff = _coefficients(rho).ravel()
    subsets = _subsets(rho.n_parties) if subsets is None else tuple(subsets)
    return [(positions, coeff[idx]) for positions, idx in _plan(rho.dims, subsets)]


def _index(subset: tuple, n: int) -> tuple:
    """The basic index of the component of ``subset`` in the coefficient
    array of an ``n``-mode state: 0 on traced modes and ``1:`` on held ones."""
    return tuple(slice(1, None) if k in subset else 0 for k in range(n))


def _component(rho: DensityMatrix, subset, min_size: int) -> np.ndarray:
    """A copy of the component of ``subset``, state and subset checked."""
    _instance(rho, DensityMatrix, "rho")
    subset = _checked_subset(subset, rho.n_parties, min_size)
    return np.array(_coefficients(rho)[_index(subset, rho.n_parties)])


def bloch_vector(rho: DensityMatrix, k: int) -> np.ndarray:
    """Coherence vector of subsystem ``k`` (0-based)."""
    return _component(rho, (k,), 1)


def correlation_tensor(rho: DensityMatrix, subset) -> np.ndarray:
    """Correlation tensor of the given subsystem subset (|subset| >= 2).

    The result for subset S equals the full-set tensor of the reduced state
    on S: expectations only involve the marginal.
    """
    return _component(rho, subset, 2)


def decompose(rho: DensityMatrix) -> BlochData:
    """Full expansion: every coherence vector and every subset tensor."""
    _instance(rho, DensityMatrix, "rho")
    subsets = _subsets(rho.n_parties)
    parts = {subsets[i]: c for positions, stack in _groups(rho)
             for i, c in zip(positions.tolist(), stack)}
    return BlochData(rho.dims, {s[0]: parts[s] for s in subsets if len(s) == 1},
                     {s: parts[s] for s in subsets if len(s) > 1})


def reconstruct(data: BlochData) -> DensityMatrix:
    """Rebuild the density matrix from a complete expansion.

    Inverse of :func:`decompose` up to rounding.  Raises ValueError on shape
    mismatches and InvalidStateError if the dimensions are not valid or the
    coefficients do not describe a physical state.
    """
    _instance(data, BlochData, "data")
    dims = _subsystem_dims(data.dims)
    n = len(dims)
    subsets = _subsets(n)
    if sorted(data.singles) != list(range(n)):
        raise ValueError("singles must hold exactly one vector per subsystem")
    if sorted(data.tensors) != sorted(s for s in subsets if len(s) > 1):
        raise ValueError("tensors must hold exactly one entry per subset of size >= 2")
    parts = []
    for subset in subsets:
        part = data.singles[subset[0]] if len(subset) == 1 else data.tensors[subset]
        part = np.asarray(part, dtype=float)
        want = tuple(dims[k] ** 2 - 1 for k in subset)
        if part.shape != want:
            raise ValueError(f"{_name(subset)} has shape {part.shape}, expected {want}")
        parts.append(part)
    coeff = np.zeros([d * d for d in dims])
    coeff[(0,) * n] = 1.0
    for subset, part in zip(subsets, parts):
        coeff[_index(subset, n)] = part
    return DensityMatrix(dims, _from_coefficients(dims, coeff))


def _from_coefficients(dims: tuple, coeff: np.ndarray) -> np.ndarray:
    """The matrix whose coefficient array is ``coeff``, not validated: the
    expansion contraction run in reverse with the unscaled stacks, divided
    by D."""
    n = len(dims)
    paired = _mode_products(coeff, [_stack(d, 1.0).T for d in dims])
    paired = paired.reshape(tuple(x for d in dims for x in (d, d)))
    mat = paired.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    total = math.prod(dims)
    return mat.reshape(total, total) / total


def ball_radii(d: int) -> tuple:
    """Radii (r, R) of the largest ball inside and the smallest ball around
    the set of coherence vectors of single-system states: every vector with
    norm <= r gives a positive semidefinite (1/d)(I + v . g), and every state
    has norm <= R.  Both equal 1 exactly when d = 2."""
    d = _integer(d, "d")
    if d < 2:
        raise ValueError(f"subsystem dimension must be at least 2, got {d}")
    return math.sqrt(d / (2.0 * (d - 1))), math.sqrt(d * (d - 1) / 2.0)
