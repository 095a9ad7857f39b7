"""Density matrices on tensor-product spaces and the bundled example states.

Subsystems are indexed 0..N-1 and levels 0..d-1.  The composite basis is the
usual Kronecker order: basis label (i_0, ..., i_{N-1}) maps to row
sum_k i_k * prod_{l>k} d_l, i.e. subsystem 0 is the most significant digit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import reduce
import math
import os

import numpy as np

from .errors import InvalidStateError
from .tolerances import EXACT_TOL, PSD_TOL

HERM_TOL = EXACT_TOL
TRACE_TOL = EXACT_TOL


def validate_density(matrix, dims) -> None:
    """Raise InvalidStateError naming the first violated requirement."""
    try:
        dims = tuple(int(d) for d in dims)
    except (TypeError, ValueError):
        raise InvalidStateError("dims must be a sequence of integers")
    if len(dims) == 0:
        raise InvalidStateError("dims must name at least one subsystem")
    if any(d < 2 for d in dims):
        raise InvalidStateError(f"every subsystem dimension must be at least 2, got {dims}")
    m = np.asarray(matrix)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise InvalidStateError(
            f"matrix shape {m.shape} does not match dims {dims} (need {total}x{total})"
        )
    if not np.isfinite(m).all():
        raise InvalidStateError("matrix contains non-finite entries")
    # finite entries near the float limit overflow these reductions into inf,
    # or nan where infs of both signs meet; the checks read either as a
    # failure, so a value that does not fit in a float is refused, not passed
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(m - m.conj().T).max()
        tr = complex(np.trace(m))
    if herm > HERM_TOL:
        raise InvalidStateError(f"matrix is not Hermitian (max deviation {herm:.3e})")
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise InvalidStateError(f"trace is {tr:.12g}, expected 1")
    evals = np.linalg.eigvalsh(m)
    if not evals[0] >= -PSD_TOL:
        raise InvalidStateError(
            f"matrix is not positive semidefinite (min eigenvalue {evals[0]:.3e})"
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """An N-partite density matrix together with its subsystem dimensions.

    Validated on construction (Hermitian, unit trace, positive semidefinite
    within tolerance).  The stored array is a read-only copy.
    """

    dims: tuple
    matrix: np.ndarray
    # Hilbert-Schmidt coefficient array, built and cached by blochsep.bloch
    _coefficients: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        validate_density(self.matrix, dims)
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


# bytes of working memory per entry of a D x D matrix: four complex matrices
# (the state, its validated copy and the temporaries of validation) plus the
# real coefficient array, whose prod_k d_k^2 entries number D^2 as well
_BYTES_PER_ENTRY = 4 * 16 + 8


def _scientific(log2_value: float) -> str:
    """2^log2_value to three digits, also where the number overflows a float."""
    if log2_value < 1000:
        return f"{2.0 ** log2_value:.3g}"
    exp10 = log2_value * math.log10(2.0)
    e = math.floor(exp10)
    return f"{10.0 ** (exp10 - e):.3g}e{e:+03d}"


def _check_fits(dims, repeat: int = 1) -> None:
    """Raise ValueError, before anything is allocated, when a state on the
    subsystem dimensions ``dims`` repeated ``repeat`` times would not fit in
    physical memory.  Sizes are compared as base-2 logarithms, so no size is
    ever formed; dimensions below 1 are left to validation to refuse, and a
    platform that does not report its memory is not checked."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    log2_dim = repeat * sum(math.log2(max(d, 1)) for d in dims)
    log2_need = 2.0 * log2_dim + math.log2(_BYTES_PER_ENTRY)
    if log2_need > math.log2(have):
        raise ValueError(
            f"a state of dimension {_scientific(log2_dim)} needs about "
            f"{_scientific(log2_need - 30)} GiB of working memory, more than the "
            f"{have / 2**30:.3g} GiB of physical memory"
        )


def kron(*matrices) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not matrices:
        raise ValueError("kron needs at least one operand")
    return reduce(np.kron, matrices)


def basis_ket(levels, dims) -> np.ndarray:
    """Computational basis vector |levels> on subsystems of sizes ``dims``."""
    dims = tuple(int(d) for d in dims)
    levels = tuple(int(x) for x in levels)
    if len(levels) != len(dims):
        raise ValueError("one level per subsystem required")
    for x, d in zip(levels, dims):
        if not 0 <= x < d:
            raise ValueError(f"level {x} out of range for dimension {d}")
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    vec[np.ravel_multi_index(levels, dims)] = 1.0
    return vec


def projector(vec) -> np.ndarray:
    """Rank-1 projector |v><v| of a normalized vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (0-based indices).

    The kept subsystems appear in ascending index order in the result.
    """
    keep = sorted({int(k) for k in keep})
    n = rho.n_parties
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"subsystem index out of range in {keep} for {n} parties")
    if len(keep) == n:
        return rho
    traced = [k for k in range(n) if k not in keep]
    dims = rho.dims
    t = rho.matrix.reshape(dims + dims)
    perm = keep + traced + [n + k for k in keep] + [n + k for k in traced]
    dk = int(np.prod([dims[k] for k in keep]))
    dt = int(np.prod([dims[k] for k in traced]))
    block = t.transpose(perm).reshape(dk, dt, dk, dt)
    reduced = np.einsum("itjt->ij", block)
    return DensityMatrix(tuple(dims[k] for k in keep), reduced)


def maximally_mixed(dims) -> DensityMatrix:
    dims = tuple(int(d) for d in dims)
    _check_fits(dims)
    total = int(np.prod(dims))
    return DensityMatrix(dims, np.eye(total, dtype=complex) / total)


def ghz(n_parties: int, d: int = 2) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_k |k...k> on n_parties systems."""
    if n_parties < 2:
        raise ValueError("ghz needs at least 2 parties")
    if d < 2:
        raise ValueError("ghz needs local dimension at least 2")
    _check_fits((d,), n_parties)
    dims = (d,) * n_parties
    vec = np.zeros(d**n_parties, dtype=complex)
    for k in range(d):
        vec += basis_ket((k,) * n_parties, dims)
    vec /= math.sqrt(d)
    return DensityMatrix(dims, projector(vec))


def _w_vector(n_parties: int) -> np.ndarray:
    dims = (2,) * n_parties
    vec = np.zeros(2**n_parties, dtype=complex)
    for k in range(n_parties):
        levels = [0] * n_parties
        levels[k] = 1
        vec += basis_ket(levels, dims)
    return vec / math.sqrt(n_parties)


def w_state(n_parties: int) -> DensityMatrix:
    """Projector onto the equal superposition of single-excitation kets."""
    if n_parties < 2:
        raise ValueError("w_state needs at least 2 parties")
    _check_fits((2,), n_parties)
    return DensityMatrix((2,) * n_parties, projector(_w_vector(n_parties)))


def noisy(state: DensityMatrix, p: float) -> DensityMatrix:
    """Mix a state with white noise: (1-p)/D * I + p * state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p must lie in [0, 1], got {p}")
    total = state.dim
    m = (1.0 - p) / total * np.eye(total) + p * state.matrix
    return DensityMatrix(state.dims, m)


def _reduced_w(n_parties: int, n_removed: int) -> DensityMatrix:
    """The state of :func:`reduced_w_noisy` at p = 1."""
    if n_parties < 2:
        raise ValueError("reduced_w_noisy needs at least 2 parties")
    if not 1 <= n_removed < n_parties:
        raise ValueError(
            f"n_removed must satisfy 1 <= n < N, got n={n_removed}, N={n_parties}"
        )
    m_left = n_parties - n_removed
    _check_fits((2,), m_left)
    dims = (2,) * m_left
    mat = (
        (n_removed / n_parties) * projector(basis_ket((0,) * m_left, dims))
        + (m_left / n_parties) * projector(_w_vector(m_left))
    )
    return DensityMatrix(dims, mat)


def reduced_w_noisy(n_parties: int, n_removed: int, p: float) -> DensityMatrix:
    """White-noise W mixture after tracing out ``n_removed`` of ``n_parties``
    qubits:

        (1-p)/2^m I + (n/N) p |0...0><0...0| + ((N-n)/N) p |W_m><W_m|

    with m = N - n remaining qubits.  Agrees with partially tracing
    ``noisy(w_state(N), p)``.
    """
    return noisy(_reduced_w(n_parties, n_removed), p)


def bell_states() -> list:
    """The four Bell vectors on two qubits, in the order phi+, phi-, psi+,
    psi-."""
    dims = (2, 2)
    k00 = basis_ket((0, 0), dims)
    k01 = basis_ket((0, 1), dims)
    k10 = basis_ket((1, 0), dims)
    k11 = basis_ket((1, 1), dims)
    s = math.sqrt(0.5)
    return [s * (k00 + k11), s * (k00 - k11), s * (k01 + k10), s * (k01 - k10)]


def smolin() -> DensityMatrix:
    """Four-qubit Smolin state: the uniform mixture of the four products of a
    Bell state on qubits (0,1) with the same Bell state on qubits (2,3)."""
    mat = np.zeros((16, 16), dtype=complex)
    for b in bell_states():
        pb = projector(b)
        mat += np.kron(pb, pb)
    return DensityMatrix((2, 2, 2, 2), mat / 4.0)


def duer_be4() -> DensityMatrix:
    """Four-qubit bound entangled state of Duer: a GHZ projector mixed with
    the eight single-excitation / single-hole basis projectors."""
    dims = (2, 2, 2, 2)
    mat = np.array(ghz(4).matrix)
    for k in range(4):
        one = [0, 0, 0, 0]
        one[k] = 1
        hole = [1 - x for x in one]
        mat = mat + 0.5 * (projector(basis_ket(one, dims)) + projector(basis_ket(hole, dims)))
    return DensityMatrix(dims, mat / 5.0)


def state_234() -> DensityMatrix:
    """The pure state (|0,0,1> + |0,1,2> + |1,0,3> + |1,2,3>) / 2 on
    dimensions (2, 3, 4).

    Only subsystem 0 has a maximally mixed marginal. Subsystem 1 has marginal
    spectrum {(3 - sqrt 5)/8, 1/4, (3 + sqrt 5)/8} and subsystem 2 has
    {0, 1/4, 1/4, 1/2}."""
    dims = (2, 3, 4)
    vec = 0.5 * (
        basis_ket((0, 0, 1), dims)
        + basis_ket((0, 1, 2), dims)
        + basis_ket((1, 0, 3), dims)
        + basis_ket((1, 2, 3), dims)
    )
    return DensityMatrix(dims, projector(vec))


# Every zoo family: the ZooSpec fields it reads, in the order its builder
# takes them; whether it is a noise family (1-p)/D I + p sigma, which also
# reads ``noise``; and the builder of its state, or of sigma for a noise
# family.  Every field read is required except ``levels``, which defaults
# to 2.
_FAMILIES = {
    "ghz": (("parties", "levels"), False, ghz),
    "ghz-noisy": (("parties", "levels"), True, ghz),
    "qutrit-ghz-noisy": (("parties",), True, lambda n: ghz(n, 3)),
    "werner": ((), True, lambda: ghz(2)),
    "w": (("parties",), False, w_state),
    "w-noisy": (("parties",), True, w_state),
    "reduced-w-noisy": (("parties", "removed"), True, _reduced_w),
    "psi-234": ((), False, state_234),
    "state-234-noisy": ((), True, state_234),
    "smolin": ((), False, smolin),
    "duer4": ((), False, duer_be4),
    "mixed": (("dims",), False, maximally_mixed),
}
_DEFAULTS = {"levels": 2}


@dataclass(frozen=True)
class ZooSpec:
    """A named example-state family plus its parameters.

    Each family reads its own subset of the parameters; :meth:`build`
    refuses a parameter the family does not read.  A noise family builds
    ``noisy(sigma, noise)``, where sigma is its state at noise 1.
    """

    family: str
    parties: int | None = None
    levels: int | None = None
    noise: float | None = None
    removed: int | None = None
    dims: tuple | None = None

    @property
    def parameters(self) -> dict:
        """The parameters set on this spec, in field order."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self)[1:])
        return {name: value for name, value in values if value is not None}

    @property
    def noise_parameterized(self) -> bool:
        return self.family in _FAMILIES and _FAMILIES[self.family][1]

    def _state(self) -> DensityMatrix:
        """The state, or sigma for a noise family; refuses unread parameters."""
        fam = self.family
        if fam not in _FAMILIES:
            raise ValueError(f"unknown state family {fam!r} (known: {', '.join(_FAMILIES)})")
        reads, noise_family, builder = _FAMILIES[fam]
        for name in self.parameters:
            if name not in reads and not (noise_family and name == "noise"):
                raise ValueError(f"family {fam!r} takes no parameter {name!r}")
        return builder(*map(self._read, reads))

    def _read(self, name):
        value = self.parameters.get(name, _DEFAULTS.get(name))
        if value is None:
            raise ValueError(f"family {self.family!r} needs parameter {name!r}")
        return value

    def build(self) -> DensityMatrix:
        state = self._state()
        return noisy(state, self._read("noise")) if self.noise_parameterized else state


def zoo_families() -> tuple:
    return tuple(_FAMILIES)


def zoo_state(family: str, **params) -> DensityMatrix:
    """Convenience wrapper: build a zoo state from keyword parameters."""
    if "dims" in params and params["dims"] is not None:
        params["dims"] = tuple(params["dims"])
    return ZooSpec(family=family, **params).build()
