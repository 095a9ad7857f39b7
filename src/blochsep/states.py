"""Density matrices on tensor-product spaces and the bundled example states.

Subsystems are indexed 0..N-1 and levels 0..d-1.  The composite basis is the
usual Kronecker order: basis label (i_0, ..., i_{N-1}) maps to row
sum_k i_k * prod_{l>k} d_l, i.e. subsystem 0 is the most significant digit.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cache, reduce
import math
import numbers
import operator
import os

try:
    import resource
except ImportError:  # Windows has no resource limits
    resource = None

import numpy as np

from .errors import InvalidStateError
from .tolerances import EXACT_TOL, PSD_TOL


def _integer(value, name: str | None = None) -> int:
    """``value`` as an int, read by ``operator.index``, so that numpy's
    integers are read and a float such as 2.0 is refused, not truncated; a
    bool is refused as well.  Raises TypeError, or, given the ``name`` of the
    argument, ValueError saying that it must be an integer."""
    try:
        if isinstance(value, bool):
            raise TypeError(f"a bool is not read as an integer, got {value!r}")
        return operator.index(value)
    except TypeError:
        if name is None:
            raise
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _subsystem_dims(dims) -> tuple:
    """``dims`` as a tuple of ints, each at least 2; raises InvalidStateError
    naming the first violated requirement.  Entries are read by
    :func:`_integer`."""
    try:
        dims = tuple(map(_integer, dims))
    except TypeError:
        raise InvalidStateError("dims must be a sequence of integers")
    if len(dims) == 0:
        raise InvalidStateError("dims must name at least one subsystem")
    if any(d < 2 for d in dims):
        raise InvalidStateError(f"every subsystem dimension must be at least 2, got {dims}")
    return dims


def _checked_subset(subset, n_parties: int, min_size: int) -> tuple:
    """``subset`` as an ascending tuple of distinct indices, checked to name
    at least ``min_size`` of the ``n_parties`` subsystems and no other.
    Indices are read by :func:`_integer`; a string or a lone index is
    refused too."""
    try:
        subset = tuple(sorted(set(map(_integer, subset))))
    except TypeError:
        raise ValueError(f"subsystem indices must be an iterable of integers, "
                         f"got {subset!r}") from None
    if len(subset) < min_size:
        raise ValueError(f"subset {subset} too small (need at least {min_size} subsystems)")
    if subset[0] < 0 or subset[-1] >= n_parties:
        raise ValueError(f"subset {subset} out of range for {n_parties} parties")
    return subset


def validate_density(matrix, dims) -> None:
    """Raise InvalidStateError naming the first violated requirement.

    The matrix must be of a numeric dtype: integer, read as float, float or
    complex.  Every index whose row and column are all zero is then set
    aside: such a row and column hold no non-finite entry (NaN and
    infinities compare nonzero), no deviation from Hermiticity and, after a
    permutation, only the block s I of m + s I.  The finiteness check, the
    Hermiticity maximum and the Cholesky test run on the block of the other
    indices, which is the whole matrix when none is set aside.  The trace and the ``eigvalsh``
    fallback run on the whole matrix, so every refusal and its message are
    those of a check of the whole matrix.

    Positive semidefiniteness is accepted when the block plus (PSD_TOL/2) I
    has a finite Cholesky factor; only a block that fails to factor sends
    the whole matrix to ``eigvalsh``, whose least eigenvalue decides against
    -PSD_TOL and is named in the message.  A factor exists only if every
    eigenvalue is above -PSD_TOL/2, up to rounding far below PSD_TOL/2, so
    the factorization accepts no state that the eigenvalue rule refuses, and
    the block and the whole matrix can factor differently only where
    ``eigvalsh`` accepts either way."""
    dims = _subsystem_dims(dims)
    m = np.asarray(matrix)
    total = math.prod(dims)
    if m.shape != (total, total):
        raise InvalidStateError(
            f"matrix shape {m.shape} does not match dims {dims} (need {total}x{total})"
        )
    if m.dtype.kind not in "iufc":
        raise InvalidStateError(f"matrix entries must be numbers, got dtype {m.dtype}")
    if m.dtype.kind in "iu":
        # so that differences are taken in float, not wrapped in the int dtype
        m = m.astype(float)
    # a nonzero diagonal keeps every index, as in any state of full rank, and
    # then no mask is made
    block = m
    if not m.diagonal().all():
        nonzero = m != 0
        keep = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        if len(keep) < total:
            block = m[np.ix_(keep, keep)]
    if not np.isfinite(block).all():
        raise InvalidStateError("matrix contains non-finite entries")
    # finite entries near the float limit overflow these reductions into inf,
    # or nan where infs of both signs meet; the checks read either as a
    # failure, so a value that does not fit in a float is refused, not passed
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(block - block.conj().T).max(initial=0.0)
        tr = complex(np.trace(m))
    if herm > EXACT_TOL:
        raise InvalidStateError(f"matrix is not Hermitian (max deviation {herm:.3e})")
    if not abs(tr - 1.0) <= EXACT_TOL:
        raise InvalidStateError(f"trace is {tr:.12g}, expected 1")
    # a gathered block is a copy already, and the test may shift it in place
    if _has_cholesky_factor(block.astype(complex, copy=block is m), PSD_TOL / 2):
        return
    least = np.linalg.eigvalsh(m)[0]
    if not least >= -PSD_TOL:
        raise InvalidStateError(
            f"matrix is not positive semidefinite (min eigenvalue {least:.3e})"
        )


def _has_cholesky_factor(m: np.ndarray, shift: float) -> bool:
    """Whether m + shift I factors with a finite Cholesky factor, for a
    complex matrix ``m``, to which the shift is added in place.  The factor
    must be checked: entries near the float limit can overflow it into inf
    or nan without the factorization failing."""
    m.flat[:: len(m) + 1] += shift
    try:
        return bool(np.isfinite(np.linalg.cholesky(m)).all())
    except np.linalg.LinAlgError:
        return False


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """An N-partite density matrix together with its subsystem dimensions.

    Validated on construction (Hermitian, unit trace, positive semidefinite
    within tolerance).  The stored array is a read-only copy.  The states
    the package builds from a formula, the zoo and ``noisy``, are made by
    :meth:`_built` instead, which neither validates nor copies, and the
    states the readers parse by :meth:`_parsed`, which validates but does
    not copy.
    """

    dims: tuple
    matrix: np.ndarray
    # Hilbert-Schmidt coefficient array, built and cached by blochsep.bloch
    _coefficients: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        dims = _subsystem_dims(self.dims)
        validate_density(self.matrix, dims)
        m = np.array(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _parsed(cls, dims: tuple, matrix: np.ndarray) -> DensityMatrix:
        """The state of ``dims`` whose ``matrix`` a reader has just parsed
        into a fresh array: validated as the constructor validates, then
        adopted by :meth:`_built`, so a complex C-contiguous array is not
        copied."""
        dims = _subsystem_dims(dims)
        validate_density(matrix, dims)
        return cls._built(dims, matrix)

    @classmethod
    def _built(cls, dims: tuple, matrix: np.ndarray) -> DensityMatrix:
        """The state of checked ``dims`` whose ``matrix`` the package has
        just computed from a formula that makes it a density matrix, frozen
        without validation.  The fresh array is taken as complex,
        C-contiguous and read-only, and copied only if it is not complex and
        C-contiguous already."""
        m = np.ascontiguousarray(matrix, dtype=complex)
        m.flags.writeable = False
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        object.__setattr__(rho, "matrix", m)
        object.__setattr__(rho, "_coefficients", None)
        return rho

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


def _instance(value, cls: type, name: str):
    """``value``, checked to be an instance of ``cls``; raises ValueError
    naming the parameter ``name``, the class and the type it got otherwise."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


# bytes of working memory per entry of a D x D matrix: four complex matrices
# plus the real coefficient array, whose prod_k d_k^2 entries number D^2 as
# well.  Validation peaks at the state, a one-byte mask of its nonzero
# entries and three complex k x k matrices, k being the number of indices
# whose row or column holds a nonzero entry: the shifted block that the
# Cholesky test factors, numpy's working copy of it and the factor.  A
# gathered block (k < D) is itself the shifted copy, and a dense state is its
# own block, so the dense state, k = D, is the worst case the budget covers.
# The Hermiticity temporaries (the block's conjugate transpose, the
# difference and its absolute value) are freed before the shifted copy is
# made, and the shifted copy, its factor and eigvalsh's working copy before
# the validated copy is made.
_BYTES_PER_ENTRY = 4 * 16 + 8


def _scientific(log2_value: float) -> str:
    """2^log2_value to three digits, also where the number overflows a float;
    as a power of two, such as 2^1e+30, where the float fraction of its
    base-10 logarithm no longer holds three true digits."""
    if log2_value < 1000:
        return f"{2.0 ** log2_value:.3g}"
    exp10 = log2_value * math.log10(2.0)
    if math.ulp(exp10) > 1e-6:
        return f"2^{log2_value:.3g}"
    e = math.floor(exp10)
    return f"{10.0 ** (exp10 - e):.3g}e{e:+03d}"


def _check_fits(dims, repeat: int = 1) -> None:
    """Raise ValueError, before anything is allocated, when a state on the
    subsystem dimensions ``dims`` repeated ``repeat`` times would not fit in
    physical memory.  Sizes are compared as base-2 logarithms, so no size is
    ever formed; dimensions below 1 are left to validation to refuse."""
    log2_dim = repeat * sum(math.log2(max(d, 1)) for d in dims)
    _check_memory(2.0 * log2_dim + math.log2(_BYTES_PER_ENTRY),
                  f"a state of dimension {_scientific(log2_dim)} needs")


def _check_memory(log2_need: float, subject: str) -> None:
    """Raise ValueError, opening with ``subject``, when 2^log2_need bytes of
    working memory exceed the least limit on this process: ``_fixed_limit``
    or the address space that the soft ``RLIMIT_AS`` leaves beside what is
    mapped.  A limit that is not reported is not checked."""
    have, name = _fixed_limit()
    soft = resource.getrlimit(resource.RLIMIT_AS)[0] if resource else -1
    if 0 <= soft != resource.RLIM_INFINITY and (left := soft - _mapped_bytes()) < have:
        have, name = left, "address space left under RLIMIT_AS"
    if log2_need > math.log2(max(have, 1)):
        raise ValueError(
            f"{subject} about {_scientific(log2_need - 30)} GiB of working memory, "
            f"more than the {have / 2**30:.3g} GiB of {name}"
        )


@cache
def _fixed_limit(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> tuple:
    """(bytes, name) of the lesser of physical memory and the cgroup v2
    ``memory.max`` of this process, found by its ``0::`` line of ``proc``,
    (inf, "") where neither reads; read once per process."""
    limits = [(math.inf, "")]
    with suppress(AttributeError, ValueError, OSError):
        limits.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), "physical memory"))
    with suppress(OSError, StopIteration, ValueError):  # no cgroup v2, or "max"
        with open(proc) as fh:
            path = next(line[3:].strip() for line in fh if line.startswith("0::"))
        with open(root + path.rstrip("/") + "/memory.max") as fh:
            limits.append((int(fh.read()), "the cgroup's memory.max"))
    return min(limits)


def _mapped_bytes() -> int:
    """The address space this process has mapped, by /proc/self/statm."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[0]) * resource.getpagesize()
    except OSError:  # no /proc
        return 0


def kron(*matrices) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    if not matrices:
        raise ValueError("kron needs at least one operand")
    return reduce(np.kron, matrices)


def basis_ket(levels, dims) -> np.ndarray:
    """Computational basis vector |levels> on subsystems of sizes ``dims``."""
    dims = _subsystem_dims(dims)
    try:
        levels = tuple(map(_integer, levels))
    except TypeError:
        raise ValueError(f"levels must be an iterable of integers, got {levels!r}") from None
    if len(levels) != len(dims):
        raise ValueError("one level per subsystem required")
    for x, d in zip(levels, dims):
        if not 0 <= x < d:
            raise ValueError(f"level {x} out of range for dimension {d}")
    vec = np.zeros(math.prod(dims), dtype=complex)
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
    n = rho.n_parties
    keep = _checked_subset(keep, n, 1)
    if len(keep) == n:
        return rho
    traced = tuple(k for k in range(n) if k not in keep)
    dims = rho.dims
    t = rho.matrix.reshape(dims + dims)
    perm = keep + traced + tuple(n + k for k in keep + traced)
    dk = math.prod(dims[k] for k in keep)
    dt = math.prod(dims[k] for k in traced)
    block = t.transpose(perm).reshape(dk, dt, dk, dt)
    reduced = np.einsum("itjt->ij", block)
    return DensityMatrix(tuple(dims[k] for k in keep), reduced)


def maximally_mixed(dims) -> DensityMatrix:
    dims = _subsystem_dims(dims)
    _check_fits(dims)
    total = math.prod(dims)
    return DensityMatrix._built(dims, np.eye(total, dtype=complex) / total)


def ghz(n_parties: int, d: int = 2) -> DensityMatrix:
    """Projector onto (1/sqrt(d)) sum_k |k...k> on n_parties systems."""
    n_parties, d = _integer(n_parties, "n_parties"), _integer(d, "d")
    if n_parties < 2:
        raise ValueError("ghz needs at least 2 parties")
    if d < 2:
        raise ValueError("ghz needs local dimension at least 2")
    _check_fits((d,), n_parties)
    vec = np.zeros(d**n_parties, dtype=complex)
    # |k...k> sits at k (d^N - 1) / (d - 1), the repunit of N digits in base d
    vec[np.arange(d) * ((d**n_parties - 1) // (d - 1))] = 1.0
    vec /= math.sqrt(d)
    return DensityMatrix._built((d,) * n_parties, projector(vec))


def _w_vector(n_parties: int) -> np.ndarray:
    vec = np.zeros(2**n_parties, dtype=complex)
    # the excitation of qubit k sits at 2^(N - 1 - k)
    vec[1 << np.arange(n_parties)] = 1.0
    return vec / math.sqrt(n_parties)


def w_state(n_parties: int) -> DensityMatrix:
    """Projector onto the equal superposition of single-excitation kets."""
    n_parties = _integer(n_parties, "n_parties")
    if n_parties < 2:
        raise ValueError("w_state needs at least 2 parties")
    _check_fits((2,), n_parties)
    return DensityMatrix._built((2,) * n_parties, projector(_w_vector(n_parties)))


def noisy(state: DensityMatrix, p: float) -> DensityMatrix:
    """Mix a state with white noise: (1-p)/D * I + p * state.  ``state`` is a
    DensityMatrix and ``p`` a real number in [0, 1] and no bool; raises
    ValueError otherwise.

    The mixture is not validated again: ``state`` was validated, or built
    from a formula, when it was made, and a convex combination of it with
    I/D is Hermitian with unit trace and no eigenvalue below ``state``'s
    least, to rounding.  ``p`` is read as a float, so that the mixture is
    computed in double precision whatever real type it came as."""
    _instance(state, DensityMatrix, "state")
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"noise weight p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise weight p must lie in [0, 1], got {p}")
    p = float(p)
    total = state.dim
    m = (1.0 - p) / total * np.eye(total) + p * state.matrix
    return DensityMatrix._built(state.dims, m)


def _reduced_w(n_parties: int, n_removed: int) -> DensityMatrix:
    """The W state of N = ``n_parties`` qubits with n = ``n_removed`` traced
    out, (n/N) |0...0><0...0| + ((N-n)/N) |W_m><W_m| on the m = N - n left;
    its noise family agrees with partially tracing ``noisy(w_state(N), p)``."""
    if n_parties < 2:
        raise ValueError("reduced-w-noisy needs at least 2 parties")
    if not 1 <= n_removed < n_parties:
        raise ValueError(
            f"n_removed must satisfy 1 <= n < N, got n={n_removed}, N={n_parties}"
        )
    m_left = n_parties - n_removed
    _check_fits((2,), m_left)
    zero = np.zeros(2**m_left, dtype=complex)
    zero[0] = 1.0
    mat = (
        (n_removed / n_parties) * projector(zero)
        + (m_left / n_parties) * projector(_w_vector(m_left))
    )
    return DensityMatrix._built((2,) * m_left, mat)


def bell_states() -> list:
    """The four Bell vectors on two qubits, in the order phi+, phi-, psi+,
    psi-."""
    k00, k01, k10, k11 = np.eye(4, dtype=complex)
    s = math.sqrt(0.5)
    return [s * (k00 + k11), s * (k00 - k11), s * (k01 + k10), s * (k01 - k10)]


def smolin() -> DensityMatrix:
    """Four-qubit Smolin state: the uniform mixture of the four products of a
    Bell state on qubits (0,1) with the same Bell state on qubits (2,3)."""
    mat = np.zeros((16, 16), dtype=complex)
    for b in bell_states():
        pb = projector(b)
        mat += np.kron(pb, pb)
    return DensityMatrix._built((2, 2, 2, 2), mat / 4.0)


def duer_be4() -> DensityMatrix:
    """Four-qubit bound entangled state of Duer: a GHZ projector mixed with
    the eight single-excitation / single-hole basis projectors."""
    mat = np.array(ghz(4).matrix)
    # the excitation of qubit k sits at 2^(3 - k) and its hole at 15 - 2^(3 - k)
    ones = 1 << np.arange(4)
    diag = np.r_[ones, 15 - ones]
    mat[diag, diag] += 0.5
    return DensityMatrix._built((2, 2, 2, 2), mat / 5.0)


def state_234() -> DensityMatrix:
    """The pure state (|0,0,1> + |0,1,2> + |1,0,3> + |1,2,3>) / 2 on
    dimensions (2, 3, 4).

    Only subsystem 0 has a maximally mixed marginal. Subsystem 1 has marginal
    spectrum {(3 - sqrt 5)/8, 1/4, (3 + sqrt 5)/8} and subsystem 2 has
    {0, 1/4, 1/4, 1/2}."""
    dims = (2, 3, 4)
    vec = np.zeros(24, dtype=complex)
    vec[np.ravel_multi_index(([0, 0, 1, 1], [0, 1, 0, 2], [1, 2, 3, 3]), dims)] = 0.5
    return DensityMatrix._built(dims, projector(vec))


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
_INTEGERS = ("parties", "levels", "removed")


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

    def _entry(self) -> tuple:
        """The family's (reads, noise family, builder); refuses an unknown
        family."""
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown state family {self.family!r} "
                             f"(known: {', '.join(_FAMILIES)})")
        return _FAMILIES[self.family]

    @property
    def noise_parameterized(self) -> bool:
        """Whether the family has a noise weight; raises ValueError naming an
        unknown family."""
        return self._entry()[1]

    def _state(self) -> DensityMatrix:
        """The state, or sigma for a noise family; refuses unread parameters."""
        fam = self.family
        reads, noise_family, builder = self._entry()
        for name in self.parameters:
            if name not in reads and not (noise_family and name == "noise"):
                raise ValueError(f"family {fam!r} takes no parameter {name!r}")
        return builder(*map(self._read, reads))

    def _read(self, name):
        value = getattr(self, name)
        if value is None:
            value = _DEFAULTS.get(name)
        if value is None:
            raise ValueError(f"family {self.family!r} needs parameter {name!r}")
        return _integer(value, f"parameter {name!r}") if name in _INTEGERS else value

    def build(self) -> DensityMatrix:
        state = self._state()
        return noisy(state, self._read("noise")) if self.noise_parameterized else state


def zoo_families() -> tuple:
    return tuple(_FAMILIES)
