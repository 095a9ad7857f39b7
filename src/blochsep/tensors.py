"""Dense real tensors: cyclic matricization, Ky Fan norms, weighted rank-1
(Kruskal) forms and the even-parity sign tables used by the constructive
separable decomposition.

Tensors are plain ``numpy.ndarray`` objects.  Matricization uses the
backward-cyclic column convention: the mode-``n`` unfolding has rows indexed
by mode ``n`` and columns running over the remaining modes in the cyclic
order ``(n+1, ..., M-1, 0, ..., n-1)`` with the last of these varying
fastest.  All mode unfoldings of one tensor are column permutations of each
other across conventions, so the norms computed here do not depend on that
choice; the entrywise layout does, and it is pinned by the tests.  The
Ky Fan norms hand LAPACK each unfolding transposed, as a tall matrix with
one row per column of the unfolding, because numpy's SVD of a tall matrix
takes about half the time of its wide transpose (OpenBLAS, one thread, on
stacks such as (56, 729, 3)).  The singular values are those of the
unfolding, to rounding.

Two functions batch by shape, and each is the one home of its rule:
:func:`_kyfan_norms` computes every Ky Fan norm, one tensor's or a whole
subset scan's, and :func:`_orthogonal_forms` makes every search for a
completely orthogonal form.  Both take their tensors already stacked by
shape, as (positions, stack) groups, ``positions`` the input positions of
the tensors along the stack's axis 0.  A state's groups come from
``bloch._groups``, one gather per shape through the state's index plan,
and a lone tensor is a group of one.  The norms take one SVD call per
shape whose modes share one dimension, and one per shape and mode
otherwise; the search takes one diagonal test per shape of order >= 3
and, when every tensor passes, one SVD call per shape of matrices, and
gives its forms as stacks per shape (:class:`_FormStack`), which the
sufficiency sum, the exact qubit test and the decomposition read.  The
norms send each distinct unfolding to LAPACK once: a tensor equal bit for
bit to an earlier one of its stack shares that one's SVDs, and a tensor
equal bit for bit to its cyclic mode shift takes one SVD for all its modes
(:func:`_sharing`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .states import _check_memory, _instance, _integer
from .tolerances import RANK_CUTOFF


def _real(array, what: str) -> np.ndarray:
    """``array`` as a float array; a complex one is refused, not truncated,
    and one of bools or strings, which ``astype`` would read as 0/1 or
    parse, or whose entries do not convert to floats, in one line naming
    ``what``."""
    a = np.asarray(array)
    if a.dtype.kind == "c":
        raise ValueError(f"{what} has complex dtype {a.dtype}; only real entries are read")
    try:
        if a.dtype.kind in "bUS":
            raise TypeError
        return a.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} has dtype {a.dtype}, whose entries are not all "
                         "real numbers") from None


def _as_tensor(tensor, min_order=2):
    t = _real(tensor, "tensor")
    if t.ndim < min_order:
        raise ValueError(
            f"tensor of order {t.ndim} not supported here (need order >= {min_order})"
        )
    if t.size == 0:
        raise ValueError(f"tensor of shape {t.shape} has no entries")
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite entries")
    return t


def _rotated(stack: np.ndarray, mode: int) -> np.ndarray:
    """``stack``, whose axis 0 runs over tensors, with each tensor's modes in
    the cyclic order that starts at ``mode``: a view."""
    order = stack.ndim - 1
    return stack.transpose([0] + [1 + (mode + j) % order for j in range(order)])


def _transposed_unfoldings(stack: np.ndarray, mode: int) -> np.ndarray:
    """Transposed mode-``mode`` unfoldings of every tensor in ``stack``,
    whose axis 0 runs over the tensors, as one (C, prod of the other I,
    I_mode) array: the rotation that starts after ``mode`` puts ``mode``
    last."""
    order = stack.ndim - 1
    return _rotated(stack, (mode + 1) % order).reshape(stack.shape[0], -1, stack.shape[1 + mode])


def unfold(tensor, mode: int) -> np.ndarray:
    """Matricize ``tensor`` along ``mode`` (0-based).

    Rows are indexed by ``mode``; columns run over the remaining modes in
    cyclic order starting after ``mode``, last index fastest.
    """
    t = _as_tensor(tensor)
    mode = _integer(mode, "mode")
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return _transposed_unfoldings(t[None], mode)[0].T


def singular_values(matrix) -> np.ndarray:
    """Singular values of a real matrix, descending; on a (..., m, n) stack,
    those of each matrix along the last axis."""
    m = _real(matrix, "matrix")
    if m.ndim < 2:
        raise ValueError("singular_values expects a matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(m, compute_uv=False)


def _is_fixed(stack: np.ndarray, r: int) -> bool:
    """Whether tensor ``r`` of ``stack`` equals its cyclic mode shift bit
    for bit: then every rotation of it is itself, and all its unfoldings
    are one matrix."""
    return stack[r].tobytes() == _rotated(stack[r:r + 1], 1).tobytes()


def _sharing(stack: np.ndarray, cyclic: bool):
    """Which tensors of ``stack``, whose axis 0 runs over them, share their
    unfoldings: None when none does, and otherwise (distinct, loose,
    inverse).  ``distinct`` stacks the distinct tensors, each the first of
    its equals, the ``loose`` ones that differ from their cyclic mode shift
    before the fixed ones that equal it; ``inverse`` gives for each tensor
    the index in ``distinct`` of its equal, and is None when there is one
    distinct tensor.  Shifts are compared only when ``cyclic``, the modes
    sharing one dimension.

    Equal means equal bit for bit, so that a shared SVD gives each tensor
    the bits of its own.  Entry (1, 0, ..., 0) is the probe: tensors whose
    probes differ as floats differ, and so does a tensor whose probe
    differs from its entry (0, 1, 0, ..., 0), which the shift moves onto
    the probe.  The bytes of the tensors decide every candidate, so a stack
    of generic tensors costs two column reads."""
    count, shape = len(stack), stack.shape[1:]
    p = math.prod(shape[1:]) if shape[0] > 1 else 0
    q = p // shape[1]
    flat = stack.reshape(count, -1)
    probe = flat[:, p].tolist()
    first = None
    if len(set(probe)) < count:
        raw = stack.tobytes()
        size = len(raw) // count
        if raw == raw[:size] * count:
            first = [0] * count
        else:
            seen = {}
            first = [seen.setdefault(raw[i * size:(i + 1) * size], i) for i in range(count)]
    reps = range(count) if first is None else list(dict.fromkeys(first))
    fixed = []
    if cyclic:
        image = flat[:, q].tolist()
        fixed = [r for r in reps if probe[r] == image[r] and _is_fixed(stack, r)]
    if not fixed and len(reps) == count:
        return None
    if len(reps) == 1:
        return stack[:1], 1 - len(fixed), None
    fixed_set = set(fixed)
    loose = [r for r in reps if r not in fixed_set]
    reps = loose + fixed
    where = {r: j for j, r in enumerate(reps)}
    inverse = np.array([where[r] for r in first or range(count)], dtype=np.intp)
    return stack[reps], len(loose), inverse


def _kyfan_norms(groups) -> list:
    """Ky Fan norms of the tensors given as ``groups``, (positions, stack)
    per shape, in input order: per tensor, the largest singular-value sum
    over its mode unfoldings.
    The unfoldings of a stack go to SVD calls together: one call per shape
    when every mode has the same dimension, so every unfolding has the same
    matrix shape, and one per shape and mode otherwise.

    Each distinct unfolding goes to LAPACK once (:func:`_sharing`): a
    tensor equal bit for bit to an earlier one of its stack takes that
    one's norm, and a tensor equal bit for bit to its cyclic mode shift,
    all of whose unfoldings are then one matrix, takes one SVD instead of
    one per mode.  The matrices are those the tensor's own unfoldings
    give, so every norm keeps its bits.

    Each unfolding goes to LAPACK transposed, tall and narrow, entrywise the
    transpose of the matrix :func:`unfold` gives: the singular values are
    the same, and numpy's SVD of a tall n x I matrix takes about half the
    time of its wide I x n transpose."""
    norms = np.empty(sum(len(members) for members, _ in groups))
    for members, stack in groups:
        shape = stack.shape[1:]
        order = len(shape)
        cyclic = len(set(shape)) == 1
        distinct, loose, inverse = _sharing(stack, cyclic) or (stack, len(stack), None)
        if cyclic:
            # every unfolding has one matrix shape: the loose tensors'
            # rotations, index mode * loose + j holding the one of tensor j
            # that puts mode last, then the fixed tensors, each of which is
            # its own rotation for every mode
            matrices = distinct
            if loose:
                rotations = np.empty((order, loose) + shape)
                for mode in range(order):
                    rotations[mode] = _rotated(distinct[:loose], (mode + 1) % order)
                matrices = rotations.reshape((order * loose,) + shape)
                if loose < len(distinct):
                    matrices = np.concatenate([matrices, distinct[loose:]])
            sums = singular_values(matrices.reshape(len(matrices), -1, shape[0])).sum(axis=-1)
        else:
            sums = np.concatenate([singular_values(_transposed_unfoldings(distinct, mode)).sum(axis=-1)
                                   for mode in range(order)])
        best = sums[:order * loose].reshape(order, loose).max(axis=0)
        if loose < len(distinct):
            best = np.concatenate([best, sums[order * loose:]])
        norms[members] = best if inverse is None else best[inverse]
    return norms.tolist()


def tensor_kyfan(tensor) -> float:
    """Ky Fan norm of a tensor: the largest singular-value sum over all mode
    unfoldings; for a matrix, the sum of its singular values."""
    return _kyfan_norms([(np.zeros(1, dtype=np.intp), _as_tensor(tensor)[None])])[0]


def is_supersymmetric(tensor) -> bool:
    """True when the tensor is invariant under every permutation of its modes.

    Tensors with unequal mode dimensions cannot be permutation invariant and
    yield False.  Invariance under all adjacent transpositions suffices, so
    only order - 1 comparisons are made, each to 1e-12 max(1, max |entry|).
    """
    t = _as_tensor(tensor)
    if len(set(t.shape)) != 1:
        return False
    scale = max(1.0, float(np.abs(t).max()))
    for m in range(t.ndim - 1):
        axes = list(range(t.ndim))
        axes[m], axes[m + 1] = axes[m + 1], axes[m]
        if not np.allclose(t, t.transpose(axes), rtol=0.0, atol=1e-12 * scale):
            return False
    return True


@dataclass
class KruskalForm:
    """Weighted sum of rank-1 outer products.

    ``factors[m]`` has shape ``(I_m, R)``; its column ``r`` is the mode-``m``
    vector of term ``r``.
    """

    weights: np.ndarray
    factors: list = field(default_factory=list)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if not (self.weights >= 0).all():
            raise ValueError("term weights must be nonnegative")
        self.factors = [np.asarray(f, dtype=float) for f in self.factors]
        if not self.factors:
            raise ValueError("a Kruskal form needs at least one mode")
        for f in self.factors:
            if f.ndim != 2 or f.shape[1] != self.rank:
                raise ValueError(
                    "every factor matrix must have one column per term "
                    f"(expected {self.rank} columns, got shape {f.shape})"
                )

    @property
    def rank(self) -> int:
        return int(self.weights.size)

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)


def _khatri_rao(mats, rank: int) -> np.ndarray:
    """Column-wise Kronecker product of ``mats`` (each with ``rank``
    columns), earlier factors varying slower; no factors give one row of
    ones."""
    out = np.ones((1, rank))
    for m in mats:
        out = (out[:, None, :] * m[None, :, :]).reshape(out.shape[0] * m.shape[0], rank)
    return out


def kruskal_to_tensor(form: KruskalForm) -> np.ndarray:
    """Assemble the dense tensor sum_r w_r (u_r^(0) o u_r^(1) o ...).

    The first half of the modes and the rest each form one Khatri-Rao
    matrix, and one matrix product joins them, so no intermediate holds
    more than one half's entries per term.
    """
    _instance(form, KruskalForm, "form")
    half = form.order // 2
    left = _khatri_rao(form.factors[:half], form.rank) * form.weights
    right = _khatri_rao(form.factors[half:], form.rank)
    return (left @ right.T).reshape(form.shape)


class _FormStack:
    """The completely orthogonal forms of one stack of tensors of one shape.

    Tensor ``c`` of the stack is input ``members[c]``.  ``weights[c]``
    holds its candidate weights, ``keep[c]`` marks those that are terms of
    its form, and ``factors[p][c]`` holds, column by column, the mode-``p``
    vectors of those candidates, so its form is ``weights[c][keep[c]]``
    with factor columns ``factors[p][c][:, keep[c]]``.  A plain class: it is
    created at import in 6-10 microseconds, a ``NamedTuple`` in 75-120."""

    __slots__ = ("members", "weights", "keep", "factors")

    def __init__(self, members: np.ndarray, weights: np.ndarray, keep: np.ndarray, factors: list):
        self.members, self.weights, self.keep, self.factors = members, weights, keep, factors

    def form(self, c: int) -> KruskalForm:
        """The form of tensor ``c`` of the stack."""
        keep = self.keep[c]
        return KruskalForm(self.weights[c][keep], [f[c][:, keep] for f in self.factors])

    def sums(self) -> np.ndarray:
        """Each tensor's weight sum, its Ky Fan norm: the ``ndarray.sum()``
        of its kept weights.  Summing a row with zeros in place of its
        dropped weights would pair its terms otherwise from 8 weights on,
        so the kept weights of the rows that keep equally many are gathered
        and summed row by row."""
        if self.keep.all():
            return self.weights.sum(axis=1)
        counts = self.keep.sum(axis=1)
        sums = np.zeros(len(counts))
        for count in set(counts.tolist()) - {0}:
            rows = counts == count
            sums[rows] = self.weights[rows][self.keep[rows]].reshape(-1, count).sum(axis=1)
        return sums


def _orthogonal_forms(groups) -> tuple:
    """Completely orthogonal Kruskal forms of the tensors given as
    ``groups``, (positions, stack) per shape, by
    :func:`find_orthogonal_kruskal`'s rule: (one :class:`_FormStack` per
    group, None) when every tensor has a form, and otherwise (None, i) for
    the first tensor i, in input order, that has none.

    Only a tensor of order >= 3 can lack a form, so the shapes of order
    >= 3 are tested first, in order of first appearance, with one stacked
    diagonal test each, on one ``abs`` of the stack; a shape whose first
    tensor comes after a tensor already found to have no form is not
    tested.  Forms are built only when every tensor has one, which no
    caller reads otherwise: a vector's is its norm, a matrix's comes from
    one SVD call per shape, and a diagonal tensor's weights are its
    diagonal's magnitudes, with its signs on the first mode's unit vectors.
    """
    count = sum(len(members) for members, _ in groups)
    stop, tested = count, {}
    for members, stack in groups:
        shape = stack.shape[1:]
        if members[0] >= stop:
            break
        if len(shape) < 3:
            continue
        magnitudes = np.abs(stack)
        flat = magnitudes.reshape(len(stack), -1)
        scales = flat.max(axis=1)
        if len(set(shape)) == 1:
            idx = (slice(None),) + (np.arange(shape[0]),) * len(shape)
            diag = magnitudes[idx]
            magnitudes[idx] = 0.0
            failed = flat.max(axis=1) > RANK_CUTOFF * scales
        else:
            diag, failed = None, scales > 0.0
        if failed.any():
            stop = min(stop, int(members[int(np.argmax(failed))]))
        # each tensor's largest magnitude, and its diagonal's magnitudes
        tested[shape] = (scales, diag)
    if stop < count:
        return None, stop
    stacks = []
    for members, stack in groups:
        shape = stack.shape[1:]
        order = len(shape)
        if order == 1:
            scales = np.abs(stack).max(axis=1)
            # a zero norm of a nonzero vector means its squares underflowed
            norms = np.array([(np.linalg.norm(t) or s * np.linalg.norm(t / s)) if s else 0.0
                              for t, s in zip(stack, scales.tolist())])
            weights, keep = norms[:, None], (scales > 0.0)[:, None]
            factors = [(stack / np.where(keep, weights, 1.0))[..., None]]
        elif order == 2:
            u, weights, vt = np.linalg.svd(stack, full_matrices=False)
            keep = weights > RANK_CUTOFF * weights[:, :1]
            factors = [u, vt.transpose(0, 2, 1)]
        else:
            scales, weights = tested[shape]
            if weights is None:
                # no tensor of unequal dims failed, so each is zero: rank 0
                weights = np.zeros((len(stack), 0))
                factors = [np.zeros((len(stack), n, 0)) for n in shape]
            else:
                # sign(t_i...i) on the first mode's unit vector i, +0.0 elsewhere
                ar = np.arange(shape[0])
                signs = np.zeros((len(stack),) + shape[:2])
                signs[:, ar, ar] = np.sign(stack[(slice(None),) + (ar,) * order])
                factors = [signs] + [np.broadcast_to(np.eye(shape[0]), signs.shape)] * (order - 1)
            keep = weights > RANK_CUTOFF * scales[:, None]
        stacks.append(_FormStack(members, weights, keep, factors))
    return stacks, None


def find_orthogonal_kruskal(tensor):
    """Return a completely orthogonal Kruskal form of ``tensor`` or None.

    A vector v is its own form, weight ||v|| and factor v / ||v||; order-2
    tensors always admit one through the singular value decomposition.  For
    order >= 3 only tensors that are exactly diagonal (nonzero entries
    confined to equal-index positions, which requires equal mode dimensions)
    are decomposed here; anything else returns None.  Entries and singular
    values at or below ``RANK_CUTOFF`` times the largest count as zero, and
    a zero tensor gives the rank-0 form.  The returned form has orthonormal
    factor columns in every mode and strictly positive weights, so its weight
    sum is the tensor's Ky Fan norm (for a vector, its Euclidean norm).
    """
    t = _as_tensor(tensor, min_order=1)
    stacks, _ = _orthogonal_forms([(np.zeros(1, dtype=np.intp), t[None])])
    return None if stacks is None else stacks[0].form(0)


def sign_table(n_parties: int) -> np.ndarray:
    """Even-parity sign table with 2^(N-1) rows and N columns of +-1.

    Column c < N-1 alternates blocks of 2^(N-2-c) plus ones and minus ones;
    the last column is the product of the others, so every row carries an
    even number of minus signs.  Over any proper nonempty column subset the
    row-wise products sum to zero, which is what cancels the unwanted
    lower-order terms when the table drives a product-state average.  For
    N = 1 the table is [[1]]: a coherence vector needs no balancing.
    """
    n_parties = _integer(n_parties, "n_parties")
    if n_parties < 1:
        raise ValueError("sign tables are defined for at least 1 column")
    # the table and at most three int64 temporaries of one entry per row
    _check_memory(n_parties - 1 + math.log2(8 * (n_parties + 3)),
                  f"a sign table of {n_parties} columns needs")
    rows = 1 << (n_parties - 1)
    table = np.empty((rows, n_parties), dtype=int)
    # column c < N-1 is bit N-2-c of the row index, 0 as +1 and 1 as -1
    bits = table[:, :-1]
    np.right_shift(np.arange(rows)[:, None], np.arange(n_parties - 2, -1, -1), out=bits)
    bits &= 1
    bits *= -2
    bits += 1
    table[:, -1] = bits.prod(axis=1)
    return table
