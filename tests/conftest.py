"""Shared helpers for the test suite."""

import itertools
import math

from hypothesis import strategies as st
import numpy as np

from blochsep import (
    BlochData,
    CriterionUnavailableError,
    Decision,
    DensityMatrix,
    InvalidStateError,
    KruskalForm,
    ball_radii,
    build_basis,
    correlation_tensor,
    kron,
    kruskal_to_tensor,
    maximally_mixed,
    necessary_test,
    noisy,
    qubit_exact_test,
    reconstruct,
    sign_table,
    subset_scan,
    sufficiency_test,
    zoo_state,
)
from blochsep.bloch import _from_coefficients
from blochsep.criteria import _sufficiency_parts
from blochsep.stateio import SCHEMA_VERSION
from blochsep.tolerances import SUFFICIENCY_SLACK, WEIGHT_CUTOFF


def random_density(rng, dims, rank=None):
    """Random full-rank (or rank-limited) density matrix via a Wishart draw."""
    total = int(np.prod(dims))
    r = rank or total
    g = rng.normal(size=(total, r)) + 1j * rng.normal(size=(total, r))
    mat = g @ g.conj().T
    return DensityMatrix(dims, mat / np.trace(mat).real)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    # fix the phase so the distribution is Haar
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_product(rng, dims):
    mats = []
    for d in dims:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        mats.append(np.outer(v, v.conj()))
    return kron(*mats)


def random_separable(rng, dims, n_terms=4):
    """Convex mixture of random pure product states."""
    weights = rng.dirichlet(np.ones(n_terms))
    mat = sum(w * random_pure_product(rng, dims) for w in weights)
    return DensityMatrix(dims, mat)


def empty_bloch_data(dims):
    """All-zero expansion on ``dims``; reconstructs to the maximally mixed
    state."""
    n = len(dims)
    singles = {k: np.zeros(dims[k] ** 2 - 1) for k in range(n)}
    tensors = {
        subset: np.zeros(tuple(dims[k] ** 2 - 1 for k in subset))
        for size in range(2, n + 1)
        for subset in itertools.combinations(range(n), size)
    }
    return BlochData(tuple(dims), singles, tensors)


def diagonal_qubit_state(n_parties, weights):
    """(1/2^n)(I + sum_i w_i sigma_i^xn) via Bloch reconstruction."""
    dims = (2,) * n_parties
    data = empty_bloch_data(dims)
    arr = np.zeros((3,) * n_parties)
    for i, w in enumerate(weights):
        arr[(i,) * n_parties] = w
    data.tensors[tuple(range(n_parties))] = arr
    return reconstruct(data)


def brute_correlation(rho, subset):
    """Oracle: trace against identity-padded Kronecker generator products."""
    stacks = {k: build_basis(rho.dims[k]) for k in subset}
    shape = tuple(rho.dims[k] ** 2 - 1 for k in subset)
    prefactor = np.prod([rho.dims[k] / 2 for k in subset])
    out = np.zeros(shape)
    for idx in itertools.product(*[range(s) for s in shape]):
        ops = []
        position = dict(zip(subset, idx))
        for k, d in enumerate(rho.dims):
            ops.append(stacks[k][position[k]] if k in position else np.eye(d))
        out[idx] = (prefactor * np.trace(rho.matrix @ kron(*ops))).real
    return out


def qutrit_ghz_spectrum(n):
    """Closed-form singular values of any mode unfolding of the full
    correlation tensor of GHZ_3^N = (1/3) sum_ij |i..i><j..j|.

    With c = (1/3)(3/2)^N the unfolding splits into blocks with disjoint
    supports. Each of the three level pairs contributes its symmetric and
    antisymmetric generator as two orthogonal rows of 2^(N-2) entries
    +-2c, so six singular values c 2^(N/2). The two diagonal generators
    have diagonal vectors v_i with v_i.v_j = 2 delta_ij - 2/3 and
    sum_i v_i = 0, so their 2 x 2^(N-1) block M has
    M M^T = 2 c^2 ((4/3)^(N-1) - (-2/3)^(N-1)) I: two equal singular values.
    """
    c = (1.5 ** n) / 3
    off = c * 2 ** (n / 2)
    diag = c * math.sqrt(2 * ((4 / 3) ** (n - 1) - (-2 / 3) ** (n - 1)))
    return np.array([off] * 6 + [diag] * 2)


def qutrit_ghz_threshold(n):
    """Noise weight p at which p ||T(GHZ_3^N)|| reaches the bound 3^(N/2):
    2 sqrt(3) / (9 sqrt(2) + sqrt(6)) at N = 3, 2 / (9 + sqrt(3)) at N = 4."""
    return 3 ** (n / 2) / qutrit_ghz_spectrum(n).sum()


def bisect_threshold(family, criterion="t1", tol=1e-6, subsets="all"):
    """Reference for the closed-form thresholds: the noise weight where the
    verdict of the public criterion on ``family(p)`` flips.

    Scans a 1e-3 grid for the earliest flip bracket, which assumes no flip
    hides between grid points, and bisects it down to ``tol``.  Returns None
    when the verdict never flips on [0, 1] and 0.0 when it is flipped at 0.
    """
    def flagged(p):
        rho = family(p)
        if criterion == "p2":
            return sufficiency_test(rho).decision is not Decision.SEPARABLE
        if criterion == "c1":
            verdicts = subset_scan(rho, subsets)
        elif criterion == "c2":
            verdicts = [qubit_exact_test(rho)]
        else:
            verdicts = [necessary_test(rho)]
        return any(v.decision is Decision.ENTANGLED for v in verdicts)

    if flagged(0.0):
        return 0.0
    if not flagged(1.0):
        return None
    k = next((k for k in range(1, 1000) if flagged(k / 1000)), 1000)
    lo, hi = (k - 1) / 1000, k / 1000
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flagged(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def per_matrix_kyfan(tensor):
    """Reference for ``tensors.tensor_kyfan``: the per-unfolding loop it
    replaced, one backward-cyclic unfolding and one SVD call per mode."""
    t = np.asarray(tensor, dtype=float)
    return max(
        float(np.linalg.svd(t.transpose(np.roll(np.arange(t.ndim), -m)).reshape(t.shape[m], -1),
                            compute_uv=False).sum())
        for m in range(t.ndim)
    )


def per_tensor_norms(rho, subsets):
    """Reference for the norms of ``subset_scan``: the per-tensor loop it
    replaced, over ``correlation_tensor`` copies."""
    return [per_matrix_kyfan(correlation_tensor(rho, s)) for s in subsets]


def entrywise_matrix(m):
    """``m`` as a JSON matrix of [re, im] pairs, built entry by entry."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def entrywise_state_to_jsonable(rho, name=None, source=None):
    """Reference for ``stateio.state_text``: the state document, built entry
    by entry, whose ``json.dumps(indent=2)`` the writer must reproduce."""
    doc = {"schema": SCHEMA_VERSION, "kind": "state", "dims": [int(d) for d in rho.dims],
           "matrix": entrywise_matrix(rho.matrix)}
    metadata = {}
    if name is not None:
        metadata["name"] = name
    if source is not None:
        metadata["source"] = source
    if metadata:
        doc["metadata"] = metadata
    return doc


def entrywise_state_from_jsonable(doc):
    """Reference for ``stateio.state_from_jsonable``: the entry-by-entry
    reader it replaced, kept verbatim so the array reader can be compared
    with it value for value and message for message."""
    if not isinstance(doc, dict):
        raise InvalidStateError("state document must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidStateError(
            f"unsupported schema {schema!r} (this reader understands {SCHEMA_VERSION!r})"
        )
    if doc.get("kind", "state") != "state":
        raise InvalidStateError(f"document kind {doc.get('kind')!r} is not a state")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims:
        raise InvalidStateError("dims must be a nonempty list of integers")
    for d in dims:
        if not isinstance(d, int) or isinstance(d, bool):
            raise InvalidStateError(f"dims entries must be integers, got {d!r}")
    raw = doc.get("matrix")
    total = 1
    for d in dims:
        total *= max(d, 1)
    if not isinstance(raw, list) or len(raw) != total:
        raise InvalidStateError(f"matrix must be a list of {total} rows")
    mat = np.empty((total, total), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != total:
            raise InvalidStateError(f"matrix row {i} must hold {total} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise InvalidStateError(
                    f"matrix entry ({i}, {j}) must be a [re, im] number pair"
                )
            try:
                mat[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise InvalidStateError(f"matrix entry ({i}, {j}) is too large for a float")
    return DensityMatrix(tuple(dims), mat)


def per_term_decomposition(rho):
    """Reference for ``criteria.separable_decomposition``: the per-term loop
    it replaced, kept verbatim, so the Kruskal-form construction can be
    compared with it float for float and message for message.  Returns
    (terms, identity_weight) with terms a tuple of (weight, factor vectors)."""
    total, parts = _sufficiency_parts(rho)
    if total is None:
        raise CriterionUnavailableError(
            f"correlation tensor of subset {parts} has no completely "
            "orthogonal rank-1 decomposition"
        )
    if total > 1.0 + SUFFICIENCY_SLACK:
        raise CriterionUnavailableError(
            f"weighted component norm sum {total:.12g} exceeds 1; "
            "the sufficient criterion does not apply"
        )
    dims = rho.dims
    inball = [ball_radii(d)[0] for d in dims]
    terms = []
    for subset, coef, form in parts:
        table = sign_table(len(subset))
        share = 1.0 / table.shape[0]
        for j in range(form.rank):
            weight = coef * float(form.weights[j]) * share
            if weight <= WEIGHT_CUTOFF:
                continue
            base = [
                inball[k] * form.factors[pos][:, j] for pos, k in enumerate(subset)
            ]
            for row in table:
                factors = [np.zeros(d * d - 1) for d in dims]
                for pos, k in enumerate(subset):
                    factors[k] = row[pos] * base[pos]
                terms.append((weight, tuple(factors)))
    return tuple(terms), 1.0 - total


def per_term_assembly(dims, terms, identity_weight):
    """Reference for ``criteria.assemble_decomposition``: the restack of
    per-term tuples into factor matrices that it replaced, kept verbatim."""
    rank = len(terms)
    factors = [
        np.vstack([np.ones((1, rank)),
                   np.reshape([f[k] for _, f in terms], (rank, d * d - 1)).T])
        for k, d in enumerate(dims)
    ]
    coeff = kruskal_to_tensor(KruskalForm([w for w, _ in terms], factors))
    coeff[(0,) * len(dims)] += identity_weight
    return _from_coefficients(dims, coeff)


@st.composite
def decomposition_candidates(draw):
    """States whose decompositions the reports cover: noisy diagonal qubit
    states whose sufficiency sum lies on either side of one, noisy random
    products (those on three parties have no decomposition), Werner states
    and maximally mixed states."""
    kind = draw(st.sampled_from(["diagonal", "product", "werner", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "diagonal":
        n = draw(st.integers(2, 5))
        q = rng.random(2**n)
        sigma = DensityMatrix((2,) * n, np.diag(q / q.sum()).astype(complex))
        target = draw(st.floats(0.05, 1.3))
        return noisy(sigma, min(1.0, target / sufficiency_test(sigma).norm_value))
    if kind == "product":
        dims = draw(st.sampled_from([(2, 3), (3, 3), (2, 3, 2)]))
        return noisy(DensityMatrix(dims, random_pure_product(rng, dims)),
                     draw(st.floats(0.0, 0.5)))
    if kind == "werner":
        return zoo_state("werner", noise=draw(st.floats(0.0, 1.0)))
    return maximally_mixed(draw(st.sampled_from([(2,), (2, 2), (2, 3), (3, 3, 2)])))
