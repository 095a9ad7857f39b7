"""Shared helpers for the test suite."""

import functools
import gc
import itertools
import json
import math
import os

from hypothesis import strategies as st
import numpy as np

from blochsep import (
    BlochData,
    CriterionUnavailableError,
    Decision,
    DensityMatrix,
    InvalidStateError,
    KruskalForm,
    Verdict,
    ZooSpec,
    assemble_decomposition,
    ball_radii,
    basis_ket,
    build_basis,
    correlation_tensor,
    kron,
    kruskal_to_tensor,
    load_state,
    maximally_mixed,
    necessary_test,
    noisy,
    projector,
    qubit_exact_test,
    reconstruct,
    separable_decomposition,
    sign_table,
    subset_scan,
    sufficiency_test,
)
from blochsep.bloch import _coefficients, _from_coefficients, _stack, _subsets
from blochsep.stateio import SCHEMA_VERSION, _flat_matrix, _head, state_from_jsonable
import blochsep.states
from blochsep.states import _subsystem_dims
from blochsep.tolerances import (BOUND_GUARD, EXACT_TOL, PSD_TOL, RANK_CUTOFF, SUFFICIENCY_SLACK,
                                 WEIGHT_CUTOFF, ZERO_COMPONENT_TOL)


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


def low_rank_pair(seed, dims, rank, scale):
    """The state on ``dims``, two subsystems, whose coherence vectors vanish
    and whose correlation tensor is ``scale`` times a random matrix of
    ``rank`` singular values in [0.5, 1): so of a qutrit's 8 or a ququart's
    15 weights per row, the SVD keeps ``rank``."""
    rng = np.random.default_rng(seed)
    e0, e1 = (d * d - 1 for d in dims)
    u, _ = np.linalg.qr(rng.normal(size=(e0, e0)))
    v, _ = np.linalg.qr(rng.normal(size=(e1, e1)))
    s = np.zeros(min(e0, e1))
    s[:rank] = rng.uniform(0.5, 1.0, rank)
    tensor = scale * (u[:, :len(s)] * s) @ v[:, :len(s)].T
    return reconstruct(BlochData(tuple(dims), {0: np.zeros(e0), 1: np.zeros(e1)}, {(0, 1): tensor}))


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


def bisect_threshold(family, criterion="t1", tol=1e-6):
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
            verdicts = subset_scan(rho, "all")
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


def count_calls(monkeypatch, counts, key, module, name):
    """Count the calls of ``module.name`` into ``counts[key]``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def limit_memory(monkeypatch, sysconf, cgroup=(os.devnull, os.devnull), address_space=None,
                 mapped=0):
    """Let the memory check of ``blochsep.states`` see these limits alone,
    none of the host's: ``sysconf`` in place of ``os.sysconf``, which gives
    physical memory, the ``memory.max`` that the process cgroup file and
    cgroup tree ``cgroup`` give (none by default), and a soft ``RLIMIT_AS``
    of ``address_space`` bytes, None for none, with ``mapped`` of them
    mapped.  The limits read once per process are read again under a fresh
    cache, which the ``monkeypatch`` teardown drops."""
    states, soft = blochsep.states, address_space
    if soft is None:
        soft = states.resource.RLIM_INFINITY
    monkeypatch.setattr(states.os, "sysconf", sysconf)
    monkeypatch.setattr(states.resource, "getrlimit", lambda which: (
        (soft, soft) if which == states.resource.RLIMIT_AS else _GETRLIMIT(which)))
    monkeypatch.setattr(states, "_mapped_bytes", lambda: mapped)
    monkeypatch.setattr(states, "_fixed_limit", functools.cache(lambda: _FIXED_LIMIT(*cgroup)))


# the readers that ``limit_memory`` stands in for
_GETRLIMIT = blochsep.states.resource.getrlimit
_FIXED_LIMIT = blochsep.states._fixed_limit.__wrapped__


def per_matrix_kyfan(tensor):
    """Reference for ``tensors.tensor_kyfan``: the per-unfolding loop it
    replaced, one SVD call per mode on the transpose of the backward-cyclic
    unfolding, the orientation in which the stacked calls hand it to
    LAPACK."""
    t = np.asarray(tensor, dtype=float)
    return max(
        float(np.linalg.svd(t.transpose(np.roll(np.arange(t.ndim), -m)).reshape(t.shape[m], -1).T,
                            compute_uv=False).sum())
        for m in range(t.ndim)
    )


def component_views(rho, subsets=None):
    """Reference for ``bloch._groups``: the view reader it replaced, kept
    verbatim.  (subset, read-only view of its slice of the coefficient
    array) for each of the ascending index tuples ``subsets``, or for every
    component when ``subsets`` is left out, coherence vectors being the
    order-1 case."""
    coeff, n = _coefficients(rho), rho.n_parties
    for subset in _subsets(n) if subsets is None else subsets:
        yield subset, coeff[tuple(slice(1, None) if k in subset else 0 for k in range(n))]


def shape_groups(tensors):
    """``tensors`` stacked by shape, as ``tensors._kyfan_norms`` and
    ``tensors._orthogonal_forms`` take them: (positions, stack) per shape,
    in order of first appearance, ``positions`` the input positions of the
    tensors along the stack's axis 0."""
    groups = {}
    for i, t in enumerate(tensors):
        groups.setdefault(t.shape, []).append(i)
    return [(np.array(members, dtype=np.intp), np.stack([tensors[i] for i in members]))
            for members in groups.values()]


def per_tensor_norms(rho, subsets):
    """Reference for the norms of ``subset_scan``: the per-tensor loop it
    replaced, over ``correlation_tensor`` copies."""
    return [per_matrix_kyfan(correlation_tensor(rho, s)) for s in subsets]


def whole_matrix_validate_density(matrix, dims) -> None:
    """Reference for ``states.validate_density``: the check of the whole
    matrix, kept verbatim, so the check of the block of nonzero rows and
    columns can be compared with it outcome for outcome and message for
    message."""
    dims = _subsystem_dims(dims)
    m = np.asarray(matrix)
    total = math.prod(dims)
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
    if herm > EXACT_TOL:
        raise InvalidStateError(f"matrix is not Hermitian (max deviation {herm:.3e})")
    if not abs(tr - 1.0) <= EXACT_TOL:
        raise InvalidStateError(f"trace is {tr:.12g}, expected 1")
    if _whole_has_cholesky_factor(m, PSD_TOL / 2):
        return
    least = np.linalg.eigvalsh(m)[0]
    if not least >= -PSD_TOL:
        raise InvalidStateError(
            f"matrix is not positive semidefinite (min eigenvalue {least:.3e})"
        )


def _whole_has_cholesky_factor(m: np.ndarray, shift: float) -> bool:
    """Whether m + shift I factors with a finite Cholesky factor.  The
    factor must be checked: entries near the float limit can overflow it
    into inf or nan without the factorization failing."""
    shifted = m.astype(complex)
    shifted.flat[:: len(m) + 1] += shift
    try:
        return bool(np.isfinite(np.linalg.cholesky(shifted)).all())
    except np.linalg.LinAlgError:
        return False


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
    reader, kept verbatim but for the one dims check that both call, so the
    reader can be compared with it value for value and message for
    message."""
    if not isinstance(doc, dict):
        raise InvalidStateError("state document must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidStateError(
            f"unsupported schema {schema!r} (this reader understands {SCHEMA_VERSION!r})"
        )
    if doc.get("kind", "state") != "state":
        raise InvalidStateError(f"document kind {doc.get('kind')!r} is not a state")
    dims = _subsystem_dims(doc.get("dims"))
    raw = doc.get("matrix")
    total = math.prod(dims)
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
    return DensityMatrix(dims, mat)


def reference_load_state(path: str) -> tuple:
    """Reference for ``stateio.load_state``: the reader that parsed the
    whole document with ``json`` and converted it with
    ``state_from_jsonable``, kept verbatim, so the flat parse can be
    compared with it bit for bit and message for message."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InvalidStateError(f"state file {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidStateError(f"state file {path} is not UTF-8: {exc}") from exc
        except RecursionError as exc:
            raise InvalidStateError(f"state file {path} is nested too deeply to parse") from exc
        except ValueError as exc:
            # after its subclasses above: json raises a plain ValueError for
            # an integer longer than sys.get_int_max_str_digits() allows
            raise InvalidStateError(f"state file {path} cannot be read: {exc}") from exc
        rho = state_from_jsonable(doc)
        metadata = doc.get("metadata", {})
        del doc
    finally:
        if gc_was_enabled:
            gc.enable()
    return rho, metadata if isinstance(metadata, dict) else {}


_TEXT_DECODER = json.JSONDecoder()
_TEXT_SPACE = json.decoder.WHITESPACE.match


def text_fields(text: str):
    """The walk of ``text_mode_load_state``: the top-level object of
    ``text`` as ``json.loads`` reads it, but for the value of ``"matrix"``,
    which is not parsed: (the other keys' values, start, end) of that
    value's text.  None where ``text`` is no such object, or its
    ``"matrix"`` is missing, given twice or not an array.  The matrix text
    ends where :func:`text_matrix_end` ends it; an end put elsewhere the
    layout check of ``_flat_matrix`` refuses."""
    fields, span = {}, None
    i = _TEXT_SPACE(text).end()
    if text[i:i + 1] != "{":
        return None
    i = _TEXT_SPACE(text, i + 1).end()
    try:
        while text[i:i + 1] == '"':
            key, i = _TEXT_DECODER.raw_decode(text, i)
            i = _TEXT_SPACE(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _TEXT_SPACE(text, i + 1).end()
            if key != "matrix":
                fields[key], i = _TEXT_DECODER.raw_decode(text, i)
            elif span is None and text[i:i + 1] == "[":
                end = text_matrix_end(text, i)
                if not end:
                    return None
                span, i = (i, end), end
            else:
                return None
            i = _TEXT_SPACE(text, i).end()
            if text[i:i + 1] == "}":
                if span is None or _TEXT_SPACE(text, i + 1).end() != len(text):
                    return None
                return fields, *span
            if text[i:i + 1] != ",":
                return None
            i = _TEXT_SPACE(text, i + 1).end()
    except (ValueError, RecursionError):
        pass  # json's errors, an int past the digit limit, nesting too deep
    return None


def text_matrix_end(text: str, start: int) -> int:
    """Where the matrix text that starts at ``start`` ends: after its last
    ``]`` before the next ``"`` or ``}``, neither of which a matrix holds; 0
    where there is no ``]``."""
    stop = min((k for k in (text.find('"', start), text.find("}", start)) if k >= 0),
               default=len(text))
    return text.rfind("]", start, stop) + 1


def text_mode_load_state(path: str) -> tuple:
    """Reference for how ``stateio.load_state`` reads a file's bytes: the
    reader that read the file in text mode and walked its whole text with
    :func:`text_fields`, kept verbatim but for the text's ASCII encoding for
    ``_flat_matrix``, which takes bytes, so the walk over a file's bytes can
    be compared with it result for result and message for message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidStateError(f"cannot read state file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidStateError(f"state file {path} is not UTF-8: {exc}") from exc
    found, mat = text_fields(text), None
    if found is not None:
        doc, start, end = found
        dims, total = _head(doc)
        mat = _flat_matrix(text.encode("ascii", "replace"), start, end, total)
    if mat is not None:
        rho = DensityMatrix(dims, mat)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidStateError(f"state file {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise InvalidStateError(f"state file {path} is nested too deeply to parse") from exc
        except ValueError as exc:
            raise InvalidStateError(f"state file {path} cannot be read: {exc}") from exc
        rho = state_from_jsonable(doc)
    metadata = doc.get("metadata", {})
    return rho, metadata if isinstance(metadata, dict) else {}


def _ket_ghz(parties, levels=2):
    dims = (levels,) * parties
    vec = np.zeros(levels**parties, dtype=complex)
    for k in range(levels):
        vec += basis_ket((k,) * parties, dims)
    vec /= math.sqrt(levels)
    return dims, projector(vec)


def _ket_w_vector(n_parties):
    dims = (2,) * n_parties
    vec = np.zeros(2**n_parties, dtype=complex)
    for k in range(n_parties):
        levels = [0] * n_parties
        levels[k] = 1
        vec += basis_ket(levels, dims)
    return vec / math.sqrt(n_parties)


def _ket_w(parties):
    return (2,) * parties, projector(_ket_w_vector(parties))


def _ket_reduced_w(parties, removed):
    m_left = parties - removed
    dims = (2,) * m_left
    return dims, ((removed / parties) * projector(basis_ket((0,) * m_left, dims))
                  + (m_left / parties) * projector(_ket_w_vector(m_left)))


def _ket_bell_states():
    dims = (2, 2)
    k00 = basis_ket((0, 0), dims)
    k01 = basis_ket((0, 1), dims)
    k10 = basis_ket((1, 0), dims)
    k11 = basis_ket((1, 1), dims)
    s = math.sqrt(0.5)
    return [s * (k00 + k11), s * (k00 - k11), s * (k01 + k10), s * (k01 - k10)]


def _ket_smolin():
    mat = np.zeros((16, 16), dtype=complex)
    for b in _ket_bell_states():
        pb = projector(b)
        mat += np.kron(pb, pb)
    return (2, 2, 2, 2), mat / 4.0


def _ket_duer_be4():
    dims = (2, 2, 2, 2)
    mat = np.array(_ket_ghz(4)[1])
    for k in range(4):
        one = [0, 0, 0, 0]
        one[k] = 1
        hole = [1 - x for x in one]
        mat = mat + 0.5 * (projector(basis_ket(one, dims)) + projector(basis_ket(hole, dims)))
    return dims, mat / 5.0


def _ket_state_234():
    dims = (2, 3, 4)
    vec = 0.5 * (
        basis_ket((0, 0, 1), dims)
        + basis_ket((0, 1, 2), dims)
        + basis_ket((1, 0, 3), dims)
        + basis_ket((1, 2, 3), dims)
    )
    return dims, projector(vec)


def _ket_mixed(dims):
    total = math.prod(dims)
    return tuple(dims), np.eye(total, dtype=complex) / total


# each zoo family's (dims, matrix) of its state, or of sigma for a noise family
_KET_FAMILIES = {
    "ghz": _ket_ghz,
    "ghz-noisy": _ket_ghz,
    "qutrit-ghz-noisy": lambda parties: _ket_ghz(parties, 3),
    "werner": lambda: _ket_ghz(2),
    "w": _ket_w,
    "w-noisy": _ket_w,
    "reduced-w-noisy": _ket_reduced_w,
    "psi-234": _ket_state_234,
    "state-234-noisy": _ket_state_234,
    "smolin": _ket_smolin,
    "duer4": _ket_duer_be4,
    "mixed": _ket_mixed,
}


def basis_ket_zoo_state(family, params):
    """Reference for the zoo builders: the state of ``family`` on the
    ZooSpec fields ``params``, its kets summed from public, fully checked
    ``basis_ket`` calls as the builders once made them, kept verbatim, and
    made by the validating constructor; a noise family mixes it by
    ``noisy``.  The builders must give it bit for bit."""
    params = dict(params)
    noise = params.pop("noise", None)
    rho = DensityMatrix(*_KET_FAMILIES[family](**params))
    return rho if noise is None else noisy(rho, noise)


NOISE = (0.0, 0.37, 1.0)
# GHZ states of dimension up to 1024, so N = 2..8 on qubits, 2..6 on qutrits
# and 2..5 on ququarts
GHZ_GRID = [{"parties": n, "levels": d} for d in (2, 3, 4) for n in range(2, 9) if d**n <= 1024]
# the parameters every zoo family is built on in the tests: N = 2..8 where a family
# reads N, every valid ``removed``, and each weight of NOISE on a noise family
ZOO_GRID = {
    "ghz": GHZ_GRID,
    "ghz-noisy": [{**g, "noise": p} for g in GHZ_GRID for p in NOISE],
    "qutrit-ghz-noisy": [{"parties": n, "noise": p} for n in range(2, 7) for p in NOISE],
    "werner": [{"noise": p} for p in NOISE],
    "w": [{"parties": n} for n in range(2, 9)],
    "w-noisy": [{"parties": n, "noise": p} for n in range(2, 9) for p in NOISE],
    "reduced-w-noisy": [{"parties": n, "removed": r, "noise": p}
                        for n in range(2, 9) for r in range(1, n) for p in NOISE],
    "psi-234": [{}],
    "state-234-noisy": [{"noise": p} for p in NOISE],
    "smolin": [{}],
    "duer4": [{}],
    "mixed": [{"dims": dims} for dims in [(2,), (2, 3), (3, 2), (3, 2, 2), (2, 3, 4), (2,) * 8]],
}


def tensordot_mode_products(arr, mats):
    """Reference for ``bloch._mode_products``: the ``np.tensordot`` steps it
    replaced, kept verbatim, so the expansion can be compared with it bit for
    bit."""
    for m in mats:
        arr = np.tensordot(arr, m, axes=([0], [1]))
    return arr


def tensordot_expansion(rho):
    """Reference for the expansion and its inverse: (coefficient array, the
    matrix the inverse map makes of it) of ``rho``, each contraction by
    :func:`tensordot_mode_products` on the inputs ``bloch`` gives it."""
    dims, n = rho.dims, rho.n_parties
    pairs = [a for k in range(n) for a in (k, n + k)]
    paired = rho.matrix.reshape(dims + dims).transpose(pairs).reshape([d * d for d in dims])
    forward = tensordot_mode_products(paired, [_stack(d, d / 2).conj() for d in dims])
    coeff = np.ascontiguousarray(forward.real)
    paired = tensordot_mode_products(coeff, [_stack(d, 1.0).T for d in dims])
    paired = paired.reshape(tuple(x for d in dims for x in (d, d)))
    mat = paired.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
    total = math.prod(dims)
    return coeff, mat.reshape(total, total) / total


def per_tensor_form(tensor):
    """Reference for ``tensors._orthogonal_forms``: the one-tensor search
    that ``find_orthogonal_kruskal`` made before the search was batched by
    shape, kept verbatim but for taking an array, so the batched forms can
    be compared with it bit for bit."""
    t = np.asarray(tensor, dtype=float)
    scale = float(np.abs(t).max())
    if scale == 0.0:
        return KruskalForm(np.zeros(0), [np.zeros((n, 0)) for n in t.shape])
    if t.ndim == 1:
        # a zero norm of a nonzero vector means its squares underflowed
        norm = np.linalg.norm(t) or scale * np.linalg.norm(t / scale)
        return KruskalForm([norm], [(t / norm)[:, None]])
    if t.ndim == 2:
        u, s, vt = np.linalg.svd(t, full_matrices=False)
        keep = s > RANK_CUTOFF * s[0]
        return KruskalForm(s[keep], [u[:, keep], vt[keep].T])
    if len(set(t.shape)) != 1:
        return None
    d = t.shape[0]
    idx = (np.arange(d),) * t.ndim
    diag = t[idx]
    off = t.copy()
    off[idx] = 0.0
    if np.abs(off).max() > RANK_CUTOFF * scale:
        return None
    keep = np.flatnonzero(np.abs(diag) > RANK_CUTOFF * scale)
    # np.diag keeps the zeros at +0.0; np.eye(d) * sign gives -0.0 that reports print
    factors = [np.diag(np.sign(diag))[:, keep]] + [np.eye(d)[:, keep]] * (t.ndim - 1)
    return KruskalForm(np.abs(diag[keep]), factors)


def per_component_forms(rho):
    """Reference for ``criteria._sufficiency_parts``: the loop it replaced,
    one :func:`per_tensor_form` per component in component order, kept
    verbatim.  Returns (lhs, [(subset, c_S, form)]), or (None, subset) for
    the first component without a form."""
    dims, total, parts = rho.dims, 0.0, []
    for subset, c in component_views(rho):
        form = per_tensor_form(c)
        if form is None:
            return None, subset
        coef = math.sqrt(math.prod(2.0 * (dims[k] - 1) / dims[k] for k in subset))
        total += coef * float(form.weights.sum())
        parts.append((subset, coef, form))
    return total, parts


def per_component_exact_test(rho):
    """Reference for ``criteria.qubit_exact_test``: the test as it was
    before it read the components order by order, kept verbatim but for
    reading every component through :func:`component_views` and the full
    tensor's form from :func:`per_tensor_form`."""
    crit = "qubit-exact"
    if rho.n_parties < 2 or any(d != 2 for d in rho.dims):
        return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason="not-a-multiqubit-state")
    *proper, (_, full) = component_views(rho)
    for subset, c in proper:
        if np.linalg.norm(c) > ZERO_COMPONENT_TOL:
            reason = ("coherence-vectors-nonzero" if len(subset) == 1
                      else "lower-order-tensors-nonzero")
            return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason=reason)
    form = per_tensor_form(full)
    if form is None:
        reason = "no-orthogonal-decomposition"
        return Verdict(Decision.INCONCLUSIVE, None, 1.0, crit, reason=reason)
    norm = float(form.weights.sum())
    if norm > 1.0 + BOUND_GUARD:
        return Verdict(Decision.ENTANGLED, norm, 1.0, crit)
    if norm < 1.0 - BOUND_GUARD:
        return Verdict(Decision.SEPARABLE, norm, 1.0, crit)
    return Verdict(Decision.INCONCLUSIVE, norm, 1.0, crit, borderline=True)


def stacked_forms(stacks):
    """The forms that ``tensors._orthogonal_forms`` gives as stacks by
    shape, one ``KruskalForm`` per tensor in input order."""
    forms = {int(i): stack.form(c) for stack in stacks for c, i in enumerate(stack.members)}
    return [forms[i] for i in range(len(forms))]


def same_form(a, b):
    """Whether two Kruskal forms hold bit-equal weights and factors: equal
    under ``np.array_equal``, and with the same bytes, so that the sign of
    a zero counts too."""
    pairs = list(zip([a.weights, *a.factors], [b.weights, *b.factors]))
    return len(a.factors) == len(b.factors) and all(
        np.array_equal(x, y) and x.tobytes() == y.tobytes() for x, y in pairs)


def per_term_decomposition(rho):
    """Reference for ``criteria.separable_decomposition``: the per-term loop
    it replaced, kept verbatim but for reading the forms from
    :func:`per_component_forms`, so the Kruskal-form construction can be
    compared with it float for float and message for message.  Returns
    (terms, identity_weight) with terms a tuple of (weight, factor vectors)."""
    total, parts = per_component_forms(rho)
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
    return DensityMatrix(dims, _from_coefficients(dims, coeff))


@st.composite
def decomposition_candidates(draw):
    """States whose decompositions the reports cover: noisy diagonal qubit
    states whose sufficiency sum lies on either side of one, noisy random
    products (those on three parties have no decomposition), Werner states,
    maximally mixed states, and qutrit and ququart pairs whose correlation
    tensor has low rank (:func:`low_rank_pair`)."""
    kind = draw(st.sampled_from(["diagonal", "product", "werner", "mixed", "low-rank"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "low-rank":
        dims = draw(st.sampled_from([(3, 3), (4, 4), (3, 4)]))
        return low_rank_pair(seed, dims, draw(st.integers(1, 8)), draw(st.floats(0.01, 0.08)))
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
        return ZooSpec("werner", noise=draw(st.floats(0.0, 1.0))).build()
    return maximally_mixed(draw(st.sampled_from([(2,), (2, 2), (2, 3), (3, 3, 2)])))


def report_json(doc) -> str:
    """``doc`` as ``json`` writes a report: ``indent=2``, no NaN, a newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _descriptor(path) -> dict:
    _, metadata = load_state(path)
    descriptor = {"source": str(path)}
    if metadata.get("name"):
        descriptor["name"] = metadata["name"]
    return descriptor


def reference_analysis(path, criteria="all", subsets="full", timing=None) -> str:
    """Reference for ``blochsep analyze PATH --criteria CRITERIA --subsets
    SUBSETS``: the report built as dicts from the public API, records from
    ``necessary_test`` and ``subset_scan``, and written by ``json``;
    ``timing``, when given, is its ``timing`` object.  The CLI refuses a
    selector other than ``full`` under t1, c2 and p2, so none is passed."""
    rho, _ = load_state(path)
    keys = ["c1", "c2", "p2"] if criteria == "all" else [criteria]
    selector = subsets if subsets in ("full", "all", "pairs") else int(subsets[2:])
    verdicts = ([necessary_test(rho)] if "t1" in keys else []) + (
        subset_scan(rho, selector) if "c1" in keys else [])
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "analysis",
        "input": _descriptor(path),
        "dims": list(rho.dims),
        "criteria": criteria,
        "subsets": subsets,
        "records": [{"subset": list(v.subset), "norm": v.norm_value, "bound": v.bound_value,
                     "decision": v.decision.value, "criterion": v.criterion,
                     "borderline": v.borderline} for v in verdicts],
    }
    if "c2" in keys:
        v = qubit_exact_test(rho)
        doc["exact_qubit"] = {"decision": v.decision.value, "criterion": v.criterion,
                              "norm": v.norm_value, "bound": v.bound_value,
                              "borderline": v.borderline}
        if v.reason:
            doc["exact_qubit"]["reason"] = v.reason
    if "p2" in keys:
        v = sufficiency_test(rho)
        doc["sufficiency"] = {"lhs": v.norm_value, "available": v.norm_value is not None,
                              "decision": v.decision.value}
        if v.reason:
            doc["sufficiency"]["reason"] = v.reason
    if timing is not None:
        doc["timing"] = timing
    return report_json(doc)


def reference_decomposition(path) -> tuple:
    """Reference for ``blochsep decompose PATH``: (exit code, stdout,
    stderr), the report built as dicts from ``separable_decomposition`` and
    written by ``json``, or the refusal of a state it does not apply to."""
    rho, _ = load_state(path)
    try:
        dec = separable_decomposition(rho)
    except CriterionUnavailableError as exc:
        return 3, "", f"not applicable: {exc}\n"
    factors = [f.T.tolist() for f in dec.terms.factors]
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "separable-decomposition",
        "input": _descriptor(path),
        "dims": list(rho.dims),
        "identity_weight": dec.identity_weight,
        "term_count": dec.terms.rank,
        "reconstruction_residual": float(np.linalg.norm(
            assemble_decomposition(dec).matrix - rho.matrix)),
        "terms": [{"weight": w, "factors": [f[t] for f in factors]}
                  for t, w in enumerate(dec.terms.weights.tolist())],
    }
    return 0, report_json(doc), ""
