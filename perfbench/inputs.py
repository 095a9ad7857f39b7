"""Seeded input generator for the benchmark.

Everything here is built by the harness itself with numpy, so the program
under test receives only argv and state files, and the checks compare its
outputs with matrices it did not compute.  All randomness flows from one
``numpy.random.Generator`` made from the benchmark's seed.
"""
from __future__ import annotations

from functools import lru_cache
import json
import math

import numpy as np

SCHEMA = "blochsep/1"


@lru_cache(maxsize=None)
def gellmann(d: int) -> np.ndarray:
    """Generalized Gell-Mann matrices, Tr(g_a g_b) = 2 delta_ab, in the
    order symmetric pairs, antisymmetric pairs, diagonals (for d = 2 this is
    sigma_x, sigma_y, sigma_z).  Cached: callers must not modify it."""
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    mats = []
    for j, k in pairs:
        m = np.zeros((d, d), complex)
        m[j, k] = m[k, j] = 1.0
        mats.append(m)
    for j, k in pairs:
        m = np.zeros((d, d), complex)
        m[j, k], m[k, j] = -1j, 1j
        mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag * math.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return np.stack(mats)


def _pure(vec) -> np.ndarray:
    v = np.asarray(vec, complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def _ket(levels, dims) -> np.ndarray:
    v = np.zeros(math.prod(dims), complex)
    v[np.ravel_multi_index(tuple(levels), tuple(dims))] = 1.0
    return v


def ghz(n: int, d: int = 2) -> np.ndarray:
    return _pure(sum(_ket((k,) * n, (d,) * n) for k in range(d)))


def w_state(n: int) -> np.ndarray:
    return _pure(sum(_ket([int(i == k) for i in range(n)], (2,) * n) for k in range(n)))


def noisy(rho: np.ndarray, p: float) -> np.ndarray:
    dim = rho.shape[0]
    return (1.0 - p) / dim * np.eye(dim) + p * rho


def smolin() -> np.ndarray:
    """(I + sum_a sigma_a^(x4)) / 16."""
    acc = np.eye(16, dtype=complex)
    for g in gellmann(2):
        acc = acc + np.kron(np.kron(g, g), np.kron(g, g))
    return acc / 16.0


def duer4() -> np.ndarray:
    dims = (2,) * 4
    acc = ghz(4)
    for k in range(4):
        one = [int(i == k) for i in range(4)]
        acc = acc + 0.5 * (_pure(_ket(one, dims)) + _pure(_ket([1 - x for x in one], dims)))
    return acc / 5.0


def psi_234() -> np.ndarray:
    dims = (2, 3, 4)
    return _pure(sum(_ket(lv, dims) for lv in [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 2, 3)]))


def _hermitian(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def ginibre(rng: np.random.Generator, dims, rank: int) -> np.ndarray:
    """Random mixed state G G^dagger / Tr, G a dim x rank complex Gaussian."""
    dim = math.prod(dims)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return _hermitian(g @ g.conj().T)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate_locally(rng: np.random.Generator, rho: np.ndarray, dims) -> np.ndarray:
    """(U_0 x ... x U_{N-1}) rho (...)^dagger with Haar-random U_k."""
    u = np.ones((1, 1), complex)
    for d in dims:
        u = np.kron(u, haar_unitary(rng, d))
    return _hermitian(u @ rho @ u.conj().T)


def z_correlations(q: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a diagonal: entry ``mask`` is <Z_S> for the
    qubits whose bits are set in ``mask`` (qubit k is bit N-1-k)."""
    h = np.array(q, float)
    step = 1
    while step < h.size:
        h = h.reshape(-1, 2, step)
        h = np.stack([h[:, 0] + h[:, 1], h[:, 0] - h[:, 1]], axis=1).reshape(-1)
        step *= 2
    return h


def mask_of(subset, n: int) -> int:
    return sum(1 << (n - 1 - k) for k in subset)


def noisy_diagonal(rng: np.random.Generator, n: int, target: float = 0.9):
    """Separable state (1-p)/D I + p diag(q) on n qubits with p chosen so the
    sufficiency sum p * lhs(q) equals ``target`` (p capped at 1).

    lhs(q) = sum over nonempty S of |<Z_S>|: every Bloch component of a
    diagonal qubit state is a single Z...Z entry.  Returns (rho, p, zc) with
    zc the <Z_S> table of diag(q), scaled by p where the caller needs it.
    """
    q = rng.random(2**n)
    q /= q.sum()
    zc = z_correlations(q)
    lhs = float(np.abs(zc[1:]).sum())
    p = min(1.0, target / lhs)
    return noisy(np.diag(q).astype(complex), p), p, zc


def state_document(dims, rho: np.ndarray, name: str) -> str:
    """A ``blochsep/1`` state file.  ``tolist`` hands json Python floats,
    whose repr round-trips bit-exactly."""
    return json.dumps(
        {
            "schema": SCHEMA,
            "kind": "state",
            "dims": [int(d) for d in dims],
            "matrix": np.ascontiguousarray(rho, complex).view(float).reshape(
                rho.shape[0], rho.shape[1], 2).tolist(),
            "metadata": {"name": name, "source": "perfbench"},
        }
    )


def parse_state_document(text: str):
    """(dims, matrix) of a state file.  The [re, im] pairs are reinterpreted
    as complex128, so the bits agree with the reader under test."""
    doc = json.loads(text)
    pairs = np.array(doc["matrix"], dtype=float)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError("matrix is not an array of [re, im] pairs")
    return tuple(doc["dims"]), np.ascontiguousarray(pairs).view(complex)[..., 0]
