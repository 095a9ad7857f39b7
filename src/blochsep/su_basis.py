"""Generator bases of SU(d): the generalized Gell-Mann matrices.

The basis is enumerated in a fixed order so that serialized coefficients are
reproducible: first the symmetric pair matrices E_jk + E_kj for index pairs
j < k in lexicographic order, then the antisymmetric pairs -i(E_jk - E_kj) in
the same pair order, then the d - 1 diagonal matrices.  For d = 2 this yields
exactly (sigma_x, sigma_y, sigma_z).

All generators are Hermitian, traceless and normalized to Tr(g_i g_j) =
2 delta_ij.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .states import _integer


def build_basis(d: int) -> np.ndarray:
    """The (d^2 - 1, d, d) complex array of SU(d) generators, in basis order.

    ``d`` is read by ``states._integer`` before the cache is asked, so that
    2.0 and [2] are refused, not served or hashed.  Results are read-only.
    """
    return _build_basis(_integer(d, "d"))


@lru_cache(maxsize=None)
def _build_basis(d: int) -> np.ndarray:
    if d < 2:
        raise ValueError(f"subsystem dimension must be at least 2, got {d}")
    # pair p = (j, k) of np.triu_indices, lexicographic, fills generators p
    # and n + p; diagonal l has sqrt(2 / (l (l + 1))) before entry l and
    # -l times that at it, and +0.0 (not -0.0) after it
    n = d * (d - 1) // 2
    j, k = np.triu_indices(d, 1)
    p = np.arange(n)
    arr = np.zeros((d * d - 1, d, d), dtype=complex)
    arr[p, j, k] = arr[p, k, j] = 1.0
    arr[n + p, j, k] = -1.0j
    arr[n + p, k, j] = 1.0j
    l = np.arange(1, d)[:, None]
    q = np.arange(d)
    coeff = np.sqrt(2.0 / (l * (l + 1)))
    arr[2 * n:, q, q] = np.where(q == l, -l * coeff, (q < l) * coeff)
    arr.flags.writeable = False
    return arr
