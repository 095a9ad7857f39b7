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
import math

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
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        coeff = math.sqrt(2.0 / (l * (l + 1)))
        for q in range(l):
            m[q, q] = coeff
        m[l, l] = -l * coeff
        mats.append(m)
    arr = np.stack(mats)
    arr.flags.writeable = False
    return arr
