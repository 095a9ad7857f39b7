"""Per-op output checks.

The reference for every norm is an independent expansion: the harness
contracts the full density matrix once per mode against the
identity-augmented Gell-Mann stack and reads each coherence vector and
correlation tensor off that coefficient array.  Ky Fan norms do not depend on
the orthonormal generator basis, so agreeing with the program's numbers is a
real check, not a replay.  Each check returns None when the output is right,
else a one-line reason.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
import json
import math

import numpy as np

from inputs import gellmann, mask_of, parse_state_document

GUARD = 1e-9          # the program's default guard band around bounds
NORM_TOL = 1e-9       # relative agreement of a norm with the reference
RESIDUAL_TOL = 1e-8   # decomposition rebuilt by the harness
SUM_TOL = 1e-9        # weights plus identity_weight
THRESHOLD_TOL = 2e-6  # twice the default bisection tolerance


@dataclass
class State:
    """An input the harness built, with what it knows by construction."""

    dims: tuple
    matrix: np.ndarray
    separable: bool = False      # no Entangled verdict may appear
    entangled: bool = False      # no Separable verdict may appear
    p: float | None = None       # noisy-diagonal weight
    zc: np.ndarray | None = None  # <Z_S> of the diagonal, before scaling by p
    _ref: dict = field(default=None, repr=False)

    def reference(self) -> dict:
        """Norms of every component: subset tuple -> Ky Fan norm (vector norm
        for single subsystems)."""
        if self._ref is None:
            self._ref = _component_norms(self.matrix, self.dims)
        return self._ref


def coefficients(rho: np.ndarray, dims) -> np.ndarray:
    """C[a_0..a_{N-1}] = Tr(rho (G_0[a_0] x ... x G_{N-1}[a_{N-1}])) with
    G_k[0] the identity and G_k[1:] the generators."""
    dims = tuple(dims)
    n = len(dims)
    t = rho.reshape(dims + dims)
    for k, d in enumerate(dims):
        stack = np.concatenate([np.eye(d, dtype=complex)[None], gellmann(d)])
        # t axes: a_0..a_{k-1}, i_k..i_{n-1}, j_k..j_{n-1}; Tr(rho G) pairs
        # rho's row index with G's column index.
        t = np.moveaxis(np.tensordot(stack, t, axes=([2, 1], [k, n])), 0, k)
    return t.real


def kyfan(t: np.ndarray) -> float:
    if t.ndim == 1:
        return float(np.linalg.norm(t))
    return max(
        float(np.linalg.svd(np.moveaxis(t, m, 0).reshape(t.shape[m], -1), compute_uv=False).sum())
        for m in range(t.ndim)
    )


def _component_norms(rho, dims) -> dict:
    c = coefficients(rho, dims)
    n = len(dims)
    out = {}
    for size in range(1, n + 1):
        for s in combinations(range(n), size):
            idx = tuple(slice(1, None) if k in s else 0 for k in range(n))
            scale = math.prod(dims[k] / 2.0 for k in s)
            out[s] = kyfan(scale * c[idx])
    return out


def bound(dims) -> float:
    return math.sqrt(math.prod(d * (d - 1) / 2.0 for d in dims))


def _close(a, b, tol=NORM_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_analyze(text: str, state: State, full_only: bool, pins: dict) -> str | None:
    doc = json.loads(text)
    dims, n = state.dims, len(state.dims)
    if doc.get("kind") != "analysis" or tuple(doc.get("dims", ())) != dims:
        return "not an analysis report of the input's dims"
    ref = state.reference()
    want = [tuple(range(n))] if full_only else [
        s for m in range(2, n + 1) for s in combinations(range(n), m)]
    recs = doc["records"]
    if [tuple(r["subset"]) for r in recs] != want:
        return "records do not cover the requested subsets in order"
    entangled = 0
    for r in recs:
        s = tuple(r["subset"])
        norm, b = r["norm"], r["bound"]
        if not _close(norm, ref[s]):
            return f"subset {s}: norm {norm!r} differs from reference {ref[s]!r}"
        if state.zc is not None and not _close(norm, state.p * abs(state.zc[mask_of(s, n)])):
            return f"subset {s}: norm {norm!r} changed under local unitaries"
        if not _close(b, bound([dims[k] for k in s]), 1e-12):
            return f"subset {s}: bound {b!r} is wrong"
        want_dec = "entangled" if norm > b + GUARD else "inconclusive"
        if r["decision"] != want_dec or r["borderline"] != (b - GUARD < norm <= b + GUARD):
            return f"subset {s}: decision {r['decision']} does not follow from norm vs bound"
        entangled += r["decision"] == "entangled"
    if state.separable and entangled:
        return "Entangled verdict on a separable-by-construction input"
    if "full_norm" in pins and not _close(recs[-1]["norm"], pins["full_norm"]):
        return f"full-tensor norm {recs[-1]['norm']!r} != pinned {pins['full_norm']!r}"
    if "entangled_records" in pins and entangled != pins["entangled_records"]:
        return f"{entangled} entangled records, pinned {pins['entangled_records']}"
    if full_only:
        return None
    return _check_exact(doc.get("exact_qubit"), state, ref, pins) or _check_sufficiency(
        doc.get("sufficiency"), state, ref, pins)


def _check_exact(v, state, ref, pins) -> str | None:
    if v is None:
        return "no exact_qubit verdict"
    dims, n = state.dims, len(state.dims)
    full = tuple(range(n))
    dec = v["decision"]
    if "c2" in pins and dec != pins["c2"]:
        return f"c2 decision {dec} != pinned {pins['c2']}"
    in_class = set(dims) == {2} and all(
        ref[s] <= GUARD for s in ref if s != full)
    if dec == "inconclusive" and v.get("norm") is None:
        return None if not in_class or v.get("reason") == "no-orthogonal-decomposition" \
            else f"c2 inconclusive ({v.get('reason')}) on an input of its class"
    if not in_class:
        return f"c2 decided ({dec}) outside its class"
    if not _close(v["norm"], ref[full]):
        return f"c2 norm {v['norm']!r} differs from reference {ref[full]!r}"
    norm = v["norm"]
    want = "entangled" if norm > 1 + GUARD else "separable" if norm < 1 - GUARD else "inconclusive"
    if dec != want:
        return f"c2 decision {dec} does not follow from norm {norm!r}"
    if (dec == "entangled" and state.separable) or (dec == "separable" and state.entangled):
        return f"c2 says {dec} against the input's construction"
    return None


def _coefficient(dims, s) -> float:
    return math.sqrt(math.prod(2.0 * (dims[k] - 1) / dims[k] for k in s))


def _check_sufficiency(v, state, ref, pins) -> str | None:
    if v is None:
        return "no sufficiency record"
    dec = v["decision"]
    if "p2" in pins and dec != pins["p2"]:
        return f"p2 decision {dec} != pinned {pins['p2']}"
    if not v["available"]:
        return None if dec == "inconclusive" else f"p2 decided ({dec}) without a sum"
    lhs = v["lhs"]
    want_lhs = sum(_coefficient(state.dims, s) * nrm for s, nrm in ref.items())
    if not _close(lhs, want_lhs):
        return f"p2 lhs {lhs!r} differs from reference {want_lhs!r}"
    if dec != ("separable" if lhs <= 1 + 1e-10 else "inconclusive"):
        return f"p2 decision {dec} does not follow from lhs {lhs!r}"
    if dec == "separable" and state.entangled:
        return "p2 says separable on an entangled-by-construction input"
    return None


def _product(dims, factors) -> np.ndarray:
    out = np.ones((1, 1), complex)
    for d, v in zip(dims, factors):
        out = np.kron(out, (np.eye(d) + np.tensordot(np.asarray(v), gellmann(d), axes=1)) / d)
    return out


def check_decompose(text: str, state: State) -> str | None:
    doc = json.loads(text)
    dims = state.dims
    if doc.get("kind") != "separable-decomposition" or tuple(doc["dims"]) != dims:
        return "not a decomposition of the input's dims"
    terms = doc["terms"]
    if doc["term_count"] != len(terms):
        return "term_count does not match the terms"
    weights = [t["weight"] for t in terms]
    iw = doc["identity_weight"]
    if min(weights, default=0.0) < 0 or iw < -SUM_TOL:
        return "negative weight"
    if abs(sum(weights) + iw - 1.0) > SUM_TOL:
        return f"weights plus identity_weight sum to {sum(weights) + iw!r}"
    radii = [math.sqrt(d / (2.0 * (d - 1))) for d in dims]
    dim = math.prod(dims)
    acc = iw / dim * np.eye(dim, dtype=complex)
    for t in terms:
        for v, d, r in zip(t["factors"], dims, radii):
            if len(v) != d * d - 1 or np.linalg.norm(v) > r + 1e-9:
                return "factor vector outside the inball"
        acc += t["weight"] * _product(dims, t["factors"])
    resid = float(np.linalg.norm(acc - state.matrix))
    if resid > RESIDUAL_TOL:
        return f"rebuilt decomposition misses the input by {resid:.3e}"
    if doc["reconstruction_residual"] > RESIDUAL_TOL:
        return f"reported residual {doc['reconstruction_residual']!r}"
    if state.zc is not None and abs((1.0 - iw) - state.p * np.abs(state.zc[1:]).sum()) > SUM_TOL:
        return "1 - identity_weight differs from the closed-form sufficiency sum"
    return None


def check_threshold(text: str, pinned) -> str | None:
    got = json.loads(text)["threshold"]
    if (got is None) != (pinned is None) or (got is not None and not abs(got - pinned) <= THRESHOLD_TOL):
        return f"threshold {got!r} != pinned {pinned!r}"
    return None


def check_threshold_table(text: str, pinned: dict) -> str | None:
    got = {(r["family"], r["parties"]): r["threshold"] for r in json.loads(text)["records"]}
    if set(got) != set(pinned):
        return "table rows differ from the pinned families and sizes"
    for key, p in pinned.items():
        if not abs(got[key] - p) <= THRESHOLD_TOL:
            return f"{key}: threshold {got[key]!r} != pinned {p!r}"
    return None


def check_saved_state(text: str, state: State, name: str) -> str | None:
    doc = json.loads(text)
    if doc.get("schema") != "blochsep/1" or doc.get("metadata", {}).get("name") != name:
        return "state file lacks the schema or the family name"
    dims, mat = parse_state_document(text)
    if dims != state.dims or np.abs(mat - state.matrix).max() > 1e-12:
        return "written matrix differs from the family's state"
    return None
