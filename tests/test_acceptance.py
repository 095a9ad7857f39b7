"""Acceptance checks for the quantitative targets this package commits to.

Each test prints a single PASS or FAIL line (run with ``-s`` to see them on
passing runs). The qutrit GHZ and (2,3,4) threshold entries are pinned to
values derived without the package's expansion: a closed form for the qutrit
GHZ spectrum and a brute-force trace oracle for the (2,3,4) state. Their lines
also print the previously reported values; 0.2162 and 0.24152 do not follow
from the documented bound and norm. See the README for the analysis.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from blochsep import (
    DensityMatrix,
    ZooSpec,
    assemble_decomposition,
    basis_ket,
    correlation_tensor,
    decompose,
    duer_be4,
    ghz,
    is_supersymmetric,
    kron,
    necessary_test,
    noise_threshold_table,
    noisy,
    projector,
    qubit_exact_test,
    reconstruct,
    separability_bound,
    separable_decomposition,
    singular_values,
    smolin,
    state_234,
    subset_scan,
    tensor_kyfan,
    threshold_search,
    unfold,
    w_state,
    load_state,
    Decision,
)
from conftest import (brute_correlation, diagonal_qubit_state, qutrit_ghz_threshold,
                      random_density, random_separable, random_unitary)

README = Path(__file__).resolve().parents[1] / "README.md"
CHESSBOARD_ENV = "BLOCHSEP_CHESSBOARD_STATE"


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_unfolding_reference_exact():
    entries = {
        (0, 0, 0): 1, (0, 0, 1): 1, (1, 0, 0): 1, (1, 0, 1): -1,
        (1, 0, 2): 2, (2, 0, 0): 2, (2, 0, 2): 2,
        (0, 1, 0): 2, (0, 1, 1): 2, (1, 1, 0): 2, (1, 1, 1): -2,
        (1, 1, 2): 4, (2, 1, 0): 4, (2, 1, 2): 4,
    }
    tensor = np.zeros((3, 2, 3))
    for idx, val in entries.items():
        tensor[idx] = val
    expected = np.array([
        [1, 1, 0, 2, 2, 0],
        [1, -1, 2, 2, -2, 4],
        [2, 0, 2, 4, 0, 4],
    ])
    ok = np.array_equal(unfold(tensor, 0), expected)
    report("unfolding-reference", ok, "3x6 mode-0 unfolding equal entrywise")


def test_qubit_noise_threshold_table():
    expected = {
        ("ghz-noisy", 3): 0.35355, ("ghz-noisy", 4): 0.2,
        ("ghz-noisy", 5): 0.17675, ("ghz-noisy", 6): 0.1112,
        ("w-noisy", 3): 0.3068, ("w-noisy", 4): 0.3018,
        ("w-noisy", 5): 0.30225, ("w-noisy", 6): 0.3045,
    }
    start = time.perf_counter()
    rows = {(fam, n): p for fam, n, p in noise_threshold_table(max_parties=6)}
    elapsed = time.perf_counter() - start
    worst = max(abs(rows[key] - val) for key, val in expected.items())
    ok = worst <= 5e-4 and elapsed < 120.0
    report("qubit-noise-threshold-table", ok,
           f"8 thresholds, max deviation {worst:.2e}, {elapsed:.1f}s")


def test_bound_entangled_mixture_detected():
    norm = tensor_kyfan(correlation_tensor(smolin(), (0, 1, 2, 3)))
    necessary = necessary_test(smolin())
    exact = qubit_exact_test(smolin())
    ok = (abs(norm - 3.0) <= 1e-9
          and necessary.decision == Decision.ENTANGLED
          and exact.decision == Decision.ENTANGLED)
    report("bound-entangled-mixture", ok,
           f"norm {norm:.12f}, necessary {necessary.decision.value}, "
           f"exact-qubit {exact.decision.value}")


def test_bound_entangled_projector_mixture_detected():
    norm = tensor_kyfan(correlation_tensor(duer_be4(), (0, 1, 2, 3)))
    verdict = necessary_test(duer_be4())
    ok = abs(norm - 1.4) <= 1e-6 and verdict.decision == Decision.ENTANGLED
    report("bound-entangled-projector-mixture", ok,
           f"norm {norm:.9f} (target 1.4), {verdict.decision.value}")


def test_qutrit_noise_thresholds():
    found = {n: threshold_search(ZooSpec(family="qutrit-ghz-noisy", parties=n))
             for n in (3, 4)}
    exact = {n: qutrit_ghz_threshold(n) for n in (3, 4)}
    ok = all(abs(found[n] - exact[n]) <= 1e-6 for n in (3, 4))
    report("qutrit-noise-thresholds", ok,
           f"N=3 {found[3]:.7f} vs exact {exact[3]:.7f}, "
           f"N=4 {found[4]:.7f} vs exact {exact[4]:.7f} "
           "(reported 0.2285 and 0.2162; 0.2162 not reproduced)")


def _oracle_kyfan(rho):
    """Largest nuclear norm over the mode unfoldings of the oracle's full
    correlation tensor."""
    t = brute_correlation(rho, tuple(range(rho.n_parties)))
    return max(np.linalg.norm(np.moveaxis(t, m, 0).reshape(t.shape[m], -1),
                              "nuc") for m in range(t.ndim))


def test_mixed_dimension_noise_threshold():
    bound = separability_bound((2, 3, 4))
    t = threshold_search(ZooSpec(family="state-234-noisy"))
    exact = np.sqrt(18) / _oracle_kyfan(state_234())
    ok_bound = abs(bound - np.sqrt(18)) <= 1e-12
    ok = ok_bound and abs(t - exact) <= 1e-6
    report("mixed-dimension-noise-threshold", ok,
           f"threshold {t:.7f} vs exact {exact:.7f} "
           "(reported 0.24152, not reproduced), "
           f"bound {bound:.9f} = sqrt(18)")


def test_reduced_w_noise_threshold():
    t = threshold_search(ZooSpec(family="reduced-w-noisy", parties=6, removed=2))
    ok = abs(t - 0.491) <= 5e-3
    report("reduced-w-noise-threshold", ok, f"threshold {t:.6f} vs 0.491")


def test_two_qubit_isotropic_thresholds():
    spec = ZooSpec(family="werner")
    t_necessary = threshold_search(spec)
    t_sufficient = threshold_search(spec, criterion="p2")
    ok = (abs(t_necessary - 1 / 3) <= 1e-6
          and abs(t_sufficient - 1 / 3) <= 1e-6)
    report("two-qubit-isotropic-thresholds", ok,
           f"necessary {t_necessary:.8f}, sufficient {t_sufficient:.8f}, "
           "target 1/3")


def test_property_suites():
    rng = np.random.default_rng(2024)
    failures = []

    # round trips on the six dimension profiles
    worst_rt = 0.0
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 3, 4), (2, 2, 2, 2)]:
        for _ in range(3):
            rho = random_density(rng, dims)
            back = reconstruct(decompose(rho))
            worst_rt = max(worst_rt, np.abs(back.matrix - rho.matrix).max())
    if worst_rt > 1e-10:
        failures.append(f"round-trip {worst_rt:.2e}")

    # necessary-test soundness on 500 explicitly separable states
    false_entangled = 0
    profiles = [(2, 2), (2, 3), (3, 3, 2), (2, 2, 2)]
    for i in range(500):
        dims = profiles[i % len(profiles)]
        rho = random_separable(rng, dims, n_terms=1 + i % 8)
        if necessary_test(rho).decision == Decision.ENTANGLED:
            false_entangled += 1
    if false_entangled:
        failures.append(f"{false_entangled} false entangled")

    # local unitary norm invariance
    worst_lu = 0.0
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 3)]:
        for _ in range(3):
            rho = random_density(rng, dims)
            big = kron(*[random_unitary(rng, d) for d in dims])
            rotated = DensityMatrix(dims, big @ rho.matrix @ big.conj().T)
            subset = tuple(range(len(dims)))
            worst_lu = max(worst_lu, abs(
                tensor_kyfan(correlation_tensor(rho, subset))
                - tensor_kyfan(correlation_tensor(rotated, subset))))
    if worst_lu > 1e-8:
        failures.append(f"local-unitary drift {worst_lu:.2e}")

    # supersymmetric tensors: identical singular spectra across modes
    worst_ss = 0.0
    for rho in [ghz(3), ghz(4), ghz(3, 3), noisy(w_state(4), 0.6)]:
        full = correlation_tensor(rho, tuple(range(rho.n_parties)))
        if not is_supersymmetric(full):
            failures.append("supersymmetry flag lost")
            continue
        base = singular_values(unfold(full, 0))
        for mode in range(1, full.ndim):
            worst_ss = max(worst_ss, np.abs(
                singular_values(unfold(full, mode)) - base).max())
    if worst_ss > 1e-8:
        failures.append(f"mode spectra differ {worst_ss:.2e}")

    # every emitted decomposition reconstructs its state
    worst_res, worst_wsum = 0.0, 0.0
    grid = [ZooSpec("werner", noise=p).build() for p in (0.05, 0.15, 0.25, 0.33)]
    grid += [diagonal_qubit_state(3, (0, 0, t)) for t in (0.2, 0.5, 0.9)]
    grid += [diagonal_qubit_state(4, (0.2, 0.2, 0.2))]
    v = np.kron(basis_ket((0,), (2,)), basis_ket((1,), (3,)))
    grid += [noisy(DensityMatrix((2, 3), projector(v)), 0.15)]
    for rho in grid:
        dec = separable_decomposition(rho)
        worst_res = max(worst_res, np.abs(
            assemble_decomposition(dec).matrix - rho.matrix).max())
        worst_wsum = max(worst_wsum, abs(
            sum(dec.terms.weights) + dec.identity_weight - 1.0))
    if worst_res > 1e-9 or worst_wsum > 1e-10:
        failures.append(f"decomposition residual {worst_res:.2e} "
                        f"weight drift {worst_wsum:.2e}")

    report("property-suites", not failures,
           "; ".join(failures) if failures else
           f"round-trip {worst_rt:.1e}, 500 separable sound, "
           f"unitary drift {worst_lu:.1e}, spectra {worst_ss:.1e}, "
           f"decomposition residual {worst_res:.1e}")


def test_external_state_exclusion_documented():
    text = README.read_text(encoding="utf-8")
    ok = ("chess-board" in text and CHESSBOARD_ENV in text
          and "3.75" in text)
    report("external-state-exclusion", ok,
           "README documents the excluded chess-board values and the "
           f"{CHESSBOARD_ENV} stretch hook")


@pytest.mark.skipif(CHESSBOARD_ENV not in os.environ,
                    reason=f"set {CHESSBOARD_ENV} to a state file to run")
def test_external_four_qutrit_state_hook():
    rho, _ = load_state(os.environ[CHESSBOARD_ENV])
    assert rho.dims == (3, 3, 3, 3)
    norms = [v.norm_value for v in subset_scan(rho, "pairs")]
    best = max(norms)
    report("external-four-qutrit-hook", abs(best - 3.75) <= 5e-3,
           f"largest pair norm {best:.6f} vs 3.75 (bound 3)")
