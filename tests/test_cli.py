"""Tests for the command-line interface and state serialization."""

import contextlib
import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import blochsep.bloch
import blochsep.states
from blochsep import NumericIntegrityError, load_state, save_state, zoo_state
from blochsep.cli import main
from conftest import qutrit_ghz_threshold


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def run_json(args):
    code, out, err = run(args)
    assert code == 0, err
    return json.loads(out)


def test_analyze_bound_entangled_four_qubit():
    doc = run_json(["analyze", "zoo:smolin"])
    assert doc["schema"] == "blochsep/1"
    rec = doc["records"][0]
    assert rec["subset"] == [0, 1, 2, 3]
    assert rec["norm"] == pytest.approx(3.0, abs=1e-9)
    assert rec["bound"] == pytest.approx(1.0)
    assert rec["decision"] == "entangled"
    assert doc["exact_qubit"]["decision"] == "entangled"


def test_analyze_maximally_mixed():
    doc = run_json(["analyze", "zoo:mixed", "--dims", "2,2"])
    rec = doc["records"][0]
    assert rec["norm"] == 0.0
    assert rec["decision"] == "inconclusive"


def test_analyze_projector_mixture():
    doc = run_json(["analyze", "zoo:duer4"])
    rec = doc["records"][0]
    assert rec["norm"] == pytest.approx(1.4, abs=1e-6)
    assert rec["decision"] == "entangled"


def test_analyze_criteria_selector_controls_sections():
    base = ["analyze", "zoo:werner", "-p", "0.5", "--criteria"]
    assert "exact_qubit" not in run_json(base + ["t1"])
    assert "sufficiency" not in run_json(base + ["c1"])
    doc_c2 = run_json(base + ["c2"])
    assert "exact_qubit" in doc_c2 and not doc_c2["records"]
    doc_p2 = run_json(base + ["p2"])
    assert "sufficiency" in doc_p2 and not doc_p2["records"]
    doc_all = run_json(base + ["all"])
    assert {"records", "exact_qubit", "sufficiency"} <= set(doc_all)


def test_analyze_subset_selectors():
    doc = run_json(["analyze", "zoo:ghz", "-N", "3", "--criteria", "c1",
                    "--subsets", "pairs"])
    assert [rec["subset"] for rec in doc["records"]] == [[0, 1], [0, 2], [1, 2]]
    doc = run_json(["analyze", "zoo:ghz", "-N", "3", "--criteria", "c1",
                    "--subsets", "k=2"])
    assert len(doc["records"]) == 3
    doc = run_json(["analyze", "zoo:ghz", "-N", "3", "--criteria", "c1",
                    "--subsets", "all"])
    assert len(doc["records"]) == 4


def test_analyze_reports_are_deterministic():
    args = ["analyze", "zoo:werner", "-p", "0.5"]
    _, first, _ = run(args)
    _, second, _ = run(args)
    assert first == second
    assert "timing" not in json.loads(first)
    timed = run_json(args + ["--timing"])
    assert "timing" in timed


def test_analyze_csv_format():
    code, out, _ = run(["analyze", "zoo:werner", "-p", "0.5", "--criteria",
                        "t1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "subset,norm,bound,decision,criterion,borderline"
    fields = lines[1].split(",")
    assert fields[-3] == "entangled"


def test_threshold_reference_values():
    doc = run_json(["threshold", "ghz-noisy", "-N", "5"])
    assert doc["threshold"] == pytest.approx(0.17675, abs=5e-4)
    doc = run_json(["threshold", "qutrit-ghz-noisy", "-N", "3"])
    assert doc["threshold"] == pytest.approx(qutrit_ghz_threshold(3), abs=1e-6)
    doc = run_json(["threshold", "werner", "--criterion", "p2"])
    assert doc["threshold"] == pytest.approx(1 / 3, abs=2e-6)


def test_threshold_unknown_family():
    code, _, err = run(["threshold", "nope"])
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("argv", [
    ["threshold", "werner", "-p", "0.5"],
    ["threshold", "ghz-noisy", "-N", "3", "--noise", "0.1", "--criterion", "p2"],
])
def test_threshold_rejects_noise_weight(argv):
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "sweeps the noise weight" in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "zoo:ghz", "-N", "3", "-p", "0.5"], "takes no parameter 'noise'"),
    (["analyze", "zoo:smolin", "-N", "7"], "takes no parameter 'parties'"),
    (["analyze", "zoo:ghz", "-N", "3", "--dims", "2,2,2"], "takes no parameter 'dims'"),
    (["analyze", "zoo:ghz", "-N", "3", "-d", "0"], "local dimension"),
    (["zoo", "ghz", "-N", "2", "-p", "0.3"], "takes no parameter 'noise'"),
    (["threshold", "werner", "-N", "5"], "takes no parameter 'parties'"),
    (["analyze", "zoo:state-234"], "unknown state family"),
], ids=["ghz-noise", "smolin-parties", "ghz-dims", "ghz-levels-0", "zoo-ghz-noise",
        "threshold-werner-parties", "state-234-alias"])
def test_parameters_a_family_does_not_read_are_refused(tmp_path, argv, message):
    target = tmp_path / "out.json"
    code, out, err = run(argv + ["-o", str(target)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err
    assert not target.exists()


def test_threshold_table_output():
    doc = run_json(["threshold-table", "--max-parties", "4"])
    rows = {(r["family"], r["parties"]): r["threshold"] for r in doc["records"]}
    assert rows[("ghz-noisy", 3)] == pytest.approx(0.35355, abs=5e-4)
    assert rows[("w-noisy", 4)] == pytest.approx(0.3018, abs=5e-4)
    code, out, _ = run(["threshold-table", "--max-parties", "3",
                        "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "family,parties,threshold"


def test_decompose_werner():
    doc = run_json(["decompose", "zoo:werner", "-p", "0.3"])
    assert doc["term_count"] == 6
    assert doc["identity_weight"] == pytest.approx(0.1, abs=1e-10)
    assert doc["reconstruction_residual"] <= 1e-10
    weights = [t["weight"] for t in doc["terms"]]
    np.testing.assert_allclose(weights, 0.15, atol=1e-10)


def test_decompose_maximally_mixed():
    doc = run_json(["decompose", "zoo:mixed", "--dims", "2,2"])
    assert doc["term_count"] == 0
    assert doc["identity_weight"] == pytest.approx(1.0)


def test_decompose_inapplicable_exits_3():
    code, _, err = run(["decompose", "zoo:smolin"])
    assert code == 3
    assert "exceeds 1" in err
    code, _, err = run(["decompose", "zoo:ghz", "-N", "3"])
    assert code == 3


def test_zoo_state_files(tmp_path):
    for family, args, dim in [
        ("w-noisy", ["-N", "3", "-p", "0.5"], 8),
        ("reduced-w-noisy", ["-N", "6", "-n", "2", "-p", "0.5"], 16),
        ("psi-234", [], 24),
    ]:
        path = tmp_path / f"{family}.json"
        code, _, err = run(["zoo", family, *args, "-o", str(path)])
        assert code == 0, err
        rho, meta = load_state(path)
        assert rho.dim == dim
        assert meta["name"] == family


def test_state_round_trip_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(zoo_state("werner", noise=0.3), first, name="werner")
    rho, meta = load_state(first)
    save_state(rho, second, name=meta["name"])
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


def test_analyze_state_file_round_trip(tmp_path):
    path = tmp_path / "state.json"
    code, _, _ = run(["zoo", "ghz", "-N", "3", "-o", str(path)])
    assert code == 0
    doc = run_json(["analyze", str(path), "--criteria", "t1"])
    assert doc["records"][0]["decision"] == "entangled"
    assert doc["records"][0]["norm"] == pytest.approx(np.sqrt(8), abs=1e-9)


def test_invalid_inputs_exit_2(tmp_path):
    code, _, err = run(["analyze", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run(["analyze", str(garbled)])
    assert code == 2

    wrong_schema = tmp_path / "schema.json"
    wrong_schema.write_text(json.dumps({"schema": "other/9", "kind": "state",
                                        "dims": [2], "matrix": []}))
    code, _, err = run(["analyze", str(wrong_schema)])
    assert code == 2 and "schema" in err

    code, _, err = run(["analyze", "zoo:werner", "-p", "0.5",
                        "--subsets", "k=x"])
    assert code == 2

    code, _, err = run(["analyze", "zoo:werner", "-p", "2.0"])
    assert code == 2

    code, _, _ = run(["analyze", "--no-such-flag"])
    assert code == 2


def test_numeric_integrity_exits_4(monkeypatch):
    def explode(*args, **kwargs):
        raise NumericIntegrityError("imaginary residue out of range")

    monkeypatch.setattr("blochsep.cli.subset_scan", explode)
    code, _, err = run(["analyze", "zoo:werner", "-p", "0.5"])
    assert code == 4
    assert "imaginary residue" in err


@pytest.mark.parametrize("tol", ["-2", "nan", "inf"])
def test_analyze_rejects_bad_guard(tol):
    code, out, err = run(["analyze", "zoo:mixed", "--dims", "2,2", "--tol", tol])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--tol" in err


def count_calls(monkeypatch, counts, key, module, name):
    """Count the calls of ``module.name`` into ``counts[key]``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_analyze_expands_the_state_once(monkeypatch):
    counts = {"transform": 0, "validate": 0}
    count_calls(monkeypatch, counts, "transform", blochsep.bloch, "_mode_products")
    count_calls(monkeypatch, counts, "validate", blochsep.states, "validate_density")
    doc = run_json(["analyze", "zoo:smolin", "--subsets", "all", "--criteria", "all"])
    assert len(doc["records"]) == 11
    assert counts == {"transform": 1, "validate": 1}


@pytest.mark.parametrize("argv, expansions", [
    *((["threshold", "ghz-noisy", "-N", "4", "--criterion", c], 1)
      for c in ("t1", "c1", "c2", "p2")),
    (["threshold-table", "--max-parties", "4"], 4),
])
def test_thresholds_expand_one_state_each(monkeypatch, argv, expansions):
    counts = {"transform": 0}
    count_calls(monkeypatch, counts, "transform", blochsep.bloch, "_mode_products")
    run_json(argv)
    assert counts["transform"] == expansions


def test_decompose_assembles_through_the_inverse_map(monkeypatch):
    counts = {"transform": 0, "kron": 0}
    count_calls(monkeypatch, counts, "transform", blochsep.bloch, "_mode_products")
    kron = blochsep.states.kron
    for mod in [m for n, m in sys.modules.items() if n.startswith("blochsep")]:
        if getattr(mod, "kron", None) is kron:
            count_calls(monkeypatch, counts, "kron", mod, "kron")
    doc = run_json(["decompose", "zoo:werner", "-p", "0.3"])
    assert doc["term_count"] == 6
    assert counts == {"transform": 2, "kron": 0}


def test_output_file_written_atomically(tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old contents")
    code, _, _ = run(["analyze", "zoo:werner", "-p", "0.5", "-o", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["kind"] == "analysis"
    assert not list(tmp_path.glob("*.tmp*"))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blochsep", "analyze", "zoo:werner", "-p", "0.5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["records"][0]["decision"] == "entangled"


RECORD_KEYS = ["subset", "norm", "bound", "decision", "criterion", "borderline"]
NN = "necessary-norm"
REPORT_LAYOUTS = [
    (["zoo:smolin"], {
        "input": {"source": "zoo:smolin", "family": "smolin"},
        "dims": [2, 2, 2, 2],
        "records": [
            *([list(s), 0.0, 1.0, "inconclusive", NN, False] for s in [
                (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            [[0, 1, 2, 3], 3.0, 1.0, "entangled", NN, False],
        ],
        "exact_qubit": {"decision": "entangled", "criterion": "qubit-exact",
                        "norm": 3.0, "bound": 1.0, "borderline": False},
        "sufficiency": {"lhs": 3.0, "available": True, "decision": "inconclusive",
                        "reason": "sum-exceeds-one"},
    }),
    (["zoo:werner", "-p", "0.2"], {
        "input": {"source": "zoo:werner", "family": "werner", "noise": 0.2},
        "dims": [2, 2],
        "records": [[[0, 1], 0.6, 1.0, "inconclusive", NN, False]],
        "exact_qubit": {"decision": "separable", "criterion": "qubit-exact",
                        "norm": 0.6, "bound": 1.0, "borderline": False},
        "sufficiency": {"lhs": 0.6, "available": True, "decision": "separable"},
    }),
    (["zoo:psi-234"], {
        "input": {"source": "zoo:psi-234", "family": "psi-234"},
        "dims": [2, 3, 4],
        "records": [
            [[0, 1], 0.75 * np.sqrt(2), np.sqrt(3), "inconclusive", NN, False],
            [[0, 2], 2 + np.sqrt(3), np.sqrt(6), "entangled", NN, False],
            [[1, 2], 7.116715359693519, np.sqrt(18), "entangled", NN, False],
            [[0, 1, 2], 18.444865956769807, np.sqrt(18), "entangled", NN, False],
        ],
        "exact_qubit": {"decision": "inconclusive", "criterion": "qubit-exact",
                        "norm": None, "bound": 1.0, "borderline": False,
                        "reason": "not-a-multiqubit-state"},
        "sufficiency": {"lhs": None, "available": False, "decision": "inconclusive",
                        "reason": "no-orthogonal-decomposition:(0, 1, 2)"},
    }),
]


def assert_same_layout(got, want):
    """Equal key sequences at every level and equal values, floats to 1e-12."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_layout(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_layout(g, w)
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want)
    else:
        assert type(got) in (int, float)
        assert got == pytest.approx(float(want), abs=1e-12)


@pytest.mark.parametrize("source, layout", REPORT_LAYOUTS)
def test_analyze_report_layout_is_pinned(source, layout):
    argv = ["analyze", *source, "--subsets", "all", "--criteria", "all"]
    want = {
        "schema": "blochsep/1",
        "kind": "analysis",
        "input": layout["input"],
        "dims": layout["dims"],
        "criteria": "all",
        "subsets": "all",
        "records": [dict(zip(RECORD_KEYS, rec)) for rec in layout["records"]],
        "exact_qubit": layout["exact_qubit"],
        "sufficiency": layout["sufficiency"],
    }
    assert_same_layout(run_json(argv), want)

    code, out, err = run(argv + ["--format", "csv"])
    assert code == 0, err
    assert out.endswith("\n")
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert header == RECORD_KEYS
    assert len(rows) == len(layout["records"])
    for row, (subset, norm, bound, decision, criterion, borderline) in zip(
            rows, layout["records"]):
        assert row[0] == ",".join(str(k) for k in subset)
        assert float(row[1]) == pytest.approx(norm, rel=1e-11, abs=1e-12)
        assert float(row[2]) == pytest.approx(bound, rel=1e-11)
        assert row[3:] == [decision, criterion, str(int(borderline))]
