"""Tests for the command-line interface and state serialization."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

import blochsep.bloch
import blochsep.states
from blochsep import (
    InvalidStateError,
    NumericIntegrityError,
    load_state,
    maximally_mixed,
    save_state,
    zoo_state,
)
from blochsep.cli import main
from blochsep.stateio import dump_json, state_from_jsonable, state_text
from conftest import (
    entrywise_matrix,
    entrywise_state_from_jsonable,
    entrywise_state_to_jsonable,
    qutrit_ghz_threshold,
    random_density,
)


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


@pytest.mark.parametrize("criteria, subsets", [
    ("t1", "k=9"), ("t1", "all"), ("c2", "pairs"), ("c2", "k=2"), ("p2", "all"),
], ids=["t1-k9", "t1-all", "c2-pairs", "c2-k2", "p2-all"])
def test_analyze_refuses_subsets_the_criteria_do_not_read(criteria, subsets):
    code, out, err = run(["analyze", "zoo:ghz", "-N", "3", "--criteria", criteria,
                          "--subsets", subsets])
    assert code == 2 and out == ""
    assert err == (f"error: --criteria {criteria} does not read --subsets "
                   f"(got {subsets!r}); only c1 and all do\n")


@pytest.mark.parametrize("criteria", ["t1", "c2", "p2"])
def test_analyze_subsets_full_is_still_accepted(criteria):
    base = ["analyze", "zoo:ghz", "-N", "3", "--criteria", criteria]
    assert run(base + ["--subsets", "full"]) == run(base)[:2] + ("",)


@pytest.mark.parametrize("subsets", ["full", "all", "pairs", "k=2"])
def test_single_party_state_is_refused_under_every_selector(tmp_path, subsets):
    path = tmp_path / "one-party.json"
    save_state(maximally_mixed((4,)), path)
    code, out, err = run(["analyze", str(path), "--criteria", "c1", "--subsets", subsets])
    assert (code, out) == (2, "")
    assert err == "error: the necessary test needs at least 2 subsystems, the state has 1\n"


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


@pytest.mark.parametrize("criteria", ["c2", "p2"])
def test_analyze_csv_refuses_criteria_without_norm_records(tmp_path, criteria):
    # the CSV holds only the norm records, which c2 and p2 do not make
    target = tmp_path / "out.csv"
    code, out, err = run(["analyze", "zoo:werner", "-p", "0.5", "--criteria", criteria,
                          "--format", "csv", "-o", str(target)])
    assert code == 2 and out == ""
    assert err == (f"error: --format csv writes only norm records, which --criteria "
                   f"{criteria} does not make; only t1, c1 and all do\n")
    assert not target.exists()


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
    # an 11 MB file: 9 qubits is the largest N the benchmark's zoo ops write
    for name, rho in [("werner", zoo_state("werner", noise=0.3)),
                      ("w", zoo_state("w", parties=9))]:
        first = tmp_path / f"{name}-a.json"
        second = tmp_path / f"{name}-b.json"
        save_state(rho, first, name=name)
        loaded, meta = load_state(first)
        assert loaded.matrix.tobytes() == rho.matrix.tobytes()
        save_state(loaded, second, name=meta["name"])
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")


@st.composite
def state_docs(draw):
    """A state document of a random 1- or 2-party density matrix with float
    entries, or of the basis state |0><0| with int entries."""
    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.sampled_from([None, 1]))
    matrix = entrywise_matrix(random_density(np.random.default_rng(seed), dims, rank).matrix)
    if rank == 1 and draw(st.booleans()):
        matrix = [[[int(i == j == 0), 0] for j in range(len(matrix))]
                  for i in range(len(matrix))]
    return {"schema": "blochsep/1", "kind": "state", "dims": list(dims), "matrix": matrix}


JUNK = st.one_of(
    st.sampled_from([True, False, None, "0.5", {}, math.nan, -math.nan, math.inf, -math.inf,
                     2**53 + 1, -(2**63) - 1, 10**400, -(10**400), np.float64(0.25)]),
    st.integers(), st.floats(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def broken_state_docs(draw):
    """A state document broken in one of the ways a state file can be
    wrong, or left whole."""
    doc = draw(state_docs())
    raw = doc["matrix"]
    n = len(raw)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["none", "leaf", "leaf", "leaf", "pair", "rows", "ragged",
                                 "row-type", "entry-type", "dims"]))
    if kind == "leaf":
        raw[i][j][draw(st.integers(0, 1))] = draw(JUNK)
    elif kind == "pair":
        raw[i][j] = draw(st.lists(st.floats(), min_size=1, max_size=3)
                         .filter(lambda pair: len(pair) != 2))
    elif kind == "rows":
        doc["matrix"] = raw[:-1] if draw(st.booleans()) else raw + raw[:1]
    elif kind == "ragged":
        raw[i] = raw[i][:-1] if draw(st.booleans()) else raw[i] + [[0.0, 0.0]]
    elif kind == "row-type":
        raw[i] = draw(st.sampled_from([tuple(raw[i]), None, "row", {"0": 0}]))
    elif kind == "entry-type":
        raw[i][j] = draw(st.sampled_from([tuple(raw[i][j]), {0.5: 0.0, 1.0: 0.0}, "ab", 0.5,
                                          None]))
    elif kind == "dims":
        doc["dims"] = draw(st.sampled_from(
            [[65536, 65536], [], [2, True], [0], [-2], [1], [2, 2.0], "2", [2**70], [n]]))
    return doc


def pure_qubit_doc(entry=(1, 0), dims=(2,)):
    """|0><0| on one qubit with ``entry`` as its [0, 0] pair."""
    return {"schema": "blochsep/1", "kind": "state", "dims": list(dims),
            "matrix": [[list(entry), [0, 0]], [[0, 0], [0, 0]]]}


def read(reader, doc):
    try:
        return reader(doc).matrix.tobytes()
    except InvalidStateError as exc:
        return f"InvalidStateError: {exc}"


@settings(max_examples=400, deadline=None)
@given(doc=broken_state_docs())
@example(doc=pure_qubit_doc())
@example(doc=pure_qubit_doc((True, 0)))
@example(doc=pure_qubit_doc((10**400, 0)))
@example(doc=pure_qubit_doc((1, 2**53 + 1)))
@example(doc=pure_qubit_doc((math.nan, 0)))
@example(doc=pure_qubit_doc((1, 0, 0)))
@example(doc=pure_qubit_doc(dims=(65536, 65536)))
@example(doc={**pure_qubit_doc(), "matrix": [[[1, 0]] * 3, [[0, 0]] * 3]})
@example(doc=pure_qubit_doc((0.12997710001554766, 8.98846567431158e+307)))
def test_array_reader_matches_the_entrywise_walk(doc):
    """Every document reads to the reference's matrix, bit for bit, or is
    refused with the reference's message, bools, huge ints and huge dims
    included; [65536, 65536] is refused by the row count, before any
    allocation."""
    assert read(state_from_jsonable, doc) == read(entrywise_state_from_jsonable, doc)


def dumped(dump, doc):
    try:
        return dump(doc)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def json_dumps(doc):
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# floats whose repr is easy to get wrong: signed zero, the smallest subnormal,
# tiny, exponent-form and largest finite values
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16,
                  1.7976931348623157e308, -1.7976931348623157e308]
NAMES = st.one_of(st.none(), st.text(max_size=8), st.sampled_from([
    'x "matrix": null', '\n  "matrix": []', 'quote " and back\\slash', "\u00e9t\u00e9 \u6f22 \t"]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_state_documents_are_written_as_json_writes_them(data):
    """``state_text`` gives the bytes of ``json.dumps(indent=2)`` of the
    document built entry by entry.  It reads only ``dims`` and ``matrix``,
    so a single-party stand-in may carry entries no density matrix has;
    real states on two and three parties vary the ``dims`` lists and the
    row widths."""
    dims = data.draw(st.sampled_from([(1,), (2,), (3,), (4,), (6,), (2, 3), (3, 3), (2, 3, 4)]),
                     label="dims")
    if len(dims) > 1:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rho = random_density(rng, dims, data.draw(st.sampled_from([None, 1, 2]), label="rank"))
    else:
        d = dims[0]
        value = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))
        diag = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
        m = np.diag(diag / diag.sum() if diag.sum() > 0 else np.full(d, 1 / d)).astype(complex)
        for i in range(d):
            for j in range(i + 1, d):
                m[i, j] = complex(data.draw(value), data.draw(value))
                m[j, i] = m[i, j].conjugate()
        rho = SimpleNamespace(dims=dims, matrix=m)
    name, source = data.draw(NAMES, label="name"), data.draw(NAMES, label="source")
    assert state_text(rho, name, source) == json_dumps(entrywise_state_to_jsonable(rho, name, source))


@settings(max_examples=300, deadline=None)
@given(doc=broken_state_docs())
@example(doc=pure_qubit_doc((0.5, math.inf)))
@example(doc=pure_qubit_doc((0.5, False)))
@example(doc=pure_qubit_doc((0.5, np.float64(0.25))))
@example(doc=pure_qubit_doc((0.5,)))
def test_state_documents_the_template_cannot_vouch_for_go_through_json(doc):
    """``dump_json`` is json's own writer, ``allow_nan=False`` included:
    non-finite values, leaves that are not floats, ragged rows and odd pairs
    give json's bytes or json's error."""
    assert dumped(dump_json, doc) == dumped(json_dumps, doc)


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

    # an integer entry too large for a float
    huge = tmp_path / "huge.json"
    huge.write_text('{"schema": "blochsep/1", "kind": "state", "dims": [2], "matrix": '
                    '[[[1' + "0" * 400 + ', 0], [0, 0]], [[0, 0], [0, 0]]]}')
    code, out, err = run(["analyze", str(huge)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "matrix entry (0, 0)" in err


NEAR_MAX = 1.7e308


def diagonal(values):
    return [[[v, 0] if i == j else [0, 0] for j in range(len(values))]
            for i, v in enumerate(values)]


@pytest.mark.parametrize("dims, matrix, message", [
    ([2], pure_qubit_doc((0.12997710001554766, 8.98846567431158e+307))["matrix"],
     "matrix is not Hermitian (max deviation inf)"),
    ([2], diagonal([NEAR_MAX, NEAR_MAX]), "trace is inf+0j, expected 1"),
    ([2, 2, 2], diagonal([NEAR_MAX, NEAR_MAX, -NEAR_MAX, -NEAR_MAX, 0.25, 0.25, 0.25, 0.25]),
     "trace is nan+0j, expected 1"),
    ([2], [[[0.5, 0], [1.5e308, 1.5e308]], [[1.5e308, -1.5e308], [0.5, 0]]],
     "matrix is not positive semidefinite (min eigenvalue nan)"),
], ids=["hermiticity-overflows", "trace-overflows", "trace-overflows-both-ways",
        "eigenvalues-overflow"])
def test_entries_near_the_float_limit_are_refused_in_one_line(tmp_path, dims, matrix, message):
    # finite entries whose differences, sums or eigenvalues do not fit in a
    # float
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"schema": "blochsep/1", "kind": "state", "dims": dims,
                                "matrix": matrix}))
    assert run(["analyze", str(path)]) == (2, "", f"error: {message}\n")


def io_failure(tmp_path, case):
    """The argv of one I/O failure and the start of its message."""
    state = tmp_path / "state.json"
    if case == "output-in-missing-directory":
        target = tmp_path / "missing" / "out.json"
        return (["zoo", "ghz", "-N", "2", "-o", str(target)],
                f"error: cannot write {target}: No such file or directory")
    if case == "output-onto-directory":
        target = tmp_path / "out"
        target.mkdir()
        return (["analyze", "zoo:werner", "-p", "0.5", "-o", str(target)],
                f"error: cannot write {target}: Is a directory")
    if case == "nested-past-the-recursion-limit":
        state.write_text("[" * 200000 + "]" * 200000)
        return ["analyze", str(state)], f"error: state file {state} is nested too deeply to parse"
    state.write_bytes(b'{"schema": "blochsep/1\xff"}')
    return ["analyze", str(state)], f"error: state file {state} is not UTF-8: "


@pytest.mark.parametrize("case", ["output-in-missing-directory", "output-onto-directory",
                                  "nested-past-the-recursion-limit", "not-utf-8"])
def test_io_failures_exit_2_in_one_line(tmp_path, case):
    argv, message = io_failure(tmp_path, case)
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)
    assert not list(tmp_path.rglob("*.tmp*"))


@pytest.mark.parametrize("argv, named", [
    (["zoo", "nope"], "'nope'"),
    (["analyze", "zoo:ghz", "-N", "x"], "-N/--parties"),
    (["analyze", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ([], "required: command"),
    (["decompose", "--bogus"], "unrecognized arguments: --bogus"),
    (["analyze", "zoo:werner", "-p", "0.3", "--bogus"], "unrecognized arguments: --bogus"),
    (["decompose", "-p", "0.3"], "the following arguments are required: state"),
    (["threshold-table", "--max-parties", "2"], "max_parties must be at least 3"),
    (["threshold-table", "--max-parties", "1"], "max_parties must be at least 3"),
    (["threshold-table", "--max-parties", "-1"], "max_parties must be at least 3"),
], ids=["zoo-unknown-family", "analyze-bad-int", "analyze-unknown-flag", "no-command",
        "decompose-unknown-flag", "unknown-flag-with-state", "missing-state",
        "table-max-parties-2", "table-max-parties-1", "table-max-parties-negative"])
def test_usage_errors_take_one_line(argv, named):
    # the message names the argument at fault, and a missing state only
    # when nothing else is wrong
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named in err


@pytest.mark.parametrize("argv", [
    ["analyze", "zoo:ghz", "-N", "40"],
    ["threshold", "ghz-noisy", "-N", "40"],
    ["threshold-table", "--max-parties", "40"],
    ["zoo", "w", "-N", "40"],
    ["analyze", "zoo:reduced-w-noisy", "-N", "42", "-n", "2", "-p", "0.5"],
], ids=["analyze-ghz", "threshold-ghz-noisy", "threshold-table", "zoo-w", "reduced-w"])
def test_states_too_large_to_build_are_refused(argv):
    # the working-memory estimate refuses these before anything is allocated
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: a state of dimension 1.1e+12 needs about ")
    assert err.endswith("GiB of physical memory\n")


def test_help_still_exits_0():
    code, out, err = run(["--help"])
    assert code == 0 and err == ""
    assert "usage: blochsep" in out


def test_numeric_integrity_exits_4(monkeypatch):
    def explode(*args, **kwargs):
        raise NumericIntegrityError("imaginary residue out of range")

    monkeypatch.setattr("blochsep.cli.subset_scan", explode)
    code, _, err = run(["analyze", "zoo:werner", "-p", "0.5"])
    assert code == 4
    assert "imaginary residue" in err


@pytest.mark.parametrize("tol", ["-2", "nan", "inf", "0"])
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


def test_analyze_reads_tensors_in_place(monkeypatch):
    # the norm test stacks slices of the coefficient array; it never takes
    # the checked per-subset copies of the public expansion API
    counts = {"component": 0}
    count_calls(monkeypatch, counts, "component", blochsep.bloch, "_component")
    doc = run_json(["analyze", "zoo:smolin", "--subsets", "all", "--criteria", "c1"])
    assert len(doc["records"]) == 11
    assert counts == {"component": 0}


@pytest.mark.parametrize("argv, expansions", [
    *((["threshold", "ghz-noisy", "-N", "4", "--criterion", c], 1)
      for c in ("t1", "c1", "c2", "p2")),
    (["threshold-table", "--max-parties", "4"], 4),
])
def test_thresholds_expand_one_state_each(monkeypatch, argv, expansions):
    # each threshold builds and validates sigma once, and expands it once
    counts = {"transform": 0, "validate": 0}
    count_calls(monkeypatch, counts, "transform", blochsep.bloch, "_mode_products")
    count_calls(monkeypatch, counts, "validate", blochsep.states, "validate_density")
    run_json(argv)
    assert counts == {"transform": expansions, "validate": expansions}


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
