"""Tests for the command-line interface and state serialization."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

import blochsep.bloch
import blochsep.cli
import blochsep.criteria
import blochsep.states
import blochsep.stateio
from blochsep import (
    Decision,
    DensityMatrix,
    InvalidStateError,
    NumericIntegrityError,
    ZooSpec,
    basis_ket,
    load_state,
    maximally_mixed,
    noisy,
    projector,
    save_state,
    zoo_families,
)
from blochsep.cli import main
from blochsep.states import _FAMILIES
from blochsep.stateio import (
    _WINDOW,
    _cut_zero_rows,
    _fields,
    _json,
    _value,
    dump_json,
    state_from_jsonable,
    state_text,
)
from conftest import (
    count_calls,
    diagonal_qubit_state,
    entrywise_matrix,
    entrywise_state_from_jsonable,
    entrywise_state_to_jsonable,
    limit_memory,
    low_rank_pair,
    per_tensor_norms,
    qutrit_ghz_threshold,
    random_density,
    random_pure_product,
    reference_analysis,
    reference_decomposition,
    reference_load_state,
    text_mode_load_state,
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
    timing = run_json(args + ["--timing"])["timing"]
    assert set(timing) == {"elapsed_seconds", "state_seconds"}
    for seconds in timing.values():
        assert isinstance(seconds, float) and seconds >= 0


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


@pytest.mark.parametrize("argv", [
    ["ghz-noisy", "-N", "3"],
    ["w-noisy", "-N", "4", "--criterion", "p2"],
    ["werner"],
])
def test_threshold_takes_the_zoo_prefix(argv):
    assert run(["threshold", f"zoo:{argv[0]}", *argv[1:]]) == run(["threshold", *argv])


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


# one small setting of each zoo family, by the ZooSpec parameter each flag sets
ZOO_SETTINGS = {
    "ghz": {"parties": 3, "levels": 3},
    "ghz-noisy": {"parties": 3, "noise": 0.3},
    "qutrit-ghz-noisy": {"parties": 2, "noise": 0.5},
    "werner": {"noise": 0.3},
    "w": {"parties": 3},
    "w-noisy": {"parties": 3, "noise": 0.5},
    "reduced-w-noisy": {"parties": 6, "removed": 2, "noise": 0.5},
    "psi-234": {},
    "state-234-noisy": {"noise": 0.5},
    "smolin": {},
    "duer4": {},
    "mixed": {"dims": (2, 3)},
}


def zoo_flags(parameters):
    return [arg for name, value in parameters.items()
            for arg in (f"--{name}", ",".join(map(str, value)) if name == "dims" else str(value))]


def test_zoo_state_files(tmp_path):
    """Every family writes with -o the bytes of ``json.dumps(indent=2)`` of
    its state built entry by entry, prints the same text to stdout, and
    writes the same bytes when named as zoo:FAMILY."""
    assert list(ZOO_SETTINGS) == list(zoo_families())
    for family, parameters in ZOO_SETTINGS.items():
        rho = ZooSpec(family, **parameters).build()
        path = tmp_path / f"{family}.json"
        code, out, err = run(["zoo", family, *zoo_flags(parameters), "-o", str(path)])
        assert (code, out, err) == (0, "", "")
        text = path.read_text(encoding="utf-8")
        assert text == json_dumps(entrywise_state_to_jsonable(rho, family, "zoo"))
        assert run(["zoo", family, *zoo_flags(parameters)]) == (0, text, "")
        assert run(["zoo", f"zoo:{family}", *zoo_flags(parameters)]) == (0, text, "")
        loaded, meta = load_state(path)
        assert loaded.matrix.tobytes() == rho.matrix.tobytes()
        assert meta == {"name": family, "source": "zoo"}


def test_state_round_trip_is_byte_identical(tmp_path):
    # an 11 MB file: 9 qubits is the largest N the benchmark's zoo ops write
    for name, rho in [("werner", ZooSpec("werner", noise=0.3).build()),
                      ("w", ZooSpec("w", parties=9).build())]:
        first = tmp_path / f"{name}-a.json"
        second = tmp_path / f"{name}-b.json"
        save_state(rho, first, name=name)
        loaded, meta = load_state(first)
        assert loaded.matrix.tobytes() == rho.matrix.tobytes()
        save_state(loaded, second, name=meta["name"])
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().endswith(b"\n")


def dense_8_qubit_state():
    """A full-rank 8-qubit state, which has no zero pair."""
    g = np.random.default_rng(8).normal(size=(256, 512)).view(complex)
    m = g @ g.conj().T
    return DensityMatrix((2,) * 8, m / np.trace(m).real)


@pytest.mark.parametrize("argv", [
    ["zoo", "w", "-N", "9"], ["zoo", "ghz-noisy", "-N", "9", "-p", "0.3"], "dense-8",
    ["zoo", "ghz", "-N", "9"], ["zoo", "psi-234"],
], ids=["w-9", "ghz-noisy-9", "dense-8", "ghz-9", "psi-234"])
def test_state_files_at_full_size_are_what_json_dumps_writes(argv, tmp_path):
    """The writer's state files, written in batches of pieces, are the bytes
    json.dumps(indent=2) writes across every batch boundary: W-9, rows of
    one nonzero diagonal pair between runs of zero pairs (noisy GHZ-9), a
    dense 8-qubit state, GHZ-9, whose 510 all-zero rows are the writer's
    commonest row, and psi-234's mixed dimensions.  Stdout gets the bytes
    of the file."""
    path = tmp_path / "state.json"
    if argv == "dense-8":
        save_state(dense_8_qubit_state(), path)
    else:
        assert run([*argv, "-o", str(path)]) == (0, "", "")
        assert run(argv) == (0, path.read_text(encoding="utf-8"), "")
    text = path.read_text(encoding="utf-8")
    assert text == json_dumps(json.loads(text)), f"{argv} is not what json.dumps(indent=2) writes"


def test_writing_a_large_state_file_takes_a_fraction_of_its_size(tmp_path):
    """Writing W-9, an 11 MB file, through save_state and through zoo -o
    holds no more than an eighth of its size in new memory at a time, as
    traced by tracemalloc, beside the state that zoo builds: its rows are
    pieces, mostly one shared zero row, written in joined batches of about
    128 KB.  Joining and encoding the document whole held about twice its
    size."""
    rho = ZooSpec("w", parties=9).build()
    path = tmp_path / "w9.json"
    tracemalloc.start()
    try:
        save_state(rho, path)
        _, saved = tracemalloc.get_traced_memory()
        size = path.stat().st_size
        tracemalloc.reset_peak()
        ZooSpec("w", parties=9).build()
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert main(["zoo", "w", "-N", "9", "-o", str(path)]) == 0
        _, written = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 11_000_000
    assert saved < size // 8
    assert written < built + size // 8


class FailingWrites:
    """A text file whose ``write`` raises OSError from call ``fail`` on,
    and counts the characters of the writes before it."""

    def __init__(self, fh, fail):
        self.fh, self.fail, self.sizes = fh, fail, []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        if len(self.sizes) + 1 >= self.fail:
            raise OSError(28, "No space left on device")
        self.sizes.append(len(text))
        return self.fh.write(text)


def failing_open(handles, fail):
    """An ``open`` whose files are ``FailingWrites`` from call ``fail`` on,
    each appended to ``handles``."""
    def opener(path, mode="r", **kwargs):
        handles.append(FailingWrites(open(path, mode, **kwargs), fail))
        return handles[-1]
    return opener


@pytest.mark.parametrize("writer", ["save_state", "zoo"])
def test_a_failed_batch_leaves_the_target_as_it_was(writer, tmp_path, monkeypatch):
    """An OSError from the second batch write leaves the target with its
    old bytes and no temporary sibling; zoo reports it in one line with
    exit 2.  Without the failure, the batches of W-9 are each about 128 KB:
    at least that, and less than that plus one row."""
    target = tmp_path / "w9.json"
    target.write_bytes(b"old contents")
    handles = []
    monkeypatch.setattr(blochsep.stateio, "open", failing_open(handles, 2), raising=False)
    if writer == "save_state":
        with pytest.raises(OSError, match="No space left on device"):
            save_state(ZooSpec("w", parties=9).build(), target)
    else:
        assert run(["zoo", "w", "-N", "9", "-o", str(target)]) == (
            2, "", f"error: cannot write {str(target)!r}: No space left on device\n")
    assert [len(h.sizes) for h in handles] == [1]
    assert target.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w9.json"]
    handles.clear()
    monkeypatch.setattr(blochsep.stateio, "open", failing_open(handles, math.inf), raising=False)
    save_state(ZooSpec("w", parties=9).build(), target)
    ((*batches, last),) = [h.sizes for h in handles]
    row = len(state_text(ZooSpec("w", parties=9).build()).split("\n    ],\n")[1])
    assert len(batches) > 60 and last < blochsep.stateio._BATCH + row
    assert all(blochsep.stateio._BATCH <= size < blochsep.stateio._BATCH + row for size in batches)
    assert sum(batches) + last == target.stat().st_size


@st.composite
def state_docs(draw):
    """A state document of a random 1- or 2-party density matrix with float
    entries, or of the basis state |0><0| with int entries.  Half of the
    float matrices have rows of zero pairs: first, last, between the first
    and the last row, or everywhere but one row."""
    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.sampled_from([None, 1]))
    matrix = entrywise_matrix(random_density(np.random.default_rng(seed), dims, rank).matrix)
    if draw(st.booleans()):
        total = math.prod(dims)
        count, row = draw(st.integers(1, total - 1)), draw(st.integers(0, total - 1))
        zero = {"first": range(count), "last": range(total - count, total),
                "inner": range(1, total - 1),
                "all-but-one": [i for i in range(total) if i != row]}[draw(st.sampled_from(
                    ["first", "last", "inner", "all-but-one"]))]
        kept = [i for i in range(total) if i not in zero]
        m = np.zeros((total, total), dtype=complex)
        if len(kept) == 1:
            m[kept[0], kept[0]] = 1.0
        else:
            sub = random_density(np.random.default_rng(seed), (len(kept),), rank).matrix
            m[np.ix_(kept, kept)] = sub
        matrix = entrywise_matrix(m)
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
                                 "row-type", "entry-type", "dims", "head", "compensating"]))
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
    elif kind == "head":
        # a wrong or a missing (...) schema, a kind that is not "state", or
        # a missing kind, which reads as a state
        key, value = draw(st.sampled_from(
            [("schema", "blochsep/2"), ("schema", ...), ("kind", "analysis"), ("kind", 1),
             ("kind", None), ("kind", ...)]))
        if value is ...:
            del doc[key]
        else:
            doc[key] = value
    elif kind == "compensating":
        # two breaks that keep the number of leaves: a short and a long pair
        # in one row, a short and a long row, or an entry whose one leaf is
        # its own pair
        k = (j + 1) % n
        how = draw(st.sampled_from(["pairs", "rows", "nested"]))
        if how == "pairs":
            raw[i][j], raw[i][k] = raw[i][j][:1], raw[i][k] + raw[i][j][1:]
        elif how == "rows":
            raw[i], raw[k] = raw[i][:-1], raw[k] + raw[i][-1:]
        else:
            raw[i][j] = [raw[i][j]]
    return doc


# rows 1 and 2 are zero pairs, between two rows that are not
GHZ2_DOC = entrywise_state_to_jsonable(ZooSpec("ghz", parties=2).build())


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
@example(doc={key: value for key, value in pure_qubit_doc().items() if key != "kind"})
@example(doc={**pure_qubit_doc(), "matrix": [[[1, 0]] * 3, [[0, 0]] * 3]})
@example(doc=pure_qubit_doc((0.12997710001554766, 8.98846567431158e+307)))
@example(doc={**pure_qubit_doc(), "matrix": [[[1], [0, 0, 0]], [[0, 0], [0, 0]]]})
@example(doc={**pure_qubit_doc(), "matrix": [[[1, 0]], [[0, 0], [0, 0], [0, 0]]]})
@example(doc={**pure_qubit_doc(), "matrix": [[[[1, 0]], [0, 0]], [[0, 0], [0, 0]]]})
def test_array_reader_matches_the_entrywise_walk(doc):
    """Every document reads to the reference's matrix, bit for bit, or is
    refused with the reference's message, bools, huge ints and huge dims
    included; [65536, 65536] is refused by the row count, before any
    allocation.  The compensating breaks keep the number of leaves, so a
    reader that checks only that number accepts them."""
    assert read(state_from_jsonable, doc) == read(entrywise_state_from_jsonable, doc)


def spaced_json(value, rng):
    """``value``, a document as ``json.loads`` gives it, as JSON text with
    random JSON whitespace around every token."""
    def space():
        return rng.choice(["", "", " ", "\n", "\t", "\r\n  ", " \n\t "])
    if isinstance(value, dict):
        items = [f"{space()}{json.dumps(k)}{space()}:{space()}{spaced_json(v, rng)}{space()}"
                 for k, v in value.items()]
    elif isinstance(value, list):
        items = [f"{space()}{spaced_json(v, rng)}{space()}" for v in value]
    else:
        return json.dumps(value)
    opening, closing = "{}" if isinstance(value, dict) else "[]"
    return opening + (",".join(items) or space()) + closing


def state_file_text(doc, layout, rng):
    """``doc`` as ``json.dumps`` writes it in its compact layout, as
    ``indent=2`` writes it, or with random whitespace."""
    if layout == "compact":
        return json.dumps(doc)
    if layout == "indent":
        return json.dumps(doc, indent=2)
    return spaced_json(json.loads(json.dumps(doc)), rng)


NUMBER = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
# the text-level breaks of a state file: each pattern, searched from the
# "matrix" key on, and what one of its matches becomes
TEXT_BREAKS = {
    "moved-past-close": (rf"({NUMBER})(\s*)\]", r"\2]\1"),
    "moved-before-open": (rf"\[(\s*)({NUMBER})", r"\2[\1"),
    "empty-slot": (rf"\[(\s*){NUMBER}", r"[\1"),
    "trailing-comma": (r"(\s*)\]", r",\1]"),
    "space-in-number": (r"(\d)(\d|\.)", r"\1 \2"),
}
LEAVES = ["+1", ".5", "1.", "01", "true", "null", '"0.5"', "1" + "0" * 400, "1e400", "-0.0",
          "-", "1e", "0x1", "Infinity", "NaN"]
ZERO_PAIR = r"\[\s*0\.0\s*,\s*0\.0\s*\]"
# a row of zero pairs in any layout; no other part of a matrix matches it
ZERO_ROW = rf"\[\s*{ZERO_PAIR}(?:\s*,\s*{ZERO_PAIR})*\s*\]"
# the breaks of one row of zero pairs, which the reader may cut unparsed:
# a space inside a 0.0, a 0.0 written otherwise, a pair added or dropped,
# the row as indent=4 writes it, and the text a cut row leaves ("[0]") as a
# leaf or as a row of its own
ZERO_BREAKS = ["zero-space", "zero-leaf", "zero-pair-added", "zero-pair-dropped",
               "zero-indent-4", "zero-stray"]
ZERO_LEAVES = ["-0.0", "0", "0.00"]
BREAKS = ["none", *TEXT_BREAKS, "leaf", "matrix-twice", "matrix-in-metadata", "non-ascii", "bom",
          *ZERO_BREAKS]


def break_zero_row(text, kind, at):
    """``text`` with one of its rows of zero pairs broken by ``kind``;
    ``at`` picks the row and the place in it."""
    rows = list(re.finditer(ZERO_ROW, text))
    if not rows:
        return text
    m = rows[at % len(rows)]
    row = m.group()
    leaves = [k.start() for k in re.finditer(r"0\.0", row)]
    k = leaves[at // len(rows) % len(leaves)]
    if kind == "zero-space":
        row = row[:leaves[1]] + "0. 0" + row[leaves[1] + 3:]
    elif kind == "zero-leaf":
        row = row[:k] + ZERO_LEAVES[at % 3] + row[k + 3:]
    elif kind == "zero-pair-added":
        first = row.index("[", 1)
        row = row[:first] + "[0.0, 0.0], " + row[first:]
    elif kind == "zero-pair-dropped":
        # the first pair and the text between it and the second, if any
        pair = re.search(ZERO_PAIR + r"(?:\s*,\s*)?", row)
        row = row[:pair.start()] + row[pair.end():]
    elif kind == "zero-indent-4":
        row = json.dumps(json.loads(row), indent=4).replace("\n", "\n        ")
    else:
        row = "[0], " + row if at % 2 else row[:k] + "[0]" + row[k + 3:]
    return text[:m.start()] + row + text[m.end():]


def break_text(text, kind, at, leaf):
    """``text`` with one break of ``kind``; ``at`` picks the place."""
    if kind in ZERO_BREAKS:
        return break_zero_row(text, kind, at)
    start = max(text.find('"matrix"'), 0)
    if kind in TEXT_BREAKS or kind == "leaf":
        pattern, replacement = TEXT_BREAKS.get(kind, (NUMBER, leaf))
        matches = list(re.finditer(pattern, text[start:]))
        if not matches:
            return text
        m = matches[at % len(matches)]
        return (text[:start + m.start()] + m.expand(replacement)
                + text[start + m.end():])
    if kind == "matrix-twice":
        first = ["0", "null", '"matrix"', "{}", "true"][at % 5]
        return text.replace("{", '{"matrix": ' + first + ",", 1)
    if kind in ("matrix-in-metadata", "non-ascii"):
        metadata = ('{"matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "name": "m"}'
                    if kind == "matrix-in-metadata" else '{"name": "\u00e9t\u00e9 \u6f22"}')
        end = text.rindex("}")
        return text[:end] + ', "metadata": ' + metadata + text[end:]
    if kind == "bom":
        return "\ufeff" + text
    return text


# the breaks that change the matrix text only: in these documents the
# matrix is the last key
MATRIX_BREAKS = [*TEXT_BREAKS, "leaf", *ZERO_BREAKS]


def head_refusal(doc):
    """The entrywise reader's refusal of ``doc``'s head, or None where its
    head is right: with no matrix, a document with a right head is refused
    for its matrix."""
    found = read(entrywise_state_from_jsonable, {**doc, "matrix": None})
    return None if found.startswith("InvalidStateError: matrix must be") else found


def loaded(reader, path):
    try:
        rho, metadata = reader(path)
    except InvalidStateError as exc:
        return f"InvalidStateError: {exc}"
    return rho.matrix.tobytes(), metadata


@pytest.fixture(scope="module")
def state_path(tmp_path_factory):
    return tmp_path_factory.mktemp("flat") / "state.json"


@settings(max_examples=400, deadline=None)
@given(doc=st.one_of(state_docs(), broken_state_docs()),
       layout=st.sampled_from(["compact", "indent", "spaced"]),
       kind=st.sampled_from(BREAKS), at=st.integers(0, 10**6), leaf=st.sampled_from(LEAVES),
       rng=st.randoms(use_true_random=False))
@example(doc=pure_qubit_doc(dims=[2] * 40), layout="compact", kind="none", at=0, leaf="1",
         rng=None)
@example(doc=pure_qubit_doc(dims=(65536, 65536)), layout="indent", kind="none", at=0, leaf="1",
         rng=None)
@example(doc=pure_qubit_doc(), layout="compact", kind="moved-past-close", at=1, leaf="1",
         rng=None)
@example(doc=pure_qubit_doc(), layout="compact", kind="moved-before-open", at=1, leaf="1",
         rng=None)
@example(doc=pure_qubit_doc(), layout="indent", kind="leaf", at=0, leaf="+1", rng=None)
@example(doc=pure_qubit_doc((True, 0)), layout="compact", kind="none", at=0, leaf="1", rng=None)
@example(doc=GHZ2_DOC, layout="indent", kind="zero-pair-dropped", at=0, leaf="1", rng=None)
@example(doc=GHZ2_DOC, layout="indent", kind="zero-stray", at=0, leaf="1", rng=None)
@example(doc=GHZ2_DOC, layout="indent", kind="zero-leaf", at=0, leaf="1", rng=None)
@example(doc=GHZ2_DOC, layout="indent", kind="zero-space", at=1, leaf="1", rng=None)
@example(doc={**pure_qubit_doc(), "dims": []}, layout="compact", kind="moved-past-close", at=1,
         leaf="1", rng=None)
@example(doc={**pure_qubit_doc(), "schema": "blochsep/2"}, layout="indent", kind="bom", at=0,
         leaf="1", rng=None)
def test_load_state_matches_the_whole_document_parse(state_path, doc, layout, kind, at, leaf,
                                                     rng):
    """Every state file, whole or broken as a document or in its text, in
    three layouts, loads to the matrix bits and metadata of the reader that
    parses the whole document, or is refused with its message: numbers
    moved out of their pairs, empty slots, trailing commas, whitespace
    inside a number, leaves json or the reader refuses, ints past the float
    range, a "matrix" key given twice or inside metadata, non-ASCII
    metadata and a byte order mark.  Rows of zero pairs, which the reader
    cuts unparsed where they are written exactly as a writer writes them,
    are broken by a space inside a 0.0, a -0.0, 0 or 0.00 in place of one
    0.0, a pair added or dropped, another indent, or the text a cut row
    leaves put in as a leaf or a row.  Two examples give dims whose T^2
    entries would not fit in memory beside a 2 x 2 matrix: they get the row
    count's message before anything of size T^2 is built.

    One case differs on purpose: the reader checks the head before anything
    in the matrix.  Where a break of the matrix text makes the reference
    refuse the text as JSON and the unbroken document's head is wrong, the
    expected refusal is that head's message.  A byte order mark, which
    breaks the text outside the matrix, keeps json's message."""
    state_path.write_text(break_text(state_file_text(doc, layout, rng), kind, at, leaf),
                          encoding="utf-8")
    want = loaded(reference_load_state, state_path)
    if kind in MATRIX_BREAKS and str(want).startswith(f"InvalidStateError: state file {state_path} "):
        want = head_refusal(doc) or want
    assert loaded(load_state, state_path) == want


# a file's bytes other than ASCII text with LF line ends, and a "matrix"
# put in before the matrix, as a string value and as the key of a decoy
# matrix in an earlier object, which the walk steps over
BYTE_KINDS = ["lf", "crlf", "cr", "bom", "non-ascii", "invalid-utf8", "truncated-utf8",
              "matrix-value", "matrix-nested"]


def file_bytes(text, kind, at, rows):
    """``text`` as the bytes of a file of ``kind``; ``at`` picks the place,
    and ``rows`` is the size of the decoy matrix, I/rows."""
    if kind in ("matrix-value", "matrix-nested"):
        decoy = [[[1 / rows if i == j else 0.0, 0.0] for j in range(rows)] for i in range(rows)]
        first = ('"note": "matrix"' if kind == "matrix-value"
                 else '"note": {"matrix": ' + json.dumps(decoy) + "}")
        text = text.replace("{", "{" + first + ", ", 1)
    elif kind == "non-ascii":
        end = text.rindex("}")
        text = text[:end] + ', "metadata": {"name": "\u00e9t\u00e9 \u6f22"}' + text[end:]
    data = text.encode("utf-8")
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "cr":
        return data.replace(b"\n", b"\r")
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind in ("invalid-utf8", "truncated-utf8"):
        k = at % (len(data) + 1)
        return data[:k] + (b"\xff" if kind == "invalid-utf8" else b"\xc3") + data[k:]
    return data


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(state_docs(), broken_state_docs()),
       layout=st.sampled_from(["compact", "indent", "spaced"]),
       kind=st.sampled_from(BYTE_KINDS), at=st.integers(0, 10**6),
       text_break=st.sampled_from(["none", "none", *TEXT_BREAKS]),
       rng=st.randoms(use_true_random=False))
@example(doc=GHZ2_DOC, layout="indent", kind="crlf", at=0, text_break="none", rng=None)
@example(doc=GHZ2_DOC, layout="indent", kind="cr", at=5, text_break="trailing-comma", rng=None)
@example(doc=GHZ2_DOC, layout="indent", kind="matrix-nested", at=0, text_break="none", rng=None)
@example(doc=pure_qubit_doc(), layout="compact", kind="truncated-utf8", at=10**6,
         text_break="none", rng=None)
def test_load_state_reads_bytes_as_text_mode_reads_text(state_path, doc, layout, kind, at,
                                                        text_break, rng):
    """A file's bytes load to what the text-mode reader, which walks the
    whole decoded text, gives, matrix bits, metadata and refusal messages
    alike, json's line and column included: ASCII with LF line ends, CRLF,
    lone CR, a byte order mark, non-ASCII metadata, invalid or truncated
    UTF-8 and a "matrix" before the matrix, each walked in its bytes; any
    of them with its matrix text broken, or whole."""
    text = break_text(state_file_text(doc, layout, rng), text_break, at, "1")
    rows = len(doc["matrix"]) if isinstance(doc.get("matrix"), list) and doc["matrix"] else 2
    state_path.write_bytes(file_bytes(text, kind, at, rows))
    assert loaded(load_state, state_path) == loaded(text_mode_load_state, state_path)


def test_load_state_refuses_a_path_that_is_no_path():
    """``open`` reads an int, a bool included, as a file descriptor and
    closes it; such a path is refused first, and fds 0-2 stay open."""
    for path in (True, 0, 1):
        with pytest.raises(InvalidStateError) as got:
            load_state(path)
        assert str(got.value) == f"a state file path must be a str or os.PathLike, got {path!r}"
    for fd in (0, 1, 2):
        os.fstat(fd)


def test_a_wrong_head_is_refused_by_the_flat_parse(tmp_path, monkeypatch):
    """GHZ-9 as the zoo writes it, with a wrong schema, kind or dims, is
    refused with the head's message, and the whole-document parse is never
    reached."""
    monkeypatch.setattr("blochsep.stateio.state_from_jsonable", unreachable)
    text = state_text(ZooSpec("ghz", parties=9).build(), "ghz", "zoo")
    path = tmp_path / "ghz9.json"
    for old, new, message in [
        ('"schema": "blochsep/1"', '"schema": "blochsep/2"',
         "unsupported schema 'blochsep/2' (this reader understands 'blochsep/1')"),
        ('"kind": "state"', '"kind": "analysis"', "document kind 'analysis' is not a state"),
        ('"dims": [', '"dims": [\n    1,',
         "every subsystem dimension must be at least 2, got (1, 2, 2, 2, 2, 2, 2, 2, 2, 2)"),
    ]:
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(InvalidStateError) as got:
            load_state(path)
        assert str(got.value) == message


def unreachable(doc):
    raise AssertionError("the whole-document parse was reached")


def test_the_walk_decodes_values_across_window_edges(tmp_path, monkeypatch):
    """A value is decoded from windows of the bytes after it until it ends
    strictly inside one: a metadata name longer than the first window, a
    number whose last digit is the window's last byte, and a name whose
    three-byte character the first window cuts all load by the flat parse,
    as json reads them."""
    monkeypatch.setattr("blochsep.stateio.state_from_jsonable", unreachable)
    text = state_text(ZooSpec("ghz", parties=3).build())
    end = text.rindex("}")
    path = tmp_path / "edges.json"
    for key, value in [("name", "x" * (3 * _WINDOW)), ("note", int("9" * _WINDOW)),
                       ("name", "x" * (_WINDOW - 3) + "漢 é")]:
        metadata = f', "metadata": {{"{key}": {json.dumps(value, ensure_ascii=False)}}}'
        path.write_text(text[:end] + metadata + text[end:], encoding="utf-8")
        assert load_state(path)[1] == {key: value}


@pytest.mark.parametrize("window", range(1, 24))
def test_the_walk_reads_what_json_reads_at_every_window_size(window, monkeypatch):
    """With first windows of 1 to 23 bytes, every value of a head is cut at
    every place: numbers end at a window's edge or are cut after their
    ``.`` or ``e``, and multi-byte characters are cut.  The walk still reads
    the values json reads, and the matrix's span."""
    monkeypatch.setattr("blochsep.stateio._WINDOW", window)
    head = {"schema": "blochsep/1", "x": 1.5, "y": 12345, "z": 2e-7, "w": -0.25, "v": [1.5, 2],
            "name": "été 漢", "dims": [2], "kind": "state", "t": True, "u": None}
    for text in (json.dumps(head)[:-1] + ', "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
                 json.dumps(head, indent=2, ensure_ascii=False)[:-2] + ',\n  "matrix": [[]]\n}'):
        data = text.encode("utf-8")
        fields, start, end = _fields(data)
        assert fields == head
        assert json.loads(data[start:end]) == json.loads(text)["matrix"]


class CountingDecoder:
    """json's decoder, counting the windows it decodes."""

    def __init__(self):
        self.windows = []

    def raw_decode(self, text):
        self.windows.append(len(text))
        return json.JSONDecoder().raw_decode(text)


@pytest.mark.parametrize("bad", ["nope", "[1, 2,, 3]", '"a\x01b"'])
def test_a_bad_head_value_is_decoded_from_one_window(bad, tmp_path, monkeypatch):
    """GHZ-6 as the zoo writes it, with a schema that json refuses far from
    the first window's end, takes one window for its key and one for the
    value: the error is the value's own, so the window does not widen to
    the end of the file.  The file is refused with json's message."""
    text = state_text(ZooSpec("ghz", parties=6).build())
    path = tmp_path / "ghz6.json"
    path.write_text(text.replace('"blochsep/1"', bad, 1), encoding="utf-8")
    decoder = CountingDecoder()
    monkeypatch.setattr("blochsep.stateio._DECODER", decoder)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(InvalidStateError) as got:
        load_state(path)
    assert str(got.value) == f"state file {path} is not valid JSON: {expected.value}"
    assert decoder.windows == [_WINDOW, _WINDOW]


# JSON values, NaN and the infinities included, which json writes as NaN,
# Infinity and -Infinity, its longest tokens other than strings and numbers
CUT_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(value=CUT_VALUES, indent=st.sampled_from([None, 2]),
       edit=st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(
           ["", "x", ",", "]", "}", '"', "\\", "\\u12", "-Infinit", "tru", "1e", ".", "\u00e9"])),
       tail=st.sampled_from([', "matrix": []}', "}", "   ", ""]))
@example(value=[1.5, -math.inf, "\u6f22"], indent=None, edit=None, tail="}")
@example(value={"a": [True, None]}, indent=2, edit=(12, "-Infinit"), tail="")
def test_a_value_cut_at_every_offset_reads_as_json_reads_it(value, indent, edit, tail):
    """A value, valid or with one character replaced by an edit, before the
    bytes that follow it in a head, read from first windows of every size
    from one byte to past its end: ``_value`` gives the value and end that
    json's ``raw_decode`` gives on the whole text, or refuses what it
    refuses.  A window widened only on the errors a cut can make reads as
    the whole does."""
    text = json.dumps(value, indent=indent, ensure_ascii=False)
    if edit is not None:
        at = edit[0] % (len(text) + 1)
        text = text[:at] + edit[1] + text[at + 1:]
    data = (text + tail).encode()
    try:
        want, k = json.JSONDecoder().raw_decode(data.decode())
        want = (want, len(data.decode()[:k].encode()))
    except ValueError:
        want = None
    with pytest.MonkeyPatch.context() as patch:
        for window in range(1, len(data) + 2):
            patch.setattr("blochsep.stateio._WINDOW", window)
            try:
                got = _value(data, 0)
            except ValueError:
                got = None
            assert repr(got) == repr(want), window


def test_every_byte_kind_takes_the_flat_parse(tmp_path, monkeypatch):
    """W-4 as the zoo writes it, with CRLF or lone-CR line ends, non-ASCII
    metadata or a "matrix" before its matrix, as a value, as the key of a
    nested decoy matrix or 10,000 times, loads by the walk and the flat
    parse to W-4's bits; the whole-document parse is never reached."""
    rho = ZooSpec("w", parties=4).build()
    text = state_text(rho, "w", "zoo")
    files = {kind: file_bytes(text, kind, 0, 2)
             for kind in ("crlf", "cr", "non-ascii", "matrix-value", "matrix-nested")}
    files["matrix-10000"] = text.replace(
        "{", '{"notes": ' + json.dumps(["matrix"] * 10_000) + ", ", 1).encode()
    monkeypatch.setattr("blochsep.stateio.state_from_jsonable", unreachable)
    path = tmp_path / "w4.json"
    for kind, data in files.items():
        path.write_bytes(data)
        got, metadata = load_state(path)
        assert got.matrix.tobytes() == rho.matrix.tobytes(), kind
        assert metadata == ({"name": "été 漢"} if kind == "non-ascii"
                            else {"name": "w", "source": "zoo"}), kind


def test_files_with_cr_line_ends_get_their_zero_rows_cut(tmp_path, monkeypatch):
    """CR and CRLF line ends read as LF, so every row of zero pairs of
    GHZ-4 is cut unparsed."""
    cuts = []

    def cut(*args):
        found = _cut_zero_rows(*args)
        cuts.append(found and found[1])
        return found

    monkeypatch.setattr("blochsep.stateio._cut_zero_rows", cut)
    text = state_text(ZooSpec("ghz", parties=4).build())
    path = tmp_path / "ghz4.json"
    for kind in ("crlf", "cr"):
        path.write_bytes(file_bytes(text, kind, 0, 2))
        load_state(path)
    assert cuts == [list(range(1, 15))] * 2


# copies of a 9-qubit zoo file, each made from its bytes or text
NINE_QUBIT_COPIES = {
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
    "non-ascii": lambda data: data.decode().replace(
        '"source": "zoo"', '"source": "zoo",\n    "note": "\u00e9t\u00e9 \u6f22"', 1).encode(),
    "decoy": lambda data: data.decode().replace("{", '{\n  "note": "matrix",', 1).encode(),
}


@pytest.fixture(scope="module")
def nine_qubit_files(tmp_path_factory):
    """GHZ-9 and W-9 as ``zoo -o`` writes them, and W-9's copies, by name."""
    folder = tmp_path_factory.mktemp("nine")
    for family in ("ghz", "w"):
        assert main(["zoo", family, "-N", "9", "-o", str(folder / f"{family}9.json")]) == 0
    data = (folder / "w9.json").read_bytes()
    for kind, copy in NINE_QUBIT_COPIES.items():
        (folder / f"w9-{kind}.json").write_bytes(copy(data))
    return {path.stem: str(path) for path in folder.iterdir()}


@pytest.mark.parametrize("name", ["ghz9", "w9", "w9-crlf"])
def test_t1_gives_the_full_set_record_of_c1(nine_qubit_files, name):
    """t1 contracts the full tensor against the generator rows only, and c1
    gathers it from the whole coefficient array, so the two records of the
    full set agree, the norm bit for bit."""
    path = nine_qubit_files[name]
    (t1,) = run_json(["analyze", path, "--criteria", "t1"])["records"]
    records = run_json(["analyze", path, "--criteria", "c1", "--subsets", "all"])["records"]
    full = [r for r in records if len(r["subset"]) == 9]
    assert full == [t1] and repr(full[0]["norm"]) == repr(t1["norm"])


@pytest.mark.parametrize("kind", NINE_QUBIT_COPIES)
def test_copies_of_a_9_qubit_file_give_its_report(nine_qubit_files, kind):
    """A file is read as text mode reads it, by one walk over its bytes, so
    W-9 with CRLF or lone-CR line ends, with a non-ASCII metadata note or
    with a "matrix" string before its matrix gives W-9's t1 report."""
    want, got = (run_json(["analyze", nine_qubit_files[name], "--criteria", "t1"])
                 for name in ("w9", f"w9-{kind}"))
    assert want["input"].pop("source") != got["input"].pop("source")
    assert got == want


@settings(max_examples=100, deadline=None)
@given(doc=state_docs())
@example(doc=GHZ2_DOC)
@example(doc=entrywise_state_to_jsonable(ZooSpec("w", parties=4).build()))
@example(doc=entrywise_state_to_jsonable(ZooSpec("ghz", parties=4).build()))
def test_rows_of_zero_pairs_are_cut_as_the_writer_writes_them(doc):
    """In the ``indent=2`` layout of ``state_text``, the reader cuts every
    row whose pairs are all [0.0, 0.0], each at its own place, and no other
    row, so such rows are never parsed."""
    data = state_file_text(doc, "indent", None).encode("ascii")
    _, start, end = _fields(data)
    found = _cut_zero_rows(data, start, end, len(doc["matrix"]))
    zero = [i for i, row in enumerate(doc["matrix"])
            if all(json.dumps(pair) == "[0.0, 0.0]" for pair in row)]
    assert (found[1] if found else []) == zero


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
    so a single-party stand-in, built unvalidated by
    ``DensityMatrix._built``, may carry entries no density matrix has;
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
        rho = DensityMatrix._built(dims, m)
    name, source = data.draw(NAMES, label="name"), data.draw(NAMES, label="source")
    assert state_text(rho, name, source) == json_dumps(entrywise_state_to_jsonable(rho, name, source))


@st.composite
def sparse_states(draw):
    """A stand-in state whose rows are each all +0.0 pairs, +0.0 pairs with at
    least one -0.0 leaf among them, the previous row's nonzero pattern with
    new values, or a random pattern: the rows ``state_text`` writes as their
    template, fills from a new template or fills from a reused one."""
    dims = draw(st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 3), (2, 2, 2)]), label="dims")
    total = math.prod(dims)
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))
    leaves = np.zeros((total, 2 * total))
    keep = np.zeros(total, dtype=bool)
    for row in leaves:
        kind = draw(st.sampled_from(["zero", "signed-zero", "repeat", "random"]))
        if kind == "signed-zero":
            row[:] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=2 * total,
                                   max_size=2 * total))
            row[draw(st.integers(0, 2 * total - 1))] = -0.0
        elif kind != "zero":
            if kind == "random":
                keep = np.array(draw(st.lists(st.booleans(), min_size=total, max_size=total)))
            for j in np.flatnonzero(keep):
                # a nonzero real part keeps the pattern
                row[2 * j] = draw(value.filter(bool))
                row[2 * j + 1] = draw(value)
    return DensityMatrix._built(dims, leaves.view(complex))


@settings(max_examples=150, deadline=None)
@given(rho=st.one_of(sparse_states(), st.sampled_from(
    [ZooSpec(family, parties=n) for family in ("ghz", "w") for n in (2, 3, 5)]
    + [ZooSpec("psi-234")]).map(ZooSpec.build)))
@example(rho=DensityMatrix._built((2,), np.array([[0.0, 0.0], [-0.0, complex(0.0, -0.0)]])))
@example(rho=DensityMatrix._built((3,), np.array(
    [[0.5, 0.0, 0.25j], [0.25, 0.0, 0.5j], [0.0, 0.0, 0.0]])))
def test_sparse_state_documents_are_written_as_json_writes_them(rho):
    """``state_text`` of zoo states, of all-zero rows beside rows of signed
    zeros, and of rows that repeat the previous row's nonzero pattern gives
    the bytes of ``json.dumps(indent=2)`` of the entrywise document."""
    assert state_text(rho, "sparse") == json_dumps(entrywise_state_to_jsonable(rho, "sparse"))


@settings(max_examples=300, deadline=None)
@given(doc=broken_state_docs())
@example(doc=pure_qubit_doc((0.5, math.inf)))
@example(doc=pure_qubit_doc((0.5, False)))
@example(doc=pure_qubit_doc((0.5, np.float64(0.25))))
@example(doc=pure_qubit_doc((0.5,)))
@example(doc={"schema": "blochsep/1", "kind": "state", "dims": [4], "matrix": [
    [[0.25, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]],
    [[-0.0, -0.0], [0.25, 0.0], [0.0, 0.0], [-0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.25, -0.0], [0.0, -0.0]],
    [[-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0], [0.25, 0.0]]]})
@example(doc={"schema": "blochsep/1", "kind": "state", "dims": [3], "matrix": [
    [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]})
def test_state_documents_are_refused_or_written_back_as_json_writes_them(doc):
    """A document with non-finite values, leaves that are not floats, ragged
    rows or odd pairs is refused by the reader; any document it accepts is
    written back as ``json.dumps(indent=2)`` writes the entrywise document
    of the state read.  The examples put pairs with a -0.0 leaf beside
    +0.0 pairs, in a row with no +0.0 pair and in rows with some, and one
    row of +0.0 pairs only."""
    try:
        rho = state_from_jsonable(doc)
    except InvalidStateError:
        return
    assert state_text(rho) == json_dumps(entrywise_state_to_jsonable(rho))


# every scalar json writes, subclasses included: a ``str`` enum and
# ``np.float64``, control, non-ASCII and astral characters, ``%`` signs,
# and ints past 2**64
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=6),
    st.sampled_from([Decision.ENTANGLED, np.float64(0.1), np.float64(-0.0), "%", "%s", "%(x)s",
                     "100%", "\x00\x1f\x7f\n", "\u00e9\U0001f600", 'quote " and back\\slash']),
)
# keys json converts (ints, floats, bools, None, a str enum) beside str keys
# that are easy to get wrong in a template or in a search for a key's line
KEYS = st.one_of(st.text(max_size=6), st.sampled_from(
    ["%", "%s", "%%d", "\n", "\u6f22", '"', "\\", "records", '\n  "records": []']))
ANY_KEYS = st.one_of(KEYS, st.integers(), st.booleans(), st.none(),
                     st.floats(allow_nan=False, allow_infinity=False), st.just(Decision.SEPARABLE))


def equal_length_lists(children):
    """Lists of lists of one length, empty ones included, as lists or as
    tuples, some with one ragged member."""
    rows = st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(children, min_size=n, max_size=n), min_size=1, max_size=4))
    rows = st.one_of(rows, st.tuples(rows, st.lists(children, max_size=4)).map(
        lambda pair: pair[0] + [pair[1]]))
    return st.one_of(rows, rows.map(lambda r: tuple(map(tuple, r))))


def ragged_int_lists():
    """Lists of non-empty int lists of unequal lengths, as lists or as
    tuples, such as a report's subsets, and the near misses: a bool among
    the ints, an empty inner list."""
    ints = st.lists(st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=4),
                    min_size=2, max_size=5)
    near = st.lists(st.lists(st.one_of(st.integers(0, 9), st.booleans()), max_size=4),
                    min_size=2, max_size=5)
    return st.one_of(ints, ints.map(lambda r: tuple(map(tuple, r))), near)


def json_values(keys=ANY_KEYS):
    """Arbitrary JSON values, tuples, empty containers and lists of
    equal-length lists included."""
    return st.recursive(JSON_SCALARS, lambda children: st.one_of(
        st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5), equal_length_lists(children)),
        max_leaves=25)


@st.composite
def report_docs(draw):
    """A document shaped like a report: records with one tuple of keys,
    each key's values of one kind, such as ``subset`` tuples, norms and
    flags, or of mixed kinds, beside top-level scalars and objects."""
    columns = st.sampled_from([
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS),
        st.integers(), st.booleans(), st.none(), st.text(max_size=4), JSON_SCALARS,
        st.lists(st.integers(0, 9), max_size=4).map(tuple),
        st.lists(st.lists(st.floats(-1, 1), max_size=3), max_size=3), json_values(KEYS),
        # a decompose term's factors: one vector per mode, nested two deep
        st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3), min_size=2, max_size=2),
        equal_length_lists(JSON_SCALARS), ragged_int_lists(),
    ])
    keys = draw(st.lists(KEYS, max_size=6, unique=True), label="keys")
    kinds = [draw(columns) for _ in keys]
    records = [dict(zip(keys, (draw(kind) for kind in kinds)))
               for _ in range(draw(st.integers(0, 5), label="records"))]
    if records and draw(st.booleans(), label="odd record"):
        records.insert(draw(st.integers(0, len(records))), draw(st.dictionaries(KEYS, JSON_SCALARS)))
    doc = {"schema": "blochsep/1", "dims": draw(st.lists(st.integers(2, 4), max_size=3).map(tuple)),
           "records": records}
    doc.update(draw(st.dictionaries(KEYS, json_values(KEYS), max_size=3), label="others"))
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(json_values(), report_docs(), ragged_int_lists()), mask=st.integers(0, 255))
@example(doc=[1.7976931348623157e308, 1.7976931348623157e308], mask=0)
@example(doc={"records": [{"subset": (0, 1), "norm": 1.5, "decision": Decision.ENTANGLED,
                           "borderline": False}] * 2, "empty": [{}, {}, [], ()]}, mask=1)
@example(doc={"schema": "blochsep/1", "kind": "decomposition", "dims": [2, 2],
              "identity_weight": 0.5, "term_count": 2, "terms": [
                  {"weight": 0.25, "factors": [[0.0, 0.0, 1.0], [-0.0, 0.5, -1.0]]},
                  {"weight": 0.25, "factors": [[0.0, 0.0, -1.0], [0.0, -0.5, 1.0]]}],
              "nested": ((("%s", "100%"), ("%(x)s", "%%")), (("a", "b"), ("c", "d"))),
              "ragged": [[], [], [1, 2]]}, mask=255)
@example(doc={"records": [{"subset": (0, 1), "norm": 1.5}, {"subset": (0, 1, 2), "norm": 2.5}],
              "lists": [[3], [-1, 10**20], [0, 1, 2]], "tuples": ((1,), (2, 3))}, mask=5)
@example(doc={"bools": [[True, 1], [2, 3, 4]], "bool-alone": [[1, 2], [False]],
              "empty": [[1], [], [2, 3]], "floats": [[1, 2.0], [3]], "nested": [[[1]], [2, 3]],
              "mixed-kinds": [(1,), [2, 3]]}, mask=255)
@example(doc={"records": [{"subset": (0, 1), "norm": 1.5, "borderline": False},
                          {"subset": (0, 1, 2), "norm": -0.0, "borderline": True}]}, mask=0)
@example(doc=[[[1.0, 2.0], [3.0, -0.0]]], mask=255)
@example(doc={'x "records": []': '\n  "records": []', "inner": {"records": []},
              '\n  "records": [': [], "%": [1], '"': ["records"], "\u6f22": [[]],
              "records": [{"records": []}, '"records": []']}, mask=255)
def test_reports_are_written_as_json_writes_them(doc, mask):
    """``dump_json`` gives the bytes of ``json.dumps(indent=2,
    allow_nan=False)``, down to the depth of every line, to floats as
    ``repr`` writes them and to bools that are not ints.  The top-level
    lists under ``str`` keys that the bits of ``mask`` pick go in as
    sections, as the writers' callers give theirs: emptied in the document,
    each item rendered as ``json`` writes it there.  So the search for a
    section's key line meets keys with ``%``, line breaks, quotes and
    non-ASCII, and ``"records": []`` inside strings and at depth, as in the
    last example.  The first example is a run of finite floats whose sum
    overflows, the third is shaped like a decompose report, whose terms'
    factors are lists of equal-length lists, the fourth holds lists of int
    lists of unequal lengths, such as an analyze report's subsets, and the
    fifth near misses of those: a bool among the ints, an empty list, a
    float, a nested list, a list beside a tuple.  The sixth and seventh
    each hold one list alone, as the one value of an object and of a
    list."""
    frame, sections = doc, {}
    if isinstance(doc, dict):
        # a key that json writes as the text of a str key makes two lines
        # alike, which no report holds
        assume(len(json.loads(json_dumps(doc))) == len(doc))
        lists = [k for k, v in doc.items() if type(k) is str and isinstance(v, (list, tuple))]
        picked = [k for i, k in enumerate(lists) if mask >> i & 1]
        frame = {k: [] if k in picked else v for k, v in doc.items()}
        sections = {k: [_json(item, "\n    ") for item in doc[k]] for k in picked}
    assert dump_json(frame, sections) == json_dumps(doc)


NON_FINITE = [math.nan, math.inf, -math.inf, np.float64("-inf")]


@settings(max_examples=100, deadline=None)
@given(doc=json_values(), bad=st.sampled_from(NON_FINITE))
def test_reports_with_non_finite_floats_are_refused_as_json_refuses_them(doc, bad):
    """NaN and infinities raise json's ``ValueError``, alone, in a run of
    floats, in a record column, as a key and as a leaf of a list of
    equal-length lists."""
    for where in (bad, [doc, bad], [1.0, bad, 2.0], {"x": (doc, bad)}, {bad: doc},
                  {"records": [{"norm": 1.0}, {"norm": bad}]}, [[1.0, 2.0], [3.0, bad]],
                  {"terms": [{"factors": [[0.0, 1.0], [0.5, 0.5]]},
                             {"factors": [[0.0, 1.0], [bad, 0.5]]}]}):
        with pytest.raises(ValueError) as expected:
            json_dumps(where)
        with pytest.raises(ValueError) as got:
            dump_json(where)
        assert str(got.value) == str(expected.value)


def test_reports_with_a_cycle_are_refused_as_json_refuses_them():
    cycle = {"records": []}
    cycle["records"].append(cycle)
    with pytest.raises(ValueError, match="^Circular reference detected$"):
        dump_json(cycle)


# a metadata name and a file name that hold a top-level key line's text,
# a quote and non-ASCII text
ODD_NAME = 'a\n  "records": [] and "terms": [] \u00e9t\u00e9 \u6f22'
ODD_FILE = 'odd "records": [] \u00e9.json'


@st.composite
def report_states(draw):
    """Qubit and qudit states on N = 2..6 subsystems of 2 or 3 levels, 64
    levels in all at most: Wishart draws of rank 1, 2 or full."""
    dims = draw(st.lists(st.sampled_from([2, 3]), min_size=2, max_size=6).filter(
        lambda dims: math.prod(dims) <= 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_density(rng, tuple(dims), rank=draw(st.sampled_from([1, 2, None])))


@settings(max_examples=40, deadline=None)
@given(rho=report_states(), criteria=st.sampled_from(["t1", "c1", "c2", "p2", "all"]),
       subsets=st.sampled_from(["full", "all", "pairs", "k=2", "k=3", "k=4", "k=5", "k=6"]),
       timing=st.booleans(), name=st.sampled_from([None, "ghz", ODD_NAME]),
       file=st.sampled_from(["state.json", ODD_FILE]))
@example(rho=ZooSpec("ghz", parties=3).build(), criteria="c2", subsets="full", timing=False,
         name=None, file="state.json")
@example(rho=ZooSpec("ghz", parties=3).build(), criteria="p2", subsets="full", timing=False,
         name=None, file="state.json")
@example(rho=ZooSpec("w", parties=4).build(), criteria="t1", subsets="full", timing=False,
         name=None, file="state.json")
@example(rho=ZooSpec("w", parties=5).build(), criteria="all", subsets="all", timing=True,
         name=None, file="state.json")
@example(rho=ZooSpec("smolin").build(), criteria="all", subsets="all", timing=False,
         name=ODD_NAME, file=ODD_FILE)
@example(rho=random_density(np.random.default_rng(6), (2,) * 6), criteria="c1", subsets="k=3",
         timing=False, name=None, file="state.json")
def test_analyze_reports_are_the_dicts_json_writes(rho, criteria, subsets, timing, name, file,
                                                   tmp_path_factory):
    """An analyze report is, byte for byte, the report built as dicts from
    the public API and written by ``json.dumps(indent=2)``, under every
    selector and criteria key: with no records (c2 or p2 alone), with t1's
    one, with ``--timing``, whose values are taken from the report, and
    from a file whose path and name hold ``"records": []``.  A selector
    that the state has no subsets of is refused with subset_scan's
    message."""
    path = str(tmp_path_factory.mktemp("analyze") / file)
    save_state(rho, path, name=name)
    if criteria not in ("c1", "all"):
        subsets = "full"
    argv = ["analyze", path, "--criteria", criteria, "--subsets", subsets]
    code, out, err = run(argv + ["--timing"] * timing)
    try:
        want = reference_analysis(path, criteria, subsets,
                                  json.loads(out)["timing"] if timing and code == 0 else None)
    except ValueError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
    else:
        assert (code, err) == (0, "")
        assert out == want


@st.composite
def decomposable_states(draw):
    """States the sufficient criterion often applies to: diagonal qubit
    states on N = 2..6, whose weights sum to at most 1 in magnitude, white
    noise mixed with a random pure product state on N = 1..4 subsystems of
    2, 3 or 4 levels, and qutrit and ququart pairs whose correlation tensor
    has low rank (:func:`low_rank_pair`)."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["diagonal", "product", "low-rank"]))
    if kind == "low-rank":
        dims = draw(st.sampled_from([(3, 3), (4, 4), (3, 4)]))
        return low_rank_pair(seed, dims, draw(st.integers(1, 8)), draw(st.floats(0.01, 0.08)))
    if kind == "diagonal":
        weights = rng.uniform(-1, 1, 3)
        return diagonal_qubit_state(draw(st.integers(2, 6)),
                                    weights * draw(st.floats(0, 1)) / np.abs(weights).sum())
    dims = tuple(draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4).filter(
        lambda dims: math.prod(dims) <= 48)))
    return noisy(DensityMatrix(dims, random_pure_product(rng, dims)), draw(st.floats(0, 1)))


def noisy_product(dims, p):
    return noisy(DensityMatrix(dims, projector(basis_ket(range(len(dims)), dims))), p)


@settings(max_examples=40, deadline=None)
@given(rho=decomposable_states(), name=st.sampled_from([None, ODD_NAME]),
       file=st.sampled_from(["state.json", ODD_FILE]))
@example(rho=maximally_mixed((2, 2)), name=None, file="state.json")
@example(rho=maximally_mixed((2, 3, 4)), name=ODD_NAME, file=ODD_FILE)
@example(rho=noisy_product((2, 3, 4), 0.05), name=None, file="state.json")
@example(rho=noisy_product((3, 3), 0.2), name=None, file="state.json")
@example(rho=noisy_product((3, 3, 3), 0.05), name=None, file="state.json")
@example(rho=ZooSpec("werner", noise=0.3).build(), name=None, file="state.json")
@example(rho=low_rank_pair(1, (3, 3), 5, 0.05), name=None, file="state.json")
@example(rho=low_rank_pair(0, (4, 4), 6, 0.05), name=None, file="state.json")
@example(rho=low_rank_pair(0, (3, 4), 5, 0.05), name=None, file="state.json")
@example(rho=diagonal_qubit_state(6, (0.3, -0.3, 0.3)), name=None, file="state.json")
def test_decompose_reports_are_the_dicts_json_writes(rho, name, file, tmp_path_factory):
    """A decompose report is, byte for byte, the report built as dicts from
    ``separable_decomposition`` and written by ``json.dumps(indent=2)``, or
    the same refusal: rank 0 on the maximally mixed states, terms on
    (2, 3, 4) and on qutrits, Werner's factors, which hold -0.0, qutrit and
    ququart pairs whose SVD keeps 5 or 6 of a row's 8 or 15 weights, where
    the kept weights' sum is not the sum of the row with zeros in place of
    the others, and a 6-qubit diagonal state, whose 96 terms are rendered
    each distinct float once."""
    path = str(tmp_path_factory.mktemp("decompose") / file)
    save_state(rho, path, name=name)
    assert run(["decompose", path]) == reference_decomposition(path)


def test_a_nan_norm_is_refused_as_json_refuses_it(monkeypatch):
    """A record's norm that is not finite is refused with json's message
    and exit 2, not written as NaN."""
    monkeypatch.setattr(blochsep.criteria, "_kyfan_norms",
                        lambda groups: [math.nan] * sum(len(p) for p, _ in groups))
    with pytest.raises(ValueError) as expected:
        json_dumps([math.nan])
    for criteria in ("t1", "c1", "all"):
        assert run(["analyze", "zoo:ghz", "-N", "3", "--criteria", criteria]) == (
            2, "", f"error: {expected.value}\n")


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


@pytest.mark.parametrize("doc, message", [
    ([], "state document must be a JSON object"),
    ({"schema": "blochsep/1", "kind": "analysis"}, "document kind 'analysis' is not a state"),
], ids=["not-an-object", "not-a-state"])
def test_documents_that_are_not_states_are_refused(doc, message):
    with pytest.raises(InvalidStateError) as got:
        state_from_jsonable(doc)
    assert str(got.value) == message


def test_a_state_whose_generator_stacks_do_not_fit_is_refused_in_one_line(monkeypatch):
    # two 4,096-byte pages hold the 10 x 10 state on dims (5, 2), 7,200
    # bytes, but not the 40,000 bytes of the d = 5 generator stacks
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2}
    limit_memory(monkeypatch, sizes.__getitem__)
    blochsep.bloch._stack.cache_clear()
    code, out, err = run(["analyze", "zoo:mixed", "--dims", "5,2", "--criteria", "t1"])
    assert (code, out) == (2, "")
    assert err == ("error: the generator stacks of a subsystem of dimension 5 need about "
                   "3.73e-05 GiB of working memory, more than the 7.63e-06 GiB of physical "
                   "memory\n")


def test_a_state_beyond_the_address_space_limit_is_refused_in_one_line():
    """Under a 1.5 GB soft RLIMIT_AS, set in the child alone, GHZ-13's
    4.5 GiB of working memory is refused before anything is allocated; the
    parent's limits are left as they were."""
    import resource

    cap = 1_500_000 * 1024
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    proc = subprocess.run(
        [sys.executable, "-m", "blochsep", "analyze", "zoo:ghz", "-N", "13"],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: a state of dimension 8.19e+03 needs about 4.5 GiB of "
                                  "working memory, more than the ")


ALLOCATION = ("Unable to allocate 1.00 GiB for an array with shape (8192, 8192) and data "
              "type complex128")


@pytest.mark.parametrize("message, line", [(ALLOCATION, ALLOCATION), ("", "out of memory")],
                         ids=["numpy", "bare"])
def test_a_memory_error_is_one_line(monkeypatch, message, line):
    """An allocation that the memory check lets through and that still
    fails exits 2 with one line, not a traceback."""
    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr(blochsep.cli, "separable_decomposition", allocate)
    assert run(["decompose", "zoo:werner", "-p", "0.3"]) == (2, "", f"error: {line}\n")


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
                f"error: cannot write {str(target)!r}: No such file or directory")
    if case == "output-onto-directory":
        target = tmp_path / "out"
        target.mkdir()
        return (["analyze", "zoo:werner", "-p", "0.5", "-o", str(target)],
                f"error: cannot write {str(target)!r}: Is a directory")
    if case == "nested-past-the-recursion-limit":
        state.write_text("[" * 200000 + "]" * 200000)
        return ["analyze", str(state)], f"error: state file {state} is nested too deeply to parse"
    if case == "empty-output-path":
        return (["analyze", "zoo:ghz", "-N", "3", "-o", ""],
                "error: cannot write '': No such file or directory")
    if case == "integer-past-the-digit-limit":
        # json refuses it with a plain ValueError, not a JSONDecodeError
        digits = sys.get_int_max_str_digits() + 1
        state.write_text('{"schema": "blochsep/1", "dims": [' + "1" * digits + "]}")
        return (["analyze", str(state)],
                f"error: state file {state} cannot be read: Exceeds the limit")
    state.write_bytes(b'{"schema": "blochsep/1\xff"}')
    return ["analyze", str(state)], f"error: state file {state} is not UTF-8: "


@pytest.mark.parametrize("case", [
    "output-in-missing-directory", "output-onto-directory", "nested-past-the-recursion-limit",
    "not-utf-8", "empty-output-path",
    pytest.param("integer-past-the-digit-limit", marks=pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter sets no limit on integer digits")),
])
def test_io_failures_exit_2_in_one_line(tmp_path, monkeypatch, case):
    # from tmp_path, so that a temporary file left beside a relative path shows
    monkeypatch.chdir(tmp_path)
    argv, message = io_failure(tmp_path, case)
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)
    assert not list(tmp_path.rglob("*.tmp*"))


def state_file(tmp_path, case):
    """A state file that ``load_state`` reads, or fails to read in one way;
    the "missing" one is never written."""
    path = tmp_path / f"{case}.json"
    if case == "valid":
        save_state(ZooSpec("w", parties=3).build(), path)
    elif case == "bad-json":
        path.write_text("{not json")
    elif case == "not-utf-8":
        path.write_bytes(b'{"schema": "blochsep/1\xff"}')
    elif case == "nested-too-deeply":
        path.write_text("[" * 200000 + "]" * 200000)
    elif case == "not-psd":
        path.write_text(json.dumps({**pure_qubit_doc(), "matrix": diagonal([1.5, -0.5])}))
    return path


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("case", ["valid", "missing", "bad-json", "not-utf-8",
                                  "nested-too-deeply", "not-psd"])
def test_load_state_leaves_the_collector_as_it_found_it(tmp_path, case, enabled):
    # every path through load_state, the flat parse, the whole-document parse
    # and each refusal, leaves the cyclic collector on or off as it found it
    path = state_file(tmp_path, case)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "valid":
            load_state(path)
        else:
            with pytest.raises(InvalidStateError):
                load_state(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# stands for a real state file in argvs: a GHZ-3 state written once per session
STATE_FILE = "<state file>"


@pytest.fixture(scope="session")
def ghz3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("states") / "g3.json"
    save_state(ZooSpec("ghz", parties=3).build(), path, name="ghz")
    return str(path)


def with_state_file(words, path):
    return [word.replace(STATE_FILE, path) for word in words]


ZOO_ONLY = "applies only to zoo: states, not to the state file " + STATE_FILE
KNOWN = ", ".join(zoo_families())


# a usage error of each kind, by id: the argv, and what its one line names
USAGE_ERRORS = {
    "zoo-unknown-family": (["zoo", "nope"], "'nope'"),
    "analyze-bad-int": (["analyze", "zoo:ghz", "-N", "x"], "-N/--parties"),
    "analyze-unknown-flag": (["analyze", "--no-such-flag"],
                             "unrecognized arguments: --no-such-flag"),
    "no-command": ([], "required: command"),
    "decompose-unknown-flag": (["decompose", "--bogus"], "unrecognized arguments: --bogus"),
    "unknown-flag-with-state": (["analyze", "zoo:werner", "-p", "0.3", "--bogus"],
                                "unrecognized arguments: --bogus"),
    "missing-state": (["decompose", "-p", "0.3"],
                      "the following arguments are required: state"),
    "table-max-parties-2": (["threshold-table", "--max-parties", "2"],
                            "max_parties must be at least 3"),
    "table-max-parties-1": (["threshold-table", "--max-parties", "1"],
                            "max_parties must be at least 3"),
    "table-max-parties-negative": (["threshold-table", "--max-parties", "-1"],
                                   "max_parties must be at least 3"),
    "mixed-negative-dimension": (["zoo", "mixed", "--dims", "2,-1"],
                                 "every subsystem dimension must be at least 2, got (2, -1)"),
    "mixed-negative-dimension-alone": (["zoo", "mixed", "--dims", "-2"],
                                       "every subsystem dimension must be at least 2, got (-2,)"),
    "file-with-parties": (["analyze", STATE_FILE, "-N", "5"], "--parties " + ZOO_ONLY),
    "file-with-levels": (["analyze", STATE_FILE, "-d", "3"], "--levels " + ZOO_ONLY),
    "file-with-noise": (["analyze", STATE_FILE, "-p", "0.3"], "--noise " + ZOO_ONLY),
    "file-with-removed": (["analyze", STATE_FILE, "-n", "1"], "--removed " + ZOO_ONLY),
    "decompose-file-with-dims": (["decompose", STATE_FILE, "--dims", "2,2"],
                                 "--dims " + ZOO_ONLY),
    "csv-with-timing": (["analyze", "zoo:ghz", "-N", "3", "--format", "csv", "--timing"],
                        "--format csv writes only norm records, not --timing"),
    "reduced-w-one-party": (["analyze", "zoo:reduced-w-noisy", "-N", "1", "-n", "1",
                             "-p", "0.5"], "reduced-w-noisy needs at least 2 parties"),
    "zoo-empty-dims": (["zoo", "mixed", "--dims="], "cannot parse --dims ''"),
    "analyze-zoo-empty-dims": (["analyze", "zoo:ghz", "-N", "3", "--dims="],
                               "cannot parse --dims ''"),
    "threshold-unknown-family": (["threshold", "nope"],
                                 f"unknown state family 'nope' (known: {KNOWN})"),
    "threshold-zoo-unknown-family": (["threshold", "zoo:nope"],
                                     f"unknown state family 'nope' (known: {KNOWN})"),
    "analyze-subset-size-1": (["analyze", "zoo:ghz", "-N", "3", "--criteria", "c1",
                               "--subsets", "k=1"], "subset size must lie in [2, 3], got 1"),
    # 2^100000 overflows a float, and the estimate is still named
    "analyze-dimension-beyond-float": (["analyze", "zoo:ghz", "-N", "100000"],
                                       "a state of dimension 9.99e+30102 needs about "
                                       "6.69e+60198 GiB of working memory, more than the "),
}


@pytest.mark.parametrize("argv, named", list(USAGE_ERRORS.values()),
                         ids=list(USAGE_ERRORS))
def test_usage_errors_take_one_line(ghz3_file, argv, named):
    # the message names the argument at fault, and a missing state only
    # when nothing else is wrong
    code, out, err = run(with_state_file(argv, ghz3_file))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert named.replace(STATE_FILE, ghz3_file) in err


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


# the flags each subcommand takes; the fuzz draws each one or leaves it out,
# and may add one flag the subcommand does not take
ZOO_FLAGS = ("-N", "-d", "-p", "-n", "--dims")
COMMAND_FLAGS = {
    "analyze": ZOO_FLAGS + ("--subsets", "--criteria", "--format", "--timing"),
    "threshold": ZOO_FLAGS + ("--criterion",),
    "threshold-table": ("--max-parties", "--format"),
    "decompose": ZOO_FLAGS,
    "zoo": ZOO_FLAGS,
}
FLAG_VALUES = {
    "-N": st.integers(-2, 6),
    "-d": st.integers(-1, 4),
    "-p": st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 1.5])),
    "-n": st.integers(-2, 6),
    "--dims": st.lists(st.integers(-2, 4), max_size=4).map(lambda ds: ",".join(map(str, ds))),
    "--subsets": st.sampled_from(["full", "full", "all", "pairs", "k=2", "k=3", "k=0", "k=x"]),
    "--criteria": st.sampled_from(["t1", "c1", "c2", "p2", "all", "t2"]),
    "--criterion": st.sampled_from(["t1", "c1", "c2", "p2", "all"]),
    "--format": st.sampled_from(["json", "json", "csv", "csv", "xml"]),
    "--timing": st.none(),
    "--max-parties": st.integers(-2, 6),
}
# none of these names a file; STATE_FILE names one
JUNK_WORDS = ["nope", "zoo:", "zoo:nope", "-", "-x", "--"]
PARAMETER_FLAGS = {"parties": "-N", "levels": "-d", "removed": "-n", "dims": "--dims"}


def family_flags(command, family):
    """The zoo flags that ``family`` reads under ``command``; a threshold
    sweeps the noise weight, so it reads no ``-p``."""
    if family not in _FAMILIES:
        return ()
    reads, noise_family, _ = _FAMILIES[family]
    flags = [PARAMETER_FLAGS[name] for name in reads]
    if noise_family and command != "threshold":
        flags.append("-p")
    return flags


@st.composite
def cli_argvs(draw):
    """An argv of a subcommand or a junk word, a zoo family, a junk word or
    the state file, and flags with small values, on states of dimension at
    most 256.  A zoo flag the family reads is more often drawn than one it
    does not, so that many argvs get past the family's parameter check."""
    command = draw(st.sampled_from([*COMMAND_FLAGS, "nope"]))
    argv = [command]
    family = draw(st.sampled_from([*zoo_families(), *JUNK_WORDS, STATE_FILE]))
    if command in ("analyze", "decompose"):
        argv.append(f"zoo:{family}" if family in zoo_families() else family)
    elif command != "threshold-table":
        argv.append(family)
    wanted = family_flags(command, family)
    odds = {True: [True, True, True, False], False: [True, False, False, False]}
    flags = [flag for flag in COMMAND_FLAGS.get(command, ())
             if draw(st.sampled_from(odds[flag in wanted or flag not in ZOO_FLAGS]))]
    if draw(st.sampled_from(odds[False])):
        flags.append(draw(st.sampled_from(list(FLAG_VALUES))))
    values = {flag: draw(FLAG_VALUES[flag]) for flag in flags}
    levels = values.get("-d", 3 if family == "qutrit-ghz-noisy" else 2)
    assume(max(levels, 1) ** max(values.get("-N", 0), 0) <= 256)
    for flag, value in values.items():
        if value is None:
            argv.append(flag)
        elif flag == "--dims":
            # one token, so that a leading negative entry is not read as a flag
            argv.append(f"--dims={value}")
        else:
            argv += [flag, str(value)]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
def test_any_argv_exits_with_a_known_code_and_one_line(ghz3_file, argv):
    code, out, err = run(with_state_file(argv, ghz3_file))
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code:
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [["analyze", "zoo:ghz"], ["decompose", "zoo:ghz"],
                                  ["threshold", "ghz-noisy"], ["zoo", "ghz"]],
                         ids=["analyze", "decompose", "threshold", "zoo"])
def test_every_zoo_parameter_has_a_flag(argv):
    # the CLI sets each ZooSpec parameter from the flag of the same name,
    # which is unset unless given
    names = [f.name for f in dataclasses.fields(ZooSpec)[1:]]
    parsed = vars(blochsep.cli.build_parser().parse_args(argv))
    assert {name: parsed.get(name, "no flag") for name in names} == dict.fromkeys(names)


def test_help_still_exits_0():
    code, out, err = run(["--help"])
    assert code == 0 and err == ""
    assert "usage: blochsep" in out


# every subcommand and its --help, each usage error, and a failing parse
# right before a good one of the same subcommand, so that state one parse
# left on a shared parser would change the next answer
PARSER_SEQUENCE = [
    ["--help"],
    *([command, "--help"] for command in COMMAND_FLAGS),
    ["analyze", "zoo:ghz", "-N", "x"],
    ["analyze", "zoo:ghz", "-N", "3"],
    ["analyze", "zoo:werner", "-p", "0.3", "--bogus"],
    ["analyze", "zoo:werner", "-p", "0.3", "--criteria", "c1", "--format", "csv"],
    ["analyze", "--criteria", "t2"],
    ["analyze", STATE_FILE, "--criteria", "t1"],
    ["threshold", "ghz-noisy", "-N", "3", "--criterion", "t2"],
    ["threshold", "ghz-noisy", "-N", "3", "--criterion", "p2"],
    ["threshold", "werner"],
    ["threshold-table", "--max-parties", "x"],
    ["threshold-table", "--max-parties", "4", "--format", "csv"],
    ["decompose", "-p", "0.3"],
    ["decompose", "zoo:werner", "-p", "0.3"],
    ["zoo", "nope"],
    ["zoo", "ghz", "-N", "2"],
    *(argv for argv, _ in USAGE_ERRORS.values()),
    ["analyze", "zoo:smolin"],
]


def answers(argvs, path):
    """Exit code, stdout and stderr of each argv, with --timing's seconds masked."""
    got = []
    for argv in argvs:
        code, out, err = run(with_state_file(argv, path))
        got.append((code, re.sub(r'(_seconds": )[-+.e0-9]+', r"\1<masked>", out), err))
    return got


@settings(max_examples=40, deadline=None)
@given(argvs=st.lists(cli_argvs(), min_size=1, max_size=6))
@example(argvs=PARSER_SEQUENCE)
def test_a_shared_parser_answers_like_a_fresh_one(ghz3_file, argvs):
    shared = answers(argvs, ghz3_file)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blochsep.cli, "build_parser", blochsep.cli.build_parser.__wrapped__)
        fresh = answers(argvs, ghz3_file)
    for argv, got, want in zip(argvs, shared, fresh):
        assert got == want, argv


def test_the_parser_is_built_once(monkeypatch):
    # importing the module builds nothing; the first main call builds the
    # top-level parser and one per subcommand, and later calls reuse them
    probe = "import blochsep.cli as c; print(c.build_parser.cache_info().currsize)"
    assert subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True).stdout == "0\n"
    built = []
    init = blochsep.cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(blochsep.cli._Parser, "__init__", counting_init)
    blochsep.cli.build_parser.cache_clear()
    argvs = [["threshold", "werner"], ["zoo", "nope"], ["analyze", "zoo:ghz", "-N", "3"],
             ["threshold-table", "--max-parties", "3"]]
    for i in range(20):
        run(argvs[i % len(argvs)])
    assert len(built) == 1 + len(COMMAND_FLAGS), built


def test_numeric_integrity_exits_4(monkeypatch):
    def explode(*args, **kwargs):
        raise NumericIntegrityError("imaginary residue out of range")

    monkeypatch.setattr("blochsep.criteria.subset_scan", explode)
    code, _, err = run(["analyze", "zoo:werner", "-p", "0.5"])
    assert code == 4
    assert "imaginary residue" in err


@pytest.mark.parametrize("tol", ["-2", "nan", "inf", "0"])
def test_analyze_rejects_bad_guard(tol):
    # the guard band is fixed; the flag that once set it is gone
    code, out, err = run(["analyze", "zoo:mixed", "--dims", "2,2", "--tol", tol])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "unrecognized arguments: --tol" in err


def test_analyze_expands_the_state_once(monkeypatch):
    # a zoo state is built from its formula and not validated
    counts = {"transform": 0, "validate": 0}
    count_calls(monkeypatch, counts, "transform", blochsep.bloch, "_mode_products")
    count_calls(monkeypatch, counts, "validate", blochsep.states, "validate_density")
    doc = run_json(["analyze", "zoo:smolin", "--subsets", "all", "--criteria", "all"])
    assert len(doc["records"]) == 11
    assert counts == {"transform": 1, "validate": 0}


def test_a_state_from_outside_is_validated_once(monkeypatch, tmp_path):
    # a state file is validated where it is read, and a state rebuilt from
    # its expansion where it is rebuilt; the mixture that decompose assembles
    # for its residual is built from the validated state and not validated
    path = str(tmp_path / "smolin.json")
    save_state(blochsep.smolin(), path)
    werner = str(tmp_path / "werner.json")
    save_state(ZooSpec("werner", noise=0.3).build(), werner)
    counts = {"validate": 0}
    count_calls(monkeypatch, counts, "validate", blochsep.states, "validate_density")
    doc = run_json(["analyze", path, "--subsets", "all", "--criteria", "all"])
    assert len(doc["records"]) == 11
    assert counts == {"validate": 1}
    counts["validate"] = 0
    code, _, _ = run(["decompose", path])
    # Smolin's sufficiency sum is 3, so decompose stops after the load
    assert code == 3 and counts == {"validate": 1}
    counts["validate"] = 0
    run_json(["decompose", werner])
    # the load only
    assert counts == {"validate": 1}
    counts["validate"] = 0
    run_json(["decompose", "zoo:werner", "-p", "0.3"])
    # a zoo state is built from its formula, so nothing is validated
    assert counts == {"validate": 0}
    rho, _ = load_state(path)
    counts["validate"] = 0
    blochsep.reconstruct(blochsep.decompose(rho))
    assert counts == {"validate": 1}


def test_a_loaded_state_holds_the_array_its_parse_built(tmp_path, monkeypatch):
    """load_state validates the array that the flat parse has just built
    and keeps it, read-only, without a copy."""
    path = tmp_path / "state.json"
    save_state(ZooSpec("w", parties=4).build(), path)
    built = []
    parse = blochsep.stateio._flat_matrix
    monkeypatch.setattr(blochsep.stateio, "_flat_matrix",
                        lambda *args: built.append(parse(*args)) or built[-1])
    counts = {"validate": 0}
    count_calls(monkeypatch, counts, "validate", blochsep.states, "validate_density")
    rho, _ = load_state(path)
    assert np.shares_memory(rho.matrix, built[0]) and not rho.matrix.flags.writeable
    assert rho.matrix.tobytes() == ZooSpec("w", parties=4).build().matrix.tobytes()
    assert counts == {"validate": 1}


def test_analyze_reads_tensors_in_place(monkeypatch):
    # the norm test reads the components stacked by shape through
    # bloch._groups; it never takes the checked per-subset copies of the
    # public expansion API
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
    # each threshold builds sigma once from its formula, without validating
    # it, and expands it once
    counts = {"transform": 0, "validate": 0}
    count_calls(monkeypatch, counts, "transform", blochsep.bloch, "_mode_products")
    count_calls(monkeypatch, counts, "validate", blochsep.states, "validate_density")
    run_json(argv)
    assert counts == {"transform": expansions, "validate": 0}


@pytest.mark.parametrize("criteria, rows", [("all", 4), ("t1", 3)])
def test_analyze_contracts_once(monkeypatch, criteria, rows):
    # the default analyze expands the state once, against the whole stacks,
    # and every criterion reads that array; t1 alone contracts the full
    # tensor against the generator rows only
    calls = []
    contract = blochsep.bloch._mode_products

    def recording(arr, mats):
        calls.append([m.shape[0] for m in mats])
        return contract(arr, mats)

    monkeypatch.setattr(blochsep.bloch, "_mode_products", recording)
    run_json(["analyze", "zoo:ghz", "-N", "6", "--criteria", criteria])
    assert calls == [[rows] * 6]


def antidiagonal_state(n: int, entry: complex) -> np.ndarray:
    """I/D on n qubits with ``entry`` on the antidiagonal: its deviation
    from Hermitian is 2|entry|, all of it in the full tensor's X...X entry,
    whose imaginary part is D|entry|."""
    m = np.eye(2**n, dtype=complex) / 2**n
    m[np.arange(2**n), 2**n - 1 - np.arange(2**n)] = entry
    return m


@pytest.mark.parametrize("n", [8, 10])
def test_states_at_the_hermiticity_limit_get_verdicts(tmp_path, n):
    """A deviation from Hermitian of 9.9e-11, within EXACT_TOL, gives the
    full tensor of I/D an imaginary residue of 1.267e-08 at 8 qubits and
    5.069e-08 at 10, above IMAG_TOL but within the bound that follows from
    EXACT_TOL: t1 and c1 give verdicts, through the CLI at 8 qubits.  A
    deviation of 1.01e-10 is refused by validation, with exit 2 in one
    line."""
    rho = DensityMatrix((2,) * n, antidiagonal_state(n, 0.495e-10j))
    stacks = [blochsep.bloch._stack(2, 1.0).conj()[1:]] * n
    residue = np.abs(blochsep.bloch._mode_products(blochsep.bloch._paired(rho), stacks).imag)
    assert f"{residue.max():.3e}" == {8: "1.267e-08", 10: "5.069e-08"}[n]
    assert blochsep.criteria.necessary_test(rho).decision is Decision.INCONCLUSIVE
    assert len(blochsep.criteria.subset_scan(rho, "pairs")) == n * (n - 1) // 2
    with pytest.raises(InvalidStateError, match=r"^matrix is not Hermitian \(max deviation 1.010e-10\)$"):
        DensityMatrix((2,) * n, antidiagonal_state(n, 0.505e-10j))
    if n > 8:
        return  # a 10-qubit state file is 44 MB
    path = str(tmp_path / "limit.json")
    save_state(rho, path)
    (record,) = run_json(["analyze", path, "--criteria", "t1"])["records"]
    assert record["decision"] == "inconclusive"
    records = run_json(["analyze", path, "--criteria", "c1", "--subsets", "pairs"])["records"]
    assert len(records) == n * (n - 1) // 2
    save_state(DensityMatrix._built((2,) * n, antidiagonal_state(n, 0.505e-10j)), path)
    assert run(["analyze", path, "--criteria", "t1"]) == (
        2, "", "error: matrix is not Hermitian (max deviation 1.010e-10)\n")


@pytest.mark.parametrize("argv, component", [
    (["--criteria", "t1"], (1,) * 9),
    (["--criteria", "c1", "--subsets", "pairs"], (1,) * 9),
    (["--criteria", "c1", "--subsets", "pairs"], (1,) + (0,) * 8),
])
def test_an_imaginary_residue_above_the_derived_bound_exits_4(monkeypatch, argv, component):
    """A contraction that leaves an imaginary residue at one entry of the
    coefficient array, or of the full tensor t1 contracts alone, just above
    IMAG_TOL + (EXACT_TOL / 2) 2^9 = 3.56e-08 on 9 qubits is refused in one
    line that names its component; just below, the report is written."""
    contract = blochsep.bloch._mode_products
    bound = 1e-8 + 0.5e-10 * 2**9
    full = argv[1] == "t1"
    name = ("correlation tensor of subset (0, 1, 2, 3, 4, 5, 6, 7, 8)" if all(component)
            else "coherence vector of subsystem 0")
    for scale, code in ((1.001, 4), (0.999, 0)):
        def leaky(arr, mats, scale=scale):
            out = contract(arr, mats)
            out[tuple(a - full for a in component)] += 1j * scale * bound
            return out

        monkeypatch.setattr(blochsep.bloch, "_mode_products", leaky)
        got, out, err = run(["analyze", "zoo:ghz", "-N", "9", *argv])
        assert got == code, err
        if code:
            assert out == "" and err == (
                f"numeric integrity failure: {name} carries imaginary residue "
                f"{scale * bound:.3e} above tolerance {bound:.3e}\n")
        else:
            assert err == "" and json.loads(out)["records"]


CRITERION_FUNCTIONS = ("necessary_test", "subset_scan", "qubit_exact_test", "sufficiency_test")
# the criterion functions each criterion key calls; t1 reads the full tensor
# alone, not through subset_scan
CALLED = {"t1": {"necessary_test"}, "c1": {"subset_scan"},
          "c2": {"qubit_exact_test"}, "p2": {"sufficiency_test"},
          "all": {"subset_scan", "qubit_exact_test", "sufficiency_test"}}


@pytest.mark.parametrize("argv, key", [
    *(pytest.param(["analyze", "zoo:ghz", "-N", "3", "--criteria", key], key,
                   id=f"analyze-{key}") for key in CALLED),
    *(pytest.param(["threshold", "ghz-noisy", "-N", "3", "--criterion", key], key,
                   id=f"threshold-{key}") for key in CALLED if key != "all"),
])
def test_criteria_are_reached_by_name(monkeypatch, argv, key):
    # a wrapper rebound over a criterion function, as the benchmark's tracer
    # rebinds them, must see the calls that analyze and threshold make
    counts = dict.fromkeys(CRITERION_FUNCTIONS, 0)
    for name in CRITERION_FUNCTIONS:
        count_calls(monkeypatch, counts, name, blochsep.criteria, name)
    run_json(argv)
    assert {name for name, n in counts.items() if n} == CALLED[key]


@pytest.mark.parametrize("subsets", ["full", "all"])
@pytest.mark.parametrize("source", [
    ["zoo:werner", "-p", "0.3"], ["zoo:smolin"], ["zoo:ghz", "-N", "4"], ["zoo:psi-234"],
], ids=["werner", "smolin", "ghz-4", "psi-234"])
def test_criteria_all_is_the_union_of_its_parts(source, subsets):
    def report(criteria, subsets="full"):
        return run_json(["analyze", *source, "--criteria", criteria, "--subsets", subsets])

    whole = report("all", subsets)
    assert whole["records"] == report("c1", subsets)["records"]
    if subsets == "full":
        assert whole["records"] == report("t1")["records"]
    assert whole["exact_qubit"] == report("c2")["exact_qubit"]
    assert whole["sufficiency"] == report("p2")["sufficiency"]


def test_all_subsets_are_the_subsets_of_each_size_in_turn():
    # selections on one dims share nothing but the state: the records of
    # every size, asked for one after another, are those of "all"
    argv = ["analyze", "zoo:w", "-N", "5", "--criteria", "c1", "--subsets"]
    whole = run_json([*argv, "all"])["records"]
    parts = [r for k in range(2, 6) for r in run_json([*argv, f"k={k}"])["records"]]
    assert len(whole) == 26 and whole == parts
    assert whole == run_json([*argv, "all"])["records"]


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


@pytest.mark.parametrize("argv, want, tol", [
    (["werner"], 0.3333333333333333, 1e-9),
    (["werner", "--criterion", "p2"], 0.3333333333333333, 1e-9),
    (["ghz-noisy", "-N", "3", "--criterion", "p2"], 0.0, 0),
    (["w-noisy", "-N", "4", "--criterion", "c1"], 0.3018240, 1e-6),
    (["reduced-w-noisy", "-N", "6", "-n", "4"], None, 0),
], ids=["werner-t1", "werner-p2", "ghz-noisy-3-p2", "w-noisy-4-c1", "reduced-w-noisy-6-4"])
def test_threshold_outcomes(tmp_path, argv, want, tol):
    """Every outcome of threshold_search: the sufficiency sum's flip, a sum
    unavailable at every p > 0, the least flip to Entangled over the
    subsets, and no flip on [0, 1].  The threshold is ``want`` within
    ``tol``, or exactly ``want`` when ``tol`` is 0 or ``want`` is None."""
    path = tmp_path / "threshold.json"
    assert run(["threshold", *argv, "-o", str(path)]) == (0, "", "")
    got = json.loads(path.read_text())["threshold"]
    if want is None or tol == 0:
        assert got == want
    else:
        assert got is not None and abs(got - want) <= tol


@pytest.mark.parametrize("argv", [
    "ghz -N 3 -d 3", "ghz-noisy -N 4 -p 0.37", "qutrit-ghz-noisy -N 3 -p 0.37", "werner -p 0.37",
    "w -N 5", "w-noisy -N 5 -p 0.37", "reduced-w-noisy -N 6 -n 2 -p 0.37", "psi-234",
    "state-234-noisy -p 0.37", "smolin", "duer4", "mixed --dims 3,2,2",
])
def test_every_zoo_family_written_to_a_file_loads_back(tmp_path, argv):
    """The zoo builds its states without validating them; load_state
    validates, so each family written to a file must load back."""
    path = tmp_path / "z.json"
    assert run(["zoo", *argv.split(), "-o", str(path)]) == (0, "", "")
    _, metadata = load_state(str(path))
    assert metadata == {"name": argv.split()[0], "source": "zoo"}


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


def report(argv, tmp_path) -> dict:
    """The report of ``blochsep ARGV``, written with ``-o`` under
    ``tmp_path`` and checked to be the bytes ``json.dumps(indent=2)``
    writes."""
    out = tmp_path / "report.json"
    assert main([*argv, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n", \
        f"blochsep {' '.join(argv)} is not what json.dumps(indent=2) writes"
    return json.loads(text)


def test_reports_with_records_and_term_lists_are_what_json_dumps_writes(tmp_path):
    """Reports, one of 120 records and two of nested term lists, the second
    the 1,093 terms of a separable diagonal 7-qubit state, and GHZ-8, whose
    254 all-zero rows are written as their template, are the bytes
    json.dumps(indent=2) writes.  Werner's decomposition at p = 0.3 is a
    6-term mixture that rebuilds the state, and its factors hold -0.0."""
    q = np.random.default_rng(1).random(128)
    p = 0.9 / 127
    diag7 = str(tmp_path / "diag7.json")
    save_state(DensityMatrix((2,) * 7, np.diag((1 - p) / 128 + p * q / q.sum()).astype(complex)),
               diag7)
    assert report(["decompose", diag7], tmp_path)["term_count"] == 1093, \
        "blochsep decompose diag7.json does not write 1,093 terms"
    assert len(report(["analyze", "zoo:w", "-N", "7", "--subsets", "all"], tmp_path)["records"]) == 120
    assert report(["zoo", "ghz", "-N", "8"], tmp_path)["dims"] == [2] * 8
    d = report(["decompose", "zoo:werner", "-p", "0.3"], tmp_path)
    total = sum(t["weight"] for t in d["terms"]) + d["identity_weight"]
    assert d["term_count"] == 6 and abs(total - 1) <= 1e-12 and d["reconstruction_residual"] <= 1e-12, \
        "blochsep decompose zoo:werner -p 0.3 is not a 6-term mixture that rebuilds the state"
    assert "-0.0" in (tmp_path / "report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("family", ["ghz", "w"])
def test_every_subset_of_10_qubit_states_has_its_per_unfolding_norm(family, tmp_path):
    """The largest component stacks: 1,013 subsets, one SVD call per shape.
    Equal tensors, and tensors equal to their cyclic mode shift, share their
    SVDs, so every record's norm must be, bit for bit, the one that an SVD
    of each tall unfolding of its own correlation tensor gives."""
    rho = ZooSpec(family, parties=10).build()
    records = report(["analyze", f"zoo:{family}", "-N", "10", "--subsets", "all"], tmp_path)["records"]
    norms = per_tensor_norms(rho, [tuple(r["subset"]) for r in records])
    bad = [r["subset"] for r, norm in zip(records, norms) if r["norm"] != norm]
    assert len(records) == 1013 and not bad, (
        f"blochsep analyze zoo:{family} -N 10 --subsets all gives norms that are not the "
        f"per-unfolding ones bit for bit: {len(bad)} of {len(records)} differ: {bad[:5]}")


def test_ghz10_all_subsets_have_one_entangled_full_set(tmp_path):
    """Only GHZ-10's full set exceeds its bound, with norm 33.  The
    orthogonal-form search walks all 1,023 components and names the last,
    the full set, and the exact test stops at the pair tensors, the first
    order that holds a nonzero component."""
    d = report(["analyze", "zoo:ghz", "-N", "10", "--subsets", "all"], tmp_path)
    r = d["records"]
    full = [x["norm"] for x in r if len(x["subset"]) == 10]
    assert (len(r) == 1013 and len(full) == 1 and abs(full[0] - 33) <= 1e-9
            and sum(x["decision"] == "entangled" for x in r) == 1
            and d["sufficiency"]["reason"] == "no-orthogonal-decomposition:(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)"
            and d["exact_qubit"]["reason"] == "lower-order-tensors-nonzero"), (
        "blochsep analyze zoo:ghz -N 10 --subsets all does not give 1,013 records with one "
        "entangled full set of norm 33, a sufficiency sum stopped at the full set and an exact "
        "test stopped at the lower-order tensors")


def test_w10_all_subsets_are_its_sizes_in_turn(tmp_path):
    """W-10's exact test stops at its coherence vectors.  Index plans are
    cached per (dims, selection), so W-10's selections of one size each,
    made in turn, must give the records of all sizes at once."""
    d = report(["analyze", "zoo:w", "-N", "10", "--subsets", "all"], tmp_path)
    assert d["exact_qubit"]["reason"] == "coherence-vectors-nonzero", \
        "blochsep analyze zoo:w -N 10 --subsets all does not give an exact test stopped at the coherence vectors"
    parts = [r for k in range(2, 11)
             for r in report(["analyze", "zoo:w", "-N", "10", "--subsets", f"k={k}"], tmp_path)["records"]]
    assert len(d["records"]) == 1013 and d["records"] == parts, (
        "the records of blochsep analyze zoo:w -N 10 --subsets all are not those of "
        "--subsets k=2 ... k=10 in turn")

