"""Per-call times from span files, for comparison with one-off measurements.

    python3 perfbench/reconcile.py perfbench/.runs/spans-analyze-subsets-S.json.gz \\
                                   perfbench/.runs/spans-thresholds-S.json.gz

Prints, as JSON, the mean inclusive time of one ``bloch.decompose`` call
inside ``analyze zoo:ghz -N 8`` (that is ``decompose(ghz(8))``), and of the
``threshold_search`` calls for N = 3..6 inside ``threshold-table
--max-parties 7`` (that is ``noise_threshold_table(6)``), next to the
per-pass self times of both spans.  Traced times include the tracer's own
overhead; see ``trace.overhead_ratio``.
"""
import gzip
import json
import sys

import numpy as np

# noise_threshold_table(7) searches ghz-noisy N=3..7, then w-noisy N=3..7
TABLE_UP_TO_6 = [0, 1, 2, 3, 5, 6, 7, 8]


def load(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        doc = json.load(fh)
    arrays = {k: np.array(doc[k]) for k in ("span_name", "parent", "op", "start", "end")}
    return doc["names"], doc["ops"], arrays


def spans_of(names, a, name):
    return np.flatnonzero(a["span_name"] == names.index(name))


def self_seconds(names, a, name):
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    inner = a["parent"] >= 0
    np.add.at(child, a["parent"][inner], dur[inner])
    idx = spans_of(names, a, name)
    passes = int((a["parent"] == -1).sum()) / len(set(a["op"].tolist()))  # one root per op
    return float((dur - child)[idx].sum()) / passes


def decompose_ghz8(path):
    names, ops, a = load(path)
    idx = spans_of(names, a, "bloch.decompose")
    idx = idx[a["op"][idx] == ops.index("ghz-8")]
    return {
        "bloch.decompose_per_call_ms_in_ghz-8": 1e3 * float((a["end"] - a["start"])[idx].mean()),
        "calls": int(idx.size),
        "bloch.decompose.self_s_per_pass": self_seconds(names, a, "bloch.decompose"),
    }


def table_up_to_6(path):
    names, ops, a = load(path)
    idx = spans_of(names, a, "criteria.threshold_search")
    idx = idx[a["op"][idx] == ops.index("table-7")]
    totals = []
    for parent in sorted(set(a["parent"][idx].tolist())):
        group = idx[a["parent"][idx] == parent]
        group = group[np.argsort(a["start"][group])]
        totals.append(float((a["end"] - a["start"])[group[TABLE_UP_TO_6]].sum()))
    return {
        "threshold_search_N3-6_ms_in_table-7": 1e3 * float(np.mean(totals)),
        "tables": len(totals),
        "criteria.threshold_search.self_s_per_pass": self_seconds(
            names, a, "criteria.threshold_search"),
    }


if __name__ == "__main__":
    print(json.dumps({"decompose(ghz(8))": decompose_ghz8(sys.argv[1]),
                      "noise_threshold_table(6)": table_up_to_6(sys.argv[2])}, indent=2))
