"""Self-test of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Run from the root of a source tree.  For every workload it makes one short
run untraced and one traced, and fails unless

* every end-to-end and per-layer metric is emitted with its unit, and
  ``criteria.threshold_search.evals`` is positive on thresholds only;
* all ops pass their checks, except the ops whose outputs the test
  corrupts on purpose before checking, which must all be counted failed;
* the closed-form sufficiency sum of the noisy-diagonal generator equals the
  program's ``sufficiency_lhs`` (via ``analyze --criteria p2``) on N = 3, 5.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402

KIND_METRICS = {
    "analyze-subsets": ["analyze_p50_ms"],
    "thresholds": ["threshold_p50_ms", "threshold_table_p50_ms"],
    "files-decompose": ["analyze_p50_ms", "decompose_p50_ms", "state_load_p50_ms",
                        "state_save_p50_ms"],
}
COMMON = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
          "peak_rss_mb": "MB", "failed_ratio": "1"}


def _corrupt_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


EDITS = {
    "analyze": lambda d: d["records"][0].update(norm=d["records"][0]["norm"] * 1.001 + 1e-6),
    "threshold": lambda d: d.update(threshold=(d["threshold"] or 0.0) + 1e-3),
    "threshold_table": lambda d: d["records"][0].update(threshold=d["records"][0]["threshold"] + 1e-3),
    "decompose": lambda d: d["terms"][0].update(weight=d["terms"][0]["weight"] * 1.01),
    "state_save": lambda d: d["matrix"][0][0].__setitem__(0, d["matrix"][0][0][0] + 1e-6),
}


def corrupter(chosen):
    """Hook for run.run: corrupt the first successful op of every kind."""
    def hook(ops, result):
        kept = {i: path for i, _h, path in result["kept"]}
        for e in result["execs"]:
            op = ops[e[0]]
            if op.kind in chosen.values() or e[4] != 0:
                continue
            chosen[op.name] = op.kind
            if op.path is not None:  # a load: its output is the digest
                for other in result["execs"]:
                    if other[0] == e[0]:
                        other[5] = "0" * 40
            else:
                _corrupt_json(kept[e[0]], EDITS[op.kind])
    return hook


def check_workload(workload, root, errors):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    chosen = {}
    s = run.run(workload, 7, 0, 0, root, hook=corrupter(chosen))
    want = dict(COMMON, **{k: "ms" for k in KIND_METRICS[workload]})
    for name, unit in want.items():
        if name not in s["end_to_end"] or s["end_to_end"][name][1] != unit:
            errors.append(f"{workload}: end-to-end {name} [{unit}] missing")
    failed = {name for name, _ in s["failures"]}
    if failed != set(chosen):
        errors.append(f"{workload}: corrupted {sorted(chosen)} but failed {sorted(failed)}")
    if s["failed"] != len(chosen):
        errors.append(f"{workload}: {s['failed']} failed execs for {len(chosen)} corrupted")
    t = run.run(workload, 7, 0, 1, root, keep_spans=False)
    if t["failed"]:
        errors.append(f"{workload}: traced run failed {t['failures']}")
    layers = t["per_layer"]
    for name, unit in declared.items():
        if name not in layers or layers[name][1] != unit:
            errors.append(f"{workload}: per-layer {name} [{unit}] missing")
    evals = layers["criteria.threshold_search.evals"][0]
    if (evals > 0) != (workload == "thresholds"):
        errors.append(f"{workload}: criteria.threshold_search.evals = {evals}")
    print(f"{workload}: corrupted {sorted(chosen)}, counted {s['failed']} failed; "
          f"{len(layers)} per-layer metrics, evals {evals:g}")


def check_closed_form_lhs(root, errors):
    sys.path.insert(0, os.path.join(root, "src"))
    from blochsep import cli

    rng = np.random.default_rng(3)
    with tempfile.TemporaryDirectory(dir=os.path.join(os.path.dirname(__file__), ".runs")) as d:
        for n in (3, 5):
            rho, p, zc = inputs.noisy_diagonal(rng, n)
            path, out = os.path.join(d, f"{n}.json"), os.path.join(d, f"{n}.out")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.state_document((2,) * n, rho, "diag"))
            if cli.main(["analyze", path, "--criteria", "p2", "-o", out]) != 0:
                errors.append(f"analyze --criteria p2 failed on N={n}")
                continue
            with open(out, encoding="utf-8") as fh:
                lhs = json.load(fh)["sufficiency"]["lhs"]
            closed = p * float(np.abs(zc[1:]).sum())
            if abs(lhs - closed) > 1e-12:
                errors.append(f"N={n}: sufficiency_lhs {lhs!r} != closed form {closed!r}")
            print(f"N={n}: sufficiency_lhs {lhs!r}, closed form {closed!r}")


def main():
    root = os.getcwd()
    os.makedirs(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".runs"), exist_ok=True)
    errors = []
    check_closed_form_lhs(root, errors)
    for workload in KIND_METRICS:
        check_workload(workload, root, errors)
    for e in errors:
        print("SELF-TEST FAILED:", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
