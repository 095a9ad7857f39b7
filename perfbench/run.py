"""Benchmark of blochsep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (it imports ``src/blochsep``).  The run:

1. builds the workload's inputs from the seed (outside any timed region);
2. with ``--trace 0``, times several cold starts (fresh interpreter,
   ``import blochsep`` plus the workload's smallest op) for ``setup_s``;
3. runs round(S / PASS_SECONDS) whole passes of the ops in a fresh worker
   process (see workloads.PASS_SECONDS);
4. checks every op's output and counts the failures;
5. prints a table of every metric, then, as the last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
   end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
   ones with ``--trace 1``.

Scratch files live under ``perfbench/.runs/`` and are removed at the end,
except the span file of a traced run.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

COLD_STARTS = 9
WORKER_TIMEOUT_S = 170
COLD_START = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import blochsep, blochsep.cli
rc = blochsep.cli.main({argv!r})
print(rc, time.perf_counter() - t0)
"""
KINDS = ("analyze", "threshold", "threshold_table", "decompose", "state_load",
              "state_save")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def harrell_davis(values, q) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of the order
    statistics weighted by Beta((n+1) q, (n+1)(1-q)) mass over each
    [(i-1)/n, i/n].  Op costs come in clusters; where one order statistic
    would jump across a gap between clusters from run to run, this moves
    smoothly."""
    x = np.sort(np.asarray(list(values), dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    mid = 0.5 * (grid[:-1] + grid[1:])
    logpdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(logpdf - logpdf.max()))])
    return float(np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1])) @ x)


def tail(values):
    """(percentile, value) at the highest percentile with ten samples above
    it: q = 1 - 10/n over all n samples."""
    n = len(values)
    if n < 11:
        raise RuntimeError(f"{n} samples are too few for a tail latency")
    q = 1.0 - 10.0 / n
    return 100.0 * q, harrell_davis(values, q)


def cold_setup(src, rundir, argv):
    """Median of several fresh-interpreter import-plus-first-op timings."""
    code = COLD_START.format(src=src, argv=argv + ["-o", os.path.join(rundir, "setup.json")])
    times, kernel_s = [], []
    for _ in range(COLD_STARTS):
        kernel_s.append(hostspeed.calibrate())
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=False)
        if proc.returncode != 0 or not proc.stdout.startswith("0 "):
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-300:]}")
        times.append(float(proc.stdout.split()[1]))
    scaled = [t * f for t, f in zip(times, hostspeed.factors(kernel_s))]
    return statistics.median(scaled), statistics.median(times)


def evaluate(ops, result) -> list:
    """Outcome per exec: None when the op's output passed its check, else why
    it failed.  Each distinct output of an op is checked once."""
    kept = {(i, h): path for i, h, path in result["kept"]}
    verdicts = {}
    outcomes = []
    for i, _pass, _traced, _dt, rc, digest, msg, _kernel in result["execs"]:
        op = ops[i]
        if rc is None:
            outcomes.append(f"traceback: {msg.strip().splitlines()[-1]}")
        elif rc not in op.expect:
            outcomes.append(f"exit {rc}: {msg.strip()[:120]}")
        elif rc == 3:
            outcomes.append(None if msg.startswith("not applicable:") else "exit 3 without reason")
        else:
            if (i, digest) not in verdicts:
                try:
                    if op.path is not None:
                        verdicts[(i, digest)] = op.verify(digest)
                    else:
                        with open(kept[(i, digest)], encoding="utf-8") as fh:
                            verdicts[(i, digest)] = op.verify(fh.read())
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    verdicts[(i, digest)] = f"malformed output: {exc!r}"
            outcomes.append(verdicts[(i, digest)])
    return outcomes


def scaled_ms(result) -> list:
    """Every exec's latency in ms at the reference host speed."""
    execs = result["execs"]
    return [e[3] * 1e3 * f for e, f in zip(execs, hostspeed.factors([e[7] for e in execs]))]


def op_medians(rows) -> dict:
    """Op index -> median latency of that op over the run's passes."""
    per_op = {}
    for e, ms in rows:
        per_op.setdefault(e[0], []).append(ms)
    return {i: statistics.median(v) for i, v in per_op.items()}


def end_to_end(ops, result, setup) -> dict:
    """Metrics a user sees, from the untraced passes, in ms at the reference
    host speed: name -> (value, unit).  The p50s are medians over the op list
    of each op's median over the passes, so every op weighs as in one pass.
    Details hold the unscaled figures, the tail percentile and sample counts.
    """
    rows = [(e, ms) for e, ms in zip(result["execs"], scaled_ms(result)) if not e[2]]
    lat_ms = [ms for _e, ms in rows]
    raw_ms = [e[3] * 1e3 for e, _ms in rows]
    per_op = op_medians(rows)
    q, tail_ms = tail(lat_ms)
    out = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (1e3 * len(rows) / sum(lat_ms), "ops/s"),
        "op_p50_ms": (harrell_davis(per_op.values(), 0.5), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = {
        "host_speed": statistics.median(hostspeed.factors([e[7] for e, _ms in rows])),
        "raw_setup_s": setup[1], "raw_ops_per_s": 1e3 * len(raw_ms) / sum(raw_ms),
        "raw_op_p50_ms": harrell_davis(op_medians(
            [(e, e[3] * 1e3) for e, _ms in rows]).values(), 0.5),
        "raw_op_tail_ms": tail(raw_ms)[1],
        "op_tail_percentile": q, "op_samples": len(lat_ms),
        "passes": sum(not p["traced"] for p in result["passes"]),
    }
    for kind in KINDS:
        kind_ms = [ms for i, ms in per_op.items() if ops[i].kind == kind]
        if kind_ms:
            out[f"{kind}_p50_ms"] = (harrell_davis(kind_ms, 0.5), "ms")
    details["op_p50_ms"] = {ops[i].name: round(ms, 3) for i, ms in per_op.items()}
    return out, details


def per_layer(result) -> dict:
    out = {k: tuple(v) for k, v in result["layers"].items()}
    lat = scaled_ms(result)
    traced = sum(ms for e, ms in zip(result["execs"], lat) if e[2])
    untraced = sum(ms for e, ms in zip(result["execs"], lat) if not e[2])
    out["trace.overhead_ratio"] = (traced / untraced, "1")
    return out


def run(workload, seed, seconds, trace, root, keep_spans=True, hook=None):
    """One benchmark run; returns its summary: metrics, failures, details.

    ``hook(ops, result)`` may alter outputs before they are checked; the
    self-test uses it to feed in corrupted outputs.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blochsep", "__init__.py")):
        raise FileNotFoundError(f"no blochsep source tree under {src}")
    base = os.path.join(HERE, ".runs")
    os.makedirs(base, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=base)
    try:
        dirs = {k: os.path.join(rundir, k) for k in ("in", "out", "keep")}
        for d in dirs.values():
            os.makedirs(d)
        ops = workloads.build(workload, seed, dirs["in"], dirs["out"])
        setup = (None, None)
        if not trace:
            setup = cold_setup(src, rundir, workloads.SETUP_ARGV[workload])
        spans_path = os.path.join(base, f"spans-{workload}-{seed}.json.gz")
        plan = {
            "src": src, "trace": bool(trace), "keep": dirs["keep"],
            "rounds": max(1, round(seconds / workloads.PASS_SECONDS[workload] / (1 + trace))),
            "spans": spans_path,
            "warmup": {"name": "warmup", "argv": workloads.SETUP_ARGV[workload],
                       "path": None, "output": os.path.join(rundir, "warmup.json")},
            "ops": [{"name": op.name, "argv": op.argv, "path": op.path, "output": op.output}
                    for op in ops],
        }
        plan_path, result_path = os.path.join(rundir, "plan.json"), os.path.join(rundir, "result.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                       timeout=WORKER_TIMEOUT_S, check=True)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if hook is not None:
            hook(ops, result)
        outcomes = evaluate(ops, result)
        failures = sorted({(ops[e[0]].name, why) for e, why in zip(result["execs"], outcomes) if why})
        e2e, details = end_to_end(ops, result, setup)
        attempted, failed = len(outcomes), sum(why is not None for why in outcomes)
        summary = {
            "workload": workload, "why": workloads.WHY[workload], "seed": seed,
            "seconds": seconds, "trace": trace, "env": environment(),
            "load": "closed loop, 1 client, 1 process, ops sent one at a time",
            "attempted": attempted, "failed": failed, "failures": failures,
            "end_to_end": {**e2e, "failed_ratio": (failed / attempted, "1")},
            "details": details,
        }
        if trace:
            summary["per_layer"] = per_layer(result)
            if not keep_spans:
                os.remove(spans_path)
        return summary
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def declared_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    try:
        summary = run(args.workload, args.seed, args.seconds, args.trace, os.getcwd())
    except (FileNotFoundError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    table = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(f"# {summary['workload']}: {summary['why']}")
    print(f"# env {json.dumps(summary['env'])}; {summary['load']}")
    details = dict(summary["details"])
    per_op = details.pop("op_p50_ms")
    print(f"# details {json.dumps(details)}")
    print("# per-op p50 ms: " + ", ".join(f"{k} {v:g}" for k, v in sorted(per_op.items())))
    for name, (value, unit) in table.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    for name, why in summary["failures"]:
        print(f"FAILED {name}: {why}")
    print(f"# wall {time.perf_counter() - start:.1f} s")
    metrics = {name: {"value": table[name][0], "unit": table[name][1]}
               for name in declared_metrics(args.trace)}
    print(json.dumps({"correct": summary["failed"] == 0, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
