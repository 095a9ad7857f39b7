"""Runs one workload's ops in a fresh interpreter: one client, one op at a
time (closed loop), a fixed number of whole passes of the op list.
Right before each op it times the host-speed kernel (hostspeed.py).

Usage: python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the source tree, the ops (argv or a state file to load), the
number of rounds and whether to trace.  A round is one pass, or in a traced
run an untraced and a traced pass of the same ops, so the ratio of their
times is the tracing overhead.  Outputs are hashed after each op, outside the timed region; the
first copy of every distinct output is kept for the checks.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import calibrate  # noqa: E402
from workloads import matrix_digest  # noqa: E402


def run_op(blochsep, op):
    """Returns (seconds, exit code or None, output hash or None, message)."""
    err = io.StringIO()
    try:
        if op["path"] is not None:
            t0 = time.perf_counter()
            rho, _ = blochsep.load_state(op["path"])
            dt = time.perf_counter() - t0
            return dt, 0, matrix_digest(rho.dims, rho.matrix), ""
        argv = op["argv"] + ["-o", op["output"]]
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = blochsep.cli.main(argv)
            dt = time.perf_counter() - t0
    except Exception:  # a traceback is a failed op, not a failed run
        return 0.0, None, None, traceback.format_exc(limit=-3)
    digest = None
    if rc == 0:
        with open(op["output"], "rb") as fh:
            digest = hashlib.sha1(fh.read()).hexdigest()
    return dt, rc, digest, err.getvalue()[:300]


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import blochsep
    import blochsep.cli

    ops = plan["ops"]
    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer(blochsep)
    kept = {}  # (op index, hash) -> kept copy
    execs = []
    passes = []

    def one_pass(traced):
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.current_op = i
                kernel_s = calibrate()
                dt, rc, digest, msg = run_op(blochsep, op)
                execs.append([i, len(passes), traced, dt, rc, digest, msg, kernel_s])
                if digest is not None and op["path"] is None and (i, digest) not in kept:
                    copy = os.path.join(plan["keep"], f"{i}-{len(kept)}.out")
                    shutil.copyfile(op["output"], copy)
                    kept[(i, digest)] = copy
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced})

    run_op(blochsep, plan["warmup"])
    for r in range(plan["rounds"]):
        if not tracer:
            one_pass(False)
        else:  # alternate which goes first, so warm-up effects cancel
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                one_pass(traced)

    result = {
        "execs": execs,
        "passes": passes,
        "kept": [[i, h, path] for (i, h), path in kept.items()],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        traced_passes = sum(p["traced"] for p in passes)
        result["layers"] = tracer.layer_metrics(traced_passes)
        tracer.write(plan["spans"], [op["name"] for op in ops])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
