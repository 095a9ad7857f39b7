"""The benchmark's workloads: fixed op lists over seeded inputs, each op with
the check its output must pass.

An op is one call of a public entry point: ``blochsep.cli.main(argv)`` with
``-o`` into the run directory, or ``blochsep.load_state(path)``.  The op list
of a workload is one *pass*; a run repeats whole passes, so every run sees
the same mix.  The seed fixes the random states and the order of the ops
inside each phase (phases keep writes before the reads of what they wrote).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
import hashlib
import os

import numpy as np

import checks
import inputs
from checks import State

WHY = {
    "analyze-subsets": (
        "2^N-1 marginals per analyze, each validated and contracted on its own: "
        "time sits in states, bloch and tensors, with no bisection and little file I/O"
    ),
    "thresholds": (
        "thousands of tiny states (D <= 128) in bisections: per-call overhead, "
        "small-matrix validation and the number of evaluations dominate"
    ),
    "files-decompose": (
        "state-file JSON dump and parse up to 11 MB, one large eigvalsh per load, "
        "and per-term kron in assemble_decomposition; t1 needs only the full tensor"
    ),
}

# Seconds of a run's budget per pass: a run of S seconds makes
# round(S / PASS_SECONDS) whole passes, a fixed number, so every run of a
# workload has the same samples.  Each value is the pass time at the
# baseline (4.5, 4.0 and 6.0 s) plus headroom for slow hosts.
PASS_SECONDS = {"analyze-subsets": 6.0, "thresholds": 5.0, "files-decompose": 7.5}

# The smallest op of each workload: what setup_s runs after the import.
SETUP_ARGV = {
    "analyze-subsets": ["analyze", "zoo:psi-234", "--subsets", "all", "--criteria", "all"],
    "thresholds": ["threshold", "werner", "--criterion", "t1"],
    "files-decompose": ["decompose", "zoo:werner", "-p", "0.1"],
}

# Values this code base computes; a later change must reproduce them.
# Thresholds carry the bisection tolerance (checks.THRESHOLD_TOL).  The
# qutrit N=4 and (2,3,4) t1 entries are the two by-design values, not the
# published 0.2162 and 0.24152.
ANALYZE_PINS = {
    "duer4": {"full_norm": 1.4, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "ghz-6": {"full_norm": 9.0, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "ghz-7": {"full_norm": 11.313708499, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "ghz-8": {"full_norm": 17.0, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "ghz-noisy-6-0.5": {"full_norm": 4.5, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "ghz-noisy-7-0.5": {"full_norm": 5.65685424949, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "ghz-noisy-8-0.5": {"full_norm": 8.5, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "psi-234": {"full_norm": 18.4448659568, "entangled_records": 3, "c2": "inconclusive", "p2": "inconclusive"},
    "qutrit-ghz-noisy-4-0.5": {"full_norm": 24.147114317, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "qutrit-ghz-noisy-5-0.5": {"full_norm": 49.118615729, "entangled_records": 1, "c2": "inconclusive", "p2": "inconclusive"},
    "smolin": {"full_norm": 3.0, "entangled_records": 1, "c2": "entangled", "p2": "inconclusive"},
    "w-6": {"full_norm": 3.28576692071, "entangled_records": 42, "c2": "inconclusive", "p2": "inconclusive"},
    "w-7": {"full_norm": 3.25685128159, "entangled_records": 99, "c2": "inconclusive", "p2": "inconclusive"},
    "w-8": {"full_norm": 3.226818932, "entangled_records": 219, "c2": "inconclusive", "p2": "inconclusive"},
}
THRESHOLD_PINS = {
    "ghz-noisy-3-c1": 0.3535533,
    "ghz-noisy-3-p2": 5e-07,
    "ghz-noisy-4-c1": 0.2000003,
    "ghz-noisy-4-p2": 5e-07,
    "ghz-noisy-5-c1": 0.1767764,
    "ghz-noisy-5-p2": 5e-07,
    "ghz-noisy-6-c1": 0.1111112,
    "ghz-noisy-6-p2": 5e-07,
    "qutrit-ghz-noisy-3-c1": 0.2282405,
    "qutrit-ghz-noisy-3-t1": 0.2282405,
    "qutrit-ghz-noisy-4-c1": 0.186358,
    "qutrit-ghz-noisy-4-t1": 0.186358,
    "reduced-w-noisy-6-1-c1": 0.3750005,
    "reduced-w-noisy-6-1-t1": 0.3750005,
    "reduced-w-noisy-6-2-c1": 0.4910102,
    "reduced-w-noisy-6-2-t1": 0.4910102,
    "reduced-w-noisy-6-3-c1": 0.7071071,
    "reduced-w-noisy-6-3-t1": 0.7071071,
    "reduced-w-noisy-6-4-c1": None,
    "reduced-w-noisy-6-4-t1": None,
    "state-234-noisy-c1": 0.2300172,
    "state-234-noisy-t1": 0.230017,
    "w-noisy-3-c1": 0.3067498,
    "w-noisy-3-p2": 5e-07,
    "w-noisy-4-c1": 0.3018241,
    "w-noisy-4-p2": 5e-07,
    "w-noisy-5-c1": 0.3022246,
    "w-noisy-5-p2": 5e-07,
    "w-noisy-6-c1": 0.3043427,
    "w-noisy-6-p2": 5e-07,
    "werner-c2": 1.0 / 3.0,
    "werner-p2": 1.0 / 3.0,
    "werner-t1": 1.0 / 3.0,
}
TABLE_PINS = {
    ("ghz-noisy", 3): 0.3535533,
    ("ghz-noisy", 4): 0.2000003,
    ("ghz-noisy", 5): 0.1767764,
    ("ghz-noisy", 6): 0.1111112,
    ("ghz-noisy", 7): 0.088388,
    ("w-noisy", 3): 0.3067498,
    ("w-noisy", 4): 0.3018241,
    ("w-noisy", 5): 0.3022246,
    ("w-noisy", 6): 0.3043427,
    ("w-noisy", 7): 0.3070455,
}

PHASE_WRITE, PHASE_READ, PHASE_DECOMPOSE = 0, 1, 2


@dataclass
class Op:
    name: str
    kind: str          # the metric family: analyze, threshold, ...
    argv: list | None = None   # CLI argv without -o
    path: str | None = None    # state-load input
    output: str | None = None  # -o target
    phase: int = 0
    expect: tuple = (0,)
    verify: object = None  # output text (or load digest) -> None | reason


def matrix_digest(dims, matrix) -> str:
    """What the worker reports for a load: dims plus the matrix bits."""
    h = hashlib.sha1(repr(tuple(int(d) for d in dims)).encode())
    h.update(np.ascontiguousarray(matrix, complex).tobytes())
    return h.hexdigest()


class OpList:
    def __init__(self, seed: int, indir: str, outdir: str):
        self.rng = np.random.default_rng(seed)
        self.indir, self.outdir = indir, outdir
        self.ops: list[Op] = []

    def file(self, name: str, state: State) -> str:
        path = os.path.join(self.indir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inputs.state_document(state.dims, state.matrix, name))
        return path

    def cli(self, name, kind, argv, verify, phase=0, expect=(0,), output=None):
        output = output or os.path.join(self.outdir, f"{len(self.ops)}.json")
        self.ops.append(Op(name, kind, list(argv), output=output, phase=phase,
                           expect=expect, verify=verify))

    def load(self, name, path, state):
        self.ops.append(Op(name, "state_load", path=path, phase=PHASE_READ,
                           verify=partial(_verify_load, path, state)))

    def ordered(self) -> list[Op]:
        """Seeded order inside each phase, phases in sequence."""
        order = self.rng.permutation(len(self.ops))
        return sorted((self.ops[i] for i in order), key=lambda op: op.phase)

    def noisy_diagonal(self, n: int) -> State:
        rho, p, zc = inputs.noisy_diagonal(self.rng, n)
        return State((2,) * n, rho, separable=True, p=p, zc=zc)

    def rotated(self, state: State) -> State:
        rho = inputs.rotate_locally(self.rng, state.matrix, state.dims)
        return State(state.dims, rho, separable=state.separable,
                     entangled=state.entangled, p=state.p, zc=state.zc)


def _verify_load(path, state, digest):
    with open(path, encoding="utf-8") as fh:
        dims, mat = inputs.parse_state_document(fh.read())
    if digest != matrix_digest(dims, mat):
        return "loaded matrix is not bit-identical to the file's entries"
    if dims != state.dims or np.abs(mat - state.matrix).max() > 1e-12:
        return "file does not hold the expected state"
    return None


def _zoo_state(family, n=None, p=None) -> State:
    """The harness's own copy of a zoo state; pure GHZ/W states and the bound
    entangled ones are entangled by construction."""
    dims, rho = {
        "ghz": lambda: ((2,) * n, inputs.ghz(n)),
        "w": lambda: ((2,) * n, inputs.w_state(n)),
        "ghz-noisy": lambda: ((2,) * n, inputs.noisy(inputs.ghz(n), p)),
        "qutrit-ghz-noisy": lambda: ((3,) * n, inputs.noisy(inputs.ghz(n, 3), p)),
        "werner": lambda: ((2, 2), inputs.noisy(inputs.ghz(2), p)),
        "smolin": lambda: ((2,) * 4, inputs.smolin()),
        "duer4": lambda: ((2,) * 4, inputs.duer4()),
        "psi-234": lambda: ((2, 3, 4), inputs.psi_234()),
    }[family]()
    return State(dims, rho, entangled=family in ("ghz", "w", "smolin", "duer4", "psi-234"))


def _zoo_argv(family, n=None, p=None) -> list:
    argv = [f"zoo:{family}"]
    if n is not None:
        argv += ["-N", str(n)]
    if p is not None:
        argv += ["-p", str(p)]
    return argv


def analyze_subsets(b: OpList) -> None:
    all_args = ["--subsets", "all", "--criteria", "all"]

    def zoo(family, n=None, p=None):
        name = "-".join(str(x) for x in (family, n, p) if x is not None)
        b.cli(name, "analyze", ["analyze", *_zoo_argv(family, n, p), *all_args],
              partial(checks.check_analyze, state=_zoo_state(family, n, p), full_only=False,
                      pins=ANALYZE_PINS.get(name, {})))

    def filed(name, state):
        b.cli(name, "analyze", ["analyze", b.file(name, state), *all_args],
              partial(checks.check_analyze, state=state, full_only=False, pins={}))

    for n in (6, 7, 8):
        zoo("ghz", n)
        zoo("w", n)
        zoo("ghz-noisy", n, 0.5)
        filed(f"ginibre-{n}", State((2,) * n, inputs.ginibre(b.rng, (2,) * n, 2)))
        filed(f"rotated-diagonal-{n}", b.rotated(b.noisy_diagonal(n)))
    zoo("smolin")
    zoo("duer4")
    filed("rotated-smolin", b.rotated(_zoo_state("smolin")))
    filed("rotated-duer4", b.rotated(_zoo_state("duer4")))
    filed("ginibre-4", State((2,) * 4, inputs.ginibre(b.rng, (2,) * 4, 2)))
    zoo("qutrit-ghz-noisy", 4, 0.5)
    zoo("qutrit-ghz-noisy", 5, 0.5)
    zoo("psi-234")
    filed("ginibre-333", State((3, 3, 3), inputs.ginibre(b.rng, (3, 3, 3), 3)))


def thresholds(b: OpList) -> None:
    b.cli("table-7", "threshold_table", ["threshold-table", "--max-parties", "7"],
          partial(checks.check_threshold_table, pinned=TABLE_PINS))
    runs = [("qutrit-ghz-noisy", n, None, c) for n in (3, 4) for c in ("t1", "c1")]
    runs += [("state-234-noisy", None, None, c) for c in ("t1", "c1")]
    runs += [("werner", None, None, c) for c in ("t1", "c2", "p2")]
    runs += [("reduced-w-noisy", 6, r, c) for r in (1, 2, 3, 4) for c in ("t1", "c1")]
    runs += [(f, n, None, c) for f in ("ghz-noisy", "w-noisy") for n in (3, 4, 5, 6)
             for c in ("c1", "p2")]
    for family, n, removed, crit in runs:
        argv = ["threshold", family, "--criterion", crit]
        argv += ["-N", str(n)] if n is not None else []
        argv += ["-n", str(removed)] if removed is not None else []
        name = "-".join(str(x) for x in (family, n, removed, crit) if x is not None)
        b.cli(name, "threshold", argv,
              partial(checks.check_threshold, pinned=THRESHOLD_PINS.get(name, float("nan"))))


def files_decompose(b: OpList) -> None:
    for family in ("ghz", "w"):
        for n in (7, 8, 9):
            name = f"{family}-{n}"
            state = _zoo_state(family, n)
            path = os.path.join(b.indir, f"zoo-{name}.json")
            b.cli(f"zoo-{name}", "state_save", ["zoo", family, "-N", str(n)],
                  partial(checks.check_saved_state, state=state, name=family),
                  phase=PHASE_WRITE, output=path)
            b.load(f"load-{name}", path, state)
            if n == 8:
                b.cli(f"t1-{name}", "analyze", ["analyze", path, "--criteria", "t1"],
                      partial(checks.check_analyze, state=state, full_only=True, pins={}),
                      phase=PHASE_READ)
    for n in (8, 9):
        name = f"ginibre-{n}"
        state = State((2,) * n, inputs.ginibre(b.rng, (2,) * n, 4))
        path = b.file(name, state)
        b.load(f"load-{name}", path, state)
        b.cli(f"t1-{name}", "analyze", ["analyze", path, "--criteria", "t1"],
              partial(checks.check_analyze, state=state, full_only=True, pins={}),
              phase=PHASE_READ)
    for n in (4, 5, 6, 7):
        state = b.noisy_diagonal(n)
        for name, st, expect in ((f"diagonal-{n}", state, (0,)),
                                 (f"rotated-diagonal-{n}", b.rotated(state), (0, 3))):
            b.cli(name, "decompose", ["decompose", b.file(name, st)],
                  partial(checks.check_decompose, state=st), phase=PHASE_DECOMPOSE,
                  expect=expect)
    for p in (0.1, 0.3):
        b.cli(f"werner-{p}", "decompose", ["decompose", *_zoo_argv("werner", None, p)],
              partial(checks.check_decompose, state=_zoo_state("werner", None, p)),
              phase=PHASE_DECOMPOSE)


WORKLOADS = {
    "analyze-subsets": analyze_subsets,
    "thresholds": thresholds,
    "files-decompose": files_decompose,
}


def build(workload: str, seed: int, indir: str, outdir: str) -> list[Op]:
    b = OpList(seed, indir, outdir)
    WORKLOADS[workload](b)
    return b.ordered()
