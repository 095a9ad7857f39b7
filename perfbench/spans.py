"""Layer tracing from outside the program.

``Tracer.install`` wraps every public function of the layer modules and
rebinds each name wherever the package holds it, re-imports included (for
example ``blochsep.bloch.partial_trace`` and ``blochsep.cli.dump_json``), so
calls between modules pass through the wrappers.  ``uninstall`` puts the
originals back; untraced passes run the program unmodified.

A span is (name, start, end, parent span, op).  Spans stay in flat arrays in
memory and are written once, at exit.  Self time is a span's duration minus
the time of its direct children.
"""
from __future__ import annotations

from array import array
from collections import Counter
import gzip
import inspect
import json
import os
import sys
import time

import numpy as np

# cli: only ``main`` is wrapped, so its self time is argument parsing plus
# report assembly.  su_basis is lru_cached and left out.
LAYERS = ("cli", "stateio", "states", "bloch", "tensors", "criteria")

# Criterion evaluations a bisection makes: these spans directly under
# ``criteria.threshold_search`` are its evals.
EVAL_SPANS = ("criteria.necessary_test", "criteria.subset_scan",
              "criteria.qubit_exact_test", "criteria.sufficiency_test")


def _entries(counters, args, kwargs, result):
    shape = getattr(args[0] if args else kwargs.get("matrix"), "shape", None)
    if shape is not None:
        counters["states.validate_density.entries"] += int(np.prod(shape))


def _coefficients(counters, args, kwargs, result):
    counters["bloch.correlation_tensor.coefficients"] += int(result.size)


def _flag(key):
    def hook(counters, args, kwargs, result):
        counters[key] += bool(result)
    return hook


def _found(counters, args, kwargs, result):
    counters["tensors.find_orthogonal_kruskal.found"] += result is not None


def _decided(counters, args, kwargs, result):
    counters["criteria.decided"] += result.decision.value != "inconclusive"
    counters["criteria.attempted"] += 1


def _file_bytes(counters, args, kwargs, result):
    counters["stateio.load_state.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _text_bytes(counters, args, kwargs, result):
    counters["stateio.dump_json.bytes"] += len(result.encode())


HOOKS = {
    "states.validate_density": _entries,
    "bloch.correlation_tensor": _coefficients,
    "tensors.is_supersymmetric": _flag("tensors.is_supersymmetric.true"),
    "tensors.find_orthogonal_kruskal": _found,
    "criteria.qubit_exact_test": _decided,
    "criteria.sufficiency_test": _decided,
    "stateio.load_state": _file_bytes,
    "stateio.dump_json": _text_bytes,
}


class Tracer:
    def __init__(self, package):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counters: Counter = Counter()
        self.originals = {}  # (module, attribute) -> original function
        self.wrappers = {}   # original function -> wrapper
        modules = [getattr(package, name) for name in LAYERS]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and (short != "cli" or attr == "main")):
                    self.wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        homes = [package] + [m for n, m in sys.modules.items()
                             if n.startswith(package.__name__ + ".")]
        for mod in homes:
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value in self.wrappers:
                    self.originals[(mod, attr)] = value

    def _wrap(self, name, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for (mod, attr), fn in self.originals.items():
            setattr(mod, attr, self.wrappers[fn])

    def uninstall(self) -> None:
        for (mod, attr), fn in self.originals.items():
            setattr(mod, attr, fn)

    def self_times(self):
        """(names per span, self seconds per span, parent name per span)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        parent_name = np.where(inner, names[np.maximum(parent, 0)], -1)
        return names, dur - child, parent_name

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer figures, per traced pass of the op list."""
        names, self_s, parent_name = self.self_times()
        nid = self.name_id
        calls = np.bincount(names, minlength=len(self.names)) if names.size else \
            np.zeros(len(self.names), int)
        busy = np.bincount(names, weights=self_s, minlength=len(self.names)) if names.size else \
            np.zeros(len(self.names))
        c = self.counters

        def ratio(key, name):
            n = calls[nid[name]]
            return c[key] / n if n else 0.0

        out = {}
        for name in ("states.validate_density", "states.partial_trace", "states.kron",
                     "bloch.decompose", "bloch.correlation_tensor", "bloch.bloch_vector",
                     "tensors.singular_values", "tensors.tensor_kyfan",
                     "tensors.is_supersymmetric", "tensors.find_orthogonal_kruskal",
                     "criteria.necessary_test", "criteria.qubit_exact_test",
                     "criteria.sufficiency_test", "criteria.subset_scan",
                     "criteria.threshold_search", "criteria.separable_decomposition",
                     "criteria.assemble_decomposition", "stateio.load_state",
                     "stateio.dump_json"):
            out[f"{name}.calls"] = (float(calls[nid[name]]) / passes, "count")
            out[f"{name}.self_s"] = (float(busy[nid[name]]) / passes, "s")
        for name in ("stateio.state_from_jsonable", "stateio.write_text_atomic", "cli.main"):
            out[f"{name}.self_s"] = (float(busy[nid[name]]) / passes, "s")
        for key in ("states.validate_density.entries", "bloch.correlation_tensor.coefficients"):
            out[key] = (c[key] / passes, "count")
        for key in ("stateio.load_state.bytes", "stateio.dump_json.bytes"):
            out[key] = (c[key] / passes, "B")
        out["tensors.is_supersymmetric.true_ratio"] = (
            ratio("tensors.is_supersymmetric.true", "tensors.is_supersymmetric"), "1")
        out["tensors.find_orthogonal_kruskal.found_ratio"] = (
            ratio("tensors.find_orthogonal_kruskal.found", "tensors.find_orthogonal_kruskal"), "1")
        attempted = c["criteria.attempted"]
        out["criteria.decided_ratio"] = (
            c["criteria.decided"] / attempted if attempted else 0.0, "1")
        search = nid["criteria.threshold_search"]
        evals = np.isin(names, [nid[n] for n in EVAL_SPANS]) & (parent_name == search)
        out["criteria.threshold_search.evals"] = (float(evals.sum()) / passes, "count")
        return out

    def write(self, path: str, op_names: list) -> None:
        doc = {
            "names": self.names,
            "ops": op_names,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
