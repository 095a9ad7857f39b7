"""The benchmark's layer tracer (``perfbench/spans.py``) looks up a fixed
list of public names; removing one of them must fail here first."""

import importlib.util
from pathlib import Path

import blochsep
import blochsep.cli  # noqa: F401  (the tracer wraps cli.main)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_finds_every_traced_name():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    metrics = spans.Tracer(blochsep).layer_metrics(1)
    assert metrics["states.kron.calls"] == (0.0, "count")
