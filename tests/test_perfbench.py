"""The benchmark in perfbench/ against this tree: every function it wraps or
probes exists, and every workload BENCHMARK.json names sets up at its smoke
size. A deletion that would silently blank a per-layer metric, or break a
workload's set-up, fails here."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module, imported with its directory on sys.path;
    its sibling modules leave sys.modules again afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("checks", "spans"):
        if name not in before:
            sys.modules.pop(name, None)


def test_wrapped_and_probed_functions_exist(bench):
    targets = [(module, attr) for module, attr, *_ in bench.LAYER_SPANS]
    targets += [(module, attr) for _, module, attr, _ in bench.STEP_PROBES]
    missing = [f"fdlink.{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"fdlink.{module}"),
                                       attr, None))]
    assert missing == []


def test_declared_workloads_set_up_at_tiny_size(bench):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert declared
    for entry in declared:
        _, workload, _ = bench.set_up(entry["name"], 1, tiny=True)
        assert isinstance(workload, (bench.SweepWorkload, bench.SimulateWorkload))


def test_oracle_spans_record_calls(bench):
    # the robust.form and robust.solve spans wrap the kernels the oracle
    # calls, so a traced cell times every form build and solve
    _, workload, _ = bench.set_up("sweep_k4_full", 1, tiny=True)
    tracer = bench.Tracer()
    try:
        for module, attr, span, callers in bench.LAYER_SPANS:
            assert tracer.wrap(module, attr, span, callers)
        tracer.active = True
        workload.run(0)
    finally:
        tracer.active = False
        tracer.unwrap()
    calls = {span: entry["calls"] for span, entry in tracer.totals().items()}
    assert calls.get("robust.form", 0) > 0
    assert calls.get("robust.solve", 0) > 0
