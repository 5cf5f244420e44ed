"""The benchmark under perfbench/ still finds every library name it calls.

The benchmark runs outside this suite.  These tests read its modules,
without changing them, so that deleting or renaming a function it traces
or calls fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import latticeball

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _traced_attributes():
    """(owner, attribute) of every entry of spans.TRACED."""
    out = []
    for mod_name, path in spans.TRACED:
        owner = getattr(latticeball, mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append((owner, attr))
    return out


def test_tracer_wraps_and_restores_every_traced_name():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr in _traced_attributes()]
    tracer = spans.Tracer(latticeball)
    tracer.install()
    try:
        for owner, attr, raw in originals:
            assert owner.__dict__[attr] is not raw, attr
    finally:
        tracer.uninstall()
    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, attr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_runs(name):
    workloads.WORKLOADS[name].setup(latticeball)


def test_thread_count_reads():
    assert latticeball.meanvalue.thread_count() >= 1


def test_oscint_gate_passes_on_cheapest_items():
    """The cheapest n = 2 and n = 3 items of an oscint run pass the
    benchmark's correctness gate."""
    inputs = workloads.osc_inputs(np.random.default_rng(1), 30)
    picks = [min((f for f in inputs if f["n"] == n), key=workloads.osc_cost)
             for n in (2, 3)]
    outputs = [workloads.osc_item(latticeball, None, f) for f in picks]
    problems = gate.check_osc(latticeball, picks, outputs,
                              np.random.default_rng(1), picks_per_dim=(1, 1))
    assert problems == []


def test_oscint_item_traces_I_kl_under_the_check():
    """An oscint item records one I_kl span, a child of its Hessian
    check's span, so the I_kl per-layer rows read the quadrature."""
    fields = min(workloads.osc_inputs(np.random.default_rng(1), 8),
                 key=workloads.osc_cost)
    tracer = spans.Tracer(latticeball)
    tracer.install()
    try:
        workloads.osc_item(latticeball, None, fields)
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    names = [s.name for s in recorded]
    assert names.count("oscillatory.I_kl") == 1
    check = names.index("oscillatory.hessian_bound_check")
    child = recorded[names.index("oscillatory.I_kl")]
    assert child.parent == check
