"""The benchmark under perfbench/ still finds every library name it calls.

The benchmark runs outside this suite.  These tests read its modules,
without changing them, so that deleting or renaming a function it traces
or calls fails here instead of in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

import latticeball

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

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
