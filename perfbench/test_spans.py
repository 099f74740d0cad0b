"""Unit tests of the span checks in ``spans.py`` (no package run needed):

    python3 -m pytest -q perfbench/test_spans.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402


def operation(child_start=1.0, child_end=3.0, sibling=(5.0, 6.0), folded=None):
    """One traced operation 0..10 s: a fit with one child, then a sibling."""
    tracer = spans.Tracer()
    tracer.op = 1
    root = tracer.open("bench.op", t0=0.0)
    fit = tracer.open("model.fit", t0=0.5)
    tracer.graft([{"id": 0, "name": "library.evaluate", "parent": None,
                   "start": child_start, "end": child_end, "attrs": {},
                   "folded": folded or {}}])
    tracer.close(fit, t1=4.5)
    tracer.add("optimize.solve", *sibling)
    tracer.close(root, t1=10.0)
    return tracer


def test_well_nested_self_times_add_up_to_the_wall_time():
    tracer = operation()
    values = spans.layer_metrics(tracer, {1: 10.0}, "setup", tolerance=1e-3)
    assert values["op.wall_s"] == 10.0
    assert values["library.calls"] == 1 and values["library.s"] == 2.0
    assert values["model.fit_self_s"] == 2.0
    assert values["optimize.calls"] == 1
    assert values["bench.self_s"] == 10.0 - 4.0 - 1.0


def test_child_outside_its_parent_fails():
    with pytest.raises(spans.NestingError, match="outside its parent"):
        spans.op_values(operation(child_start=0.2).spans)


def test_overlapping_siblings_fail():
    # The solve starts before the fit has ended, so bench.op's self time
    # would be negative without the overlap showing anywhere else.
    tracer = spans.Tracer()
    root = tracer.open("bench.op", t0=0.0)
    tracer.add("model.fit", 0.0, 8.0)
    tracer.add("optimize.solve", 2.0, 10.0)
    tracer.close(root, t1=10.0)
    with pytest.raises(spans.NestingError, match="self time"):
        spans.op_values(tracer.spans)


def test_folded_calls_longer_than_their_span_fail():
    tracer = operation(folded={"library.evaluate_pointwise": [3, 2.5]})
    with pytest.raises(spans.NestingError, match="self time"):
        spans.op_values(tracer.spans)


def test_spans_must_cover_the_measured_latency():
    tracer = operation()
    with pytest.raises(spans.NestingError, match="latency"):
        spans.layer_metrics(tracer, {1: 11.0}, "setup", tolerance=0.05)
    with pytest.raises(spans.NestingError, match="latency"):
        spans.layer_metrics(tracer, {1: 9.9}, "setup", tolerance=0.05)
    spans.layer_metrics(tracer, {1: 10.4}, "setup", tolerance=0.05)
