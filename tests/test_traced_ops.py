"""One op of each benchmark workload under the span recorder.

The benchmark's traced run (``perfbench/run.py --trace 1``) stops with a
``spans.TraceError`` when a name it wraps has moved, when a module still
holds an unwrapped original, or when the span self times of an op do not
add up to its wall time.  These tests run the first op of a ``spectrum`` and
a ``discretize`` cycle, and the ``error-bound`` and ``compare`` reports of
the ``paper`` menu, as ``perfbench/child.py`` runs them, so such a change
fails here too.  ``perfbench/spans.py`` and ``perfbench/workloads.py`` are
imported as they are.
"""

import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        # restore what install replaced also when it refused to trace, so no
        # wrapper outlives the test
        for namespace, attr, original in reversed(tracer._patched):
            setattr(namespace, attr, original)


def run_traced(tracer, op):
    """Time, trace and check one op as child.py does; the check's verdict."""
    t0 = time.perf_counter()
    tracer.begin_op()
    result = op.run()
    tracer.end_op(time.perf_counter() - t0)
    return op.check(result)


@pytest.mark.parametrize(
    "name, layer, calls",
    [
        ("spectrum", "fourier.build_approximant", 6),
        ("discretize", "discretize.error_estimate", 1),
    ],
)
def test_first_op_of_a_cycle_traces(name, layer, calls, tracer, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    op = workload.cycle()[0]
    assert run_traced(tracer, op) is None
    assert tracer.ops == 1
    assert tracer.calls[tracer.layer(layer)] == calls
    tracer.remove()  # raises TraceError if a wrapper is left


def test_paper_reports_trace(tracer, tmp_path):
    paper = workloads.Paper(SEED, tmp_path)
    reports = [["error-bound"], ["compare"]]
    ops = [op for op in paper.cycle() if op.run.args[0] in reports]
    assert len(ops) == len(reports)
    for op in ops:
        assert run_traced(tracer, op) is None, op.run.args[0]
    assert tracer.ops == len(reports)
    assert tracer.calls[tracer.layer("cli.main")] == len(reports)
    assert tracer.calls[tracer.layer("discretize.error_estimate")] == 1
    tracer.remove()  # raises TraceError if a wrapper is left
