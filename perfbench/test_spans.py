"""Checks of the span recorder itself.

Run from the repository root: ``python3 -m pytest perfbench/test_spans.py``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import fibfourier.cli  # noqa: E402
import fibfourier.fourier  # noqa: E402
import spans  # noqa: E402


@pytest.fixture
def tracer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        if tracer._patched:
            tracer.remove()


def traced_op(tracer, fn):
    t0 = time.perf_counter()
    tracer.begin_op()
    result = fn()
    tracer.end_op(time.perf_counter() - t0)
    return result


def test_cli_bindings_are_wrapped(tracer, tmp_path):
    assert fibfourier.cli.coeff_sum is fibfourier.fourier.coeff_sum
    assert fibfourier.cli.coeff_sum.__wrapped__ is not None
    code = traced_op(tracer, lambda: fibfourier.cli.main(["table1", "--out", str(tmp_path / "t.csv")]))
    assert code == 0
    assert tracer.calls[tracer.layer("cli.main")] == 1
    # table1 at n=3 calls each estimator once per frequency, through cli's own bindings
    for name in ("fourier.coeff_exact", "fourier.coeff_integral", "fourier.coeff_sum"):
        assert tracer.calls[tracer.layer(name)] == 9


def test_unpatched_cli_binding_is_caught(tracer):
    wrapper = fibfourier.cli.coeff_sum
    fibfourier.cli.coeff_sum = wrapper.__wrapped__  # as if install had skipped cli
    try:
        assert tracer.unpatched_bindings() == ["fibfourier.cli.coeff_sum"]
        with pytest.raises(spans.TraceError, match="fibfourier.cli.coeff_sum"):
            tracer.verify_installed()
        with pytest.raises(spans.TraceError, match="fibfourier.cli.coeff_sum"):
            tracer.remove()
    finally:
        fibfourier.cli.coeff_sum = wrapper


def test_remove_restores_every_binding(tracer):
    tracer.remove()
    assert tracer.leftover_wrappers() == []
    assert not hasattr(fibfourier.cli.coeff_sum, "__wrapped__")
    assert fibfourier.cli.coeff_sum is fibfourier.fourier.coeff_sum
    assert not hasattr(fibfourier.fourier.Approximant.evaluate, "__wrapped__")


def test_self_times_add_up_to_op_wall_time(tracer):
    import fibfourier as ff

    freqs = ff.frequency_representatives(3)
    lift = ff.torus_lift("nearest_distance")
    traced_op(tracer, lambda: ff.build_approximant("exact", freqs, lift=lift))
    assert tracer.ops == 1
    assert tracer.calls[tracer.layer("fourier.coeff_exact")] == 9
    assert tracer.self_s.sum() == pytest.approx(tracer.wall_s, rel=0.01, abs=1e-3)
    assert tracer.self_s.min() >= 0.0


def test_op_wall_time_mismatch_is_caught(tracer):
    tracer.begin_op()
    with pytest.raises(spans.TraceError, match="op wall time"):
        tracer.end_op(10.0)


def test_spans_between_ops_are_dropped(tracer):
    import fibfourier as ff

    ff.frequency_representatives(3)  # outside any op
    traced_op(tracer, lambda: None)
    assert tracer.calls[tracer.layer("cutproject.frequency_representatives")] == 0
