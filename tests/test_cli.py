"""End-to-end checks of the report CLI: deterministic CSV output, headers,
flag validation, and exit codes."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest

import fibfourier.cli as cli
import fibfourier.fourier as fourier
from fibfourier import __version__
from fibfourier.cli import main, parse_grid, parse_window
from fibfourier.cutproject import (
    ApproxWindow,
    Window,
    enumerate_model_set,
    frequency_representatives,
)
from fibfourier.fibonacci import LocalFunction, TorusLift, nearest_distance
from fibfourier.fourier import coeff_exact
from fibfourier.ztau import ArithmeticCapacityError, QTau, TAU

T2_F = [0.8065, 0.4033, 0.3262, 0.0, 0.0, 0.0, 0.25, 0.5, 0.0,
        0.4045, 0.8090, 0.4045, 0.4033, 0.1885, 0.4396]
T2_FCOS = [0.1859, 0.3690, 0.4912, 0.5365, 0.1859, 0.1858, 0.3065,
           0.3138, 0.3000, 0.5022, 0.4681, 0.2659, 0.3690, 0.1859, 0.1859]
T4_F = [1, 1, 1, 1, 1, -1, -1, -1, 1, 1, 1, 1, 1, -1, 1]


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_report(text):
    lines = text.splitlines()
    assert lines[0] == f"# fibfourier {__version__}"
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1][len("# config: "):])
    extras = {}
    i = 2
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(": ")
        extras[key] = value
        i += 1
    rows = list(csv.reader(io.StringIO("\n".join(lines[i:]))))
    return config, extras, rows[0], rows[1:]


def test_points_basic(capsys):
    rc, out, _ = run_cli(["points", "--lo", "0", "--hi", "5"], capsys)
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert config == {"command": "points", "lo": 0.0, "hi": 5.0, "window": "default"}
    assert header == ["a", "b", "x", "x_star", "tile"]
    assert extras["count"] == "4"
    assert [(r[0], r[1]) for r in rows] == [
        ("0", "0"), ("0", "1"), ("1", "1"), ("1", "2")
    ]
    assert float(rows[1][2]) == pytest.approx(TAU, abs=1e-9)
    assert rows[0][4] == "long"


def test_points_single_position(capsys):
    rc, out, _ = run_cli(["points", "--lo", "0", "--hi", "0"], capsys)
    assert rc == 0
    _, extras, _, rows = parse_report(out)
    assert extras["count"] == "1" and len(rows) == 1


def test_points_rejects_reversed_range(capsys):
    rc, _, err = run_cli(["points", "--lo", "5", "--hi", "0"], capsys)
    assert rc == 1
    assert "error" in err


def test_points_shifted_window_matches_library(capsys):
    rc, out, _ = run_cli(
        ["points", "--lo", "0", "--hi", "5", "--window", "shifted"], capsys
    )
    assert rc == 0
    _, _, _, rows = parse_report(out)
    window = Window.default().shifted(QTau(Fraction(1, 2)))
    expected = enumerate_model_set(window, 0.0, 5.0)
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (p.algebraic.a, p.algebraic.b) for p in expected.points
    ]


def test_points_float_window_matches_default(capsys):
    rc1, out1, _ = run_cli(["points", "--lo", "0", "--hi", "100"], capsys)
    rc2, out2, _ = run_cli(
        ["points", "--lo", "0", "--hi", "100", "--window=-1:0.618033988"], capsys
    )
    assert rc1 == rc2 == 0
    _, _, _, rows1 = parse_report(out1)
    _, _, _, rows2 = parse_report(out2)
    assert [r[:2] for r in rows1] == [r[:2] for r in rows2]
    assert len(rows1) == 73


@pytest.mark.parametrize("window", ["default", "shifted"])
def test_points_in_slices_match_one_slice(window, monkeypatch, capsys):
    # at chunk 1.0 the slice edges are integers, and two points of each set
    # (-1 and 0, 0 and 1) lie exactly on them
    argv = ["points", "--lo", "-5", "--hi", "40", "--window", window]
    rc, whole, _ = run_cli(argv, capsys)
    assert rc == 0 and int(parse_report(whole)[1]["count"]) > 30
    for chunk in (1.0, 2.5, TAU, 7.0, 45.0):
        monkeypatch.setattr(cli, "_POINTS_CHUNK", chunk)
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0 and out == whole, chunk


@pytest.mark.parametrize("window", ["default", "shifted"])
@pytest.mark.parametrize("chunk,lo,hi", [(1.0, "-5", "40"), (cli._POINTS_CHUNK, "-5", "1e4")])
def test_points_count_header_equals_the_rows(window, chunk, lo, hi, monkeypatch, capsys):
    # the slice edges (integers at chunk 1.0, 9995 at the default chunk)
    # split the range, and at chunk 1.0 points lie exactly on them
    monkeypatch.setattr(cli, "_POINTS_CHUNK", chunk)
    rc, out, _ = run_cli(["points", "--lo", lo, "--hi", hi, "--window", window], capsys)
    assert rc == 0
    _, extras, _, rows = parse_report(out)
    xs = [float(r[2]) for r in rows]
    assert int(extras["count"]) == len(rows) > 30
    assert xs == sorted(set(xs))
    assert xs[-1] <= float(hi) and float(hi) - xs[-1] < TAU + 1e-9


def test_points_enumeration_error_comes_before_any_output(capsys):
    # the counting pass meets the tagging-margin error of a sparse window
    rc, out, err = run_cli(["points", "--lo", "0", "--hi", "1000", "--window=-0.01:0.01"], capsys)
    assert rc == 1 and out == ""
    assert "margin" in err


def test_points_bad_window(capsys):
    rc, _, err = run_cli(
        ["points", "--lo", "0", "--hi", "5", "--window", "x"], capsys
    )
    assert rc == 1
    assert "window" in err


def test_parse_window_helpers():
    assert isinstance(parse_window("default"), Window)
    shifted = parse_window("shifted")
    lo, hi = shifted.bounds_float()
    assert lo == pytest.approx(-0.5) and hi == pytest.approx(TAU - 0.5)
    aw = parse_window("-1.0:0.5")
    assert isinstance(aw, ApproxWindow)
    assert aw.bounds_float() == (-1.0, 0.5)
    with pytest.raises(ValueError):
        parse_window("1:2:3")
    with pytest.raises(ValueError):
        parse_window("a:b")


def test_parse_grid_helpers():
    assert parse_grid("0:15:600") == (0.0, 15.0, 600)
    with pytest.raises(ValueError):
        parse_grid("0:15")
    with pytest.raises(ValueError):
        parse_grid("15:0:10")
    with pytest.raises(ValueError):
        parse_grid("0:15:1")
    with pytest.raises(ValueError):
        parse_grid("0:15:x")


def test_usage_errors_exit_one():
    for argv in ([], ["bogus"], ["points"], ["points", "--lo", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_conflicting_path_flags(capsys):
    rc, _, err = run_cli(["table1", "--passes", "3", "--range", "10"], capsys)
    assert rc == 1
    assert "only one" in err


def test_invalid_n(capsys):
    rc, _, _ = run_cli(["frequencies", "--n", "0"], capsys)
    assert rc == 1


def test_range_too_short(capsys):
    rc, _, err = run_cli(["data-points", "--n", "3", "--range", "1.0"], capsys)
    assert rc == 1


def test_deterministic_output_files(tmp_path, capsys):
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    assert main(["table1", "--out", str(p1)]) == 0
    assert main(["table1", "--out", str(p2)]) == 0
    capsys.readouterr()
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.startswith(f"# fibfourier {__version__}\n".encode())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["points", "--lo", "0", "--hi", "5", "--window", "x"],
         "window must be 'default', 'shifted', or LO:HI"),
        (["points", "--lo", "5", "--hi", "0"], "need --lo <= --hi"),
        (["compare", "--grid", "15:0:10"], "grid needs lo < hi and count >= 2"),
        (["compare", "--grid", "0:15:x"], "bad grid '0:15:x'"),
        (["frequencies", "--n", "0"], "--n must be >= 1"),
        (["coeffs", "--n", "3", "--window=-0.9:0.7"],
         "a torus lift needs an exact window of length tau"),
        (["points", "--lo", "2e9", "--hi", "2000000010"],
         "position 2000000000.0 is beyond the limit 1e+09"),
        (["compare", "--grid", "2e9:2000000015:10"],
         "position 2000000000.0 is beyond the limit 1e+09"),
        (["compare", "--grid", "0:2e9:3"],
         "position 2000000000.0 is beyond the limit 1e+09"),
        (["coeffs", "--n", "3", "--estimator", "integral", "--range", "nan"],
         "--range must be finite"),
        (["coeffs", "--n", "3", "--estimator", "integral", "--range", "inf"],
         "--range must be finite"),
        (["coeffs", "--n", "3", "--range", "nan"], "--range must be finite"),
        (["coeffs", "--n", "3", "--estimator", "exact", "--range", "inf"],
         "--range must be finite"),
        (["coeffs", "--n", "3", "--estimator", "integral", "--range", "1"],
         "range must be finite and cover one pass (>= 2.236068)"),
        (["coeffs", "--n", "3", "--estimator", "integral", "--range", "1e8"],
         "the path would have 72360679 segments, more than 1000000"),
        (["data-points", "--n", "3", "--passes", "10000000"],
         "the path would have 10000000 segments, more than 1000000"),
        (["points", "--lo", "0", "--hi", "5", "--window=-inf:inf"],
         "window endpoints must be finite and satisfy lo < hi"),
    ],
    ids=[
        "window",
        "lo-above-hi",
        "grid-order",
        "grid-count",
        "n-zero",
        "exact-window",
        "points-beyond-limit",
        "grid-beyond-limit",
        "grid-ends-beyond-limit",
        "range-nan",
        "range-inf",
        "range-nan-exact",
        "range-inf-exact",
        "range-short",
        "range-too-long",
        "passes-too-many",
        "window-non-finite",
    ],
)
def test_usage_error_writes_no_file(argv, message, tmp_path, capsys):
    target = tmp_path / "out.csv"
    rc, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert rc == 1
    assert err == f"error: {message}\n"
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize("window", ["-2:2.618", "-0.3333333333333333:0.5"])
def test_interval_on_other_tiles_writes_no_file(window, tmp_path, capsys):
    # tiles of length tau^-1, tau^-2, tau^-3 or tau^2, tau^3 have no sign
    target = tmp_path / "out.csv"
    argv = ["coeffs", "--n", "3", "--function", "interval", f"--window={window}",
            "--estimator", "integral", "--passes", "10", "--out", str(target)]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1
    assert err.startswith("error: interval_sign has no sign for the tile [")
    assert err.count("\n") == 1 and out == ""
    assert not target.exists()
    # the tent on the same window is answered
    assert run_cli(argv[:4] + ["nearest"] + argv[5:], capsys)[0] == 0


def test_out_path_unwritable(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.csv"
    rc, _, err = run_cli(["table1", "--out", str(target)], capsys)
    assert rc == 1
    assert "error" in err


def test_frequencies_report(capsys):
    rc, out, _ = run_cli(["frequencies", "--n", "3"], capsys)
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert config == {"command": "frequencies", "n": 3}
    assert header == ["half_a", "half_b", "k_value", "k_star"]
    assert extras["count"] == "9" and len(rows) == 9
    assert {(int(r[0]), int(r[1])) for r in rows} == {
        (a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
    }


def test_data_points_report(capsys):
    rc, out, _ = run_cli(["data-points", "--n", "3", "--passes", "10"], capsys)
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert header == ["j", "u", "s_a", "s_b", "t_a", "t_b", "internal_residual"]
    assert len(rows) == 9
    assert [int(r[0]) for r in rows] == list(range(9))
    us = [float(r[1]) for r in rows]
    assert us == sorted(us)
    assert all(0.0 <= u <= float(extras["effective_range"]) + 1e-9 for u in us)
    # grid coordinates serialize as exact fractions
    assert {r[2] for r in rows} == {"0", "1/3", "2/3"}
    assert extras["segments"] == "10"


def test_table1_default_run(capsys):
    rc, out, _ = run_cli(["table1"], capsys)
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert config["n"] == 3 and config["range_r"] == 21.64
    assert header == [
        "k", "exact_re", "exact_im", "int_re", "int_im", "sum_re", "sum_im"
    ]
    assert len(rows) == 9
    assert float(extras["effective_range"]) == pytest.approx(20.1246, abs=1e-4)
    assert extras["segments"] == "14"
    assert rows[0][0] == "(-1-1tau)/2"
    center = {r[0]: r for r in rows}["0"]
    assert float(center[1]) == pytest.approx(0.3618, abs=1e-4)
    assert float(center[2]) == 0.0


def test_table1_passes_override(capsys):
    rc, out, _ = run_cli(["table1", "--passes", "5"], capsys)
    assert rc == 0
    config, extras, _, rows = parse_report(out)
    assert config["passes"] == 5 and "range_r" not in config
    assert extras["segments"] == "5"
    assert len(rows) == 9


def test_table3_default_run(capsys):
    rc, out, _ = run_cli(["table3"], capsys)
    assert rc == 0
    config, extras, _, rows = parse_report(out)
    assert config["n"] == 7 and config["range_r"] == 23.30
    assert config["function"] == "interval"
    assert len(rows) == 49
    assert float(extras["effective_range"]) == pytest.approx(22.3607, abs=1e-4)


def test_table2_columns(capsys):
    rc, out, _ = run_cli(["table2"], capsys)
    assert rc == 0
    config, _, header, rows = parse_report(out)
    assert config["cosine_n"] == 50
    assert header == ["x", "f", "f_exact", "f_int", "f_sum", "f_cos"]
    assert len(rows) == 15
    for row, want_f, want_cos in zip(rows, T2_F, T2_FCOS):
        assert float(row[1]) == pytest.approx(want_f, abs=1e-4)
        assert float(row[5]) == pytest.approx(want_cos, abs=2.5e-4)


def test_table4_interval_column(capsys):
    rc, out, _ = run_cli(["table4"], capsys)
    assert rc == 0
    _, _, _, rows = parse_report(out)
    assert [float(r[1]) for r in rows] == T4_F


def test_coeffs_exact_only(capsys):
    rc, out, _ = run_cli(["coeffs", "--n", "3"], capsys)
    assert rc == 0
    _, extras, header, rows = parse_report(out)
    assert header == ["half_a", "half_b", "k_value", "re", "im", "estimator"]
    assert len(rows) == 9
    assert {r[5] for r in rows} == {"exact"}
    assert "effective_range" not in extras


def test_coeffs_all_estimators(capsys):
    rc, out, _ = run_cli(
        ["coeffs", "--n", "3", "--estimator", "all", "--passes", "10"], capsys
    )
    assert rc == 0
    _, extras, _, rows = parse_report(out)
    assert len(rows) == 27
    counts = {}
    for r in rows:
        counts[r[5]] = counts.get(r[5], 0) + 1
    assert counts == {"exact": 9, "integral": 9, "sum": 9}
    assert extras["segments"] == "10"


def test_coeffs_exact_rejects_other_windows(capsys):
    rc, _, err = run_cli(
        ["coeffs", "--n", "3", "--estimator", "exact", "--window=-0.9:0.7"], capsys
    )
    assert rc == 1
    assert "exact window of length tau" in err


def test_coeffs_exact_on_shifted_window(capsys):
    rc, out, _ = run_cli(
        ["coeffs", "--n", "3", "--estimator", "exact", "--window", "shifted"], capsys
    )
    assert rc == 0
    _, _, _, rows = parse_report(out)
    assert len(rows) == 9
    window = Window.default().shifted(QTau(Fraction(1, 2)))
    lift = TorusLift(nearest_distance().rule, window)
    for row, k in zip(rows, frequency_representatives(3)):
        value = coeff_exact(k, lift)
        assert (row[3], row[4]) == (format(value.real, ".12g"), format(value.imag, ".12g"))


def test_coeffs_integral_requires_path(capsys):
    rc, _, err = run_cli(["coeffs", "--n", "3", "--estimator", "integral"], capsys)
    assert rc == 1
    assert "--passes" in err or "--range" in err


def test_compare_report(capsys):
    rc, out, _ = run_cli(
        [
            "compare",
            "--grid",
            "0:10:21",
            "--passes",
            "10",
            "--cosine-n",
            "10",
        ],
        capsys,
    )
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert config["grid"] == "0:10:21"
    assert header == ["x", "f", "f_exact", "f_int", "f_sum", "f_cos"]
    assert len(rows) == 21
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(10.0, abs=1e-12)
    for name in ("exact", "integral", "sum", "cosine"):
        for window in ("[0,15]", "[200,215]", "[-115,-100]"):
            assert f"sup_error_{name}_{window}" in extras
    # the aperiodic estimators hold up away from the origin; the periodic
    # baseline does not
    far_exact = float(extras["sup_error_exact_[200,215]"])
    far_cos = float(extras["sup_error_cosine_[200,215]"])
    assert far_exact < far_cos


def test_compare_rows_are_made_as_they_are_written(monkeypatch):
    # each kernel call evaluates all four approximants at one position
    calls = []
    evaluate = fourier._evaluate
    monkeypatch.setattr(
        fourier, "_evaluate", lambda batch, x: calls.append(batch.size) or evaluate(batch, x)
    )
    reads = []  # how many positions each read of f covers
    call, values_at = LocalFunction.__call__, LocalFunction.values_at
    monkeypatch.setattr(LocalFunction, "__call__", lambda f, t: reads.append(1) or call(f, t))
    monkeypatch.setattr(
        LocalFunction, "values_at", lambda f, ts: reads.append(len(ts)) or values_at(f, ts)
    )
    cfg = cli.RunConfig(
        command="compare", n=3, range_r=21.64, function="nearest", cosine_n=10, grid="0:15:600"
    )
    _, _, rows = cli.cmd_values(cfg)
    sup_calls = len(calls)  # 3 windows x 1000 samples
    assert sup_calls == 3000 and set(calls) == {4}
    assert reads.count(1000) == 3 and 1 not in reads  # f once per sample, in one read per window
    sup_reads = len(reads)
    rows = iter(rows)
    assert next(rows)[0] == "0"
    assert len(calls) == sup_calls + 1
    assert sum(1 for _ in rows) == 599
    assert len(calls) == sup_calls + 600
    assert reads[sup_reads:] == [1] * 600


def test_one_compare_position_takes_one_cos_and_sin_per_pair(monkeypatch):
    path = cli._resolve_path(cli.RunConfig(command="compare", range_r=40.0))
    _, aps = cli._approximants(cli._ESTIMATORS, 9, "interval", path)
    values = cli.evaluator(aps)
    values(-480.0)  # the plans are taken at the first evaluation
    calls = []
    cos, sin = math.cos, math.sin
    monkeypatch.setattr(math, "cos", lambda t: calls.append("cos") or cos(t))
    monkeypatch.setattr(math, "sin", lambda t: calls.append("sin") or sin(t))
    values(-472.5)
    # one pass per approximant took 3 x 81 = 243 of each
    assert calls.count("cos") == calls.count("sin") == 41


def test_singularity_report_defaults(capsys):
    rc, out, _ = run_cli(["singularity"], capsys)
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert config["n"] == 9 and config["samples"] == 800
    assert header == ["window", "sup_error"]
    assert [r[0] for r in rows] == ["default", "shifted"]
    assert extras["segments"] == "27"
    default_err = float(rows[0][1])
    shifted_err = float(rows[1][1])
    assert float(extras["improvement"]) == pytest.approx(
        default_err / shifted_err, rel=1e-9
    )
    assert shifted_err < default_err


def test_singularity_small_run(capsys):
    rc, out, _ = run_cli(
        ["singularity", "--n", "3", "--passes", "10", "--samples", "50"], capsys
    )
    assert rc == 0
    _, extras, _, rows = parse_report(out)
    assert extras["segments"] == "10"
    assert len(rows) == 2


def test_error_bound_report_defaults(capsys):
    rc, out, _ = run_cli(["error-bound"], capsys)
    assert rc == 0
    config, extras, header, rows = parse_report(out)
    assert config["n"] == 3 and config["function"] == "nearest"
    assert extras["segments"] == "17"
    assert header[-2:] == ["cell_within_bound", "pipeline_within_bound"]
    assert rows[0][-2] == "True" and rows[0][-1] == "True"
    assert float(rows[0][2]) == pytest.approx(
        float(rows[0][0]) * 5**0.5 + float(rows[0][1]) * 5**0.5, rel=1e-9
    )


def test_error_bound_interval_function(capsys):
    rc, out, _ = run_cli(
        ["error-bound", "--function", "interval", "--passes", "17"], capsys
    )
    assert rc == 0
    _, extras, _, rows = parse_report(out)
    assert rows[0][-2] == "True" and rows[0][-1] == "True"
    assert float(extras["cell_integral"]) == pytest.approx(1.0, abs=1e-9)


def test_capacity_error_maps_to_exit_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ArithmeticCapacityError("magnitude exceeds float range")

    monkeypatch.setattr(cli, "enumerate_model_set", boom)
    rc, _, err = run_cli(["points", "--lo", "0", "--hi", "1"], capsys)
    assert rc == 2
    assert "magnitude" in err


def test_memory_error_maps_to_exit_two(monkeypatch, tmp_path, capsys):
    def boom(cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_coeffs", boom)
    target = tmp_path / "out.csv"
    rc, out, err = run_cli(["coeffs", "--n", "3", "--out", str(target)], capsys)
    assert rc == 2
    assert err == "error: numeric capacity exceeded: out of memory\n"
    assert out == ""
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [["table1"], ["table2"], ["coeffs", "--n", "3", "--estimator", "all", "--passes", "10"]],
    ids=["table1", "table2", "coeffs-all"],
)
def test_reports_build_every_table_through_build_approximant(argv, monkeypatch, capsys):
    kinds = []
    build = cli.build_approximant

    def counting(kind, freqs, **inputs):
        kinds.append(kind)
        return build(kind, freqs, **inputs)

    def direct(*args):
        raise AssertionError("coefficient computed outside build_approximant")

    monkeypatch.setattr(cli, "build_approximant", counting)
    for name in ("coeff_exact", "coeff_integral", "coeff_sum"):
        monkeypatch.setattr(cli, name, direct)
    rc, _, err = run_cli(argv, capsys)
    assert rc == 0, err
    assert kinds == ["exact", "integral", "sum"]
