import json

import numpy as np
import pytest

import deblur1d as d
from deblur1d.cli import run_cli

COKE = "049000027679"


def test_upc_encode_decode_round_trip(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert run_cli(["upc-encode", "--digits", COKE, "--output", str(out)]) == 0
    values = d.read_vector_csv(out)
    assert values.size == 570
    assert values[:18].tolist() == [1] * 6 + [0] * 6 + [1] * 6
    assert run_cli(["upc-decode", "--input", str(out)]) == 0
    assert capsys.readouterr().out.strip() == COKE


def test_upc_encode_stdout(capsys):
    assert run_cli(["upc-encode", "--digits", COKE, "--points-per-unit", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 95


def test_upc_decode_json_diagnostics(tmp_path, capsys):
    out = tmp_path / "f.csv"
    run_cli(["upc-encode", "--digits", COKE, "--output", str(out)])
    assert run_cli(["upc-decode", "--input", str(out), "--json"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text[text.index("{"):])
    assert payload["digits"] == COKE
    assert payload["check_digit_ok"] is True
    assert len(payload["groups"]) == 12


def test_demo_coke_pipeline(capsys):
    code = run_cli(["demo-coke", "--noise", "1e-8", "--seed", "7", "--lambda", "1e-5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decoded digits : " + COKE in out
    assert "bit mismatches : 0 / 570" in out


def test_demo_coke_huge_noise_fails_gracefully(capsys):
    code = run_cli(["demo-coke", "--noise", "0.5", "--seed", "7", "--lambda", "1e-5"])
    assert code == 2


def test_blur_then_deblur_round_trip(tmp_path):
    b_path = tmp_path / "b.csv"
    f_path = tmp_path / "f.csv"
    assert run_cli(["blur", "--kernel", "hat", "--z", "0.05", "--n", "40",
                    "--output", str(b_path)]) == 0
    assert run_cli(["deblur", "--kernel", "hat", "--z", "0.05",
                    "--input", str(b_path), "--output", str(f_path)]) == 0
    recovered = d.read_vector_csv(f_path)
    truth = d.test_signal(d.make_grid(40)).values
    assert np.abs(recovered - truth).max() < 1e-8


def test_blur_noise_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["blur", "--kernel", "gaussian", "--z", "0.025", "--n", "64",
            "--noise", "1e-3", "--seed", "11"]
    assert run_cli(args + ["--output", str(a)]) == 0
    assert run_cli(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_blur_upc_matches_library_pipeline(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli(["blur", "--kernel", "gaussian", "--z", "0.01",
                    "--upc", COKE, "--output", str(out)]) == 0
    values = d.read_vector_csv(out)
    f_true = d.pattern_to_signal(d.encode_upc(COKE), 6)
    a = d.build_blur_matrix(d.KernelSpec(d.Kernel.GAUSSIAN, 0.01), 570)
    assert np.array_equal(values, d.forward_blur(a, f_true).values)


def test_lcurve_emits_table_and_corner(tmp_path, capsys):
    b_path = tmp_path / "b.csv"
    run_cli(["blur", "--kernel", "hat", "--z", "0.05", "--n", "60",
             "--noise", "1e-4", "--seed", "3", "--output", str(b_path)])
    out = tmp_path / "curve.csv"
    assert run_cli(["lcurve", "--kernel", "hat", "--z", "0.05",
                    "--input", str(b_path), "--lambda-min-exp", "-6",
                    "--lambda-max-exp", "0", "--count", "25",
                    "--corner", "--output", str(out)]) == 0
    headers, data = d.read_table_csv(out)
    assert headers == ["lambda", "residual_norm", "solution_norm"]
    assert data.shape == (25, 3)
    assert np.all(np.diff(data[:, 1]) >= -1e-12)
    assert "suggested corner" in capsys.readouterr().err


def test_svd_analyze_emits_diagnostics(tmp_path):
    b_path = tmp_path / "b.csv"
    run_cli(["blur", "--kernel", "hat", "--z", "0.05", "--n", "50",
             "--output", str(b_path)])
    out = tmp_path / "diag.csv"
    assert run_cli(["svd-analyze", "--kernel", "hat", "--z", "0.05",
                    "--input", str(b_path), "--lambda", "1e-3",
                    "--output", str(out)]) == 0
    headers, data = d.read_table_csv(out)
    assert headers == ["j", "sigma", "abs_coeff", "abs_naive_coeff", "abs_filtered_coeff"]
    assert data.shape == (50, 5)
    assert np.all(np.diff(data[:, 1]) <= 0)


def test_svd_analyze_emits_singular_vectors(tmp_path):
    b_path = tmp_path / "b.csv"
    run_cli(["blur", "--kernel", "hat", "--z", "0.05", "--n", "50",
             "--output", str(b_path)])
    out = tmp_path / "vectors.csv"
    assert run_cli(["svd-analyze", "--kernel", "hat", "--z", "0.05",
                    "--input", str(b_path), "--lambda", "1e-3",
                    "--vectors", "1,2,50", "--output", str(out)]) == 0
    headers, data = d.read_table_csv(out)
    assert headers == ["k", "v1", "v2", "v50"]
    assert data.shape == (50, 4)
    fac = d.svd_econ(d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.05), 50))
    assert np.array_equal(data[:, 1], fac.v[:, 0])
    assert run_cli(["svd-analyze", "--kernel", "hat", "--z", "0.05",
                    "--input", str(b_path), "--lambda", "1e-3",
                    "--vectors", "0"]) == 1
    # the vectors table never reads lambda, so it may be left out
    no_lam = tmp_path / "vectors_no_lambda.csv"
    assert run_cli(["svd-analyze", "--kernel", "hat", "--z", "0.05",
                    "--input", str(b_path), "--vectors", "1,2,50",
                    "--output", str(no_lam)]) == 0
    assert no_lam.read_bytes() == out.read_bytes()
    # every singular vector of a centrosymmetric operator mirrors exactly
    for col in data[:, 1:].T:
        assert np.array_equal(col[::-1], col) or np.array_equal(col[::-1], -col)


def test_blur_save_input_writes_unblurred_signal(tmp_path):
    b_path = tmp_path / "b.csv"
    f_path = tmp_path / "f.csv"
    assert run_cli(["blur", "--kernel", "gaussian", "--n", "30",
                    "--output", str(b_path), "--save-input", str(f_path)]) == 0
    truth = d.test_signal(d.make_grid(30)).values
    assert np.array_equal(d.read_vector_csv(f_path), truth)


def test_svg_emission(tmp_path):
    b_path = tmp_path / "b.csv"
    svg = tmp_path / "b.svg"
    assert run_cli(["blur", "--kernel", "hat", "--n", "30",
                    "--output", str(b_path), "--svg", str(svg)]) == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_csv_write_failure_leaves_no_svg(tmp_path, capsys):
    data = tmp_path / "b.csv"
    d.write_vector_csv(data, d.test_signal(d.make_grid(50)).values)
    svg = tmp_path / "ok.svg"
    bad = str(tmp_path / "missing" / "x.csv")
    commands = (
        ["blur", "--n", "50", "--svg", str(svg), "--output", bad],
        ["deblur", "--kernel", "hat", "--z", "0.05", "--input", str(data),
         "--lambda", "1e-3", "--svg", str(svg), "--output", bad],
        ["lcurve", "--kernel", "hat", "--z", "0.05", "--input", str(data),
         "--count", "10", "--svg", str(svg), "--output", bad],
    )
    for argv in commands:
        assert run_cli(argv) == 3, argv
        assert capsys.readouterr().err.startswith("error: "), argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv"], argv
    # an SVG already there is left untouched, and no temporary is left beside it
    svg.write_text("keep me\n")
    for argv in commands:
        assert run_cli(argv) == 3, argv
        assert svg.read_text() == "keep me\n", argv
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "ok.svg"], argv
    # a successful run replaces it, again with no temporary left behind
    out = tmp_path / "out.csv"
    assert run_cli(["blur", "--n", "50", "--svg", str(svg), "--output", str(out)]) == 0
    assert svg.read_text().startswith("<svg")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv", "ok.svg", "out.csv"]


def test_oversized_operator_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("deblur1d.blur._MAX_MATRIX_BYTES", 8 * 100 * 100)
    out = tmp_path / "b.csv"
    assert run_cli(["blur", "--n", "101", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "needs 81608 bytes" in captured.err
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run_cli(["deblur", "--lambda", "-1", "--input", "whatever.csv"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["blur", "--kernel", "boxcar"]) == 1
    assert run_cli(["upc-encode", "--digits", "123"]) == 1
    assert run_cli(["blur", "--n", "0"]) == 1
    assert run_cli(["blur", "--seed", "-4"]) == 1
    capsys.readouterr()
    data = tmp_path / "b.csv"
    d.write_vector_csv(data, np.linspace(0.0, 1.0, 40))
    zero, one = tmp_path / "zero.csv", tmp_path / "one.csv"
    d.write_vector_csv(zero, np.zeros(40))
    d.write_vector_csv(one, np.ones(1))
    out, svg = str(tmp_path / "out.csv"), str(tmp_path / "out.svg")
    inputs = sorted(tmp_path.iterdir())
    for argv in (
        ["blur", "--noise", "-1"],
        ["lcurve", "--input", str(data), "--count", "1"],
        ["demo-coke", "--noise", "-1"],
        ["demo-coke", "--lambda", "-1"],
        ["svd-analyze", "--input", str(data), "--lambda", "nan"],
        ["svd-analyze", "--input", str(data), "--lambda", "inf"],
        ["svd-analyze", "--input", str(data), "--lambda", "nan", "--vectors", "1"],
        ["svd-analyze", "--input", str(data), "--lambda", "inf", "--vectors", "1"],
        ["svd-analyze", "--input", str(data), "--lambda", "1e-170"],
        ["deblur", "--input", str(data), "--lambda", "1e200", "--method", "normal"],
        ["lcurve", "--input", str(data), "--lambda-max-exp", "160",
         "--output", str(tmp_path / "curve.csv")],
        ["lcurve", "--input", str(tmp_path / "missing.csv"), "--lambda-max-exp", "160"],
        # these fail only once the result is computed, so nothing may be written before
        ["lcurve", "--input", str(data), "--count", "2", "--corner"],
        ["lcurve", "--input", str(zero), "--corner", "--output", out],
        ["lcurve", "--input", str(zero), "--svg", svg, "--output", out],
        ["blur", "--n", "1", "--svg", svg],
        ["deblur", "--lambda", "1e-3", "--input", str(one), "--svg", svg],
        ["blur", "--upc", COKE, "--input", str(data), "--output", out],
        ["svd-analyze", "--input", str(tmp_path / "missing.csv"), "--lambda", "1e-3",
         "--vectors", "abc"],
        # a flag the chosen signal source never reads
        ["blur", "--n", "5", "--upc", COKE],
        ["blur", "--n", "5", "--input", str(data), "--output", out],
        ["blur", "--points-per-unit", "3", "--input", str(data)],
        ["blur", "--points-per-unit", "3", "--n", "40", "--svg", svg],
        # --lambda is required without --vectors, checked before the input is read
        ["svd-analyze", "--input", str(tmp_path / "missing.csv")],
    ):
        assert run_cli(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert sorted(tmp_path.iterdir()) == inputs, argv
    assert not (tmp_path / "curve.csv").exists()


def test_svd_analyze_checks_vectors_before_factoring(tmp_path, monkeypatch, capsys):
    def no_factoring(*_):
        raise AssertionError("svd_econ called")

    monkeypatch.setattr("deblur1d.cli.svd_econ", no_factoring)
    data = tmp_path / "b.csv"
    d.write_vector_csv(data, np.linspace(0.0, 1.0, 40))
    for path, vectors in ((tmp_path / "missing.csv", "abc"), (data, "abc"),
                          (data, "0"), (data, "1,41")):
        argv = ["svd-analyze", "--input", str(path), "--lambda", "1e-3", "--vectors", vectors]
        assert run_cli(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_deblur_with_overflowing_kernel_width_exits_one(tmp_path, capsys):
    # z = 1e-200 squares to 0, so the Gaussian would be 0/0 = NaN
    data = tmp_path / "f.csv"
    d.write_vector_csv(data, np.linspace(0.0, 1.0, 40))
    out = tmp_path / "rec.csv"
    for extra in ([], ["--lambda", "1e-3"]):
        argv = ["deblur", "--kernel", "gaussian", "--z", "1e-200",
                "--input", str(data), "--output", str(out), *extra]
        assert run_cli(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "kernel width z" in captured.err, argv
        assert not out.exists()


def test_out_of_memory_exits_two(monkeypatch, capsys):
    def no_memory(*_):
        raise MemoryError("cannot allocate the blur matrix")

    monkeypatch.setattr("deblur1d.cli.build_blur_matrix", no_memory)
    assert run_cli(["blur", "--n", "10"]) == 2
    assert capsys.readouterr().err == "error: cannot allocate the blur matrix\n"


def test_missing_input_exits_three(tmp_path):
    assert run_cli(["deblur", "--input", str(tmp_path / "nope.csv"),
                    "--lambda", "1e-3"]) == 3


def test_unparseable_input_exits_three(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnot-a-number\n")
    assert run_cli(["deblur", "--input", str(bad), "--lambda", "1e-3"]) == 3


def test_nonfinite_input_exits_three(tmp_path, capsys):
    for token in ("nan", "inf"):
        bad = tmp_path / f"{token}.csv"
        bad.write_text(f"1.0\n{token}\n2.0\n")
        assert run_cli(["lcurve", "--input", str(bad)]) == 3
        assert f"{bad}:2:" in capsys.readouterr().err


def test_computation_error_exits_two(tmp_path):
    flat = tmp_path / "flat.csv"
    d.write_vector_csv(flat, np.ones(95))
    assert run_cli(["upc-decode", "--input", str(flat)]) == 2
