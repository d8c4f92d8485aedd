import numpy as np
import pytest

import deblur1d as d


def test_logspace_examples():
    assert d.logspace(0, 2, 3).tolist() == [1.0, 10.0, 100.0]
    vals = d.logspace(-7, 0.5, 100)
    assert vals.size == 100
    assert vals[0] == pytest.approx(1e-7, rel=1e-15)
    assert vals[-1] == pytest.approx(10**0.5, rel=1e-15)
    # degenerate constant spacing is allowed
    assert d.logspace(-1, -1, 2).tolist() == [0.1, 0.1]


def test_logspace_rejects_short_counts():
    with pytest.raises(ValueError):
        d.logspace(0, 1, 1)


def test_lcurve_validation():
    with pytest.raises(ValueError):
        d.LCurve(np.array([1.0, 1.0]), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        d.LCurve(np.array([-1.0, 1.0]), np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        d.LCurve(np.array([1.0, 2.0]), np.ones(3), np.ones(2))
    with pytest.raises(ValueError):
        d.LCurve(np.array([1.0, np.inf]), np.ones(2), np.ones(2))


def test_single_lambda_sweep_matches_standalone(hat500):
    # the closed-form sweep against one standalone solve per lambda, over the
    # CLI's default grid, on the hat operator and on the indefinite averaging
    # one; residuals are held to ||b|| because the standalone ||b - A f||
    # cancels at small lambda
    averaging = d.build_blur_matrix(d.KernelSpec(d.Kernel.AVERAGING, 0.05), 200)
    avg_b = d.add_noise(d.forward_blur(averaging, d.test_signal(d.make_grid(200))),
                        d.NoiseSpec(1e-5, 7)).values
    lams = d.logspace(-7, 0.5, 100)
    for a, b, svd in ((hat500.a, hat500.b_noise.values, hat500.svd),
                      (averaging, avg_b, d.svd_econ(averaging))):
        nb = d.vector_norm(b)
        curve = d.lcurve_sweep(a, b, lams)
        for i, lam in enumerate(lams):
            sol = d.tikhonov_solve(a, b, lam, d.Method.SVD_FILTER, svd=svd)
            assert curve.residual_norms[i] == pytest.approx(
                sol.residual_norm, rel=1e-8, abs=1e-12 * nb)
            assert curve.solution_norms[i] == pytest.approx(sol.solution_norm, rel=1e-8)


def test_sweep_monotonicity(hat500):
    lams = d.logspace(-7, 0.5, 100)
    curve = d.lcurve_sweep(hat500.a, hat500.b_noise.values, lams)
    assert np.all(np.diff(curve.residual_norms) >= -1e-12)
    assert np.all(np.diff(curve.solution_norms) <= 1e-12)


def test_sweep_asymptotes(hat500):
    b = hat500.b_noise.values
    nb = d.vector_norm(b)
    curve = d.lcurve_sweep(hat500.a, b, d.logspace(-7, 0.5, 60))
    # bottom-right: residual climbs toward ||b_noise|| as lambda grows; the
    # relative gap 1 - ||b - A f||/||b|| is at most
    # sigma_1^2/(sigma_1^2 + lambda^2) (criterion 10 asserts the same bound),
    # which at lambda = 10^0.5 with sigma_1 = 0.998 is 9.06%, so the
    # residual exceeds 0.9 ||b_noise||; the gap closes only once
    # lambda^2 >> sigma_1^2 (checked at lambda = 1e4)
    assert curve.residual_norms[-1] > 0.9 * nb
    far = d.lcurve_sweep(hat500.a, b, [1e3, 1e4])
    assert far.residual_norms[-1] == pytest.approx(nb, rel=1e-3)
    # top-left: solution norm approaches ||A^-1 b_noise|| from below
    naive_norm = np.linalg.norm(d.solve_linear(hat500.a, b))
    assert curve.solution_norms[0] < naive_norm
    assert curve.solution_norms[0] > 0.99 * naive_norm


def test_sweep_other_methods_agree(hat500):
    b = hat500.b_noise.values
    lams = [1e-2, 1e-1]
    c_svd = d.lcurve_sweep(hat500.a, b, lams, d.Method.SVD_FILTER)
    c_aug = d.lcurve_sweep(hat500.a, b, lams, d.Method.AUGMENTED_LS)
    assert np.allclose(c_svd.residual_norms, c_aug.residual_norms, rtol=1e-8)
    assert np.allclose(c_svd.solution_norms, c_aug.solution_norms, rtol=1e-8)


def test_sweep_requires_sorted_positive_lambdas(hat500, monkeypatch):
    a, b = hat500.a, hat500.b_noise.values

    def no_work(*_):
        raise AssertionError("invalid input must be rejected before any factoring")

    monkeypatch.setattr("deblur1d.lcurve._svd_econ", no_work)
    monkeypatch.setattr("deblur1d.lcurve.tikhonov_solve", no_work)
    bad_calls = [
        (a, b, [1e-2, 1e-3]),
        (a, b, [1e-2, 1e-2]),
        (a, b, [0.0, 1e-2]),
        (a, b, [-1e-2, 1e-2]),
        (a, b, [1e-3, np.inf]),
        (a, b, [np.nan, 1e-2]),
        (a, b, [1.0, 1e160]),
        (a, b, [[1e-3, 1e-2]]),
        (a, b[:-1], [1e-3, 1e-2]),
        (a[:, :-1], b, [1e-3, 1e-2]),
        (a[0], b, [1e-3, 1e-2]),
    ]
    for method in d.Method:
        for args in bad_calls:
            with pytest.raises(ValueError):
                d.lcurve_sweep(*args, method)


def test_corner_collinear_points_tie_to_middle():
    curve = d.LCurve(
        np.array([1.0, 2.0, 3.0]),
        np.array([10.0, 100.0, 1000.0]),
        np.array([1000.0, 100.0, 10.0]),
    )
    assert d.suggest_corner(curve) == 1


def test_corner_right_angle_polyline():
    lams = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    residuals = np.array([1.0, 1.0, 1.0, 10.0, 100.0])
    solutions = np.array([100.0, 10.0, 1.0, 1.0, 1.0])
    curve = d.LCurve(lams, residuals, solutions)
    assert d.suggest_corner(curve) == 2


def test_corner_errors():
    with pytest.raises(ValueError):
        d.suggest_corner(d.LCurve(np.array([1.0, 2.0]), np.ones(2), np.ones(2)))
    flat = d.LCurve(np.array([1.0, 2.0, 3.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        d.suggest_corner(flat)


def test_corner_for_barcode_problem_lies_in_accepted_band(coke570):
    b_noise = d.add_noise(coke570.b, d.NoiseSpec(1e-8, 7))
    lams = d.logspace(-7, 0.5, 100)
    curve = d.lcurve_sweep(coke570.a, b_noise.values, lams)
    i = d.suggest_corner(curve)
    assert 1e-7 <= curve.lambdas[i] <= 1e-3


def test_corner_stable_under_grid_refinement(coke570):
    b_noise = d.add_noise(coke570.b, d.NoiseSpec(1e-8, 7)).values
    coarse = d.lcurve_sweep(coke570.a, b_noise, d.logspace(-7, 0.5, 100))
    fine = d.lcurve_sweep(coke570.a, b_noise, d.logspace(-7, 0.5, 199))
    lam_c = coarse.lambdas[d.suggest_corner(coarse)]
    lam_f = fine.lambdas[d.suggest_corner(fine)]
    step = coarse.lambdas[1] / coarse.lambdas[0]
    ratio = max(lam_c, lam_f) / min(lam_c, lam_f)
    assert ratio <= step * (1 + 1e-9)
