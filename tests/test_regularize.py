import numpy as np
import pytest

import deblur1d as d
from deblur1d import linalg
from oracles import central_difference_gradient


def test_objective_at_exact_solution_is_zero():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (6, 6)) + 3 * np.identity(6)
    f = rng.standard_normal(6)
    b = a @ f
    assert d.objective_phi(a, b, d.solve_linear(a, b), 0.0) <= 1e-20 * (b @ b)


def test_objective_simple_values():
    b = np.array([2.0, -1.0])
    assert d.objective_phi(np.identity(2), b, np.zeros(2), 3.0) == b @ b
    assert d.objective_phi(np.identity(1), [1.0], [1.0], 2.0) == 4.0


def test_objective_rejects_bad_inputs():
    with pytest.raises(ValueError):
        d.objective_phi(np.identity(2), [1.0, 2.0], [1.0], 0.1)
    with pytest.raises(ValueError):
        d.objective_phi(np.identity(2), [1.0, 2.0], [1.0, 2.0], -0.5)


def test_gradient_simple_value():
    g = d.gradient_phi(np.identity(1), [0.0], [1.0], 0.0)
    assert g.tolist() == [2.0]


def test_gradient_vanishes_at_minimizer(hat500):
    sol = d.tikhonov_solve(hat500.a, hat500.b_noise.values, 1e-2)
    g = d.gradient_phi(hat500.a, hat500.b_noise.values, sol.f_lambda, 1e-2)
    scale = np.linalg.norm(hat500.a.T @ hat500.b_noise.values)
    assert np.linalg.norm(g) <= 1e-8 * scale


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for _ in range(50):
        a = rng.standard_normal((7, 7))
        b = rng.standard_normal(7)
        f = rng.standard_normal(7)
        lam = float(rng.uniform(0, 2))
        g = d.gradient_phi(a, b, f, lam)
        g_fd = central_difference_gradient(a, b, f, lam)
        assert np.linalg.norm(g_fd - g) <= 1e-6 * np.linalg.norm(g)


def test_lambda_zero_recovers_direct_solve():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (10, 10)) + 3 * np.identity(10)
    b = rng.standard_normal(10)
    x = d.solve_linear(a, b)
    for method in d.Method:
        f = d.tikhonov_solve(a, b, 0.0, method).f_lambda
        assert np.linalg.norm(f - x) <= 1e-8 * np.linalg.norm(x)


def test_huge_lambda_suppresses_solution(hat500):
    b = hat500.b_noise.values
    lam = 1e6
    sol = d.tikhonov_solve(hat500.a, b, lam, d.Method.SVD_FILTER, svd=hat500.svd)
    assert sol.solution_norm <= 2 * np.linalg.norm(hat500.a.T @ b) / lam**2
    assert sol.residual_norm == pytest.approx(d.vector_norm(b), rel=1e-3)


def test_moderate_lambda_reconstructs_but_tiny_lambda_fails(hat500):
    b = hat500.b_noise.values
    f_true = hat500.f.values
    scale = np.linalg.norm(f_true)
    for lam, good in ((1e-5, False), (1e-2, True), (1e-1, True)):
        sol = d.tikhonov_solve(hat500.a, b, lam, d.Method.SVD_FILTER, svd=hat500.svd)
        rel = np.linalg.norm(sol.f_lambda - f_true) / scale
        if good:
            assert rel < 0.5
        else:
            assert rel > 1.0


@pytest.mark.parametrize("lam", [1e-3, 1e-2, 1e-1, 1.0])
def test_three_methods_agree(hat500, lam):
    b = hat500.b_noise.values
    sols = [
        d.tikhonov_solve(hat500.a, b, lam, m, svd=hat500.svd).f_lambda for m in d.Method
    ]
    scale = np.linalg.norm(sols[0])
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            assert np.linalg.norm(sols[i] - sols[j]) <= 1e-6 * scale


def test_solution_is_a_local_minimum(hat500):
    b = hat500.b_noise.values
    sol = d.tikhonov_solve(hat500.a, b, 1e-2, d.Method.SVD_FILTER, svd=hat500.svd)
    phi0 = d.objective_phi(hat500.a, b, sol.f_lambda, 1e-2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        delta = rng.standard_normal(sol.f_lambda.size)
        delta *= 1e-3 * sol.solution_norm / np.linalg.norm(delta)
        assert d.objective_phi(hat500.a, b, sol.f_lambda + delta, 1e-2) >= phi0


def test_monotone_tradeoff_in_lambda(hat500):
    b = hat500.b_noise.values
    lams = d.logspace(-6, 1, 25)
    sols = [d.tikhonov_solve(hat500.a, b, float(l), d.Method.SVD_FILTER, svd=hat500.svd)
            for l in lams]
    res = np.array([s.residual_norm for s in sols])
    nrm = np.array([s.solution_norm for s in sols])
    assert np.all(np.diff(res) >= -1e-12)
    assert np.all(np.diff(nrm) <= 1e-12)


def test_recorded_norms_match_recomputation(hat500):
    b = hat500.b_noise.values
    sol = d.tikhonov_solve(hat500.a, b, 1e-3)
    res = d.vector_norm(b - hat500.a @ sol.f_lambda)
    assert sol.residual_norm == pytest.approx(res, rel=1e-10)
    assert sol.solution_norm == pytest.approx(d.vector_norm(sol.f_lambda), rel=1e-10)


def test_error_conditions():
    a = np.identity(3)
    b = np.ones(3)
    with pytest.raises(ValueError):
        d.tikhonov_solve(a, b, -1.0)
    for method in d.Method:
        with pytest.raises(ValueError):
            d.tikhonov_solve(np.zeros((0, 0)), np.zeros(0), 1.0, method)
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(d.SingularMatrixError):
        d.tikhonov_solve(singular, [1.0, 1.0], 0.0, d.Method.NORMAL_EQUATIONS)
    nearly = np.diag([1.0, 1e-20])
    with pytest.raises(d.SingularComponentError):
        d.tikhonov_solve(nearly, [1.0, 1.0], 0.0, d.Method.SVD_FILTER)


def _with_entry(arr, index, value):
    arr = arr.copy()
    arr[index] = value
    return arr


def test_nonfinite_operator_or_data_rejected_by_every_method():
    a = d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.05), 20)
    b = d.forward_blur(a, d.test_signal(d.make_grid(20))).values
    f = np.ones(20)
    for a_bad, b_bad in ((a, _with_entry(b, 3, np.nan)),
                         (_with_entry(a, (4, 5), np.nan), b),
                         (_with_entry(a, (4, 5), np.inf), b)):
        for method in d.Method:
            with pytest.raises(ValueError, match="entries must all be finite"):
                d.tikhonov_solve(a_bad, b_bad, 1e-3, method)
            with pytest.raises(ValueError, match="entries must all be finite"):
                d.lcurve_sweep(a_bad, b_bad, [1e-3, 1e-2], method)
        with pytest.raises(ValueError, match="entries must all be finite"):
            d.tikhonov_solve(a_bad, b_bad, 1e-3, d.Method.SVD_FILTER, svd=d.svd_econ(a))
        with pytest.raises(ValueError, match="entries must all be finite"):
            d.objective_phi(a_bad, b_bad, f, 1e-3)
        with pytest.raises(ValueError, match="entries must all be finite"):
            d.gradient_phi(a_bad, b_bad, f, 1e-3)


def test_objective_and_gradient_reject_nonfinite_iterate():
    a = np.identity(3)
    b = np.ones(3)
    f = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError, match="entries must all be finite"):
        d.objective_phi(a, b, f, 1e-3)
    with pytest.raises(ValueError, match="entries must all be finite"):
        d.gradient_phi(a, b, f, 1e-3)


def test_augmented_path_beats_normal_equations_near_singularity():
    # ill-conditioned 2x2 with a tiny lambda: the normal equations lose
    # half the digits, the augmented least-squares path does not
    a = np.array([[1.0, 1.0], [1.0 + 1e-6, 1.0 - 1e-6]])
    b = np.array([1.0, 1.0])
    lam = 1e-8
    reference = d.tikhonov_solve(a, b, lam, d.Method.SVD_FILTER).f_lambda
    f_aug = d.tikhonov_solve(a, b, lam, d.Method.AUGMENTED_LS).f_lambda
    f_ne = d.tikhonov_solve(a, b, lam, d.Method.NORMAL_EQUATIONS).f_lambda
    aug_dev = np.abs(f_aug - reference).max()
    ne_dev = np.abs(f_ne - reference).max()
    assert aug_dev < 1e-8  # agrees with the spectral reference to 8 decimals
    assert ne_dev > aug_dev


def _blurred(kind, z, n):
    a = d.build_blur_matrix(d.KernelSpec(kind, z), n)
    return a, d.forward_blur(a, d.test_signal(d.make_grid(n))).values


def _centrosymmetric(n, seed):
    r = np.random.default_rng(seed).standard_normal((n, n))
    return r + r[::-1, ::-1], np.random.default_rng(seed + 1).standard_normal(n)


@pytest.mark.parametrize("a, b, lam", [
    (*_blurred(d.Kernel.GAUSSIAN, 0.01, 570), 1e-5),
    (*_blurred(d.Kernel.GAUSSIAN, 0.01, 570), 1e-2),
    (*_blurred(d.Kernel.HAT, 0.05, 501), 1e-3),
    (*_centrosymmetric(2, 5), 1e-3),
    (*_centrosymmetric(3, 6), 1e-3),
    (np.array([[2.0]]), np.array([3.0]), 0.5),
], ids=["gauss570-1e-5", "gauss570-1e-2", "hat501", "n2", "n3", "n1"])
def test_augmented_split_matches_full_qr(a, b, lam):
    # the centrosymmetric random matrices are not symmetric, so the fold
    # must not lean on A = A^T
    n = a.shape[0]
    full = d.solve_least_squares(np.vstack([a, lam * np.identity(n)]),
                                 np.concatenate([b, np.zeros(n)]))
    f = d.tikhonov_solve(a, b, lam, d.Method.AUGMENTED_LS).f_lambda
    assert np.linalg.norm(f - full) <= 1e-9 * np.linalg.norm(full)


@pytest.mark.parametrize("a, shapes", [
    (_blurred(d.Kernel.GAUSSIAN, 0.01, 570)[0], [(570, 286), (570, 286)]),
    (_blurred(d.Kernel.HAT, 0.05, 501)[0], [(502, 252), (500, 251)]),
    (np.random.default_rng(8).standard_normal((40, 40)), [(80, 41)]),
    # band edge decided by rounding: off JAJ by a whole entry
    (_blurred(d.Kernel.AVERAGING, 0.05, 200)[0], [(400, 201)]),
], ids=["gauss570", "hat501", "random40", "averaging200"])
def test_augmented_splits_exactly_when_centrosymmetric(monkeypatch, a, shapes):
    qr = np.linalg.qr
    seen = []

    def spy(m, mode="reduced"):
        seen.append(m.shape)
        return qr(m, mode=mode)

    monkeypatch.setattr(linalg.np.linalg, "qr", spy)
    d.tikhonov_solve(a, np.ones(a.shape[0]), 1e-3, d.Method.AUGMENTED_LS)
    assert seen == shapes


@pytest.mark.parametrize("a", [np.array([[1.0 + 1e-15, 1.0], [1.0, 1.0 + 1e-15]]),
                               np.ones((2, 2))])
def test_augmented_split_rank_check_uses_full_scale(a):
    # the antisymmetric half is about 1e-15 against max|A| = 1; held to its
    # own scale it would pass and return entries of about 4.5e14
    with pytest.raises(d.RankDeficientError):
        d.tikhonov_solve(a, [1.0, 2.0], 0.0, d.Method.AUGMENTED_LS)


def test_augmented_solve_checks_its_input_once(monkeypatch, hat500):
    calls = []
    check = linalg._as_system

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(linalg, "_as_system", counting)
    d.tikhonov_solve(hat500.a, hat500.b_noise.values, 1e-2, d.Method.AUGMENTED_LS)
    d.tikhonov_solve(np.random.default_rng(9).standard_normal((6, 6)), np.ones(6), 1e-2,
                     d.Method.AUGMENTED_LS)
    assert calls == []


def test_svd_paths_check_their_input_once(monkeypatch, hat500):
    # tikhonov_solve and lcurve_sweep check A themselves, then factor it
    # through the unchecked core of svd_econ
    calls = []
    check = linalg._as_system

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(linalg, "_as_system", counting)
    b = hat500.b_noise.values
    d.tikhonov_solve(hat500.a, b, 1e-2, d.Method.SVD_FILTER)
    d.lcurve_sweep(hat500.a, b, [1e-3, 1e-2], d.Method.SVD_FILTER)
    assert calls == []


def test_truncated_svd_full_rank_equals_direct_solve():
    rng = np.random.default_rng(4)
    a = rng.uniform(-1, 1, (10, 10)) + 3 * np.identity(10)
    b = rng.standard_normal(10)
    f = d.truncated_svd_solve(d.svd_econ(a), b, 10)
    x = d.solve_linear(a, b)
    assert np.linalg.norm(f - x) <= 1e-8 * np.linalg.norm(x)


def test_truncated_svd_first_term_is_along_v1(hat500):
    b = hat500.b_noise.values
    f = d.truncated_svd_solve(hat500.svd, b, 1)
    coeff = (hat500.svd.u[:, 0] @ b) / hat500.svd.sigma[0]
    assert np.array_equal(f, hat500.svd.v[:, 0] * coeff)


def test_truncated_svd_residual_monotone_in_k():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    fac = d.svd_econ(a)
    residuals = [
        np.linalg.norm(b - a @ d.truncated_svd_solve(fac, b, k)) for k in range(1, 13)
    ]
    assert np.all(np.diff(residuals) <= 1e-12)


def test_truncated_svd_errors():
    fac = d.svd_econ(np.diag([2.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        d.truncated_svd_solve(fac, np.ones(3), 0)
    with pytest.raises(ValueError):
        d.truncated_svd_solve(fac, np.ones(3), 4)
    with pytest.raises(ValueError):
        d.truncated_svd_solve(fac, np.ones(4), 2)
    with pytest.raises(d.SingularComponentError):
        d.truncated_svd_solve(fac, np.ones(3), 3)
    # k below the zero singular value is fine
    d.truncated_svd_solve(fac, np.ones(3), 2)
