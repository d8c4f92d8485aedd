import numpy as np
import pytest

import deblur1d as d
from deblur1d import linalg

A22 = np.array([[1.0, -0.05], [1.0, 0.05]])


def test_solve_two_by_two_worked_example():
    x = d.solve_linear(A22, [0.95, 1.05])
    assert np.allclose(x, [1.0, 1.0], atol=1e-12, rtol=0)
    x = d.solve_linear(A22, [0.9375, 1.0625])
    assert np.allclose(x, [1.0, 1.25], atol=1e-12, rtol=0)


def test_solve_identity_returns_rhs():
    b = np.array([3.0, -1.0, 7.0])
    assert np.allclose(d.solve_linear(np.identity(3), b), b, atol=0, rtol=1e-15)


def test_invert_two_by_two():
    assert np.allclose(d.invert(A22), [[0.5, 0.5], [-10.0, 10.0]], atol=1e-12, rtol=0)
    a = np.array([[1.0, -0.001], [1.0, 0.001]])
    assert np.allclose(d.invert(a), [[0.5, 0.5], [-500.0, 500.0]], atol=1e-9, rtol=0)
    assert np.allclose(d.invert(np.identity(4)), np.identity(4), atol=0, rtol=0)


def test_exactly_singular_raises():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(d.SingularMatrixError):
        d.solve_linear(singular, [1.0, 2.0])
    with pytest.raises(d.SingularMatrixError):
        d.invert(singular)


def test_solve_shape_validation():
    with pytest.raises(ValueError):
        d.solve_linear(np.ones((2, 3)), [1.0, 2.0])
    with pytest.raises(ValueError):
        d.solve_linear(np.identity(2), [1.0, 2.0, 3.0])


def test_least_squares_mean_and_orthogonal_residual():
    assert d.solve_least_squares([[1.0], [1.0]], [0.0, 2.0]) == pytest.approx([1.0])
    x = d.solve_least_squares([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [3.0, 4.0, 7.0])
    assert np.allclose(x, [3.0, 4.0], atol=1e-14, rtol=0)


def test_least_squares_consistent_square_system():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (8, 8)) + 3 * np.identity(8)
    b = rng.standard_normal(8)
    x_ls = d.solve_least_squares(a, b)
    x_ge = d.solve_linear(a, b)
    assert np.linalg.norm(x_ls - x_ge) <= 1e-10 * np.linalg.norm(x_ge)


def test_least_squares_rank_deficient_raises():
    m = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(d.RankDeficientError):
        d.solve_least_squares(m, [1.0, 1.0, 0.0])
    # third column = first + second: the pivot named is the third one
    rng = np.random.default_rng(12)
    m = rng.standard_normal((5, 2))
    m = np.column_stack([m, m[:, 0] + m[:, 1]])
    with pytest.raises(d.RankDeficientError, match=r"\|r\[2,2\]\|"):
        d.solve_least_squares(m, rng.standard_normal(5))


def _augmented_hat_system(n, lam):
    a = d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.05), n)
    b = d.forward_blur(a, d.test_signal(d.make_grid(n))).values
    return np.vstack([a, lam * np.identity(n)]), np.concatenate([b, np.zeros(n)])


def test_least_squares_agrees_with_lstsq():
    rng = np.random.default_rng(11)
    cases = [(rng.uniform(0.5, 2.0, (1, 1)), rng.standard_normal(1)),
             (rng.uniform(-1, 1, (8, 8)) + 3 * np.identity(8), rng.standard_normal(8)),
             (rng.standard_normal((40, 7)), rng.standard_normal(40)),
             _augmented_hat_system(570, 1e-3)]
    for m, rhs in cases:
        x = d.solve_least_squares(m, rhs)
        ref = np.linalg.lstsq(m, rhs, rcond=None)[0]
        tol = 1e-12 * np.linalg.cond(m) * np.linalg.norm(ref)
        assert np.linalg.norm(x - ref) <= tol, m.shape


def test_least_squares_takes_one_r_only_qr(monkeypatch):
    qr = np.linalg.qr
    calls = []

    def spy(a, mode="reduced"):
        calls.append(mode)
        return qr(a, mode=mode)

    def no_solve(*_):
        raise AssertionError("solve_least_squares must not call np.linalg.solve")

    monkeypatch.setattr(linalg.np.linalg, "qr", spy)
    monkeypatch.setattr(linalg.np.linalg, "solve", no_solve)
    x = d.solve_least_squares([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]], [3.0, 4.0, 7.0])
    assert np.allclose(x, [3.0, 2.0], atol=1e-14, rtol=0)
    assert calls == ["r"]


def test_least_squares_requires_tall_matrix():
    with pytest.raises(ValueError):
        d.solve_least_squares(np.ones((2, 3)), [1.0, 2.0])


def test_svd_diagonal_matrix():
    fac = d.svd_econ(np.diag([3.0, 1.0]))
    assert fac.sigma.tolist() == [3.0, 1.0]
    assert np.allclose(fac.u, np.identity(2), atol=1e-14, rtol=0)
    assert np.allclose(fac.v, np.identity(2), atol=1e-14, rtol=0)


def test_svd_rectangular_singular_values():
    fac = d.svd_econ([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(fac.sigma, [2.0, 1.0], atol=1e-14, rtol=0)


def test_svd_blur_matrix_decay(hat500):
    sigma = hat500.svd.sigma
    assert sigma[0] / sigma[-1] > 1e5


def _check_contract(a, fac):
    n = a.shape[1]
    norm = np.linalg.norm(a, "fro")
    assert np.all(np.diff(fac.sigma) <= 0)
    assert np.all(fac.sigma >= 0)
    assert np.abs(fac.u.T @ fac.u - np.identity(n)).max() <= 1e-10
    assert np.abs(fac.v.T @ fac.v - np.identity(n)).max() <= 1e-10
    recon = fac.u @ np.diag(fac.sigma) @ fac.v.T
    assert np.linalg.norm(a - recon, "fro") <= 1e-10 * max(1.0, norm)
    residuals = np.linalg.norm(a @ fac.v - fac.u * fac.sigma, axis=0)
    assert residuals.max() <= 1e-10 * fac.sigma[0]
    reference = np.linalg.svd(a, compute_uv=False)
    assert np.abs(fac.sigma - reference).max() <= 1e-13 * fac.sigma[0]


def _symmetric_indefinite(seed, n):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return m + m.T


def test_svd_contract_random_rectangles():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a = rng.standard_normal((30, 20))
        _check_contract(a, d.svd_econ(a))


def test_svd_contract_blur_matrix(hat500):
    _check_contract(hat500.a, hat500.svd)
    # exactly symmetric but indefinite: these take the eigh route, and the
    # negative eigenvalues must come back as sigma = |w|, u_j = -v_j
    averaging = d.build_blur_matrix(d.KernelSpec(d.Kernel.AVERAGING, 0.05), 200)
    for a in (averaging, _symmetric_indefinite(31, 40)):
        assert np.linalg.eigvalsh(a).min() < 0
        _check_contract(a, d.svd_econ(a))


def test_svd_sign_convention_deterministic():
    rectangular = np.random.default_rng(8).standard_normal((15, 10))
    symmetric = _symmetric_indefinite(8, 10)
    for a in (rectangular, symmetric):
        f1 = d.svd_econ(a)
        f2 = d.svd_econ(a.copy())
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.v, f2.v)
        lead = np.argmax(np.abs(f1.v), axis=0)
        assert np.all(f1.v[lead, np.arange(10)] > 0)
    # the symmetric input takes the eigh route: u_j = sign(w_j) v_j exactly,
    # not just to rounding, and some w_j are negative
    fac = d.svd_econ(symmetric)
    assert np.array_equal(np.abs(fac.u), np.abs(fac.v))
    assert np.any(fac.u[0] != fac.v[0])


def test_svd_requires_tall_input_and_finite_entries():
    with pytest.raises(ValueError):
        d.svd_econ(np.ones((2, 3)))
    with pytest.raises(ValueError):
        d.svd_econ(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_symmetric_matrix_matching_singular_vectors(hat500):
    fac = hat500.svd
    sigma = fac.sigma
    # skip near-zero and clustered singular values: vectors inside a
    # degenerate subspace are not individually determined
    gaps = np.minimum(
        np.abs(np.diff(sigma, prepend=np.inf)), np.abs(np.diff(sigma, append=-np.inf))
    )
    mask = (sigma > 1e-8 * sigma[0]) & (gaps > 1e-6 * sigma[0])
    assert mask.sum() > 100
    dots = np.abs(np.einsum("ij,ij->j", fac.u, fac.v))
    assert np.abs(dots[mask] - 1.0).max() <= 1e-6


def test_round_trip_recovery_well_conditioned():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 21))
        a = rng.uniform(-1, 1, (n, n)) + 3 * np.identity(n)
        x = rng.standard_normal(n)
        x_rec = d.solve_linear(a, a @ x)
        assert np.linalg.norm(x_rec - x) <= 1e-8 * np.linalg.norm(x)
        assert np.abs(d.invert(a) @ a - np.identity(n)).max() <= 1e-8
