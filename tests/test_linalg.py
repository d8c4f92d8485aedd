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


def _fold_matrix(n):
    # P = [[I, I], [J, -J]]/sqrt(2) as an explicit n-by-n matrix: symmetric
    # columns first (the centre of an odd n among them), then antisymmetric
    m, k = n // 2, n - n // 2
    p = np.zeros((n, n))
    for i in range(m):
        p[i, i] = p[n - 1 - i, i] = np.sqrt(0.5)
        p[i, k + i] = np.sqrt(0.5)
        p[n - 1 - i, k + i] = -np.sqrt(0.5)
    if n % 2:
        p[m, m] = 1.0
    return p


@pytest.mark.parametrize("n", [2, 3, 8, 9, 40, 41])
def test_centro_halves_block_diagonalize(n):
    r = np.random.default_rng(n).standard_normal((n, n))
    a = r + r[::-1, ::-1]  # centrosymmetric but not symmetric
    p = _fold_matrix(n)
    assert np.abs(p.T @ p - np.identity(n)).max() <= 4e-16
    m_sym, m_anti = linalg._centro_halves(a, np.abs(a).max())
    k = n - n // 2
    assert m_sym.shape == (k, k) and m_anti.shape == (n // 2, n // 2)
    expected = np.zeros((n, n))
    expected[:k, :k] = m_sym
    expected[k:, k:] = m_anti
    assert np.abs(p.T @ a @ p - expected).max() <= 8 * n * np.finfo(float).eps * np.abs(a).max()
    # the identity folds to the identity exactly
    m_sym, m_anti = linalg._centro_halves(np.identity(n), 1.0)
    assert np.array_equal(m_sym, np.identity(k))
    assert np.array_equal(m_anti, np.identity(n // 2))


def test_centro_halves_refuse_other_matrices():
    assert linalg._centro_halves(np.array([[2.0]]), 2.0) is None
    a = np.random.default_rng(3).standard_normal((6, 6))
    assert linalg._centro_halves(a, np.abs(a).max()) is None


@pytest.mark.parametrize("n, z", [(8, 0.3), (9, 0.3), (570, 0.03), (571, 0.03)])
def test_svd_centrosymmetric_vectors_mirror_exactly(n, z):
    a = d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, z), n)
    fac = d.svd_econ(a)
    for j in range(n):
        v = fac.v[:, j]
        assert np.array_equal(v[::-1], v) or np.array_equal(v[::-1], -v), j
    # mirrored entries tie exactly in magnitude, and the first of them is positive
    assert np.all(fac.v[np.argmax(np.abs(fac.v), axis=0), np.arange(n)] > 0)
    assert np.array_equal(np.abs(fac.u), np.abs(fac.v))
    sigma = np.linalg.svd(a, compute_uv=False)
    assert np.abs(fac.sigma - sigma).max() <= 1e-14 * sigma[0]
    assert np.linalg.norm(a - (fac.u * fac.sigma) @ fac.v.T) <= 1e-13 * np.linalg.norm(a)
    assert np.abs(fac.v.T @ fac.v - np.identity(n)).max() <= 1e-13
    assert np.abs(fac.u.T @ fac.u - np.identity(n)).max() <= 1e-13


@pytest.mark.parametrize("n", [4, 5])
def test_svd_equal_sigma_keep_the_fold_order(n):
    # every sigma of I ties: the symmetric half's vectors come first, each
    # positive at its lowest index
    fac = d.svd_econ(np.identity(n))
    assert np.array_equal(fac.sigma, np.ones(n))
    assert np.array_equal(fac.v, _fold_matrix(n))
    assert np.array_equal(fac.u, fac.v)


def _off_mirror(a, by):
    # a symmetric copy of a whose (0, 1) and (1, 0) entries leave JAJ by `by`
    a = a.copy()
    a[0, 1] = a[1, 0] = a[0, 1] + by
    return a


_HAT40 = d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.05), 40)
_TOL40 = 40 * np.finfo(float).eps * np.abs(_HAT40).max()


@pytest.mark.parametrize("a, shapes", [
    (d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.03), 570), [(285, 285), (285, 285)]),
    (d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.03), 571), [(286, 286), (285, 285)]),
    (_off_mirror(_HAT40, 0.5 * _TOL40), [(20, 20), (20, 20)]),
    (_off_mirror(_HAT40, 2.0 * _TOL40), [(40, 40)]),
    (_symmetric_indefinite(4, 12), [(12, 12)]),
], ids=["hat570", "hat571", "hat40-within-tol", "hat40-beyond-tol", "random12"])
def test_svd_splits_eigh_only_when_centrosymmetric(monkeypatch, a, shapes):
    eigh = np.linalg.eigh
    seen = []

    def spy(m):
        seen.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(linalg.np.linalg, "eigh", spy)
    _check_contract(a, d.svd_econ(a))
    assert seen == shapes
