import numpy as np
import pytest

import deblur1d as d
from deblur1d import blur
from oracles import blur_integral_oracle


def test_averaging_matrix_is_banded_with_constant_entries():
    spec = d.KernelSpec(d.Kernel.AVERAGING, 0.025)
    n = 100
    a = d.build_blur_matrix(spec, n)
    pts = d.make_grid(n).points
    for j in range(n):
        inside = np.abs(pts - pts[j]) <= 0.025
        assert np.all(a[j, ~inside] == 0.0)
        assert np.all(a[j, inside] == 0.2)
        assert np.count_nonzero(a[j]) <= 5


def test_gaussian_diagonal_is_peak_over_n(coke570):
    diag = np.diag(coke570.a)
    peak = d.eval_kernel(coke570.spec, 0.5, 0.5) / 570
    assert np.all(diag == peak)
    assert peak == pytest.approx(0.098981, abs=1e-6)


def test_single_point_matrix():
    spec = d.KernelSpec(d.Kernel.HAT, 0.1)
    a = d.build_blur_matrix(spec, 1)
    assert a.shape == (1, 1)
    assert a[0, 0] == d.eval_kernel(spec, 0.5, 0.5) / 1


@pytest.mark.parametrize("kind", list(d.Kernel))
@pytest.mark.parametrize("n", [37, 100])
def test_matrix_symmetry_exact(kind, n):
    a = d.build_blur_matrix(d.KernelSpec(kind, 0.04), n)
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("kind", list(d.Kernel))
def test_row_column_entry_builders_agree_exactly(kind):
    spec = d.KernelSpec(kind, 0.03)
    n = 60
    pts = d.make_grid(n).points
    by_row = d.build_blur_matrix(spec, n)
    by_col = np.empty((n, n))
    for k in range(n):
        by_col[:, k] = d.eval_kernel(spec, pts, pts[k]) / n
    by_entry = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            by_entry[j, k] = d.eval_kernel(spec, pts[j], pts[k]) / n
    assert np.array_equal(by_row, by_col)
    assert np.array_equal(by_row, by_entry)


def test_bandedness_by_kernel():
    n = 80
    z = 0.05
    pts = d.make_grid(n).points
    far = np.abs(pts[:, None] - pts[None, :]) > z
    for kind in (d.Kernel.AVERAGING, d.Kernel.HAT):
        a = d.build_blur_matrix(d.KernelSpec(kind, z), n)
        assert np.all(a[far] == 0.0)
    a = d.build_blur_matrix(d.KernelSpec(d.Kernel.GAUSSIAN, z), n)
    assert np.all(a > 0.0)


def test_matrix_size_guard_refuses_before_allocating(monkeypatch):
    def no_grid(n):
        raise AssertionError("the guard must refuse before anything is built")

    spec = d.KernelSpec(d.Kernel.HAT, 0.1)
    monkeypatch.setattr(blur, "_MAX_MATRIX_BYTES", 8 * 30 * 30)
    assert d.build_blur_matrix(spec, 30).shape == (30, 30)
    monkeypatch.setattr(blur, "make_grid", no_grid)
    with pytest.raises(ValueError, match=r"31x31 blur matrix needs 7688 bytes"):
        d.build_blur_matrix(spec, 31)


def test_forward_blur_identity_and_zero():
    grid = d.make_grid(12)
    f = d.test_signal(grid)
    out = d.forward_blur(np.identity(12), f)
    assert np.array_equal(out.values, f.values)
    zero = d.Signal(grid, np.zeros(12))
    a = d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.1), 12)
    assert np.all(d.forward_blur(a, zero).values == 0.0)


def test_forward_blur_dimension_mismatch():
    f = d.test_signal(d.make_grid(10))
    with pytest.raises(ValueError):
        d.forward_blur(np.identity(11), f)
    with pytest.raises(ValueError):
        d.forward_blur(np.ones((10, 11)), f)


def test_forward_blur_rejects_nonfinite_operator():
    # the inf sits in a column where f is nonzero, so the product is not
    # finite; a zero column is left out because BLAS need not form 0 * inf
    f = d.test_signal(d.make_grid(10))
    k = int(np.flatnonzero(f.values)[0])
    for bad in (np.inf, np.nan):
        a = np.identity(10)
        a[3, k] = bad
        with pytest.raises(ValueError, match="must all be finite"):
            d.forward_blur(a, f)


_HAT20 = d.build_blur_matrix(d.KernelSpec(d.Kernel.HAT, 0.05), 20)
_SVD20 = d.svd_econ(_HAT20)


def _on_u(fn):
    # a spectral entry point, with U of a fixed factorization playing the
    # operator: a bad entry in U is a bad operator entry
    return lambda u, b: fn(d.SvdFactors(u, _SVD20.sigma, _SVD20.v), b), _SVD20.u


_ENTRY_POINTS = {
    "solve_linear": (d.solve_linear, _HAT20),
    "invert": (lambda a, b: d.invert(a), _HAT20),
    "solve_least_squares": (d.solve_least_squares, _HAT20),
    "svd_econ": (lambda a, b: d.svd_econ(a), _HAT20),
    "expansion_coefficients": _on_u(d.expansion_coefficients),
    "naive_inverse_coefficients": _on_u(d.naive_inverse_coefficients),
    "filtered_coefficients": _on_u(lambda s, b: d.filtered_coefficients(s, b, 1e-3)),
    "spectral_diagnostics": _on_u(lambda s, b: d.spectral_diagnostics(s, b, 1e-3)),
    "truncated_svd_solve": _on_u(lambda s, b: d.truncated_svd_solve(s, b, 20)),
}
_TAKES_NO_DATA = {"invert", "svd_econ"}


@pytest.mark.parametrize("name, bad", [
    (name, bad)
    for name in sorted(_ENTRY_POINTS)
    for bad in ("nan in A", "inf in A", "nan in b")
    if not (bad == "nan in b" and name in _TAKES_NO_DATA)
])
def test_every_entry_point_rejects_nonfinite_operator_or_data(name, bad):
    fn, a = _ENTRY_POINTS[name]
    a, b = a.copy(), np.ones(20)
    if bad == "nan in b":
        b[3] = np.nan
    else:
        a[4, 5] = np.nan if bad == "nan in A" else np.inf
    with pytest.raises(ValueError, match="entries must all be finite"):
        fn(a, b)


def test_forward_blur_matches_quadrature_oracle():
    # midpoint rule against adaptive quadrature of the underlying integral
    spec = d.KernelSpec(d.Kernel.GAUSSIAN, 0.025)
    grid = d.make_grid(100)
    b = d.forward_blur(d.build_blur_matrix(spec, 100), d.test_signal(grid))
    exact = blur_integral_oracle(spec, grid.points)
    # measured 4.02e-3 at n = 100; the error scales like n^-2
    assert np.abs(b.values - exact).max() < 5e-3


def test_test_signal_landmark_values():
    # ramp edge t = 0.15 and flat zero t = 0.05 (grid n = 10)
    v10 = d.test_signal(d.make_grid(10)).values
    assert v10[1] == 1.0
    assert v10[0] == 0.0
    # step center t = 0.5 (grid n = 5)
    assert d.test_signal(d.make_grid(5)).values[2] == 1.0
    # hat peak t = 0.825 (grid n = 20)
    assert d.test_signal(d.make_grid(20)).values[16] == 1.0


@pytest.mark.parametrize("kind", list(d.Kernel))
@pytest.mark.parametrize("z", [0.025, 0.05])
def test_blurring_reduces_total_variation(kind, z):
    grid = d.make_grid(100)
    f = d.test_signal(grid)
    b = d.forward_blur(d.build_blur_matrix(d.KernelSpec(kind, z), 100), f)
    tv = lambda v: np.abs(np.diff(v)).sum()
    assert tv(b.values) < tv(f.values)


def test_signal_validation():
    grid = d.make_grid(4)
    with pytest.raises(ValueError):
        d.Signal(grid, [1.0, 2.0])
    with pytest.raises(ValueError):
        d.Signal(grid, [1.0, 2.0, np.inf, 4.0])


def test_as_vector_accepts_signal_and_array():
    grid = d.make_grid(3)
    sig = d.Signal(grid, [1.0, 2.0, 3.0])
    assert np.array_equal(d.as_vector(sig), sig.values)
    assert np.array_equal(d.as_vector([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        d.as_vector(np.ones((2, 2)))
