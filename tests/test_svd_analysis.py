import numpy as np
import pytest

import deblur1d as d


def test_expansion_of_singular_vector_is_unit_coordinate(hat500):
    c = d.expansion_coefficients(hat500.svd, hat500.svd.u[:, 0])
    e0 = np.zeros(500)
    e0[0] = 1.0
    assert np.abs(c - e0).max() <= 1e-10


def test_expansion_of_zero_is_zero(hat500):
    assert np.all(d.expansion_coefficients(hat500.svd, np.zeros(500)) == 0.0)


def test_expansion_parseval(hat500):
    b = hat500.b.values
    c = d.expansion_coefficients(hat500.svd, b)
    assert c @ c == pytest.approx(b @ b, rel=1e-10)


def test_expansion_dimension_mismatch(hat500):
    with pytest.raises(ValueError):
        d.expansion_coefficients(hat500.svd, np.ones(7))


def test_naive_coefficients_identity_matrix():
    fac = d.svd_econ(np.identity(4))
    b = np.array([4.0, -3.0, 2.0, -1.0])
    assert np.array_equal(
        d.naive_inverse_coefficients(fac, b), d.expansion_coefficients(fac, b)
    )


def test_naive_coefficients_diagonal_example():
    fac = d.svd_econ(np.diag([2.0, 0.5]))
    coeffs = d.naive_inverse_coefficients(fac, [2.0, 1.0])
    assert coeffs.tolist() == [1.0, 2.0]


def test_naive_coefficients_zero_sigma_raises():
    fac = d.svd_econ(np.diag([1.0, 0.0]))
    with pytest.raises(d.SingularComponentError):
        d.naive_inverse_coefficients(fac, [1.0, 1.0])


def test_naive_reassembly_blows_up_on_barcode_matrix(coke570):
    # even the clean blur cannot be naively inverted: rounding noise in the
    # smallest singular values dominates the reassembled solution (rel err
    # ~3.8 and peaks near 10 instead of the true 0/1 range; the exact peak
    # depends on solver rounding)
    f_true = coke570.f_true.values
    coeffs = d.naive_inverse_coefficients(coke570.svd, coke570.b.values)
    f_rec = coke570.svd.v @ coeffs
    assert np.linalg.norm(f_rec - f_true) > np.linalg.norm(f_true)
    assert np.abs(f_rec).max() > 5.0
    # a whiff of noise makes the reassembly explode outright
    b_noise = d.add_noise(coke570.b, d.NoiseSpec(1e-8, 7))
    f_noisy = coke570.svd.v @ d.naive_inverse_coefficients(coke570.svd, b_noise.values)
    assert np.abs(f_noisy).max() > 1e3


def test_filtered_requires_positive_lambda(hat500):
    # lambda^2 must be a normal, finite float: 1e-170 squares to 0 (a zero
    # sigma then gives 0/0) and 1e160 squares to inf
    for lam in (0.0, -1e-3, float("nan"), float("inf"), 1e-170, 1e160):
        with pytest.raises(ValueError):
            d.filtered_coefficients(hat500.svd, hat500.b.values, lam)
    with pytest.raises(ValueError):
        d.filtered_coefficients(d.svd_econ(np.diag([1.0, 0.0])), [1.0, 1.0], 1e-170)


def test_filtered_approaches_naive_for_large_sigma():
    fac = d.svd_econ(np.identity(3))
    b = np.array([1.0, 2.0, 3.0])
    filt = d.filtered_coefficients(fac, b, 1e-8)
    assert np.allclose(filt, d.expansion_coefficients(fac, b), rtol=1e-15)


def test_filtered_is_half_naive_at_sigma_equal_lambda():
    fac = d.svd_econ(np.diag([2.0, 0.5]))
    b = np.array([1.0, 1.0])
    naive = d.naive_inverse_coefficients(fac, b)
    filt = d.filtered_coefficients(fac, b, 0.5)
    assert filt[1] == naive[1] / 2


def test_filtered_assembly_is_bitwise_the_svd_filter_solution(hat500):
    b = hat500.b_noise.values
    lam = 1e-3
    assembled = hat500.svd.v @ d.filtered_coefficients(hat500.svd, b, lam)
    sol = d.tikhonov_solve(hat500.a, b, lam, d.Method.SVD_FILTER, svd=hat500.svd)
    assert np.array_equal(assembled, sol.f_lambda)
    # at lambda = 0 the spectral solve and the all-terms TSVD are one formula
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30)) + 10 * np.identity(30)
    b = rng.standard_normal(30)
    fac = d.svd_econ(a)
    naive = d.tikhonov_solve(a, b, 0.0, d.Method.SVD_FILTER, svd=fac).f_lambda
    assert np.array_equal(d.truncated_svd_solve(fac, b, 30), naive)
    assert np.array_equal(fac.v @ d.naive_inverse_coefficients(fac, b), naive)


def test_smooth_data_coefficients_drop_off(hat500):
    # the clean blurred signal has almost no content in the trailing
    # singular directions; measured ratio is ~2e-6
    c = np.abs(d.expansion_coefficients(hat500.svd, hat500.b.values))
    assert c[450:].max() < 1e-4 * c.max()


def test_noise_coefficients_are_flat(hat500):
    e = d.noise_vector(hat500.b, d.NoiseSpec(1e-3, 42))
    c = np.abs(d.expansion_coefficients(hat500.svd, e))
    lead = np.median(c[:100])
    tail = np.median(c[400:500])
    assert max(lead, tail) / min(lead, tail) < 3.0


def test_leading_singular_vectors_are_smooth(hat500):
    tv = lambda v: np.abs(np.diff(v)).sum()
    assert 10 * tv(hat500.svd.v[:, 0]) < tv(hat500.svd.v[:, 499])


def test_spectral_diagnostics_reconstruction(hat500):
    b = hat500.b.values
    diag = d.spectral_diagnostics(hat500.svd, b, 1e-3)
    recon = hat500.svd.u @ diag.coeff
    assert np.linalg.norm(recon - b) <= 1e-8 * np.linalg.norm(b)
    rows = list(diag.rows())
    assert len(rows) == 500
    assert rows[0][0] == 1
    assert all(len(r) == 5 for r in rows)


def test_spectral_diagnostics_forms_one_expansion(hat500, monkeypatch):
    from deblur1d import svd_analysis

    calls = []
    real = svd_analysis._as_system

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(svd_analysis, "_as_system", counting)
    b = hat500.b_noise.values
    diag = d.spectral_diagnostics(hat500.svd, b, 1e-3)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(diag.coeff, d.expansion_coefficients(hat500.svd, b))
    assert np.array_equal(diag.naive_coeff, d.naive_inverse_coefficients(hat500.svd, b))
    assert np.array_equal(diag.filtered_coeff, d.filtered_coefficients(hat500.svd, b, 1e-3))
