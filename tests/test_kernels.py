import math

import numpy as np
import pytest
from scipy.integrate import quad

import deblur1d as d


def test_make_grid_five_matches_tenths():
    g = d.make_grid(5)
    assert g.n == 5
    assert g.points.tolist() == [0.10, 0.30, 0.50, 0.70, 0.90]


def test_make_grid_small_cases():
    assert d.make_grid(1).points.tolist() == [0.5]
    assert d.make_grid(2).points.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_make_grid_points_increase_inside_unit_interval(n):
    p = d.make_grid(n).points
    assert np.all(p > 0) and np.all(p < 1)
    assert np.all(np.diff(p) > 0)


def test_make_grid_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        d.make_grid(0)


def test_kernel_spec_rejects_nonpositive_z():
    # z^2 or 1/z leaves float64's normal range beyond [sqrt(tiny), sqrt(max)]
    for z in (0.0, -0.1, float("nan"), 1e-200, 1e-310, 1e160):
        for kind in d.Kernel:
            with pytest.raises(ValueError):
                d.KernelSpec(kind, z)


def test_kernel_spec_width_bounds_evaluate_finite():
    s = d.make_grid(50).points
    for z in (math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)):
        for kind in d.Kernel:
            assert np.all(np.isfinite(d.eval_kernel(d.KernelSpec(kind, z), s[:, None], s)))


def test_kernel_names_case_insensitive():
    assert d.Kernel.from_name("Gaussian") is d.Kernel.GAUSSIAN
    assert d.Kernel.from_name(" AVERAGING ") is d.Kernel.AVERAGING
    with pytest.raises(ValueError):
        d.Kernel.from_name("boxcar")


def test_averaging_values():
    spec = d.KernelSpec(d.Kernel.AVERAGING, 0.025)
    assert d.eval_kernel(spec, 0.4, 0.4) == 20.0
    assert d.eval_kernel(spec, 0.4, 0.4 + 0.03) == 0.0
    # support is the closed interval |t - s| <= z; probe the boundary with
    # an exactly representable width
    assert d.eval_kernel(d.KernelSpec(d.Kernel.AVERAGING, 0.25), 0.5, 0.75) == 2.0


def test_hat_and_gaussian_peaks():
    assert d.eval_kernel(d.KernelSpec(d.Kernel.HAT, 0.025), 0.3, 0.3) == 40.0
    peak = d.eval_kernel(d.KernelSpec(d.Kernel.GAUSSIAN, 0.01), 0.3, 0.3)
    assert peak == pytest.approx(1 / (math.sqrt(math.pi) * 0.01), rel=1e-14)


def test_kernel_symmetry_exact():
    rng = np.random.default_rng(11)
    for _ in range(200):
        kind = rng.choice(list(d.Kernel))
        spec = d.KernelSpec(kind, float(rng.uniform(0.005, 0.2)))
        s, t = rng.uniform(-0.5, 1.5, size=2)
        assert d.eval_kernel(spec, s, t) == d.eval_kernel(spec, t, s)


def test_monotone_spread_within_support():
    z = 0.05
    ds = np.linspace(0, z * 0.98, 25)
    for kind in (d.Kernel.HAT, d.Kernel.GAUSSIAN):
        spec = d.KernelSpec(kind, z)
        vals = [d.eval_kernel(spec, 0.5, 0.5 + dd) for dd in ds]
        assert np.all(np.diff(vals) < 0)
    spec = d.KernelSpec(d.Kernel.AVERAGING, z)
    vals = [d.eval_kernel(spec, 0.5, 0.5 + dd) for dd in ds]
    assert len(set(vals)) == 1


@pytest.mark.parametrize("kind", list(d.Kernel))
@pytest.mark.parametrize("z", [0.01, 0.025, 0.05])
def test_unit_mass_over_real_line(kind, z):
    spec = d.KernelSpec(kind, z)
    s = 0.37
    # integrand kinks/jumps sit at s and s +- z; the Gaussian tail beyond
    # 5z is below 1e-10
    mass, _ = quad(
        lambda t: d.eval_kernel(spec, s, t),
        s - 5 * z,
        s + 5 * z,
        points=[s - z, s, s + z],
        limit=200,
    )
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_eval_kernel_broadcasts():
    spec = d.KernelSpec(d.Kernel.HAT, 0.1)
    t = np.array([0.1, 0.2, 0.3])
    out = d.eval_kernel(spec, 0.2, t)
    assert out.shape == (3,)
    assert out[1] == 10.0
