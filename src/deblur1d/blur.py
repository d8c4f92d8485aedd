"""Discretized blur operator and the forward blurring map.

The continuous blur b(s) = integral of h(s, t) f(t) dt is approximated by
the midpoint rule on n cells of width 1/n, which turns the integral into
the matrix-vector product b = A f with

    A[j, k] = h(s_j, t_k) / n.

Both s and t use the same midpoint grid, and every kernel depends only on
|t - s|, so A is symmetric (entry for entry, not just to rounding).  The
matrix is stored dense: the problem sizes of interest stay in the low
thousands, and the spectral analysis downstream needs a dense factorization
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Grid, KernelSpec, eval_kernel, make_grid

__all__ = ["Signal", "as_vector", "build_blur_matrix", "forward_blur", "test_signal"]


@dataclass(frozen=True, eq=False)
class Signal:
    """Real samples on a midpoint grid (one value per grid point)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size != self.grid.n:
            raise ValueError(
                f"signal needs {self.grid.n} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("signal values must all be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.grid.n


def as_vector(x) -> np.ndarray:
    """Return the sample vector of a Signal, or ``x`` itself as a 1-d array."""
    if isinstance(x, Signal):
        return x.values
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def _as_system(a, b=None, *, square=False):
    """Return ``a`` as a nonempty finite float matrix, or ``(a, b)`` with
    ``b`` a finite vector of one entry per row of ``a``; ``square`` also
    requires ``a`` square.  Every solve path checks its operator here only."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must all be finite")
    if b is None:
        return a
    b = as_vector(b)
    if b.size != a.shape[0]:
        raise ValueError(f"matrix has {a.shape[0]} rows but data has {b.size} entries")
    if not np.all(np.isfinite(b)):
        raise ValueError("data entries must all be finite")
    return a, b


def build_blur_matrix(spec: KernelSpec, n: int) -> np.ndarray:
    """Assemble the n-by-n blur matrix A[j, k] = h(s_j, t_k)/n.

    Rows are filled one at a time (a single pass over s_j against the whole
    t grid); building by column or by entry gives the identical matrix.
    """
    grid = make_grid(n)
    s = t = grid.points
    a = np.empty((grid.n, grid.n))
    for j in range(grid.n):
        a[j, :] = eval_kernel(spec, s[j], t) / grid.n
    return a


def forward_blur(a: np.ndarray, f: Signal) -> Signal:
    """Apply the blur: b_j = sum_k A[j, k] f_k.

    No scan of A: matmul and Signal reject a bad shape or a non-finite b."""
    return Signal(f.grid, np.asarray(a, dtype=float) @ f.values)


def test_signal(grid: Grid) -> Signal:
    """Piecewise test image: a down ramp, a step, and a hat.

    The ramp starts at value 1 at t = 0.15 and falls with slope -12; the
    step is the indicator of |t - 0.5| <= 0.1; the hat peaks at t = 0.825
    with slope 10 on each side.  Comparisons are >= / <= so the edge
    samples land exactly on the listed values.
    """
    t = grid.points
    f1 = (t >= 0.15) * np.maximum(1 - 12 * (t - 0.15), 0)
    f2 = np.double(np.abs(t - 0.5) <= 0.1)
    f3 = np.maximum(1 - 10 * np.abs(t - 0.825), 0)
    return Signal(grid, f1 + f2 + f3)
