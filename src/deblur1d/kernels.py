"""Blurring kernels and the midpoint sampling grid on [0, 1].

A blurred signal is the local average of the original against a kernel
weight h(s, t).  Three shapes are provided: a boxcar average over
[s - z, s + z], a triangular (hat) weight on the same support, and a
Gaussian.  All three depend only on |t - s| and carry unit mass over the
real line, so the half-width z controls how far the blur reaches without
changing the overall signal level.

Kernels are defined on all of R^2; nothing clips them to [0, 1]^2.  The
discretization below only ever samples them at grid points inside (0, 1),
and leaving the formulas unrestricted avoids special-casing the
boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Kernel", "KernelSpec", "Grid", "make_grid", "eval_kernel"]

# x^2 and 1/x are normal, finite floats exactly when x lies in this range (both
# ends square exactly into float64's normal range); kernel widths and lambdas obey it.
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
_SQRT_MAX = math.sqrt(np.finfo(float).max)


class Kernel(enum.Enum):
    """Available kernel shapes."""

    AVERAGING = "averaging"
    HAT = "hat"
    GAUSSIAN = "gaussian"

    @classmethod
    def from_name(cls, name: str) -> "Kernel":
        """Look up a kernel by its (case-insensitive) name."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown kernel {name!r}; expected one of: {options}") from None


@dataclass(frozen=True)
class KernelSpec:
    """A kernel shape together with its half-width / spread parameter z, which
    lies in [sqrt(tiny), sqrt(max)] so no kernel evaluates to NaN or inf."""

    kind: Kernel
    z: float = 0.025

    def __post_init__(self):
        if not isinstance(self.kind, Kernel):
            object.__setattr__(self, "kind", Kernel.from_name(str(self.kind)))
        z = float(self.z)
        if not _SQRT_TINY <= z <= _SQRT_MAX:
            raise ValueError(
                f"kernel width z must lie in [{_SQRT_TINY:.4g}, {_SQRT_MAX:.4g}], got {self.z!r}"
            )
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class Grid:
    """n midpoint sample locations (k - 1/2)/n, k = 1..n, on (0, 1)."""

    n: int
    points: np.ndarray


def make_grid(n: int) -> Grid:
    """Build the midpoint grid with points (k - 1/2)/n for k = 1..n.

    The same construction serves both the s (output) and t (input)
    sample locations.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"grid size must be a positive integer, got {n}")
    points = (np.arange(1, n + 1, dtype=float) - 0.5) / n
    points.setflags(write=False)
    return Grid(n=n, points=points)


def eval_kernel(spec: KernelSpec, s, t):
    """Evaluate the kernel density h(s, t) for the given spec.

    Accepts scalars or broadcastable arrays for ``s`` and ``t`` and returns
    a float or an ndarray accordingly.  All arithmetic runs through numpy
    ufuncs so that scalar and vectorized evaluation agree bit for bit.
    """
    z = spec.z
    d = np.abs(np.asarray(t, dtype=float) - np.asarray(s, dtype=float))
    if spec.kind is Kernel.AVERAGING:
        out = np.double(d <= z) / (2 * z)
    elif spec.kind is Kernel.HAT:
        out = np.maximum(0.0, 1.0 - d / z) / z
    else:
        out = np.exp(-(d * d) / (z * z)) / (np.sqrt(np.pi) * z)
    if out.ndim == 0:
        return float(out)
    return out
