"""Spectral diagnostics: expansion coefficients and filter factors.

With A = U diag(sigma) V^T and square A, any data vector expands as
b = sum_j (u_j^T b) u_j, and the naive inverse solution carries
coefficients (u_j^T b)/sigma_j against the v_j basis.  Comparing how fast
|u_j^T b| decays against sigma_j explains when that inversion is usable:
smooth data loses its high-j content faster than the singular values do,
while additive noise contributes roughly equally at every j and gets
amplified without bound once sigma_j drops below the noise floor.

Regularization replaces 1/sigma_j by sigma_j/(sigma_j^2 + lambda^2), which
matches 1/sigma_j for sigma_j >> lambda and rolls off to zero as
sigma_j -> 0.  All quantities here are cheap given one shared
:class:`~deblur1d.linalg.SvdFactors`, so a single factorization serves
every diagnostic and every lambda.  The ``SVD_FILTER`` and TSVD solves are
V times coefficients from here, and the L-curve uses the same Tikhonov filter.

Zero-sigma policy: :func:`naive_inverse_coefficients` is the only division
by sigma, and an exactly zero sigma among the terms it keeps raises
:class:`~deblur1d.errors.SingularComponentError`.  The lambda = 0
``SVD_FILTER`` solve also refuses sigma_n <= 1e-14 * sigma_1.  For
lambda > 0 the divisor is sigma^2 + lambda^2, never sigma alone.

Lambda policy: every solve path accepts a lambda only through
:func:`_check_lambdas`, which keeps lambda^2 a normal, finite float, so the
divisor above is never 0/0 or inf/inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blur import _as_system
from .errors import SingularComponentError
from .kernels import _SQRT_MAX, _SQRT_TINY
from .linalg import SvdFactors

__all__ = [
    "expansion_coefficients",
    "naive_inverse_coefficients",
    "filtered_coefficients",
    "SpectralDiagnostics",
    "spectral_diagnostics",
]


def _check_lambdas(lam, zero_ok=False):
    """Return ``lam`` as a float (or float array) once each value lies in
    [_SQRT_TINY, _SQRT_MAX], or is 0 where ``zero_ok``; raise ValueError otherwise.

    The bounds are compared, never squared: squaring 1e160 would itself
    overflow.  NaN fails every comparison and is rejected with the rest.
    """
    arr = np.asarray(lam, dtype=float)
    ok = (arr >= _SQRT_TINY) & (arr <= _SQRT_MAX)
    if zero_ok:
        ok |= arr == 0.0
    if not np.all(ok):
        sign = "nonnegative: 0 or" if zero_ok else "positive:"
        raise ValueError(
            f"lambda must be {sign} in [{_SQRT_TINY:.4g}, {_SQRT_MAX:.4g}], "
            f"got {float(arr[~ok][0])!r}"
        )
    return float(arr) if arr.ndim == 0 else arr


def expansion_coefficients(svd: SvdFactors, x) -> np.ndarray:
    """Coefficients u_j^T x of ``x`` against the left singular vectors."""
    u, x = _as_system(svd.u, x)
    return u.T @ x


def naive_inverse_coefficients(svd: SvdFactors, b) -> np.ndarray:
    """Coefficients (u_j^T b)/sigma_j of the unregularized solution.

    Assembling sum_j of these against v_j reproduces the direct solve up to
    conditioning-limited error, including its blow-up when small sigma_j
    meet data that is not correspondingly small.
    """
    if np.any(svd.sigma == 0.0):
        raise SingularComponentError("zero singular value; naive inversion undefined")
    return expansion_coefficients(svd, b) / svd.sigma


def _tikhonov_inverse_filter(sigma, lam):
    return sigma / (sigma * sigma + lam * lam)


def filtered_coefficients(svd: SvdFactors, b, lam: float) -> np.ndarray:
    """Regularized coefficients (u_j^T b) * sigma_j/(sigma_j^2 + lambda^2)."""
    lam = _check_lambdas(lam)
    return expansion_coefficients(svd, b) * _tikhonov_inverse_filter(svd.sigma, lam)


@dataclass(frozen=True)
class SpectralDiagnostics:
    """Per-index spectral table for one data vector and one lambda."""

    lam: float
    sigma: np.ndarray
    coeff: np.ndarray
    naive_coeff: np.ndarray
    filtered_coeff: np.ndarray

    def rows(self):
        """Magnitude rows (j, sigma, |coeff|, |naive|, |filtered|), j 1-based."""
        for j in range(self.sigma.size):
            yield (
                j + 1,
                float(self.sigma[j]),
                float(abs(self.coeff[j])),
                float(abs(self.naive_coeff[j])),
                float(abs(self.filtered_coeff[j])),
            )


def spectral_diagnostics(svd: SvdFactors, b, lam: float) -> SpectralDiagnostics:
    """Bundle all coefficient diagnostics computed from one factorization."""
    return SpectralDiagnostics(
        lam=float(lam),
        sigma=svd.sigma,
        coeff=expansion_coefficients(svd, b),
        naive_coeff=naive_inverse_coefficients(svd, b),
        filtered_coeff=filtered_coefficients(svd, b, lam),
    )
