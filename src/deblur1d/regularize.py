"""Tikhonov-regularized and truncated-SVD solutions of A f ~ b.

Plain inversion insists on A f = b exactly, which amplifies whatever noise
lives in b by the reciprocals of A's smallest singular values.  Tikhonov
regularization (ridge regression) instead minimizes

    phi(f) = ||b - A f||^2 + lambda^2 ||f||^2,

trading data fit against solution size.  Three algebraically equivalent
routes to the minimizer are provided:

* ``AUGMENTED_LS`` -- least squares on [A; lambda I] against [b; 0], by one
  Householder QR of the bordered matrix [A b; lambda I 0] and a
  back-substitution.  Q is never formed: the last column of R already holds
  Q^T [b; 0].  The numerically preferred default: being an orthogonal
  factorization, it never squares the conditioning.
* ``NORMAL_EQUATIONS`` -- solve (A^T A + lambda^2 I) f = A^T b directly.
  Kept for comparison; loses about half the digits on near-singular A.
* ``SVD_FILTER`` -- spectral form sum_j (u_j^T b) sigma_j/(sigma_j^2 +
  lambda^2) v_j.  The cheap route when many lambdas share one
  factorization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blur import _as_system
from .errors import SingularComponentError
from .linalg import SvdFactors, solve_least_squares, solve_linear, svd_econ
from .noise import vector_norm
from .svd_analysis import _check_lambdas, filtered_coefficients, naive_inverse_coefficients

__all__ = [
    "Method",
    "RegularizedSolution",
    "objective_phi",
    "gradient_phi",
    "tikhonov_solve",
    "truncated_svd_solve",
]

# Under SVD_FILTER with lambda = 0, sigma_n at or below this times sigma_1
# raises rather than emit near-infinities; see the zero-sigma policy in the
# deblur1d.svd_analysis docstring.
_SV_CUTOFF = 1e-14


class Method(enum.Enum):
    """Solve path for the Tikhonov minimizer."""

    AUGMENTED_LS = "aug"
    NORMAL_EQUATIONS = "normal"
    SVD_FILTER = "svd"

    @classmethod
    def from_name(cls, name: str) -> "Method":
        try:
            return cls(name.strip().lower())
        except ValueError:
            options = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown method {name!r}; expected one of: {options}") from None


@dataclass(frozen=True)
class RegularizedSolution:
    """One Tikhonov solve: the minimizer plus its two norms."""

    lam: float
    f_lambda: np.ndarray
    residual_norm: float
    solution_norm: float
    method: Method


def _check_problem(a, b, f=None, lam=0.0):
    a, b = _as_system(a, b, square=True)
    if f is not None:
        _, f = _as_system(a, f)  # a is square, so one entry per column too
    return a, b, f, _check_lambdas(lam, zero_ok=True)


def objective_phi(a, b, f, lam: float) -> float:
    """phi(f) = ||b - A f||^2 + lambda^2 ||f||^2."""
    a, b, f, lam = _check_problem(a, b, f, lam)
    r = b - a @ f
    return float(r @ r + lam * lam * (f @ f))


def gradient_phi(a, b, f, lam: float) -> np.ndarray:
    """grad phi = 2 (A^T A f + lambda^2 f - A^T b); zero exactly at f_lambda."""
    a, b, f, lam = _check_problem(a, b, f, lam)
    return 2.0 * (a.T @ (a @ f) + lam * lam * f - a.T @ b)


def tikhonov_solve(
    a,
    b,
    lam: float,
    method: Method = Method.AUGMENTED_LS,
    svd: SvdFactors | None = None,
) -> RegularizedSolution:
    """Minimize phi over f for one lambda >= 0.

    ``svd`` supplies a precomputed factorization for ``SVD_FILTER`` (it is
    ignored by the other methods); omit it and one is computed on the fly.
    """
    a, b, _, lam = _check_problem(a, b, lam=lam)
    n = a.shape[1]
    if method is Method.AUGMENTED_LS:
        aug = np.vstack([a, lam * np.identity(n)])
        rhs = np.concatenate([b, np.zeros(n)])
        f = solve_least_squares(aug, rhs)
    elif method is Method.NORMAL_EQUATIONS:
        f = solve_linear(a.T @ a + lam * lam * np.identity(n), a.T @ b)
    elif method is Method.SVD_FILTER:
        svd = svd if svd is not None else svd_econ(a)
        if lam > 0.0:
            f = svd.v @ filtered_coefficients(svd, b, lam)
        elif svd.sigma.size == 0 or svd.sigma[-1] <= _SV_CUTOFF * svd.sigma[0]:
            raise SingularComponentError(
                "singular values reach the cutoff; lambda = 0 spectral solve undefined"
            )
        else:
            f = svd.v @ naive_inverse_coefficients(svd, b)
    else:
        raise ValueError(f"unknown method {method!r}")
    return RegularizedSolution(
        lam=lam,
        f_lambda=f,
        residual_norm=vector_norm(b - a @ f),
        solution_norm=vector_norm(f),
        method=method,
    )


def truncated_svd_solve(svd: SvdFactors, b, k: int) -> np.ndarray:
    """Partial spectral solution f_k = sum_{j<=k} (u_j^T b / sigma_j) v_j.

    Chopping the sum after k terms discards the troublesome small-sigma
    components outright, an effective alternative to the smooth Tikhonov
    roll-off.  k = n with all sigma_j well away from zero reproduces the
    direct solve; a zero sigma_j with j <= k raises SingularComponentError.
    """
    n = svd.sigma.size
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    lead = SvdFactors(svd.u[:, :k], svd.sigma[:k], svd.v[:, :k])
    return lead.v @ naive_inverse_coefficients(lead, b)
