"""L-curve data: the (residual norm, solution norm) trade-off over lambda.

Sweeping lambda and plotting ||b_noise - A f_lambda|| against ||f_lambda||
on log-log axes traces an L-shaped curve: a steep branch where increasing
lambda cheaply shrinks the solution, and a flat branch where it only spoils
the fit.  Good regularization parameters sit near the bend.

The corner finder below scores each interior point by the Menger curvature
of its log-log triple and returns the maximizer.  The choice of that
particular corner definition is this package's own heuristic -- the
trade-off curve itself has no canonical "corner" -- so treat the suggestion
as advisory and look at the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blur import _as_system
from .linalg import _svd_econ
from .regularize import Method, tikhonov_solve
from .svd_analysis import _check_lambdas, _tikhonov_inverse_filter

__all__ = ["LCurve", "logspace", "lcurve_sweep", "suggest_corner"]


def logspace(lo_exp: float, hi_exp: float, count: int) -> np.ndarray:
    """count geometrically spaced values from 10**lo_exp to 10**hi_exp inclusive."""
    count = int(count)
    if count < 2:
        raise ValueError(f"need at least 2 values, got {count}")
    return np.logspace(float(lo_exp), float(hi_exp), count)


def _check_sweep(lambdas) -> np.ndarray:
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1:
        raise ValueError(f"lambdas must be a 1-d sequence, got shape {lambdas.shape}")
    lambdas = _check_lambdas(lambdas)
    if np.any(np.diff(lambdas) <= 0):
        raise ValueError("lambdas must be strictly increasing")
    return lambdas


@dataclass(frozen=True, eq=False)
class LCurve:
    """Sweep results: lambdas (strictly increasing) and the two norms."""

    lambdas: np.ndarray
    residual_norms: np.ndarray
    solution_norms: np.ndarray

    def __post_init__(self):
        lam = _check_sweep(self.lambdas)
        res = np.asarray(self.residual_norms, dtype=float)
        sol = np.asarray(self.solution_norms, dtype=float)
        if not (res.ndim == sol.ndim == 1 and lam.size == res.size == sol.size):
            raise ValueError("lambdas and norms must be 1-d and equally long")
        for name, arr in (("lambdas", lam), ("residual_norms", res), ("solution_norms", sol)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return self.lambdas.size


def lcurve_sweep(a, b_noise, lambdas, method: Method = Method.SVD_FILTER) -> LCurve:
    """Record ||b_noise - A f_lambda|| and ||f_lambda|| at each lambda.

    Norms are taken against the data actually passed in -- hand this the
    noisy measurement, not the clean blur.  A square ``a``, data of matching
    length, and strictly increasing lambdas in the range that
    :func:`~deblur1d.svd_analysis._check_lambdas` accepts are all checked
    before any factorization starts.

    With ``SVD_FILTER`` (the default) one factorization A = U diag(sigma) V^T
    serves the whole sweep, and with beta = U^T b_noise both norms follow in
    closed form, for every lambda at once:

        ||b - A f|| = ||lambda^2/(sigma^2 + lambda^2) * beta||,
        ||f||       = ||sigma/(sigma^2 + lambda^2) * beta||.

    The other methods solve the problem once per lambda with
    :func:`~deblur1d.regularize.tikhonov_solve`.
    """
    a, b_noise = _as_system(a, b_noise, square=True)
    lambdas = _check_sweep(lambdas)
    if method is Method.SVD_FILTER:
        svd = _svd_econ(a)
        beta = svd.u.T @ b_noise
        lam2 = (lambdas * lambdas)[:, None]
        res = np.linalg.norm(lam2 / (svd.sigma * svd.sigma + lam2) * beta, axis=1)
        sol = np.linalg.norm(_tikhonov_inverse_filter(svd.sigma, lambdas[:, None]) * beta, axis=1)
        return LCurve(lambdas, res, sol)
    res = np.empty(lambdas.size)
    sol = np.empty(lambdas.size)
    for i, lam in enumerate(lambdas):
        solution = tikhonov_solve(a, b_noise, float(lam), method)
        res[i] = solution.residual_norm
        sol[i] = solution.solution_norm
    return LCurve(lambdas, res, sol)


def suggest_corner(curve: LCurve) -> int:
    """Index of the curve point with maximal log-log Menger curvature.

    Advisory only; ties go to the smallest index.  Degenerate curves (fewer
    than three points, or norms at zero where the log-log map is undefined)
    raise instead of guessing.
    """
    m = len(curve)
    if m < 3:
        raise ValueError(f"corner detection needs at least 3 points, got {m}")
    if np.any(curve.residual_norms <= 0) or np.any(curve.solution_norms <= 0):
        raise ValueError("corner undefined: curve has nonpositive norms")
    x = np.log10(curve.residual_norms)
    y = np.log10(curve.solution_norms)
    # Menger curvature 2|cross|/(|ab| |bc| |ca|) of each triple (a, b, c) of
    # consecutive points; a triple with two coincident points scores 0.
    dx, dy = np.diff(x), np.diff(y)
    ab = np.hypot(dx[:-1], dy[:-1])
    bc = np.hypot(dx[1:], dy[1:])
    ca = np.hypot(x[2:] - x[:-2], y[2:] - y[:-2])
    cross = np.abs(dx[:-1] * (y[2:] - y[:-2]) - dy[:-1] * (x[2:] - x[:-2]))
    den = ab * bc * ca
    curvatures = np.divide(2.0 * cross, den, out=np.zeros_like(den), where=den != 0)
    return int(np.argmax(curvatures)) + 1
