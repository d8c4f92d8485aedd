"""Dense direct solvers: pivoted elimination, QR least squares, economy SVD.

These wrap LAPACK via numpy rather than re-deriving textbook loops: the
contracts below (error conditions, tolerances, deterministic SVD signs) are
what the rest of the package relies on, and LAPACK satisfies them with
plenty of margin at the dimensions used here (n up to a couple thousand).
The one loop is the O(n^2) back-substitution in ``solve_least_squares``:
numpy has no triangular solver, and its LU-based ``solve`` would spend
O(n^3) on a matrix that is already triangular.

No accuracy promise is made for ill-conditioned systems; ``solve_linear``
happily returns the garbage that exact arithmetic on rounded data produces.
That failure mode is the whole point of the regularization machinery in
:mod:`deblur1d.regularize`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .blur import _as_system
from .errors import RankDeficientError, SingularMatrixError, SvdConvergenceError

__all__ = ["SvdFactors", "solve_linear", "invert", "solve_least_squares", "svd_econ"]

# Columns of R whose pivot falls at or below this times max|M| mark M as
# numerically rank deficient.
_RANK_TOL = 1e-14


class SvdFactors(NamedTuple):
    """Economy SVD A = U diag(sigma) V^T.

    ``u`` is m-by-n with orthonormal columns, ``sigma`` the n singular
    values sorted descending, ``v`` n-by-n with orthonormal columns.  Each
    singular-vector pair is signed so the largest-magnitude entry of v_j is
    positive (ties broken by lowest index), which makes repeated
    factorizations of the same matrix reproducible.

    For an exactly symmetric A the factors come from its eigendecomposition
    A = V diag(w) V^T: sigma_j = |w_j| and u_j = sign(w_j) v_j (with
    sign(0) taken as +1), so u_j = -v_j wherever the eigenvalue is negative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def solve_linear(a, b) -> np.ndarray:
    """Solve the square system A x = b by row-pivoted Gaussian elimination."""
    a, b = _as_system(a, b, square=True)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc


def invert(a) -> np.ndarray:
    """Invert a square matrix (column-by-column solve against the identity).

    Only meant for desk-scale demonstrations: solving against a specific
    right-hand side is always preferable to forming the inverse.
    """
    a = _as_system(a, square=True)
    try:
        return np.linalg.solve(a, np.identity(a.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular matrix: {exc}") from exc


def solve_least_squares(m, rhs) -> np.ndarray:
    """Minimize ||rhs - M x|| over x via Householder QR, R only.

    One Householder QR of the bordered matrix [M | rhs] = Q R yields both
    factors the solve needs: the leading block of R is M's triangular
    factor and its last column is Q^T rhs, so Q is never formed.  x then
    follows by back-substitution on the first ``cols`` rows of R.

    The orthogonal-factorization route is deliberate: squaring the
    conditioning by forming M^T M loses roughly half the available digits,
    which is exactly the failure the augmented Tikhonov path exists to
    avoid.
    """
    m, rhs = _as_system(m, rhs)
    rows, cols = m.shape
    if rows < cols:
        raise ValueError(f"need at least as many rows as columns, got {rows}x{cols}")
    r = np.linalg.qr(np.column_stack([m, rhs]), mode="r")
    pivots = np.abs(np.diag(r)[:cols])
    tol = _RANK_TOL * np.abs(m).max()
    if np.any(pivots <= tol):
        k = int(np.argmax(pivots <= tol))
        raise RankDeficientError(
            f"matrix is numerically rank deficient (|r[{k},{k}]| = {pivots[k]:.3e})"
        )
    x = np.empty(cols)
    for i in range(cols - 1, -1, -1):
        x[i] = (r[i, cols] - r[i, i + 1:cols] @ x[i + 1:]) / r[i, i]
    return x


def _symmetric_factors(a: np.ndarray):
    # A = V diag(w) V^T = (V diag(sign w)) diag(|w|) V^T; the stable sort
    # keeps equal |w| in eigh's ascending order, so the result is reproducible.
    w, vecs = np.linalg.eigh(a)
    order = np.argsort(-np.abs(w), kind="stable")
    w = w[order]
    v = vecs[:, order]
    return v * np.where(w < 0, -1.0, 1.0), np.abs(w), v


def svd_econ(a) -> SvdFactors:
    """Economy SVD of an m-by-n matrix with m >= n.

    Besides the factorization itself, callers rely on: sigma descending and
    nonnegative, U/V orthonormal to ~1e-10, reconstruction to ~1e-10
    relative, A v_j = sigma_j u_j columnwise, and the deterministic sign
    convention described on :class:`SvdFactors`.

    A square input that equals its transpose exactly (every blur matrix
    does) is factored with ``eigh`` as described on :class:`SvdFactors`,
    which is several times cheaper than the general SVD; any other input
    takes the general SVD.
    """
    a = _as_system(a)
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"need at least as many rows as columns, got {a.shape[0]}x{a.shape[1]}")
    try:
        if a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
            u, sigma, v = _symmetric_factors(a)
        else:
            u, sigma, vt = np.linalg.svd(a, full_matrices=False)
            v = vt.T.copy()
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(f"SVD failed to converge: {exc}") from exc
    cols = np.arange(v.shape[1])
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, cols] < 0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    for arr in (u, sigma, v):
        arr.setflags(write=False)
    return SvdFactors(u=u, sigma=sigma, v=v)
