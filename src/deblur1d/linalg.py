"""Dense direct solvers: pivoted elimination, QR least squares, economy SVD,
and the centrosymmetric split that halves the QR and the ``eigh``.

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
# numerically rank deficient (M the whole operator when a block is solved).
_RANK_TOL = 1e-14

_SQRT_HALF = np.sqrt(0.5)


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
    Equal |w_j| keep the order in which the eigenvalues were computed.

    A symmetric A that is also centrosymmetric (A = JAJ, J the exchange
    matrix) to within n eps max|A| -- every blur matrix on the midpoint
    grid -- is factored as the nearest centrosymmetric matrix (A + JAJ)/2,
    which differs from A by no more than that tolerance, through its two
    half-size blocks (see ``_centro_halves``): w = [w+, w-] is sorted by |w|
    with ties keeping that order, so the symmetric half's eigenvalues come
    first.  Each v_j is then exactly mirror-symmetric (v_j[n-1-k] = v_j[k])
    or exactly mirror-antisymmetric (v_j[n-1-k] = -v_j[k]), so its
    largest-magnitude entries come in exact pairs and the lowest index of
    the pair is the positive one.
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
    return _lstsq_r(np.column_stack([m, rhs]), np.abs(m).max())


def _lstsq_r(bordered: np.ndarray, scale: float) -> np.ndarray:
    # The unchecked core of solve_least_squares, on the bordered matrix
    # [M | rhs].  A pivot at or below _RANK_TOL * scale raises, so a caller
    # that solves a block of a larger operator passes that operator's
    # max|entry| as the scale.
    rows, cols = bordered.shape[0], bordered.shape[1] - 1
    if rows < cols:
        raise ValueError(f"need at least as many rows as columns, got {rows}x{cols}")
    r = np.linalg.qr(bordered, mode="r")
    pivots = np.abs(np.diag(r)[:cols])
    tol = _RANK_TOL * scale
    if np.any(pivots <= tol):
        k = int(np.argmax(pivots <= tol))
        raise RankDeficientError(
            f"matrix is numerically rank deficient (|r[{k},{k}]| = {pivots[k]:.3e})"
        )
    x = np.empty(cols)
    for i in range(cols - 1, -1, -1):
        x[i] = (r[i, cols] - r[i, i + 1:cols] @ x[i + 1:]) / r[i, i]
    return x


def _fold(x, sign):
    # Rows of P_s^T x for the half s = sign of P = [[I, I], [J, -J]]/sqrt(2):
    # row i pairs with row n-1-i, and the centre row of an odd n joins the
    # symmetric half unchanged.
    n = x.shape[0]
    m = n // 2
    pairs = (x[:m] + sign * x[::-1][:m]) * _SQRT_HALF
    return np.concatenate([pairs, x[m:n - m]]) if sign > 0 else pairs


def _centro_halves(a: np.ndarray, amax: float):
    """The diagonal blocks M+ and M- of P^T A P, or None.

    P = [[I, I], [J, -J]]/sqrt(2) (J the exchange matrix; for odd n the
    centre row joins the symmetric half, see ``_fold``) is orthogonal, and
    it block-diagonalizes a centrosymmetric A = JAJ: P^T A P = diag(M+, M-)
    with M+- = C11 +- C12 J, where C = (A + JAJ)/2 and C11, C12 are its
    top-left and top-right floor(n/2)-square blocks.  For odd n, M+ also
    takes C's centre row and column scaled by sqrt(2), and C's centre entry
    (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Solving or
    factoring the two halves costs a quarter of the flops of the whole.

    The split is taken when the square ``a`` has n >= 2 and
    max|A - JAJ| <= n eps ``amax``, the order of the backward error of the
    factorization itself (``amax`` = max|A|, passed in because the
    augmented solve needs it anyway, for its pivot scale).  The halves are
    those of the nearest centrosymmetric matrix (A + JAJ)/2, which differs
    from A by no more than that.  Anything else returns None.  Built from
    blocks, with no sqrt(1/2) applied to the leading block, I folds to I
    exactly.

    The halves come as an iterator that builds M+ and then M-, each only
    when asked for, so a caller that is done with M+ before it asks for M-
    never holds both.
    """
    n = a.shape[0]
    # JAJ is A with its row-major entries reversed, so max|A - JAJ| needs only
    # the first half of them against the reversed second half
    flat = a.ravel()
    mid = flat.size // 2
    tol = n * np.finfo(float).eps * amax
    if n == 1 or np.abs(flat[:mid] - flat[::-1][:mid]).max() > tol:
        return None
    return (_centro_half(a, sign) for sign in (1.0, -1.0))


def _centro_half(a, sign):
    # 2 C11 +- 2 C12 J, halved: entry (i, j) adds A[i, j] and its mirror
    # A[n-1-i, n-1-j], then +- A[i, n-1-j] and its mirror A[n-1-i, j]
    n = a.shape[0]
    m = n // 2
    block = a[:m, :m] + a[::-1, ::-1][:m, :m]
    cross = a[:m, ::-1][:, :m] + a[::-1][:m, :m]
    if sign > 0:
        block += cross
    else:
        block -= cross
    block *= 0.5
    if sign < 0 or n % 2 == 0:
        return block
    half = np.empty((m + 1, m + 1))
    half[:m, :m] = block
    half[:m, m] = (a[:m, m] + a[::-1, m][:m]) * _SQRT_HALF
    half[m, :m] = (a[m, :m] + a[m, ::-1][:m]) * _SQRT_HALF
    half[m, m] = a[m, m]
    return half


def _symmetric_factors(a: np.ndarray):
    # A = V diag(w) V^T = (V diag(sign w)) diag(|w|) V^T; the stable sort
    # keeps equal |w| in their eigh order, so the result is reproducible.
    halves = _centro_halves(a, np.abs(a).max())
    if halves is None:
        w, v = np.linalg.eigh(a)
        order = np.argsort(-np.abs(w), kind="stable")
        w, v = w[order], v[:, order]
    else:
        w, v = _centro_eigh(halves, a.shape[0])
    return v * np.where(w < 0, -1.0, 1.0), np.abs(w), v


def _centro_eigh(halves, n):
    # eigh of M+ and then M- (map drops each half once it is factored); each
    # eigenvector y unfolds to P_s y, written straight into its column of
    # the |w|-sorted result, so no unsorted n-by-n copy is ever held.  The
    # columns are filled as rows of V^T: V comes out column-major, as from
    # eigh itself, which keeps the column-wise sign pass fast.
    (w_sym, y_sym), (w_anti, y_anti) = map(np.linalg.eigh, halves)
    w = np.concatenate([w_sym, w_anti])
    order = np.argsort(-np.abs(w), kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    m = n // 2
    vt = np.empty((n, n))
    k = w_sym.size
    for y, rows, sign in ((y_sym, column[:k], 1.0), (y_anti, column[k:], -1.0)):
        top = y[:m].T * _SQRT_HALF
        vt[rows, :m] = top
        vt[rows, n - m:] = sign * top[:, ::-1]
        if n % 2:
            vt[rows, m] = y[m] if sign > 0 else 0.0
    return w[order], vt.T


def svd_econ(a) -> SvdFactors:
    """Economy SVD of an m-by-n matrix with m >= n.

    Besides the factorization itself, callers rely on: sigma descending and
    nonnegative, U/V orthonormal to ~1e-10, reconstruction to ~1e-10
    relative, A v_j = sigma_j u_j columnwise, and the deterministic sign
    convention described on :class:`SvdFactors`.

    A square input that equals its transpose exactly (every blur matrix
    does) is factored with ``eigh`` as described on :class:`SvdFactors`,
    which is several times cheaper than the general SVD.  When it is also
    centrosymmetric to within rounding, as every blur matrix on the
    midpoint grid is, that is two ``eigh`` calls on the half-size blocks
    M+ and M- of (A + JAJ)/2, at about a quarter of the flops; the
    eigenvalues are sorted by magnitude with ties in [w+, w-] order, and
    every v_j is exactly mirror-symmetric or mirror-antisymmetric, so the
    lowest-index tie rule of the sign convention holds exactly.  Any other
    symmetric input takes one full ``eigh``, and any other input the
    general SVD.
    """
    return _svd_econ(_as_system(a))


def _svd_econ(a: np.ndarray) -> SvdFactors:
    # The unchecked core of svd_econ, for a caller that has already passed
    # ``a`` through _as_system.
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
