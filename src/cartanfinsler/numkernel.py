"""Dense complex-matrix kernels shared by every other module.

One Hermitian eigensolver, values only (LAPACK through
``numpy.linalg.eigvalsh``) over stacks of matrices: ``eigvalsh_batch``
serves the top eigenvalue of a gram with three or more rows (``gram_top``)
and the Hessian check of ``norms.certify_scc``.  No formula takes
eigenvectors.

Seven stack kernels for the small matrices of the formulas: ``matmul``,
``hpd_inv``, ``solve``, ``smallest_eig_exceeds``, ``cholesky``,
``solve_upper`` and ``gram_top``.  numpy's stacked ``@``,
``linalg.inv``, ``linalg.solve``, ``linalg.cholesky`` and
``linalg.eigvalsh`` make one BLAS or LAPACK call per matrix, which costs
about 0.3 to 0.8 us for a 2x2 matrix on a 2-vCPU x86 host, more than the
arithmetic.  These kernels instead loop in Python over the inner (or pivot)
axis, or use a closed form, and act on the whole stack at once, so their
cost grows with the stack in whole-array operations, and every matrix of a
stack gets the same bits whatever the stack around it.  ``hpd_inv``,
``solve`` and ``smallest_eig_exceeds`` share one Gauss-Jordan loop.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError


def eigvalsh_batch(ms) -> np.ndarray:
    """Descending eigenvalues of a batch (..., n, n) of Hermitian matrices
    (hot path; no Hermiticity check, only the lower triangles are read).

    LAPACK returns NaN rather than failing on non-finite input; both that
    and a failed convergence raise NumericError.
    """
    try:
        w = np.linalg.eigvalsh(np.asarray(ms, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver did not converge: {exc}") from exc
    if not np.isfinite(w).all():
        raise NumericError("Hermitian eigensolver got a non-finite matrix")
    return w[..., ::-1]


def matmul(a, b) -> np.ndarray:
    """a @ b over stacks (..., n, k) and (..., k, p) whose batch axes broadcast.

    One whole-array product and sum per inner index; the one path for every
    size.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    out = a[..., :, :1] * b[..., :1, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j:j + 1] * b[..., j:j + 1, :]
    return out


def _gauss_jordan(aug, n: int, divisor, partial: bool = False):
    """Gauss-Jordan elimination on the first n columns of each matrix of the
    stack aug (N, n, w), in place; the last w - n columns come out as the
    inverse of the leading n x n block times their input.

    divisor(pivots) gets the N pivots of a step and returns what their rows
    are divided by, or raises.  partial swaps into the pivot row the row of
    largest modulus at or below it (partial pivoting, Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 9); without it the elimination is
    the one that is stable on Hermitian positive definite matrices (ch. 10).
    """
    rows = np.arange(aug.shape[0])
    for k in range(n):
        if partial and k < n - 1:
            best = k + np.argmax(np.abs(aug[:, k:, k]), axis=1)
            swap = aug[rows, best]
            aug[rows, best] = aug[:, k]
            aug[:, k] = swap
        row = aug[:, k:k + 1, :] / divisor(aug[:, k, k])[:, None, None]
        aug -= aug[:, :, k:k + 1] * row
        aug[:, k:k + 1, :] = row
    return aug


def _not_interior(pivots):
    """hpd_inv's divisor: real pivots, all > 0 or DomainError."""
    pivots = pivots.real
    if not np.all(pivots > 0.0):
        raise DomainError("base point is not interior: a gram I - ZZ* or I - Z*Z "
                          "is not positive definite")
    return pivots


def hpd_inv(grams) -> np.ndarray:
    """Inverse of a stack of Hermitian positive definite grams I - ZZ*.

    Gauss-Jordan elimination without pivoting, which is stable on Hermitian
    positive definite matrices (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10 and 14).  The pivots of a Hermitian matrix are real
    and all > 0 exactly when it is positive definite, so the one rule of a
    gram holds: a pivot whose real part is not > 0 raises DomainError, as
    the gram's point is not interior.
    """
    grams = np.asarray(grams, dtype=np.complex128)
    n = grams.shape[-1]
    aug = np.concatenate(
        [grams, np.broadcast_to(np.eye(n, dtype=np.complex128), grams.shape)], axis=-1)
    inv = _gauss_jordan(aug.reshape(-1, n, 2 * n), n, _not_interior)[:, :, n:]
    return inv.reshape(grams.shape)


def _nonzero(pivots):
    """solve's divisor: the pivots, none 0 or NumericError."""
    if not np.all(pivots != 0.0):
        raise NumericError("singular matrix: a zero pivot in the elimination")
    return pivots


def solve(a, b) -> np.ndarray:
    """a^{-1} b over stacks (..., n, n) and (..., n, p) whose batch axes
    broadcast.

    Gauss-Jordan elimination with partial pivoting, for matrices that are
    not Hermitian (I - Z0* Z of a Mobius map).  A zero pivot, which with
    partial pivoting means a singular matrix, raises NumericError.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n, p = b.shape[-2:]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    aug = np.concatenate([np.broadcast_to(a, batch + (n, n)),
                          np.broadcast_to(b, batch + (n, p))], axis=-1)
    x = _gauss_jordan(aug.reshape(-1, n, n + p), n, _nonzero, partial=True)[:, :, n:]
    return x.reshape(batch + (n, p))


def smallest_eig_exceeds(grams, margin: float) -> np.ndarray:
    """Whether each Hermitian matrix G of a stack (..., n, n) has smallest
    eigenvalue > margin.

    That holds exactly when G - margin I is positive definite, that is, when
    every pivot of its unpivoted elimination is > 0 (the rule of hpd_inv).  A
    matrix whose pivot fails is marked and then divided by 1, so it cannot
    disturb the others.  In floating point the verdict can differ from an
    eigensolver's only where rounding of order eps |G| straddles the margin.
    """
    grams = np.asarray(grams, dtype=np.complex128)
    n = grams.shape[-1]
    ok = np.ones(grams.shape[:-2], dtype=bool).reshape(-1)

    def marked(pivots):
        pivots = pivots.real
        np.logical_and(ok, pivots > 0.0, out=ok)
        return np.where(ok, pivots, 1.0)

    _gauss_jordan((grams - margin * np.eye(n)).reshape(-1, n, n), n, marked)
    return ok.reshape(grams.shape[:-2])


def cholesky(ms) -> np.ndarray:
    """Lower factor L with L L* = M over a stack (..., n, n) of Hermitian
    matrices; only the lower triangles are read.

    Outer-product elimination, one whole-stack step per column: column k of
    L is column k of the remaining block divided by the square root of its
    real pivot, and the block loses the outer product of that column.  The
    pivots of a Hermitian matrix are all > 0 exactly when it is positive
    definite, so hpd_inv's rule holds: a pivot that is not > 0 raises
    DomainError, as the gram I - ZZ* or I - Z*Z of a point that is not
    interior does.  A non-finite entry of a lower triangle raises
    NumericError before any arithmetic.
    """
    work = np.array(ms, dtype=np.complex128)
    if not np.isfinite(np.tril(work)).all():
        raise NumericError("non-finite matrix: an entry is not finite")
    low = np.zeros_like(work)
    n = work.shape[-1]
    for k in range(n):
        root = np.sqrt(_not_interior(work[..., k, k]))
        low[..., k, k] = root
        if k < n - 1:
            col = work[..., k + 1:, k] / root[..., None]
            low[..., k + 1:, k] = col
            work[..., k + 1:, k + 1:] -= col[..., :, None] * np.conj(col[..., None, :])
    return low


def solve_upper(t, b) -> np.ndarray:
    """T^{-1} B over stacks (..., n, n) of upper-triangular T and (..., n, p)
    whose batch axes broadcast; only the upper triangles of T are read.

    Back substitution, one whole-stack step per column of T from the last:
    row j of the solution is row j of the remaining right-hand side divided
    by t_jj, and the rows above it lose column j of T times that row.  It is
    backward stable (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 8).  The diagonal is not checked: the callers pass Cholesky factors,
    whose diagonal cholesky checked > 0.
    """
    t = np.asarray(t)
    b = np.asarray(b)
    batch = np.broadcast_shapes(t.shape[:-2], b.shape[:-2])
    x = np.array(np.broadcast_to(b, batch + b.shape[-2:]), dtype=np.complex128)
    for j in range(t.shape[-1] - 1, -1, -1):
        x[..., j, :] /= t[..., j, j, None]
        if j:
            x[..., :j, :] -= t[..., :j, j, None] * x[..., j, None, :]
    return x


def gram_top(ws) -> np.ndarray:
    """Largest eigenvalue of W W* for each W of a stack (..., m, n).

    Closed forms up to two rows: |w|^2 for one, and for two with W W* =
    [[a, b], [b*, d]] the value (a + d)/2 + sqrt((a - d)^2/4 + |b|^2), a sum
    of nonnegative terms, so it keeps full relative precision.  From three
    rows on, the LAPACK eigensolver on the formed gram, clipped at 0.
    """
    ws = np.asarray(ws)
    if ws.shape[-2] > 2:
        gram = ws @ np.conj(np.swapaxes(ws, -1, -2))
        return np.maximum(eigvalsh_batch(gram)[..., 0], 0.0)
    sq = np.sum(ws.real**2 + ws.imag**2, axis=-1)
    if ws.shape[-2] == 1:
        return sq[..., 0]
    a, d = sq[..., 0], sq[..., 1]
    b = np.sum(ws[..., 0, :] * np.conj(ws[..., 1, :]), axis=-1)
    return 0.5 * (a + d) + np.sqrt(0.25 * (a - d)**2 + b.real**2 + b.imag**2)
