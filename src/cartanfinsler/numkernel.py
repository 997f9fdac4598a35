"""Dense complex-matrix kernels shared by every other module.

One Hermitian eigensolver (LAPACK through ``numpy.linalg.eigh``) over
stacks of matrices, and the inverse gram roots of base points built on it.

Two stack kernels for the small matrices of the formulas: ``matmul`` and
``hpd_inv``.  numpy's stacked ``@`` and ``linalg.inv`` make one BLAS or
LAPACK call per matrix, which costs about 0.3 and 0.8 us for a 2x2 matrix
on a 2-vCPU x86 host, more than the arithmetic.  Both kernels instead loop
in Python over the inner (or pivot) axis and act on the whole stack at
once, so their cost grows with the stack in whole-array operations, and
every matrix of a stack gets the same bits whatever the stack around it.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError


def _lapack_eigh(ms, want_vectors: bool):
    """LAPACK eigensolve of a (..., n, n) stack, reordered to descending.

    LAPACK returns NaN rather than failing on non-finite input; both that
    and a failed convergence raise NumericError.
    """
    try:
        if want_vectors:
            w, u = np.linalg.eigh(ms)
        else:
            w, u = np.linalg.eigvalsh(ms), None
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolver did not converge: {exc}") from exc
    if not np.isfinite(w).all():
        raise NumericError("Hermitian eigensolver got a non-finite matrix")
    return w[..., ::-1], None if u is None else u[..., ::-1]


def eigh_batch(ms, want_vectors: bool = True):
    """Batched Hermitian eigendecomposition (hot path; no Hermiticity check).

    Args: ms (batch, n, n); only the lower triangles are read.
    Returns (w, u) with w descending per matrix and u[k][:, j] the unit
    eigenvector of w[k, j]; u is None when want_vectors is False.
    """
    return _lapack_eigh(np.asarray(ms, dtype=np.complex128), want_vectors)


def eigvalsh_batch(ms) -> np.ndarray:
    """Descending eigenvalues of a batch of Hermitian matrices."""
    return eigh_batch(ms, want_vectors=False)[0]


def gram_inv_sqrt(grams) -> np.ndarray:
    """G^{-1/2} = U diag(w^{-1/2}) U* over a stack of grams I - ZZ* or I - Z*Z.

    The one rule: a gram whose smallest eigenvalue is not > 0 raises
    DomainError, as its point is not interior.  The root uses the gram's own
    eigenpairs, so it stays accurate up to the boundary, where inverting the
    gram first would amplify its rounding by 1/(1 - gauge^2).
    """
    w, u = eigh_batch(grams)
    if not np.all(w[..., -1] > 0.0):
        raise DomainError("base point is not interior: a gram I - ZZ* or I - Z*Z "
                          "is not positive definite")
    return (u / np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(u, -1, -2))


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


def hpd_inv(grams) -> np.ndarray:
    """Inverse of a stack of Hermitian positive definite grams I - ZZ*.

    Gauss-Jordan elimination without pivoting, which is stable on Hermitian
    positive definite matrices (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 10 and 14).  The pivots of a Hermitian matrix are real
    and all > 0 exactly when it is positive definite, so the rule of
    gram_inv_sqrt holds: a pivot whose real part is not > 0 raises
    DomainError, as the gram's point is not interior.
    """
    grams = np.asarray(grams, dtype=np.complex128)
    n = grams.shape[-1]
    aug = np.concatenate(
        [grams, np.broadcast_to(np.eye(n, dtype=np.complex128), grams.shape)], axis=-1)
    for k in range(n):
        pivot = aug[..., k, k].real
        if not np.all(pivot > 0.0):
            raise DomainError("base point is not interior: a gram I - ZZ* or I - Z*Z "
                              "is not positive definite")
        row = aug[..., k:k + 1, :] / pivot[..., None, None]
        aug -= aug[..., :, k:k + 1] * row
        aug[..., k:k + 1, :] = row
    return aug[..., n:]
