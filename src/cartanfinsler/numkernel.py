"""Dense complex-matrix kernel shared by every other module.

One Hermitian eigensolver (LAPACK through ``numpy.linalg.eigh``) over
stacks of matrices, and the inverse gram roots of base points built on it.
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
