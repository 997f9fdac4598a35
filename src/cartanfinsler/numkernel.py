"""Dense complex-matrix kernel shared by every other module.

Hermitian eigendecomposition (LAPACK through ``numpy.linalg.eigh``),
positive-definite square roots, the inverse gram roots of base points, power
traces, singular values, and the Newton-identity bridge between power sums
and elementary symmetric values.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericError, StructureError

#: eigenvalues of a PSD matrix in [-PSD_CLAMP_RTOL*||M||, 0) are clamped to 0
PSD_CLAMP_RTOL = 1e-10


class HermitianSpectrum(NamedTuple):
    values: np.ndarray  # real, descending
    vectors: np.ndarray  # unitary; columns are eigenvectors


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_hermitian(m: np.ndarray) -> None:
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.conj().T) > 1e-12 * max(scale, 1e-300):
        raise StructureError("matrix is not Hermitian within 1e-12 relative")


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


def hermitian_eigs(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    m = _as_square(m)
    _check_hermitian(m)
    w, u = _lapack_eigh(m, True)
    return HermitianSpectrum(w, u)


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


def pd_sqrt(m) -> np.ndarray:
    """Hermitian positive-definite square root A of M (A* A = A^2 = M)."""
    m = _as_square(m)
    _check_hermitian(m)
    w, u = hermitian_eigs(m)
    if w[-1] <= 1e-12 * max(w[0], 0.0) or w[0] <= 0.0:
        raise DomainError("matrix is not positive definite")
    return (u * np.sqrt(w)) @ u.conj().T


def power_trace(m, alpha: int) -> float:
    """tr(M^alpha) for Hermitian PSD M, computed by repeated multiplication.

    The eigenvalue route is deliberately avoided here so tests can compare
    this against sum(eigenvalues**alpha) as an independent oracle.
    """
    m = _as_square(m)
    _check_hermitian(m)
    if alpha < 1 or alpha != int(alpha):
        raise DomainError(f"alpha must be a positive integer, got {alpha}")
    w = eigvalsh_batch(m[None])[0]
    scale = np.linalg.norm(m)
    if w[-1] < -PSD_CLAMP_RTOL * max(scale, 1e-300):
        raise DomainError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    power = np.eye(m.shape[0], dtype=np.complex128)
    for _ in range(int(alpha)):
        power = power @ m
    return float(np.trace(power).real)


def singular_values(v) -> np.ndarray:
    """Descending singular values of a rectangular complex matrix."""
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 1:
        v = v[None, :]
    if v.ndim != 2:
        raise StructureError(f"expected a matrix, got shape {v.shape}")
    if v.shape[0] <= v.shape[1]:
        gram = v @ v.conj().T
    else:
        gram = v.conj().T @ v
    w = eigvalsh_batch(gram[None])[0]
    w = np.where(w > 0.0, w, 0.0)
    return np.sqrt(w)


def newton_power_to_elementary(s, k: int) -> np.ndarray:
    """Elementary symmetric values sigma_1..sigma_k from power sums S_1..S_k.

    Uses the Newton recurrence
    S_a - sigma_1 S_{a-1} + ... + (-1)^{a-1} sigma_{a-1} S_1 + (-1)^a a sigma_a = 0.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size < k:
        raise StructureError(f"need at least k={k} power sums, got {s.shape}")
    sigma = np.zeros(k)
    for a in range(1, k + 1):
        acc = s[a - 1]
        for j in range(1, a):
            acc += (-1.0) ** j * sigma[j - 1] * s[a - j - 1]
        sigma[a - 1] = (-1.0) ** (a + 1) * acc / a
    return sigma
