"""Dense real symmetric matrix core.

Symmetric matrices are plain ``numpy`` arrays validated at API boundaries.
This module provides spectral decomposition, the three matrix norms
(nuclear / Frobenius / operator), eigen-sign and support extraction, the
support projectors that split a matrix into a low-rank part and its
complement, the dominant-low-rank cone gap and scalar soft-thresholding.

All operations are pure functions over immutable values; results that are
symmetric by construction are explicitly re-symmetrized so the 1e-12
symmetry invariant survives floating-point arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SYMMETRY_TOL = 1e-12

# Relative eigenvalue cutoff below which an eigenvalue counts as zero when
# extracting signs, supports and ranks.
DEFAULT_ZERO_TOL_FACTOR = 1e-10


def validate_symmetric(a: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Check that ``a`` is a finite square symmetric matrix and return it.

    Raises :class:`ValidationError` on shape mismatch, non-finite entries,
    or asymmetry beyond ``tol`` (scaled by the largest entry).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if a.size and float(np.max(np.abs(a - a.T))) > tol * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    return a


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average away floating-point asymmetry: 0.5 * (A + A^T)."""
    return 0.5 * (a + a.T)


def default_zero_tol(lam: np.ndarray) -> float:
    """Default eigenvalue zero tolerance from a matrix's eigenvalues ``lam``,
    scaled by the operator norm, their largest absolute value."""
    return DEFAULT_ZERO_TOL_FACTOR * float(np.max(np.abs(lam), initial=0.0))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending by signed value) and matched orthonormal
    eigenvector columns of a symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        phi = self.eigenvectors
        return symmetrize((phi * self.eigenvalues) @ phi.T)


def spectral_decompose(s: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix, eigenvalues sorted descending.

    Ties keep the backend's order (deterministic for a fixed input).
    """
    return _descending_eigh(validate_symmetric(s))


def _descending_eigh(s: np.ndarray) -> SpectralDecomposition:
    """``spectral_decompose`` without the check, for a matrix that is
    symmetric by construction: one ``eigh``."""
    lam, phi = np.linalg.eigh(s)
    order = np.argsort(-lam, kind="stable")
    return SpectralDecomposition(eigenvalues=lam[order], eigenvectors=phi[:, order])


def nuclear_norm(s: np.ndarray) -> float:
    """Sum of absolute eigenvalues."""
    s = validate_symmetric(s)
    return float(np.sum(np.abs(np.linalg.eigvalsh(s))))


def nuclear_norm_and_rank(s: np.ndarray) -> tuple[float, int]:
    """``nuclear_norm`` and ``rank_at_tol`` at its default tolerance, from
    one ``eigvalsh``."""
    lam = np.linalg.eigvalsh(validate_symmetric(s))
    return float(np.sum(np.abs(lam))), int(np.sum(np.abs(lam) > default_zero_tol(lam)))


def frobenius_norm(s: np.ndarray) -> float:
    """Entrywise l2 norm; equals the l2 norm of the spectrum."""
    s = validate_symmetric(s)
    return float(np.linalg.norm(s))


def operator_norm(s: np.ndarray) -> float:
    """Largest absolute eigenvalue."""
    s = validate_symmetric(s)
    if s.shape[0] == 0:
        return 0.0
    lam = np.linalg.eigvalsh(s)
    return float(np.max(np.abs(lam)))


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product <A, B> = trace(A B)."""
    return float(np.sum(a * b))


class SupportProjector:
    """Orthonormal basis of the span of eigenvectors with nonzero
    eigenvalues, together with the induced projectors on matrix space.

    ``basis`` is (dim, rank) with orthonormal columns.  ``apply`` keeps the
    low-rank part A - P_perp A P_perp and ``apply_complement`` the rest;
    their sum reassembles A exactly because the complement is computed once
    and subtracted.  Equality is identity.
    """

    def __init__(self, dim: int, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != dim:
            raise ValidationError(f"support basis must be ({dim}, r), got {basis.shape}")
        self.dim, self.basis, self.rank = dim, basis, basis.shape[1]

    def complement_projector(self) -> np.ndarray:
        """The vector-space projector P_perp onto the orthogonal complement."""
        return np.eye(self.dim) - self.basis @ self.basis.T

    def apply_complement(self, a: np.ndarray) -> np.ndarray:
        a = validate_symmetric(a)
        if a.shape[0] != self.dim:
            raise ValidationError(
                f"dimension mismatch: support dim {self.dim}, matrix dim {a.shape[0]}"
            )
        p_perp = self.complement_projector()
        return symmetrize(p_perp @ a @ p_perp)

    def apply(self, a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=float) - self.apply_complement(a)


def sign_and_support(
    s: np.ndarray, zero_tol: float | None = None
) -> tuple[np.ndarray, SupportProjector]:
    """Matrix sign (eigenvalues mapped to -1/0/+1) and support of ``s``.

    Eigenvalues with absolute value <= ``zero_tol`` count as zero; the
    default tolerance scales with the operator norm, so exact zero matrices
    get a rank-0 support (the zero subspace).
    """
    dec = spectral_decompose(s)
    if zero_tol is None:
        zero_tol = default_zero_tol(dec.eigenvalues)
    if zero_tol < 0:
        raise ValidationError("zero_tol must be nonnegative")
    keep = np.abs(dec.eigenvalues) > zero_tol
    phi = dec.eigenvectors[:, keep]
    sign_matrix = SpectralDecomposition(np.sign(dec.eigenvalues[keep]), phi).reconstruct()
    return sign_matrix, SupportProjector(dim=dec.dim, basis=phi)


def rank_at_tol(s: np.ndarray, zero_tol: float | None = None) -> int:
    """Number of eigenvalues above the zero tolerance (by default
    ``default_zero_tol``, taken from the same eigenvalues)."""
    lam = np.linalg.eigvalsh(validate_symmetric(s))
    if zero_tol is None:
        zero_tol = default_zero_tol(lam)
    return int(np.sum(np.abs(lam) > zero_tol))


def cone_gap(a: np.ndarray, support: SupportProjector, b: float) -> float:
    """Slack of the dominant-low-rank cone constraint.

    Returns ``b * ||low rank part||_1 - ||complement part||_1``; the matrix
    belongs to the cone with parameter ``b`` iff the result is >= 0.
    """
    if b <= 0:
        raise ValidationError("cone parameter b must be positive")
    complement = support.apply_complement(a)
    low = np.asarray(a, dtype=float) - complement
    return b * nuclear_norm(symmetrize(low)) - nuclear_norm(complement)


def soft_threshold(x: np.ndarray, theta: float) -> np.ndarray:
    """Scalar shrinkage sign(x) * max(|x| - theta, 0), vectorized."""
    return np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)


def best_rank_approximation(s: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-``rank`` approximation in Frobenius norm, by keeping the
    eigenvalues of largest magnitude."""
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    dec = spectral_decompose(s)
    keep_order = np.argsort(-np.abs(dec.eigenvalues), kind="stable")[:rank]
    lam = np.zeros_like(dec.eigenvalues)
    lam[keep_order] = dec.eigenvalues[keep_order]
    return SpectralDecomposition(lam, dec.eigenvectors).reconstruct()


def save_matrix(path, a: np.ndarray) -> None:
    """Write the text matrix format: header ``m <dim>``, then dense rows."""
    a = validate_symmetric(a)
    m = a.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"m {m}\n")
        for row in a:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read the text matrix format written by :func:`save_matrix`.

    Symmetry is validated on load; every error names the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "m":
            raise ValidationError(f"{path}: expected header 'm <dim>'")
        try:
            m = int(header[1])
        except ValueError as exc:
            raise ValidationError(f"{path}: bad dimension {header[1]!r}") from exc
        if m < 1:
            raise ValidationError(f"{path}: dimension must be at least 1, got {m}")
        rows = []
        for i in range(m):
            parts = fh.readline().split()
            if len(parts) != m:
                raise ValidationError(f"{path}: row {i} has {len(parts)} entries, expected {m}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                raise ValidationError(f"{path}: row {i} has a non-numeric entry") from None
        if any(line.strip() for line in fh):
            raise ValidationError(f"{path}: more than the {m} rows the header declares")
    try:
        return validate_symmetric(np.array(rows))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
