"""Spectral constraint sets for the penalized minimization.

The feasible set is closed, convex, contains zero, and is invariant under
joint orthogonal conjugation, so every projection and proximal step reduces
to an eigenvalue-vector problem.  Each set carries its own rules:
``project`` maps soft-thresholded eigenvalues to the prox's eigenvalues;
``remove_normal_cone`` removes in place the normal-cone part of a
first-order residual written in the eigenbasis (eigenvalues ``lam``) of the
estimate; ``violation`` is 0 on the set and positive off it;
``prediction_bound`` bounds |<S, X>| over the set and the design atoms by
a dual norm of the design's ``AtomNorms``; ``str`` names the set in outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrices import symmetrize

BOUNDARY_TOL = 1e-8  # relative distance to the radius at which a ball is active


def _negative_part(block: np.ndarray) -> np.ndarray:
    lam, phi = np.linalg.eigh(symmetrize(block))
    lam = np.minimum(lam, 0.0)
    return (phi * lam) @ phi.T


@dataclass(frozen=True)
class Unconstrained:
    def project(self, lam: np.ndarray) -> np.ndarray:
        return lam

    def remove_normal_cone(self, residual: np.ndarray, lam: np.ndarray, zero_tol: float) -> None:
        pass  # the normal cone is {0}

    def violation(self, s: np.ndarray) -> float:
        return 0.0

    def prediction_bound(self, atom_norms) -> float:
        raise ValidationError(
            "prediction bound undefined for an unconstrained feasible set; "
            "set it as config [constraint] a"
        )

    def __str__(self) -> str:
        return "none"


@dataclass(frozen=True)
class OperatorNormBall:
    rho: float

    def __post_init__(self):
        # rho == 0 is the degenerate-but-valid feasible set {0}
        if self.rho < 0:
            raise ValidationError("operator-norm ball radius must be nonnegative")

    def project(self, lam: np.ndarray) -> np.ndarray:
        return np.clip(lam, -self.rho, self.rho)

    def remove_normal_cone(self, residual: np.ndarray, lam: np.ndarray, zero_tol: float) -> None:
        # active blocks may absorb any signed-semidefinite normal component:
        # the block on the eigenvalues at +rho (-rho) keeps its negative
        # (positive) semidefinite part
        act_tol = max(BOUNDARY_TOL * self.rho, zero_tol)
        plus = lam >= self.rho - act_tol
        minus = lam <= -self.rho + act_tol
        if np.any(plus):
            residual[np.ix_(plus, plus)] = _negative_part(residual[np.ix_(plus, plus)])
        if np.any(minus):
            residual[np.ix_(minus, minus)] = -_negative_part(-residual[np.ix_(minus, minus)])

    def violation(self, s: np.ndarray) -> float:
        lam = np.linalg.eigvalsh(s)
        return max(0.0, float(np.max(np.abs(lam))) - self.rho) if lam.size else 0.0

    def prediction_bound(self, atom_norms) -> float:
        return self.rho * float(np.max(atom_norms.nuclear))

    def __str__(self) -> str:
        return f"operator-ball({self.rho:g})"


@dataclass(frozen=True)
class FrobeniusBall:
    rho: float

    def __post_init__(self):
        if self.rho < 0:
            raise ValidationError("Frobenius ball radius must be nonnegative")

    def project(self, lam: np.ndarray) -> np.ndarray:
        # after soft-thresholding a radial rescale solves the coupled prox
        # problem exactly: the Lagrangian stationarity gives eigenvalues
        # soft(lam, theta) / (1 + mu), a single scalar rescale pinned by the
        # norm constraint
        norm = float(np.linalg.norm(lam))
        if norm > self.rho:
            lam = lam * (self.rho / norm)
        return lam

    def remove_normal_cone(self, residual: np.ndarray, lam: np.ndarray, zero_tol: float) -> None:
        # on the boundary: the nonnegative multiple of lam fitted to the diagonal
        norm_sq = float(lam @ lam)
        if norm_sq > 0 and abs(np.sqrt(norm_sq) - self.rho) <= BOUNDARY_TOL * self.rho:
            diag = np.diag_indices_from(residual)
            residual[diag] -= max(0.0, float(residual[diag] @ lam) / norm_sq) * lam

    def violation(self, s: np.ndarray) -> float:
        return max(0.0, float(np.linalg.norm(s)) - self.rho)

    def prediction_bound(self, atom_norms) -> float:
        return self.rho * float(np.sqrt(np.max(atom_norms.sq_frobenius)))

    def __str__(self) -> str:
        return f"frobenius-ball({self.rho:g})"


ConstraintSet = Unconstrained | OperatorNormBall | FrobeniusBall
