"""Penalized empirical risk minimization by accelerated proximal gradient.

Minimizes  mean_j loss(Y_j; <S, X_j>) + epsilon * ||S||_1  over a spectral
constraint set.  The smooth part is handled by gradient steps with
backtracking line search, the nuclear penalty plus constraint by an exact
eigenvalue-wise proximal map, and acceleration uses momentum with a
function-value restart that keeps the objective trace monotone.  Each
iteration takes one proximal step, and termination is on the gradient
mapping of that step, which bounds the first-order residual at the new
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import (
    ConstraintSet,
    FrobeniusBall,
    OperatorNormBall,
    Unconstrained,
    constraint_violation,
)
from .designs import Dataset
from .errors import NumericalError, ValidationError
from .losses import LossModel
from .matrices import (
    default_zero_tol,
    inner,
    nuclear_norm,
    operator_norm,
    soft_threshold,
    spectral_decompose,
    symmetrize,
    validate_symmetric,
)

GRAD_TOL_FACTOR = 1e-8
BOUNDARY_TOL = 1e-8
STEP_SHRINK = 0.5  # backtracking factor on a failed smoothness test
STEP_GROWTH = 1.2  # re-expansion factor after each accepted iteration


@dataclass(frozen=True)
class SolverConfig:
    """Regularization strength and iteration controls."""

    epsilon: float
    max_iters: int = 50_000
    grad_tol: float | None = None  # None: 1e-8 * (1 + data matrix scale)

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be nonnegative")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValidationError("grad_tol must be positive")


@dataclass(frozen=True)
class SolveResult:
    s_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    kkt: tuple[float, float]
    converged: bool
    grad_tol: float = field(default=0.0)


def empirical_risk(s: np.ndarray, data: Dataset, loss: LossModel) -> float:
    """Sample mean of the loss at predictions <S, X_j>."""
    u = data.design.forward(s)[data.atom_indices]
    vals = np.asarray(loss.value(data.y, u), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("loss overflow while evaluating the empirical risk")
    return float(np.mean(vals))


def objective(s: np.ndarray, data: Dataset, loss: LossModel, epsilon: float) -> float:
    """Empirical risk plus epsilon times the nuclear norm."""
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return empirical_risk(s, data, loss) + epsilon * nuclear_norm(s)


def gradient(s: np.ndarray, data: Dataset, loss: LossModel) -> np.ndarray:
    """Riesz representer of the empirical-risk directional derivative."""
    s = validate_symmetric(s)
    u_atom = data.design.forward(s)
    d1 = np.asarray(loss.d1(data.y, u_atom[data.atom_indices]), dtype=float)
    if not np.all(np.isfinite(d1)):
        raise NumericalError("loss overflow while evaluating the gradient")
    return symmetrize(_sample_mean_adjoint(d1, data))


def _sample_mean_adjoint(values: np.ndarray, data: Dataset) -> np.ndarray:
    """(1/n) sum_j values_j X_j.  Samples sharing an atom are aggregated so
    the adjoint runs over distinct atoms rather than raw samples."""
    weights = np.bincount(
        data.atom_indices, weights=values, minlength=data.design.num_atoms
    ) / data.n
    return data.design.adjoint(weights)


def composite_prox(s: np.ndarray, theta: float, constraint: ConstraintSet) -> np.ndarray:
    """Exact prox of theta * nuclear norm plus the constraint indicator.

    Eigenvalue-wise: soft-threshold, then clip for an operator-norm ball.
    For a Frobenius ball, soft-thresholding followed by a radial rescale
    solves the coupled problem exactly: the Lagrangian stationarity gives
    eigenvalues soft(lam, theta) / (1 + mu), so the dual multiplier acts as
    a single scalar rescale pinned by the norm constraint.
    """
    if theta < 0:
        raise ValidationError("threshold must be nonnegative")
    dec = spectral_decompose(s)
    lam = soft_threshold(dec.eigenvalues, theta)
    if isinstance(constraint, OperatorNormBall):
        lam = np.clip(lam, -constraint.rho, constraint.rho)
    elif isinstance(constraint, FrobeniusBall):
        norm = float(np.linalg.norm(lam))
        if norm > constraint.rho:
            lam = lam * (constraint.rho / norm)
    elif not isinstance(constraint, Unconstrained):
        raise ValidationError(f"unknown constraint {constraint!r}")
    phi = dec.eigenvectors
    return symmetrize((phi * lam) @ phi.T)


def _negative_part(block: np.ndarray) -> np.ndarray:
    lam, phi = np.linalg.eigh(symmetrize(block))
    lam = np.minimum(lam, 0.0)
    return (phi * lam) @ phi.T


def _positive_part(block: np.ndarray) -> np.ndarray:
    return -_negative_part(-block)


def optimality_residuals(
    grad: np.ndarray,
    s_hat: np.ndarray,
    epsilon: float,
    constraint: ConstraintSet = Unconstrained(),
    zero_tol: float | None = None,
) -> tuple[float, float]:
    """First-order residuals with the constraint's normal cone removed.

    In the eigenbasis of ``s_hat`` its support L (eigenvalues above
    ``zero_tol``) and matrix sign are diagonal.  The residual R is
    W = -grad/epsilon minus the sign, minus the allowed normal-cone part:
    nothing unconstrained; on a Frobenius ball's boundary, the nonnegative
    multiple of the eigenvalues fitted to R's diagonal; on an operator-norm
    ball, the positive (negative) semidefinite part of R's block on the
    eigenvalues at +rho (-rho).  Returns the Frobenius norm of R on the rows
    and columns touching L, and how far the operator norm of R's block off L
    exceeds 1 (clipped at zero).  With ``epsilon == 0``: 0 and the Frobenius
    norm of R with W = -grad, or unconstrained the operator norm of grad.
    """
    grad = validate_symmetric(grad)
    s_hat = validate_symmetric(s_hat)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    if not isinstance(constraint, (Unconstrained, FrobeniusBall, OperatorNormBall)):
        raise ValidationError(f"unknown constraint {constraint!r}")
    if isinstance(constraint, Unconstrained) and epsilon == 0:
        return 0.0, operator_norm(grad)

    dec = spectral_decompose(s_hat)
    lam, phi = dec.eigenvalues, dec.eigenvectors
    if zero_tol is None:
        zero_tol = default_zero_tol(s_hat)
    if zero_tol < 0:
        raise ValidationError("zero_tol must be nonnegative")
    in_support = np.abs(lam) > zero_tol
    w = (-grad / epsilon) if epsilon > 0 else -grad
    residual = symmetrize(phi.T @ w @ phi)
    diag = np.diag_indices_from(residual)
    if epsilon > 0:
        residual[diag] -= np.where(in_support, np.sign(lam), 0.0)
    if isinstance(constraint, FrobeniusBall):
        norm_sq = float(lam @ lam)
        rho = constraint.rho
        if norm_sq > 0 and abs(np.sqrt(norm_sq) - rho) <= BOUNDARY_TOL * rho:
            residual[diag] -= max(0.0, float(residual[diag] @ lam) / norm_sq) * lam
    elif isinstance(constraint, OperatorNormBall):
        rho = constraint.rho
        act_tol = max(BOUNDARY_TOL * rho, zero_tol)
        plus = lam >= rho - act_tol
        minus = lam <= -rho + act_tol
        # active blocks may absorb any signed-semidefinite normal component
        if np.any(plus):
            residual[np.ix_(plus, plus)] = _negative_part(residual[np.ix_(plus, plus)])
        if np.any(minus):
            residual[np.ix_(minus, minus)] = _positive_part(residual[np.ix_(minus, minus)])
    if epsilon == 0:
        return 0.0, float(np.linalg.norm(residual))
    touches_support = in_support[:, None] | in_support[None, :]
    low = float(np.linalg.norm(residual[touches_support]))
    comp = np.linalg.eigvalsh(residual[np.ix_(~in_support, ~in_support)])
    return low, max(0.0, float(np.max(np.abs(comp), initial=0.0)) - 1.0)


def solve(
    data: Dataset,
    loss: LossModel,
    config: SolverConfig,
    constraint: ConstraintSet = Unconstrained(),
) -> SolveResult:
    """Run accelerated proximal gradient from the zero matrix.

    Each iteration takes one proximal step x+ = prox(z - step * grad(z))
    from the extrapolated point z, backtracking on the smoothness test; the
    step re-expands geometrically after every iteration.  A step from z that
    is not x and raises the objective is rejected and the momentum dropped
    (z = x, t = 1); a step from x itself is always accepted.  The objective
    trace thus has one entry per iteration, repeats a value at each restart
    and is nonincreasing up to rounding.

    Stops once an accepted step has ||x+ - z|| / step <= ``grad_tol``, or
    when the iteration budget runs out (``converged`` reports which).  As
    (z - x+) / step - grad(z) lies in the subdifferential of the penalty
    plus constraint at x+, dist(0, subdiff objective(x+)) <=
    (1 + step * L) * ||z - x+|| / step for an L-Lipschitz gradient.
    """
    m = data.design.dim
    epsilon = config.epsilon

    grad_tol = config.grad_tol
    if grad_tol is None:
        data_scale = float(np.linalg.norm(_sample_mean_adjoint(data.y, data)))
        grad_tol = GRAD_TOL_FACTOR * (1.0 + data_scale)

    # initial step: inverse of a curvature estimate at the zero matrix
    curvature = np.asarray(loss.d2(data.y, np.zeros(data.n)), dtype=float)
    atom_sq = np.einsum("kij,kij->k", data.design.atoms, data.design.atoms)
    bound = float(np.max(curvature)) * float(np.max(atom_sq[data.atom_indices]))
    step = 1.0 / max(bound, 1e-12)

    step_cap = np.inf

    def prox_step(point: np.ndarray, g: np.ndarray, f_point: float, step: float):
        # backtracking on the smooth part; the acceptance test is exact so
        # oversized steps cannot keep passing on float noise near the fixed
        # point, and confident failures cap future growth
        nonlocal step_cap
        while True:
            candidate = composite_prox(point - step * g, step * epsilon, constraint)
            diff = candidate - point
            f_cand = empirical_risk(candidate, data, loss)
            quad = f_point + inner(g, diff) + float(np.sum(diff * diff)) / (2.0 * step)
            if f_cand <= quad:
                return candidate, f_cand, step
            if f_cand - quad > 1e-13 * max(1.0, abs(f_point)):
                step_cap = min(step_cap, step)
            step *= STEP_SHRINK
            if step < 1e-18:
                raise NumericalError("backtracking step underflow; loss may be non-smooth")

    x = np.zeros((m, m))
    obj_x = objective(x, data, loss, epsilon)
    z = x  # at the start and after a restart, the step is taken from x
    t = 1.0
    trace = [obj_x]
    converged = False

    for iterations in range(1, config.max_iters + 1):
        g_z = gradient(z, data, loss)
        f_z = empirical_risk(z, data, loss)
        x_new, f_new, step = prox_step(z, g_z, f_z, step)
        obj_new = f_new + epsilon * nuclear_norm(x_new)
        if not np.isfinite(obj_new):
            raise NumericalError("objective became non-finite")
        if obj_new > obj_x and z is not x:
            z, t = x, 1.0  # momentum overshoot: drop it and step from x next
        else:  # never reject a step from x: rounding would stall at the fixed point
            converged = float(np.linalg.norm(x_new - z)) / step <= grad_tol
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_next) * (x_new - x)
            x, obj_x, t = x_new, obj_new, t_next
        trace.append(obj_x)
        if converged:
            break
        # grow after restarts too, or backtracks failing on rounding shrink it away
        step = min(step * STEP_GROWTH, step_cap)

    kkt = optimality_residuals(gradient(x, data, loss), x, epsilon, constraint)
    return SolveResult(
        s_hat=x,
        objective_trace=np.array(trace),
        iterations=iterations,
        kkt=kkt,
        converged=converged,
        grad_tol=grad_tol,
    )


@dataclass(frozen=True)
class Certificate:
    """First-order residuals and feasibility of an estimate; true iff
    ``certified``."""

    kkt_low: float
    kkt_excess: float
    feasible: bool
    certified: bool

    def __bool__(self) -> bool:
        return self.certified


def certify(
    result: SolveResult | np.ndarray,
    data: Dataset,
    loss: LossModel,
    epsilon: float,
    constraint: ConstraintSet = Unconstrained(),
    tol: float = 1e-5,
    zero_tol: float | None = None,
) -> Certificate:
    """Recompute the first-order residuals at the solution and compare to tol.

    ``result`` is a solve result or the estimate matrix itself.  Certified
    iff both residual components are within ``tol`` and the constraint is
    satisfied within ``tol``.
    """
    s_hat = result.s_hat if isinstance(result, SolveResult) else result
    g = gradient(s_hat, data, loss)
    low, excess = optimality_residuals(g, s_hat, epsilon, constraint, zero_tol)
    feasible = constraint_violation(s_hat, constraint) <= tol
    return Certificate(
        kkt_low=low,
        kkt_excess=excess,
        feasible=feasible,
        certified=bool(low <= tol and excess <= tol and feasible),
    )
