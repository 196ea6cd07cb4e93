"""Penalized empirical risk minimization by accelerated proximal gradient.

Minimizes  mean_j loss(Y_j; <S, X_j>) + epsilon * ||S||_1  over a spectral
constraint set.  The smooth part is handled by gradient steps with
backtracking line search, the nuclear penalty plus constraint by an exact
eigenvalue-wise proximal map, and acceleration uses momentum with an
adaptive restart that keeps the objective trace monotone.  Termination is
on the proximal-gradient fixed-point residual measured at the accepted
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
    sign_and_support,
    soft_threshold,
    spectral_decompose,
    symmetrize,
    validate_symmetric,
)

GRAD_TOL_FACTOR = 1e-8
BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Regularization strength and iteration controls."""

    epsilon: float
    max_iters: int = 50_000
    grad_tol: float | None = None  # None: 1e-8 * (1 + data matrix scale)
    step0: float | None = None     # None: inverse curvature estimate
    shrink: float = 0.5
    growth: float = 1.2
    restart: bool = True

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be nonnegative")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise ValidationError("grad_tol must be positive")
        if self.step0 is not None and self.step0 <= 0:
            raise ValidationError("step0 must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValidationError("shrink factor must lie in (0, 1)")
        if self.growth < 1.0:
            raise ValidationError("growth factor must be at least 1")


@dataclass(frozen=True)
class SolveResult:
    s_hat: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    kkt: tuple[float, float]
    converged: bool
    grad_tol: float = field(default=0.0)
    final_step: float = field(default=0.0)


def _atom_predictions(s: np.ndarray, data: Dataset) -> np.ndarray:
    return np.einsum("kij,ij->k", data.design.atoms, s)


def empirical_risk(s: np.ndarray, data: Dataset, loss: LossModel) -> float:
    """Sample mean of the loss at predictions <S, X_j>."""
    u = _atom_predictions(s, data)[data.atom_indices]
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
    """Riesz representer of the empirical-risk directional derivative.

    Samples sharing an atom are aggregated so the matrix accumulation runs
    over distinct atoms rather than raw samples.
    """
    s = validate_symmetric(s)
    u_atom = _atom_predictions(s, data)
    d1 = np.asarray(loss.d1(data.y, u_atom[data.atom_indices]), dtype=float)
    if not np.all(np.isfinite(d1)):
        raise NumericalError("loss overflow while evaluating the gradient")
    weights = np.bincount(
        data.atom_indices, weights=d1, minlength=data.design.num_atoms
    ) / data.n
    return symmetrize(np.tensordot(weights, data.design.atoms, axes=1))


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

    Unconstrained: the plain nuclear-subdifferential residuals.  With
    W = -grad/epsilon and L the support of ``s_hat``, the first component is
    the Frobenius distance of the supported part of W from the matrix sign
    of ``s_hat``, and the second how far the operator norm of the
    complement part of W exceeds 1 (clipped at zero).  For the spectral
    balls the allowed normal-cone component is projected out first:
    nonnegative multiples of the estimate for a Frobenius ball, and
    signed semidefinite blocks on the active eigenspaces for an
    operator-norm ball.  With ``epsilon == 0`` the first component is 0 and
    the second is the corrected stationarity residual.
    """
    grad = validate_symmetric(grad)
    s_hat = validate_symmetric(s_hat)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")

    if isinstance(constraint, Unconstrained) and epsilon == 0:
        return 0.0, operator_norm(grad)

    if isinstance(constraint, (Unconstrained, FrobeniusBall)):
        # the normal cone is {0} off the boundary, and the unconstrained
        # set has no boundary
        denom = float(np.linalg.norm(s_hat)) ** 2
        on_boundary = (
            isinstance(constraint, FrobeniusBall)
            and denom > 0
            and abs(np.sqrt(denom) - constraint.rho) <= BOUNDARY_TOL * constraint.rho
        )
        if epsilon > 0:
            w = -grad / epsilon
            sign_m, support = sign_and_support(s_hat, zero_tol)
            if on_boundary:
                shift = max(0.0, inner(support.apply(w) - sign_m, s_hat) / denom)
                w = w - shift * s_hat
            w_comp = support.apply_complement(w)
            low = float(np.linalg.norm((w - w_comp) - sign_m))
            return low, max(0.0, operator_norm(w_comp) - 1.0)
        g = grad
        if on_boundary:
            shift = max(0.0, -inner(g, s_hat) / denom)
            g = g + shift * s_hat
        return 0.0, float(np.linalg.norm(g))

    if isinstance(constraint, OperatorNormBall):
        dec = spectral_decompose(s_hat)
        lam, phi = dec.eigenvalues, dec.eigenvectors
        if zero_tol is None:
            zero_tol = default_zero_tol(s_hat)
        in_support = np.abs(lam) > zero_tol
        rho = constraint.rho
        act_tol = max(BOUNDARY_TOL * rho, zero_tol)
        plus = lam >= rho - act_tol
        minus = lam <= -rho + act_tol
        w = (-grad / epsilon) if epsilon > 0 else -grad
        wt = symmetrize(phi.T @ w @ phi)
        residual = wt.copy()
        if epsilon > 0:
            residual[np.diag_indices_from(residual)] -= np.where(
                in_support, np.sign(lam), 0.0
            )
        # active blocks may absorb any signed-semidefinite normal component
        if np.any(plus):
            residual[np.ix_(plus, plus)] = _negative_part(residual[np.ix_(plus, plus)])
        if np.any(minus):
            residual[np.ix_(minus, minus)] = _positive_part(residual[np.ix_(minus, minus)])
        if epsilon == 0:
            return 0.0, float(np.linalg.norm(residual))
        touches_support = in_support[:, None] | in_support[None, :]
        low = float(np.linalg.norm(residual[touches_support]))
        comp = wt[np.ix_(~in_support, ~in_support)]
        excess = 0.0
        if comp.size:
            excess = max(0.0, float(np.max(np.abs(np.linalg.eigvalsh(comp)))) - 1.0)
        return low, excess

    raise ValidationError(f"unknown constraint {constraint!r}")


def _data_scale(data: Dataset) -> float:
    weights = np.bincount(
        data.atom_indices, weights=data.y, minlength=data.design.num_atoms
    ) / data.n
    m = np.tensordot(weights, data.design.atoms, axes=1)
    return float(np.linalg.norm(m))


def solve(
    data: Dataset,
    loss: LossModel,
    config: SolverConfig,
    constraint: ConstraintSet = Unconstrained(),
) -> SolveResult:
    """Run accelerated proximal gradient from the zero matrix.

    Backtracking shrinks the step when the local smoothness test fails and
    the step re-expands geometrically afterwards; a restart drops the
    momentum whenever it would increase the objective, so the recorded
    objective trace is nonincreasing.  Stops when the fixed-point residual
    ||S - prox(S - step * grad(S))|| / step falls below ``grad_tol`` or the
    iteration budget runs out (``converged`` reports which).
    """
    m = data.design.dim
    epsilon = config.epsilon

    grad_tol = config.grad_tol
    if grad_tol is None:
        grad_tol = GRAD_TOL_FACTOR * (1.0 + _data_scale(data))

    if config.step0 is not None:
        step = config.step0
    else:
        curvature = np.asarray(
            loss.d2(data.y, np.zeros(data.n)), dtype=float
        )
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
            step *= config.shrink
            if step < 1e-18:
                raise NumericalError("backtracking step underflow; loss may be non-smooth")

    x = np.zeros((m, m))
    obj_x = objective(x, data, loss, epsilon)
    z = x
    t = 1.0
    trace = [obj_x]
    converged = False
    iterations = 0

    for k in range(1, config.max_iters + 1):
        g_z = gradient(z, data, loss)
        f_z = empirical_risk(z, data, loss)
        x_new, f_new, step = prox_step(z, g_z, f_z, step)
        obj_new = f_new + epsilon * nuclear_norm(x_new)
        if config.restart and obj_new > obj_x:
            # momentum overshoot: drop it and retake the step from x
            t = 1.0
            g_x = gradient(x, data, loss)
            f_x = empirical_risk(x, data, loss)
            x_new, f_new, step = prox_step(x, g_x, f_x, step)
            obj_new = f_new + epsilon * nuclear_norm(x_new)
        if not np.isfinite(obj_new):
            raise NumericalError("objective became non-finite")

        g_new = gradient(x_new, data, loss)
        fixed_point = composite_prox(x_new - step * g_new, step * epsilon, constraint)
        residual = float(np.linalg.norm(x_new - fixed_point)) / step

        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_next) * (x_new - x)
        x, obj_x, t = x_new, obj_new, t_next
        trace.append(obj_x)
        iterations = k
        if residual <= grad_tol:
            converged = True
            break
        step = min(step * config.growth, step_cap)

    kkt = optimality_residuals(gradient(x, data, loss), x, epsilon, constraint)
    return SolveResult(
        s_hat=x,
        objective_trace=np.array(trace),
        iterations=iterations,
        kkt=kkt,
        converged=converged,
        grad_tol=grad_tol,
        final_step=step,
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
