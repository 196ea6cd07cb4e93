"""Penalized empirical risk minimization by accelerated proximal gradient.

Minimizes  mean_j loss(Y_j; <S, X_j>) + epsilon * ||S||_1  over a spectral
constraint set.  The smooth part is handled by gradient steps with
backtracking line search, the nuclear penalty plus constraint by an exact
eigenvalue-wise proximal map, and acceleration uses momentum with a
function-value restart that keeps the objective trace monotone.  Each
iteration takes one proximal step, and termination is on the gradient
mapping of that step, which bounds the first-order residual at the new
iterate.  The smooth part is evaluated on the dataset's empirical response
law: one row per sampled atom for a loss quadratic in the response, so an
evaluation costs O(K) rather than O(n), and one row per run of equal
consecutive samples otherwise, at most 2K for sampled labels.

An iteration makes one eigendecomposition, inside the prox, whose
thresholded eigenvalues also give the objective's nuclear norm, and one
forward at the extrapolated point for both the risk and the gradient there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintSet, Unconstrained
from .designs import Dataset, EmpiricalLaw
from .errors import NumericalError, ValidationError
from .losses import LossModel
from .matrices import (
    SpectralDecomposition,
    _descending_eigh,
    default_zero_tol,
    inner,
    nuclear_norm,
    soft_threshold,
    spectral_decompose,  # unused here; kept importable for perfbench/tracing.py
    symmetrize,
    validate_symmetric,
)

GRAD_TOL_FACTOR = 1e-8
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
    backtracks: int = 0  # step shrinks on a failed smoothness test
    restarts: int = 0    # steps from z rejected and their momentum dropped


def empirical_risk(s: np.ndarray, data: Dataset, loss: LossModel) -> float:
    """Sample mean of the loss at predictions <S, X_j>."""
    law = data.response_law(loss)
    return _risk(law, loss, _predict(data.design, law, validate_symmetric(s)))


def objective(s: np.ndarray, data: Dataset, loss: LossModel, epsilon: float) -> float:
    """Empirical risk plus epsilon times the nuclear norm."""
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return empirical_risk(s, data, loss) + epsilon * nuclear_norm(s)


def gradient(s: np.ndarray, data: Dataset, loss: LossModel) -> np.ndarray:
    """Riesz representer of the empirical-risk directional derivative."""
    return _gradient(validate_symmetric(s), data, loss)


def composite_prox(s: np.ndarray, theta: float, constraint: ConstraintSet) -> np.ndarray:
    """Exact prox of theta * nuclear norm plus the constraint indicator:
    soft-threshold the eigenvalues, then the constraint's ``project``."""
    if theta < 0:
        raise ValidationError("threshold must be nonnegative")
    return _prox(validate_symmetric(s), theta, constraint)[0]


def optimality_residuals(
    grad: np.ndarray,
    s_hat: np.ndarray,
    epsilon: float,
    constraint: ConstraintSet = Unconstrained(),
) -> tuple[float, float]:
    """First-order residuals with the constraint's normal cone removed.

    In the eigenbasis of ``s_hat`` its support L (eigenvalues above
    ``default_zero_tol``) and matrix sign are diagonal.  The residual R is
    W = -grad/epsilon minus the sign, minus the normal-cone part that the
    constraint's ``remove_normal_cone`` allows.  Returns the Frobenius norm
    of R on the rows and columns touching L, and how far the operator norm
    of R's block off L exceeds 1 (clipped at zero).  With ``epsilon == 0``:
    0 and the Frobenius norm of R with W = -grad, for every constraint set.
    """
    grad = validate_symmetric(grad)
    s_hat = validate_symmetric(s_hat)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    return _residuals(grad, s_hat, epsilon, constraint)


# -- unchecked kernels ----------------------------------------------------------
# The public functions above validate their matrices and then call these.  The
# iteration of ``solve`` calls them directly: its iterates are symmetric by
# construction (reconstructed or symmetrized, and z is an elementwise affine
# combination of them), so it validates nothing and decomposes once per prox.


def _predict(design, law: EmpiricalLaw, s: np.ndarray) -> np.ndarray:
    """The predictions u_r = <S, X_{k_r}> on the law's rows: one forward."""
    return design.forward(s)[law.atoms]


def _weighted_rows(fn, law: EmpiricalLaw, u: np.ndarray, what: str) -> np.ndarray:
    """The rows w_r * fn(y_r; u_r): the loss is evaluated once per row of the
    response law, not once per sample."""
    values = np.asarray(fn(law.y, u), dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"loss overflow while evaluating the {what}")
    return law.w * values


def _risk(law: EmpiricalLaw, loss: LossModel, u: np.ndarray) -> float:
    risk = law.const + float(np.sum(_weighted_rows(loss.value, law, u, "empirical risk")))
    if law.d1_remainder is not None:
        risk += float(law.d1_remainder @ (u - law.y))
    return risk


def _d1_rows(law: EmpiricalLaw, loss: LossModel, u: np.ndarray) -> np.ndarray:
    rows = _weighted_rows(loss.d1, law, u, "gradient")
    if law.d1_remainder is not None:
        rows += law.d1_remainder
    return rows


def _law_pass(law: EmpiricalLaw, loss: LossModel, u: np.ndarray) -> tuple[float, np.ndarray]:
    """The risk and the d1 rows at the same predictions u, so that a point
    which needs both gets one forward."""
    rows = _d1_rows(law, loss, u)
    return _risk(law, loss, u), rows


def _pullback(design, law: EmpiricalLaw, rows: np.ndarray) -> np.ndarray:
    """The gradient from d1 rows: their per-atom sums through the adjoint."""
    per_atom = np.bincount(law.atoms, weights=rows, minlength=design.num_atoms)
    return symmetrize(design.adjoint(per_atom))


def _gradient(s: np.ndarray, data: Dataset, loss: LossModel) -> np.ndarray:
    law = data.response_law(loss)
    return _pullback(data.design, law, _d1_rows(law, loss, _predict(data.design, law, s)))


def _prox(v: np.ndarray, theta: float, constraint: ConstraintSet) -> tuple[np.ndarray, float]:
    """``composite_prox`` of a symmetric ``v`` and the nuclear norm of the
    result, the sum of its absolute eigenvalues: one ``eigh`` for both."""
    dec = _descending_eigh(v)
    lam = constraint.project(soft_threshold(dec.eigenvalues, theta))
    return SpectralDecomposition(lam, dec.eigenvectors).reconstruct(), float(np.sum(np.abs(lam)))


def _residuals(grad, s_hat, epsilon: float, constraint: ConstraintSet) -> tuple[float, float]:
    """``optimality_residuals`` of symmetric ``grad`` and ``s_hat``."""
    dec = _descending_eigh(s_hat)
    lam, phi = dec.eigenvalues, dec.eigenvectors
    zero_tol = default_zero_tol(lam)
    in_support = np.abs(lam) > zero_tol
    w = (-grad / epsilon) if epsilon > 0 else -grad
    residual = symmetrize(phi.T @ w @ phi)
    diag = np.diag_indices_from(residual)
    if epsilon > 0:
        residual[diag] -= np.where(in_support, np.sign(lam), 0.0)
    constraint.remove_normal_cone(residual, lam, zero_tol)
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
        data_scale = float(np.linalg.norm(data.design.adjoint(data.response_sums / data.n)))
        grad_tol = GRAD_TOL_FACTOR * (1.0 + data_scale)

    # initial step: inverse of a curvature estimate at the zero matrix
    design, law = data.design, data.response_law(loss)
    curvature = np.asarray(loss.d2(law.y, np.zeros(law.y.shape)), dtype=float)
    bound = float(np.max(curvature) * np.max(design.atom_norms.sq_frobenius[law.atoms]))
    step = 1.0 / max(bound, 1e-12)

    step_cap = np.inf
    backtracks = restarts = 0

    def prox_step(point: np.ndarray, g: np.ndarray, f_point: float, step: float):
        # backtracking on the smooth part; the acceptance test is exact so
        # oversized steps cannot keep passing on float noise near the fixed
        # point, and confident failures cap future growth
        nonlocal step_cap, backtracks
        while True:
            candidate, nuclear = _prox(point - step * g, step * epsilon, constraint)
            diff = candidate - point
            f_cand = _risk(law, loss, _predict(design, law, candidate))
            quad = f_point + inner(g, diff) + float(np.sum(diff * diff)) / (2.0 * step)
            if f_cand <= quad:
                return candidate, f_cand + epsilon * nuclear, step
            if f_cand - quad > 1e-13 * max(1.0, abs(f_point)):
                step_cap = min(step_cap, step)
            step *= STEP_SHRINK
            backtracks += 1
            if step < 1e-18:
                raise NumericalError("backtracking step underflow; loss may be non-smooth")

    x = np.zeros((m, m))
    obj_x = _risk(law, loss, _predict(design, law, x))  # the nuclear norm of 0 is 0
    z = x  # at the start and after a restart, the step is taken from x
    t = 1.0
    trace = [obj_x]
    converged = False

    for iterations in range(1, config.max_iters + 1):
        f_z, rows = _law_pass(law, loss, _predict(design, law, z))
        x_new, obj_new, step = prox_step(z, _pullback(design, law, rows), f_z, step)
        if not np.isfinite(obj_new):
            raise NumericalError("objective became non-finite")
        if obj_new > obj_x and z is not x:
            z, t = x, 1.0  # momentum overshoot: drop it and step from x next
            restarts += 1
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

    kkt = _residuals(_gradient(x, data, loss), x, epsilon, constraint)
    return SolveResult(
        s_hat=x,
        objective_trace=np.array(trace),
        iterations=iterations,
        kkt=kkt,
        converged=converged,
        grad_tol=grad_tol,
        backtracks=backtracks,
        restarts=restarts,
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
) -> Certificate:
    """Recompute the first-order residuals at the solution and compare to tol.

    ``result`` is a solve result or the estimate matrix itself.  Certified
    iff both residual components are within ``tol`` and the constraint is
    satisfied within ``tol``.
    """
    s_hat = validate_symmetric(result.s_hat if isinstance(result, SolveResult) else result)
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    low, excess = _residuals(_gradient(s_hat, data, loss), s_hat, epsilon, constraint)
    feasible = constraint.violation(s_hat) <= tol
    return Certificate(
        kkt_low=low,
        kkt_excess=excess,
        feasible=feasible,
        certified=bool(low <= tol and excess <= tol and feasible),
    )
