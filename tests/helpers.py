"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the implementation paths they check:
the proximal-map oracle runs coarse-to-fine scalar grid searches (with an
outer dual bisection for the coupled Frobenius-ball case), and the least
squares oracle assembles explicit normal equations over an orthonormal
basis of the symmetric matrix space.  The Bayes-risk oracle minimizes one
conditional-risk closure per atom with scipy's bounded scalar search.  The
first-order residual reference works in the original basis with the support
and active-eigenspace projectors of the estimate, where the solver works in
its eigenbasis.  The empirical risk and gradient references evaluate the
loss at every sample, where the solver evaluates it once per row of the
response law.  The solver reference runs the proximal-gradient iteration on
the validated public functions, where ``solve`` runs it on unchecked kernels.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from lowrank_oracle import (
    ClassificationLink,
    Dataset,
    FrobeniusBall,
    Interval,
    LossModel,
    NumericalError,
    OperatorNormBall,
    SolveResult,
    Unconstrained,
    composite_prox,
    empirical_risk,
    gradient,
    nuclear_norm,
    operator_norm,
    optimality_residuals,
    orthonormal_basis_design,
    sign_and_support,
)
from lowrank_oracle.bounds import _signed_counts, _stats_from_norms
from lowrank_oracle.constraints import BOUNDARY_TOL
from lowrank_oracle.matrices import default_zero_tol, inner, symmetrize, validate_symmetric
from lowrank_oracle.solver import GRAD_TOL_FACTOR, STEP_GROWTH, STEP_SHRINK

GRID_STAGES = (1e-2, 1e-4, 1e-6)


def random_symmetric(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((m, m)) * scale
    return 0.5 * (a + a.T)


def random_low_rank(
    rng: np.random.Generator, m: int, rank: int, spectrum=None
) -> np.ndarray:
    if spectrum is None:
        spectrum = rng.uniform(0.5, 2.0, size=rank) * rng.choice([-1.0, 1.0], size=rank)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    frame = q[:, :rank]
    s = (frame * np.asarray(spectrum)) @ frame.T
    return 0.5 * (s + s.T)


def grid_minimize(objective, lo: float, hi: float, stages=GRID_STAGES) -> float:
    """Coarse-to-fine 1-d grid search; final stage step is ``stages[-1]``.

    The kink at zero and the interval endpoints are always candidate points.
    """
    window_lo, window_hi = lo, hi
    best = lo
    for step in stages:
        xs = np.arange(window_lo, window_hi + step, step)
        xs = np.clip(xs, lo, hi)
        xs = np.append(xs, [0.0, lo, hi])
        xs = xs[(xs >= lo) & (xs <= hi)]
        vals = objective(xs)
        best = float(xs[np.argmin(vals)])
        window_lo, window_hi = max(lo, best - 2 * step), min(hi, best + 2 * step)
    return best


def prox_scalar_oracle(lam: float, theta: float, lo: float, hi: float, mu: float = 0.0) -> float:
    def objective(x):
        return 0.5 * (x - lam) ** 2 + theta * np.abs(x) + 0.5 * mu * x * x

    return grid_minimize(objective, lo, hi)


def prox_eigenvalues_oracle(lams: np.ndarray, theta: float, constraint) -> np.ndarray:
    """Grid-search solution of the eigenvalue prox problem, per constraint.

    Unconstrained and operator-ball instances are separable per eigenvalue.
    The Frobenius ball couples them through one scalar dual multiplier,
    located by bisection on the norm of the per-eigenvalue grid solutions.
    """
    lams = np.asarray(lams, dtype=float)
    radius = float(np.max(np.abs(lams))) + theta + 1.0

    if isinstance(constraint, Unconstrained):
        return np.array([prox_scalar_oracle(l, theta, -radius, radius) for l in lams])
    if isinstance(constraint, OperatorNormBall):
        rho = constraint.rho
        return np.array([prox_scalar_oracle(l, theta, -rho, rho) for l in lams])
    if isinstance(constraint, FrobeniusBall):
        rho = constraint.rho

        def solve_for(mu: float) -> np.ndarray:
            return np.array(
                [prox_scalar_oracle(l, theta, -radius, radius, mu=mu) for l in lams]
            )

        x = solve_for(0.0)
        if np.linalg.norm(x) <= rho + 1e-12:
            return x
        mu_lo, mu_hi = 0.0, 1.0
        while np.linalg.norm(solve_for(mu_hi)) > rho:
            mu_hi *= 2.0
        for _ in range(50):
            mid = 0.5 * (mu_lo + mu_hi)
            if np.linalg.norm(solve_for(mid)) > rho:
                mu_lo = mid
            else:
                mu_hi = mid
        return solve_for(mu_hi)
    raise AssertionError(f"unknown constraint {constraint!r}")


def least_squares_oracle(data: Dataset) -> np.ndarray:
    """Unpenalized least squares by explicit normal equations over an
    orthonormal basis of the symmetric matrix space."""
    m = data.design.dim
    basis = orthonormal_basis_design(m).atoms
    covariates = data.design.atoms[data.atom_indices]
    features = np.einsum("nij,kij->nk", covariates, basis)
    coef, *_ = np.linalg.lstsq(features, data.y, rcond=None)
    return np.tensordot(coef, basis, axes=1)


def optimality_residuals_reference(
    grad: np.ndarray, s_hat: np.ndarray, epsilon: float, constraint
) -> tuple[float, float]:
    """First-order residuals by the support projectors of ``s_hat``.

    R is W = -grad/epsilon minus the matrix sign (-grad when epsilon is 0),
    minus the normal-cone part: on the Frobenius ball's boundary, the best
    nonnegative multiple of ``s_hat``; on an operator-norm ball, the positive
    (negative) semidefinite part of R compressed by the projector onto the
    eigenspace of the eigenvalues at +rho (-rho).  Returns the Frobenius norm
    of R's supported part and the excess over 1 of the operator norm of its
    complement part; 0 and the Frobenius norm of R when epsilon is 0."""
    sign, support = sign_and_support(s_hat)
    r = -grad / epsilon - sign if epsilon > 0 else -grad
    if isinstance(constraint, FrobeniusBall):
        denom = float(np.linalg.norm(s_hat)) ** 2
        if denom > 0 and abs(np.sqrt(denom) - constraint.rho) <= BOUNDARY_TOL * constraint.rho:
            r = r - max(0.0, float(np.sum(r * s_hat)) / denom) * s_hat
    if isinstance(constraint, OperatorNormBall):
        rho = constraint.rho
        lam, phi = np.linalg.eigh(s_hat)
        act_tol = max(BOUNDARY_TOL * rho, default_zero_tol(lam))
        at_plus, at_minus = lam >= rho - act_tol, lam <= -rho + act_tol
        for active, part in ((at_plus, np.maximum), (at_minus, np.minimum)):
            projector = phi[:, active] @ phi[:, active].T
            mu, psi = np.linalg.eigh(symmetrize(projector @ r @ projector))
            r = symmetrize(r - (psi * part(mu, 0.0)) @ psi.T)
    if epsilon == 0:
        return 0.0, float(np.linalg.norm(r))
    r_comp = support.apply_complement(r)
    return float(np.linalg.norm(r - r_comp)), max(0.0, operator_norm(r_comp) - 1.0)


def empirical_risk_reference(s: np.ndarray, data: Dataset, loss) -> float:
    """The loss evaluated at every sample and averaged: the per-sample form
    of ``solver.empirical_risk``, which evaluates it on the response law."""
    u = data.design.forward(s)[data.atom_indices]
    vals = np.asarray(loss.value(data.y, u), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("loss overflow while evaluating the empirical risk")
    return float(np.mean(vals))


def gradient_reference(s: np.ndarray, data: Dataset, loss) -> np.ndarray:
    """(1/n) sum_j d1(Y_j; <S, X_j>) X_j with d1 evaluated at every sample:
    the per-sample form of ``solver.gradient``."""
    s = validate_symmetric(s)
    d1 = np.asarray(loss.d1(data.y, data.design.forward(s)[data.atom_indices]), dtype=float)
    if not np.all(np.isfinite(d1)):
        raise NumericalError("loss overflow while evaluating the gradient")
    weights = np.bincount(data.atom_indices, weights=d1, minlength=data.design.num_atoms)
    return symmetrize(data.design.adjoint(weights / data.n))


def log_cosh_loss() -> LossModel:
    """log cosh(y - u): smooth and convex, with no closed form for its
    conditional minimizer and no exact compression of continuous responses."""

    def value(y, u):
        r = np.asarray(y, dtype=float) - u
        return np.logaddexp(r, -r) - np.log(2.0)

    def d1(y, u):
        return -np.tanh(np.asarray(y, dtype=float) - u)

    def d2(y, u):
        return 1.0 - np.tanh(np.asarray(y, dtype=float) - u) ** 2

    return LossModel("log-cosh", value, d1, d2, default_domain=lambda a: Interval(-a, a))


def directional_derivative(fn, s: np.ndarray, h: np.ndarray, step: float = 1e-6) -> float:
    return (fn(s + step * h) - fn(s - step * h)) / (2.0 * step)


def conditional_risk_functions(design, truth, loss, quadrature_nodes: int = 64) -> list:
    """Per atom, a closure for the exact map u -> E[loss(Y; u) | X = atom]."""
    s = design.forward(truth.s_star)
    if isinstance(truth.noise, ClassificationLink):
        p = np.asarray(truth.noise.link(s), dtype=float)

        def make(pi: float):
            return lambda u: float(
                pi * loss.value(1.0, u) + (1.0 - pi) * loss.value(-1.0, u)
            )

        return [make(float(pi)) for pi in p]

    noise = truth.noise
    if noise.sigma == 0 or noise.cutoff == 0:
        return [lambda u, si=float(si): float(loss.value(si, u)) for si in s]

    nodes, weights = np.polynomial.legendre.leggauss(quadrature_nodes)
    c = noise.cutoff
    xi = c * nodes
    density = np.exp(-0.5 * (xi / noise.sigma) ** 2) / (noise.sigma * np.sqrt(2.0 * np.pi))
    mass = 1.0 - 2.0 * ndtr(-noise.truncation)
    w = c * weights * density / mass

    def make_quad(si: float):
        ys = si + xi
        return lambda u: float(np.dot(w, np.asarray(loss.value(ys, u), dtype=float)))

    return [make_quad(float(si)) for si in s]


def bayes_risk_oracle(design, truth, loss) -> np.ndarray:
    """Per-atom minimal conditional risk by one bounded scalar minimization
    per atom over the bracket [-half, half]."""
    s = design.forward(truth.s_star)
    cutoff = 0.0 if isinstance(truth.noise, ClassificationLink) else truth.noise.cutoff
    half = max(1.0, 10.0 * (float(np.max(np.abs(s))) + cutoff))
    out = []
    for fn in conditional_risk_functions(design, truth, loss):
        res = minimize_scalar(fn, bounds=(-half, half), method="bounded", options={"xatol": 1e-10})
        assert res.success, res.message
        out.append(float(res.fun))
    return np.array(out)


def rademacher_norm_reference(design, n: int, reps: int, seed: int, block: int):
    """Monte Carlo Delta with the signed counts of each ``block`` repetitions
    drawn in turn through ``_signed_counts``, and one adjoint and one batched
    eigenvalue call over all repetitions: the unblocked linear algebra that
    the row-blocked ``estimate_rademacher_norm`` must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    coeffs = [
        _signed_counts(rng, n, design.probs, min(block, reps - start)) / np.sqrt(n)
        for start in range(0, reps, block)
    ]
    mats = design.adjoint(np.concatenate(coeffs))
    return _stats_from_norms(np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1), n)


def solve_reference(data: Dataset, loss, config, constraint=Unconstrained()) -> SolveResult:
    """``solve``'s iteration on the public functions, each of which validates
    its matrices: a gradient and a risk at z, a checked prox per step tried,
    and the objective's nuclear norm from a second decomposition of x+."""
    m = data.design.dim
    epsilon = config.epsilon

    grad_tol = config.grad_tol
    if grad_tol is None:
        data_scale = float(np.linalg.norm(data.design.adjoint(data.response_sums / data.n)))
        grad_tol = GRAD_TOL_FACTOR * (1.0 + data_scale)

    law = data.response_law(loss)
    curvature = np.asarray(loss.d2(law.y, np.zeros(law.y.shape)), dtype=float)
    bound = float(np.max(curvature) * np.max(data.design.atom_norms.sq_frobenius[law.atoms]))
    step = 1.0 / max(bound, 1e-12)

    step_cap = np.inf
    backtracks = restarts = 0

    def prox_step(point, g, f_point, step):
        nonlocal step_cap, backtracks
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
            backtracks += 1
            if step < 1e-18:
                raise NumericalError("backtracking step underflow; loss may be non-smooth")

    x = np.zeros((m, m))
    obj_x = empirical_risk(x, data, loss) + epsilon * nuclear_norm(x)
    z = x
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
            z, t = x, 1.0
            restarts += 1
        else:
            converged = float(np.linalg.norm(x_new - z)) / step <= grad_tol
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_next) * (x_new - x)
            x, obj_x, t = x_new, obj_new, t_next
        trace.append(obj_x)
        if converged:
            break
        step = min(step * STEP_GROWTH, step_cap)

    kkt = optimality_residuals(gradient(x, data, loss), x, epsilon, constraint)
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
