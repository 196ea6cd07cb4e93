"""Shared test utilities: random instances and independent oracles.

The oracles here deliberately avoid the implementation paths they check:
the proximal-map oracle runs coarse-to-fine scalar grid searches (with an
outer dual bisection for the coupled Frobenius-ball case), and the least
squares oracle assembles explicit normal equations over an orthonormal
basis of the symmetric matrix space.  The Bayes-risk oracle minimizes one
conditional-risk closure per atom with scipy's bounded scalar search.  The
first-order residual reference works in the original basis with the support
projectors of the estimate, where the solver works in its eigenbasis.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ndtr

from lowrank_oracle import (
    ClassificationLink,
    Dataset,
    FrobeniusBall,
    OperatorNormBall,
    Unconstrained,
    operator_norm,
    orthonormal_basis_design,
    sign_and_support,
)
from lowrank_oracle.designs import truth_predictions
from lowrank_oracle.solver import BOUNDARY_TOL

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
    """First-order residuals for the unconstrained set and the Frobenius
    ball by the support projectors of ``s_hat``: the distance of the
    supported part of W = -grad/epsilon from the matrix sign, and the excess
    over 1 of the complement part's operator norm, after removing the best
    nonnegative multiple of ``s_hat`` when it lies on the ball's boundary."""
    if isinstance(constraint, Unconstrained) and epsilon == 0:
        return 0.0, operator_norm(grad)
    denom = float(np.linalg.norm(s_hat)) ** 2
    on_boundary = (
        isinstance(constraint, FrobeniusBall)
        and denom > 0
        and abs(np.sqrt(denom) - constraint.rho) <= BOUNDARY_TOL * constraint.rho
    )
    if epsilon == 0:
        shift = max(0.0, -float(np.sum(grad * s_hat)) / denom) if on_boundary else 0.0
        return 0.0, float(np.linalg.norm(grad + shift * s_hat))
    w = -grad / epsilon
    sign, support = sign_and_support(s_hat)
    if on_boundary:
        w = w - max(0.0, float(np.sum((support.apply(w) - sign) * s_hat)) / denom) * s_hat
    w_comp = support.apply_complement(w)
    low = float(np.linalg.norm(w - w_comp - sign))
    return low, max(0.0, operator_norm(w_comp) - 1.0)


def directional_derivative(fn, s: np.ndarray, h: np.ndarray, step: float = 1e-6) -> float:
    return (fn(s + step * h) - fn(s - step * h)) / (2.0 * step)


def conditional_risk_functions(design, truth, loss, quadrature_nodes: int = 64) -> list:
    """Per atom, a closure for the exact map u -> E[loss(Y; u) | X = atom]."""
    s = truth_predictions(truth, design)
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
    s = truth_predictions(truth, design)
    cutoff = 0.0 if isinstance(truth.noise, ClassificationLink) else truth.noise.cutoff
    half = max(1.0, 10.0 * (float(np.max(np.abs(s))) + cutoff))
    out = []
    for fn in conditional_risk_functions(design, truth, loss):
        res = minimize_scalar(fn, bounds=(-half, half), method="bounded", options={"xatol": 1e-10})
        assert res.success, res.message
        out.append(float(res.fun))
    return np.array(out)
