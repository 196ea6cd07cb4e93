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
The reference for Delta is the plain cluster-mean estimator with its
64-cluster floor, on the norms the program draws, where the program fits
the traces of W^2 and W^4 as control variates.  The fixed-sample references
contract the signs with the sample by ``np.tensordot``, where the program
runs them through the adjoint of the sample's empirical design.

The last section holds what only the tests call: a rank at a given
tolerance, the cone gap, the pointwise curvature check, the dataset writer,
the trials-CSV reader and the summary schema check.
"""

from __future__ import annotations

import csv

import numpy as np
import pytest
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
    TrialRecord,
    Unconstrained,
    ValidationError,
    empirical_risk,
    gradient,
    loss_constants,
    nuclear_norm,
    operator_norm,
    optimality_residuals,
    orthonormal_basis_design,
    sign_and_support,
)
from lowrank_oracle import bounds, designs
from lowrank_oracle.bounds import RademacherStats, _signed_counts, _stats_from_draws
from lowrank_oracle.constraints import BOUNDARY_TOL
from lowrank_oracle.harness import _BOOL_COLUMNS, _COLUMN_TYPES, SUMMARY_SCHEMA, TRIAL_COLUMNS
from lowrank_oracle.matrices import default_zero_tol, inner, symmetrize, validate_symmetric
from lowrank_oracle.solver import GRAD_TOL_FACTOR, STEP_GROWTH, STEP_SHRINK, _initial_step, _prox

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


def rademacher_norm_reference(design, n: int, reps: int, seed: int, block: int, share: int):
    """Monte Carlo Delta with the signed counts of the b-th ``block``
    repetitions (a multiple of ``share``) drawn through ``_signed_counts``,
    with one count draw per ``share`` rows, from a generator seeded from
    (seed, b); one adjoint and one batched eigenvalue call over all
    repetitions; and the control-variate fit over clusters of ``share``
    repetitions: the unblocked linear algebra that the row-blocked
    ``estimate_rademacher_norm`` must reproduce bit for bit."""
    assert block % share == 0
    coeffs = [
        _signed_counts(
            np.random.default_rng([seed, b]), n, design.probs, min(block, reps - start), share
        )
        / np.sqrt(n)
        for b, start in enumerate(range(0, reps, block))
    ]
    lam = np.linalg.eigvalsh(design.adjoint(np.concatenate(coeffs)))
    sq = lam * lam
    draws = np.stack([np.max(np.abs(lam), axis=-1), sq.sum(axis=-1), (sq * sq).sum(axis=-1)])
    return _stats_from_draws(draws, n, share, np.array(design.trace_moments(n)))


def fixed_sample_norms(xs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The operator norm of n^-1/2 sum_j signs[r, j] X_j for each row r of
    ``signs``, by ``np.tensordot`` over the (n, m, m) sample and one batched
    ``eigvalsh``."""
    mats = np.tensordot(signs / np.sqrt(xs.shape[0]), xs, axes=1)
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def fixed_sample_blocks(xs: np.ndarray) -> int:
    """Rows of signs per block of the fixed-sample estimators."""
    return designs.block_rows(max(xs.shape[0], xs.shape[1] ** 2))


def rademacher_norm_fixed_reference(xs: np.ndarray, reps: int, seed: int) -> RademacherStats:
    """``estimate_rademacher_norm_fixed`` on ``fixed_sample_norms``: the same
    sign draws in the same blocks, and the plain mean of the norms."""
    n, block = xs.shape[0], fixed_sample_blocks(xs)
    rng = np.random.default_rng(seed)
    norms = [
        fixed_sample_norms(xs, rng.integers(0, 2, size=(min(block, reps - start), n)) * 2.0 - 1.0)
        for start in range(0, reps, block)
    ]
    return cluster_mean_stats(np.concatenate(norms), n)


def enumerate_rademacher_norm_fixed_reference(xs: np.ndarray) -> float:
    """``enumerate_rademacher_norm_fixed`` on ``fixed_sample_norms``: every
    sign pattern, summed in the same blocks."""
    n, block = xs.shape[0], fixed_sample_blocks(xs)
    patterns, total = 1 << n, 0.0
    for start in range(0, patterns, block):
        codes = np.arange(start, min(start + block, patterns), dtype=np.int64)
        signs = (((codes[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
        total += float(np.sum(fixed_sample_norms(xs, signs)))
    return total / patterns


def shared_count_blocks(dim: int) -> tuple[int, int]:
    """(block, share): the rows of each of Delta's blocks at dimension
    ``dim``, cut down to whole clusters, and the rows per cluster, which
    share one draw of atom counts: at most SHARED_COUNTS and half a block."""
    block = designs.block_rows(dim * dim)
    share = max(1, min(bounds.SHARED_COUNTS, block // 2))
    return block - block % share, share


def rademacher_draws(design, n: int, reps: int, seed: int, **kwargs):
    """(stats, draws, rows): ``estimate_rademacher_norm``'s result, the
    (3, reps) norms, tr W^2 and tr W^4 it fitted, and the number of rows
    each of its blocks drew."""
    draws, rows = [], []
    stats_from_draws, signed_counts = bounds._stats_from_draws, bounds._signed_counts

    def record_draws(values, n, share, centres):
        draws.append(values.copy())
        return stats_from_draws(values, n, share, centres)

    def record_rows(rng, n, probs, size, share=1):
        rows.append(size)
        return signed_counts(rng, n, probs, size, share)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_stats_from_draws", record_draws)
        patch.setattr(bounds, "_signed_counts", record_rows)
        stats = bounds.estimate_rademacher_norm(design, n, reps, seed, **kwargs)
    return stats, draws[-1], rows


CLUSTER_MEAN_MIN = 64  # clusters the plain estimator drew before its precision stop was tested


def cluster_mean_stats(norms: np.ndarray, n: int, share: int = 1) -> RademacherStats:
    """The plain estimator's statistics: mean and standard error over the
    means of clusters of ``share`` consecutive norms, the independent
    units; the last cluster may be shorter.  ``reps`` counts the norms."""
    reps = norms.shape[0]
    starts = np.arange(0, reps, share)
    means = np.add.reduceat(norms, starts) / np.diff(starts, append=reps)
    delta = float(np.mean(means))
    clusters = means.shape[0]
    stderr = float(np.std(means, ddof=1) / np.sqrt(clusters)) if clusters > 1 else float("inf")
    return RademacherStats(
        delta=delta, xi_norm_mean=delta / np.sqrt(n), n=n, reps=reps, stderr=stderr
    )


def cluster_mean_rademacher_norm(design, n: int, reps: int, seed: int, rtol: float | None = None):
    """The plain cluster-mean estimator of Delta, on the norms that
    ``estimate_rademacher_norm`` draws (``rademacher_draws``): with
    ``rtol``, it stops at the first block end at which at least
    ``CLUSTER_MEAN_MIN`` clusters are drawn and the standard error of the
    cluster means is at most ``rtol`` times their mean, else at the cap."""
    norms = rademacher_draws(design, n, reps, seed)[1][0]
    block, share = shared_count_blocks(design.dim)
    if rtol is not None:
        for hi in range(block, reps, block):
            if hi < CLUSTER_MEAN_MIN * share:
                continue
            stats = cluster_mean_stats(norms[:hi], n, share)
            if stats.stderr <= rtol * stats.delta:
                return stats
    return cluster_mean_stats(norms, n, share)


def solve_reference(data: Dataset, loss, config, constraint=Unconstrained()) -> SolveResult:
    """``solve``'s iteration on the public functions, each of which validates
    its matrices: a gradient and a risk at z and a checked prox per step
    tried.  The objective's nuclear norm is the sum of the prox's absolute
    eigenvalues, as in ``solve``; a second decomposition of x+ must agree with
    it to 1e-12 relative.  The first step is ``solve``'s own, which a property
    test checks against the dense Hessian."""
    m = data.design.dim
    epsilon = config.epsilon

    grad_tol = config.grad_tol
    if grad_tol is None:
        data_scale = float(np.linalg.norm(data.design.adjoint(data.response_sums / data.n)))
        grad_tol = GRAD_TOL_FACTOR * (1.0 + data_scale)

    step = _initial_step(data.design, data.response_law(loss), loss)

    step_cap = np.inf
    backtracks = restarts = 0

    def prox_step(point, g, f_point, step):
        nonlocal step_cap, backtracks
        while True:
            # composite_prox, with the sum of its eigenvalues' magnitudes
            candidate, nuclear = _prox(validate_symmetric(point - step * g), step * epsilon, constraint)
            assert abs(nuclear_norm(candidate) - nuclear) <= 1e-12 * nuclear
            diff = candidate - point
            f_cand = empirical_risk(candidate, data, loss)
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
    obj_x = empirical_risk(x, data, loss) + epsilon * nuclear_norm(x)
    z = x
    t = 1.0
    trace = [obj_x]
    converged = False

    for iterations in range(1, config.max_iters + 1):
        g_z = gradient(z, data, loss)
        f_z = empirical_risk(z, data, loss)
        x_new, obj_new, step = prox_step(z, g_z, f_z, step)
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


# -- checks and readers that only the tests call ----------------------------------

def rank_at_tol(s: np.ndarray, zero_tol: float | None = None) -> int:
    """Number of eigenvalues above the zero tolerance (by default
    ``default_zero_tol``, taken from the same eigenvalues)."""
    lam = np.linalg.eigvalsh(validate_symmetric(s))
    if zero_tol is None:
        zero_tol = default_zero_tol(lam)
    return int(np.sum(np.abs(lam) > zero_tol))


def cone_gap(a: np.ndarray, support, b: float) -> float:
    """Slack of the dominant-low-rank cone constraint.

    Returns ``b * ||low rank part||_1 - ||complement part||_1``; the matrix
    belongs to the cone with parameter ``b`` iff the result is >= 0.
    """
    if b <= 0:
        raise ValidationError("cone parameter b must be positive")
    complement = support.apply_complement(a)
    low = np.asarray(a, dtype=float) - complement
    return b * nuclear_norm(symmetrize(low)) - nuclear_norm(complement)


def curvature_lower_bound_check(
    loss: LossModel,
    a: float,
    samples: np.ndarray,
    slack: float = 1e-9,
) -> bool:
    """Check the scalar second-order lower bound on sampled triples.

    ``samples`` has rows (y, u, v) with u, v in [-a, a]; the check is

        loss(y; v) >= loss(y; u) + d1(y; u) (v - u) + tau(a)/2 (v - u)^2

    within ``slack`` on every row.  This is the pointwise inequality behind
    the strong-convexity step of the excess-risk analysis.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3:
        raise ValidationError("samples must be an (n, 3) array of (y, u, v) rows")
    y, u, v = samples[:, 0], samples[:, 1], samples[:, 2]
    tau = loss_constants(loss, a).curvature
    lhs = np.asarray(loss.value(y, v), dtype=float)
    rhs = (
        np.asarray(loss.value(y, u), dtype=float)
        + np.asarray(loss.d1(y, u), dtype=float) * (v - u)
        + 0.5 * tau * (v - u) ** 2
    )
    return bool(np.all(lhs >= rhs - slack))


def save_dataset(path, dataset: Dataset) -> None:
    """Write the dataset CSV that ``load_dataset`` reads: columns
    (j, atom_index, y), one line per sample."""
    rows = zip(dataset.atom_indices.tolist(), dataset.y.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("j,atom_index,y\r\n")
        fh.writelines(f"{j},{i},{y!r}\r\n" for j, (i, y) in enumerate(rows))


def read_trials_csv(path) -> list[TrialRecord]:
    """Parse a trials CSV back into records (wall time is not persisted)."""
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRIAL_COLUMNS):
            raise ValidationError(f"{path}: unexpected trials.csv header {header!r}")
        for row in reader:
            if len(row) != len(TRIAL_COLUMNS):
                raise ValidationError(f"{path}: malformed row {row!r}")
            kwargs = {}
            for column, cell in zip(TRIAL_COLUMNS, row):
                try:
                    if column in _BOOL_COLUMNS:
                        cell = ("0", "1").index(cell)
                    kwargs[column] = _COLUMN_TYPES[column](cell)
                except ValueError:
                    raise ValidationError(f"{path}: malformed row {row!r}") from None
            records.append(TrialRecord(**kwargs))
    return records


def validate_summary(summary: dict) -> None:
    """Check a summary dict against the documented schema; a float field may
    also be None (null in JSON) where its statistic is undefined."""
    missing = set(SUMMARY_SCHEMA) - set(summary)
    extra = set(summary) - set(SUMMARY_SCHEMA)
    if missing or extra:
        raise ValidationError(f"summary schema mismatch: missing={sorted(missing)} extra={sorted(extra)}")
    for key, expected in SUMMARY_SCHEMA.items():
        value = summary[key]
        if expected is float:
            if value is None:
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(f"summary[{key!r}] must be numeric, got {type(value).__name__}")
        elif not isinstance(value, expected) or (isinstance(value, bool) and expected is int):
            raise ValidationError(f"summary[{key!r}] must be {expected}, got {type(value).__name__}")
