"""Every quantity in the sharp low-rank oracle bound, computed empirically.

Covers the expected operator norm of the normalized Rademacher average of
design matrices (Monte Carlo, fixed-sample Monte Carlo, and exact sign
enumeration for small samples), the matrix-Bernstein upper bound on it, the
regularization threshold, the cone compatibility constant relating the
Frobenius norm of a supported part to the design L2 norm, the adjusted
confidence level, and the assembled per-trial bound report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import (
    DesignDistribution,
    TruthModel,
    excess_risk,
    functional_l2_norm,
    response_domain,
)
from .errors import ValidationError
from .losses import LossModel, loss_constants, q_value
from .matrices import nuclear_norm, operator_norm, rank_at_tol, sign_and_support, symmetrize

ENUMERATION_LIMIT = 20
_CHUNK = 20_000


@dataclass(frozen=True)
class RademacherStats:
    """Monte Carlo estimate of the expected operator norm of the normalized
    Rademacher average; ``xi_norm_mean`` is the same quantity scaled to the
    1/n-normalized average."""

    delta: float
    xi_norm_mean: float
    n: int
    reps: int
    stderr: float


@dataclass(frozen=True)
class ConstantsConfig:
    """The three tunable numerical constants of the bound.

    The guarantee only asserts such constants exist; the defaults are
    reporting conventions, and the harness calibrates the leading constant
    empirically.
    """

    b_const: float = 2.0
    c_const: float = 1.0
    d_thresh: float = 4.0

    def __post_init__(self):
        if self.b_const <= 0 or self.c_const <= 0 or self.d_thresh <= 0:
            raise ValidationError("bound constants must be positive")


def _batch_opnorms(mats: np.ndarray) -> np.ndarray:
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def _stats_from_norms(norms: np.ndarray, n: int) -> RademacherStats:
    reps = norms.shape[0]
    delta = float(np.mean(norms))
    stderr = float(np.std(norms, ddof=1) / np.sqrt(reps)) if reps > 1 else float("inf")
    return RademacherStats(
        delta=delta,
        xi_norm_mean=delta / np.sqrt(n),
        n=n,
        reps=reps,
        stderr=stderr,
    )


def estimate_rademacher_norm(
    design: DesignDistribution, n: int, reps: int, seed: int
) -> RademacherStats:
    """Unconditional Monte Carlo over both the sample and the signs.

    Conditioned on the multinomial atom counts, the signed coefficient of
    each atom is a centered binomial, so draws reduce to (counts, binomial)
    pairs rather than materializing n covariates per rep.
    """
    if n < 1 or reps < 1:
        raise ValidationError("n and reps must be at least 1")
    rng = np.random.default_rng(seed)
    norms = np.empty(reps)
    for start in range(0, reps, _CHUNK):
        chunk = min(_CHUNK, reps - start)
        counts = rng.multinomial(n, design.probs, size=chunk)
        coeff = 2.0 * rng.binomial(counts, 0.5) - counts
        del counts  # this and the in-place scale leave room for the adjoint's
        coeff /= np.sqrt(n)  # own (chunk, k) temporary
        norms[start : start + chunk] = _batch_opnorms(design.adjoint(coeff))
    return _stats_from_norms(norms, n)


def estimate_rademacher_norm_fixed(
    xs: np.ndarray, reps: int, seed: int
) -> RademacherStats:
    """Monte Carlo over signs only, conditional on a fixed covariate sample."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1] != xs.shape[2]:
        raise ValidationError("xs must be an (n, m, m) stack")
    if reps < 1:
        raise ValidationError("reps must be at least 1")
    n = xs.shape[0]
    rng = np.random.default_rng(seed)
    norms = np.empty(reps)
    for start in range(0, reps, _CHUNK):
        chunk = min(_CHUNK, reps - start)
        signs = rng.integers(0, 2, size=(chunk, n)) * 2.0 - 1.0
        norms[start : start + chunk] = _batch_opnorms(np.tensordot(signs / np.sqrt(n), xs, axes=1))
    return _stats_from_norms(norms, n)


def enumerate_rademacher_norm_fixed(xs: np.ndarray) -> float:
    """Exact conditional expectation by enumerating all 2^n sign patterns."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1] != xs.shape[2]:
        raise ValidationError("xs must be an (n, m, m) stack")
    n = xs.shape[0]
    if n > ENUMERATION_LIMIT:
        raise ValidationError(f"enumeration limited to n <= {ENUMERATION_LIMIT}")
    total = 0.0
    patterns = 1 << n
    codes = np.arange(patterns, dtype=np.int64)
    for start in range(0, patterns, _CHUNK):
        block = codes[start : start + _CHUNK]
        signs = (((block[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
        mats = np.tensordot(signs / np.sqrt(n), xs, axes=1)
        total += float(np.sum(_batch_opnorms(mats)))
    return total / patterns


def sample_rademacher_averages(
    design: DesignDistribution, n: int, count: int, seed: int
) -> np.ndarray:
    """Draw ``count`` independent 1/n-normalized Rademacher averages."""
    if n < 1 or count < 1:
        raise ValidationError("n and count must be at least 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, design.probs, size=count)
    coeff = 2.0 * rng.binomial(counts, 0.5) - counts
    return design.adjoint(coeff / n)


def design_moment_bounds(design: DesignDistribution) -> tuple[float, float]:
    """(sigma, uniform): operator-norm square root of the second moment and
    the largest atom operator norm."""
    sigma = float(np.sqrt(operator_norm(symmetrize(design.second_moment))))
    return sigma, float(np.max(design.atom_norms.operator))


def matrix_bernstein_bound(sigma: float, uniform: float, m: int, n: int) -> float:
    """Noncommutative Bernstein-type upper bound on the expected operator
    norm of the normalized Rademacher average."""
    if sigma < 0 or uniform < 0 or m < 1 or n < 1:
        raise ValidationError("inputs must be nonnegative with m, n >= 1")
    log_term = math.log(2 * m)
    return 4.0 * max(sigma * math.sqrt(log_term), uniform * log_term / math.sqrt(n))


def epsilon_threshold(
    constants: ConstantsConfig, smoothness: float, delta: float, n: int
) -> float:
    """Smallest admissible regularization: D * L(a) * Delta / sqrt(n)."""
    if smoothness <= 0 or n < 1:
        raise ValidationError("smoothness must be positive and n >= 1")
    if delta < 0:
        raise ValidationError("delta must be nonnegative")
    return constants.d_thresh * smoothness * delta / math.sqrt(n)


# -- cone compatibility ---------------------------------------------------------

def compatibility_basis(design: DesignDistribution) -> float:
    """Exact compatibility constant for uniform orthonormal-basis designs.

    The design L2 norm of any matrix is its Frobenius norm over sqrt(d)
    (d = number of atoms) and the supported part never exceeds the whole in
    Frobenius norm, with equality on the support range, so the constant is
    sqrt(d) independently of the support.
    """
    if not design.is_orthonormal_basis:
        raise ValidationError(
            "closed-form compatibility constant requires an orthonormal-basis design"
        )
    return float(np.sqrt(design.num_atoms))


def compatibility_lower_bound(
    s: np.ndarray,
    design: DesignDistribution,
    b: float,
    num_samples: int,
    seed: int,
) -> float:
    """Certified lower bound on the compatibility constant by sampling
    cone-feasible directions.

    Directions mix a supported part with a complement part scaled to stay
    inside the cone; a quarter of the samples are pure support-range
    directions, which attain the supremum on basis designs.  A rank-0 support
    has constant 0 exactly, since its projector is zero.
    """
    if b <= 0:
        raise ValidationError("cone parameter b must be positive")
    if num_samples < 1:
        raise ValidationError("num_samples must be at least 1")
    _, support = sign_and_support(s)
    if support.rank == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    m = design.dim
    best = 0.0
    pure = max(1, num_samples // 4)
    for i in range(num_samples):
        raw_low = symmetrize(rng.standard_normal((m, m)))
        low = support.apply(raw_low)
        if i < pure:
            direction = low
        else:
            comp = support.apply_complement(symmetrize(rng.standard_normal((m, m))))
            comp_nuc = nuclear_norm(comp)
            if comp_nuc > 0:
                scale = rng.random() * b * nuclear_norm(symmetrize(low)) / comp_nuc
                direction = low + scale * comp
            else:
                direction = low
        l2 = functional_l2_norm(symmetrize(direction), design)
        if l2 == 0:
            continue
        ratio = float(np.linalg.norm(support.apply(direction))) / l2
        best = max(best, ratio)
    return best


# -- adjusted confidence and the assembled bound --------------------------------

def adjusted_confidence(
    t: float,
    oracle_nuclear: float,
    n: int,
    epsilon: float,
    q_bound: float,
    a: float,
    smoothness: float,
    b_const: float,
) -> float:
    """Confidence level inflated by the union-bound bookkeeping term.

    Adds 3 * log(B * log2(max of the seven scale quantities)) to ``t``; the
    max is floored at 2 so the inner logarithm never degenerates.
    """
    if t < 0:
        raise ValidationError("t must be nonnegative")
    if min(n, q_bound, a, smoothness, b_const) <= 0:
        raise ValidationError("n, q_bound, a, smoothness and b_const must be positive")
    if oracle_nuclear < 0 or epsilon < 0:
        raise ValidationError("nuclear norm and epsilon must be nonnegative")
    peak = max(oracle_nuclear, float(n), epsilon, q_bound, 1.0 / a, 1.0 / smoothness, 2.0)
    return t + 3.0 * math.log(b_const * math.log2(peak))


@dataclass(frozen=True)
class BoundReport:
    """All terms of the oracle inequality for one estimate/oracle pair.

    ``critical_c`` is the smallest leading constant in the deviation term
    that would make this trial satisfy the bound (negative when the bound
    holds even with a zero deviation term).
    """

    lhs: float
    oracle_excess: float
    rank_term: float
    nuclear_term: float
    min_term: float
    residual_term: float
    rhs: float
    violated: bool
    oracle_rank: int
    oracle_nuclear: float
    beta: float
    confidence_term: float
    critical_c: float
    epsilon: float
    t: float


def oracle_bound_report(
    oracle_s: np.ndarray,
    estimate_excess: float,
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
    epsilon: float,
    t: float,
    constants: ConstantsConfig,
    a: float,
    n: int,
    beta: float | None = None,
    oracle_excess: float | None = None,
    oracle_rank: int | None = None,
    oracle_nuclear: float | None = None,
    smoothness: float | None = None,
    curvature: float | None = None,
    q_bound: float | None = None,
) -> BoundReport:
    """Assemble the right-hand side of the oracle inequality at one oracle.

    The optional keyword arguments accept precomputed pieces so a harness
    evaluating many trials against one oracle does the expensive work once;
    left as None they are computed here.
    """
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    if smoothness is None or curvature is None:
        consts = loss_constants(loss, a)
        smoothness, curvature = consts.smoothness, consts.curvature
    if q_bound is None:
        q_bound = q_value(loss, response_domain(truth, design))
    if beta is None:
        beta = compatibility_basis(design)
    if oracle_rank is None:
        oracle_rank = rank_at_tol(oracle_s)
    if oracle_nuclear is None:
        oracle_nuclear = nuclear_norm(oracle_s)
    if oracle_excess is None:
        oracle_excess = excess_risk(oracle_s, design, truth, loss)

    rank_term = (3.0 / curvature) * beta**2 * oracle_rank * epsilon**2
    nuclear_term = 2.0 * epsilon * oracle_nuclear
    min_term = min(rank_term, nuclear_term)
    confidence = adjusted_confidence(
        t, oracle_nuclear, n, epsilon, q_bound, a, smoothness, constants.b_const
    )
    # deviation term: C * max(L(a)^2 / tau(a), L(a) * a) * t_adj / n
    base_residual = max(smoothness**2 / curvature, smoothness * a) * confidence / n
    residual_term = constants.c_const * base_residual
    rhs = oracle_excess + min_term + residual_term
    slack = estimate_excess - oracle_excess - min_term
    if base_residual > 0:
        critical_c = slack / base_residual
    else:
        # degenerate deviation term (confidence 0): no constant can help or hurt
        critical_c = math.inf if slack > 0 else 0.0
    return BoundReport(
        lhs=estimate_excess,
        oracle_excess=oracle_excess,
        rank_term=rank_term,
        nuclear_term=nuclear_term,
        min_term=min_term,
        residual_term=residual_term,
        rhs=rhs,
        violated=bool(estimate_excess > rhs),
        oracle_rank=int(oracle_rank),
        oracle_nuclear=float(oracle_nuclear),
        beta=float(beta),
        confidence_term=confidence,
        critical_c=critical_c,
        epsilon=epsilon,
        t=t,
    )
