"""Every quantity in the sharp low-rank oracle bound, computed empirically.

Covers the expected operator norm of the normalized Rademacher average of
design matrices (Monte Carlo, fixed-sample Monte Carlo, and exact sign
enumeration for small samples), the matrix-Bernstein upper bound on it, the
regularization threshold, the cone compatibility constant relating the
Frobenius norm of a supported part to the design L2 norm, the adjusted
confidence level, and the assembled per-trial bound report.

The Monte Carlo and enumeration estimators of that expectation run in row
blocks of about the working-set block, ``designs.BLOCK_BYTES`` = 256 kB,
so their memory does not grow with the number of repetitions or sign
patterns.  The unconditional Monte Carlo groups its repetitions into
clusters of k = ``SHARED_COUNTS`` or, if that is less, half a block (so
k = 1 from m = 91 on).  The k repetitions of a cluster share one
multinomial draw of the atom counts, and each draws its own sum of signs
per atom: from the bits of one random 64-bit word when the atom's count
is at most 64, from a binomial otherwise.  Each repetition is thus an
exact draw of Delta's law; only repetitions of one cluster are
dependent, so the estimate and its standard error are taken over cluster
means.  The one ``eigvalsh`` of a repetition gives its norm and the
traces of W^2 and W^4, whose expectations are exact design moments
(``trace_moments``).  Delta is the cluster means of the norm regressed on
those of the traces and read at the traces' exact means (two control
variates), with a heteroscedasticity-consistent standard error.

A block is a whole number of clusters, and block b draws from its own
generator, seeded from (seed, b); a block's first r rows do not depend on
its length.  So each repetition depends on the seed, its index and the
block size (which m fixes), but not on how many repetitions are drawn: a
run that stops early, at a cap or at the precision stop, draws a prefix
of a longer one.  The precision stop is two-stage: a pilot of
``DELTA_PILOT`` clusters sets how many to draw before the first test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import DesignDistribution, block_rows, custom_design, functional_l2_norm
from .errors import ValidationError
from .matrices import nuclear_norm, operator_norm, sign_and_support, symmetrize

ENUMERATION_LIMIT = 20
DELTA_RTOL = 2e-3  # plan resolution's Delta stops at this relative standard error
DELTA_PILOT = 32  # clusters of the pilot whose fit sizes Delta's run before its stop is tested
PILOT_T_RATIO = 1.0435036859172993  # t_{0.975, DELTA_PILOT - 3} / z_{0.975}: the pilot's own error
SHARED_COUNTS = 8  # Delta's repetitions per draw of atom counts, where a block holds two such clusters
_DEGENERATE = 1e-9  # relative spread, or 1 - correlation^2, at which a trace is no covariate
_LOW_BITS = np.array([(1 << c) - 1 for c in range(65)], dtype=np.uint64)  # masks of c low bits


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


def _batch_spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each matrix's operator norm, tr W^2 and tr W^4, from one ``eigvalsh``,
    squared in place: no more temporaries than the norm alone takes."""
    lam = np.linalg.eigvalsh(mats)
    norms = np.max(np.abs(lam), axis=-1)
    lam *= lam
    squares = lam.sum(axis=-1)
    lam *= lam
    return norms, squares, lam.sum(axis=-1)


def _mean_fit(y: np.ndarray) -> tuple[float, float]:
    """The plain mean of independent ``y`` and its standard error."""
    count = y.size
    stderr = float(np.std(y, ddof=1)) / math.sqrt(count) if count > 1 else math.inf
    return float(np.mean(y)), stderr


def _cluster_fit(draws: np.ndarray, share: int, centres: np.ndarray) -> tuple[float, float]:
    """(Delta, stderr) from the (3, reps) norms, tr W^2 and tr W^4 of
    ``draws``, over the means of clusters of ``share`` consecutive
    repetitions, the independent units; the last cluster may be shorter.

    The cluster means y_i of the norm are regressed on those of the two
    traces, z_i, each taken about its exact mean ``centres``, and Delta is
    the fit at the exact means: a weighted mean sum_i w_i y_i, with w_i =
    1/C - zbar' S^-1 (z_i - zbar) over C clusters and S the centred 2x2
    normal matrix.  The slopes solve the normal equations in closed form,
    with numpy's own sums: no least-squares or BLAS path.  The standard
    error is heteroscedasticity-consistent (HC3, a jackknife's close
    form), sqrt(sum_i (w_i r_i / (1 - h_i))^2) over the residuals r_i and
    leverages h_i: the counts make some clusters far noisier than others.
    With fewer than 4 clusters, or a trace that does not vary beyond
    rounding or that moves with the other, it is the plain mean of the
    norms' cluster means."""
    reps = draws.shape[1]
    starts = np.arange(0, reps, share)
    means = np.add.reduceat(draws, starts, axis=1) / np.diff(starts, append=reps)
    y, clusters = means[0], means.shape[1]
    z = means[1:] - centres[:, None]
    zbar = z.mean(axis=1)
    u, v = z - zbar[:, None]
    suu, svv, suv = float(np.sum(u * u)), float(np.sum(v * v)), float(np.sum(u * v))
    det = suu * svv - suv * suv
    if (
        clusters < 4
        or suu <= clusters * (_DEGENERATE * centres[0]) ** 2
        or svv <= clusters * (_DEGENERATE * centres[1]) ** 2
        or det <= _DEGENERATE * suu * svv
    ):
        return _mean_fit(y)
    yc = y - y.mean()
    suy, svy = float(np.sum(u * yc)), float(np.sum(v * yc))
    b, c = (svv * suy - suv * svy) / det, (suu * svy - suv * suy) / det
    residual = yc - b * u - c * v
    gu, gv = (svv * zbar[0] - suv * zbar[1]) / det, (suu * zbar[1] - suv * zbar[0]) / det
    weight = 1.0 / clusters - gu * u - gv * v
    leverage = 1.0 / clusters + (svv * u * u - 2.0 * suv * u * v + suu * v * v) / det
    jack = weight * residual / (1.0 - leverage)
    return float(y.mean() - b * zbar[0] - c * zbar[1]), math.sqrt(float(np.sum(jack * jack)))


def _stats_from_draws(
    draws: np.ndarray, n: int, share: int, centres: np.ndarray
) -> RademacherStats:
    """``_cluster_fit`` as the statistics of n draws; ``reps`` counts the
    repetitions."""
    delta, stderr = _cluster_fit(draws, share, centres)
    return RademacherStats(
        delta=delta, xi_norm_mean=delta / np.sqrt(n), n=n, reps=draws.shape[1], stderr=stderr
    )


def _signed_counts(
    rng: np.random.Generator, n: int, probs: np.ndarray, size: int, share: int = 1
) -> np.ndarray:
    """Multinomial atom counts of n draws, one row for each cluster of
    ``share`` consecutive rows of ``size``, then each cell's sum of its
    count c of Rademacher signs, as a (size, K) float array.

    A cell with c <= 64 sums the signs given by the low c bits of one uniform
    64-bit word, 2 * popcount - c; a larger cell draws Binomial(c, 1/2) for
    its plus signs.  Both are exactly 2 * Binomial(c, 1/2) - c.  The counts
    come from ``rng``, the words of the small cells from its first spawned
    child and the binomials of the large ones from its second, each row by
    row.  So the first r rows of a draw of ``size`` rows are the draw of r
    rows from the same generator state.
    """
    counts = rng.multinomial(n, probs, size=-(-size // share))
    if share > 1:
        counts = np.repeat(counts, share, axis=0)[:size]
    words_rng, binomial_rng = rng.spawn(2)
    small = counts <= 64
    words = words_rng.integers(
        0, 2**64 - 1, size=np.count_nonzero(small), dtype=np.uint64, endpoint=True
    )
    words &= _LOW_BITS[counts[small]]
    signed = np.empty(counts.shape)
    signed[small] = np.bitwise_count(words)
    large = ~small
    signed[large] = binomial_rng.binomial(counts[large], 0.5)
    signed *= 2.0
    signed -= counts
    return signed


def estimate_rademacher_norm(
    design: DesignDistribution, n: int, reps: int, seed: int, rtol: float | None = None
) -> RademacherStats:
    """Unconditional Monte Carlo over both the sample and the signs, with
    the traces of W^2 and W^4 as control variates.

    Conditioned on the multinomial atom counts, the signed coefficient of
    each atom is a centered binomial, so draws reduce to per-atom signed
    counts (``_signed_counts``) rather than materializing n covariates per
    rep.  Counts, signs, adjoint and spectra run in row blocks of about
    ``BLOCK_BYTES`` of adjoint output, trimmed to whole clusters of k =
    min(``SHARED_COUNTS``, rows // 2) repetitions that share their counts;
    block b draws from a generator seeded from (seed, b).  One ``eigvalsh``
    per repetition gives its norm, tr W^2 and tr W^4, whose expectations
    are the design's exact ``trace_moments``, and ``_cluster_fit`` regresses
    the norms on the traces over cluster means.

    Without ``rtol`` exactly ``reps`` repetitions are drawn.  With it,
    ``reps`` is a cap and the stop is two-stage (after Stein, 1945): the
    fit over the first ``DELTA_PILOT`` clusters gives a Delta and a
    per-cluster spread s, its standard error times sqrt(DELTA_PILOT), which
    set the clusters to draw before any test, N = max(DELTA_PILOT,
    ceil((q s / (rtol Delta))^2)) with q = ``PILOT_T_RATIO``.  From N
    clusters on, the loop stops after the first block at which the
    standard error is at most ``rtol`` times Delta (a fixed-width
    sequential stop, after Chow and Robbins), and ``reps`` of the result is
    the count of repetitions drawn.
    """
    if n < 1 or reps < 1:
        raise ValidationError("n and reps must be at least 1")
    draws = np.empty((3, reps))
    centres = np.array(design.trace_moments(n))
    block = block_rows(design.dim * design.dim)
    share = max(1, min(SHARED_COUNTS, block // 2))
    block -= block % share
    pilot = None
    for b, lo in enumerate(range(0, reps, block)):
        hi = min(lo + block, reps)
        rng = np.random.default_rng([seed, b])
        # one expression, so no block's signs are held while the next is drawn
        draws[:, lo:hi] = _batch_spectra(
            design.adjoint(_signed_counts(rng, n, design.probs, hi - lo, share) / np.sqrt(n))
        )
        if rtol is None or hi < DELTA_PILOT * share:
            continue
        if pilot is None:  # (Delta, stderr) of the first DELTA_PILOT clusters
            pilot = _cluster_fit(draws[:, : DELTA_PILOT * share], share, centres)
        # at least N clusters: C (rtol Delta)^2 >= (q s)^2, s = sqrt(DELTA_PILOT) stderr
        clusters = -(-hi // share)
        if clusters * (rtol * pilot[0]) ** 2 >= DELTA_PILOT * (PILOT_T_RATIO * pilot[1]) ** 2:
            stats = _stats_from_draws(draws[:, :hi], n, share, centres)
            if stats.stderr <= rtol * stats.delta:
                return stats
    return _stats_from_draws(draws, n, share, centres)


def estimate_rademacher_norm_fixed(
    xs: np.ndarray, reps: int, seed: int
) -> RademacherStats:
    """Monte Carlo over signs only, conditional on a fixed covariate sample,
    in row blocks of about ``BLOCK_BYTES`` of signs or sums.  The sample is
    its own empirical design (``custom_design``), its n draws at weight 1/n:
    the signs reach it through the design's adjoint, and a draw that is not
    symmetric or not finite is refused as a design's atom is."""
    sample = custom_design(xs)
    if reps < 1:
        raise ValidationError("reps must be at least 1")
    n = sample.num_atoms
    rng = np.random.default_rng(seed)
    norms = np.empty(reps)
    block = block_rows(max(n, sample.dim**2))
    for start in range(0, reps, block):
        rows = min(block, reps - start)
        signs = rng.integers(0, 2, size=(rows, n)) * 2.0 - 1.0
        norms[start : start + rows] = _batch_spectra(sample.adjoint(signs / np.sqrt(n)))[0]
    delta, stderr = _mean_fit(norms)
    return RademacherStats(
        delta=delta, xi_norm_mean=delta / np.sqrt(n), n=n, reps=reps, stderr=stderr
    )


def enumerate_rademacher_norm_fixed(xs: np.ndarray) -> float:
    """Exact conditional expectation by enumerating all 2^n sign patterns,
    in row blocks of about ``BLOCK_BYTES`` of signs or sums, on the
    sample's empirical design as ``estimate_rademacher_norm_fixed``."""
    sample = custom_design(xs)
    n = sample.num_atoms
    if n > ENUMERATION_LIMIT:
        raise ValidationError(f"enumeration limited to n <= {ENUMERATION_LIMIT}")
    total = 0.0
    patterns = 1 << n
    block = block_rows(max(n, sample.dim**2))
    for start in range(0, patterns, block):
        codes = np.arange(start, min(start + block, patterns), dtype=np.int64)
        signs = (((codes[:, None] >> np.arange(n)) & 1) * 2 - 1).astype(float)
        total += float(np.sum(_batch_spectra(sample.adjoint(signs / np.sqrt(n)))[0]))
    return total / patterns


def sample_rademacher_averages(
    design: DesignDistribution, n: int, count: int, seed: int
) -> np.ndarray:
    """Draw ``count`` independent 1/n-normalized Rademacher averages."""
    if n < 1 or count < 1:
        raise ValidationError("n and count must be at least 1")
    coeff = _signed_counts(np.random.default_rng(seed), n, design.probs, count)
    coeff /= n
    return design.adjoint(coeff)


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


def epsilon_threshold(d_thresh: float, smoothness: float, delta: float, n: int) -> float:
    """Smallest admissible regularization: D * L(a) * Delta / sqrt(n), with
    D = ``d_thresh``."""
    if not d_thresh > 0:  # nan fails too
        raise ValidationError(f"d_thresh = {d_thresh!r} must be positive")
    if smoothness <= 0 or n < 1:
        raise ValidationError("smoothness must be positive and n >= 1")
    if delta < 0:
        raise ValidationError("delta must be nonnegative")
    return d_thresh * smoothness * delta / math.sqrt(n)


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
    confidence_term: float
    critical_c: float


def oracle_bound_report(
    estimate_excess: float,
    oracle_excess: float,
    oracle_rank: int,
    oracle_nuclear: float,
    epsilon: float,
    t: float,
    b_const: float,
    c_const: float,
    a: float,
    n: int,
    beta: float,
    smoothness: float,
    curvature: float,
    q_bound: float,
) -> BoundReport:
    """Assemble the right-hand side of the oracle inequality at one oracle.

    The oracle enters only through its excess risk, rank and nuclear norm;
    beta, L(a) = ``smoothness``, tau(a) = ``curvature`` and Q = ``q_bound``
    are the plan's, and ``b_const`` and ``c_const`` the bound's constants B
    and C.
    """
    for name, value in (("b_const", b_const), ("c_const", c_const)):
        if not value > 0:  # nan fails too
            raise ValidationError(f"{name} = {value!r} must be positive")
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    rank_term = (3.0 / curvature) * beta**2 * oracle_rank * epsilon**2
    nuclear_term = 2.0 * epsilon * oracle_nuclear
    min_term = min(rank_term, nuclear_term)
    confidence = adjusted_confidence(
        t, oracle_nuclear, n, epsilon, q_bound, a, smoothness, b_const
    )
    # deviation term: C * max(L(a)^2 / tau(a), L(a) * a) * t_adj / n
    base_residual = max(smoothness**2 / curvature, smoothness * a) * confidence / n
    residual_term = c_const * base_residual
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
        confidence_term=confidence,
        critical_c=critical_c,
    )
