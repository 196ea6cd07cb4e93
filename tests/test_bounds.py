import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare, norm
from scipy.stats import t as t_dist

from lowrank_oracle import (
    ExperimentConfig,
    ValidationError,
    adjusted_confidence,
    compatibility_basis,
    compatibility_lower_bound,
    custom_design,
    design_moment_bounds,
    enumerate_rademacher_norm_fixed,
    epsilon_threshold,
    estimate_rademacher_norm,
    estimate_rademacher_norm_fixed,
    functional_l2_norm,
    matrix_bernstein_bound,
    oracle_bound_report,
    operator_norm,
    orthonormal_basis_design,
    sample_rademacher_averages,
    sign_and_support,
)

from lowrank_oracle import bounds, designs

from helpers import (
    cluster_mean_rademacher_norm,
    cluster_mean_stats,
    cone_gap,
    enumerate_rademacher_norm_fixed_reference,
    rademacher_draws,
    rademacher_norm_fixed_reference,
    rademacher_norm_reference,
    random_low_rank,
    random_symmetric,
    rank_at_tol,
    shared_count_blocks,
)


def random_design(rng, m: int, k: int):
    atoms = np.stack([random_symmetric(rng, m) for _ in range(k)])
    probs = rng.random(k)
    probs /= probs.sum()
    # renormalize the tail so the sum is exact
    probs[-1] = 1.0 - float(np.sum(probs[:-1]))
    return custom_design(atoms, probs)


def test_rademacher_stats_identity_and_single_draw():
    design = orthonormal_basis_design(3)
    stats = estimate_rademacher_norm(design, n=1, reps=4000, seed=1)
    assert stats.delta == pytest.approx(stats.xi_norm_mean * math.sqrt(stats.n), rel=1e-12)
    # with one draw the sign is irrelevant: the mean is the average atom norm
    exact = float(np.dot(design.probs, [operator_norm(a) for a in design.atoms]))
    assert abs(stats.delta - exact) <= 3 * stats.stderr


def test_conditional_estimate_matches_enumeration_small():
    rng = np.random.default_rng(2)
    design = orthonormal_basis_design(3)
    idx = rng.integers(0, design.num_atoms, size=8)
    xs = design.atoms[idx]
    exact = enumerate_rademacher_norm_fixed(xs)
    stats = estimate_rademacher_norm_fixed(xs, reps=40_000, seed=3)
    assert abs(stats.delta - exact) / exact <= 0.02


def test_single_atom_conditional_value():
    atom = np.diag([2.0, -1.0])
    n = 6
    xs = np.stack([atom] * n)
    exact = enumerate_rademacher_norm_fixed(xs)
    # norm factors out: E |sum of signs| / sqrt(n) times the atom norm
    signs = np.array([bin(p).count("1") for p in range(1 << n)])
    mean_abs = float(np.mean(np.abs(2 * signs - n))) / math.sqrt(n)
    assert exact == pytest.approx(2.0 * mean_abs, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 14),
    st.integers(1, 3000),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_fixed_sample_estimators_match_the_dense_contraction(m, n, reps, scale, seed):
    # the estimators run on the sample's empirical design, whose adjoint
    # replaced np.tensordot: the same norms bit for bit, over several blocks
    # of signs at larger reps and n
    rng = np.random.default_rng(seed)
    xs = np.stack([random_symmetric(rng, m, scale) for _ in range(n)])
    xs[rng.random(n) < 0.3] = xs[0]  # repeated draws, as a sample from a finite design has
    assert enumerate_rademacher_norm_fixed(xs) == enumerate_rademacher_norm_fixed_reference(xs)
    stats = estimate_rademacher_norm_fixed(xs, reps=reps, seed=seed)
    assert stats == rademacher_norm_fixed_reference(xs, reps, seed)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[0.0, 1.0], [0.0, 0.0]], "matrix is not symmetric within tolerance"),
        ([[np.nan, 0.0], [0.0, 1.0]], "matrix has non-finite entries"),
        ([[1.0, np.inf], [np.inf, 1.0]], "matrix has non-finite entries"),
    ],
)
def test_fixed_sample_estimators_refuse_a_sample_that_is_not_a_design(bad, message):
    # three copies of [[0, 1], [0, 0]] used to give 0.0 from both; the
    # sample is checked as a design's atoms are, naming the first bad draw
    for xs, first in ((np.stack([bad] * 3), 0), (np.stack([np.eye(2), bad, np.eye(2)]), 1)):
        with pytest.raises(ValidationError, match=rf"^atom {first}: {message}$"):
            enumerate_rademacher_norm_fixed(xs)
        with pytest.raises(ValidationError, match=rf"^atom {first}: {message}$"):
            estimate_rademacher_norm_fixed(xs, reps=10, seed=0)
    with pytest.raises(ValidationError, match=r"^atoms must be a \(k, m, m\) stack$"):
        estimate_rademacher_norm_fixed(np.ones((3, 2, 3)), reps=10, seed=0)


def test_enumeration_guard():
    xs = np.stack([np.eye(2)] * 25)
    with pytest.raises(ValidationError):
        enumerate_rademacher_norm_fixed(xs)


def test_design_moment_bounds_basis_m2():
    design = orthonormal_basis_design(2)
    sigma, uniform = design_moment_bounds(design)
    assert sigma == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert uniform == pytest.approx(1.0)


def test_design_moment_bounds_scaling_and_identity_atom():
    eye = custom_design(np.stack([np.eye(3)]), np.array([1.0]))
    assert design_moment_bounds(eye) == (pytest.approx(1.0), pytest.approx(1.0))
    rng = np.random.default_rng(4)
    design = random_design(rng, 3, 5)
    scaled = custom_design(2.5 * design.atoms, design.probs)
    s1, u1 = design_moment_bounds(design)
    s2, u2 = design_moment_bounds(scaled)
    assert s2 == pytest.approx(2.5 * s1, rel=1e-12)
    assert u2 == pytest.approx(2.5 * u1, rel=1e-12)


def test_matrix_bernstein_formula_values():
    assert matrix_bernstein_bound(1.0, 1.0, 1, 10**12) == pytest.approx(
        4 * math.sqrt(math.log(2.0)), rel=1e-12
    )
    assert matrix_bernstein_bound(0.01, 1.0, 8, 4) == pytest.approx(
        2 * math.log(16.0), rel=1e-12
    )
    with pytest.raises(ValidationError):
        matrix_bernstein_bound(-1.0, 1.0, 2, 2)


def test_matrix_bernstein_dominates_monte_carlo():
    rng = np.random.default_rng(5)
    for trial in range(25):
        m = int(rng.integers(2, 5))
        design = random_design(rng, m, int(rng.integers(2, 6)))
        n = int(rng.integers(3, 40))
        stats = estimate_rademacher_norm(design, n, reps=400, seed=int(rng.integers(1 << 31)))
        sigma, uniform = design_moment_bounds(design)
        bound = matrix_bernstein_bound(sigma, uniform, m, n)
        assert stats.delta + 3 * stats.stderr <= bound


def test_epsilon_threshold_values():
    assert epsilon_threshold(8.0, 4.0, 2.0, 100) == pytest.approx(6.4)
    assert epsilon_threshold(8.0, 4.0, 0.0, 100) == 0.0
    one = epsilon_threshold(8.0, 4.0, 1.0, 100)
    assert epsilon_threshold(8.0, 4.0, 2.0, 100) == pytest.approx(2 * one)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("name", ["b_const", "c_const", "d_thresh"])
def test_bound_constants_must_be_positive(name, value):
    # nan <= 0 is false, so a nan constant used to pass; a config refuses it
    # as non-finite before its range checks
    message = "must be finite" if math.isnan(value) else "must be positive"
    with pytest.raises(ValidationError, match=message):
        ExperimentConfig(**{name: value})
    # a direct caller is refused too, nan included
    with pytest.raises(ValidationError, match=f"^{name} = .* must be positive$"):
        if name == "d_thresh":
            epsilon_threshold(value, 4.0, 2.0, 100)
        else:
            oracle_bound_report(0.0, **_ORACLE, **(_PLAN | {name: value}))


def test_compatibility_basis_closed_form():
    for m in (2, 3, 4):
        design = orthonormal_basis_design(m)
        assert compatibility_basis(design) == pytest.approx(math.sqrt(design.num_atoms))
    rng = np.random.default_rng(6)
    with pytest.raises(ValidationError):
        compatibility_basis(random_design(rng, 3, 4))


def test_compatibility_lower_bound_reaches_closed_form():
    rng = np.random.default_rng(7)
    design = orthonormal_basis_design(4)
    s = random_low_rank(rng, 4, 2)
    exact = compatibility_basis(design)
    lower = compatibility_lower_bound(s, design, b=5.0, num_samples=200, seed=8)
    assert lower <= exact + 1e-9
    assert lower >= 0.99 * exact


def test_compatibility_lower_bound_of_rank_zero_support_is_zero():
    rng = np.random.default_rng(7)
    atoms = np.stack([random_symmetric(rng, 3) for _ in range(4)])
    design = custom_design(atoms, np.full(4, 0.25))
    assert compatibility_lower_bound(np.zeros((3, 3)), design, b=5.0, num_samples=20, seed=8) == 0.0


def test_compatibility_duality_on_cone_samples():
    from lowrank_oracle import nuclear_norm

    rng = np.random.default_rng(9)
    design = orthonormal_basis_design(4)
    s = random_low_rank(rng, 4, 2)
    _, support = sign_and_support(s)
    beta = compatibility_basis(design)
    for k in range(50):
        raw = random_symmetric(rng, 4)
        a_low = support.apply(raw)
        if k % 2 == 0:
            direction = a_low  # complement part zero: always inside the cone
        else:
            comp = random_symmetric(rng, 4)
            comp = comp - support.apply(comp)
            scale = rng.random() * 5.0 * nuclear_norm(a_low) / max(nuclear_norm(comp), 1e-12)
            direction = a_low + scale * comp
        assert cone_gap(direction, support, 5.0) >= -1e-9
        lhs = np.linalg.norm(support.apply(direction))
        assert lhs <= beta * functional_l2_norm(direction, design) + 1e-9


def test_compatibility_ratio_exact_on_support_range():
    rng = np.random.default_rng(99)
    design = orthonormal_basis_design(4)
    s = random_low_rank(rng, 4, 2)
    _, support = sign_and_support(s)
    direction = support.apply(random_symmetric(rng, 4))
    ratio = np.linalg.norm(direction) / functional_l2_norm(direction, design)
    assert ratio == pytest.approx(compatibility_basis(design), abs=1e-9)


def test_proof_fact_invariants_on_sampled_averages():
    rng = np.random.default_rng(10)
    design = orthonormal_basis_design(6)
    averages = sample_rademacher_averages(design, n=24, count=400, seed=11)
    s = random_low_rank(rng, 6, 2)
    _, support = sign_and_support(s)
    for xi in averages:
        low = support.apply(xi)
        r_low = rank_at_tol(low, 1e-9 * max(1.0, operator_norm(low)))
        assert r_low <= 2 * support.rank
        assert np.linalg.norm(low) <= 2 * math.sqrt(max(r_low, 1)) * operator_norm(xi) + 1e-12


def test_adjusted_confidence_values():
    assert adjusted_confidence(3.0, 1.0, 2, 1.0, 1.0, 1.0, 1.0, 2.0) == pytest.approx(
        3.0 + 3.0 * math.log(2.0), rel=1e-12
    )
    assert adjusted_confidence(0.0, 1.0, 1024, 1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(
        3.0 * math.log(10.0), rel=1e-12
    )
    base = adjusted_confidence(1.0, 2.0, 100, 0.5, 1.0, 1.0, 1.0, 2.0)
    assert adjusted_confidence(1.0, 200.0, 100, 0.5, 1.0, 1.0, 1.0, 2.0) >= base
    with pytest.raises(ValidationError):
        adjusted_confidence(1.0, 1.0, 100, 1.0, -1.0, 1.0, 1.0, 2.0)


# the terms of a rank-2, unit-spectrum oracle on the m = 4 basis design (K = 10)
# under the squared loss at a = 2: beta = sqrt(K), L(a) = 4a and tau(a) = 2
_ORACLE = dict(oracle_excess=0.02, oracle_rank=2, oracle_nuclear=2.0)
_PLAN = dict(
    epsilon=0.1, t=3.0, b_const=2.0, c_const=1.0, a=2.0, n=200,
    beta=math.sqrt(10.0), smoothness=8.0, curvature=2.0, q_bound=2.6,
)


def test_residual_scale_values():
    # the deviation term is C * max(L(a)^2 / tau(a), L(a) * a) * t_adj / n
    def residual_scale(c_const, smoothness, curvature, a):
        terms = _PLAN | dict(c_const=c_const, smoothness=smoothness, curvature=curvature, a=a)
        report = oracle_bound_report(0.0, **_ORACLE, **terms)
        return report.residual_term * 200 / report.confidence_term

    assert residual_scale(1.0, 4.0, 2.0, 1.0) == pytest.approx(8.0)
    assert residual_scale(1.0, 16.0, 2.0, 4.0) == pytest.approx(128.0)
    assert residual_scale(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


def test_bound_report_consistency():
    report = oracle_bound_report(_ORACLE["oracle_excess"], **_ORACLE, **_PLAN)
    assert report.min_term <= report.rank_term
    assert report.min_term <= report.nuclear_term
    assert report.rhs == pytest.approx(
        report.oracle_excess + report.min_term + report.residual_term, abs=1e-12
    )
    assert not report.violated  # estimate equals the oracle
    assert report.lhs == report.oracle_excess


def test_bound_report_rank_zero_oracle():
    zero = dict(oracle_excess=0.2, oracle_rank=0, oracle_nuclear=0.0)
    report = oracle_bound_report(0.5, **zero, **_PLAN)
    assert report.rank_term == 0.0
    assert report.nuclear_term == 0.0
    assert report.min_term == 0.0
    assert report.rhs == pytest.approx(report.oracle_excess + report.residual_term)


def test_bound_report_critical_c_inverts_rhs():
    plan = _PLAN | dict(epsilon=0.05, c_const=1.0)
    report = oracle_bound_report(0.9, **_ORACLE, **plan)
    # setting c_const to the critical value makes the bound exactly tight
    plan["c_const"] = max(report.critical_c, 1e-12)
    tight = oracle_bound_report(0.9, **_ORACLE, **plan)
    assert tight.rhs == pytest.approx(0.9, rel=1e-9)


def test_shortcut_sampler_matches_definitional_sampler():
    # the estimator draws (multinomial counts, signed counts); check its mean
    # against a naive sampler that materializes covariates and signs per draw.
    # At n = 20 every count takes the random-bit rule; at n = 2000 (K = 6)
    # every count is above 64 and takes the binomial rule
    design = orthonormal_basis_design(3)
    reps = 4000
    for n, seed in ((20, 15), (2000, 17)):
        stats = estimate_rademacher_norm(design, n, reps=reps, seed=seed)

        rng = np.random.default_rng(seed + 1)
        norms = np.empty(reps)
        for r in range(reps):
            idx = rng.choice(design.num_atoms, size=n, p=design.probs)
            signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
            total = np.tensordot(signs, design.atoms[idx], axes=1) / np.sqrt(n)
            norms[r] = np.max(np.abs(np.linalg.eigvalsh(total)))
        naive_mean = float(np.mean(norms))
        naive_stderr = float(np.std(norms, ddof=1) / np.sqrt(reps))
        joint = np.hypot(stats.stderr, naive_stderr)
        assert abs(stats.delta - naive_mean) <= 4 * joint, n


def _unconditional_delta_by_enumeration(design, n: int) -> float:
    """Exact Delta at small n: the sign enumeration of each vector of atom
    counts, weighted by its multinomial probability."""
    exact = 0.0
    for counts in itertools.product(range(n + 1), repeat=design.num_atoms):
        if sum(counts) != n:
            continue
        pmf = math.factorial(n) * math.prod(
            p**c / math.factorial(c) for p, c in zip(design.probs, counts)
        )
        xs = np.repeat(design.atoms, counts, axis=0)
        exact += pmf * enumerate_rademacher_norm_fixed(xs)
    return exact


def test_shared_count_monte_carlo_matches_unshared_estimator(monkeypatch):
    # repetitions in clusters of SHARED_COUNTS that share their atom counts
    # against the same estimator with one count draw per repetition, on
    # independent seeds: criterion 5's random designs at n in [3, 40), where
    # the counts move the norm and a cluster's norms correlate, and m = 40 at
    # n = 32 000 (16-row blocks in clusters of 8)
    rng = np.random.default_rng(77)
    cases = []
    for _ in range(20):
        m = int(rng.integers(2, 5))
        cases.append((random_design(rng, m, int(rng.integers(2, 6))), int(rng.integers(3, 40)), 800))
    cases.append((orthonormal_basis_design(40), 32_000, 1000))
    for i, (design, n, reps) in enumerate(cases):
        assert shared_count_blocks(design.dim)[1] == bounds.SHARED_COUNTS
        shared = estimate_rademacher_norm(design, n, reps=reps, seed=100 + i)
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "SHARED_COUNTS", 1)
            unshared = estimate_rademacher_norm(design, n, reps=reps, seed=200 + i)
        joint = math.hypot(shared.stderr, unshared.stderr)
        assert abs(shared.delta - unshared.delta) <= 4 * joint, (i, n)


def test_shared_count_stderr_is_calibrated_against_the_exact_value():
    # three atoms of very different sizes at n = 4: the counts drive the
    # norm, so the norms of a cluster correlate and a per-repetition stderr
    # would be about half the true one.  Over 200 seeds the z-scores of the
    # estimate against the enumerated value must have unit spread
    rng = np.random.default_rng(78)
    atoms = np.stack([scale * random_symmetric(rng, 3) for scale in (0.3, 1.0, 3.0)])
    design = custom_design(atoms, np.array([0.5, 0.3, 0.2]))
    exact = _unconditional_delta_by_enumeration(design, 4)
    z = []
    for seed in range(200):
        stats = estimate_rademacher_norm(design, 4, reps=400, seed=seed)
        z.append((stats.delta - exact) / stats.stderr)
    assert 0.8 <= float(np.std(z)) <= 1.25
    assert abs(float(np.mean(z))) <= 4 / math.sqrt(len(z))


@pytest.mark.parametrize("c", [0, 1, 2, 63, 64, 65, 200, 5000])
def test_signed_counts_follow_the_binomial_law(c):
    # one atom of probability 1 gets all c draws; its plus count
    # (s + c) / 2 must be Binomial(c, 1/2) on either side of the 64 cut
    draws = 20_000
    signed = bounds._signed_counts(np.random.default_rng(c + 31), c, np.array([1.0]), draws)
    assert signed.shape == (draws, 1)
    plus = (signed[:, 0] + c) / 2
    assert np.array_equal(plus, np.round(plus))
    observed = np.bincount(plus.astype(np.int64), minlength=c + 1)
    expected = draws * binom.pmf(np.arange(c + 1), c, 0.5)
    if c == 0:
        assert observed[0] == draws
        return
    # pool the tails into the outermost bins expecting at least 5 draws
    keep = np.flatnonzero(expected >= 5)
    lo, hi = keep[0], keep[-1]

    def pooled(v):
        return np.concatenate(([v[: lo + 1].sum()], v[lo + 1 : hi], [v[hi:].sum()]))

    assert chisquare(pooled(observed), pooled(expected)).pvalue > 1e-3


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    st.integers(0, 600),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_signed_counts_parity_and_range(weights, n, size, seed):
    # counts spread around 64: each sum has the parity of its count and
    # lies within it; the counts are the generator's first draws
    probs = np.array(weights) / sum(weights)
    probs[-1] = 1.0 - float(np.sum(probs[:-1]))
    signed = bounds._signed_counts(np.random.default_rng(seed), n, probs, size)
    counts = np.random.default_rng(seed).multinomial(n, probs, size=size)
    assert signed.shape == counts.shape
    assert np.all(np.abs(signed) <= counts)
    assert np.all((signed - counts) % 2 == 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    st.integers(0, 600),
    st.integers(1, 20),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_shared_signed_counts_parity_and_range(weights, n, size, share, seed):
    # each cluster of share rows, the last one maybe cut, sums its own signs
    # over one count row: the generator's first draws, one row per cluster
    probs = np.array(weights) / sum(weights)
    probs[-1] = 1.0 - float(np.sum(probs[:-1]))
    signed = bounds._signed_counts(np.random.default_rng(seed), n, probs, size, share)
    counts = np.random.default_rng(seed).multinomial(n, probs, size=-(-size // share))
    counts = counts[np.arange(size) // share]
    assert signed.shape == counts.shape
    assert np.all(np.abs(signed) <= counts)
    assert np.all((signed - counts) % 2 == 0)


def test_sampled_averages_match_direct_statistics():
    design = orthonormal_basis_design(3)
    averages = sample_rademacher_averages(design, n=16, count=3000, seed=13)
    norms = np.max(np.abs(np.linalg.eigvalsh(averages)), axis=-1)
    stats = estimate_rademacher_norm(design, 16, reps=3000, seed=14)
    # same distribution sampled two ways: means agree within joint error
    assert abs(float(np.mean(norms)) * math.sqrt(16) - stats.delta) <= 4 * math.sqrt(2) * stats.stderr * math.sqrt(16)


def test_rademacher_monte_carlo_peak_memory():
    # the norms plus a few row blocks of counts, signs, adjoint output and
    # eigenvalue work at a time, whatever the number of repetitions
    design = orthonormal_basis_design(40)
    reps = 1000
    tracemalloc.start()
    try:
        estimate_rademacher_norm(design, n=32_000, reps=reps, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * reps + 3 * designs.BLOCK_BYTES


def test_rademacher_monte_carlo_peak_memory_with_mixed_counts():
    # as above at n = 64 K, where about half the counts exceed 64, so each
    # block draws both random words and binomials
    design = orthonormal_basis_design(40)
    reps = 1000
    tracemalloc.start()
    try:
        estimate_rademacher_norm(design, n=64 * design.num_atoms, reps=reps, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * reps + 3 * designs.BLOCK_BYTES


@pytest.mark.parametrize("rows", [None, 7, 100])
def test_blocked_rademacher_monte_carlo_matches_unblocked_loop(monkeypatch, rows):
    # at m = 60 a block is 9 rows of 28.8 kB, cut to 8 rows of clusters of
    # 4 that share their counts: 32 uneven blocks; 7 rows give 42 blocks of
    # at most 6 rows in clusters of 3, and 100 rows three uneven blocks of
    # at most 96 in clusters of 8.  250 repetitions end inside a cluster
    # every time; delta and stderr must not move by a bit
    design = orthonormal_basis_design(60)
    reps = 250
    if rows is not None:
        monkeypatch.setattr(designs, "BLOCK_BYTES", rows * 8 * design.dim**2)
    block, share = shared_count_blocks(design.dim)
    assert (block, share) == {None: (8, 4), 7: (6, 3), 100: (96, 8)}[rows]
    assert reps > 2 * block and reps % share
    got = estimate_rademacher_norm(design, n=5000, reps=reps, seed=21)
    assert got == rademacher_norm_reference(design, 5000, reps, 21, block, share)


@pytest.mark.parametrize("n", [20, 64 * 36, 10**6])
def test_rademacher_norms_under_a_smaller_cap_are_a_prefix(n):
    # at m = 8 a block is 512 repetitions in 64 clusters of 8.  At n = 20
    # every count is at most 64, at 10^6 every count is above, and at 64 K
    # about half are, so each block draws both words and binomials.  Caps
    # inside the first cluster, inside a later one (100), at the first
    # block's end and inside the second block draw the first norms of a
    # longer run, and the statistics count a cut cluster as one
    design = orthonormal_basis_design(8)
    assert shared_count_blocks(design.dim) == (512, 8)
    _, longest, _ = rademacher_draws(design, n, 1100, seed=5)
    centres = np.array(design.trace_moments(n))
    for cap in (1, 100, 512, 700):
        stats, draws, _ = rademacher_draws(design, n, cap, seed=5)
        assert np.array_equal(draws, longest[:, :cap]), cap
        assert stats == bounds._stats_from_draws(longest[:, :cap], n, 8, centres)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    st.integers(0, 600),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_signed_counts_of_fewer_rows_are_a_prefix(weights, n, rows, more, share, seed):
    probs = np.array(weights) / sum(weights)
    probs[-1] = 1.0 - float(np.sum(probs[:-1]))
    short = bounds._signed_counts(np.random.default_rng(seed), n, probs, rows, share)
    long = bounds._signed_counts(np.random.default_rng(seed), n, probs, rows + more, share)
    assert np.array_equal(short, long[:rows])


def test_fixed_count_monte_carlo_draws_exactly_reps():
    # m = 40, n = 32 000, 16 repetitions a block in clusters of 8: without a
    # tolerance every repetition asked for is drawn, although the estimate
    # would meet DELTA_RTOL after about 550
    design = orthonormal_basis_design(40)
    assert shared_count_blocks(design.dim) == (16, 8)
    centres = np.array(design.trace_moments(32_000))
    for reps in (1, 15, 16, 17, 19, 20, 21, 1000):
        stats, draws, rows = rademacher_draws(design, 32_000, reps, seed=9)
        assert stats.reps == draws.shape[1] == sum(rows) == reps
        assert stats == bounds._stats_from_draws(draws, 32_000, 8, centres)
    stopped, draws, rows = rademacher_draws(design, 32_000, 1000, seed=9, rtol=bounds.DELTA_RTOL)
    assert stopped.reps == draws.shape[1] == sum(rows) < 1000


def test_precision_stop_waits_for_the_pilot(monkeypatch):
    # one repetition a block and a tolerance that any two repetitions meet:
    # the stop still waits until the DELTA_PILOT clusters of the pilot are
    # drawn.  With 16-row blocks of two clusters it waits for DELTA_PILOT
    # clusters
    design = orthonormal_basis_design(8)
    monkeypatch.setattr(designs, "BLOCK_BYTES", 8 * design.dim**2)
    stats = estimate_rademacher_norm(design, 1000, reps=1000, seed=4, rtol=1.0)
    assert stats.reps == bounds.DELTA_PILOT
    monkeypatch.setattr(designs, "BLOCK_BYTES", 16 * 8 * design.dim**2)
    stats = estimate_rademacher_norm(design, 1000, reps=1000, seed=4, rtol=1.0)
    assert stats.reps == 8 * bounds.DELTA_PILOT


def test_pilot_quantile_ratio_is_the_t_over_the_normal_quantile():
    # SciPy is a test dependency only, so the program holds the ratio
    ratio = t_dist.ppf(0.975, bounds.DELTA_PILOT - 3) / norm.ppf(0.975)
    assert bounds.PILOT_T_RATIO == pytest.approx(ratio, rel=1e-12)


def _enumerated_trace_moments(design, n: int) -> tuple[float, float]:
    """E tr W^2 and E tr W^4 over every atom sequence and sign pattern."""
    t2 = t4 = 0.0
    for seq in itertools.product(range(design.num_atoms), repeat=n):
        weight = float(np.prod(design.probs[list(seq)])) / 2**n
        for signs in itertools.product((-1.0, 1.0), repeat=n):
            w = np.tensordot(np.array(signs), design.atoms[list(seq)], axes=1) / math.sqrt(n)
            lam = np.linalg.eigvalsh(w)
            t2 += weight * float(np.sum(lam**2))
            t4 += weight * float(np.sum(lam**4))
    return t2, t4


@pytest.mark.parametrize("kind", ["custom", "basis2", "basis3"])
def test_trace_moments_match_enumeration(kind):
    # a random non-uniform custom design takes the dense formula, the basis
    # its closed form; n = 1..4 covers the 1/n and (1 - 1/n) terms
    if kind == "custom":
        design = random_design(np.random.default_rng(81), 3, 3)
    else:
        design = orthonormal_basis_design(int(kind[-1]))
    for n in range(1, 5):
        got = design.trace_moments(n)
        exact = _enumerated_trace_moments(design, n)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-13), (kind, n)


@pytest.mark.parametrize("m", range(1, 7))
def test_basis_trace_moments_closed_form_matches_dense_formula(m):
    basis = orthonormal_basis_design(m)
    dense = custom_design(basis.atoms, basis.probs)
    assert basis._quartic_terms() == pytest.approx(dense._quartic_terms(), rel=1e-13)
    for n in (1, 2, 7, 10**6):
        assert basis.trace_moments(n) == pytest.approx(dense.trace_moments(n), rel=1e-13)


def test_degenerate_traces_fall_back_to_the_plain_cluster_mean():
    # at n = 1 on the basis design W = +-X_k, so tr W^2 = 1 up to rounding:
    # no covariate, and the estimate is the plain cluster mean
    design = orthonormal_basis_design(4)
    stats, draws, _ = rademacher_draws(design, 1, 400, seed=3)
    assert np.ptp(draws[1]) <= 1e-15
    assert stats == cluster_mean_stats(draws[0], 1, 8)
    # one atom at n = 2: the norm and both traces are functions of one
    # signed count in {-2, 0, 2}, and the traces move together
    single = custom_design(np.stack([np.diag([2.0, -1.0])]), np.array([1.0]))
    stats, draws, _ = rademacher_draws(single, 2, 400, seed=3)
    assert stats == cluster_mean_stats(draws[0], 2, 8)
    # fewer than 4 clusters leave no residual degrees of freedom
    for reps in (1, 8, 17, 24):
        stats, draws, _ = rademacher_draws(orthonormal_basis_design(8), 1000, reps, seed=3)
        assert stats == cluster_mean_stats(draws[0], 1000, 8), reps
    stats, draws, _ = rademacher_draws(orthonormal_basis_design(8), 1000, 25, seed=3)
    assert stats != cluster_mean_stats(draws[0], 1000, 8)


@pytest.mark.parametrize("m, n, reps", [(8, 10**6, 1000), (40, 32_000, 333), (3, 4, 400)])
def test_cluster_fit_matches_a_dense_least_squares_reference(m, n, reps):
    # the fit as a 3x3 least-squares problem on [1, z] with z the traces'
    # cluster means about their exact means: Delta is the intercept, and
    # its HC3 variance is entry (0, 0) of the sandwich
    # (X'X)^-1 X' diag(r^2 / (1 - h)^2) X (X'X)^-1
    design = orthonormal_basis_design(m)
    _, draws, _ = rademacher_draws(design, n, reps, seed=17)
    share = shared_count_blocks(m)[1]
    centres = np.array(design.trace_moments(n))
    starts = np.arange(0, reps, share)
    means = np.add.reduceat(draws, starts, axis=1) / np.diff(starts, append=reps)
    x = np.column_stack([np.ones(means.shape[1]), (means[1:] - centres[:, None]).T])
    inverse = np.linalg.inv(x.T @ x)
    beta = inverse @ x.T @ means[0]
    residual = means[0] - x @ beta
    leverage = np.einsum("ij,jk,ik->i", x, inverse, x)
    sandwich = inverse @ (x.T * (residual / (1 - leverage)) ** 2) @ x @ inverse
    delta, stderr = bounds._cluster_fit(draws, share, centres)
    assert delta == pytest.approx(beta[0], rel=1e-10)
    assert stderr == pytest.approx(math.sqrt(sandwich[0, 0]), rel=1e-9)


@pytest.mark.parametrize("m, n", [(8, 10**6), (40, 32_000)])
def test_control_variate_estimate_agrees_with_the_plain_cluster_mean(m, n):
    # the shipped plan setting, a cap of 1000 repetitions at DELTA_RTOL, on
    # fixed seeds: the fitted and the plain estimate of the same stream
    # agree within 3 joint standard errors
    design = orthonormal_basis_design(m)
    for seed in (11, 12, 13):
        fitted = estimate_rademacher_norm(design, n, 1000, seed, rtol=bounds.DELTA_RTOL)
        plain = cluster_mean_rademacher_norm(design, n, 1000, seed, rtol=bounds.DELTA_RTOL)
        assert abs(fitted.delta - plain.delta) <= 3 * math.hypot(fitted.stderr, plain.stderr)
        assert fitted.stderr < plain.stderr
