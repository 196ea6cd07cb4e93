import math

import numpy as np
import pytest

from lowrank_oracle import (
    ConstantsConfig,
    GaussianNoise,
    TruthModel,
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
    excess_risk,
    functional_l2_norm,
    matrix_bernstein_bound,
    oracle_bound_report,
    operator_norm,
    orthonormal_basis_design,
    rank_at_tol,
    sample_rademacher_averages,
    sign_and_support,
    squared_loss,
)

from helpers import random_low_rank, random_symmetric


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
    constants = ConstantsConfig(d_thresh=8.0)
    assert epsilon_threshold(constants, 4.0, 2.0, 100) == pytest.approx(6.4)
    assert epsilon_threshold(constants, 4.0, 0.0, 100) == 0.0
    one = epsilon_threshold(constants, 4.0, 1.0, 100)
    assert epsilon_threshold(constants, 4.0, 2.0, 100) == pytest.approx(2 * one)


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
    from lowrank_oracle import cone_gap, nuclear_norm

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


def test_residual_scale_values():
    # the deviation term is C * max(L(a)^2 / tau(a), L(a) * a) * t_adj / n
    design, truth = _report_inputs()

    def residual_scale(constants, smoothness, curvature, a):
        report = oracle_bound_report(
            truth.s_star, 0.0, design, truth, squared_loss(),
            epsilon=0.1, t=3.0, constants=constants, a=a, n=200,
            smoothness=smoothness, curvature=curvature,
        )
        return report.residual_term * 200 / report.confidence_term

    assert residual_scale(ConstantsConfig(c_const=1.0), 4.0, 2.0, 1.0) == pytest.approx(8.0)
    assert residual_scale(ConstantsConfig(c_const=1.0), 16.0, 2.0, 4.0) == pytest.approx(128.0)
    assert residual_scale(ConstantsConfig(c_const=1.0), 1.0, 1.0, 1.0) == pytest.approx(1.0)


def _report_inputs(m=4, rank=2, sigma=0.1, seed=12):
    rng = np.random.default_rng(seed)
    design = orthonormal_basis_design(m)
    truth = TruthModel(s_star=random_low_rank(rng, m, rank, spectrum=[1.0] * rank), noise=GaussianNoise(sigma))
    return design, truth


def test_bound_report_consistency():
    design, truth = _report_inputs()
    constants = ConstantsConfig()
    lhs = excess_risk(truth.s_star, design, truth, squared_loss())
    report = oracle_bound_report(
        truth.s_star, lhs, design, truth, squared_loss(),
        epsilon=0.1, t=3.0, constants=constants, a=2.0, n=200,
    )
    assert report.min_term <= report.rank_term
    assert report.min_term <= report.nuclear_term
    assert report.rhs == pytest.approx(
        report.oracle_excess + report.min_term + report.residual_term, abs=1e-12
    )
    assert not report.violated  # estimate equals the oracle
    assert report.lhs == report.oracle_excess


def test_bound_report_rank_zero_oracle():
    design, truth = _report_inputs()
    report = oracle_bound_report(
        np.zeros((4, 4)), 0.5, design, truth, squared_loss(),
        epsilon=0.1, t=3.0, constants=ConstantsConfig(), a=2.0, n=200,
    )
    assert report.rank_term == 0.0
    assert report.nuclear_term == 0.0
    assert report.min_term == 0.0
    assert report.rhs == pytest.approx(report.oracle_excess + report.residual_term)


def test_bound_report_critical_c_inverts_rhs():
    design, truth = _report_inputs()
    constants = ConstantsConfig(c_const=1.0)
    report = oracle_bound_report(
        truth.s_star, 0.9, design, truth, squared_loss(),
        epsilon=0.05, t=3.0, constants=constants, a=2.0, n=200,
    )
    # setting c_const to the critical value makes the bound exactly tight
    tight = oracle_bound_report(
        truth.s_star, 0.9, design, truth, squared_loss(),
        epsilon=0.05, t=3.0, constants=ConstantsConfig(c_const=max(report.critical_c, 1e-12)),
        a=2.0, n=200,
    )
    assert tight.rhs == pytest.approx(0.9, rel=1e-9)


def test_shortcut_sampler_matches_definitional_sampler():
    # the estimator draws (multinomial counts, binomial signs); check its mean
    # against a naive sampler that materializes covariates and signs per draw
    design = orthonormal_basis_design(3)
    n, reps = 20, 4000
    stats = estimate_rademacher_norm(design, n, reps=reps, seed=15)

    rng = np.random.default_rng(16)
    norms = np.empty(reps)
    for r in range(reps):
        idx = rng.choice(design.num_atoms, size=n, p=design.probs)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        total = np.tensordot(signs, design.atoms[idx], axes=1) / np.sqrt(n)
        norms[r] = np.max(np.abs(np.linalg.eigvalsh(total)))
    naive_mean = float(np.mean(norms))
    naive_stderr = float(np.std(norms, ddof=1) / np.sqrt(reps))
    joint = np.hypot(stats.stderr, naive_stderr)
    assert abs(stats.delta - naive_mean) <= 4 * joint


def test_sampled_averages_match_direct_statistics():
    design = orthonormal_basis_design(3)
    averages = sample_rademacher_averages(design, n=16, count=3000, seed=13)
    norms = np.max(np.abs(np.linalg.eigvalsh(averages)), axis=-1)
    stats = estimate_rademacher_norm(design, 16, reps=3000, seed=14)
    # same distribution sampled two ways: means agree within joint error
    assert abs(float(np.mean(norms)) * math.sqrt(16) - stats.delta) <= 4 * math.sqrt(2) * stats.stderr * math.sqrt(16)
