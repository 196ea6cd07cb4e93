import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    Dataset,
    FrobeniusBall,
    GaussianNoise,
    NumericalError,
    OperatorNormBall,
    SolveResult,
    SolverConfig,
    TruthModel,
    Unconstrained,
    ValidationError,
    certify,
    composite_prox,
    empirical_risk,
    exponential_loss,
    frobenius_norm,
    gradient,
    nuclear_norm,
    objective,
    operator_norm,
    optimality_residuals,
    orthonormal_basis_design,
    sample_dataset,
    solve,
    squared_loss,
)
from lowrank_oracle import ClassificationLink
from lowrank_oracle import solver as solver_module
from lowrank_oracle.matrices import inner

from helpers import (
    directional_derivative,
    least_squares_oracle,
    optimality_residuals_reference,
    prox_eigenvalues_oracle,
    random_low_rank,
    random_symmetric,
)


def full_observation_data(m: int, seed: int, s_star=None, sigma=0.0) -> Dataset:
    design = orthonormal_basis_design(m)
    rng = np.random.default_rng(seed)
    if s_star is None:
        s_star = random_low_rank(rng, m, max(1, m // 3))
    y = np.einsum("kij,ij->k", design.atoms, s_star)
    if sigma:
        y = y + sigma * rng.standard_normal(design.num_atoms)
    return Dataset(design=design, atom_indices=np.arange(design.num_atoms), y=y, seed=seed)


def sampled_instance(m=5, n=300, sigma=0.1, seed=0, rank=2):
    design = orthonormal_basis_design(m)
    rng = np.random.default_rng(seed)
    truth = TruthModel(s_star=random_low_rank(rng, m, rank), noise=GaussianNoise(sigma=sigma))
    data = sample_dataset(design, truth, n, seed=seed + 1)
    return design, truth, data


def test_objective_arithmetic():
    design = orthonormal_basis_design(2)
    data = Dataset(design=design, atom_indices=np.array([0]), y=np.array([3.0]), seed=0)
    s = np.diag([1.0, -1.0])  # prediction <S, e1 e1^T> = 1, nuclear norm 2
    assert objective(s, data, squared_loss(), 1.0) == pytest.approx(6.0)
    assert objective(np.zeros((2, 2)), data, squared_loss(), 5.0) == pytest.approx(9.0)
    assert objective(s, data, squared_loss(), 0.0) == pytest.approx(4.0)
    with pytest.raises(ValidationError):
        objective(s, data, squared_loss(), -0.1)


def test_objective_at_zero_is_mean_square():
    _, _, data = sampled_instance(seed=41)
    assert objective(np.zeros((5, 5)), data, squared_loss(), 0.0) == pytest.approx(
        float(np.mean(data.y**2))
    )


def test_gradient_single_sample_formula():
    design = orthonormal_basis_design(3)
    data = Dataset(design=design, atom_indices=np.array([2]), y=np.array([2.0]), seed=0)
    rng = np.random.default_rng(42)
    s = random_symmetric(rng, 3)
    x1 = design.atoms[2]
    expected = -2.0 * (2.0 - inner(s, x1)) * x1
    assert np.allclose(gradient(s, data, squared_loss()), expected, atol=1e-12)


def test_gradient_zero_at_truth_noiseless():
    rng = np.random.default_rng(43)
    s_star = random_low_rank(rng, 4, 2)
    data = full_observation_data(4, seed=1, s_star=s_star)
    g = gradient(s_star, data, squared_loss())
    assert np.max(np.abs(g)) <= 1e-12


@pytest.mark.parametrize("loss", [squared_loss(), exponential_loss()], ids=lambda l: l.name)
def test_gradient_matches_directional_finite_differences(loss):
    design = orthonormal_basis_design(4)
    rng = np.random.default_rng(44)
    if loss.name == "exponential":
        truth = TruthModel(s_star=random_low_rank(rng, 4, 2), noise=ClassificationLink())
    else:
        truth = TruthModel(s_star=random_low_rank(rng, 4, 2), noise=GaussianNoise(0.2))
    data = sample_dataset(design, truth, 100, seed=9)
    s = 0.3 * random_symmetric(rng, 4)
    g = gradient(s, data, loss)
    for _ in range(5):
        h = random_symmetric(rng, 4)
        numeric = directional_derivative(lambda x: empirical_risk(x, data, loss), s, h)
        assert inner(g, h) == pytest.approx(numeric, rel=1e-4, abs=1e-8)


def test_composite_prox_examples():
    out = composite_prox(np.diag([3.0, -1.0]), 1.0, OperatorNormBall(1.5))
    assert np.allclose(out, np.diag([1.5, 0.0]))
    rng = np.random.default_rng(45)
    s = random_symmetric(rng, 4)
    clipped = composite_prox(s, 0.0, OperatorNormBall(0.4))
    lam = np.linalg.eigvalsh(clipped)
    assert np.max(np.abs(lam)) <= 0.4 + 1e-12
    inside = 0.3 * s / max(operator_norm(s), 1e-12)
    assert np.allclose(composite_prox(inside, 0.0, OperatorNormBall(1.0)), inside, atol=1e-12)


@pytest.mark.parametrize(
    "constraint",
    [Unconstrained(), OperatorNormBall(1.2), FrobeniusBall(1.5)],
    ids=["unconstrained", "op-ball", "frob-ball"],
)
def test_composite_prox_matches_grid_oracle(constraint):
    rng = np.random.default_rng(46)
    for _ in range(5):
        lams = rng.uniform(-3.0, 3.0, size=3)
        theta = float(rng.uniform(0.0, 1.5))
        got = np.sort(np.linalg.eigvalsh(composite_prox(np.diag(lams), theta, constraint)))
        want = np.sort(prox_eigenvalues_oracle(lams, theta, constraint))
        assert np.max(np.abs(got - want)) <= 1e-5


@pytest.mark.parametrize(
    "constraint",
    [Unconstrained(), OperatorNormBall(1.2), FrobeniusBall(1.5)],
    ids=["unconstrained", "op-ball", "frob-ball"],
)
def test_composite_prox_nonexpansive(constraint):
    rng = np.random.default_rng(58)
    for _ in range(10):
        a = random_symmetric(rng, 4, scale=2.0)
        b = a + random_symmetric(rng, 4, scale=0.7)
        theta = float(rng.uniform(0.0, 1.0))
        moved = frobenius_norm(
            composite_prox(a, theta, constraint) - composite_prox(b, theta, constraint)
        )
        assert moved <= frobenius_norm(a - b) + 1e-9


def test_solve_full_observation_matches_spectral_threshold():
    data = full_observation_data(6, seed=2, sigma=0.4)
    d = data.design.num_atoms
    assembled = np.tensordot(data.y, data.design.atoms, axes=1)
    for epsilon in (0.01, 0.1):
        result = solve(data, squared_loss(), SolverConfig(epsilon=epsilon))
        closed = composite_prox(assembled, epsilon * d / 2.0, Unconstrained())
        assert result.converged
        assert frobenius_norm(result.s_hat - closed) <= 1e-4


def test_solve_zero_when_epsilon_dominates():
    _, _, data = sampled_instance(seed=47)
    g0 = gradient(np.zeros((5, 5)), data, squared_loss())
    epsilon = 1.01 * operator_norm(g0)
    result = solve(data, squared_loss(), SolverConfig(epsilon=epsilon))
    assert result.converged
    assert np.all(result.s_hat == 0.0)


def test_solve_unpenalized_matches_least_squares():
    data = full_observation_data(4, seed=3, sigma=0.3)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.0, grad_tol=1e-10))
    oracle = least_squares_oracle(data)
    assert result.converged
    assert frobenius_norm(result.s_hat - oracle) <= 1e-6


def test_objective_trace_monotone_and_residual_small():
    _, _, data = sampled_instance(seed=48)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.05))
    trace = result.objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))
    assert result.converged
    assert result.kkt[0] <= 1e-5 and result.kkt[1] <= 1e-5


def test_solve_evaluates_one_gradient_per_iteration(monkeypatch):
    _, _, data = sampled_instance(seed=48)
    calls = []

    def counting_gradient(s, data, loss):
        calls.append(1)
        return gradient(s, data, loss)

    monkeypatch.setattr(solver_module, "gradient", counting_gradient)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.05))
    assert result.converged
    assert len(calls) == result.iterations + 1


@pytest.mark.parametrize(
    "seed, constraint",
    [(48, Unconstrained()), (49, Unconstrained()), (10, FrobeniusBall(1.5))],
    ids=["restart", "step-growth-after-restart", "frob-ball-accepts-step-from-x"],
)
def test_restarted_solve_converges_monotone_and_certified(seed, constraint):
    # seed 49 runs out of iterations if the step does not re-grow after a
    # restart; seed 10 does if a step from x itself can be rejected
    _, _, data = sampled_instance(seed=seed)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.01), constraint)
    trace = result.objective_trace
    assert len(trace) == result.iterations + 1
    assert np.any(np.diff(trace) == 0.0)  # a restart repeats the objective
    assert result.converged
    assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))
    assert certify(result, data, squared_loss(), 0.01, constraint, tol=1e-5)


def test_solution_beats_probe_points():
    design, truth, data = sampled_instance(seed=49)
    epsilon = 0.05
    result = solve(data, squared_loss(), SolverConfig(epsilon=epsilon))
    best = objective(result.s_hat, data, squared_loss(), epsilon)
    rng = np.random.default_rng(50)
    probes = [np.zeros((5, 5)), truth.s_star]
    probes += [result.s_hat + 0.01 * random_symmetric(rng, 5) for _ in range(5)]
    for probe in probes:
        assert best <= objective(probe, data, squared_loss(), epsilon) + 1e-10


def test_apriori_nuclear_bound():
    design, truth, data = sampled_instance(seed=51)
    q_bound = float(np.max(data.y**2))  # sup of the squared loss at prediction zero
    for epsilon in (0.02, 0.1, 0.5):
        result = solve(data, squared_loss(), SolverConfig(epsilon=epsilon))
        assert result.converged
        assert nuclear_norm(result.s_hat) <= q_bound / epsilon + 1e-9


def test_doubling_iteration_budget_is_stable():
    _, _, data = sampled_instance(seed=52)
    config = SolverConfig(epsilon=0.05, max_iters=2000)
    first = solve(data, squared_loss(), config)
    second = solve(data, squared_loss(), SolverConfig(epsilon=0.05, max_iters=4000))
    assert frobenius_norm(first.s_hat - second.s_hat) <= 10 * first.grad_tol


def test_max_iters_exhaustion_returns_result():
    _, _, data = sampled_instance(seed=53)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.01, max_iters=2))
    assert not result.converged
    assert result.iterations == 2
    assert np.all(np.isfinite(result.s_hat))


def test_constrained_solve_operator_ball_active():
    data = full_observation_data(4, seed=4, s_star=np.diag([2.0, -1.5, 0.0, 0.0]))
    constraint = OperatorNormBall(0.8)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.01), constraint)
    assert result.converged
    assert operator_norm(result.s_hat) <= 0.8 + 1e-9
    assert certify(result, data, squared_loss(), 0.01, constraint, tol=1e-5)


def test_constrained_solve_frobenius_ball_active():
    data = full_observation_data(4, seed=5, s_star=np.diag([2.0, 1.5, -1.0, 0.0]))
    constraint = FrobeniusBall(1.0)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.01), constraint)
    assert result.converged
    assert frobenius_norm(result.s_hat) <= 1.0 + 1e-9
    assert certify(result, data, squared_loss(), 0.01, constraint, tol=1e-5)


def test_certify_rejects_non_optimal_point():
    design, truth, data = sampled_instance(seed=54)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.05))
    fake = SolveResult(
        s_hat=result.s_hat + 0.5 * np.eye(5),
        objective_trace=result.objective_trace,
        iterations=result.iterations,
        kkt=result.kkt,
        converged=True,
    )
    assert not certify(fake, data, squared_loss(), 0.05, Unconstrained(), tol=1e-5)


def test_certify_zero_solution_under_large_epsilon():
    _, _, data = sampled_instance(seed=55)
    result = solve(data, squared_loss(), SolverConfig(epsilon=5.0))
    assert np.all(result.s_hat == 0.0)
    assert certify(result, data, squared_loss(), 5.0, tol=1e-5)


def test_exponential_loss_solve_and_certify():
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(56)
    truth = TruthModel(s_star=random_low_rank(rng, 3, 1, spectrum=[0.8]), noise=ClassificationLink())
    data = sample_dataset(design, truth, 400, seed=77)
    constraint = OperatorNormBall(2.0)
    result = solve(data, exponential_loss(), SolverConfig(epsilon=0.01), constraint)
    assert result.converged
    assert certify(result, data, exponential_loss(), 0.01, constraint, tol=1e-5)


def test_loss_overflow_raises_numerical_error():
    design = orthonormal_basis_design(2)
    data = Dataset(design=design, atom_indices=np.array([0, 1]), y=np.array([-1.0, 1.0]), seed=0)
    huge = np.diag([2000.0, -2000.0])
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            empirical_risk(huge, data, exponential_loss())
        with pytest.raises(NumericalError):
            gradient(huge, data, exponential_loss())


def test_optimality_residuals_epsilon_zero():
    _, _, data = sampled_instance(seed=57)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.0, grad_tol=1e-10))
    g = gradient(result.s_hat, data, squared_loss())
    low, excess = optimality_residuals(g, result.s_hat, 0.0)
    assert low == 0.0
    assert excess <= 1e-6


@st.composite
def residual_instance(draw):
    """Random symmetric (grad, s_hat, epsilon), s_hat of any rank 0..m."""
    m = draw(st.integers(1, 6))
    rank = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    epsilon = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    return random_symmetric(rng, m), random_low_rank(rng, m, rank), epsilon


def _residuals_close(got, expected):
    return all(
        abs(a - b) <= max(1e-10 * max(abs(a), abs(b)), 1e-12) for a, b in zip(got, expected)
    )


@settings(max_examples=150, deadline=None)
@given(residual_instance())
def test_optimality_residuals_match_support_projector_reference(instance):
    grad, s_hat, epsilon = instance
    frob = float(np.linalg.norm(s_hat))
    off_boundary = FrobeniusBall(frob + 1.0)
    for constraint in (Unconstrained(), FrobeniusBall(frob), off_boundary):
        got = optimality_residuals(grad, s_hat, epsilon, constraint)
        expected = optimality_residuals_reference(grad, s_hat, epsilon, constraint)
        assert _residuals_close(got, expected), (constraint, got, expected)
    # with no eigenvalue at +-rho the operator-norm ball removes nothing: the
    # unconstrained residuals for epsilon > 0, ||grad||_F for epsilon = 0
    loose = OperatorNormBall(operator_norm(s_hat) + 1.0)
    got = optimality_residuals(grad, s_hat, epsilon, loose)
    expected = optimality_residuals_reference(grad, s_hat, epsilon, off_boundary)
    assert _residuals_close(got, expected), (got, expected)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(epsilon=-1.0)
    with pytest.raises(ValidationError):
        SolverConfig(epsilon=0.1, max_iters=0)
    with pytest.raises(ValidationError):
        SolverConfig(epsilon=0.1, grad_tol=0.0)
