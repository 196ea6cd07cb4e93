import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    Dataset,
    ExperimentConfig,
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
    custom_design,
    empirical_risk,
    exponential_loss,
    frobenius_norm,
    gradient,
    mix_seed,
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
from lowrank_oracle import matrices as matrices_module
from lowrank_oracle import solver as solver_module
from lowrank_oracle.harness import resolve_problem
from lowrank_oracle.matrices import inner, symmetrize

from helpers import (
    directional_derivative,
    empirical_risk_reference,
    gradient_reference,
    least_squares_oracle,
    log_cosh_loss,
    optimality_residuals_reference,
    prox_eigenvalues_oracle,
    random_low_rank,
    random_symmetric,
    solve_reference,
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


def labels_data() -> Dataset:
    design = orthonormal_basis_design(3)
    rng = np.random.default_rng(56)
    truth = TruthModel(s_star=random_low_rank(rng, 3, 1, spectrum=[0.8]), noise=ClassificationLink())
    return sample_dataset(design, truth, 400, seed=77)


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
    # per iteration one fused law pass (risk and d1 rows) at z; per prox one
    # eigh and no eigvalsh; no validate_symmetric call anywhere in the loop.
    # The phase turns to "certificate" when the final residuals start, after
    # the final gradient
    _, _, data = sampled_instance(seed=48)
    phase = ["loop"]
    calls = {}

    def counting(name, fn):
        def counted(*args, **kwargs):
            key = (phase[0], name)
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    for name in ("_law_pass", "_prox"):
        monkeypatch.setattr(solver_module, name, counting(name, getattr(solver_module, name)))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    for module in (solver_module, matrices_module):
        monkeypatch.setattr(module, "validate_symmetric",
                            counting("validate", module.validate_symmetric))
    residuals = solver_module._residuals

    def certificate(*args):
        phase[0] = "certificate"
        return residuals(*args)

    monkeypatch.setattr(solver_module, "_residuals", certificate)
    result = solve(data, squared_loss(), SolverConfig(epsilon=0.05))
    assert result.converged and result.backtracks > 0
    proxes = result.iterations + result.backtracks
    assert calls == {
        ("loop", "_law_pass"): result.iterations,
        ("loop", "_prox"): proxes,
        ("loop", "eigh"): proxes,
        ("certificate", "eigh"): 1,
        ("certificate", "eigvalsh"): 1,
    }


@st.composite
def solve_instance(draw):
    """A small problem on the basis design or on a custom one: a random
    orthogonal mix of the basis atoms, dense and orthonormal, with random
    probabilities of at least 1/(2K).  Every atom is sampled at least once,
    so the risk is strictly convex and well conditioned and the minimizer
    unique.  (On random non-orthogonal atoms both loops can stall in
    backtracks that fail by rounding, and which one stalls depends on the
    rounding.)  Squared-loss or log-cosh regression, or exponential-loss
    labels; one of the three constraint sets."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = orthonormal_basis_design(m)
    k = design.num_atoms
    if draw(st.booleans()):
        mix, _ = np.linalg.qr(rng.standard_normal((k, k)))
        atoms = np.tensordot(mix, design.atoms, axes=1)
        atoms = 0.5 * (atoms + atoms.transpose(0, 2, 1))
        design = custom_design(atoms, 0.5 / k + 0.5 * rng.dirichlet(np.ones(k)))
    idx = np.concatenate([np.arange(k), rng.choice(k, size=draw(st.integers(0, 150)), p=design.probs)])
    loss_name = draw(st.sampled_from(["squared", "exponential", "log-cosh"]))
    if loss_name == "exponential":
        y = rng.choice([-1.0, 1.0], size=idx.size)
    else:
        y = design.forward(random_low_rank(rng, m, 1))[idx] + 0.1 * rng.standard_normal(idx.size)
    loss = {"squared": squared_loss, "exponential": exponential_loss, "log-cosh": log_cosh_loss}[loss_name]()
    constraint = draw(st.sampled_from([Unconstrained(), OperatorNormBall(1.0), FrobeniusBall(1.0)]))
    epsilon = draw(st.sampled_from([0.01, 0.05, 0.2]))
    data = Dataset(design=design, atom_indices=idx, y=y, seed=None)
    # a stopping tolerance above the default 1e-8, which needs risk decreases
    # near the rounding of a risk near 1 (exponential loss near 0): there the
    # exact smoothness test fails by rounding, backtracking can underflow, and
    # which loop does so depends on the rounding
    config = SolverConfig(epsilon=epsilon, max_iters=5000, grad_tol=1e-6)
    return data, loss, config, constraint


@settings(max_examples=60, deadline=None)
@given(solve_instance())
def test_solve_matches_reference_loop(instance):
    # the kernels' loop against the loop on validated public functions; both
    # take the objective's nuclear norm from the prox's eigenvalues, and the
    # estimates must agree to the stopping tolerance
    data, loss, config, constraint = instance
    result = solve(data, loss, config, constraint)
    expected = solve_reference(data, loss, config, constraint)
    assert result.converged == expected.converged
    scale = max(1.0, float(np.linalg.norm(expected.s_hat)))
    assert np.linalg.norm(result.s_hat - expected.s_hat) <= 1e-6 * scale
    obj, obj_ref = result.objective_trace[-1], expected.objective_trace[-1]
    assert abs(obj - obj_ref) <= 1e-9 * abs(obj_ref)


@pytest.mark.parametrize(
    "make_data, constraint, loss",
    [(lambda: sampled_instance(seed=48)[2], Unconstrained(), squared_loss()),
     (lambda: sampled_instance(seed=49)[2], OperatorNormBall(1.0), squared_loss()),
     (lambda: sampled_instance(seed=40)[2], FrobeniusBall(1.5), squared_loss()),
     (lambda: sampled_instance(seed=11)[2], FrobeniusBall(1.5), log_cosh_loss()),
     (labels_data, OperatorNormBall(2.0), exponential_loss())],
    ids=["squared", "operator-ball", "frobenius-ball", "log-cosh", "labels"],
)
def test_solve_counts_match_reference_loop(make_data, constraint, loss):
    data = make_data()
    config = SolverConfig(epsilon=0.01)
    result = solve(data, loss, config, constraint)
    expected = solve_reference(data, loss, config, constraint)
    assert (result.iterations, result.backtracks, result.restarts) == (
        expected.iterations, expected.backtracks, expected.restarts
    )
    assert result.restarts > 0 and result.backtracks > 0


@st.composite
def curvature_instance(draw):
    """A sample on the basis design at m or on its atoms mixed by a random
    matrix (orthogonal or not), with the response law of squared-loss or
    log-cosh regression or of exponential-loss labels."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = orthonormal_basis_design(m)
    k = design.num_atoms
    mixing = draw(st.sampled_from([None, "orthogonal", "gaussian"]))
    if mixing is not None:
        mix = rng.standard_normal((k, k))
        if mixing == "orthogonal":
            mix, _ = np.linalg.qr(mix)
        design = custom_design(np.tensordot(mix, design.atoms, axes=1), rng.dirichlet(np.ones(k)))
    idx = rng.choice(k, size=draw(st.integers(1, 120)), p=design.probs)
    loss_name = draw(st.sampled_from(["squared", "exponential", "log-cosh"]))
    if loss_name == "exponential":
        y = rng.choice([-1.0, 1.0], size=idx.size)
    else:
        y = 2.0 * rng.standard_normal(idx.size)
    loss = {"squared": squared_loss, "exponential": exponential_loss, "log-cosh": log_cosh_loss}[loss_name]()
    return Dataset(design=design, atom_indices=idx, y=y, seed=None), loss, mixing


@settings(max_examples=60, deadline=None)
@given(curvature_instance())
def test_initial_step_is_the_inverse_curvature_at_zero(instance):
    # 1/step is the top eigenvalue of the dense Hessian of the risk at zero,
    # sum_r w_r d2(y_r; 0) vec(X_k_r) vec(X_k_r)^T, on the orthonormal basis
    # design; on mixed atoms each atom's own curvature a_k ||X_k||_F^2 only
    # bounds that eigenvalue from below
    data, loss, mixing = instance
    law = data.response_law(loss)
    vecs = data.design.atoms[law.atoms].reshape(law.atoms.size, -1)
    curvature = law.w * np.asarray(loss.d2(law.y, np.zeros(law.y.shape)), dtype=float)
    top = float(np.linalg.eigvalsh((vecs.T * curvature) @ vecs)[-1])
    inverse_step = 1.0 / solver_module._initial_step(data.design, law, loss)
    if mixing is None:
        assert abs(inverse_step - top) <= 1e-12 * top
    else:
        assert inverse_step <= top * (1.0 + 1e-12)


def test_completion_trial_starts_at_the_curvature():
    # one trial at the settings of the completion-m40-r2 benchmark workload:
    # from a first step of about 1/270 instead of 1/2 it takes 12 iterations,
    # not the 40 it took to grow the step
    config = ExperimentConfig(
        m=40, n=32_000, trials=1, truth_spectrum=(1.0, 1.0), constraint_rho=2.0,
        epsilon_rule="absolute", epsilon_value=0.001,
    )
    design, truth, loss, constraint, solver_config, _ = resolve_problem(config)
    data = sample_dataset(design, truth, config.n, mix_seed(config.seed, 0))
    result = solve(data, loss, solver_config, constraint)
    assert result.converged
    assert result.iterations <= 20


_BAD_MATRICES = {
    "asymmetric": np.arange(16.0).reshape(4, 4),
    "non-finite": np.diag([1.0, np.nan, 0.0, 0.0]),
}


@pytest.mark.parametrize("bad", _BAD_MATRICES.values(), ids=_BAD_MATRICES.keys())
@pytest.mark.parametrize(
    "call",
    [
        lambda bad, data: gradient(bad, data, squared_loss()),
        lambda bad, data: empirical_risk(bad, data, squared_loss()),
        lambda bad, data: objective(bad, data, squared_loss(), 0.1),
        lambda bad, data: composite_prox(bad, 0.1, Unconstrained()),
        lambda bad, data: optimality_residuals(bad, np.eye(4), 0.1),
        lambda bad, data: optimality_residuals(np.eye(4), bad, 0.1),
        lambda bad, data: certify(bad, data, squared_loss(), 0.1),
    ],
    ids=["gradient", "empirical_risk", "objective", "composite_prox",
         "optimality_residuals-grad", "optimality_residuals-s_hat", "certify"],
)
def test_public_solver_entries_reject_bad_matrices(call, bad):
    # the loop skips validation, so every public entry must keep it
    _, _, data = sampled_instance(m=4, seed=3)
    with pytest.raises(ValidationError):
        call(bad, data)


@pytest.mark.parametrize(
    "seed, epsilon, constraint",
    [(48, 0.01, Unconstrained()), (199, 0.1, Unconstrained()), (40, 0.01, FrobeniusBall(1.5))],
    ids=["restart", "step-growth-after-restart", "frob-ball-accepts-step-from-x"],
)
def test_restarted_solve_converges_monotone_and_certified(seed, epsilon, constraint):
    # seed 199 runs out of iterations if the step does not re-grow after a
    # restart; seed 40 does if a step from x itself can be rejected
    _, _, data = sampled_instance(seed=seed)
    result = solve(data, squared_loss(), SolverConfig(epsilon=epsilon), constraint)
    trace = result.objective_trace
    assert len(trace) == result.iterations + 1
    assert np.any(np.diff(trace) == 0.0)  # a restart repeats the objective
    assert result.converged
    assert np.all(np.diff(trace) <= 1e-12 * (1 + np.abs(trace[:-1])))
    assert certify(result, data, squared_loss(), epsilon, constraint, tol=1e-5)


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
    data = labels_data()
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
    # the per-sample references overflow too, and so do both paths of the
    # squared loss, whose d1 overflows only past 9e307
    squared_data = Dataset(design=design, atom_indices=np.array([0, 1]), y=np.array([0.5, -0.3]), seed=0)
    cases = ((data, huge, exponential_loss()), (squared_data, np.diag([1e308, -1e308]), squared_loss()))
    for data, s, loss in cases:
        for fn in (empirical_risk_reference, gradient_reference, empirical_risk, gradient):
            with np.errstate(over="ignore"), pytest.raises(NumericalError):
                fn(s, data, loss)


@st.composite
def law_instance(draw):
    """A dataset that may leave atoms unsampled, one of five (loss, response)
    kinds, in sampled order or grouped by atom and then response so that
    equal samples form runs, and a point S: near the matrix that generated
    the responses, so that squared residuals are small next to large
    responses, or away from it."""
    loss_name, labels = draw(st.sampled_from([
        ("squared", False), ("squared", True), ("exponential", True),
        ("log-cosh", False), ("log-cosh", True),
    ]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 80))
    scale = draw(st.sampled_from([1.0, 100.0]))
    near = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = orthonormal_basis_design(m)
    sampled = rng.choice(design.num_atoms, size=rng.integers(1, design.num_atoms + 1), replace=False)
    idx = rng.choice(sampled, size=n)
    s0 = scale * random_symmetric(rng, m)
    if labels:
        y = rng.choice([-1.0, 1.0], size=n)
    else:
        y = design.forward(s0)[idx] + 0.1 * rng.standard_normal(n)
    if draw(st.booleans()):
        order = np.lexsort((y, idx))
        idx, y = idx[order], y[order]
    s = s0 + (0.01 if near else 1.0) * random_symmetric(rng, m)
    loss = {"squared": squared_loss, "exponential": exponential_loss, "log-cosh": log_cosh_loss}[loss_name]()
    return Dataset(design=design, atom_indices=idx, y=y, seed=None), loss, s


def _evaluate(fn, *args):
    with np.errstate(over="ignore"):
        try:
            return fn(*args)
        except NumericalError:
            return None


@settings(max_examples=300, deadline=None)
@given(law_instance())
def test_empirical_law_matches_per_sample_reference(instance):
    data, loss, s = instance
    k = data.design.num_atoms
    sums = np.bincount(data.atom_indices, weights=data.y, minlength=k)
    abs_sums = np.bincount(data.atom_indices, weights=np.abs(data.y), minlength=k)
    assert np.all(np.abs(data.response_sums - sums) <= 1e-12 * abs_sums)
    risk = _evaluate(empirical_risk, s, data, loss)
    expected = _evaluate(empirical_risk_reference, s, data, loss)
    assert (risk is None) == (expected is None)  # overflow on both paths or neither
    if expected is not None:
        assert abs(risk - expected) <= 1e-12 * expected  # every loss here is nonnegative
    grad = _evaluate(gradient, s, data, loss)
    expected = _evaluate(gradient_reference, s, data, loss)
    assert (grad is None) == (expected is None)
    if expected is not None:
        # relative to the gradient's scale before per-atom terms cancel; both
        # norms are taken of vectors divided by that scale's largest entry,
        # so that squaring exponential-loss derivatives does not overflow
        d1 = np.abs(loss.d1(data.y, data.design.forward(s)[data.atom_indices])) / data.n
        scale = data.design.adjoint(np.bincount(data.atom_indices, weights=d1, minlength=k))
        top = max(float(np.max(np.abs(scale))), np.finfo(float).tiny)
        assert np.linalg.norm((grad - expected) / top) <= 1e-12 * np.linalg.norm(scale / top)


def test_empirical_law_keeps_the_rounding_of_large_response_means():
    # the mean of these responses is not a double, and its rounding is
    # 1e-10 of the residuals; the law rows must carry it, not cancel to it
    design = orthonormal_basis_design(1)
    y = np.array([242.42505667, 242.42497208])
    data = Dataset(design=design, atom_indices=np.array([0, 0]), y=y, seed=None)
    s = np.array([[242.42499636]])
    loss = squared_loss()
    risk, expected = empirical_risk(s, data, loss), empirical_risk_reference(s, data, loss)
    assert abs(risk - expected) <= 1e-12 * expected
    grad, expected = gradient(s, data, loss), gradient_reference(s, data, loss)
    assert abs(grad[0, 0] - expected[0, 0]) <= 1e-12 * 2.0 * np.mean(np.abs(y - s[0, 0]))


def test_empirical_law_rows():
    design = orthonormal_basis_design(2)
    idx = np.array([0, 0, 0, 2, 2])
    data = Dataset(design=design, atom_indices=idx, y=np.array([1.0, 2.0, 6.0, 0.5, 0.5]), seed=None)
    law = data.response_law(squared_loss())
    assert law.atoms.tolist() == [0, 2] and law.y.tolist() == [3.0, 0.5]
    assert law.w.tolist() == [0.6, 0.4] and law.const == 14.0 / 5
    assert law.d1_remainder.tolist() == [0.0, 0.0]  # both means are doubles
    # an atom in two runs apart gets one row, at the mean of both runs
    apart = Dataset(design=design, atom_indices=np.array([0, 2, 0]), y=np.array([1.0, 0.5, 3.0]), seed=None)
    assert apart.response_sums.tolist() == [4.0, 0.0, 0.5]
    law = apart.response_law(squared_loss())
    assert law.atoms.tolist() == [0, 2] and law.y.tolist() == [2.0, 0.5]
    assert law.w.tolist() == [2 / 3, 1 / 3] and law.const == 2 / 3
    assert law.d1_remainder.tolist() == [0.0, 0.0]
    # any other loss: one row per run of equal consecutive (atom, y) samples
    law = data.response_law(log_cosh_loss())
    assert law.atoms.tolist() == [0, 0, 0, 2] and law.y.tolist() == [1.0, 2.0, 6.0, 0.5]
    assert law.w.tolist() == [0.2, 0.2, 0.2, 0.4] and law.const == 0.0
    assert law.d1_remainder is None
    # equal samples apart stay apart, and so do equal responses of two atoms
    labels = Dataset(
        design=design, atom_indices=np.array([1, 1, 1, 0, 0, 1]),
        y=np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0]), seed=None,
    )
    law = labels.response_law(exponential_loss())
    assert law.atoms.tolist() == [1, 1, 0, 1] and law.y.tolist() == [1.0, -1.0, -1.0, 1.0]
    assert law.w.tolist() == [2 / 6, 1 / 6, 2 / 6, 1 / 6]
    assert data.response_law(squared_loss()) is data.response_law(squared_loss())


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
    # an active operator-norm ball: s_hat's eigenvectors, its bottom and top
    # max(1, m // 3) eigenvalues moved to -rho and +rho, the rest kept inside
    m = len(s_hat)
    if m >= 2:
        lam, phi = np.linalg.eigh(s_hat)
        rho, k = loose.rho, max(1, m // 3)
        lam[:k], lam[-k:] = -rho, rho
        s_active = symmetrize((phi * lam) @ phi.T)
        got = optimality_residuals(grad, s_active, epsilon, loose)
        expected = optimality_residuals_reference(grad, s_active, epsilon, loose)
        assert _residuals_close(got, expected), (got, expected)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(epsilon=-1.0)
    with pytest.raises(ValidationError):
        SolverConfig(epsilon=0.1, max_iters=0)
    with pytest.raises(ValidationError):
        SolverConfig(epsilon=0.1, grad_tol=0.0)
