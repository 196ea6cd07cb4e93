"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The heavyweight Monte-Carlo criteria (8 and 9) run at
the stated desk scale; the whole module stays within the stated runtime
budgets on commodity hardware.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lowrank_oracle import (
    ClassificationLink,
    Dataset,
    ExperimentConfig,
    FrobeniusBall,
    GaussianNoise,
    OperatorNormBall,
    SolverConfig,
    TruthModel,
    Unconstrained,
    certify,
    compatibility_basis,
    compatibility_lower_bound,
    composite_prox,
    custom_design,
    design_moment_bounds,
    enumerate_rademacher_norm_fixed,
    estimate_rademacher_norm,
    estimate_rademacher_norm_fixed,
    exponential_loss,
    frobenius_norm,
    loss_constants,
    matrix_bernstein_bound,
    nuclear_norm,
    orthonormal_basis_design,
    q_value,
    rank_sweep,
    response_domain,
    run_oracle_trials,
    sample_dataset,
    sample_rademacher_averages,
    sign_and_support,
    solve,
    squared_loss,
)
from lowrank_oracle.cli import main as cli_main

from helpers import prox_eigenvalues_oracle, random_low_rank, random_symmetric


@contextmanager
def criterion(number: int, description: str, time_limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL  {description}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    status = "PASS"
    if time_limit is not None and elapsed > time_limit:
        print(
            f"criterion {number:02d} FAIL  {description} "
            f"(runtime {elapsed:.1f}s exceeds {time_limit:.0f}s)",
            flush=True,
        )
        pytest.fail(f"criterion {number} exceeded its {time_limit:.0f}s budget")
    print(f"criterion {number:02d} {status}  {description} [{elapsed:.1f}s]", flush=True)


def test_criterion_01_loss_constants():
    with criterion(1, "loss constants: closed forms and grid agreement", time_limit=1.0):
        for a in (0.5, 1.0, 2.5):
            constants = loss_constants(squared_loss(), a)
            assert constants.smoothness == 4.0 * a
            assert constants.curvature == 2.0
        for a in (0.5, 1.0, 2.5):
            grid = loss_constants(exponential_loss(), a, method="grid")
            assert abs(grid.smoothness - (1.0 + a * math.exp(a))) <= 1e-6 * (1.0 + a * math.exp(a))
            assert abs(grid.curvature - math.exp(-a)) <= 1e-6 * math.exp(-a)


def test_criterion_02_prox_oracle_equivalence():
    with criterion(2, "composite prox matches per-eigenvalue grid oracle", time_limit=10.0):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(100):
            lams = rng.uniform(-3.0, 3.0, size=3)
            theta = float(rng.uniform(0.0, 1.5))
            for constraint in (Unconstrained(), OperatorNormBall(1.2), FrobeniusBall(1.5)):
                got = np.sort(np.linalg.eigvalsh(composite_prox(np.diag(lams), theta, constraint)))
                want = np.sort(prox_eigenvalues_oracle(lams, theta, constraint))
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst <= 1e-5


def test_criterion_03_full_observation_spectral_threshold():
    with criterion(3, "solver equals closed-form spectral soft-threshold", time_limit=30.0):
        m = 10
        design = orthonormal_basis_design(m)
        rng = np.random.default_rng(303)
        s_star = random_low_rank(rng, m, 3)
        y = np.einsum("kij,ij->k", design.atoms, s_star) + 0.3 * rng.standard_normal(design.num_atoms)
        data = Dataset(design=design, atom_indices=np.arange(design.num_atoms), y=y, seed=0)
        assembled = np.tensordot(y, design.atoms, axes=1)
        for epsilon in (0.01, 0.1, 1.0):
            result = solve(data, squared_loss(), SolverConfig(epsilon=epsilon))
            closed = composite_prox(assembled, epsilon * design.num_atoms / 2.0, Unconstrained())
            assert result.converged
            assert frobenius_norm(result.s_hat - closed) <= 1e-4


def _certification_battery():
    """Converged solves spanning losses, constraints and regularization levels."""
    instances = []
    rng = np.random.default_rng(404)

    design6 = orthonormal_basis_design(6)
    s_star = random_low_rank(rng, 6, 2)
    y = np.einsum("kij,ij->k", design6.atoms, s_star) + 0.2 * rng.standard_normal(design6.num_atoms)
    full = Dataset(design=design6, atom_indices=np.arange(design6.num_atoms), y=y, seed=0)
    q_full = float(np.max(squared_loss().value(y, 0.0)))
    for epsilon in (0.01, 0.1):
        instances.append((full, squared_loss(), epsilon, Unconstrained(), q_full))

    design5 = orthonormal_basis_design(5)
    truth = TruthModel(s_star=random_low_rank(rng, 5, 2, spectrum=[1.0, -1.0]), noise=GaussianNoise(0.1))
    q_reg = q_value(squared_loss(), response_domain(truth, design5))
    for seed, constraint in (
        (1, Unconstrained()),
        (2, OperatorNormBall(2.0)),
        (3, FrobeniusBall(1.8)),
        (4, OperatorNormBall(0.6)),  # active constraint
    ):
        data = sample_dataset(design5, truth, 250, seed=seed)
        for epsilon in (0.02, 0.2):
            instances.append((data, squared_loss(), epsilon, constraint, q_reg))
    # large epsilon: zero solution regime
    data = sample_dataset(design5, truth, 250, seed=5)
    instances.append((data, squared_loss(), 5.0, Unconstrained(), q_reg))

    design4 = orthonormal_basis_design(4)
    truth_cls = TruthModel(s_star=random_low_rank(rng, 4, 1, spectrum=[0.7]), noise=ClassificationLink())
    data_cls = sample_dataset(design4, truth_cls, 300, seed=6)
    q_cls = q_value(exponential_loss(), response_domain(truth_cls, design4))
    instances.append((data_cls, exponential_loss(), 0.01, OperatorNormBall(2.0), q_cls))
    instances.append((data_cls, exponential_loss(), 0.05, Unconstrained(), q_cls))
    return instances


def test_criterion_04_certification_and_apriori_bound():
    with criterion(4, "every converged solve certifies; nuclear norm <= Q/epsilon"):
        checked = 0
        for data, loss, epsilon, constraint, q_bound in _certification_battery():
            result = solve(data, loss, SolverConfig(epsilon=epsilon), constraint)
            assert result.converged, "battery instance failed to converge"
            assert certify(result, data, loss, epsilon, constraint, tol=1e-5)
            assert nuclear_norm(result.s_hat) <= q_bound / epsilon + 1e-9
            checked += 1
        assert checked >= 12


def test_criterion_05_rademacher_machinery():
    with criterion(5, "conditional MC matches sign enumeration; Bernstein bound dominates", time_limit=120.0):
        rng = np.random.default_rng(505)
        design = orthonormal_basis_design(4)
        xs = design.atoms[rng.integers(0, design.num_atoms, size=12)]
        exact = enumerate_rademacher_norm_fixed(xs)
        stats = estimate_rademacher_norm_fixed(xs, reps=100_000, seed=506)
        assert abs(stats.delta - exact) / exact <= 0.01

        dominated = 0
        for k in range(100):
            m = int(rng.integers(2, 5))
            atoms = np.stack([random_symmetric(rng, m) for _ in range(int(rng.integers(2, 6)))])
            probs = rng.random(atoms.shape[0])
            probs /= probs.sum()
            probs[-1] = 1.0 - float(np.sum(probs[:-1]))
            design_k = custom_design(atoms, probs)
            n = int(rng.integers(3, 40))
            mc = estimate_rademacher_norm(design_k, n, reps=400, seed=507 + k)
            sigma, uniform = design_moment_bounds(design_k)
            if mc.delta + 3 * mc.stderr <= matrix_bernstein_bound(sigma, uniform, m, n):
                dominated += 1
        assert dominated == 100


def test_criterion_06_compatibility_closed_form():
    with criterion(6, "compatibility constant: closed form and sampled lower bound"):
        rng = np.random.default_rng(606)
        for m in (2, 4, 8):
            design = orthonormal_basis_design(m)
            exact = compatibility_basis(design)
            assert exact == math.sqrt(m * (m + 1) / 2)
            s = random_low_rank(rng, m, min(2, m), spectrum=[1.0] * min(2, m))
            lower = compatibility_lower_bound(s, design, b=5.0, num_samples=300, seed=607 + m)
            assert lower >= 0.99 * exact
            assert lower <= exact + 1e-9


def test_criterion_07_proof_fact_invariants():
    with criterion(7, "projected Rademacher averages: rank and norm facts, zero violations"):
        m = 8
        design = orthonormal_basis_design(m)
        rng = np.random.default_rng(707)
        violations = 0
        total = 0
        for block in range(100):
            s = random_low_rank(rng, m, 2)
            _, support = sign_and_support(s)
            p_perp = support.complement_projector()
            averages = sample_rademacher_averages(design, n=32, count=100, seed=708 + block)
            lows = averages - np.einsum("ij,njk,kl->nil", p_perp, averages, p_perp)
            full_norms = np.max(np.abs(np.linalg.eigvalsh(averages)), axis=-1)
            lam = np.linalg.eigvalsh(lows)
            low_ops = np.max(np.abs(lam), axis=-1)
            ranks = np.sum(np.abs(lam) > np.maximum(1e-12, 1e-9 * low_ops)[:, None], axis=-1)
            low_frob = np.linalg.norm(lows, axis=(1, 2))
            total += averages.shape[0]
            violations += int(np.sum(ranks > 4))
            violations += int(
                np.sum(low_frob > 2.0 * np.sqrt(np.maximum(ranks, 1)) * full_norms + 1e-12)
            )
        assert total == 10_000
        assert violations == 0


def _verification_config(m: int) -> ExperimentConfig:
    return ExperimentConfig(
        m=m,
        n=600,
        trials=200,
        truth_rank=2,
        truth_spectrum=(1.0, 1.0),
        noise_sigma=0.1,
        loss_name="squared",
        constraint_kind="operator-ball",
        constraint_rho=2.0,
        epsilon_rule="threshold",
        epsilon_value=1.0,
        t=3.0,
        d_thresh=4.0,
        delta_reps=1500,
        seed=808,
    )


def test_criterion_08_oracle_inequality_verification():
    with criterion(
        8,
        "oracle-bound verification at threshold regularization, stable calibrated C",
        time_limit=900.0,
    ):
        calibrated = {}
        for m in (8, 10, 12):
            records, summary = run_oracle_trials(_verification_config(m), workers=2)
            assert summary.nonconverged == 0
            target = summary.target_frequency
            tolerance = 3 * math.sqrt(target * (1 - target) / summary.converged)
            assert summary.violation_frequency <= target + tolerance
            assert np.isfinite(summary.calibrated_c)
            calibrated[m] = summary.calibrated_c
        values = np.array(sorted(calibrated.values()))
        if values[-1] > 1e-9:
            assert values[0] > 0
            assert values[-1] / values[0] <= 2.0
        # all-zero calibrations are trivially stable: the bound holds with no
        # deviation term at this scale


def test_criterion_09_rank_scaling():
    with criterion(9, "mean error grows linearly in oracle rank", time_limit=1200.0):
        config = ExperimentConfig(
            m=10,
            n=600,
            trials=200,
            truth_rank=2,
            noise_sigma=0.1,
            loss_name="squared",
            constraint_kind="operator-ball",
            constraint_rho=2.0,
            epsilon_rule="absolute",
            epsilon_value=0.02,  # below 4 / (3 d): rank term is the active branch
            t=3.0,
            delta_reps=500,
            seed=909,
        )
        result = rank_sweep(config, ranks=(1, 2, 4), workers=2)
        for rank, records in result.records.items():
            for record in records:
                assert record.rank_term <= record.nuclear_term
        errors = [row["mean_error"] for row in result.rows]
        assert errors[0] < errors[1] < errors[2]
        assert 0.6 <= result.exponent <= 1.4


def test_criterion_10_deterministic_outputs(tmp_path):
    with criterion(10, "verify runs are byte-identical at any worker count"):
        config_text = """
[design]
type = completion-basis
m = 6

[truth]
rank = 2
sigma = 0.1

[loss]
name = squared

[constraint]
variant = operator-ball
rho = 2.0

[solver]
epsilon = threshold:1.0

[bound]
t = 3.0
delta_reps = 300

[experiment]
n = 200
trials = 8
seed = 1010
"""
        config = tmp_path / "determinism.ini"
        config.write_text(config_text)
        outputs = []
        for name, workers in (("r1", "1"), ("r2", "2"), ("r3", "2")):
            out = tmp_path / name
            code = cli_main(
                ["verify", "--config", str(config), "--out", str(out), "--workers", workers]
            )
            assert code == 0
            outputs.append((out / "trials.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
