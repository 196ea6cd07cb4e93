"""Seeded Monte-Carlo experiments that stress the oracle bound's structure.

A single experiment config resolves to an immutable plan (design, truth,
loss, constraint, regularization, and every bound ingredient); trials then
run independently with per-trial seeds derived from the master seed by a
64-bit mix, so scheduling across workers cannot change any result.  Outputs
are a trials CSV with a stable column order, a summary JSON, and two-column
plot-data series; every file is written atomically, and JSON is strict, with
null for undefined statistics.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bounds import (
    ConstantsConfig,
    RademacherStats,
    compatibility_basis,
    compatibility_lower_bound,
    epsilon_threshold,
    estimate_rademacher_norm,
    oracle_bound_report,
)
from .constraints import (
    ConstraintSet,
    FrobeniusBall,
    OperatorNormBall,
    Unconstrained,
    describe,
)
from .designs import (
    ClassificationLink,
    DesignDistribution,
    GaussianNoise,
    TruthModel,
    bayes_risk_per_atom,
    custom_design,
    excess_risk,
    orthonormal_basis_design,
    prediction_bound,
    sample_dataset,
)
from .designs import response_domain
from .errors import ValidationError
from .losses import LossModel, get_loss, loss_constants, q_value
from .matrices import load_matrix, nuclear_norm, rank_at_tol, symmetrize
from .solver import SolverConfig, solve

DEFAULT_SEED = 1729  # fixed default so runs without --seed are reproducible

_MASK64 = (1 << 64) - 1
_TRUTH_TAG = (1 << 48) + 1
_DELTA_TAG = (1 << 48) + 2
_BETA_TAG = (1 << 48) + 3

COMPATIBILITY_CONE_PARAM = 5.0
COMPATIBILITY_SAMPLES = 500


def mix_seed(master: int, index: int) -> int:
    """Derive a per-trial 64-bit seed from (master, index) by splitmix-style
    mixing; documented so external tooling can reproduce single trials."""
    x = (master + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description; everything else derives from it."""

    m: int = 10
    n: int = 600
    trials: int = 200
    truth_rank: int = 2
    truth_spectrum: tuple[float, ...] = ()  # empty: unit spectrum
    noise_sigma: float = 0.1
    noise_kind: str = "regression"  # regression | classification
    loss_name: str = "squared"
    constraint_kind: str = "operator-ball"  # none | operator-ball | frobenius-ball
    constraint_rho: float = 2.0
    prediction_bound_override: float | None = None
    epsilon_rule: str = "threshold"  # threshold (multiple of it) | absolute
    epsilon_value: float = 1.0
    t: float = 3.0
    b_const: float = 2.0
    c_const: float = 1.0
    d_thresh: float = 4.0
    delta_reps: int = 2000
    max_iters: int = 50_000
    grad_tol: float | None = None
    seed: int = DEFAULT_SEED
    ranks: tuple[int, ...] = (1, 2, 4)
    eps_multiples: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    design_type: str = "completion-basis"  # completion-basis | custom
    design_files: tuple[str, ...] = ()
    design_probs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if self.m < 1 or self.n < 1:
            raise ValidationError("m and n must be at least 1")
        if not 0 <= self.truth_rank <= self.m:
            raise ValidationError("truth rank must lie in [0, m]")
        if self.truth_spectrum and len(self.truth_spectrum) != self.truth_rank:
            raise ValidationError("truth spectrum length must equal the truth rank")
        if self.noise_kind not in ("regression", "classification"):
            raise ValidationError(f"unknown noise kind {self.noise_kind!r}")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be nonnegative")
        if self.constraint_kind not in ("none", "operator-ball", "frobenius-ball"):
            raise ValidationError(f"unknown constraint kind {self.constraint_kind!r}")
        if self.epsilon_rule not in ("threshold", "absolute"):
            raise ValidationError(f"unknown epsilon rule {self.epsilon_rule!r}")
        if self.epsilon_value < 0:
            raise ValidationError("epsilon value must be nonnegative")
        if self.t < 0:
            raise ValidationError("t must be nonnegative")
        if self.delta_reps < 1:
            raise ValidationError("delta_reps must be at least 1")
        if self.design_type not in ("completion-basis", "custom"):
            raise ValidationError(f"unknown design type {self.design_type!r}")
        if self.design_type == "custom" and not self.design_files:
            raise ValidationError("custom designs need at least one matrix file")


@dataclass(frozen=True)
class TrialRecord:
    """One solved trial with its bound evaluation; reproducible bit-for-bit
    from (config, trial index).  Wall time is diagnostic only: excluded from
    equality and never persisted."""

    trial: int
    seed: int
    converged: bool
    iterations: int
    kkt_low: float
    kkt_excess: float
    estimate_nuclear: float
    estimate_rank: int
    objective: float
    lhs: float
    oracle_excess: float
    rank_term: float
    nuclear_term: float
    min_term: float
    residual_term: float
    rhs: float
    violated: bool
    critical_c: float
    wall_time: float = field(default=0.0, compare=False)


TRIAL_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.compare)

_COLUMN_TYPES = get_type_hints(TrialRecord)
_INT_COLUMNS = {name for name in TRIAL_COLUMNS if _COLUMN_TYPES[name] is int}
_BOOL_COLUMNS = {name for name in TRIAL_COLUMNS if _COLUMN_TYPES[name] is bool}


@dataclass(frozen=True)
class SummaryReport:
    """Aggregate view of one batch of oracle trials."""

    trials: int
    converged: int
    nonconverged: int
    violations: int
    violation_frequency: float
    target_frequency: float
    calibrated_c: float
    mean_error: float
    error_quantiles: dict
    zero_estimate_fraction: float  # share of converged trials with a zero estimate
    rank_term_active: int          # converged trials whose min term is the rank term
    m: int
    n: int
    truth_rank: int
    noise_sigma: float
    loss: str
    constraint: str
    a: float
    smoothness: float
    curvature: float
    q_bound: float
    beta: float
    beta_kind: str
    delta: float
    delta_stderr: float
    epsilon: float
    epsilon_threshold: float
    epsilon_rule: str
    t: float
    b_const: float
    c_const: float
    d_thresh: float
    seed: int


SUMMARY_SCHEMA: dict[str, type] = get_type_hints(SummaryReport)


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
        elif not isinstance(value, expected):
            raise ValidationError(f"summary[{key!r}] must be {expected}, got {type(value).__name__}")


# -- plan resolution -------------------------------------------------------------

@dataclass(frozen=True)
class ResolvedPlan:
    """Everything fixed across trials, precomputed once."""

    design: DesignDistribution
    truth: TruthModel
    loss: LossModel
    constraint: ConstraintSet
    epsilon: float
    epsilon_threshold: float
    a: float
    smoothness: float
    curvature: float
    q_bound: float
    beta: float
    beta_kind: str
    delta: float
    delta_stderr: float
    t: float
    constants: ConstantsConfig
    n: int
    max_iters: int
    grad_tol: float | None
    seed: int
    bayes: np.ndarray
    oracle: np.ndarray
    oracle_excess: float
    oracle_rank: int
    oracle_nuclear: float


def build_design(config: ExperimentConfig) -> DesignDistribution:
    if config.design_type == "completion-basis":
        return orthonormal_basis_design(config.m)
    atoms = np.stack([load_matrix(path) for path in config.design_files])
    if config.design_probs:
        probs = np.asarray(config.design_probs, dtype=float)
    else:
        probs = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
    return custom_design(atoms, probs)


def make_truth_matrix(
    m: int, rank: int, spectrum: tuple[float, ...], seed: int
) -> np.ndarray:
    """Rank-``rank`` symmetric truth with the given spectrum on a seeded
    random orthonormal frame; rank 0 gives the zero matrix."""
    if rank == 0:
        return np.zeros((m, m))
    eigs = np.asarray(spectrum if spectrum else [1.0] * rank, dtype=float)
    if eigs.shape[0] != rank:
        raise ValidationError("spectrum length must equal the rank")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    frame = q[:, :rank]
    return symmetrize((frame * eigs) @ frame.T)


def build_truth(config: ExperimentConfig, dim: int | None = None) -> TruthModel:
    """Truth model at the design's dimension (``config.m`` for basis designs)."""
    if dim is None:
        dim = config.m
    if config.truth_rank > dim:
        raise ValidationError("truth rank exceeds the design dimension")
    s_star = make_truth_matrix(
        dim, config.truth_rank, config.truth_spectrum, mix_seed(config.seed, _TRUTH_TAG)
    )
    if config.noise_kind == "classification":
        noise = ClassificationLink()
    else:
        noise = GaussianNoise(sigma=config.noise_sigma)
    return TruthModel(s_star=s_star, noise=noise)


def build_constraint(config: ExperimentConfig) -> ConstraintSet:
    if config.constraint_kind == "none":
        return Unconstrained()
    if config.constraint_kind == "operator-ball":
        return OperatorNormBall(rho=config.constraint_rho)
    return FrobeniusBall(rho=config.constraint_rho)


def _solver_config(settings, epsilon: float) -> SolverConfig:
    """Solver settings at ``epsilon``; ``settings`` is an experiment config
    or a plan resolved from one, both carry ``max_iters`` and ``grad_tol``."""
    return SolverConfig(
        epsilon=epsilon, max_iters=settings.max_iters, grad_tol=settings.grad_tol
    )


def rademacher_statistics(
    config: ExperimentConfig, design: DesignDistribution
) -> RademacherStats:
    """Monte Carlo estimate of Delta at the config's n, with its own seed
    stream derived from the master seed."""
    return estimate_rademacher_norm(
        design, config.n, config.delta_reps, mix_seed(config.seed, _DELTA_TAG)
    )


def _threshold_terms(
    config: ExperimentConfig,
    design: DesignDistribution,
    loss: LossModel,
    constraint: ConstraintSet,
) -> tuple:
    """(a, loss constants at a, bound constants, Rademacher statistics,
    regularization threshold)."""
    if config.prediction_bound_override is not None:
        a = config.prediction_bound_override
    else:
        a = prediction_bound(constraint, design)
    consts = loss_constants(loss, a)
    constants = ConstantsConfig(
        b_const=config.b_const, c_const=config.c_const, d_thresh=config.d_thresh
    )

    stats = rademacher_statistics(config, design)
    eps_thresh = epsilon_threshold(constants, consts.smoothness, stats.delta, config.n)
    return a, consts, constants, stats, eps_thresh


def resolve_problem(config: ExperimentConfig) -> tuple:
    """(design, truth, loss, constraint, solver config, threshold terms):
    what solving needs, with the threshold terms only when the epsilon rule
    needed them (else None).

    The threshold rule multiplies the computed threshold by
    ``epsilon_value``; the absolute rule takes the value itself and needs no
    prediction bound, so it also serves unconstrained problems without one.
    """
    design = build_design(config)
    truth = build_truth(config, dim=design.dim)
    loss = get_loss(config.loss_name)
    constraint = build_constraint(config)
    terms = None
    epsilon = config.epsilon_value
    if config.epsilon_rule == "threshold":
        terms = _threshold_terms(config, design, loss, constraint)
        epsilon *= terms[-1]
    return design, truth, loss, constraint, _solver_config(config, epsilon), terms


def _truth_fields(
    design: DesignDistribution, truth: TruthModel, loss: LossModel, seed: int
) -> dict:
    """The plan fields that depend on the truth: the truth itself, q_bound,
    beta, the per-atom Bayes risks and the oracle terms.  Everything else in
    a plan is fixed by the design, the loss and the config alone."""
    if design.is_orthonormal_basis:
        beta, beta_kind = compatibility_basis(design), "exact"
    else:
        beta = compatibility_lower_bound(
            truth.s_star,
            design,
            COMPATIBILITY_CONE_PARAM,
            COMPATIBILITY_SAMPLES,
            mix_seed(seed, _BETA_TAG),
        )
        beta_kind = "sampled-lower-bound"
    bayes = bayes_risk_per_atom(design, truth, loss)
    return dict(
        truth=truth,
        q_bound=q_value(loss, response_domain(truth, design)),
        beta=beta,
        beta_kind=beta_kind,
        bayes=bayes,
        oracle=truth.s_star,
        oracle_excess=excess_risk(truth.s_star, design, truth, loss, bayes=bayes),
        oracle_rank=rank_at_tol(truth.s_star),
        oracle_nuclear=nuclear_norm(truth.s_star),
    )


def resolve_plan(config: ExperimentConfig) -> ResolvedPlan:
    """Fix every trial-independent quantity of the experiment."""
    design, truth, loss, constraint, solver_config, terms = resolve_problem(config)
    a, consts, constants, stats, eps_thresh = terms or _threshold_terms(
        config, design, loss, constraint
    )
    return ResolvedPlan(
        design=design,
        loss=loss,
        constraint=constraint,
        epsilon=solver_config.epsilon,
        epsilon_threshold=eps_thresh,
        a=a,
        smoothness=consts.smoothness,
        curvature=consts.curvature,
        delta=stats.delta,
        delta_stderr=stats.stderr,
        t=config.t,
        constants=constants,
        n=config.n,
        max_iters=config.max_iters,
        grad_tol=config.grad_tol,
        seed=config.seed,
        **_truth_fields(design, truth, loss, config.seed),
    )


def _run_trial(plan: ResolvedPlan, index: int) -> TrialRecord:
    start = time.perf_counter()
    seed = mix_seed(plan.seed, index)
    data = sample_dataset(plan.design, plan.truth, plan.n, seed)
    result = solve(data, plan.loss, _solver_config(plan, plan.epsilon), plan.constraint)
    lhs = excess_risk(result.s_hat, plan.design, plan.truth, plan.loss, bayes=plan.bayes)
    report = oracle_bound_report(
        plan.oracle,
        lhs,
        plan.design,
        plan.truth,
        plan.loss,
        plan.epsilon,
        plan.t,
        plan.constants,
        plan.a,
        plan.n,
        beta=plan.beta,
        oracle_excess=plan.oracle_excess,
        oracle_rank=plan.oracle_rank,
        oracle_nuclear=plan.oracle_nuclear,
        smoothness=plan.smoothness,
        curvature=plan.curvature,
        q_bound=plan.q_bound,
    )
    return TrialRecord(
        trial=index,
        seed=seed,
        converged=result.converged,
        iterations=result.iterations,
        kkt_low=result.kkt[0],
        kkt_excess=result.kkt[1],
        estimate_nuclear=nuclear_norm(result.s_hat),
        estimate_rank=rank_at_tol(result.s_hat),
        objective=float(result.objective_trace[-1]),
        lhs=report.lhs,
        oracle_excess=report.oracle_excess,
        rank_term=report.rank_term,
        nuclear_term=report.nuclear_term,
        min_term=report.min_term,
        residual_term=report.residual_term,
        rhs=report.rhs,
        violated=report.violated,
        critical_c=report.critical_c,
        wall_time=time.perf_counter() - start,
    )


def resolve_workers(workers: int | None) -> int:
    if workers is not None:
        if workers < 1:
            raise ValidationError("workers must be at least 1")
        return workers
    env = os.environ.get("LOWRANK_ORACLE_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(
                f"LOWRANK_ORACLE_WORKERS must be an integer, got {env!r}"
            ) from None
        if value < 1:
            raise ValidationError("LOWRANK_ORACLE_WORKERS must be at least 1")
        return value
    return os.cpu_count() or 1


def run_trials(
    plan: ResolvedPlan, trials: int, workers: int | None = None, log=None
) -> list[TrialRecord]:
    """Run independent trials; the collector orders records by trial index,
    so the result is identical at any worker count."""
    workers = resolve_workers(workers)
    records: list[TrialRecord | None] = [None] * trials
    if workers <= 1 or trials <= 1:
        for i in range(trials):
            records[i] = _run_trial(plan, i)
            if log:
                log(f"trial {i + 1}/{trials} done")
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_trial, plan, i): i for i in range(trials)}
            done = 0
            for future in as_completed(futures):
                records[futures[future]] = future.result()
                done += 1
                if log:
                    log(f"trial {done}/{trials} done")
    return [r for r in records if r is not None]


def calibrate_constant(criticals: list[float], target_frequency: float) -> float:
    """Smallest leading constant making the empirical violation frequency of
    the bound at most the target; exact order-statistic computation."""
    if not criticals:
        return 0.0
    values = np.sort(np.asarray(criticals, dtype=float))
    allowed = int(math.floor(target_frequency * values.shape[0]))
    idx = values.shape[0] - allowed - 1
    if idx < 0:
        return 0.0
    return max(0.0, float(values[idx]))


def summarize(
    records: list[TrialRecord], plan: ResolvedPlan, config: ExperimentConfig
) -> SummaryReport:
    converged = [r for r in records if r.converged]
    violations = sum(1 for r in converged if r.violated)
    zeros = sum(r.estimate_rank == 0 for r in converged)
    target = math.exp(-plan.t)
    errors = np.array([r.lhs - r.oracle_excess for r in converged])
    if errors.size:
        quantiles = {
            "q50": float(np.quantile(errors, 0.5)),
            "q90": float(np.quantile(errors, 0.9)),
            "q99": float(np.quantile(errors, 0.99)),
            "min": float(np.min(errors)),
            "max": float(np.max(errors)),
        }
        mean_error = float(np.mean(errors))
    else:
        quantiles = {k: float("nan") for k in ("q50", "q90", "q99", "min", "max")}
        mean_error = float("nan")
    return SummaryReport(
        trials=len(records),
        converged=len(converged),
        nonconverged=len(records) - len(converged),
        violations=violations,
        violation_frequency=violations / len(converged) if converged else 0.0,
        target_frequency=target,
        calibrated_c=calibrate_constant([r.critical_c for r in converged], target),
        mean_error=mean_error,
        error_quantiles=quantiles,
        zero_estimate_fraction=zeros / len(converged) if converged else float("nan"),
        rank_term_active=sum(r.min_term == r.rank_term for r in converged),
        m=plan.design.dim,
        n=config.n,
        truth_rank=config.truth_rank,
        noise_sigma=config.noise_sigma,
        loss=config.loss_name,
        constraint=describe(plan.constraint),
        a=plan.a,
        smoothness=plan.smoothness,
        curvature=plan.curvature,
        q_bound=plan.q_bound,
        beta=plan.beta,
        beta_kind=plan.beta_kind,
        delta=plan.delta,
        delta_stderr=plan.delta_stderr,
        epsilon=plan.epsilon,
        epsilon_threshold=plan.epsilon_threshold,
        epsilon_rule=config.epsilon_rule,
        t=plan.t,
        b_const=config.b_const,
        c_const=config.c_const,
        d_thresh=config.d_thresh,
        seed=config.seed,
    )


def run_oracle_trials(
    config: ExperimentConfig, workers: int | None = None, log=None
) -> tuple[list[TrialRecord], SummaryReport]:
    """Solve ``config.trials`` independent datasets and evaluate the bound
    with the ground truth as oracle."""
    plan = resolve_plan(config)
    records = run_trials(plan, config.trials, workers=workers, log=log)
    return records, summarize(records, plan, config)


# -- sweeps ----------------------------------------------------------------------

@dataclass(frozen=True)
class RankSweepResult:
    rows: tuple[dict, ...]
    exponent: float       # log-log least-squares slope of mean error vs rank
    linear_slope: float   # plain least-squares slope of mean error vs rank
    records: dict


def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    mask = (xs > 0) & (ys > 0)
    if int(np.sum(mask)) < 2:
        return float("nan")
    lx, ly = np.log(xs[mask]), np.log(ys[mask])
    return float(np.polyfit(lx, ly, 1)[0])


def rank_sweep(
    config: ExperimentConfig,
    ranks: tuple[int, ...] | None = None,
    workers: int | None = None,
    log=None,
) -> RankSweepResult:
    """Repeat the oracle experiment with unit-spectrum truths of varying
    rank at one fixed regularization level.

    One plan is resolved; each rank swaps in only its truth and the fields
    that depend on it, and the truths share one eigenframe, so they nest.
    """
    ranks = tuple(ranks if ranks is not None else config.ranks)
    if not ranks:
        raise ValidationError("rank sweep needs at least one rank")
    plan = resolve_plan(config)
    rows = []
    records_by_rank: dict[int, list[TrialRecord]] = {}
    for rank in ranks:
        truth = build_truth(
            replace(config, truth_rank=rank, truth_spectrum=()), dim=plan.design.dim
        )
        point = replace(plan, **_truth_fields(plan.design, truth, plan.loss, plan.seed))
        records = run_trials(point, config.trials, workers=workers, log=log)
        summary = summarize(records, point, config)
        records_by_rank[rank] = records
        stderr = float("nan")
        errors = [r.lhs - r.oracle_excess for r in records if r.converged]
        if len(errors) > 1:
            stderr = float(np.std(errors, ddof=1) / np.sqrt(len(errors)))
        rows.append(
            {
                "rank": rank,
                "epsilon": plan.epsilon,
                "trials": summary.trials,
                "converged": summary.converged,
                "mean_error": summary.mean_error,
                "stderr": stderr,
                "violation_frequency": summary.violation_frequency,
                "calibrated_c": summary.calibrated_c,
            }
        )
    xs = np.array([row["rank"] for row in rows], dtype=float)
    ys = np.array([row["mean_error"] for row in rows], dtype=float)
    finite = np.isfinite(ys)
    linear = float("nan")
    if int(np.sum(finite)) >= 2:
        linear = float(np.polyfit(xs[finite], ys[finite], 1)[0])
    return RankSweepResult(
        rows=tuple(rows),
        exponent=_loglog_slope(xs[finite], ys[finite]),
        linear_slope=linear,
        records=records_by_rank,
    )


def epsilon_sweep(
    config: ExperimentConfig,
    multiples: tuple[float, ...] | None = None,
    workers: int | None = None,
    log=None,
) -> tuple[dict, ...]:
    """Repeat the oracle experiment at multiples of the resolved
    regularization level; one plan is resolved and only its epsilon changes
    from point to point."""
    multiples = tuple(multiples if multiples is not None else config.eps_multiples)
    if not multiples:
        raise ValidationError("epsilon sweep needs at least one multiple")
    plan = resolve_plan(config)
    rows = []
    for multiple in multiples:
        point = replace(plan, epsilon=multiple * plan.epsilon)
        records = run_trials(point, config.trials, workers=workers, log=log)
        summary = summarize(records, point, config)
        rows.append(
            {
                "multiple": multiple,
                "epsilon": point.epsilon,
                "mean_error": summary.mean_error,
                "violation_frequency": summary.violation_frequency,
                "calibrated_c": summary.calibrated_c,
            }
        )
    return tuple(rows)


@dataclass(frozen=True)
class SharpnessResult:
    rows: tuple[dict, ...]
    headline_gap: float  # max over oracles and trials of lhs - rhs
    records: list


def sharpness_experiment(
    config: ExperimentConfig,
    oracle_set: list,
    workers: int | None = None,
    log=None,
) -> SharpnessResult:
    """Evaluate the bound against a caller-supplied family of oracles.

    Trials are solved once; each oracle (possibly misspecified, with large
    excess risk) then gets its own bound evaluation.  Entries of
    ``oracle_set`` are matrices or (label, matrix) pairs.
    """
    plan = resolve_plan(config)
    records = run_trials(plan, config.trials, workers=workers, log=log)
    converged = [r for r in records if r.converged]
    rows = []
    headline = -math.inf
    for item in oracle_set:
        if isinstance(item, tuple):
            label, oracle = item
        else:
            label, oracle = f"oracle-{len(rows)}", item
        reference = oracle_bound_report(
            oracle,
            0.0,
            plan.design,
            plan.truth,
            plan.loss,
            plan.epsilon,
            plan.t,
            plan.constants,
            plan.a,
            plan.n,
            beta=plan.beta,
            smoothness=plan.smoothness,
            curvature=plan.curvature,
            q_bound=plan.q_bound,
        )
        gaps = np.array([r.lhs - reference.rhs for r in converged])
        violations = int(np.sum(gaps > 0)) if gaps.size else 0
        row = {
            "label": label,
            "oracle_excess": reference.oracle_excess,
            "oracle_rank": reference.oracle_rank,
            "min_term": reference.min_term,
            "residual_term": reference.residual_term,
            "mean_error": float(np.mean([r.lhs for r in converged])) - reference.oracle_excess
            if converged
            else float("nan"),
            "max_gap": float(np.max(gaps)) if gaps.size else float("nan"),
            "mean_gap": float(np.mean(gaps)) if gaps.size else float("nan"),
            "violation_frequency": violations / len(converged) if converged else 0.0,
        }
        rows.append(row)
        if gaps.size:
            headline = max(headline, row["max_gap"])
    return SharpnessResult(rows=tuple(rows), headline_gap=headline, records=records)


# -- persistence -------------------------------------------------------------------

def _format_cell(column: str, value) -> str:
    if column in _BOOL_COLUMNS:
        return "1" if value else "0"
    if column in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


@contextmanager
def atomic_path(path):
    """Yield a temporary path next to ``path`` that replaces ``path`` when
    the block completes; on an error the temporary file is removed and any
    earlier ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _null_nonfinite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _null_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(item) for item in value]
    return value


def write_json(path, payload) -> Path:
    """Strict JSON with sorted keys; non-finite floats are written as null."""
    text = json.dumps(_null_nonfinite(payload), indent=2, sort_keys=True, allow_nan=False)
    with atomic_path(path) as tmp:
        tmp.write_text(text + "\n", encoding="utf-8")
    return Path(path)


def write_series(path, points) -> Path:
    """Plot data: one whitespace-separated ``x y`` line per point."""
    with atomic_path(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            for x, y in points:
                fh.write(f"{repr(float(x))} {repr(float(y))}\n")
    return Path(path)


def write_outputs(
    records: list[TrialRecord],
    summary,
    out_dir,
    extra_series: dict | None = None,
) -> dict[str, Path]:
    """Persist trials.csv, summary.json and plot-data series.

    The CSV has the stable column order ``TRIAL_COLUMNS`` and round-trips
    losslessly through :func:`read_trials_csv`.  ``summary`` is a
    :class:`SummaryReport` or a plain dict.  ``extra_series`` maps a series
    name (file stem) to a list of (x, y) pairs written by
    :func:`write_series`.
    """
    out = Path(out_dir)
    paths: dict[str, Path] = {"trials": out / "trials.csv"}
    with atomic_path(paths["trials"]) as tmp:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRIAL_COLUMNS)
            for record in records:
                writer.writerow(
                    [_format_cell(col, getattr(record, col)) for col in TRIAL_COLUMNS]
                )

    summary_dict = asdict(summary) if is_dataclass(summary) else dict(summary)
    paths["summary"] = write_json(out / "summary.json", summary_dict)

    series = {"violation_vs_c": _violation_series(records)}
    if extra_series:
        series.update(extra_series)
    for name, points in series.items():
        paths[name] = write_series(out / f"{name}.dat", points)
    return paths


def _violation_series(records: list[TrialRecord]) -> list[tuple[float, float]]:
    criticals = np.array([r.critical_c for r in records if r.converged])
    if criticals.size == 0:
        return []
    finite = criticals[np.isfinite(criticals)]
    upper = max(1.0, float(np.max(finite)) * 1.25) if finite.size else 1.0
    grid = np.linspace(0.0, upper, 101)
    return [(float(c), float(np.mean(criticals > c))) for c in grid]


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
