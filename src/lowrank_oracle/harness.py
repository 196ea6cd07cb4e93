"""Seeded Monte-Carlo experiments that stress the oracle bound's structure.

A single experiment config resolves to an immutable plan (design, truth,
loss, constraint, regularization, and every bound ingredient); trials then
run independently with per-trial seeds derived from the master seed by a
64-bit mix, so scheduling across workers cannot change any result.  Outputs
are a trials CSV with a stable column order, a summary JSON, and two-column
plot-data series; every file is written atomically, and JSON is strict, with
null for undefined statistics.

The summary also bounds the same trials again at each member of the truth's
oracle family: S* and its spectral truncations, whose terms the plan
resolves once.  The bound's approximation error enters with constant one,
so a truncation's large excess risk must not push any trial over its bound.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bounds import (
    DELTA_RTOL,
    BoundReport,
    RademacherStats,
    compatibility_basis,
    compatibility_lower_bound,
    epsilon_threshold,
    estimate_rademacher_norm,
    oracle_bound_report,
)
from .constraints import (
    BOUNDARY_TOL,
    ConstraintSet,
    FrobeniusBall,
    OperatorNormBall,
    Unconstrained,
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
    response_domain,
    sample_dataset,
)
from .errors import ValidationError
from .losses import FiniteSet, LossModel, ResponseDomain, get_loss, loss_constants, q_value
from .matrices import best_rank_approximation, load_matrix, nuclear_norm_and_rank, symmetrize
from .solver import SolverConfig, solve

DEFAULT_SEED = 1729  # fixed default so runs without --seed are reproducible

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1
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


def _ini(section: str, key: str, default):
    """A setting read from ``[section] key`` of the INI config."""
    return field(default=default, metadata={"ini": (section, key)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative experiment description; everything else derives from it.
    Every setting is checked here, so a bad one is refused before any work.
    Each field's metadata names its INI key, from which the CLI derives its
    key table and, from the field's type, the key's parser."""

    m: int = _ini("design", "m", 10)
    n: int = _ini("experiment", "n", 600)
    trials: int = _ini("experiment", "trials", 200)
    truth_rank: int = _ini("truth", "rank", 2)
    truth_spectrum: tuple[float, ...] = _ini("truth", "spectrum", ())  # empty: unit spectrum
    noise_sigma: float = _ini("truth", "sigma", 0.1)
    noise_kind: str = _ini("truth", "kind", "regression")  # regression | classification
    loss_name: str = _ini("loss", "name", "squared")
    # none | operator-ball | frobenius-ball
    constraint_kind: str = _ini("constraint", "variant", "operator-ball")
    constraint_rho: float = _ini("constraint", "rho", 2.0)
    prediction_bound_override: float | None = _ini("constraint", "a", None)
    # threshold (multiple of it) | absolute; both in [solver] epsilon = rule:value
    epsilon_rule: str = _ini("solver", "epsilon", "threshold")
    epsilon_value: float = _ini("solver", "epsilon", 1.0)
    t: float = _ini("bound", "t", 3.0)
    b_const: float = _ini("bound", "b", 2.0)
    c_const: float = _ini("bound", "c", 1.0)
    d_thresh: float = _ini("bound", "d", 4.0)
    delta_reps: int = _ini("bound", "delta_reps", 2000)
    max_iters: int = _ini("solver", "max_iters", 50_000)
    grad_tol: float | None = _ini("solver", "grad_tol", None)
    certify_tol: float = _ini("solver", "certify_tol", 1e-5)
    seed: int = _ini("experiment", "seed", DEFAULT_SEED)
    ranks: tuple[int, ...] = _ini("experiment", "ranks", (1, 2, 4))
    eps_multiples: tuple[float, ...] = _ini("experiment", "eps_multiples", (0.5, 1.0, 2.0, 4.0))
    design_type: str = _ini("design", "type", "completion-basis")  # completion-basis | custom
    design_files: tuple[str, ...] = _ini("design", "files", ())
    design_probs: tuple[float, ...] = _ini("design", "probs", ())
    dataset: str | None = _ini("data", "dataset", None)  # solve's and certify's data
    estimate: str | None = _ini("data", "estimate", None)  # certify's estimate

    def __post_init__(self):
        for f in fields(self):  # nan passes every range check below, inf most of them
            value = getattr(self, f.name)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, tuple) else (value,))):
                raise ValidationError(f"{f.name} = {value!r} must be finite")
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if self.m < 1 or self.n < 1:
            raise ValidationError("m and n must be at least 1")
        if not 0 <= self.seed <= _MASK64:
            raise ValidationError(
                f"master seed {self.seed} ([experiment] seed or --seed) must lie in [0, 2^64 - 1]"
            )
        if self.n > _INT64_MAX:  # numpy draws the sample counts as int64
            raise ValidationError(f"config [experiment] n = {self.n} exceeds 2^63 - 1 = {_INT64_MAX}")
        # the ranks' upper bound is the design's dimension: build_design checks it
        if min((self.truth_rank, *self.ranks)) < 0:
            raise ValidationError("truth ranks must be nonnegative")
        if len(set(self.ranks)) < len(self.ranks):  # a sweep keys its points by rank
            raise ValidationError(f"config [experiment] ranks = {self.ranks!r} repeats a rank")
        if self.truth_spectrum and len(self.truth_spectrum) != self.truth_rank:
            raise ValidationError("truth spectrum length must equal the truth rank")
        if self.noise_kind not in ("regression", "classification"):
            raise ValidationError(f"unknown noise kind {self.noise_kind!r}")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be nonnegative")
        if self.constraint_kind not in ("none", "operator-ball", "frobenius-ball"):
            raise ValidationError(f"unknown constraint kind {self.constraint_kind!r}")
        if not self.constraint_rho >= 0:
            raise ValidationError(
                f"config [constraint] rho = {self.constraint_rho!r} must be nonnegative: it is a ball radius"
            )
        a = self.prediction_bound_override
        if a is not None and not a > 0:
            raise ValidationError(
                f"config [constraint] a = {a!r} must be positive: the smoothness L(a) must be positive"
            )
        if self.epsilon_rule not in ("threshold", "absolute"):
            raise ValidationError(f"unknown epsilon rule {self.epsilon_rule!r}")
        # the solver settings, with the epsilon value standing in for epsilon
        self.solver_config(self.epsilon_value)
        if self.certify_tol < 0:
            raise ValidationError(f"config [solver] certify_tol = {self.certify_tol!r} must be nonnegative")
        if min(self.eps_multiples, default=0.0) < 0:
            raise ValidationError(f"eps_multiples = {self.eps_multiples!r} must be nonnegative")
        if len(set(self.eps_multiples)) < len(self.eps_multiples):  # the same epsilon point twice
            raise ValidationError(
                f"config [experiment] eps_multiples = {self.eps_multiples!r} repeats a multiple"
            )
        if self.t < 0:
            raise ValidationError("t must be nonnegative")
        for key, value in (("b", self.b_const), ("c", self.c_const), ("d", self.d_thresh)):
            if not value > 0:
                raise ValidationError(f"config [bound] {key} = {value!r} must be positive")
        if self.delta_reps < 1:
            raise ValidationError("delta_reps must be at least 1")
        if self.design_type not in ("completion-basis", "custom"):
            raise ValidationError(f"unknown design type {self.design_type!r}")
        if self.design_type == "custom" and not self.design_files:
            raise ValidationError("custom designs need at least one matrix file")
        for key, value in (("files", self.design_files), ("probs", self.design_probs)):
            if value and self.design_type != "custom":
                raise ValidationError(f"config [design] {key} needs type = custom, not {self.design_type}")

    def solver_config(self, epsilon: float) -> SolverConfig:
        """The solver settings at regularization ``epsilon``."""
        return SolverConfig(epsilon=epsilon, max_iters=self.max_iters, grad_tol=self.grad_tol)


@dataclass(frozen=True)
class TrialRecord:
    """One solved trial with its bound evaluation; reproducible bit-for-bit
    from (config, trial index).  Wall time is diagnostic only: excluded from
    equality and never persisted."""

    trial: int
    seed: int
    converged: bool
    iterations: int
    backtracks: int
    restarts: int
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
    delta_reps: int  # the repetitions Delta drew; the config's delta_reps is their cap
    epsilon: float
    epsilon_threshold: float
    epsilon_rule: str
    t: float
    b_const: float
    c_const: float
    d_thresh: float
    seed: int
    oracles: list  # one row per member of the plan's oracle family


SUMMARY_SCHEMA: dict[str, type] = get_type_hints(SummaryReport)


# -- plan resolution -------------------------------------------------------------

@dataclass(frozen=True)
class ResolvedPlan:
    """Everything fixed across trials, precomputed once, with the config it
    was resolved from."""

    config: ExperimentConfig
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
    delta_reps: int  # the repetitions Delta drew; the config's delta_reps is their cap
    bayes: np.ndarray
    oracle: np.ndarray
    oracle_excess: float
    oracle_rank: int
    oracle_nuclear: float
    oracles: tuple  # (label, oracle fields) of each member of the oracle family

    @property
    def n(self) -> int:
        return self.config.n

    def lookup(self, names) -> dict:
        """The named quantities, from the plan where it holds them, else from
        its config."""
        return {
            name: getattr(self, name) if hasattr(self, name) else getattr(self.config, name)
            for name in names
        }


def check_ranks(ranks, dim: int) -> None:
    """Refuse a truth rank above the design's dimension ``dim``."""
    for rank in ranks:
        if rank > dim:
            raise ValidationError(f"truth rank {rank} exceeds the design dimension {dim}")


def build_design(config: ExperimentConfig) -> DesignDistribution:
    """The config's design, once the truth rank is checked against its
    dimension: a custom design's comes from its files, which share one
    size, not from ``m``.  Every command builds it before Delta or any trial."""
    if config.design_type == "completion-basis":
        design = orthonormal_basis_design(config.m)
    else:
        atoms = [load_matrix(path) for path in config.design_files]
        for path, atom in zip(config.design_files, atoms):
            if len(atom) != len(atoms[0]):
                raise ValidationError(
                    f"{path}: m = {len(atom)}, but {config.design_files[0]} has m = "
                    f"{len(atoms[0])}; the atoms of a custom design share one size"
                )
        design = custom_design(atoms, config.design_probs or None)
    check_ranks((config.truth_rank,), design.dim)
    return design


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


def build_truth(config: ExperimentConfig, dim: int) -> TruthModel:
    """Truth model at the design's dimension (``config.m`` for basis designs),
    whose ``build_design`` has checked the truth rank against it."""
    s_star = make_truth_matrix(
        dim, config.truth_rank, config.truth_spectrum, mix_seed(config.seed, _TRUTH_TAG)
    )
    if config.noise_kind == "classification":
        return TruthModel(s_star=s_star, noise=ClassificationLink())
    return TruthModel(s_star=s_star, noise=GaussianNoise(sigma=config.noise_sigma))


def build_constraint(config: ExperimentConfig) -> ConstraintSet:
    if config.constraint_kind == "none":
        return Unconstrained()
    if config.constraint_kind == "operator-ball":
        return OperatorNormBall(rho=config.constraint_rho)
    return FrobeniusBall(rho=config.constraint_rho)


def rademacher_statistics(
    config: ExperimentConfig, design: DesignDistribution
) -> RademacherStats:
    """Monte Carlo estimate of Delta at the config's n, with its own seed
    stream derived from the master seed: at most ``delta_reps``
    repetitions, stopped once its relative standard error is ``DELTA_RTOL``."""
    return estimate_rademacher_norm(
        design, config.n, config.delta_reps, mix_seed(config.seed, _DELTA_TAG), rtol=DELTA_RTOL
    )


def _check_labels(config: ExperimentConfig, labels: ResponseDomain, responses: ResponseDomain) -> None:
    """Refuse a loss whose constants hold on a finite set of ``labels`` for
    a truth whose ``responses`` are not among them: on continuous responses
    the exponential loss's curvature infimum is 0, not its closed form's
    e^-a, since its d2 = y^2 exp(-y u) vanishes at y = 0."""
    if isinstance(labels, FiniteSet) and not (
        isinstance(responses, FiniteSet) and set(responses.values) <= set(labels.values)
    ):
        raise ValidationError(
            f"config [loss] name = {config.loss_name} assumes responses in "
            f"{{{', '.join(f'{v:+g}' for v in sorted(labels.values))}}}, "
            f"but [truth] kind = {config.noise_kind} draws others: "
            "its constants L(a) and tau(a) would not hold"
        )


def _threshold_terms(
    config: ExperimentConfig,
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
    constraint: ConstraintSet,
) -> dict:
    """The plan fields of the regularization threshold: a, the loss
    constants at a, Delta and the threshold itself.  A loss whose constants
    do not hold for the truth's responses is refused before Delta."""
    a = config.prediction_bound_override
    if a is None:
        a = constraint.prediction_bound(design.atom_norms)
    _check_labels(config, loss.default_domain(a), response_domain(truth, design))
    consts = loss_constants(loss, a)
    stats = rademacher_statistics(config, design)
    return dict(
        a=a,
        smoothness=consts.smoothness,
        curvature=consts.curvature,
        delta=stats.delta,
        delta_stderr=stats.stderr,
        delta_reps=stats.reps,
        epsilon_threshold=epsilon_threshold(config.d_thresh, consts.smoothness, stats.delta, config.n),
    )


def resolve_problem(config: ExperimentConfig, design: DesignDistribution | None = None) -> tuple:
    """(design, truth, loss, constraint, solver config, threshold terms):
    what solving needs, with the threshold terms only when the epsilon rule
    needed them (else None).  ``design``, when given, is the config's design,
    already built.

    The threshold rule multiplies the computed threshold by
    ``epsilon_value``; the absolute rule takes the value itself and needs no
    prediction bound, so it also serves unconstrained problems without one.
    """
    if design is None:
        design = build_design(config)
    truth = build_truth(config, dim=design.dim)
    loss = get_loss(config.loss_name)
    constraint = build_constraint(config)
    terms = None
    epsilon = config.epsilon_value
    if config.epsilon_rule == "threshold":
        terms = _threshold_terms(config, design, truth, loss, constraint)
        epsilon *= terms["epsilon_threshold"]
    return design, truth, loss, constraint, config.solver_config(epsilon), terms


def _oracle_terms(
    oracle: np.ndarray,
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
    bayes,
    constraint: ConstraintSet,
) -> dict:
    """The three numbers through which an oracle enters the bound: its excess
    risk (from the per-atom Bayes risks ``bayes``), rank and nuclear norm.

    The paper's bound is an infimum over oracles in the constraint set, so an
    oracle outside it, beyond the rounding of a point on a ball's boundary,
    is refused."""
    violation = constraint.violation(oracle)  # 0.0 when unconstrained, which has no rho
    if violation > 0 and violation > BOUNDARY_TOL * constraint.rho:
        raise ValidationError(
            f"the oracle lies outside the constraint set {constraint}: its norm "
            f"{constraint.rho + violation:.6g} exceeds rho = {constraint.rho:g}"
        )
    nuclear, rank = nuclear_norm_and_rank(oracle)
    return dict(
        oracle_excess=excess_risk(oracle, design, truth, loss, bayes=bayes),
        oracle_rank=rank,
        oracle_nuclear=nuclear,
    )


def _truth_fields(
    design: DesignDistribution,
    truth: TruthModel,
    loss: LossModel,
    constraint: ConstraintSet,
    seed: int,
) -> dict:
    """The plan fields that depend on the truth: the truth itself, q_bound,
    beta, the per-atom Bayes risks, the oracle and its terms, and the oracle
    family.  Everything else in a plan is fixed by the design, the loss and
    the config alone.

    The family is S* itself, labelled ``truth``, and its spectral truncations
    ``rank-r`` for r below its rank.  Truncation never increases a spectral
    ball's norm, so every member lies in the constraint set when S* does."""
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

    def member(oracle):
        return dict(oracle=oracle, **_oracle_terms(oracle, design, truth, loss, bayes, constraint))

    family = [("truth", member(truth.s_star))]
    for rank in range(family[0][1]["oracle_rank"]):
        family.append((f"rank-{rank}", member(best_rank_approximation(truth.s_star, rank))))
    return dict(
        truth=truth,
        q_bound=q_value(loss, response_domain(truth, design)),
        beta=beta,
        beta_kind=beta_kind,
        bayes=bayes,
        **family[0][1],
        oracles=tuple(family),
    )


def resolve_plan(config: ExperimentConfig, design: DesignDistribution | None = None) -> ResolvedPlan:
    """Fix every trial-independent quantity of the experiment; ``design``,
    when given, is the config's design, already built."""
    design, truth, loss, constraint, solver_config, terms = resolve_problem(config, design)
    return ResolvedPlan(
        config=config,
        design=design,
        loss=loss,
        constraint=constraint,
        epsilon=solver_config.epsilon,
        **(terms or _threshold_terms(config, design, truth, loss, constraint)),
        **_truth_fields(design, truth, loss, constraint, config.seed),
    )


_BOUND_COLUMNS = tuple(
    name for name in TRIAL_COLUMNS if name in {f.name for f in fields(BoundReport)}
)


def _bound_report(plan: ResolvedPlan, lhs: float) -> dict:
    """The trial-record fields of the oracle inequality at an estimate of
    excess risk ``lhs``, with the plan's oracle and terms."""
    terms = ("oracle_excess", "oracle_rank", "oracle_nuclear", "epsilon", "t", "b_const",
             "c_const", "a", "n", "beta", "smoothness", "curvature", "q_bound")
    report = oracle_bound_report(lhs, **plan.lookup(terms))
    return {name: getattr(report, name) for name in _BOUND_COLUMNS}


def _run_trial(plan: ResolvedPlan, index: int) -> TrialRecord:
    start = time.perf_counter()
    seed = mix_seed(plan.config.seed, index)
    data = sample_dataset(plan.design, plan.truth, plan.n, seed)
    result = solve(data, plan.loss, plan.config.solver_config(plan.epsilon), plan.constraint)
    lhs = excess_risk(result.s_hat, plan.design, plan.truth, plan.loss, bayes=plan.bayes)
    nuclear, rank = nuclear_norm_and_rank(result.s_hat)
    return TrialRecord(
        trial=index,
        seed=seed,
        converged=result.converged,
        iterations=result.iterations,
        backtracks=result.backtracks,
        restarts=result.restarts,
        kkt_low=result.kkt[0],
        kkt_excess=result.kkt[1],
        estimate_nuclear=nuclear,
        estimate_rank=rank,
        objective=float(result.objective_trace[-1]),
        **_bound_report(plan, lhs),
        wall_time=time.perf_counter() - start,
    )


def check_workers(workers: int) -> None:
    """Refuse a trial process pool size below 1."""
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")


_OPENBLAS_THREAD_SYMBOLS = (  # (setter, getter) of each OpenBLAS build
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_worker_plan: ResolvedPlan | None = None  # set once per worker process
_blas_pinned = False  # an outermost ``_one_blas_thread`` scope is active


def _openblas_paths(maps_lines) -> list[str]:
    """Paths of the OpenBLAS libraries named in /proc/<pid>/maps lines.  The
    path is the sixth field and may contain spaces; a library replaced on
    disk since it was mapped (" (deleted)") cannot be opened and is left out."""
    paths = set()
    for line in maps_lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in path.lower() and not path.endswith(" (deleted)"):
            paths.add(path)
    return sorted(paths)


def _openblas_thread_controls() -> list[tuple]:
    """(setter, getter) of the thread count of every OpenBLAS loaded into
    this process; empty where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = _openblas_paths(fh)
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded, so CDLL only takes a handle
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Run every OpenBLAS loaded into this process on one thread, as pool
    workers do, and restore each library's thread count on exit.  Only the
    outermost scope scans for the libraries, pins and restores: one entered
    inside it, as ``run_trials`` is inside a command, runs as it is."""
    global _blas_pinned
    if _blas_pinned:
        yield
        return
    controls = _openblas_thread_controls()
    saved = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    _blas_pinned = True
    try:
        yield
    finally:
        _blas_pinned = False
        for (setter, _), count in zip(controls, saved):
            setter(count)


def _init_worker(plan: ResolvedPlan) -> None:
    # workers share the cores, so each runs its BLAS on one thread
    global _worker_plan
    for setter, _ in _openblas_thread_controls():
        setter(1)
    _worker_plan = plan


def _run_worker_trial(index: int) -> TrialRecord:
    return _run_trial(_worker_plan, index)


def run_trials(plan: ResolvedPlan, workers: int = 1, progress=None) -> list[TrialRecord]:
    """Run the plan's ``config.trials`` independent trials, serially or, with
    ``workers`` above 1, in a process pool of that size; records come back
    in trial order, so the result is identical at any worker count.  Each
    worker process receives the plan once, and every trial runs one
    BLAS thread, so that no result depends on how the BLAS splits a product
    across threads.  ``progress``, if given, is called with each record in
    trial order."""
    check_workers(workers)
    trials = plan.config.trials
    records: list[TrialRecord] = []
    if workers == 1 or trials <= 1:
        with _one_blas_thread():
            for i in range(trials):
                records.append(_run_trial(plan, i))
                if progress:
                    progress(records[-1])
    else:
        from concurrent.futures import ProcessPoolExecutor  # a pool run alone loads it

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(plan,)
        ) as pool:
            for record in pool.map(_run_worker_trial, range(trials)):
                records.append(record)
                if progress:
                    progress(record)
    return records


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


def _errors(converged: list[TrialRecord]) -> np.ndarray:
    """Excess risk over the oracle's, lhs - oracle_excess, of each trial."""
    return np.array([r.lhs - r.oracle_excess for r in converged])


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, by numpy's default linear
    rule, without the numpy.ma import that np.quantile makes on first use:
    position (n - 1) q in the sorted values, a + (b - a) g below g = 1/2 and
    b - (b - a)(1 - g) from it, the last value from position n - 1 on, and
    nan when any value is."""
    x = np.sort(values)
    if math.isnan(x[-1]):
        return math.nan
    pos = (x.size - 1) * q
    if pos >= x.size - 1:
        i, j, g = -1, -1, pos + 1  # numpy's gamma against its index -1
    else:
        i = math.floor(pos)
        j, g = i + 1, pos - i
    a, b = float(x[i]), float(x[j])
    diff = b - a
    return b - diff * (1 - g) if g >= 0.5 else a + diff * g


def summarize(records: list[TrialRecord], plan: ResolvedPlan) -> SummaryReport:
    """The trials' statistics and the fields that need describing; every
    other field is read by name from the plan or its config."""
    converged = [r for r in records if r.converged]
    violations = sum(1 for r in converged if r.violated)
    zeros = sum(r.estimate_rank == 0 for r in converged)
    target = math.exp(-plan.config.t)
    errors = _errors(converged)
    if errors.size:
        quantiles = {
            "q50": _quantile(errors, 0.5),
            "q90": _quantile(errors, 0.9),
            "q99": _quantile(errors, 0.99),
            "min": float(np.min(errors)),
            "max": float(np.max(errors)),
        }
        mean_error = float(np.mean(errors))
    else:
        quantiles = {k: float("nan") for k in ("q50", "q90", "q99", "min", "max")}
        mean_error = float("nan")
    computed = dict(
        trials=len(records),
        converged=len(converged),
        nonconverged=len(records) - len(converged),
        violations=violations,
        violation_frequency=violations / len(converged) if converged else float("nan"),
        target_frequency=target,
        calibrated_c=calibrate_constant([r.critical_c for r in converged], target),
        mean_error=mean_error,
        error_quantiles=quantiles,
        zero_estimate_fraction=zeros / len(converged) if converged else float("nan"),
        rank_term_active=sum(r.min_term == r.rank_term for r in converged),
        m=plan.design.dim,
        loss=plan.config.loss_name,
        constraint=str(plan.constraint),
        oracles=_oracle_rows(plan, records),
    )
    return SummaryReport(
        **computed, **plan.lookup(name for name in SUMMARY_SCHEMA if name not in computed)
    )


# the summary fields of every sweep and oracle row
_ROW_FIELDS = ("trials", "converged", "mean_error", "violation_frequency", "calibrated_c")


def _point_row(point: ResolvedPlan, records: list[TrialRecord], **key) -> dict:
    """One row of a sweep or of the oracle family: the point's key, its
    epsilon and the ``_ROW_FIELDS`` of the summary of its trials.  The point
    is summarized without its oracle family, so a row computes no rows."""
    summary = summarize(records, replace(point, oracles=()))
    return {**key, "epsilon": point.epsilon} | {name: getattr(summary, name) for name in _ROW_FIELDS}


def _oracle_rows(plan: ResolvedPlan, records: list[TrialRecord]) -> list[dict]:
    """One row per member of the plan's oracle family, with the trials
    bounded again at that oracle: its label, excess risk and rank, the
    bound's min and residual terms there, and the largest and mean lhs - rhs
    over converged trials."""
    rows = []
    for label, oracle in plan.oracles:
        point = replace(plan, **oracle)
        bounded = [replace(r, **_bound_report(point, r.lhs)) for r in records]
        gaps = np.array([r.lhs - r.rhs for r in bounded if r.converged])
        rows.append(
            _point_row(
                point,
                bounded,
                label=label,
                oracle_excess=point.oracle_excess,
                oracle_rank=point.oracle_rank,
                # neither term depends on the estimate, so every trial has the same
                min_term=bounded[0].min_term,
                residual_term=bounded[0].residual_term,
                max_gap=float(np.max(gaps)) if gaps.size else float("nan"),
                mean_gap=float(np.mean(gaps)) if gaps.size else float("nan"),
            )
        )
    return rows


def run_oracle_trials(
    config: ExperimentConfig, workers: int = 1, progress=None
) -> tuple[list[TrialRecord], SummaryReport]:
    """Solve ``config.trials`` independent datasets and evaluate the bound
    with the ground truth as oracle, then again at each member of its
    oracle family."""
    plan = resolve_plan(config)
    records = run_trials(plan, workers=workers, progress=progress)
    return records, summarize(records, plan)


# -- sweeps ----------------------------------------------------------------------

@dataclass(frozen=True)
class RankSweepResult:
    rows: tuple[dict, ...]
    exponent: float       # log-log least-squares slope of mean error vs rank
    linear_slope: float   # plain least-squares slope of mean error vs rank
    records: dict
    plan: ResolvedPlan    # resolved once; each rank's point swaps in its own truth


def _loglog_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    mask = (xs > 0) & (ys > 0)
    if int(np.sum(mask)) < 2:
        return float("nan")
    lx, ly = np.log(xs[mask]), np.log(ys[mask])
    return float(np.polyfit(lx, ly, 1)[0])


def rank_sweep(
    config: ExperimentConfig,
    ranks: tuple[int, ...] | None = None,
    workers: int = 1,
    progress=None,
) -> RankSweepResult:
    """Repeat the oracle experiment with unit-spectrum truths of varying
    rank at one fixed regularization level.

    One plan is resolved; each rank swaps in only its config, its truth and
    the fields that depend on it, and the truths share one eigenframe, so
    they nest.
    """
    if ranks is not None:  # checked as the config's own ranks are
        config = replace(config, ranks=tuple(ranks))
    ranks = config.ranks
    if not ranks:
        raise ValidationError("rank sweep needs at least one rank")
    design = build_design(config)
    check_ranks(ranks, design.dim)  # before Delta
    plan = resolve_plan(config, design)
    points = {}  # every truth is checked against the constraint before any trial runs
    for rank in ranks:
        point_config = replace(config, truth_rank=rank, truth_spectrum=())
        truth = build_truth(point_config, dim=plan.design.dim)
        points[rank] = replace(
            plan,
            config=point_config,
            **_truth_fields(plan.design, truth, plan.loss, plan.constraint, config.seed),
        )
    rows = []
    records_by_rank: dict[int, list[TrialRecord]] = {}
    for rank, point in points.items():
        records = records_by_rank[rank] = run_trials(point, workers=workers, progress=progress)
        errors = _errors([r for r in records if r.converged])
        stderr = float("nan")
        if errors.size > 1:
            stderr = float(np.std(errors, ddof=1) / np.sqrt(errors.size))
        rows.append(_point_row(point, records, rank=rank, stderr=stderr))
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
        plan=plan,
    )


def epsilon_sweep(
    config: ExperimentConfig,
    multiples: tuple[float, ...] | None = None,
    workers: int = 1,
    progress=None,
    plan: ResolvedPlan | None = None,
) -> tuple[dict, ...]:
    """Repeat the oracle experiment at multiples of the resolved
    regularization level; one plan is resolved and only its epsilon changes
    from point to point.  A ``plan`` already resolved from ``config``, up to
    its ranks and multiples (a rank sweep's), is used in place of a new one,
    so Delta and the per-atom Bayes risks are not computed again."""
    if multiples is not None:  # checked as the config's own multiples are
        config = replace(config, eps_multiples=tuple(multiples))
    multiples = config.eps_multiples
    if not multiples:
        raise ValidationError("epsilon sweep needs at least one multiple")
    if plan is None:
        plan = resolve_plan(config)
    elif replace(plan.config, ranks=config.ranks, eps_multiples=multiples) != config:
        raise ValidationError("the plan was resolved from another config")
    rows = []
    for multiple in multiples:
        point = replace(plan, epsilon=multiple * plan.epsilon)
        records = run_trials(point, workers=workers, progress=progress)
        rows.append(_point_row(point, records, multiple=multiple))
    return tuple(rows)


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


def write_outputs(records: list[TrialRecord], summary: SummaryReport, out_dir) -> dict[str, Path]:
    """Persist trials.csv, summary.json and the violation_vs_c series.

    The CSV has the stable column order ``TRIAL_COLUMNS``, and every float
    cell is its ``repr``, so it reads back losslessly.
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
    paths["summary"] = write_json(out / "summary.json", asdict(summary))
    paths["violation_vs_c"] = write_series(
        out / "violation_vs_c.dat", _violation_series(records)
    )
    return paths


def _violation_series(records: list[TrialRecord]) -> list[tuple[float, float]]:
    criticals = np.array([r.critical_c for r in records if r.converged])
    if criticals.size == 0:
        return []
    finite = criticals[np.isfinite(criticals)]
    upper = max(1.0, float(np.max(finite)) * 1.25) if finite.size else 1.0
    grid = np.linspace(0.0, upper, 101)
    return [(float(c), float(np.mean(criticals > c))) for c in grid]
