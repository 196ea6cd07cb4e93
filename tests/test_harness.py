import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lowrank_oracle import (
    ExperimentConfig,
    ValidationError,
    best_rank_approximation,
    epsilon_sweep,
    mix_seed,
    rank_sweep,
    read_trials_csv,
    resolve_plan,
    run_oracle_trials,
    sharpness_experiment,
    validate_summary,
    write_outputs,
)
from lowrank_oracle.cli import parse_config
from lowrank_oracle.harness import (
    SUMMARY_SCHEMA,
    TRIAL_COLUMNS,
    TrialRecord,
    calibrate_constant,
    make_truth_matrix,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SMALL = ExperimentConfig(
    m=4,
    n=120,
    trials=6,
    truth_rank=2,
    noise_sigma=0.1,
    epsilon_rule="absolute",
    epsilon_value=0.05,
    delta_reps=100,
    seed=123,
)


@pytest.fixture(scope="module")
def small_run():
    return run_oracle_trials(SMALL, workers=1)


def test_mix_seed_is_stable_and_spread():
    assert mix_seed(1729, 0) == mix_seed(1729, 0)
    seeds = {mix_seed(1729, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(1729, 0) != mix_seed(1730, 0)


def test_truth_matrix_properties():
    s = make_truth_matrix(5, 2, (1.0, 1.0), seed=9)
    lam = np.sort(np.linalg.eigvalsh(s))[::-1]
    assert np.allclose(lam[:2], [1.0, 1.0], atol=1e-9)
    assert np.allclose(lam[2:], 0.0, atol=1e-12)
    assert np.allclose(make_truth_matrix(5, 0, (), seed=9), 0.0)
    with pytest.raises(ValidationError):
        make_truth_matrix(5, 2, (1.0,), seed=9)


def test_identical_config_reproduces_records(small_run):
    records, summary = small_run
    again_records, again_summary = run_oracle_trials(SMALL, workers=1)
    assert again_records == records
    assert again_summary == summary


def test_worker_count_does_not_change_results(small_run):
    records, summary = small_run
    parallel_records, parallel_summary = run_oracle_trials(SMALL, workers=2)
    assert parallel_records == records
    assert parallel_summary == summary


def test_trial_records_fields(small_run):
    records, _ = small_run
    for i, record in enumerate(records):
        assert record.trial == i
        assert record.seed == mix_seed(SMALL.seed, i)
        assert record.min_term == pytest.approx(min(record.rank_term, record.nuclear_term))
        assert record.rhs == pytest.approx(
            record.oracle_excess + record.min_term + record.residual_term, abs=1e-12
        )
        assert record.violated == (record.lhs > record.rhs)
        if record.converged:
            assert record.kkt_low <= 1e-5 and record.kkt_excess <= 1e-5


def test_min_term_regime_classification(small_run):
    records, summary = small_run
    for record in records:
        rank_dominated = record.rank_term < record.nuclear_term
        if rank_dominated:
            assert record.min_term == record.rank_term
        else:
            assert record.min_term == record.nuclear_term


def test_summary_schema_and_validation(small_run):
    _, summary = small_run
    payload = dataclasses.asdict(summary)
    validate_summary(payload)
    assert set(payload) == set(SUMMARY_SCHEMA)
    broken = dict(payload)
    del broken["epsilon"]
    with pytest.raises(ValidationError):
        validate_summary(broken)
    extra = dict(payload)
    extra["surprise"] = 1
    with pytest.raises(ValidationError):
        validate_summary(extra)


def test_calibrate_constant_order_statistics():
    # target 0.25 over four trials allows exactly one violation
    assert calibrate_constant([1.0, 2.0, 3.0, 4.0], 0.25) == 3.0
    assert calibrate_constant([-5.0, -1.0], 0.0) == 0.0
    assert calibrate_constant([], 0.1) == 0.0
    assert calibrate_constant([0.5, 10.0], 1.0) == 0.0


def test_calibrated_constant_clears_target(small_run):
    records, summary = small_run
    converged = [r for r in records if r.converged]
    violations = sum(
        1 for r in converged if r.critical_c > summary.calibrated_c
    )
    assert violations / len(converged) <= summary.target_frequency


def test_violation_frequency_within_binomial_tolerance():
    config = dataclasses.replace(SMALL, trials=40, epsilon_rule="threshold", epsilon_value=1.0)
    _, summary = run_oracle_trials(config, workers=2)
    target = summary.target_frequency
    tolerance = 3 * math.sqrt(target * (1 - target) / summary.converged)
    assert summary.violation_frequency <= target + tolerance


def test_write_outputs_round_trip(tmp_path, small_run):
    records, summary = small_run
    paths = write_outputs(records, summary, tmp_path / "out")
    assert read_trials_csv(paths["trials"]) == records
    loaded = json.loads(paths["summary"].read_text())
    validate_summary(loaded)
    series = paths["violation_vs_c"].read_text().splitlines()
    assert len(series) == 101
    first_x, first_y = series[0].split()
    assert float(first_x) == 0.0
    assert 0.0 <= float(first_y) <= 1.0


def test_failed_write_leaves_earlier_outputs_intact(tmp_path, small_run):
    records, summary = small_run
    out = tmp_path / "out"
    write_outputs(records, summary, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    broken = dataclasses.replace(records[1], lhs="not a number")
    with pytest.raises(ValueError):
        write_outputs([records[0], broken], summary, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_read_trials_csv_rejects_non_numeric_cell(tmp_path, small_run):
    records, summary = small_run
    path = write_outputs(records, summary, tmp_path / "out")["trials"]
    lines = path.read_text().splitlines()
    converged = TRIAL_COLUMNS.index("converged")
    for column, cell in [(0, "abc"), (converged, "yes"), (converged, "abc")]:
        row = lines[2].split(",")
        row[column] = cell
        path.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
        with pytest.raises(ValidationError, match="trials.csv: malformed row"):
            read_trials_csv(path)


def test_summary_counts_zero_estimates_and_active_branch(tmp_path, small_run):
    records, summary = small_run
    assert all(r.converged and r.estimate_rank > 0 for r in records)
    assert summary.zero_estimate_fraction == 0.0
    assert summary.rank_term_active == sum(r.min_term == r.rank_term for r in records)

    config, _, _ = parse_config(CONFIGS / "verify_example.ini")
    records, vacuous = run_oracle_trials(config, workers=1)
    assert all(r.estimate_rank == 0 for r in records)
    assert vacuous.zero_estimate_fraction == 1.0
    assert vacuous.rank_term_active == 0
    written = json.loads(write_outputs(records, vacuous, tmp_path / "vacuous")["summary"].read_text())
    assert written["zero_estimate_fraction"] == 1.0
    assert written["rank_term_active"] == 0
    assert {"zero_estimate_fraction", "rank_term_active"} <= set(SUMMARY_SCHEMA)


def test_write_outputs_empty_records(tmp_path):
    from lowrank_oracle.harness import TRIAL_COLUMNS

    _, summary = run_oracle_trials(dataclasses.replace(SMALL, trials=1), workers=1)
    paths = write_outputs([], summary, tmp_path / "empty")
    assert paths["trials"].read_text().splitlines() == [",".join(TRIAL_COLUMNS)]
    assert read_trials_csv(paths["trials"]) == []
    assert paths["violation_vs_c"].read_text() == ""


def test_extra_series_files(tmp_path, small_run):
    records, summary = small_run
    paths = write_outputs(
        records,
        summary,
        tmp_path / "series",
        extra_series={"error_vs_rank": [(1, 0.1), (2, 0.2)]},
    )
    lines = paths["error_vs_rank"].read_text().splitlines()
    assert lines == ["1.0 0.1", "2.0 0.2"]


def test_csv_round_trips_nonfinite_values(tmp_path, small_run):
    _, summary = small_run
    record = TrialRecord(
        trial=0, seed=1, converged=True, iterations=3, kkt_low=0.0, kkt_excess=0.0,
        estimate_nuclear=1.0, estimate_rank=1, objective=0.5, lhs=0.1,
        oracle_excess=0.0, rank_term=0.2, nuclear_term=0.3, min_term=0.2,
        residual_term=0.4, rhs=0.6, violated=False, critical_c=float("inf"),
    )
    paths = write_outputs([record], summary, tmp_path / "inf")
    assert read_trials_csv(paths["trials"]) == [record]


def test_wall_time_excluded_from_equality():
    record_kwargs = dict(
        trial=0, seed=1, converged=True, iterations=3, kkt_low=0.0, kkt_excess=0.0,
        estimate_nuclear=1.0, estimate_rank=1, objective=0.5, lhs=0.1,
        oracle_excess=0.0, rank_term=0.2, nuclear_term=0.3, min_term=0.2,
        residual_term=0.4, rhs=0.6, violated=False, critical_c=-1.0,
    )
    assert TrialRecord(**record_kwargs, wall_time=1.0) == TrialRecord(**record_kwargs, wall_time=2.0)


def test_rank_sweep_fixed_epsilon_and_rank_zero():
    config = dataclasses.replace(SMALL, trials=4)
    result = rank_sweep(config, ranks=(0, 1, 2), workers=1)
    assert [row["rank"] for row in result.rows] == [0, 1, 2]
    epsilons = {row["epsilon"] for row in result.rows}
    assert len(epsilons) == 1
    assert result.rows[0]["mean_error"] <= 1e-8  # zero truth recovered exactly
    assert result.rows[2]["mean_error"] >= result.rows[1]["mean_error"] * 0.5


def test_sweeps_resolve_one_plan_and_match_separate_runs(monkeypatch):
    from lowrank_oracle import harness

    config = dataclasses.replace(SMALL, trials=3)
    calls = []
    resolve = harness.resolve_plan
    monkeypatch.setattr(harness, "resolve_plan", lambda cfg: calls.append(cfg) or resolve(cfg))
    result = rank_sweep(config, ranks=(1, 3), workers=1)
    rows = epsilon_sweep(config, multiples=(0.5, 2.0), workers=1)
    assert len(calls) == 2
    monkeypatch.undo()

    epsilon = resolve_plan(config).epsilon
    for rank in (1, 3):
        separate = dataclasses.replace(
            config, truth_rank=rank, truth_spectrum=(), epsilon_value=epsilon
        )
        assert result.records[rank] == run_oracle_trials(separate, workers=1)[0]
    for row in rows:
        separate = dataclasses.replace(config, epsilon_value=row["multiple"] * epsilon)
        assert row["mean_error"] == run_oracle_trials(separate, workers=1)[1].mean_error


def test_rank_sweep_doubling_epsilon_quadruples_rank_term():
    plan = resolve_plan(SMALL)
    base = run_oracle_trials(SMALL, workers=1)[0][0]
    doubled_config = dataclasses.replace(
        SMALL, epsilon_rule="absolute", epsilon_value=2 * SMALL.epsilon_value
    )
    doubled = run_oracle_trials(doubled_config, workers=1)[0][0]
    assert doubled.rank_term == pytest.approx(4 * base.rank_term, rel=1e-12)


def test_epsilon_sweep_rows():
    config = dataclasses.replace(SMALL, trials=3)
    rows = epsilon_sweep(config, multiples=(0.5, 1.0), workers=1)
    assert [row["multiple"] for row in rows] == [0.5, 1.0]
    assert rows[1]["epsilon"] == pytest.approx(2 * rows[0]["epsilon"], rel=1e-12)


def test_sharpness_experiment_rows():
    config = dataclasses.replace(SMALL, trials=4)
    plan = resolve_plan(config)
    truncated = best_rank_approximation(plan.truth.s_star, 1)
    result = sharpness_experiment(
        config,
        [("truth", plan.truth.s_star), ("rank-1", truncated)],
        workers=1,
    )
    by_label = {row["label"]: row for row in result.rows}
    assert by_label["truth"]["oracle_excess"] == pytest.approx(0.0, abs=1e-10)
    assert by_label["rank-1"]["oracle_excess"] > 0
    # misspecified oracle has a larger excess but the bound still holds
    assert by_label["rank-1"]["max_gap"] <= 0
    assert result.headline_gap == max(row["max_gap"] for row in result.rows)


def test_sharpness_with_previous_estimate_as_oracle():
    config = dataclasses.replace(SMALL, trials=3)
    records, _ = run_oracle_trials(config, workers=1)
    plan = resolve_plan(config)
    # re-solve trial 0 to recover its estimate as a diagnostic oracle
    from lowrank_oracle import SolverConfig, sample_dataset, solve

    data = sample_dataset(plan.design, plan.truth, plan.n, records[0].seed)
    estimate = solve(data, plan.loss, SolverConfig(epsilon=plan.epsilon), plan.constraint).s_hat
    result = sharpness_experiment(config, [("estimate", estimate)], workers=1)
    assert result.rows[0]["label"] == "estimate"
    assert np.isfinite(result.rows[0]["mean_gap"])


def test_nonconverged_trials_counted_separately():
    config = dataclasses.replace(SMALL, max_iters=1, trials=3)
    records, summary = run_oracle_trials(config, workers=1)
    assert summary.nonconverged == sum(1 for r in records if not r.converged)
    assert summary.converged + summary.nonconverged == summary.trials


def test_noiseless_recovery_has_no_violations():
    config = dataclasses.replace(
        SMALL, noise_sigma=0.0, epsilon_value=1e-4, trials=5, n=200
    )
    records, summary = run_oracle_trials(config, workers=1)
    assert summary.violations == 0
    assert all(r.lhs <= 1e-6 for r in records if r.converged)


def test_worker_env_fallback(monkeypatch):
    from lowrank_oracle.harness import resolve_workers

    monkeypatch.setenv("LOWRANK_ORACLE_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("LOWRANK_ORACLE_WORKERS", "zero")
    with pytest.raises(ValidationError):
        resolve_workers(None)
    monkeypatch.delenv("LOWRANK_ORACLE_WORKERS")
    assert resolve_workers(None) >= 1


def test_unconstrained_with_explicit_prediction_bound():
    config = dataclasses.replace(
        SMALL,
        constraint_kind="none",
        prediction_bound_override=2.0,
        epsilon_rule="threshold",
        epsilon_value=1.0,
        trials=3,
    )
    _, summary = run_oracle_trials(config, workers=1)
    assert summary.a == 2.0
    assert summary.constraint == "none"
    with pytest.raises(ValidationError):
        resolve_plan(dataclasses.replace(config, prediction_bound_override=None))


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(truth_rank=9, m=4)
    with pytest.raises(ValidationError):
        ExperimentConfig(noise_kind="poisson")
    with pytest.raises(ValidationError):
        ExperimentConfig(epsilon_rule="auto")
    with pytest.raises(ValidationError):
        ExperimentConfig(truth_spectrum=(1.0,), truth_rank=2)
