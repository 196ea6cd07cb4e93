import dataclasses
import inspect
import json
import math
import pickle
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    ExperimentConfig,
    ValidationError,
    epsilon_sweep,
    frobenius_norm,
    mix_seed,
    rank_sweep,
    resolve_plan,
    run_oracle_trials,
    write_outputs,
)
from lowrank_oracle import bounds, harness
from lowrank_oracle.bounds import DELTA_PILOT, DELTA_RTOL, PILOT_T_RATIO
from lowrank_oracle.cli import parse_config
from lowrank_oracle.harness import (
    SUMMARY_SCHEMA,
    TRIAL_COLUMNS,
    TrialRecord,
    _openblas_paths,
    _openblas_thread_controls,
    _quantile,
    build_design,
    calibrate_constant,
    make_truth_matrix,
)

from helpers import rademacher_draws, read_trials_csv, shared_count_blocks, validate_summary

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


def test_summary_validation_refuses_a_bool_in_an_int_field(small_run):
    # bool is an int subclass, so trials = True used to pass while the float
    # fields already refused bools
    payload = dataclasses.asdict(small_run[1])
    for key in ("trials", "delta_reps"):
        with pytest.raises(ValidationError, match=rf"summary\['{key}'\] must be <class 'int'>, got bool"):
            validate_summary(payload | {key: True})


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


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
    ),
    q=st.sampled_from([0.5, 0.9, 0.99]),
)
def test_quantile_matches_numpy_bit_for_bit(values, q):
    errors = np.array(values)
    assert np.float64(_quantile(errors, q)).tobytes() == np.quantile(errors, q).tobytes()


def test_summary_counts_zero_estimates_and_active_branch(tmp_path, small_run):
    records, summary = small_run
    assert all(r.converged and r.estimate_rank > 0 for r in records)
    assert summary.zero_estimate_fraction == 0.0
    assert summary.rank_term_active == sum(r.min_term == r.rank_term for r in records)

    config = parse_config(CONFIGS / "verify_example.ini")
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


def test_extra_series_files(tmp_path):
    path = harness.write_series(tmp_path / "series" / "error_vs_rank.dat", [(1, 0.1), (2, 0.2)])
    assert path.read_text().splitlines() == ["1.0 0.1", "2.0 0.2"]


def test_rank_sweep_points_carry_their_config(monkeypatch):
    summaries = []
    summarize = harness.summarize

    def recording(records, plan):
        summaries.append(summarize(records, plan))
        return summaries[-1]

    monkeypatch.setattr(harness, "summarize", recording)
    rank_sweep(dataclasses.replace(SMALL, trials=1), ranks=(1, 3), workers=1)
    assert [summary.truth_rank for summary in summaries] == [1, 3]


def test_oracle_outside_the_constraint_set_is_refused():
    # unit rank 8 has Frobenius norm sqrt(8) > rho = 2; the paper's bound
    # is an infimum over oracles in the constraint set only
    config = parse_config(CONFIGS / "verify_labels.ini")
    config = dataclasses.replace(config, m=40, n=10**12, truth_rank=8, truth_spectrum=())
    with pytest.raises(ValidationError, match=r"frobenius-ball\(2\): its norm 2\.82843 exceeds rho = 2"):
        resolve_plan(config)


def test_oracle_on_the_boundary_is_accepted():
    # unit rank 4 lies on the Frobenius sphere of radius 2 up to rounding
    config = dataclasses.replace(
        SMALL, m=8, truth_rank=4, constraint_kind="frobenius-ball", constraint_rho=2.0
    )
    assert frobenius_norm(resolve_plan(config).oracle) == pytest.approx(2.0, rel=1e-14)


def test_rank_sweep_crossing_the_constraint_boundary_is_refused(monkeypatch):
    # at unit spectrum the truths of rank 1, 4 and 5 have Frobenius norms 1, 2
    # and sqrt(5): rank 5 is refused before any trial runs
    monkeypatch.setattr(harness, "run_trials", lambda *args, **kwargs: pytest.fail("trials ran"))
    config = dataclasses.replace(
        SMALL, m=6, trials=1, constraint_kind="frobenius-ball", constraint_rho=2.0
    )
    with pytest.raises(ValidationError, match=r"frobenius-ball\(2\): its norm 2\.23607"):
        rank_sweep(config, ranks=(1, 4, 5), workers=1)


def test_csv_round_trips_nonfinite_values(tmp_path, small_run):
    _, summary = small_run
    record = TrialRecord(
        trial=0, seed=1, converged=True, iterations=3, backtracks=2, restarts=1,
        kkt_low=0.0, kkt_excess=0.0,
        estimate_nuclear=1.0, estimate_rank=1, objective=0.5, lhs=0.1,
        oracle_excess=0.0, rank_term=0.2, nuclear_term=0.3, min_term=0.2,
        residual_term=0.4, rhs=0.6, violated=False, critical_c=float("inf"),
    )
    paths = write_outputs([record], summary, tmp_path / "inf")
    assert read_trials_csv(paths["trials"]) == [record]


def test_wall_time_excluded_from_equality():
    record_kwargs = dict(
        trial=0, seed=1, converged=True, iterations=3, backtracks=2, restarts=1,
        kkt_low=0.0, kkt_excess=0.0,
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
    monkeypatch.setattr(harness, "resolve_plan", lambda cfg, *rest: calls.append(cfg) or resolve(cfg, *rest))
    result = rank_sweep(config, ranks=(1, 3), workers=1)
    rows = epsilon_sweep(config, multiples=(0.5, 2.0), workers=1)
    assert len(calls) == 2
    monkeypatch.undo()

    # every row field is the key, epsilon or the separate run's summary field
    summary_fields = {"trials", "converged", "mean_error", "violation_frequency", "calibrated_c"}
    epsilon = resolve_plan(config).epsilon
    for row in result.rows:
        separate = dataclasses.replace(
            config, truth_rank=row["rank"], truth_spectrum=(), epsilon_value=epsilon
        )
        records, summary = run_oracle_trials(separate, workers=1)
        assert result.records[row["rank"]] == records
        errors = [r.lhs - r.oracle_excess for r in records if r.converged]
        assert set(row) == {"rank", "epsilon", "stderr"} | summary_fields
        assert row["epsilon"] == summary.epsilon == epsilon
        assert row["stderr"] == float(np.std(errors, ddof=1) / np.sqrt(len(errors)))
        assert {name: row[name] for name in summary_fields} == {
            name: getattr(summary, name) for name in summary_fields
        }
    for row in rows:
        separate = dataclasses.replace(config, epsilon_value=row["multiple"] * epsilon)
        summary = run_oracle_trials(separate, workers=1)[1]
        assert set(row) == {"multiple", "epsilon"} | summary_fields
        assert row["epsilon"] == summary.epsilon
        assert {name: row[name] for name in summary_fields} == {
            name: getattr(summary, name) for name in summary_fields
        }


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


def test_oracle_rows_of_the_spectral_truncations():
    # squared loss on the uniform basis design: the excess risk of S is
    # ||S - S*||_F^2 / K, and the rank-r truncation of S* drops its
    # eigenvalues past the r of largest magnitude
    spectrum = (1.0, -0.6, 0.3)
    config = dataclasses.replace(SMALL, trials=3, truth_rank=3, truth_spectrum=spectrum)
    records, summary = run_oracle_trials(config, workers=1)
    k = config.m * (config.m + 1) // 2
    rows = {row["label"]: row for row in summary.oracles}
    assert list(rows) == ["truth", "rank-0", "rank-1", "rank-2"]
    keys = {"label", "epsilon", "oracle_excess", "oracle_rank", "min_term", "residual_term",
            "max_gap", "mean_gap", "trials", "converged", "mean_error",
            "violation_frequency", "calibrated_c"}
    for rank in range(3):
        row = rows[f"rank-{rank}"]
        assert set(row) == keys
        assert row["oracle_rank"] == rank
        expected = sum(value**2 for value in spectrum[rank:]) / k
        assert row["oracle_excess"] == pytest.approx(expected, rel=1e-9)
        # the approximation error enters with constant one
        assert row["max_gap"] < 0
    assert rows["truth"]["oracle_rank"] == 3


def test_truth_row_is_the_summary_itself(small_run):
    records, summary = small_run
    truth = summary.oracles[0]
    assert truth["label"] == "truth"
    for name in ("violation_frequency", "calibrated_c", "mean_error", "epsilon"):
        assert truth[name] == getattr(summary, name)
    assert truth["max_gap"] == max(r.lhs - r.rhs for r in records if r.converged)
    assert truth["min_term"] == records[0].min_term


def test_sweep_points_bound_each_trial_once(monkeypatch):
    # the oracle family's rows belong to a verify summary; a sweep row that
    # computed them would bound its trials again at every member
    calls = []
    bound = harness._bound_report
    monkeypatch.setattr(harness, "_bound_report", lambda plan, lhs: calls.append(lhs) or bound(plan, lhs))
    config = dataclasses.replace(SMALL, trials=2, truth_rank=3, truth_spectrum=())
    rank_sweep(config, ranks=(1, 3), workers=1)
    assert len(calls) == 2 * 2
    calls.clear()
    epsilon_sweep(config, multiples=(0.5, 1.0, 2.0), workers=1)
    assert len(calls) == 2 * 3


_FLOAT_FIELDS = [
    name for name, hint in get_type_hints(ExperimentConfig).items() if "float" in str(hint)
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", _FLOAT_FIELDS)
def test_config_refuses_non_finite_values(name, value):
    # every range check is false for nan: b_const = nan used to run, with
    # rhs = nan and no violation, and epsilon_value = inf to fail in the solver
    if name == "truth_spectrum":
        value = (1.0, value)  # SMALL's truth has rank 2
    elif isinstance(getattr(SMALL, name), tuple):
        value = (value,)
    with pytest.raises(ValidationError, match=f"^{name} = .* must be finite$"):
        dataclasses.replace(SMALL, **{name: value})


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


def _openblas_threads() -> list[int]:
    # thread count of every OpenBLAS in this process, through its own getter
    return [getter() for _, getter in _openblas_thread_controls()]


def test_pool_workers_run_one_blas_thread():
    from concurrent.futures import ProcessPoolExecutor

    from lowrank_oracle.harness import _init_worker

    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to find the loaded BLAS")
    with ProcessPoolExecutor(max_workers=1, initializer=_init_worker, initargs=(None,)) as pool:
        counts = pool.submit(_openblas_threads).result(timeout=60)
    assert all(count == 1 for count in counts), counts


def test_workers_default_to_one_and_refuse_below_one(monkeypatch):
    # the worker count comes from the caller alone: serial unless asked,
    # and no count below one, with no process pool started either way
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for run in (harness.run_trials, run_oracle_trials, rank_sweep, epsilon_sweep):
        assert inspect.signature(run).parameters["workers"].default == 1, run.__name__
    monkeypatch.setattr(harness, "_run_trial", lambda plan, i: i)
    plan = SimpleNamespace(config=SimpleNamespace(trials=3))
    assert harness.run_trials(plan) == [0, 1, 2]
    harness.check_workers(1)
    harness.check_workers(3)
    for workers in (0, -2):
        with pytest.raises(ValidationError, match=f"workers must be at least 1, got {workers}"):
            harness.check_workers(workers)
        with pytest.raises(ValidationError, match="workers must be at least 1"):
            harness.run_trials(plan, workers=workers)


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
    with pytest.raises(ValidationError, match="must be nonnegative"):
        ExperimentConfig(truth_rank=-1)
    with pytest.raises(ValidationError, match="must be nonnegative"):
        ExperimentConfig(ranks=(1, -2))
    # a rank above the dimension is refused once the design gives it
    with pytest.raises(ValidationError, match="truth rank 9 exceeds the design dimension 4"):
        build_design(ExperimentConfig(truth_rank=9, m=4))
    with pytest.raises(ValidationError, match="truth rank 5 exceeds the design dimension 4"):
        harness.rank_sweep(ExperimentConfig(m=4), ranks=(1, 5))
    with pytest.raises(ValidationError):
        ExperimentConfig(noise_kind="poisson")
    with pytest.raises(ValidationError):
        ExperimentConfig(epsilon_rule="auto")
    with pytest.raises(ValidationError):
        ExperimentConfig(truth_spectrum=(1.0,), truth_rank=2)


def test_openblas_paths_read_the_whole_path_field():
    lines = [
        "7f01-7f02 r-xp 00000000 08:01 1234 /home/u/My Projects/venv/libscipy_openblas64_-ff.so\n",
        "7f03-7f04 r--p 00001000 08:01 1234 /home/u/My Projects/venv/libscipy_openblas64_-ff.so\n",
        "7f05-7f06 r-xp 00000000 08:01 1235 /usr/lib/libopenblas.so.0 (deleted)\n",
        "7f07-7f08 rw-p 00000000 00:00 0\n",
        "7f09-7f0a r-xp 00000000 08:01 1236 /usr/lib/libm.so.6\n",
    ]
    assert _openblas_paths(lines) == ["/home/u/My Projects/venv/libscipy_openblas64_-ff.so"]


def test_serial_trials_run_one_blas_thread(monkeypatch):
    # the serial path runs the BLAS as pool workers do, then restores it
    seen = []
    monkeypatch.setattr(harness, "_run_trial", lambda plan, i: seen.append(_openblas_threads()) or i)
    before = _openblas_threads()
    plan = SimpleNamespace(config=SimpleNamespace(trials=2))
    assert harness.run_trials(plan, workers=1) == [0, 1]
    assert len(seen) == 2 and all(count == 1 for counts in seen for count in counts), seen
    assert _openblas_threads() == before


def test_rademacher_statistics_stop_at_the_stated_precision():
    # m = 40, n = 32 000 (completion-m40-r2's setting): 16 repetitions a
    # block in clusters of 8 that share their counts, and the stop comes
    # well before the cap of 1000.  The fit over the first DELTA_PILOT
    # clusters sets N = max(DELTA_PILOT, ceil((q s / (DELTA_RTOL Delta))^2))
    # with s = sqrt(DELTA_PILOT) stderr; the stop is the first block
    # boundary, from N clusters on, where the stderr of the prefix's fit is
    # within DELTA_RTOL of its Delta
    config = ExperimentConfig(m=40, n=32_000, delta_reps=1000)
    design = build_design(config)
    stats = harness.rademacher_statistics(config, design)
    assert stats.reps < config.delta_reps
    assert stats.stderr <= DELTA_RTOL * stats.delta
    seed = mix_seed(config.seed, harness._DELTA_TAG)
    full = rademacher_draws(design, config.n, config.delta_reps, seed)[1]
    block, share = shared_count_blocks(design.dim)
    assert (block, share) == (16, 8)
    centres = np.array(design.trace_moments(config.n))
    pilot_delta, pilot_stderr = bounds._cluster_fit(full[:, : DELTA_PILOT * share], share, centres)
    spread = math.sqrt(DELTA_PILOT) * pilot_stderr
    target = max(DELTA_PILOT, math.ceil((PILOT_T_RATIO * spread / (DELTA_RTOL * pilot_delta)) ** 2))
    assert stats.reps >= target * share
    for hi in range(block, stats.reps + 1, block):
        prefix = bounds._stats_from_draws(full[:, :hi], config.n, share, centres)
        meets = hi // share >= target and prefix.stderr <= DELTA_RTOL * prefix.delta
        assert meets == (hi == stats.reps), hi
    assert stats == bounds._stats_from_draws(full[:, : stats.reps], config.n, share, centres)
    # m = 8, n = 10^6: 512 repetitions a block, and the first block, the
    # only test before the cap, misses the precision: the cap binds
    config = ExperimentConfig(m=8, n=10**6, delta_reps=1000)
    design = build_design(config)
    stats = harness.rademacher_statistics(config, design)
    assert stats.reps == config.delta_reps
    seed = mix_seed(config.seed, harness._DELTA_TAG)
    full = rademacher_draws(design, config.n, config.delta_reps, seed)[1]
    centres = np.array(design.trace_moments(config.n))
    first = bounds._stats_from_draws(full[:, :512], config.n, 8, centres)
    assert first.stderr > DELTA_RTOL * first.delta


def test_resolved_basis_plan_is_small_and_builds_no_dense_atoms():
    # the settings of the benchmark's completion-m40-r2 workload; the pool
    # initializer sends this plan to every worker, and with the dense
    # (820, 40, 40) atoms it pickled to 10 MB
    config = ExperimentConfig(
        m=40,
        n=32_000,
        trials=1,
        truth_spectrum=(1.0, 1.0),
        epsilon_rule="absolute",
        epsilon_value=0.001,
        delta_reps=1000,
    )
    plan = resolve_plan(config)
    assert len(pickle.dumps(plan)) < 2**20
    (record,) = harness.run_trials(plan, workers=1)
    assert record.converged and record.estimate_rank == 2
    assert "atoms" not in vars(plan.design)
