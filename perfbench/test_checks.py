"""Each benchmark check accepts the program's real output and rejects a
deliberately wrong one, so no check passes vacuously.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import check_sweep, check_trial, check_verify  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from lowrank_oracle import cli, harness  # noqa: E402
from lowrank_oracle.designs import sample_dataset  # noqa: E402
from lowrank_oracle.solver import SolverConfig, solve  # noqa: E402


def _small(workload: str, **experiment) -> Workload:
    base = WORKLOADS[workload]
    sections = {key: dict(value) for key, value in base.sections.items()}
    sections["experiment"].update(experiment)
    return dataclasses.replace(base, sections=sections)


def _run(workload: Workload, out: Path) -> None:
    config = out / "config.ini"
    out.mkdir(parents=True, exist_ok=True)
    config.write_text(workload.config_text(), encoding="utf-8")
    argv = [workload.command, "--config", str(config), "--out", str(out), "--workers", "1"]
    assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def trial():
    config = harness.ExperimentConfig(m=6, n=4000, trials=1, epsilon_rule="absolute",
                                      epsilon_value=0.002)
    plan = harness.resolve_plan(config)
    data = sample_dataset(plan.design, plan.truth, plan.n, 7)
    s_hat = solve(data, plan.loss, SolverConfig(epsilon=plan.epsilon), plan.constraint).s_hat
    lhs = harness.excess_risk(s_hat, plan.design, plan.truth, plan.loss, bayes=plan.bayes)
    return dict(s_hat=s_hat, s_star=plan.oracle, atom_indices=data.atom_indices, y=data.y,
                epsilon=plan.epsilon, rho=plan.constraint.rho, lhs=lhs)


def _closed_form_lhs(s, s_star):
    return float(np.sum((s - s_star) ** 2)) / (s.shape[0] * (s.shape[0] + 1) // 2)


def test_trial_check_accepts_the_solver_estimate(trial):
    assert check_trial(**trial) == []


def test_trial_check_rejects_a_scaled_estimate(trial):
    failures = check_trial(**dict(trial, s_hat=1.1 * trial["s_hat"]))
    assert any("lhs" in f for f in failures)


def test_trial_check_rejects_a_worse_objective(trial):
    # -S* is feasible and its lhs is consistent, so only the objective check fires
    bad = -trial["s_star"]
    failures = check_trial(**dict(trial, s_hat=bad, lhs=_closed_form_lhs(bad, trial["s_star"])))
    assert failures and all("objective" in f for f in failures)


def test_trial_check_rejects_an_infeasible_estimate(trial):
    bad = 3.0 * np.eye(trial["s_hat"].shape[0])
    failures = check_trial(**dict(trial, s_hat=bad, lhs=_closed_form_lhs(bad, trial["s_star"])))
    assert any("operator norm" in f for f in failures)


@pytest.fixture(scope="module")
def verify_output(tmp_path_factory):
    workload = _small("completion-m40-r2", trials=4)
    workload.sections["design"]["m"] = 6
    workload.sections["experiment"]["n"] = 4000
    out = tmp_path_factory.mktemp("verify")
    _run(workload, out)
    with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return rows, summary, dict(trials=4, m=6, n=4000, t=3.0)


def test_verify_check_accepts_the_program_output(verify_output):
    rows, summary, params = verify_output
    assert check_verify(rows, summary, **params) == []


@pytest.mark.parametrize(
    "row_change, summary_change, message",
    [
        ({"converged": "0"}, {}, "did not converge"),
        ({"estimate_rank": "0", "estimate_nuclear": "0.0"}, {}, "zero estimate"),
        ({}, {"violation_frequency": 0.5}, "violation frequency"),
        ({}, {"delta": 10.0}, "Bernstein"),
        ({}, {"trials": 5}, "expected 4 trials"),
    ],
)
def test_verify_check_rejects(verify_output, row_change, summary_change, message):
    rows, summary, params = verify_output
    rows = [dict(rows[0], **row_change), *rows[1:]]
    failures = check_verify(rows, dict(summary, **summary_change), **params)
    assert any(message in f for f in failures)


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    workload = _small("sweep-m10", trials=10)
    out = tmp_path_factory.mktemp("sweep")
    _run(workload, out)
    return json.loads((out / "sweep.json").read_text(encoding="utf-8")), workload.sections


def test_sweep_check_accepts_the_program_output(sweep_output):
    result, sections = sweep_output
    assert check_sweep(result, sections) == []


def _reverse_rank_rows(result):
    return dict(result, rank_rows=result["rank_rows"][::-1])


def _reverse_errors(result):
    errors = [row["mean_error"] for row in result["rank_rows"]][::-1]
    return dict(result, rank_rows=[dict(row, mean_error=e) for row, e in zip(result["rank_rows"], errors)])


def _cubic_errors(result):
    rows = [dict(row, mean_error=1e-3 * row["rank"] ** 3) for row in result["rank_rows"]]
    return dict(result, rank_rows=rows, exponent=3.0)


def _misreported_exponent(result):
    return dict(result, exponent=result["exponent"] + 0.1)


def _unconverged_row(result):
    rows = [dict(result["rank_rows"][0], converged=9), *result["rank_rows"][1:]]
    return dict(result, rank_rows=rows)


def _reverse_eps_rows(result):
    return dict(result, eps_rows=result["eps_rows"][::-1])


def _wrong_epsilon(result):
    return dict(result, eps_rows=[dict(result["eps_rows"][0], epsilon=1.0),
                                  *result["eps_rows"][1:]])


def _violations(result):
    return dict(result, eps_rows=[dict(result["eps_rows"][0], violation_frequency=0.6),
                                  *result["eps_rows"][1:]])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_reverse_rank_rows, "rank rows"),
        (_reverse_errors, "does not increase"),
        (_cubic_errors, "slope"),
        (_misreported_exponent, "exponent"),
        (_unconverged_row, "converged"),
        (_reverse_eps_rows, "epsilon rows"),
        (_wrong_epsilon, "epsilon 1.0"),
        (_violations, "violation frequency"),
    ],
)
def test_sweep_check_rejects(sweep_output, corrupt, message):
    result, sections = sweep_output
    failures = check_sweep(corrupt(result), sections)
    assert any(message in f for f in failures)
