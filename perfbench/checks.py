"""Correctness checks on one program invocation, computed apart from the program.

Every check returns a list of failure messages (empty when it passes).  The
checks use closed forms for the uniform orthonormal basis design with the
squared loss, or properties the estimator must have; none compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def num_atoms(m: int) -> int:
    return m * (m + 1) // 2


def predictions(s: np.ndarray) -> np.ndarray:
    """<S, X_k> for every basis atom: the diagonal first, then sqrt(2) * S_ij
    for i < j in lexicographic order."""
    upper = np.triu_indices(s.shape[0], 1)
    return np.concatenate([np.diag(s), math.sqrt(2.0) * s[upper]])


def penalized_objective(s, atom_indices, y, epsilon) -> float:
    residual = y - predictions(s)[atom_indices]
    return float(np.mean(residual * residual)) + epsilon * float(
        np.sum(np.abs(np.linalg.eigvalsh(s)))
    )


def matrix_bernstein(m: int, n: int) -> float:
    """Bernstein bound on Delta for the basis design: sigma^2 = 1/m, U = 1."""
    sigma, uniform = math.sqrt(1.0 / m), 1.0
    log_term = math.log(2 * m)
    return 4.0 * max(sigma * math.sqrt(log_term), uniform * log_term / math.sqrt(n))


def violation_limit(t: float, trials: int) -> float:
    """e^-t plus three binomial standard deviations at that frequency."""
    p = math.exp(-t)
    return p + 3.0 * math.sqrt(p * (1.0 - p) / trials)


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def check_trial(s_hat, s_star, atom_indices, y, epsilon, rho, lhs) -> list[str]:
    """Checks on one solved trial: the closed-form excess risk, feasibility,
    and that the estimate's penalized objective beats 0 and the truth."""
    failures = []
    k = num_atoms(s_hat.shape[0])
    expected = float(np.sum((s_hat - s_star) ** 2)) / k
    if not _close(lhs, expected):
        failures.append(f"lhs {lhs!r} != ||S_hat - S*||_F^2 / K = {expected!r}")
    for label, s in (("estimate", s_hat), ("truth", s_star)):
        op = float(np.max(np.abs(np.linalg.eigvalsh(s))))
        if op > rho * (1.0 + REL_TOL):
            failures.append(f"{label} operator norm {op!r} exceeds rho = {rho!r}")
    f_hat = penalized_objective(s_hat, atom_indices, y, epsilon)
    for label, s in (("0", np.zeros_like(s_hat)), ("S*", s_star)):
        f_ref = penalized_objective(s, atom_indices, y, epsilon)
        if f_hat > f_ref + REL_TOL * max(1.0, abs(f_ref)):
            failures.append(f"objective at estimate {f_hat!r} > objective at {label} {f_ref!r}")
    return failures


def check_verify(rows: list[dict], summary: dict, trials: int, m: int, n: int, t: float) -> list[str]:
    """Checks on ``verify``'s trials.csv rows and summary.json."""
    failures = []
    if len(rows) != trials or summary["trials"] != trials:
        failures.append(f"expected {trials} trials, got {len(rows)} rows, summary {summary['trials']}")
    for row in rows:
        if row["converged"] != "1":
            failures.append(f"trial {row['trial']} did not converge")
        if int(row["estimate_rank"]) < 1 or float(row["estimate_nuclear"]) <= 0:
            failures.append(f"trial {row['trial']} returned a zero estimate")
    limit = violation_limit(t, max(1, summary["converged"]))
    if summary["violation_frequency"] > limit:
        failures.append(f"violation frequency {summary['violation_frequency']} > {limit}")
    bernstein = matrix_bernstein(m, n)
    if not summary["delta"] < bernstein:
        failures.append(f"Delta {summary['delta']} not below the Bernstein bound {bernstein}")
    return failures


def check_sweep(result: dict, sections: dict) -> list[str]:
    """Checks on ``sweep``'s sweep.json against the configured grid."""
    failures = []
    exp = sections["experiment"]
    trials, t = exp["trials"], sections["bound"]["t"]
    ranks = [int(r) for r in exp["ranks"].split()]
    multiples = [float(x) for x in exp["eps_multiples"].split()]
    epsilon = float(sections["solver"]["epsilon"].partition(":")[2])

    rank_rows, eps_rows = result["rank_rows"], result["eps_rows"]
    if [row["rank"] for row in rank_rows] != ranks:
        failures.append(f"rank rows {[row['rank'] for row in rank_rows]} != configured {ranks}")
    if [row["multiple"] for row in eps_rows] != multiples:
        failures.append(f"epsilon rows {[row['multiple'] for row in eps_rows]} != configured {multiples}")
    for row in rank_rows:
        if row["converged"] != trials or row["trials"] != trials:
            failures.append(f"rank {row['rank']}: {row['converged']}/{row['trials']} of {trials} converged")
    for row in eps_rows:
        if not _close(row["epsilon"], row["multiple"] * epsilon):
            failures.append(f"multiple {row['multiple']}: epsilon {row['epsilon']} != {row['multiple'] * epsilon}")
    limit = violation_limit(t, trials)
    for row in (*rank_rows, *eps_rows):
        if row["violation_frequency"] > limit:
            failures.append(f"row {row}: violation frequency above {limit}")

    errors = [row["mean_error"] for row in rank_rows]
    if not all(a < b for a, b in zip(errors, errors[1:])):
        failures.append(f"mean error does not increase with rank: {errors}")
    elif errors[0] > 0:
        slope = loglog_slope([row["rank"] for row in rank_rows], errors)
        if not 0.6 <= slope <= 1.4:
            failures.append(f"error-vs-rank log-log slope {slope} outside [0.6, 1.4]")
        if not _close(slope, result["exponent"]):
            failures.append(f"reported exponent {result['exponent']} != {slope}")
    else:
        failures.append(f"nonpositive mean error {errors[0]}")
    return failures
