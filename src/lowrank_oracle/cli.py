"""Command-line entry point.

Subcommands: ``solve``, ``certify``, ``delta``, ``bound``, ``verify``,
``sweep``.  Experiments are described by a flat INI config with one section
per concern; machine-readable outputs go only to the ``--out`` directory,
diagnostics to stderr.  Exit codes: 0 success, 1 validation error, 2
numerical failure (including non-convergence under ``--strict``).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import sys
from pathlib import Path

from .bounds import design_moment_bounds, matrix_bernstein_bound
from .constraints import describe
from .designs import load_dataset, sample_dataset
from .errors import NumericalError, ValidationError
from .harness import (
    TRIAL_COLUMNS,
    ExperimentConfig,
    _run_trial,
    atomic_path,
    build_design,
    epsilon_sweep,
    mix_seed,
    rademacher_statistics,
    rank_sweep,
    resolve_plan,
    resolve_problem,
    run_oracle_trials,
    write_json,
    write_outputs,
    write_series,
)
from .matrices import load_matrix, nuclear_norm, rank_at_tol, save_matrix
from .solver import certify, objective, solve


@dataclasses.dataclass(frozen=True)
class DataPaths:
    dataset: str | None = None
    estimate: str | None = None


def _number(kind):
    def parse(section: str, key: str, raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ValidationError(
                f"config [{section}] {key} = {raw!r} is not a valid {kind.__name__}"
            ) from None

    return parse


def _numbers(kind):
    parse = _number(kind)
    return lambda section, key, raw: tuple(parse(section, key, part) for part in raw.split())


def _text(section: str, key: str, raw: str) -> str:
    return raw


def _words(section: str, key: str, raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


def _epsilon(section: str, key: str, raw: str) -> tuple[str, float]:
    rule, _, amount = raw.partition(":")
    if rule not in ("threshold", "absolute") or not amount:
        raise ValidationError(
            f"config [solver] epsilon must look like 'threshold:1.0' or "
            f"'absolute:0.05', got {raw!r}"
        )
    return rule, _number(float)(section, key, amount)


# (section, key) -> (destination, parser).  Destinations are ExperimentConfig
# fields, except the DataPaths fields and certify_tol; a tuple destination
# takes the parsed tuple element-wise.
_CONFIG_KEYS = {
    ("design", "type"): ("design_type", _text),
    ("design", "m"): ("m", _number(int)),
    ("design", "files"): ("design_files", _words),
    ("design", "probs"): ("design_probs", _numbers(float)),
    ("truth", "rank"): ("truth_rank", _number(int)),
    ("truth", "spectrum"): ("truth_spectrum", _numbers(float)),
    ("truth", "sigma"): ("noise_sigma", _number(float)),
    ("truth", "kind"): ("noise_kind", _text),
    ("loss", "name"): ("loss_name", _text),
    ("constraint", "variant"): ("constraint_kind", _text),
    ("constraint", "rho"): ("constraint_rho", _number(float)),
    ("constraint", "a"): ("prediction_bound_override", _number(float)),
    ("solver", "max_iters"): ("max_iters", _number(int)),
    ("solver", "grad_tol"): ("grad_tol", _number(float)),
    ("solver", "epsilon"): (("epsilon_rule", "epsilon_value"), _epsilon),
    ("solver", "certify_tol"): ("certify_tol", _number(float)),
    ("bound", "t"): ("t", _number(float)),
    ("bound", "b"): ("b_const", _number(float)),
    ("bound", "c"): ("c_const", _number(float)),
    ("bound", "d"): ("d_thresh", _number(float)),
    ("bound", "delta_reps"): ("delta_reps", _number(int)),
    ("experiment", "n"): ("n", _number(int)),
    ("experiment", "trials"): ("trials", _number(int)),
    ("experiment", "seed"): ("seed", _number(int)),
    ("experiment", "ranks"): ("ranks", _numbers(int)),
    ("experiment", "eps_multiples"): ("eps_multiples", _numbers(float)),
    ("data", "dataset"): ("dataset", _text),
    ("data", "estimate"): ("estimate", _text),
}

_SECTION_KEYS = {
    section: {k for s, k in _CONFIG_KEYS if s == section} for section, _ in _CONFIG_KEYS
}


def parse_config(path) -> tuple[ExperimentConfig, DataPaths, float]:
    """Read the INI experiment config; returns (config, data paths, certify tol)."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ValidationError(f"config file {path} failed to parse: {exc}") from None

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ValidationError(f"config {path}: unknown section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ValidationError(
                f"config {path}: unknown keys {sorted(unknown)} in [{section}]"
            )

    values = {}
    for (section, key), (dest, parse) in _CONFIG_KEYS.items():
        if parser.has_option(section, key):
            parsed = parse(section, key, parser.get(section, key).strip())
            if isinstance(dest, tuple):
                values.update(zip(dest, parsed))
            else:
                values[dest] = parsed
    data = DataPaths(dataset=values.pop("dataset", None), estimate=values.pop("estimate", None))
    certify_tol = values.pop("certify_tol", 1e-5)
    return ExperimentConfig(**values), data, certify_tol


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # validation-error exit code
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowrank-oracle",
        description="Nuclear-norm penalized estimation and oracle-bound verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (
        ("solve", "solve one penalized problem and write the estimate"),
        ("certify", "check first-order optimality of an estimate"),
        ("delta", "Monte-Carlo Rademacher norm and its Bernstein bound"),
        ("bound", "one end-to-end trial with a full bound report"),
        ("verify", "Monte-Carlo verification of the oracle bound"),
        ("sweep", "rank and regularization sweeps"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config (INI)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--workers", type=int, default=None, help="worker pool size")
        p.add_argument("--strict", action="store_true", help="non-convergence is an error")
        p.add_argument("--verbose", action="store_true", help="progress on stderr")
    return parser


def _problem(config: ExperimentConfig, data_paths: DataPaths):
    """(data, loss, constraint, solver config): the dataset file when given,
    else the sample of trial 0."""
    design, truth, loss, constraint, solver_config, _ = resolve_problem(config)
    if data_paths.dataset is not None:
        data = load_dataset(data_paths.dataset, design)
    else:
        data = sample_dataset(design, truth, config.n, mix_seed(config.seed, 0))
    return data, loss, constraint, solver_config


def _cmd_solve(config, data_paths, certify_tol, args, log) -> int:
    data, loss, constraint, solver_config = _problem(config, data_paths)
    result = solve(data, loss, solver_config, constraint)
    out = Path(args.out)
    with atomic_path(out / "estimate.mtx") as tmp:
        save_matrix(tmp, result.s_hat)
    write_json(
        out / "solve.json",
        {
            "objective": float(result.objective_trace[-1]),
            "iterations": result.iterations,
            "converged": result.converged,
            "kkt_low": result.kkt[0],
            "kkt_excess": result.kkt[1],
            "nuclear_norm": nuclear_norm(result.s_hat),
            "rank": rank_at_tol(result.s_hat),
            "epsilon": solver_config.epsilon,
            "n": data.n,
            "constraint": describe(constraint),
        },
    )
    if not result.converged:
        print("warning: solver did not converge within max_iters", file=sys.stderr)
        if args.strict:
            return 2
    return 0


def _cmd_certify(config, data_paths, certify_tol, args, log) -> int:
    data, loss, constraint, solver_config = _problem(config, data_paths)
    if data_paths.estimate is not None:
        estimate = load_matrix(data_paths.estimate)
        if len(estimate) != data.design.dim:
            raise ValidationError(
                f"{data_paths.estimate}: m = {len(estimate)}, the design has m = {data.design.dim}"
            )
    else:
        estimate = solve(data, loss, solver_config, constraint).s_hat
    epsilon = solver_config.epsilon
    cert = certify(estimate, data, loss, epsilon, constraint, tol=certify_tol)
    write_json(
        Path(args.out) / "certify.json",
        {
            **dataclasses.asdict(cert),
            "tol": certify_tol,
            "epsilon": epsilon,
            "objective": objective(estimate, data, loss, epsilon),
            "constraint": describe(constraint),
        },
    )
    if not cert and args.strict:
        return 2
    return 0


def _cmd_delta(config, data_paths, certify_tol, args, log) -> int:
    design = build_design(config)
    stats = rademacher_statistics(config, design)
    sigma, uniform = design_moment_bounds(design)
    bernstein = matrix_bernstein_bound(sigma, uniform, design.dim, config.n)
    write_json(
        Path(args.out) / "delta.json",
        {
            "delta": stats.delta,
            "xi_norm_mean": stats.xi_norm_mean,
            "stderr": stats.stderr,
            "reps": stats.reps,
            "n": stats.n,
            "sigma_x": sigma,
            "u_x": uniform,
            "bernstein_bound": bernstein,
            "bernstein_dominates": bernstein >= stats.delta,
        },
    )
    return 0


def _cmd_bound(config, data_paths, certify_tol, args, log) -> int:
    plan = resolve_plan(config)
    record = _run_trial(plan, 0)
    payload = {key: getattr(record, key) for key in TRIAL_COLUMNS}
    payload.update(
        {
            "epsilon": plan.epsilon,
            "epsilon_threshold": plan.epsilon_threshold,
            "delta": plan.delta,
            "beta": plan.beta,
            "a": plan.a,
            "smoothness": plan.smoothness,
            "curvature": plan.curvature,
            "q_bound": plan.q_bound,
            "t": plan.t,
            "b_const": plan.constants.b_const,
            "c_const": plan.constants.c_const,
            "d_thresh": plan.constants.d_thresh,
        }
    )
    write_json(Path(args.out) / "bound.json", payload)
    if not record.converged:
        print("warning: solver did not converge within max_iters", file=sys.stderr)
        if args.strict:
            return 2
    return 0


def _cmd_verify(config, data_paths, certify_tol, args, log) -> int:
    records, summary = run_oracle_trials(config, workers=args.workers, log=log)
    write_outputs(records, summary, args.out)
    print(
        f"verify: {summary.converged}/{summary.trials} converged, "
        f"violation frequency {summary.violation_frequency:.4f} "
        f"(target {summary.target_frequency:.4f}), "
        f"calibrated C {summary.calibrated_c:.6g}"
    )
    if summary.nonconverged and args.strict:
        return 2
    return 0


def _cmd_sweep(config, data_paths, certify_tol, args, log) -> int:
    result = rank_sweep(config, workers=args.workers, log=log)
    eps_rows = ()
    if config.eps_multiples:
        eps_rows = epsilon_sweep(config, workers=args.workers, log=log)
    out = Path(args.out)
    write_json(
        out / "sweep.json",
        {
            "rank_rows": list(result.rows),
            "exponent": result.exponent,
            "linear_slope": result.linear_slope,
            "eps_rows": list(eps_rows),
        },
    )
    write_series(
        out / "error_vs_rank.dat", [(row["rank"], row["mean_error"]) for row in result.rows]
    )
    write_series(
        out / "error_vs_eps.dat", [(row["epsilon"], row["mean_error"]) for row in eps_rows]
    )
    print(f"sweep: error-vs-rank exponent {result.exponent:.3f}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "delta": _cmd_delta,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def dispatch(args) -> int:
    config, data_paths, certify_tol = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)

    def log(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    return _COMMANDS[args.subcommand](config, data_paths, certify_tol, args, log)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return dispatch(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
