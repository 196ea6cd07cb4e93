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
import json
import locale  # argparse's gettext imports it in main: load it here, not inside a run
import math
import sys
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .bounds import design_moment_bounds, matrix_bernstein_bound
from .designs import load_dataset, sample_dataset
from .errors import NumericalError, ValidationError
from .harness import (
    TRIAL_COLUMNS,
    ExperimentConfig,
    _one_blas_thread,
    _run_trial,
    atomic_path,
    build_design,
    check_workers,
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
from .matrices import load_matrix, nuclear_norm_and_rank, save_matrix
from .solver import certify, objective, solve


def _parse(hint, section: str, key: str, raw: str):
    """``raw`` as a setting of type ``hint``: int, float, str, X | None (the
    key, when given, holds an X) or tuple[X, ...] (whitespace-separated)."""
    kind = (get_args(hint) or (hint,))[0]
    if get_origin(hint) is tuple:
        return tuple(_parse(kind, section, key, part) for part in raw.split())
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError:
        value = math.nan
    if isinstance(value, float) and not math.isfinite(value):  # nan and inf pass every range check
        raise ValidationError(
            f"config [{section}] {key} = {raw!r} is not a valid finite {kind.__name__}"
        )
    return value


def _epsilon(section: str, key: str, raw: str) -> tuple[str, float]:
    rule, _, amount = raw.partition(":")
    if rule not in ("threshold", "absolute") or not amount:
        raise ValidationError(
            f"config [solver] epsilon must look like 'threshold:1.0' or "
            f"'absolute:0.05', got {raw!r}"
        )
    return rule, _parse(float, section, key, amount)


# (section, key) -> the ExperimentConfig fields it sets, from their metadata;
# [solver] epsilon alone sets two, its rule and its value
_FIELDS = dataclasses.fields(ExperimentConfig)
_CONFIG_KEYS = {
    f.metadata["ini"]: tuple(g.name for g in _FIELDS if g.metadata["ini"] == f.metadata["ini"])
    for f in _FIELDS
}
_HINTS = get_type_hints(ExperimentConfig)

_SECTION_KEYS = {
    section: {k for s, k in _CONFIG_KEYS if s == section} for section, _ in _CONFIG_KEYS
}


def parse_config(path) -> ExperimentConfig:
    """Read the INI experiment config."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:  # read() would skip a file it cannot open and run the defaults
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8: {exc}") from None
    except configparser.Error as exc:
        raise ValidationError(f"config file {path} failed to parse: {exc}") from None

    if parser.defaults():  # configparser would copy them into every section
        raise ValidationError(
            f"config {path}: keys {sorted(parser.defaults())} in [DEFAULT]; "
            "give each key in its own section"
        )
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ValidationError(f"config {path}: unknown section [{section}]")
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ValidationError(
                f"config {path}: unknown keys {sorted(unknown)} in [{section}]"
            )

    values = {}
    for (section, key), names in _CONFIG_KEYS.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key).strip()
            if len(names) > 1:
                values.update(zip(names, _epsilon(section, key, raw)))
            else:
                values[names[0]] = _parse(_HINTS[names[0]], section, key, raw)
    return ExperimentConfig(**values)


def _check_out(out: Path) -> None:
    """Refuse an output path that cannot be made a directory, without making
    it: the path, or its nearest existing ancestor, is not a directory."""
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ValidationError(f"--out {out}: {existing} is not a directory")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # validation-error exit code
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lowrank-oracle",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=_COMMANDS, help="what to run (see above)")
    parser.add_argument("--config", required=True, help="experiment config (INI)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--workers", type=int, default=1, help="trial pool size (1: serial)")
    parser.add_argument("--strict", action="store_true", help="non-convergence is an error")
    parser.add_argument("--verbose", action="store_true", help="a JSON line per trial on stderr")
    return parser


def _problem(config: ExperimentConfig):
    """(data, loss, constraint, solver config): the dataset file when given,
    else the sample of trial 0.  The threshold rule takes epsilon at the
    config's n, so a dataset of another size is refused before Delta."""
    if config.dataset is None:
        design, truth, loss, constraint, solver_config, _ = resolve_problem(config)
        data = sample_dataset(design, truth, config.n, mix_seed(config.seed, 0))
        return data, loss, constraint, solver_config
    data = load_dataset(config.dataset, build_design(config))
    if config.epsilon_rule == "threshold" and data.n != config.n:
        raise ValidationError(
            f"{config.dataset}: {data.n} samples, but the threshold epsilon is taken "
            f"at [experiment] n = {config.n}; set n = {data.n} or give an absolute epsilon"
        )
    _, _, loss, constraint, solver_config, _ = resolve_problem(config, data.design)
    return data, loss, constraint, solver_config


def _exit_code(args, ok: bool, warning: str | None = None) -> int:
    """A finished command's exit code: 2 under ``--strict`` when ``ok`` is
    false, else 0.  ``warning``, if given, goes to stderr when ``ok`` is false."""
    if not ok and warning:
        print(f"warning: {warning}", file=sys.stderr)
    return 2 if args.strict and not ok else 0


def _cmd_solve(config, args, progress) -> int:
    """solve one penalized problem and write the estimate"""
    data, loss, constraint, solver_config = _problem(config)
    result = solve(data, loss, solver_config, constraint)
    out = Path(args.out)
    with atomic_path(out / "estimate.mtx") as tmp:
        save_matrix(tmp, result.s_hat)
    nuclear, rank = nuclear_norm_and_rank(result.s_hat)
    write_json(
        out / "solve.json",
        {
            "objective": float(result.objective_trace[-1]),
            "iterations": result.iterations,
            "converged": result.converged,
            "kkt_low": result.kkt[0],
            "kkt_excess": result.kkt[1],
            "nuclear_norm": nuclear,
            "rank": rank,
            "epsilon": solver_config.epsilon,
            "n": data.n,
            "constraint": str(constraint),
        },
    )
    return _exit_code(args, result.converged, "solver did not converge within max_iters")


def _cmd_certify(config, args, progress) -> int:
    """check first-order optimality of an estimate"""
    data, loss, constraint, solver_config = _problem(config)
    if config.estimate is not None:
        estimate = load_matrix(config.estimate)
        if len(estimate) != data.design.dim:
            raise ValidationError(
                f"{config.estimate}: m = {len(estimate)}, the design has m = {data.design.dim}"
            )
    else:
        estimate = solve(data, loss, solver_config, constraint).s_hat
    epsilon = solver_config.epsilon
    cert = certify(estimate, data, loss, epsilon, constraint, tol=config.certify_tol)
    write_json(
        Path(args.out) / "certify.json",
        {
            **dataclasses.asdict(cert),
            "tol": config.certify_tol,
            "epsilon": epsilon,
            "objective": objective(estimate, data, loss, epsilon),
            "constraint": str(constraint),
        },
    )
    return _exit_code(args, bool(cert))


def _cmd_delta(config, args, progress) -> int:
    """Monte-Carlo Rademacher norm and its Bernstein bound"""
    design = build_design(config)
    stats = rademacher_statistics(config, design)
    sigma, uniform = design_moment_bounds(design)
    bernstein = matrix_bernstein_bound(sigma, uniform, design.dim, config.n)
    write_json(
        Path(args.out) / "delta.json",
        dataclasses.asdict(stats)
        | {
            "sigma_x": sigma,
            "u_x": uniform,
            "bernstein_bound": bernstein,
            "bernstein_dominates": bernstein >= stats.delta,
        },
    )
    return 0


def _cmd_bound(config, args, progress) -> int:
    """one end-to-end trial with a full bound report"""
    plan = resolve_plan(config)
    record = _run_trial(plan, 0)
    ingredients = (
        "epsilon", "epsilon_threshold", "delta", "beta", "a", "smoothness", "curvature",
        "q_bound", "t", "b_const", "c_const", "d_thresh",
    )
    payload = {key: getattr(record, key) for key in TRIAL_COLUMNS} | plan.lookup(ingredients)
    write_json(Path(args.out) / "bound.json", payload)
    return _exit_code(args, record.converged, "solver did not converge within max_iters")


def _cmd_verify(config, args, progress) -> int:
    """Monte-Carlo verification of the oracle bound"""
    records, summary = run_oracle_trials(config, workers=args.workers, progress=progress)
    write_outputs(records, summary, args.out)
    print(
        f"verify: {summary.converged}/{summary.trials} converged, "
        f"violation frequency {summary.violation_frequency:.4f} "
        f"(target {summary.target_frequency:.4f}), "
        f"calibrated C {summary.calibrated_c:.6g}"
    )
    return _exit_code(args, not summary.nonconverged)


def _cmd_sweep(config, args, progress) -> int:
    """rank and regularization sweeps"""
    result = rank_sweep(config, workers=args.workers, progress=progress)
    eps_rows = ()
    if config.eps_multiples:
        eps_rows = epsilon_sweep(config, workers=args.workers, progress=progress, plan=result.plan)
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
    converged = all(row["converged"] == row["trials"] for row in (*result.rows, *eps_rows))
    return _exit_code(args, converged, "a sweep trial did not converge within max_iters")


def _print_progress(record) -> None:
    """``--verbose``: one JSON line per finished trial, on stderr only."""
    names = ("trial", "converged", "iterations", "backtracks", "restarts", "wall_time")
    print(json.dumps({name: getattr(record, name) for name in names}), file=sys.stderr)


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "delta": _cmd_delta,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}
# read once at import, before a profiler may wrap a command
_DESCRIPTION = "\n".join(
    ["Nuclear-norm penalized estimation and oracle-bound verification.", "", "subcommands:"]
    + [f"  {name:<8} {command.__doc__}" for name, command in _COMMANDS.items()]
)


def dispatch(args) -> int:
    """Run one parsed command: every setting is checked before any work, and
    the whole command, problem set-up and Delta included, runs its BLAS on
    one thread, as pool workers do, so no result depends on the thread count."""
    check_workers(args.workers)
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    _check_out(Path(args.out))

    progress = _print_progress if args.verbose else None
    with _one_blas_thread():
        return _COMMANDS[args.subcommand](config, args, progress)


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
