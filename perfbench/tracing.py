"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer replaces public functions in the namespaces where callers look
them up (``harness.solve``, ``solver.gradient``, ...) with wrappers that
record one span each: name, start, end and the span open when it was called.
Nothing in the program changes; removing the wrappers restores it.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span list; a span is ``[name, start, end, parent_index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported program."""
    from lowrank_oracle import cli, designs, harness, losses, matrices, solver

    for name, attr in (
        ("designs.build", "orthonormal_basis_design"),
        ("designs.sample", "sample_dataset"),
        ("designs.bayes", "bayes_risk_per_atom"),
        ("designs.excess", "excess_risk"),
        ("bounds.rademacher", "estimate_rademacher_norm"),
        ("bounds.report", "oracle_bound_report"),
        ("harness.plan", "resolve_plan"),
        ("harness.trial", "_run_trial"),
        ("solver.solve", "solve"),
    ):
        setattr(harness, attr, tracer.wrap(name, getattr(harness, attr)))

    solve = harness.solve

    def solve_counting_iterations(*args, **kwargs):
        result = solve(*args, **kwargs)
        tracer.counts["solver.iterations"] += result.iterations
        return result

    harness.solve = solve_counting_iterations

    for name, attr in (
        ("solver.gradient", "gradient"),
        ("solver.risk", "empirical_risk"),
        ("solver.prox", "composite_prox"),
        ("matrices.eigh", "spectral_decompose"),
        ("matrices.eigh", "nuclear_norm"),
    ):
        setattr(solver, attr, tracer.wrap(name, getattr(solver, attr)))

    for module in (matrices, solver, designs):
        module.validate_symmetric = tracer.count(
            "matrices.validate_calls", module.validate_symmetric
        )

    cli.write_outputs = tracer.wrap("harness.output", cli.write_outputs)
    _trace_sweep_output(tracer, cli)
    _trace_loss(tracer, losses)


def _trace_sweep_output(tracer: Tracer, cli) -> None:
    # ``sweep`` writes its files inline after the last sweep returns, so its
    # output span runs from that return to the end of the command
    last_return = [0.0]

    def marking(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                last_return[0] = perf_counter()

        return marked

    cli.rank_sweep = marking(cli.rank_sweep)
    cli.epsilon_sweep = marking(cli.epsilon_sweep)
    command = tracer.wrap("cli.sweep", cli._COMMANDS["sweep"])

    def sweep_with_output(*args, **kwargs):
        parent = len(tracer.spans)
        code = command(*args, **kwargs)
        end = tracer.spans[parent][2]
        tracer.spans.append(["harness.output", last_return[0], end, parent])
        return code

    cli._COMMANDS["sweep"] = sweep_with_output


def _trace_loss(tracer: Tracer, losses) -> None:
    """Re-register the squared loss with its value/d1/d2 traced; every
    element evaluated counts as one sample."""
    counts = tracer.counts

    def traced_part(fn):
        inner = tracer.wrap("losses", fn)

        @functools.wraps(fn)
        def part(y, u):
            out = inner(y, u)
            counts["losses.samples"] += int(np.size(out))
            return out

        return part

    squared = losses.squared_loss

    def traced_squared():
        loss = squared()
        return dataclasses.replace(
            loss,
            value=traced_part(loss.value),
            d1=traced_part(loss.d1),
            d2=traced_part(loss.d2),
        )

    losses.register_loss("squared", traced_squared)


# -- aggregation --------------------------------------------------------------------

_SELF_TIMES = {
    "designs.build_s": "designs.build",
    "designs.sample_s": "designs.sample",
    "designs.bayes_s": "designs.bayes",
    "bounds.rademacher_s": "bounds.rademacher",
    "bounds.report_s": "bounds.report",
    "harness.plan_s": "harness.plan",
    "harness.output_s": "harness.output",
    "solver.solve_s": "solver.solve",
    "solver.gradient_s": "solver.gradient",
    "solver.risk_s": "solver.risk",
    "solver.prox_s": "solver.prox",
    "matrices.eigh_s": "matrices.eigh",
    "losses.s": "losses",
}

_CALL_COUNTS = {
    "harness.plan_calls": "harness.plan",
    "harness.trials": "harness.trial",
    "solver.gradient_calls": "solver.gradient",
    "solver.risk_calls": "solver.risk",
    "solver.prox_calls": "solver.prox",
    "matrices.eigh_calls": "matrices.eigh",
}

COUNT_METRICS = (
    *_CALL_COUNTS,
    "solver.iterations",
    "matrices.validate_calls",
    "losses.samples",
    "solver.forward_per_iter",
    "solver.prox_per_iter",
)

LAYER_UNITS = {
    **{name: "s" for name in (*_SELF_TIMES, "designs.excess_s")},
    **{name: "count" for name in COUNT_METRICS},
    "solver.forward_per_iter": "1/iter",
    "solver.prox_per_iter": "1/iter",
}


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    own = np.array([end - start for _, start, end, _ in spans])
    selfs = own.copy()
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(float)
    calls = Counter()
    for (name, _, _, parent), value in zip(spans, selfs):
        if name == "designs.excess":
            # only the per-trial evaluation, not the oracle's in plan resolution
            if parent < 0 or spans[parent][0] != "harness.trial":
                continue
        by_name[name] += float(value)
        calls[name] += 1
    metrics = {metric: by_name[name] for metric, name in _SELF_TIMES.items()}
    metrics["designs.excess_s"] = by_name["designs.excess"]
    metrics.update({metric: calls[name] for metric, name in _CALL_COUNTS.items()})
    for name in ("solver.iterations", "matrices.validate_calls", "losses.samples"):
        metrics[name] = tracer.counts[name]
    iterations = max(1, metrics["solver.iterations"])
    metrics["solver.forward_per_iter"] = (
        metrics["solver.gradient_calls"] + metrics["solver.risk_calls"]
    ) / iterations
    metrics["solver.prox_per_iter"] = metrics["solver.prox_calls"] / iterations
    return metrics
