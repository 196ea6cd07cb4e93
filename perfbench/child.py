"""One program invocation: run a CLI subcommand in this fresh process, then
check its outputs and write a result JSON.

Started by ``run.py`` with one BLAS thread and ``PYTHONPATH`` pointing at the
checkout's ``src``.  Untraced, the only wrapper is two clock reads around each
trial (``harness._run_trial``), which mark where set-up ends and give each
trial's time.  With ``--trace 1`` the layer boundaries listed in
``tracing.install`` are wrapped too, the estimates are captured for the
checks that need them, and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    threads = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = int(getattr(lib, symbol)())
                break
    return threads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import numpy as np
    import scipy

    import lowrank_oracle
    from lowrank_oracle import cli, harness

    if not Path(lowrank_oracle.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lowrank_oracle imported from {lowrank_oracle.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 3

    from checks import check_sweep, check_trial, check_verify
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    trials = []    # (start, end, converged)
    captured = []  # per trial: what check_trial needs
    last = {}

    run_trial = harness._run_trial

    def timed_trial(plan, index):
        start = perf_counter()
        record = run_trial(plan, index)
        trials.append((start, perf_counter(), record.converged))
        if args.trace:
            data = last["data"]
            captured.append((last["s_hat"], plan.oracle, data.atom_indices, data.y,
                             plan.epsilon, plan.constraint.rho, record.lhs))
        return record

    harness._run_trial = timed_trial
    tracer = None
    if args.trace:
        from tracing import Tracer, install, layer_metrics

        sample, solve = harness.sample_dataset, harness.solve

        def capturing_sample(*a, **kw):
            last["data"] = sample(*a, **kw)
            return last["data"]

        def capturing_solve(*a, **kw):
            result = solve(*a, **kw)
            last["s_hat"] = result.s_hat
            return result

        harness.sample_dataset, harness.solve = capturing_sample, capturing_solve
        tracer = Tracer()
        install(tracer)

    argv = [workload.command, "--config", args.config, "--out", args.out,
            "--seed", str(args.seed), "--workers", "1"]
    start = perf_counter()
    code = cli.main(argv)
    end = perf_counter()
    if code != 0:
        print(f"lowrank-oracle {' '.join(argv)} exited with {code}", file=sys.stderr)
        return 4

    out = Path(args.out)
    exp = workload.sections["experiment"]
    if workload.command == "verify":
        with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        failures = check_verify(rows, summary, exp["trials"], workload.sections["design"]["m"],
                                exp["n"], workload.sections["bound"]["t"])
    else:
        with open(out / "sweep.json", encoding="utf-8") as fh:
            failures = check_sweep(json.load(fh), workload.sections)
    if len(trials) != workload.trials_per_invocation:
        failures.append(f"ran {len(trials)} trials, expected {workload.trials_per_invocation}")

    failed = {i for i, (_, _, converged) in enumerate(trials) if not converged}
    for i, capture in enumerate(captured):
        trial_failures = check_trial(*capture)
        failures.extend(f"trial {i}: {msg}" for msg in trial_failures)
        if trial_failures:
            failed.add(i)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": trials[0][0] - start,
        "wall_s": end - start,
        "trial_s": [e - s for s, e, _ in trials],
        "attempted": len(trials),
        "failed": len(failed),
        "checked_trials": len(captured),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workers": 1,
        "blas_threads": blas_threads(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "lowrank_oracle": lowrank_oracle.__version__,
        },
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
