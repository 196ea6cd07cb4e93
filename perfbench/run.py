"""Benchmark of the shipped ``verify`` and ``sweep`` subcommands.

    python3 perfbench/run.py --workload completion-m40-r2 --seed 1729 --seconds 50 --trace 0

Run from the root of a checkout.  Each program invocation is a fresh
``child.py`` process with one BLAS thread and one worker; the invocations of a
run are sequential (a closed loop with one caller).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(trials) and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones, medians over the invocations made in ``--seconds``; with ``--trace 1``
they are the per-layer ones of one traced invocation, which is repeated to
check that its counts repeat, alternating with untraced invocations of the
same seed that give the tracing overhead.  Results, spans and program outputs go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, invocation_seed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 120

# one thread for every BLAS/OpenMP runtime numpy or scipy may load, set
# before the child imports numpy; LOWRANK_ORACLE_WORKERS backs up --workers 1
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LOWRANK_ORACLE_WORKERS": "1",
}


class InvocationError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def invoke(workload, work: Path, seed: int, tag: str, trace: bool) -> dict:
    """Run one program invocation in a fresh process and return its result."""
    config = work / "config.ini"
    if not config.exists():
        config.write_text(workload.config_text(), encoding="utf-8")
    result = work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload.name,
           "--config", str(config), "--out", str(work / f"out-{tag}"), "--seed", str(seed),
           "--trace", str(int(trace)), "--result", str(result)]
    if trace:
        cmd += ["--spans", str(work / f"spans-{tag}.csv")]
    with open(work / f"log-{tag}.txt", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        try:
            code = proc.wait(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise InvocationError(f"{tag}: timed out after {INVOCATION_TIMEOUT_S} s") from None
    if code != 0:
        tail = (work / f"log-{tag}.txt").read_text(encoding="utf-8")[-2000:]
        raise InvocationError(f"{tag}: child exited with {code}\n{tail}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    if any(n != 1 for n in res["blas_threads"].values()):
        raise InvocationError(f"{tag}: BLAS threads {res['blas_threads']}, expected 1")
    return res


def end_to_end(results: list[dict]) -> dict[str, tuple[float, str]]:
    setups = [r["setup_s"] for r in results]
    walls = [r["wall_s"] for r in results]
    rates = [r["attempted"] / (r["wall_s"] - r["setup_s"]) for r in results]
    trial_times = [t for r in results for t in r["trial_s"]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "trials_per_s": (statistics.median(rates), "1/s"),
        "trial_s_p50": (statistics.median(trial_times), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def run_untraced(workload, work: Path, seed: int, seconds: float) -> tuple[list, dict]:
    """Invocations until ``seconds`` would be exceeded (at least
    MIN_INVOCATIONS), each with its own master seed."""
    results = []
    begin = time.monotonic()
    while True:
        index = len(results)
        results.append(invoke(workload, work, invocation_seed(seed, index), f"{index}", False))
        elapsed = time.monotonic() - begin
        typical = elapsed / len(results)
        if len(results) >= MIN_INVOCATIONS and elapsed + typical > seconds:
            return results, end_to_end(results)


def run_traced(workload, work: Path, seed: int) -> tuple[list, dict, list[str]]:
    """Two traced invocations of the run's first master seed, alternating with
    two untraced ones that give the tracing overhead."""
    master = invocation_seed(seed, 0)
    plain, traced = [], []
    for i in range(2):
        plain.append(invoke(workload, work, master, f"plain{i}", False))
        traced.append(invoke(workload, work, master, f"traced{i}", True))
    from tracing import COUNT_METRICS, LAYER_UNITS

    failures = [
        f"count {name} differs between traced runs: "
        f"{traced[0]['layers'][name]} != {traced[1]['layers'][name]}"
        for name in COUNT_METRICS
        if traced[0]["layers"][name] != traced[1]["layers"][name]
    ]
    metrics = {name: (value, LAYER_UNITS[name]) for name, value in traced[0]["layers"].items()}
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = (traced_wall / len(traced), "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_wall / sum(r["wall_s"] for r in plain) - 1.0), "%"
    )
    return [*plain, *traced], metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lowrank_oracle" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'lowrank_oracle'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            results, metrics, failures = run_traced(workload, work, args.seed)
        else:
            results, metrics = run_untraced(workload, work, args.seed, args.seconds)
            failures = []
    except InvocationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in results:
        failures.extend(f"invocation seed {r['seed']}: {msg}" for msg in r["failures"])
    summary = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(summary, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=failures, invocations=results,
                  nproc=os.cpu_count(), environment=SINGLE_THREAD_ENV)
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
