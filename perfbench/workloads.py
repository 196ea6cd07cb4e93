"""The benchmark's workloads: the experiment each one runs and how it is seeded.

A workload is one shipped subcommand (``verify`` or ``sweep``) on one fixed
experiment config.  One program invocation runs that subcommand once, in a
fresh single-threaded process; a benchmark run repeats invocations, each with
its own master seed derived from the benchmark's ``--seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1729
_MASK63 = (1 << 63) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    command: str    # CLI subcommand one invocation runs
    sections: dict  # INI sections: {section: {key: value}}

    def config_text(self) -> str:
        lines = []
        for section, keys in self.sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in keys.items())
            lines.append("")
        return "\n".join(lines)

    @property
    def trials_per_invocation(self) -> int:
        exp = self.sections["experiment"]
        if self.command == "verify":
            return exp["trials"]
        return exp["trials"] * (len(exp["ranks"].split()) + len(exp["eps_multiples"].split()))


def invocation_seed(seed: int, index: int) -> int:
    """Master seed of the ``index``-th invocation of a run seeded with ``seed``."""
    return (seed * 1_000_003 + index) & _MASK63


def _regression(m: int, n: int, epsilon: str, trials: int) -> dict:
    return {
        "design": {"type": "completion-basis", "m": m},
        "truth": {"rank": 2, "spectrum": "1.0 1.0", "sigma": 0.1, "kind": "regression"},
        "loss": {"name": "squared"},
        "constraint": {"variant": "operator-ball", "rho": 2.0},
        "solver": {"max_iters": 50000, "epsilon": epsilon},
        "bound": {"t": 3.0, "delta_reps": 1000},
        "experiment": {"n": n, "trials": trials},
    }


# Trials per invocation keep one invocation at 3-8 s, so that a run holds
# several set-ups to take the median of.  sweep-m10 has the settings of
# configs/sweep_example.ini except 100 trials per grid point instead of 50,
# so that one invocation is long enough to time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="completion-m40-r2",
            command="verify",
            sections=_regression(40, 32_000, "absolute:0.001", 6),
        ),
        Workload(
            name="threshold-m8-n1m",
            command="verify",
            sections=_regression(8, 1_000_000, "threshold:1.0", 3),
        ),
        Workload(
            name="sweep-m10",
            command="sweep",
            sections={
                "design": {"type": "completion-basis", "m": 10},
                "truth": {"rank": 2, "sigma": 0.1, "kind": "regression"},
                "loss": {"name": "squared"},
                "constraint": {"variant": "operator-ball", "rho": 2.0},
                "solver": {"max_iters": 50000, "epsilon": "absolute:0.02"},
                "bound": {"t": 3.0, "delta_reps": 1000},
                "experiment": {
                    "n": 600,
                    "trials": 100,
                    "ranks": "1 2 4",
                    "eps_multiples": "0.5 1.0 2.0 4.0",
                },
            },
        ),
    )
}
