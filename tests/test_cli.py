import configparser
import json
from pathlib import Path

import numpy as np
import pytest

from lowrank_oracle import (
    GaussianNoise,
    TruthModel,
    certify,
    load_matrix,
    mix_seed,
    orthonormal_basis_design,
    read_trials_csv,
    sample_dataset,
    save_dataset,
    save_matrix,
    validate_summary,
)
from lowrank_oracle.cli import _SECTION_KEYS, main, parse_config
from lowrank_oracle.errors import ValidationError
from lowrank_oracle.harness import TRIAL_COLUMNS, resolve_problem

SMALL_CONFIG = """
[design]
type = completion-basis
m = 4

[truth]
rank = 2
sigma = 0.1
kind = regression

[loss]
name = squared

[constraint]
variant = operator-ball
rho = 2.0

[solver]
max_iters = 20000
epsilon = absolute:0.05

[bound]
t = 3.0
delta_reps = 100

[experiment]
n = 100
trials = 4
seed = 41
ranks = 1 2
eps_multiples = 1.0 2.0
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.ini"
    path.write_text(SMALL_CONFIG)
    return path


def test_parse_config_values(config_file):
    config, data_paths, certify_tol = parse_config(config_file)
    assert config.m == 4
    assert config.trials == 4
    assert config.epsilon_rule == "absolute"
    assert config.epsilon_value == 0.05
    assert config.ranks == (1, 2)
    assert data_paths.dataset is None
    assert certify_tol == 1e-5


def strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name} holds the non-JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[design]\ntyp = completion-basis\n")
    with pytest.raises(ValidationError):
        parse_config(path)
    for section in _SECTION_KEYS:
        path.write_text(f"[{section}]\nbogus = 1\n")
        with pytest.raises(ValidationError, match=rf"unknown keys \['bogus'\] in \[{section}\]"):
            parse_config(path)
    path.write_text("[designs]\ntype = completion-basis\n")
    with pytest.raises(ValidationError):
        parse_config(path)
    path.write_text("[solver]\nepsilon = soft:1\n")
    with pytest.raises(ValidationError):
        parse_config(path)


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "nope.ini" in capsys.readouterr().err


def test_negative_epsilon_exits_one(tmp_path, capsys):
    path = tmp_path / "neg.ini"
    path.write_text("[solver]\nepsilon = absolute:-0.5\n")
    code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize(
    "command, key, name, text",
    [
        ("solve", "dataset", "data.csv", "j,atom_index,y\n0,1.5,0.2\n"),
        ("solve", "dataset", "data.csv", "j,atom_index,y\n0,1,nan\n"),
        ("certify", "estimate", "bad.mtx", "m 4\n1 0 0 0\n0 abc 0 0\n0 0 1 0\n0 0 0 1\n"),
        ("certify", "estimate", "small.mtx", "m 2\n1 0\n0 1\n"),
        ("certify", "estimate", "skew.mtx", "m 4\n1 2 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"),
        ("certify", "estimate", "long.mtx", "m 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n5 5 5 5\n"),
        ("certify", "estimate", "inf.mtx", "m 4\n1 0 0 0\n0 inf 0 0\n0 0 1 0\n0 0 0 1\n"),
        ("certify", "estimate", "empty.mtx", "m 0\n"),
        ("verify", "files", "skew-atom.mtx", "m 4\n0 1 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n"),
    ],
    ids=[
        "fractional-atom-index",
        "nan-response",
        "non-numeric-matrix-entry",
        "wrong-size-estimate",
        "non-symmetric-estimate",
        "extra-row",
        "non-finite-estimate",
        "zero-dimension",
        "non-symmetric-design-atom",
    ],
)
def test_malformed_input_file_exits_one(tmp_path, capsys, command, key, name, text):
    path = tmp_path / name
    path.write_text(text)
    config = tmp_path / "bad-input.ini"
    if key == "files":
        custom = f"type = custom\nfiles = {path}"
        config.write_text(SMALL_CONFIG.replace("type = completion-basis\nm = 4", custom))
    else:
        config.write_text(SMALL_CONFIG + f"\n[data]\n{key} = {path}\n")
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert name in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("bound", "t", "nan"),
        ("bound", "b", "nan"),
        ("bound", "c", "inf"),
        ("constraint", "a", "nan"),
        ("solver", "epsilon", "threshold:nan"),
        ("truth", "sigma", "-inf"),
        ("solver", "certify_tol", "-1e-5"),
    ],
)
def test_non_finite_or_negative_config_value_exits_one(tmp_path, capsys, section, key, raw):
    # every range check is false for nan, so these used to run: b = nan gave
    # rhs = nan and no violations, t = nan an uncaught traceback
    parser = configparser.ConfigParser()
    parser.read_string(SMALL_CONFIG)
    parser[section][key] = raw
    config = tmp_path / "bad-value.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert f"[{section}] {key}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_nonpositive_prediction_bound_exits_one(tmp_path, capsys, raw):
    # a = 0 used to fail in the threshold with a message naming neither the
    # key nor the cause, and a = -1 in the loss constants
    parser = configparser.ConfigParser()
    parser.read_string(SMALL_CONFIG)
    parser["constraint"]["a"] = raw
    config = tmp_path / "bad-a.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    code = main(["verify", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "[constraint] a" in err and "L(a) must be positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["verify", "bound"])
@pytest.mark.parametrize("epsilon", ["absolute:0.05", "threshold:1.0"])
def test_unconstrained_without_prediction_bound_names_the_key(tmp_path, capsys, command, epsilon):
    parser = configparser.ConfigParser()
    parser.read_string(SMALL_CONFIG)
    parser["constraint"] = {"variant": "none"}
    parser["solver"]["epsilon"] = epsilon
    config = tmp_path / "no-a.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    code = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: prediction bound undefined")
    assert "[constraint] a" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_usage_error_exits_one(capsys):
    assert main(["explode"]) == 1


def test_verify_writes_outputs(config_file, tmp_path, capsys):
    out = tmp_path / "verify-out"
    code = main(["verify", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    assert (out / "summary.json").is_file()
    assert (out / "trials.csv").is_file()
    assert (out / "violation_vs_c.dat").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trials"] == 4


def test_verify_deterministic_across_worker_counts(config_file, tmp_path):
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    assert main(["verify", "--config", str(config_file), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["verify", "--config", str(config_file), "--out", str(out2), "--workers", "2"]) == 0
    assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verbose_prints_one_json_line_per_trial(config_file, tmp_path, capsys, workers):
    quiet, verbose = tmp_path / "quiet", tmp_path / "verbose"
    assert main(["verify", "--config", str(config_file), "--out", str(quiet), "--workers", workers]) == 0
    capsys.readouterr()
    argv = ["verify", "--config", str(config_file), "--out", str(verbose), "--workers", workers]
    assert main([*argv, "--verbose"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    keys = {"trial", "converged", "iterations", "backtracks", "restarts", "wall_time"}
    assert all(set(line) == keys for line in lines)
    assert sorted(line["trial"] for line in lines) == [0, 1, 2, 3]
    records = {r.trial: r for r in read_trials_csv(verbose / "trials.csv")}
    for line in lines:
        assert isinstance(line["converged"], bool) and line["wall_time"] > 0
        record = records[line["trial"]]
        assert all(line[k] == getattr(record, k) for k in keys - {"wall_time"})
    for name in ("trials.csv", "summary.json"):
        assert (verbose / name).read_bytes() == (quiet / name).read_bytes()


def test_seed_override_changes_results_deterministically(config_file, tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    assert main(["verify", "--config", str(config_file), "--out", str(outs[0]), "--seed", "7"]) == 0
    assert main(["verify", "--config", str(config_file), "--out", str(outs[1]), "--seed", "7"]) == 0
    assert main(["verify", "--config", str(config_file), "--out", str(outs[2]), "--seed", "8"]) == 0
    first = (outs[0] / "trials.csv").read_bytes()
    assert first == (outs[1] / "trials.csv").read_bytes()
    assert first != (outs[2] / "trials.csv").read_bytes()


def test_solve_writes_estimate_and_summary(config_file, tmp_path):
    out = tmp_path / "solve-out"
    code = main(["solve", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["converged"]
    assert payload["epsilon"] == 0.05
    estimate = load_matrix(out / "estimate.mtx")
    assert estimate.shape == (4, 4)
    assert payload["nuclear_norm"] >= 0


def test_solve_with_dataset_file(config_file, tmp_path):
    design = orthonormal_basis_design(4)
    rng = np.random.default_rng(2)
    truth = TruthModel(s_star=np.diag([1.0, 1.0, 0.0, 0.0]), noise=GaussianNoise(0.1))
    data = sample_dataset(design, truth, 80, seed=5)
    data_path = tmp_path / "data.csv"
    save_dataset(data_path, data)
    config = tmp_path / "with-data.ini"
    config.write_text(SMALL_CONFIG + f"\n[data]\ndataset = {data_path}\n")
    out = tmp_path / "solve-data"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads((out / "solve.json").read_text())["n"] == 80


def test_certify_solved_estimate(config_file, tmp_path):
    out_solve = tmp_path / "s"
    assert main(["solve", "--config", str(config_file), "--out", str(out_solve)]) == 0
    config = tmp_path / "cert.ini"
    config.write_text(SMALL_CONFIG + f"\n[data]\nestimate = {out_solve / 'estimate.mtx'}\n")
    out = tmp_path / "c"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "certify.json").read_text())
    assert payload["certified"]
    assert payload["kkt_low"] <= 1e-5


def test_certify_json_matches_solver_certificate(config_file, tmp_path):
    out_solve = tmp_path / "s"
    assert main(["solve", "--config", str(config_file), "--out", str(out_solve)]) == 0
    config = tmp_path / "cert.ini"
    config.write_text(SMALL_CONFIG + f"\n[data]\nestimate = {out_solve / 'estimate.mtx'}\n")
    out = tmp_path / "c"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "certify.json").read_text())

    parsed, _, certify_tol = parse_config(config)
    design, truth, loss, constraint, solver_config, _ = resolve_problem(parsed)
    data = sample_dataset(design, truth, parsed.n, mix_seed(parsed.seed, 0))
    cert = certify(
        load_matrix(out_solve / "estimate.mtx"), data, loss, solver_config.epsilon,
        constraint, tol=certify_tol,
    )
    assert payload["kkt_low"] == cert.kkt_low
    assert payload["kkt_excess"] == cert.kkt_excess
    assert payload["feasible"] == cert.feasible
    assert payload["certified"] == cert.certified


def test_solve_and_certify_unconstrained_absolute_without_prediction_bound(tmp_path):
    config = tmp_path / "none.ini"
    config.write_text(
        SMALL_CONFIG.replace("variant = operator-ball\nrho = 2.0", "variant = none")
    )
    out = tmp_path / "none-out"
    assert main(["solve", "--config", str(config), "--out", str(out), "--strict"]) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert payload["constraint"] == "none"
    assert payload["epsilon"] == 0.05
    assert main(["certify", "--config", str(config), "--out", str(out), "--strict"]) == 0
    assert json.loads((out / "certify.json").read_text())["certified"]
    # the bound needs the prediction bound a, which an unconstrained set lacks
    assert main(["bound", "--config", str(config), "--out", str(out)]) == 1


def test_certify_rejects_bad_estimate(config_file, tmp_path):
    bad = tmp_path / "bad.mtx"
    save_matrix(bad, np.diag([1.0, -1.0, 0.5, 0.0]))
    config = tmp_path / "cert-bad.ini"
    config.write_text(SMALL_CONFIG + f"\n[data]\nestimate = {bad}\n")
    out = tmp_path / "cb"
    assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
    assert not json.loads((out / "certify.json").read_text())["certified"]
    assert main(["certify", "--config", str(config), "--out", str(out), "--strict"]) == 2


def test_delta_subcommand(config_file, tmp_path):
    out = tmp_path / "delta-out"
    assert main(["delta", "--config", str(config_file), "--out", str(out)]) == 0
    payload = json.loads((out / "delta.json").read_text())
    assert payload["bernstein_dominates"]
    assert payload["delta"] > 0
    assert payload["reps"] == 100


def test_bound_subcommand(config_file, tmp_path):
    out = tmp_path / "bound-out"
    assert main(["bound", "--config", str(config_file), "--out", str(out)]) == 0
    payload = json.loads((out / "bound.json").read_text())
    assert set(payload) == set(TRIAL_COLUMNS) | {
        "epsilon", "epsilon_threshold", "delta", "beta", "a", "smoothness", "curvature",
        "q_bound", "t", "b_const", "c_const", "d_thresh",
    }
    assert payload["rhs"] == pytest.approx(
        payload["oracle_excess"] + payload["min_term"] + payload["residual_term"]
    )


def test_sweep_subcommand(config_file, tmp_path):
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert [row["rank"] for row in payload["rank_rows"]] == [1, 2]
    assert len(payload["eps_rows"]) == 2
    rank_lines = (out / "error_vs_rank.dat").read_text().splitlines()
    assert len(rank_lines) == 2
    eps_lines = (out / "error_vs_eps.dat").read_text().splitlines()
    assert len(eps_lines) == 2


def test_sweep_with_one_trial_writes_strict_json(tmp_path):
    config = tmp_path / "one.ini"
    config.write_text(SMALL_CONFIG.replace("trials = 4", "trials = 1"))
    out = tmp_path / "one-out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    payload = strict_json(out / "sweep.json")
    # one trial has no standard error
    assert [row["stderr"] for row in payload["rank_rows"]] == [None, None]


def test_verify_without_converged_trials_writes_strict_json(tmp_path):
    config = tmp_path / "short.ini"
    config.write_text(SMALL_CONFIG.replace("max_iters = 20000", "max_iters = 1"))
    out = tmp_path / "short-out"
    assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
    summary = strict_json(out / "summary.json")
    validate_summary(summary)
    assert summary["converged"] == 0
    assert summary["mean_error"] is None
    assert set(summary["error_quantiles"].values()) == {None}


def test_strict_mode_flags_nonconvergence(config_file, tmp_path):
    config = tmp_path / "short.ini"
    config.write_text(SMALL_CONFIG.replace("max_iters = 20000", "max_iters = 1"))
    out = tmp_path / "strict"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert main(["solve", "--config", str(config), "--out", str(out), "--strict"]) == 2


def test_custom_design_from_matrix_files(tmp_path):
    for i, mat in enumerate(
        (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    ):
        save_matrix(tmp_path / f"atom{i}.mtx", mat)
    files = " ".join(str(tmp_path / f"atom{i}.mtx") for i in range(3))
    config = tmp_path / "custom.ini"
    # a rank-0 truth has compatibility constant exactly 0
    for rank in (1, 0):
        config.write_text(
            f"""
[design]
type = custom
files = {files}
probs = 0.4 0.4 0.2

[truth]
rank = {rank}
sigma = 0.05

[solver]
epsilon = absolute:0.05

[experiment]
n = 60
trials = 2
seed = 3
"""
        )
        out = tmp_path / f"custom-out-{rank}"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["beta_kind"] == "sampled-lower-bound"
        assert (summary["beta"] == 0.0) == (rank == 0)


def test_writes_stay_inside_output_directory(config_file, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only-out"
    assert main(["verify", "--config", str(config_file), "--out", str(out)]) == 0
    assert list(workdir.iterdir()) == []
    assert sorted(p.name for p in out.iterdir()) == [
        "summary.json",
        "trials.csv",
        "violation_vs_c.dat",
    ]


def test_shipped_example_config_runs(tmp_path):
    out = tmp_path / "shipped"
    code = main(["verify", "--config", "configs/verify_example.ini", "--out", str(out), "--workers", "2"])
    assert code == 0
    assert (out / "summary.json").is_file()


def test_shipped_m200_config_runs_at_reduced_size(tmp_path):
    # configs/verify_m200.ini with n = 2e5 and 50 Rademacher repetitions:
    # one trial on the K = 20 100 atom basis design, whose dense atoms
    # alone would take 6.4 GB
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parent.parent / "configs" / "verify_m200.ini")
    assert parser["design"]["m"] == "200" and parser["experiment"]["trials"] == "1"
    parser["experiment"]["n"] = "200000"
    parser["bound"]["delta_reps"] = "50"
    config = tmp_path / "m200.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    out = tmp_path / "out"
    assert main(["verify", "--config", str(config), "--out", str(out), "--workers", "1"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["m"] == 200 and summary["trials"] == 1
    assert summary["converged"] == 1 and summary["nonconverged"] == 0
