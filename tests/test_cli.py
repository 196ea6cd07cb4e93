import configparser
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lowrank_oracle import (
    GaussianNoise,
    TruthModel,
    certify,
    load_matrix,
    mix_seed,
    orthonormal_basis_design,
    sample_dataset,
    save_matrix,
)
from lowrank_oracle import cli, harness, solver
from lowrank_oracle.cli import _SECTION_KEYS, main, parse_config
from lowrank_oracle.errors import ValidationError
from lowrank_oracle.harness import (
    TRIAL_COLUMNS,
    ExperimentConfig,
    _openblas_thread_controls,
    resolve_problem,
)

from helpers import read_trials_csv, save_dataset, validate_summary

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
    config = parse_config(config_file)
    assert config.m == 4
    assert config.trials == 4
    assert config.epsilon_rule == "absolute"
    assert config.epsilon_value == 0.05
    assert config.ranks == (1, 2)
    assert config.dataset is None
    assert config.certify_tol == 1e-5


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


# the INI keys, one (section, key) each; [solver] epsilon sets two fields
INI_KEYS = {
    ("design", "type"), ("design", "m"), ("design", "files"), ("design", "probs"),
    ("truth", "rank"), ("truth", "spectrum"), ("truth", "sigma"), ("truth", "kind"),
    ("loss", "name"),
    ("constraint", "variant"), ("constraint", "rho"), ("constraint", "a"),
    ("solver", "max_iters"), ("solver", "grad_tol"), ("solver", "epsilon"),
    ("solver", "certify_tol"),
    ("bound", "t"), ("bound", "b"), ("bound", "c"), ("bound", "d"), ("bound", "delta_reps"),
    ("experiment", "n"), ("experiment", "trials"), ("experiment", "seed"),
    ("experiment", "ranks"), ("experiment", "eps_multiples"),
    ("data", "dataset"), ("data", "estimate"),
}


def test_every_setting_has_exactly_one_ini_key():
    keys = {}
    for f in dataclasses.fields(ExperimentConfig):
        section, key = f.metadata["ini"]
        keys.setdefault((section, key), []).append(f.name)
    assert set(keys) == INI_KEYS
    shared = {key: names for key, names in keys.items() if len(names) > 1}
    assert shared == {("solver", "epsilon"): ["epsilon_rule", "epsilon_value"]}
    assert cli._CONFIG_KEYS == {key: tuple(names) for key, names in keys.items()}


def config_ini(config: ExperimentConfig) -> str:
    """``config`` written out as INI through its fields' metadata; a None
    setting is left out, which reads back as its default None."""
    sections = {}
    for f in dataclasses.fields(config):
        section, key = f.metadata["ini"]
        value = getattr(config, f.name)
        if value is None or f.name == "epsilon_rule":
            continue
        if f.name == "epsilon_value":
            text = f"{config.epsilon_rule}:{value}"
        elif isinstance(value, tuple):
            text = " ".join(map(str, value))
        else:
            text = str(value)
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    return "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())


@st.composite
def experiment_configs(draw):
    """Valid ExperimentConfigs over every field type, None and empty tuples
    included."""
    nonnegative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    word = st.text("abcXYZ019._/-", min_size=1, max_size=8)
    rank = draw(st.integers(0, 5))
    design_type = draw(st.sampled_from(["completion-basis", "custom"]))
    custom = design_type == "custom"
    return ExperimentConfig(
        m=draw(st.integers(1, 10**6)),
        n=draw(st.integers(1, 2**63 - 1)),
        trials=draw(st.integers(1, 10**4)),
        truth_rank=rank,
        truth_spectrum=draw(st.just(()) | st.tuples(*[finite] * rank)),
        noise_sigma=draw(nonnegative),
        noise_kind=draw(st.sampled_from(["regression", "classification"])),
        loss_name=draw(st.sampled_from(["squared", "exponential"])),
        constraint_kind=draw(st.sampled_from(["none", "operator-ball", "frobenius-ball"])),
        constraint_rho=draw(nonnegative),
        prediction_bound_override=draw(st.none() | positive),
        epsilon_rule=draw(st.sampled_from(["threshold", "absolute"])),
        epsilon_value=draw(nonnegative),
        t=draw(nonnegative),
        b_const=draw(positive),
        c_const=draw(positive),
        d_thresh=draw(positive),
        delta_reps=draw(st.integers(1, 10**6)),
        max_iters=draw(st.integers(1, 10**6)),
        grad_tol=draw(st.none() | positive),
        certify_tol=draw(nonnegative),
        seed=draw(st.integers(0, 2**64 - 1)),
        ranks=tuple(draw(st.lists(st.integers(0, 50), max_size=4, unique=True))),
        eps_multiples=tuple(draw(st.lists(nonnegative, max_size=4, unique=True))),
        design_type=design_type,
        # files and probs are refused without a custom design
        design_files=tuple(draw(st.lists(word, min_size=custom, max_size=3 * custom))),
        design_probs=tuple(draw(st.lists(finite, max_size=3 * custom))),
        dataset=draw(st.none() | word),
        estimate=draw(st.none() | word),
    )


@settings(max_examples=60, deadline=None)
@given(experiment_configs())
@example(ExperimentConfig())
@example(ExperimentConfig(
    truth_rank=0, ranks=(), eps_multiples=(), design_type="custom", design_files=("a.mtx",),
    grad_tol=1e-9, prediction_bound_override=0.5, dataset="d.csv", estimate="e.mtx",
))
def test_config_round_trips_through_its_ini_keys(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("ini") / "config.ini"
    path.write_text(config_ini(config))
    parsed = parse_config(path)
    assert parsed == config
    assert repr(parsed) == repr(config)  # and of the same types: 1.0 == 1


def test_readme_config_format_names_exactly_the_config_keys():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in block.splitlines():
        if not line.startswith("    "):
            continue
        line = line.strip()
        if line.startswith("["):
            section, _, line = line[1:].partition("]")
        line = re.sub(r"\([^)]*\)", "", line)  # a parenthetical remark names no key
        keys = {part.partition("=")[0].strip() for part in line.split(",")} - {""}
        documented.setdefault(section, set()).update(keys)
    assert documented == cli._SECTION_KEYS


@pytest.mark.parametrize(
    "text, key",
    [("[DEFAULT]\ntrials = 0\n", "trials"), ("[DEFAULT]\nm = 4\n\n[experiment]\nn = 100\n", "m")],
    ids=["only-default", "default-next-to-a-section"],
)
def test_default_section_is_refused(tmp_path, capsys, text, key):
    # configparser copies [DEFAULT] into every section: trials = 0 alone used
    # to parse to the default 200, and m = 4 to be refused as a key of
    # [experiment]
    path = tmp_path / "default.ini"
    path.write_text(text)
    with pytest.raises(ValidationError, match=rf"keys \['{key}'\] in \[DEFAULT\]"):
        parse_config(path)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config") and "[DEFAULT]" in err and f"'{key}'" in err
    assert not (tmp_path / "o").exists()


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "nope.ini" in capsys.readouterr().err


def test_non_utf8_config_exits_one(tmp_path, capsys):
    # configparser used to raise UnicodeDecodeError through to a traceback
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[design]\nm = 8\n# caf\xe9\n")
    assert main(["delta", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and str(path) in err and "UTF-8" in err
    assert not (tmp_path / "o").exists()


def test_unreadable_config_exits_one(tmp_path, capsys, monkeypatch):
    # ConfigParser.read skips a file it cannot open and runs the defaults.
    # open is patched, since file permissions do not stop root
    path = tmp_path / "locked.ini"
    path.write_text(SMALL_CONFIG)

    def locked(file, *args, **kwargs):
        if Path(file) == path:
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", locked, raising=False)
    assert main(["delta", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config file") and str(path) in err and "Permission denied" in err
    assert not (tmp_path / "o").exists()


def test_repeated_rank_is_refused(tmp_path, capsys):
    # a sweep keys its points by rank: ranks = 1 1 2 wrote two rank rows
    with pytest.raises(ValidationError, match="repeats a rank"):
        ExperimentConfig(ranks=(1, 1, 2))
    with pytest.raises(ValidationError, match="repeats a rank"):
        harness.rank_sweep(ExperimentConfig(), ranks=(2, 2))
    path = tmp_path / "ranks.ini"
    path.write_text(SMALL_CONFIG.replace("ranks = 1 2", "ranks = 1 1 2"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config [experiment] ranks") and "repeats a rank" in err
    assert not (tmp_path / "o").exists()


def test_repeated_eps_multiple_is_refused(tmp_path, capsys):
    # eps_multiples = 1.0 1.0 solved the same epsilon point twice
    with pytest.raises(ValidationError, match="repeats a multiple"):
        ExperimentConfig(eps_multiples=(1.0, 2.0, 1.0))
    with pytest.raises(ValidationError, match="repeats a multiple"):
        harness.epsilon_sweep(ExperimentConfig(), multiples=(0.5, 0.5))
    path = tmp_path / "multiples.ini"
    path.write_text(SMALL_CONFIG.replace("eps_multiples = 1.0 2.0", "eps_multiples = 1.0 1.0"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config [experiment] eps_multiples") and "repeats a multiple" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed, valid", [(0, True), (2**64 - 1, True), (-1, False), (2**64, False)])
def test_master_seed_must_be_an_unsigned_64_bit_integer(tmp_path, capsys, seed, valid):
    # mix_seed reduces the seed mod 2^64: -5 and 2^64 - 5 ran the same trials
    # but reported different seeds
    if valid:
        assert ExperimentConfig(seed=seed).seed == seed
        return
    with pytest.raises(ValidationError, match=r"must lie in \[0, 2\^64 - 1\]"):
        ExperimentConfig(seed=seed)
    path = tmp_path / "seed.ini"
    path.write_text(SMALL_CONFIG.replace("seed = 41", f"seed = {seed}"))
    flag = tmp_path / "flag.ini"
    flag.write_text(SMALL_CONFIG)
    for argv in (["--config", str(path)], ["--config", str(flag), f"--seed={seed}"]):
        assert main(["bound", *argv, "--out", str(tmp_path / "o")]) == 1
        assert f"error: master seed {seed} " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("variant", ["none", "operator-ball", "frobenius-ball"])
def test_negative_radius_names_the_key(tmp_path, capsys, variant):
    # a ball used to fail in its own constructor with a message naming
    # neither the key nor its section, and variant = none took rho = -1
    parser = configparser.ConfigParser()
    parser.read_string(SMALL_CONFIG)
    parser["constraint"] = {"variant": variant, "rho": "-1", "a": "2.0"}
    config = tmp_path / "bad-rho.ini"
    with open(config, "w") as fh:
        parser.write(fh)
    with pytest.raises(ValidationError, match=r"\[constraint\] rho = -1.0 must be nonnegative"):
        parse_config(config)
    code = main(["solve", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: config [constraint] rho")
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMANDS = ("solve", "certify", "delta", "bound", "verify", "sweep")


def _refuse_work(monkeypatch):
    # a setting refused with the config must fail before Delta or any trial
    def work(*args, **kwargs):
        raise AssertionError("a refused setting ran Delta or a trial")

    monkeypatch.setattr(harness, "estimate_rademacher_norm", work)
    monkeypatch.setattr(harness, "_run_trial", work)


def _write_config(path, base, section, key, raw):
    parser = configparser.ConfigParser()
    parser.read_string(base)
    parser[section][key] = raw
    with open(path, "w") as fh:
        parser.write(fh)
    return path


@pytest.mark.parametrize(
    "section, key, raw, message",
    [
        ("bound", "b", "-1", "config [bound] b = -1.0 must be positive"),
        ("bound", "c", "0", "config [bound] c = 0.0 must be positive"),
        ("bound", "d", "0", "config [bound] d = 0.0 must be positive"),
        ("solver", "max_iters", "0", "max_iters must be at least 1"),
        ("solver", "grad_tol", "0", "grad_tol must be positive"),
        ("experiment", "eps_multiples", "0.5 -1.0", "eps_multiples = (0.5, -1.0) must be nonnegative"),
        ("experiment", "n", "10000000000000000000", "n = 10000000000000000000 exceeds 2^63 - 1"),
        ("design", "files", "nope.mtx", "config [design] files needs type = custom, not completion-basis"),
        ("design", "probs", "0.3 0.7", "config [design] probs needs type = custom, not completion-basis"),
    ],
    ids=["b", "c", "d", "max_iters", "grad_tol", "eps_multiples", "n", "files", "probs"],
)
def test_bad_setting_is_refused_by_every_subcommand_before_any_work(
    tmp_path, capsys, monkeypatch, section, key, raw, message
):
    # solve, certify and delta used to accept b = -1, and delta d = 0; a
    # negative multiple failed only after the rank sweep and its first point
    _refuse_work(monkeypatch)
    config = _write_config(tmp_path / "bad.ini", SMALL_CONFIG, section, key, raw)
    errors = set()
    for command in COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()
        errors.add(err)
    assert len(errors) == 1
    assert message in errors.pop()


@pytest.mark.parametrize("epsilon", ["threshold:1.0", "absolute:0.05"])
def test_exponential_loss_on_regression_is_refused_before_delta(
    tmp_path, capsys, monkeypatch, epsilon
):
    # the exponential loss's closed form L = 1 + a e^a, tau = e^-a holds for
    # labels in {-1, +1}; on continuous responses its curvature infimum is 0.
    # m = 6, sigma = 1.0, n = 2000 used to exit 0 with smoothness 48.85 and
    # curvature 0.0591.  Every command that needs the constants refuses it;
    # solve and certify need them under the threshold rule only
    _refuse_work(monkeypatch)
    base = SMALL_CONFIG.replace("absolute:0.05", epsilon).replace("sigma = 0.1", "sigma = 1.0")
    config = _write_config(tmp_path / "exp.ini", base, "loss", "name", "exponential")
    commands = ("bound", "verify", "sweep")
    if epsilon.startswith("threshold"):
        commands = ("solve", "certify", *commands)
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(
            "error: config [loss] name = exponential assumes responses in {-1, +1}, "
            "but [truth] kind = regression draws others"
        ), err
        assert not out.exists()
    # labels are what it is for
    labels = _write_config(tmp_path / "labels.ini", base, "truth", "kind", "classification")
    monkeypatch.undo()
    assert main(["bound", "--config", str(labels), "--out", str(tmp_path / "labels")]) == 0


def test_n_beyond_int64_is_refused(tmp_path, capsys):
    # numpy draws the counts as int64: n = 10^19 used to die in
    # Generator.multinomial with an OverflowError traceback
    base = (CONFIGS / "verify_labels.ini").read_text()
    config = _write_config(tmp_path / "huge.ini", base, "experiment", "n", "10000000000000000000")
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config [experiment] n = 10000000000000000000")
    assert "9223372036854775807" in err


def test_int_beyond_float_range_is_refused(tmp_path, capsys):
    # the parser's finiteness check used to convert n = 10^400 to float and
    # end in an OverflowError traceback
    config = _write_config(tmp_path / "huge.ini", SMALL_CONFIG, "experiment", "n", "1" + "0" * 400)
    assert main(["delta", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config [experiment] n = 1000")
    assert "Traceback" not in err


def test_negative_eps_multiple_runs_no_trial(tmp_path, capsys, monkeypatch):
    # the sweep used to run its rank points and the 0.5 point, then fail
    _refuse_work(monkeypatch)
    base = (CONFIGS / "sweep_example.ini").read_text()
    config = _write_config(tmp_path / "neg.ini", base, "experiment", "eps_multiples", "0.5 -1.0")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "eps_multiples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    config = parse_config(CONFIGS / "sweep_example.ini")
    with pytest.raises(ValidationError, match="must be nonnegative"):
        harness.epsilon_sweep(config, multiples=(0.5, -1.0), workers=1)


def test_rank_above_the_design_is_refused_before_delta(tmp_path, capsys, monkeypatch):
    # sweep on the m = 200 config with ranks 1 and 201 used to fail only
    # after Delta, 6.5 s in: the ranks are checked once the design is built
    _refuse_work(monkeypatch)
    base = (CONFIGS / "verify_m200.ini").read_text()
    config = _write_config(tmp_path / "ranks.ini", base, "experiment", "ranks", "1 201")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truth rank 201 exceeds the design dimension 200")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("binary", [False, True], ids=["missing", "binary"])
@pytest.mark.parametrize("command, key", [("delta", "files"), ("solve", "dataset"), ("certify", "estimate")])
def test_missing_or_undecodable_input_file_exits_one(tmp_path, capsys, command, key, binary):
    # open's FileNotFoundError, and a matrix file's UnicodeDecodeError, used
    # to end the run in a traceback
    missing = tmp_path / "missing1.mtx"
    if binary:
        missing.write_bytes(b"\xff\xfe\x00 not text")
    config = tmp_path / "missing.ini"
    if key == "files":
        custom = f"type = custom\nfiles = {missing}"
        config.write_text(SMALL_CONFIG.replace("type = completion-basis\nm = 4", custom))
    else:
        config.write_text(SMALL_CONFIG + f"\n[data]\n{key} = {missing}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {missing}: " + ("expected header" if binary else "No such file"))
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
@pytest.mark.parametrize("command", ["solve", "certify", "delta", "bound", "verify", "sweep"])
def test_unusable_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, below):
    # verify --out <file>/x used to run every trial and then fail in mkdir,
    # and delta --out <file> after Delta.  Under the threshold rule every
    # subcommand runs Delta first
    _refuse_work(monkeypatch)
    config = tmp_path / "threshold.ini"
    config.write_text(SMALL_CONFIG.replace("absolute:0.05", "threshold:1.0"))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "x" if below else taken
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: {taken} is not a directory")
    assert "Traceback" not in err
    assert taken.read_text() == "kept"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["taken", "threshold.ini"]


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", COMMANDS)
def test_workers_below_one_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, workers):
    # verify --workers 0 used to run Delta first and fail only in run_trials;
    # the other subcommands, which run no pool, accepted it
    _refuse_work(monkeypatch)
    config = tmp_path / "threshold.ini"
    config.write_text(SMALL_CONFIG.replace("absolute:0.05", "threshold:1.0"))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out), "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err == f"error: workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_custom_design_rank_is_checked_against_its_atoms(tmp_path, capsys, monkeypatch):
    # three 12 x 12 atoms with m unset (10): rank 11 used to be refused
    # against m.  It is checked against the atoms' dimension, so rank 11
    # solves and rank 13 is refused by every subcommand before any work
    rng = np.random.default_rng(12)
    files = []
    for i in range(3):
        raw = rng.standard_normal((12, 12))
        files.append(str(tmp_path / f"atom{i}.mtx"))
        save_matrix(files[-1], (raw + raw.T) / 2)
    base = f"""
[design]
type = custom
files = {" ".join(files)}

[truth]
rank = 11
sigma = 0.05

[solver]
epsilon = absolute:0.05

[experiment]
n = 60
trials = 1
seed = 3
"""
    config = tmp_path / "rank11.ini"
    config.write_text(base)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "solved")]) == 0
    assert json.loads((tmp_path / "solved" / "solve.json").read_text())["converged"]
    _refuse_work(monkeypatch)
    config = _write_config(tmp_path / "rank13.ini", base, "truth", "rank", "13")
    for command in COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error: truth rank 13 exceeds the design dimension 12"), command
        assert not out.exists()


def test_delta_and_verify_report_the_same_stopped_delta(tmp_path):
    # m = 40, n = 32 000: Delta stops before its cap of 1000 repetitions,
    # and the delta command and plan resolution share that stop
    parser = configparser.ConfigParser()
    parser.read_string(SMALL_CONFIG)
    parser["design"]["m"] = "40"
    parser["experiment"]["n"] = "32000"
    parser["experiment"]["trials"] = "1"
    parser["bound"]["delta_reps"] = "1000"
    config = tmp_path / "m40.ini"
    with open(config, "w", encoding="utf-8") as fh:
        parser.write(fh)
    for command in ("delta", "verify"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    delta = json.loads((tmp_path / "delta" / "delta.json").read_text())
    summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
    assert 0 < summary["delta_reps"] == delta["reps"] < 1000
    assert summary["delta"] == delta["delta"]
    assert summary["delta_stderr"] == delta["stderr"] <= 2e-3 * delta["delta"]


def test_usage_error_exits_one(capsys):
    assert main(["explode"]) == 1


def test_help_lists_every_subcommand():
    text = cli.build_parser().format_help()
    for name, command in cli._COMMANDS.items():
        assert f"  {name:<8} {command.__doc__}\n" in text


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


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_no_process_pool_without_workers(config_file, tmp_path, monkeypatch, command):
    # serial is the default; --workers 2 runs the pool and writes the same bytes
    import concurrent.futures

    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    assert main([command, "--config", str(config_file), "--out", str(pooled), "--workers", "2"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main([command, "--config", str(config_file), "--out", str(serial)]) == 0
    names = sorted(path.name for path in pooled.iterdir())
    assert names == sorted(path.name for path in serial.iterdir()) and names
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def test_summary_with_oracle_rows_deterministic_across_worker_counts(tmp_path):
    config = tmp_path / "threshold.ini"
    config.write_text(SMALL_CONFIG.replace("epsilon = absolute:0.05", "epsilon = threshold:1.0"))
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert main(["verify", "--config", str(config), "--out", str(out), "--workers", str(workers)]) == 0
    summary = json.loads((outs[0] / "summary.json").read_text())
    assert summary["epsilon_rule"] == "threshold"
    assert [row["label"] for row in summary["oracles"]] == ["truth", "rank-0", "rank-1"]
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_shipped_sharpness_config_bounds_every_truncation(tmp_path):
    # the full-rank truth's truncations carry large approximation errors;
    # with that error at constant one, no trial exceeds its bound at any of them
    out = tmp_path / "sharpness"
    config = Path(__file__).resolve().parent.parent / "configs" / "verify_sharpness.ini"
    argv = ["verify", "--config", str(config), "--out", str(out), "--workers", "1"]
    assert main(argv) == 0
    rows = json.loads((out / "summary.json").read_text())["oracles"]
    assert [row["label"] for row in rows] == ["truth"] + [f"rank-{r}" for r in range(8)]
    assert all(row["converged"] == 100 for row in rows)
    assert all(row["max_gap"] < 0 for row in rows)
    assert min(row["oracle_excess"] for row in rows[1:]) > 1e-3


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


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_threshold_epsilon_refuses_a_dataset_of_another_size(tmp_path, capsys, monkeypatch, command):
    # the threshold epsilon d L(a) Delta / sqrt(n) is taken at [experiment] n:
    # on an 80-sample file solve.json used to read "n": 80 with epsilon 3.833
    # at n = 80, 1.949 at n = 300 and 0.106 at n = 100 000
    design = orthonormal_basis_design(4)
    truth = TruthModel(s_star=np.diag([1.0, 1.0, 0.0, 0.0]), noise=GaussianNoise(0.1))
    data_path = tmp_path / "data.csv"
    save_dataset(data_path, sample_dataset(design, truth, 80, seed=5))
    base = SMALL_CONFIG + f"\n[data]\ndataset = {data_path}\n"
    threshold = base.replace("absolute:0.05", "threshold:1.0")
    config = _write_config(tmp_path / "threshold.ini", threshold, "experiment", "n", "300")
    out = tmp_path / "refused"
    _refuse_work(monkeypatch)
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {data_path}: 80 samples, but the threshold epsilon is taken at "
        "[experiment] n = 300"
    ), err
    assert not out.exists()
    monkeypatch.undo()
    # at the dataset's own size it runs; under the absolute rule n is unused
    matching = _write_config(tmp_path / "matching.ini", threshold, "experiment", "n", "80")
    absolute = _write_config(tmp_path / "absolute.ini", base, "experiment", "n", "300")
    for path in (matching, absolute):
        out = tmp_path / path.stem
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert (out / f"{command}.json").exists()


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

    parsed = parse_config(config)
    design, truth, loss, constraint, solver_config, _ = resolve_problem(parsed)
    data = sample_dataset(design, truth, parsed.n, mix_seed(parsed.seed, 0))
    cert = certify(
        load_matrix(out_solve / "estimate.mtx"), data, loss, solver_config.epsilon,
        constraint, tol=parsed.certify_tol,
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


@pytest.mark.parametrize("command", COMMANDS)
def test_solving_subcommands_run_one_blas_thread(tmp_path, monkeypatch, command):
    # the whole command runs as verify's trials do, problem set-up and Delta
    # included, so that no result depends on the BLAS thread count; the
    # process runs two threads before and after.  Under the threshold rule
    # every subcommand computes Delta; delta used to run it at the process
    # default, and so did verify and sweep while resolving their plan
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    seen = {"delta": [], "solve": []}

    def spy(name, real):
        def spied(*args, **kwargs):
            seen[name].append([getter() for _, getter in controls])
            return real(*args, **kwargs)

        return spied

    solve_spy = spy("solve", solver.solve)
    monkeypatch.setattr(cli, "solve", solve_spy)
    monkeypatch.setattr(harness, "solve", solve_spy)  # bound solves in harness._run_trial
    monkeypatch.setattr(
        harness, "estimate_rademacher_norm", spy("delta", harness.estimate_rademacher_norm)
    )
    config = tmp_path / "threshold.ini"
    config.write_text(SMALL_CONFIG.replace("absolute:0.05", "threshold:1.0"))
    saved = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(2)
    try:
        assert [getter() for _, getter in controls] == [2] * len(controls)
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert [getter() for _, getter in controls] == [2] * len(controls)
    finally:
        for (setter, _), count in zip(controls, saved):
            setter(count)
    assert len(seen["delta"]) == 1 and bool(seen["solve"]) == (command != "delta"), seen
    assert all(count == 1 for counts in (*seen["delta"], *seen["solve"]) for count in counts), seen


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


def test_sweep_resolves_one_plan_and_one_delta(config_file, tmp_path, monkeypatch):
    # the rank and epsilon sweeps each resolved a plan, so Delta ran twice;
    # the epsilon sweep now takes the rank sweep's plan and writes the rows
    # it wrote from its own
    config = parse_config(config_file)
    separate = harness.epsilon_sweep(config, workers=1)
    calls = []
    for name in ("resolve_plan", "estimate_rademacher_norm"):
        original = getattr(harness, name)
        monkeypatch.setattr(
            harness, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k)
        )
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--workers", "1"]) == 0
    assert sorted(calls) == ["estimate_rademacher_norm", "resolve_plan"]
    payload = json.loads((out / "sweep.json").read_text())
    assert payload["eps_rows"] == json.loads(json.dumps(harness._null_nonfinite(list(separate))))
    # a plan of another problem is refused, not swept
    other = harness.resolve_plan(dataclasses.replace(config, seed=config.seed + 1))
    with pytest.raises(ValidationError, match="another config"):
        harness.epsilon_sweep(config, workers=1, plan=other)


def test_verify_scans_for_openblas_once(config_file, tmp_path, monkeypatch):
    # the command's scope pins the BLAS; run_trials' scope inside it neither
    # scans the loaded libraries again nor re-pins them
    calls = []
    controls = harness._openblas_thread_controls
    monkeypatch.setattr(harness, "_openblas_thread_controls", lambda: calls.append(1) or controls())
    assert main(["verify", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_squared_loss_verify_builds_no_quadrature(config_file, tmp_path, monkeypatch):
    # a loss quadratic in the response takes every risk from each atom's
    # response mean and variance: Bayes risks, oracles and each trial's lhs
    from lowrank_oracle import designs

    def no_nodes(num):
        raise AssertionError("a squared-loss run built the quadrature law")

    monkeypatch.setattr(designs, "_legendre_nodes", no_nodes)
    assert main(["verify", "--config", str(config_file), "--out", str(tmp_path / "o")]) == 0


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
    assert summary["violation_frequency"] is None
    assert set(summary["error_quantiles"].values()) == {None}


def test_strict_mode_flags_nonconvergence(config_file, tmp_path, capsys):
    config = tmp_path / "short.ini"
    config.write_text(SMALL_CONFIG.replace("max_iters = 20000", "max_iters = 1"))
    # every solving command warns alike (verify's summary line counts the
    # converged trials instead) and exits 2 only under --strict
    warnings = {
        "solve": "warning: solver did not converge within max_iters\n",
        "bound": "warning: solver did not converge within max_iters\n",
        "verify": "",
        "sweep": "warning: a sweep trial did not converge within max_iters\n",
    }
    for command, warning in warnings.items():
        out = tmp_path / command
        for flags, code in (([], 0), (["--strict"], 2)):
            capsys.readouterr()
            assert main([command, "--config", str(config), "--out", str(out), *flags]) == code
            assert capsys.readouterr().err == warning


def test_sweep_strict_mode_flags_nonconvergence(config_file, tmp_path, monkeypatch):
    config = tmp_path / "short.ini"
    config.write_text(SMALL_CONFIG.replace("max_iters = 20000", "max_iters = 1"))
    out = tmp_path / "strict"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    rows = (*payload["rank_rows"], *payload["eps_rows"])
    assert [(row["trials"], row["converged"]) for row in rows] == [(4, 0)] * 4
    # no trial converged, so no violation frequency is defined
    assert [row["violation_frequency"] for row in rows] == [None] * 4
    assert main(["sweep", "--config", str(config), "--out", str(out), "--strict"]) == 2
    # one epsilon point short of its trials is enough
    sweep = cli.epsilon_sweep

    def one_short(*args, **kwargs):
        first, *rest = sweep(*args, **kwargs)
        return (dict(first, converged=first["trials"] - 1), *rest)

    monkeypatch.setattr(cli, "epsilon_sweep", one_short)
    assert main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
    assert main(["sweep", "--config", str(config_file), "--out", str(out), "--strict"]) == 2


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


CUSTOM_CONFIG = """
[design]
type = custom
files = {files}

[truth]
rank = 1
sigma = 0.05

[solver]
epsilon = absolute:0.05

[experiment]
n = 60
trials = 1
seed = 3
ranks = 1 2
eps_multiples = 1.0
"""


def test_custom_atoms_of_two_sizes_are_refused_naming_the_file(tmp_path, capsys, monkeypatch):
    # a 2 x 2 and a 3 x 3 atom used to end delta in numpy's "all input
    # arrays must have the same shape", with a traceback and no error line
    save_matrix(tmp_path / "small.mtx", np.eye(2))
    save_matrix(tmp_path / "large.mtx", np.eye(3))
    config = tmp_path / "sizes.ini"
    files = f"{tmp_path / 'small.mtx'} {tmp_path / 'large.mtx'}"
    config.write_text(CUSTOM_CONFIG.format(files=files))
    _refuse_work(monkeypatch)
    for command in COMMANDS:
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'large.mtx'}: m = 3, but {tmp_path / 'small.mtx'} has m = 2; "
            "the atoms of a custom design share one size\n"
        ), command
        assert not out.exists()


def test_sweep_reads_each_custom_atom_file_once(tmp_path, monkeypatch):
    # the rank check and plan resolution each built the design, so a sweep
    # read and checked every file twice: 10 reads for 5 files
    rng = np.random.default_rng(5)
    files = []
    for i in range(5):
        raw = rng.standard_normal((3, 3))
        files.append(str(tmp_path / f"atom{i}.mtx"))
        save_matrix(files[-1], raw + raw.T)
    config = tmp_path / "custom.ini"
    config.write_text(CUSTOM_CONFIG.format(files=" ".join(files)))
    reads = []
    load = harness.load_matrix
    monkeypatch.setattr(harness, "load_matrix", lambda path: reads.append(path) or load(path))
    for command in ("verify", "sweep"):
        reads.clear()
        assert main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
        assert reads == files, command


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


NO_SCIPY_RUN = """
import json, sys
sys.modules["scipy"] = None  # importing scipy or any of its submodules raises ImportError
import lowrank_oracle.cli
loaded = set(sys.modules)
code = lowrank_oracle.cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - loaded)))
sys.exit(code)
"""


def test_verify_runs_without_scipy_and_imports_nothing_in_the_run(tmp_path):
    # a threshold-epsilon regression run (Bayes risk, delta, sampling, the
    # solve, the summary quantiles) needs no scipy, and every module it uses
    # is loaded with the CLI: an import inside the run would be timed with it
    config = tmp_path / "config.ini"
    config.write_text(SMALL_CONFIG.replace("absolute:0.05", "threshold:1.0").replace("n = 100", "n = 200000"))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, "verify", "--config", str(config),
         "--out", str(tmp_path / "out"), "--workers", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    summary = strict_json(tmp_path / "out" / "summary.json")
    assert summary["epsilon_rule"] == "threshold" and summary["converged"] == 4
    assert summary["zero_estimate_fraction"] < 1.0  # the solves leave zero


def test_cli_import_loads_no_pool_or_masked_arrays():
    # a --workers 1 run needs neither the process pool nor numpy.ma, so the
    # CLI does not load them; only a pool run imports concurrent.futures
    code = (
        "import sys, lowrank_oracle.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing', 'numpy.ma'} & set(sys.modules)))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


TRACED_RUN = """
import sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer, install
from lowrank_oracle import cli
tracer = Tracer()
install(tracer)
code = cli.main(sys.argv[3:])
print(sum(span[0] == "harness.trial" for span in tracer.spans))
sys.exit(code)
"""


def test_benchmark_tracer_finds_every_name_it_wraps(config_file, tmp_path):
    # perfbench/tracing.py replaces program functions by name; a renamed or
    # deleted one fails its install with an AttributeError, here rather than
    # only in the benchmark's own run
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "perfbench"), str(root / "src"), "verify",
         "--config", str(config_file), "--out", str(tmp_path / "out"), "--workers", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) == 4  # SMALL_CONFIG's trials


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
