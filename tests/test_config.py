import argparse
import re
from dataclasses import fields
from pathlib import Path

import pytest

from hieract.cli import UsageError, _config, build_parser, main
from hieract.config import FIELDS, RunConfig, load_config
from hieract.learning import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_readme_example_loads(tmp_path):
    block, = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    config = load_config(_write(tmp_path, block))
    assert config.schema == "kinect20"
    assert config.mode == "geo+velocity"
    assert config.pca_dim == 20
    assert config.num_poselets == 100
    assert config.supervision == "temporal"
    assert config.C == 10.0
    assert config.beam == 400


def test_values_take_their_field_types(tmp_path):
    config = load_config(_write(tmp_path, (
        "[a]\nwindow = 9\nlambda_v = 2.5\nuse_gc = no\n"
        "beam = none\neps_qp = 0.5\nmax_cutting_plane_iters = 30\n")))
    assert config.window == 9 and isinstance(config.window, int)
    assert config.lambda_v == 2.5
    assert config.use_gc is False
    assert config.beam is None
    assert config.eps_qp == 0.5
    assert config.max_cutting_plane_iters == 30


def test_overrides_win_and_defaults_fill(tmp_path):
    path = _write(tmp_path, "[train]\nC = 3\nlambda_v = 5\n")
    args = build_parser().parse_args(
        ["train", "--config", path, "--features", "f", "--annotations", "a",
         "--labels", "l", "--out", "m.json", "--C", "7"])
    config = _config(args)
    assert config.C == 7.0
    assert config.lambda_v == 5.0
    assert config.seed == RunConfig().seed


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ValueError, match="'c'"):
        load_config(_write(tmp_path, "[train]\nc = 10\n"))


@pytest.mark.parametrize("raw, expected", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("False", False), ("NO", False), ("Off", False)])
def test_boolean_spellings(tmp_path, raw, expected):
    config = load_config(_write(tmp_path, f"[train]\nuse_gc = {raw}\n"))
    assert config.use_gc is expected


@pytest.mark.parametrize("line, key", [
    ("use_gc = ture", "use_gc"), ("beam = 40.5", "beam"),
    ("C = ten", "C"), ("window = 7.0", "window")])
def test_unparsable_value_names_key_section_and_file(tmp_path, line, key):
    path = _write(tmp_path, f"[train]\n{line}\n")
    with pytest.raises(ValueError) as err:
        load_config(path)
    message = str(err.value)
    assert repr(key) in message
    assert "[train]" in message
    assert path in message


def test_cli_exits_1_on_unparsable_value(tmp_path, capsys):
    path = _write(tmp_path, "[train]\nbeam = 40.5\n")
    code = main(["infer", "--config", path,
                 "--model", str(tmp_path / "model.json"),
                 "--features", str(tmp_path / "features"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "'beam'" in err and path in err


def test_unknown_supervision_exits_1_naming_key_section_and_file(
        tmp_path, capsys):
    path = _write(tmp_path, "[train]\nsupervision = bogus\n")
    out = tmp_path / "dictionary.json"
    code = main(["init-dictionary", "--config", path,
                 "--features", str(tmp_path / "features"),
                 "--annotations", str(tmp_path / "annotations.csv"),
                 "--labels", str(tmp_path / "labels.csv"),
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "'supervision'" in err and "[train]" in err and path in err
    assert "'bogus'" in err
    assert not out.exists()


def test_training_defaults_have_one_source():
    assert issubclass(RunConfig, TrainConfig)
    run, trainer = RunConfig(), TrainConfig()
    for field in fields(TrainConfig):
        assert getattr(run, field.name) == getattr(trainer, field.name), \
            field.name
    assert run.C == 10.0
    assert run.max_cccp_iters == 3
    assert run.max_cutting_plane_iters == 400
    assert run.beam is None


def _infer_args(tmp_path, *extra):
    return ["infer", "--model", str(tmp_path / "model.json"),
            "--features", str(tmp_path / "features"),
            "--out", str(tmp_path / "out"), *extra]


@pytest.mark.parametrize("flags, expected", [
    ([], 400), (["--beam", "none"], None), (["--beam", "None"], None),
    (["--beam", "40"], 40)])
def test_beam_flag_takes_the_ini_spellings(tmp_path, flags, expected):
    path = _write(tmp_path, "[infer]\nbeam = 400\n")
    args = build_parser().parse_args(
        _infer_args(tmp_path, "--config", path, *flags))
    assert _config(args).beam == expected


def test_unparsable_beam_flag_exits_1_naming_it(tmp_path, capsys):
    assert main(_infer_args(tmp_path, "--beam", "wide")) == 1
    err = capsys.readouterr().err
    assert "--beam" in err and "'wide'" in err


# each command's flags that set a config key
CONFIG_FLAGS = {
    "features": {"--seed", "--schema", "--mode", "--window", "--pca-dim"},
    "init-dictionary": {"--seed", "--num-poselets", "--supervision"},
    "init-assignments": {"--seed", "--num-poselets", "--supervision"},
    "train": {"--seed", "--supervision", "--num-poselets", "--beam", "--C",
              "--max-cccp-iters", "--max-cutting-plane-iters", "--no-gc"},
    "infer": {"--seed", "--beam"},
    "annotate": {"--seed", "--beam"},
    "eval": {"--seed", "--min-overlap", "--min-run"},
}
# values each flag must refuse: ones that do not parse or are out of range
BAD_VALUES = {
    "--seed": ["x", "-1"], "--schema": ["kinect25"],
    "--mode": ["geo+depth"], "--window": ["2.5", "-1"],
    "--pca-dim": ["x", "0"], "--num-poselets": ["1e2", "0"],
    "--supervision": ["weak"], "--beam": ["wide", "0"],
    "--C": ["ten", "0", "nan"], "--max-cccp-iters": ["x", "-1"],
    "--max-cutting-plane-iters": ["x", "-1"], "--no-gc": ["yes"],
    "--min-overlap": ["x", "0", "1.5"], "--min-run": ["three"],
}


def test_each_command_takes_its_config_flags():
    sub, = (action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
    # every command that reads a config file, and its config flags
    taken = {name: {flag for action in p._actions if action.dest in FIELDS
                    for flag in action.option_strings}
             for name, p in sub.choices.items()
             if "--config" in p._option_string_actions}
    assert taken == CONFIG_FLAGS


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, flags in CONFIG_FLAGS.items()
    for flag in sorted(flags) for value in BAD_VALUES[flag]])
def test_config_flag_refuses_bad_value_naming_it(command, flag, value):
    # refused while parsing, before any required flag is missed
    with pytest.raises(UsageError) as err:
        build_parser().parse_args([command, f"{flag}={value}"])
    assert f"argument {flag}: " in str(err.value)
    assert repr(value) in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("C", 0), ("lambda_v", -1), ("eps_qp", 0.0), ("max_cccp_iters", -1),
    ("beam", 0), ("seed", -1), ("supervision", "weak"),
    ("schema", "kinect25"), ("window", -1), ("min_overlap", 1.5)])
def test_construction_refuses_bad_value_naming_key(key, value):
    trainer = {field.name for field in fields(TrainConfig)}
    config_class = TrainConfig if key in trainer else RunConfig
    with pytest.raises(ValueError, match=f"config key '{key}': "):
        config_class(**{key: value})
