import re
from pathlib import Path

import pytest

from hieract.config import RunConfig, load_config

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
    config = load_config(_write(tmp_path, "[train]\nC = 3\n"),
                         overrides={"C": 7.0, "seed": None})
    assert config.C == 7.0
    assert config.seed == RunConfig().seed


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ValueError, match="'c'"):
        load_config(_write(tmp_path, "[train]\nc = 10\n"))
