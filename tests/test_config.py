"""Configuration precedence (defaults < file < ``SPADE_*`` environment <
explicit overrides) and its typed errors."""

import pytest

from rasterquery.config import DEFAULT, Config, load_config
from rasterquery.errors import ConfigurationError, SpatialError


def write(tmp_path, text):
    path = tmp_path / "spade.conf"
    path.write_text(text)
    return path


def test_defaults_without_file_or_env():
    assert load_config(env={}) == DEFAULT


def test_precedence_file_then_env_then_override(tmp_path):
    path = write(tmp_path, "resolution = 512\ncache_factor = 3\nbyte_budget = 4096\n")
    env = {"SPADE_RESOLUTION": "256", "SPADE_CACHE_FACTOR": "5"}
    cfg = load_config(path, env=env, resolution=128)
    assert cfg.resolution == 128
    assert cfg.cache_factor == 5
    assert cfg.byte_budget == 4096
    assert load_config(path, env=env).resolution == 256
    assert load_config(path, env={}).resolution == 512


def test_none_override_keeps_the_lower_level(tmp_path):
    cfg = load_config(write(tmp_path, "resolution = 512\n"), env={}, resolution=None)
    assert cfg.resolution == 512


def test_blank_comment_and_unknown_keys_are_ignored(tmp_path):
    path = write(tmp_path, "\n# resolution = 64\n   \nno_such_key = 5\n"
                           "two_pass_ceiling = 10\ncache_factor = 2\n")
    env = {"SPADE_TWO_PASS_CEILING": "abc", "SPADE_NO_SUCH_KEY": "1"}
    cfg = load_config(path, env=env)
    assert cfg == Config(cache_factor=2)
    assert not hasattr(cfg, "two_pass_ceiling")


def test_removed_knn_keys_are_ignored_like_unknown_ones(tmp_path):
    """kNN ranks by exact distance and reads no setting: the keys its radius
    schedule once read are unknown keys now, in a file or the environment,
    whatever their value."""
    path = write(tmp_path, "alpha = 0.5\ncircle_cap = 0\nknn_radius_floor = abc\n")
    env = {"SPADE_ALPHA": "two", "SPADE_CIRCLE_CAP": "-1", "SPADE_KNN_RADIUS_FLOOR": "0"}
    cfg = load_config(path, env=env)
    assert cfg == DEFAULT
    assert not any(hasattr(cfg, key) for key in ("alpha", "circle_cap", "knn_radius_floor"))


@pytest.mark.parametrize("source", ["file", "env"])
def test_non_numbers_raise_configuration_error(tmp_path, source):
    if source == "file":
        kwargs = {"config_file": write(tmp_path, "resolution = abc\n"), "env": {}}
    else:
        kwargs = {"env": {"SPADE_CACHE_FACTOR": "two"}}
    with pytest.raises(ConfigurationError):
        load_config(**kwargs)


@pytest.mark.parametrize("bad", [
    {"resolution": 8}, {"resolution": 40000}, {"resolution": 15}, {"byte_budget": 0},
    {"canvas_budget_bytes": -1}, {"byte_budget": -1}, {"resolution": 32769},
    {"cache_factor": 0}, {"cache_factor": -1},
])
def test_out_of_range_values_raise_configuration_error(bad):
    with pytest.raises(ConfigurationError):
        Config(**bad).validate()
    with pytest.raises(ConfigurationError):
        load_config(env={}, **bad)


def test_configuration_error_is_a_value_error_and_a_spatial_error():
    with pytest.raises(ValueError):
        load_config(env={"SPADE_RESOLUTION": "12.5"})
    assert issubclass(ConfigurationError, SpatialError)
