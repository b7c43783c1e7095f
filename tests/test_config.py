import dataclasses
import json

import numpy as np
import pytest

from dynaroute.config import (
    ConfigError,
    LOSS_CASES,
    TrafficConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    load_config,
)


def test_default_configs_validate():
    for case in ("case1", "case2"):
        cfg = default_config(case)
        cfg.validate()
        assert cfg.loss_case == case
    assert default_config("case2").platoon.comfort_a == 2.0


def test_round_trip_through_json(tmp_path):
    cfg = default_config("case2")
    path = tmp_path / "scenario.json"
    dump_config(cfg, path)
    loaded = load_config(path)
    assert config_to_dict(loaded) == config_to_dict(cfg)


def test_unknown_keys_rejected():
    data = config_to_dict(default_config())
    data["unknown_knob"] = 3
    with pytest.raises(ConfigError, match="unknown_knob"):
        config_from_dict(data)

    nested = config_to_dict(default_config())
    nested["channel"]["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict(nested)


def test_invalid_values_rejected():
    data = config_to_dict(default_config())
    data["dt"] = -0.1
    with pytest.raises(ConfigError):
        config_from_dict(data)

    data = config_to_dict(default_config())
    data["duration"] = 30.05  # not an integral slot count
    with pytest.raises(ConfigError):
        config_from_dict(data)

    data = config_to_dict(default_config())
    data["loss_case"] = "case9"
    with pytest.raises(ConfigError):
        config_from_dict(data)

    data = config_to_dict(default_config())
    data["ga"]["population"] = 7  # odd
    with pytest.raises(ConfigError):
        config_from_dict(data)


def test_matrix_fields_round_trip():
    cfg = default_config()
    custom = np.eye(4)
    custom[0, 3] = 0.25
    data = config_to_dict(cfg)
    data["platoon"]["a_mat"] = custom.tolist()
    loaded = config_from_dict(data)
    assert np.allclose(loaded.platoon.a_mat, custom)
    # default matrices are omitted from the dump
    assert "a_mat" not in config_to_dict(cfg)["platoon"]


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)


def test_loss_case_presets():
    assert LOSS_CASES["case1"].p_drop == pytest.approx(0.1)
    c2 = LOSS_CASES["case2"]
    stationary_bad = c2.p_good_to_bad / (c2.p_good_to_bad + c2.p_bad_to_good)
    assert stationary_bad == pytest.approx(0.3)
    assert c2.contender_multiplier == 2.0


def test_loss_case_presets_are_immutable():
    settings = default_config("case1").loss_settings
    assert settings is LOSS_CASES["case1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        settings.p_drop = 1.0
    assert LOSS_CASES["case1"].p_drop == pytest.approx(0.1)


def test_traffic_validation():
    with pytest.raises(ConfigError):
        TrafficConfig(interval_s=0.0)
    with pytest.raises(ConfigError):
        TrafficConfig(deadline_slots=0)


def test_scenario_validation_bounds():
    cfg = default_config()
    cfg.n_platoons = 0
    with pytest.raises(ConfigError):
        cfg.validate()


def test_too_few_dmpc_candidates_rejected_at_load(tmp_path):
    # the four deterministic candidates fill a block of at least four rows
    data = config_to_dict(default_config())
    path = tmp_path / "scenario.json"
    data["platoon"]["n_candidates"] = 3
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="n_candidates"):
        load_config(path)
    data["platoon"]["n_candidates"] = 4
    path.write_text(json.dumps(data))
    assert load_config(path).platoon.n_candidates == 4
