import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from dynaroute.cli import main as cli_main
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


BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
# retired model parameters older config files carry, at their only accepted value
RETIRED = {
    ("safety", "a_max"): 2.5,
    ("safety", "d_min"): None,
    ("safety", "tau1"): 0.5,
    ("safety", "tau2"): 0.5,
    ("safety", "tau3"): 0.5,
    ("platoon", "desired_gap"): 10.0,
}


def test_stored_bench_configs_equal_their_source():
    # bench/make_configs.py is imported from its path, never changed
    spec = importlib.util.spec_from_file_location("make_configs", BENCH_DIR / "make_configs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    workloads = module.workload_configs()
    assert sorted(workloads) == sorted(p.stem for p in (BENCH_DIR / "configs").glob("*.json"))
    for name, cfg in workloads.items():
        path = BENCH_DIR / "configs" / f"{name}.json"
        stored = json.loads(path.read_text())
        # the stored files still carry every retired key at its old default
        assert all(stored[section][key] == value for (section, key), value in RETIRED.items())
        assert load_config(path) == cfg, name


@pytest.mark.parametrize("section, key", sorted(RETIRED))
def test_retired_key_rejected_away_from_its_old_default(section, key):
    data = config_to_dict(default_config())
    data[section][key] = RETIRED[(section, key)]
    assert config_from_dict(data) == default_config()
    data[section][key] = 0.25
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        config_from_dict(data)
    # a retired key is retired only in its own section
    data = config_to_dict(default_config())
    data["channel"][key] = RETIRED[(section, key)]
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict(data)


def test_dump_round_trip_writes_no_retired_key(tmp_path):
    path = tmp_path / "scenario.json"
    assert cli_main(["init-config", "--loss-case", "case2", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert all(key not in data[section] for section, key in RETIRED)
    assert "a_mat" not in data["platoon"] and "f_mat" not in data["platoon"]
    dump_config(load_config(path), path)
    assert json.loads(path.read_text()) == data
    assert load_config(path) == default_config("case2")


@pytest.mark.parametrize("section, key", [("platoon", "dt"), ("channel", "tau_slot")])
def test_slot_lengths_must_equal_dt(section, key, tmp_path, capsys):
    data = config_to_dict(default_config())
    data[section][key] = 0.05
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_config(path)
    assert cli_main(["validate-config", str(path)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    # all three at the new length is consistent
    data["dt"] = data["platoon"]["dt"] = data["channel"]["tau_slot"] = 0.05
    path.write_text(json.dumps(data))
    assert load_config(path).n_slots == 600
