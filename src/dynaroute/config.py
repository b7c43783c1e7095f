"""Scenario configuration: nested dataclasses mirroring the config file
schema, JSON load/dump with unknown-key rejection, and the case presets for
the two shipped loss regimes.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .channel import ChannelParams, LossKind
from .control import PlatoonConfig
from .dynamics import SafetyParams
from .link_metrics import MetricWeights
from .optimizer import GaParams


class ConfigError(ValueError):
    """Raised for malformed or inconsistent scenario configuration."""


@dataclass
class TrafficConfig:
    """Packet workload: one source draw per vehicle per slot with mean
    spacing interval_s / load."""

    interval_s: float = 0.4
    size_bits: float = 1e5
    deadline_slots: int = 20
    load: float = 1.0

    def __post_init__(self):
        if self.interval_s <= 0 or self.size_bits <= 0:
            raise ConfigError("interval_s and size_bits must be positive")
        if self.deadline_slots < 1:
            raise ConfigError("deadline_slots must be at least 1")
        if self.load < 0:
            raise ConfigError("load must be nonnegative")


@dataclass(frozen=True)
class LossSettings:
    """Resolved per-case loss process parameters; immutable, so the shared
    LOSS_CASES presets cannot be altered through a config."""

    kind: LossKind
    p_drop: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    contender_multiplier: float = 1.0


LOSS_CASES = {
    # i.i.d. slot drops on every link
    "case1": LossSettings(kind=LossKind.BERNOULLI, p_drop=0.1),
    # bursty chain with 30% stationary loss plus doubled channel contention
    "case2": LossSettings(
        kind=LossKind.GILBERT_ELLIOTT,
        p_good_to_bad=0.15,
        p_bad_to_good=0.35,
        contender_multiplier=2.0,
    ),
}


@dataclass
class ScenarioConfig:
    """Full experiment description; every field maps 1:1 onto the config
    file schema."""

    n_platoons: int = 2
    vehicles_per_platoon: int = 4
    desired_gap: float = 10.0
    dt: float = 0.1
    duration: float = 30.0
    init_speed: float = 15.0
    lane_offset: float = 6.0
    platoon_stagger: float = 190.0
    rsu_positions: tuple = ((150.0, 10.0), (450.0, 10.0))
    comm_range: float = 300.0
    n_channels: int = 4
    queue_max: int = 5
    err_v_bound: float = 6.0
    err_p_bound: float = 3.0
    loss_case: str = "case1"
    ga_period: int = 5
    ga_packet_cap: int = 24
    max_hops: int = 3
    paths_per_pair: int = 8
    beacon_bits: float = 3200.0
    channel: ChannelParams = field(default_factory=ChannelParams)
    safety: SafetyParams = field(default_factory=SafetyParams)
    platoon: PlatoonConfig = field(default_factory=PlatoonConfig)
    metric_weights: MetricWeights = field(default_factory=MetricWeights)
    ga: GaParams = field(default_factory=GaParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)

    def validate(self) -> None:
        if self.n_platoons < 1 or self.vehicles_per_platoon < 1:
            raise ConfigError("need at least one platoon with at least one vehicle")
        if self.dt <= 0 or self.duration <= 0:
            raise ConfigError("dt and duration must be positive")
        # the rollouts step with platoon.dt and a channel slot lasts tau_slot
        if self.platoon.dt != self.dt or self.channel.tau_slot != self.dt:
            raise ConfigError(
                f"platoon.dt ({self.platoon.dt}) and channel.tau_slot "
                f"({self.channel.tau_slot}) must equal dt ({self.dt})"
            )
        slots = self.duration / self.dt
        if abs(slots - round(slots)) > 1e-9:
            raise ConfigError("duration must be an integral number of slots")
        if self.desired_gap <= 0:
            raise ConfigError("desired_gap must be positive")
        if self.comm_range <= 0:
            raise ConfigError("comm_range must be positive")
        if self.n_channels < 1:
            raise ConfigError("n_channels must be at least 1")
        if self.loss_case not in LOSS_CASES:
            raise ConfigError(f"loss_case must be one of {sorted(LOSS_CASES)}")
        if self.ga_period < 1:
            raise ConfigError("ga_period must be at least 1")
        if self.max_hops < 1 or self.paths_per_pair < 1:
            raise ConfigError("max_hops and paths_per_pair must be at least 1")
        if self.err_v_bound <= 0 or self.err_p_bound <= 0:
            raise ConfigError("tracking error bounds must be positive")

    @property
    def n_slots(self) -> int:
        return int(round(self.duration / self.dt))

    @property
    def loss_settings(self) -> LossSettings:
        return LOSS_CASES[self.loss_case]


def default_config(loss_case: str = "case1") -> ScenarioConfig:
    """Shipped two-platoon scenario with the documented non-paper defaults.

    The comfort envelope widens in case2, where bursty loss demands stronger
    corrective action.
    """
    comfort_a = 2.0 if loss_case == "case2" else 1.0
    cfg = ScenarioConfig(
        loss_case=loss_case,
        channel=ChannelParams(varpi_linear=2.0e4),
        platoon=PlatoonConfig(comfort_a=comfort_a),
        ga=GaParams(population=16, generations=10),
    )
    cfg.validate()
    return cfg


_NESTED = {
    "channel": ChannelParams,
    "safety": SafetyParams,
    "platoon": PlatoonConfig,
    "metric_weights": MetricWeights,
    "ga": GaParams,
    "traffic": TrafficConfig,
}

# Keys of retired model parameters that older config files still carry,
# with the only value each accepts: its old default, which nothing read.
_RETIRED = {
    "safety": {"a_max": 2.5, "d_min": None, "tau1": 0.5, "tau2": 0.5, "tau3": 0.5},
    "platoon": {"desired_gap": 10.0},
}


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{where}' must be an object")
    retired = _RETIRED.get(where, {})
    for key in sorted(set(data) & set(retired)):
        if data[key] != retired[key]:
            raise ConfigError(
                f"retired key '{where}.{key}' only accepts its old default "
                f"{json.dumps(retired[key])}, got {data[key]!r}"
            )
    data = {key: value for key, value in data.items() if key not in retired}
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in section '{where}'")
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED and cls is ScenarioConfig:
            kwargs[key] = _build(_NESTED[key], value, key)
        elif key == "rsu_positions":
            kwargs[key] = tuple(tuple(map(float, p)) for p in value)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid section '{where}': {exc}") from exc


def config_from_dict(data: dict) -> ScenarioConfig:
    cfg = _build(ScenarioConfig, data, "scenario")
    cfg.validate()
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out: dict = {}
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if f.name in _NESTED:
            out[f.name] = {sf.name: getattr(value, sf.name) for sf in dataclasses.fields(value)}
        elif f.name == "rsu_positions":
            out[f.name] = [list(p) for p in value]
        else:
            out[f.name] = value
    return out


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_config(cfg: ScenarioConfig, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
