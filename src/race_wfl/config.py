"""Scenario configuration: schema, defaults, hashing, named RNG streams.

Config files are YAML with a ``schema_version`` field and one mapping per
section; unknown keys anywhere are rejected.  Defaults reproduce the
standard simulation parameter set (platoon dynamics, channel, costs,
learner rates) so an empty file is a valid scenario.

One root seed feeds named independent generator streams (platoon
initialization, channel fading, task synthesis, policy sampling, weight
initialization, evaluation), so toggling one component never perturbs
another component's draws.  A stream's numeric id is part of its seed's
spawn key, so ids are never renumbered or reused: that would change the
stream's draws.
"""

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigError

SCHEMA_VERSION = 1

RNG_STREAMS = {
    "platoon-init": 0,
    "channel": 1,
    "task": 2,
    "policy": 3,
    "weights-init": 5,
    "eval": 6,
}


def named_rng(root_seed: int, stream: str,
              index: int = 0) -> np.random.Generator:
    """Independent generator for a named stream (optionally sub-indexed)."""
    if stream not in RNG_STREAMS:
        raise ConfigError(f"unknown RNG stream {stream!r}")
    seq = np.random.SeedSequence(
        entropy=int(root_seed),
        spawn_key=(RNG_STREAMS[stream], int(index)),
    )
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class PlatoonSection:
    n_followers: int = 20
    speed_min: float = 15.0
    speed_max: float = 20.0
    gap_min: float = 10.0
    gap_max: float = 15.0
    vehicle_length: float = 5.0
    leader_speed: float = 18.0
    a_max: float = 0.73
    b_max: float = 1.67
    d_min: float = 2.0
    t_min: float = 1.5
    v_des: float = 30.0
    sensitivity_exponent: float = 4.0
    update_interval: float = 1.0
    substeps: int = 10


@dataclass(frozen=True)
class ChannelSection:
    bandwidth: float = 1e6
    path_loss_exponent: float = 3.76
    frequency_factor: float = 1.0
    noise_variance_dbm: float = -174.0
    estimation_error_variance: float = 0.1


@dataclass(frozen=True)
class CostSection:
    cycles_per_sample: float = 1e7
    power_coeff: float = 1e-28
    cpu_hz: float = 0.5e9
    max_power_dbm: float = 15.0
    max_energy_j: float = 0.1
    model_bits: float = 1e6


@dataclass(frozen=True)
class TaskSection:
    n_classes: int = 4
    model_dim: int = 200
    concentration: float = 0.5
    n_samples: int = 1000
    eval_samples: int = 500
    feature_scale: float = 3.0
    init_norm: float = 0.003
    learning_rate: float = 1e-4
    adversary_devices: tuple = ()
    adversary_factor: float = 1.0


@dataclass(frozen=True)
class ThresholdSection:
    mode: str = "fixed"            # fixed | adaptive
    threshold: float = 0.3
    lam_min: float = 0.1
    lam_max: float = 0.5
    adapt_rate: float = 1.0


@dataclass(frozen=True)
class SelectionSection:
    n_subchannels: int = 4
    subperiods: int = 5
    mask: str = "binary"           # binary | adaptive
    temperature: float = 1.0
    pl_ratio: float = 0.1


@dataclass(frozen=True)
class MappoSection:
    gamma: float = 0.98
    gae_lambda: float = 0.95
    clip: float = 0.2
    learning_rate: float = 1e-4
    batch_size: int = 32
    ppo_epochs: int = 4
    episodes_per_update: int = 10
    d_model: int = 64
    n_heads: int = 8
    squeeze_dim: int = 8
    lstm_hidden: int = 128
    fc_hidden: int = 128


@dataclass(frozen=True)
class RunSection:
    seed: int = 0
    episodes: int = 500
    rounds_per_episode: int = 100
    alpha: float = 1.0
    beta: float = 10.0
    checkpoint_every: int = 100


@dataclass(frozen=True)
class ScenarioConfig:
    platoon: PlatoonSection = field(default_factory=PlatoonSection)
    channel: ChannelSection = field(default_factory=ChannelSection)
    cost: CostSection = field(default_factory=CostSection)
    task: TaskSection = field(default_factory=TaskSection)
    thresholds: ThresholdSection = field(default_factory=ThresholdSection)
    selection: SelectionSection = field(default_factory=SelectionSection)
    mappo: MappoSection = field(default_factory=MappoSection)
    run: RunSection = field(default_factory=RunSection)


_SECTIONS = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _build_section(cls, data, path):
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {path}.{key}")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in section {path}: {exc}") from exc


def config_from_dict(data: dict) -> ScenarioConfig:
    data = dict(data or {})
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version} (expected "
            f"{SCHEMA_VERSION})")
    sections = {}
    for key, value in data.items():
        if key not in _SECTIONS:
            raise ConfigError(f"unknown section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        sections[key] = _build_section(_SECTIONS[key], value, key)
    cfg = ScenarioConfig(**sections)
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.thresholds.mode not in ("fixed", "adaptive"):
        raise ConfigError("thresholds.mode must be 'fixed' or 'adaptive'")
    if cfg.selection.mask not in ("binary", "adaptive"):
        raise ConfigError("selection.mask must be 'binary' or 'adaptive'")
    if cfg.selection.n_subchannels < 0:
        raise ConfigError("selection.n_subchannels must be >= 0")
    if cfg.selection.n_subchannels > cfg.platoon.n_followers:
        raise ConfigError("more sub-channels than follower devices")
    if cfg.task.model_dim % cfg.task.n_classes != 0:
        raise ConfigError("task.model_dim must divide by task.n_classes")
    if not 0 < cfg.selection.pl_ratio < 1:
        raise ConfigError("selection.pl_ratio must lie in (0, 1)")
    for dev in cfg.task.adversary_devices:
        if not 0 <= int(dev) < cfg.platoon.n_followers:
            raise ConfigError("adversary device index out of range")


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = {"schema_version": SCHEMA_VERSION}
    for name in _SECTIONS:
        section = dataclasses.asdict(getattr(cfg, name))
        out[name] = {k: (list(v) if isinstance(v, tuple) else v)
                     for k, v in section.items()}
    return out


def config_hash(cfg: ScenarioConfig) -> str:
    """Hash of the canonicalized config; changes iff a field changes."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def dump_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)
