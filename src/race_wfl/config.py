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
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import aoi_metrics, fl_engine, selection
from .channel import dbm_to_watts
from .cost_model import DeviceProfile
from .errors import ConfigError, RaceError

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


def _finite_power(base: float, exponent: float) -> bool:
    """Whether ``base ** exponent`` is finite in Python float arithmetic,
    which raises ``OverflowError`` instead of returning inf."""
    try:
        return math.isfinite(base ** exponent)
    except OverflowError:
        return False


def _require_positive(section, names):
    for name in names:
        if not getattr(section, name) > 0:
            raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class PlatoonSection:
    n_followers: int = 20
    speed_min: float = 15.0
    speed_max: float = 20.0
    gap_min: float = 10.0
    gap_max: float = 15.0
    vehicle_length: float = 5.0
    leader_speed: float = 18.0
    a_max: float = 0.73        # maximum acceleration, m/s^2
    b_max: float = 1.67        # maximum comfortable deceleration, m/s^2
    d_min: float = 2.0         # minimum inter-vehicle space, m
    t_min: float = 1.5         # minimum reaction time, s
    v_des: float = 30.0        # desired velocity, m/s
    sensitivity_exponent: float = 4.0   # driver sensitivity, in [1, 5]
    update_interval: float = 1.0        # integration step tau, s
    substeps: int = 10         # Euler sub-steps per update interval

    def __post_init__(self):
        _require_positive(self, ("n_followers", "a_max", "b_max", "d_min",
                                 "t_min", "v_des", "update_interval",
                                 "substeps"))
        if not 0 <= self.speed_min <= self.speed_max:
            raise ValueError("need 0 <= speed_min <= speed_max")
        if not 0 < self.gap_min <= self.gap_max:
            raise ValueError("need 0 < gap_min <= gap_max")
        if not 1.0 <= self.sensitivity_exponent <= 5.0:
            raise ValueError("sensitivity_exponent must lie in [1, 5]")
        # the car-following law's terms (v / v_des) ** delta and
        # (h / gap) ** 2 must stay finite.  No vehicle gets faster than its
        # initial speed, the leader's speed or one sub-step of a_max past
        # v_des; the braking term is taken at gap_min
        v = max(self.speed_max, self.leader_speed,
                self.v_des + self.a_max * self.update_interval
                / self.substeps)
        if not _finite_power(v / self.v_des, self.sensitivity_exponent):
            raise ValueError(
                f"top speed {v!r} (from speed_max, leader_speed or a_max) "
                f"over v_des = {self.v_des!r} overflows the free-road term "
                f"(v / v_des) ** sensitivity_exponent")
        h = self.d_min + self.t_min * v \
            + v * v / (2.0 * math.sqrt(self.a_max * self.b_max))
        if not _finite_power(h / self.gap_min, 2):
            raise ValueError(
                f"d_min = {self.d_min!r} and t_min = {self.t_min!r} give a "
                f"safe distance of {h!r} m at top speed {v!r}, which "
                f"overflows the braking term (h / gap_min) ** 2")


@dataclass(frozen=True)
class ChannelSection:
    bandwidth: float = 1e6                # per-subchannel bandwidth, Hz
    path_loss_exponent: float = 3.76
    frequency_factor: float = 1.0
    noise_variance_dbm: float = -174.0
    estimation_error_variance: float = 0.1   # in [0, 1]

    def __post_init__(self):
        _require_positive(self, ("bandwidth", "path_loss_exponent",
                                 "frequency_factor"))
        if not 0.0 <= self.estimation_error_variance <= 1.0:
            raise ValueError("estimation_error_variance must lie in [0, 1]")
        try:
            noise_w = dbm_to_watts(self.noise_variance_dbm)
        except OverflowError:
            raise ValueError(f"noise_variance_dbm = "
                             f"{self.noise_variance_dbm!r} overflows the "
                             f"noise power in watts") from None
        # a gain is frequency_factor * distance ** -path_loss_exponent /
        # noise power times a fading draw; an infinite one reads as an
        # infinite rate and a zero transmission time in Stage 1
        if not (noise_w > 0.0
                and math.isfinite(self.frequency_factor / noise_w)):
            raise ValueError(
                f"frequency_factor = {self.frequency_factor!r} over the "
                f"noise power of {noise_w!r} W (noise_variance_dbm = "
                f"{self.noise_variance_dbm!r}) overflows the channel gain "
                f"at 1 m")


@dataclass(frozen=True)
class CostSection:
    cycles_per_sample: float = 1e7
    power_coeff: float = 1e-28
    cpu_hz: float = 0.5e9
    max_power_dbm: float = 15.0
    max_energy_j: float = 0.1
    model_bits: float = 1e6

    def __post_init__(self):
        device_profile(self, 1)    # runs DeviceProfile's checks
        # Stage 1 cubes cpu_hz in Python floats, which raise
        # OverflowError instead of returning inf
        if not _finite_power(self.cpu_hz, 3):
            raise ValueError(f"cpu_hz = {self.cpu_hz!r} overflows Stage 1's "
                             f"cpu_hz ** 3")


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

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.model_dim < 1 or self.model_dim % self.n_classes != 0:
            raise ValueError("model_dim must be a positive multiple of "
                             "n_classes")
        _require_positive(self, ("concentration", "n_samples",
                                 "eval_samples", "init_norm"))


@dataclass(frozen=True)
class ThresholdSection:
    mode: str = "fixed"            # fixed | adaptive
    threshold: float = 0.3
    lam_min: float = 0.1
    lam_max: float = 0.5
    adapt_rate: float = 1.0

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError("mode must be 'fixed' or 'adaptive'")
        fl_engine.adaptive_threshold(1.0, 1.0, self.lam_min, self.lam_max,
                                     self.adapt_rate)   # its range checks


@dataclass(frozen=True)
class SelectionSection:
    n_subchannels: int = 4
    subperiods: int = 5
    mask: str = "binary"           # binary | adaptive
    temperature: float = 1.0
    pl_ratio: float = 0.1

    def __post_init__(self):
        if self.n_subchannels < 0:
            raise ValueError("n_subchannels must be >= 0")
        _require_positive(self, ("subperiods",))
        if self.mask not in ("binary", "adaptive"):
            raise ValueError("mask must be 'binary' or 'adaptive'")
        selection.adaptive_mask(np.zeros(1), 0.0, self.temperature,
                                self.pl_ratio, 0)   # its range checks


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

    def __post_init__(self):
        _require_positive(self, ("clip", "learning_rate", "batch_size",
                                 "ppo_epochs", "episodes_per_update",
                                 "d_model", "n_heads", "squeeze_dim",
                                 "lstm_hidden", "fc_hidden"))
        for name in ("gamma", "gae_lambda"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


@dataclass(frozen=True)
class RunSection:
    seed: int = 0
    episodes: int = 500
    rounds_per_episode: int = 100
    alpha: float = 1.0
    beta: float = 10.0
    checkpoint_every: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _require_positive(self, ("episodes", "rounds_per_episode"))
        aoi_metrics.reward(np.zeros(1), np.zeros(1), self.alpha, self.beta,
                           1, 1)   # its range checks


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


def _fits(value, kind) -> bool:
    if kind is float and isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (int, float) if kind is float else kind) \
        and not isinstance(value, bool)


def _build_section(cls, data, path):
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {path}.{key}")
        if isinstance(value, list):
            value = tuple(value)
        kind = known[key].type
        if not _fits(value, kind):
            raise ConfigError(
                f"{path}.{key} = {value!r} is not a valid {kind.__name__}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ValueError, ArithmeticError, RaceError) as exc:
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


def device_profile(cost: CostSection, sample_count: int) -> DeviceProfile:
    """Resources of a device holding ``sample_count`` training samples."""
    return DeviceProfile(
        sample_count=sample_count,
        cycles_per_sample=cost.cycles_per_sample,
        cpu_hz=cost.cpu_hz, power_coeff=cost.power_coeff,
        max_power_w=dbm_to_watts(cost.max_power_dbm),
        max_energy_j=cost.max_energy_j, model_bits=cost.model_bits,
    )


def _validate(cfg: ScenarioConfig) -> None:
    if cfg.selection.n_subchannels > cfg.platoon.n_followers:
        raise ConfigError("more sub-channels than follower devices")
    # Stage 1 compares a device's computation energy at full CPU,
    # power_coeff * work_cycles * cpu_hz ** 2, with its budget; an infinite
    # one clamps chi to 0 and the computation delay divides by it.  No
    # device holds more than all task samples.
    c = cfg.cost
    e_full = c.power_coeff * (c.cycles_per_sample * cfg.task.n_samples) \
        * c.cpu_hz ** 2
    if not math.isfinite(e_full):
        raise ConfigError(
            f"bad value in section cost: power_coeff = {c.power_coeff!r}, "
            f"cycles_per_sample = {c.cycles_per_sample!r} and cpu_hz = "
            f"{c.cpu_hz!r} overflow the computation energy at full CPU of "
            f"a device holding all {cfg.task.n_samples} task samples")
    for dev in cfg.task.adversary_devices:
        if not (_fits(dev, int) and 0 <= dev < cfg.platoon.n_followers):
            raise ConfigError(f"adversary device index {dev!r} out of range")


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{' '.join(str(exc).split())}") from exc
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

