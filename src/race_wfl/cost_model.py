"""Per-device resources, computation costs and the round delay.

Computation time scales inversely with the allocated CPU fraction while
computation energy grows with its square; the transmission side lives
with the allocation solver in ``resource_alloc``.  The round delay is the
longest total delay among the devices the sub-channel agents picked.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RaceError


@dataclass(frozen=True)
class DeviceProfile:
    """Static per-device resources."""

    sample_count: int            # local training samples
    cycles_per_sample: float     # CPU cycles to train one sample
    cpu_hz: float                # available CPU cycles per second
    power_coeff: float           # energy coefficient per cycle^3
    max_power_w: float           # maximum transmit power, W
    max_energy_j: float          # per-round energy budget, J
    model_bits: float            # uplink payload size, bits

    def __post_init__(self):
        if self.sample_count != int(self.sample_count):
            raise ValueError("sample_count must be an integer")
        for name in ("sample_count", "cycles_per_sample", "cpu_hz",
                     "power_coeff", "max_power_w", "max_energy_j",
                     "model_bits"):
            if getattr(self, name) <= 0:
                raise ValueError(f"DeviceProfile.{name} must be > 0")

    @property
    def work_cycles(self) -> float:
        """Total CPU cycles for one local training pass."""
        return self.cycles_per_sample * self.sample_count


def comp_costs(p: DeviceProfile, chi: float) -> tuple[float, float]:
    """(time, energy) of local training at CPU fraction ``chi`` > 0."""
    if chi <= 0:
        raise RaceError("chi = 0 gives infinite computation delay")
    eff_hz = chi * p.cpu_hz
    return p.work_cycles / eff_hz, p.power_coeff * p.work_cycles * eff_hz ** 2


def round_delay(actions: np.ndarray, delays: np.ndarray) -> float:
    """Longest total delay among the picked devices (action -1 is idle);
    0 when every agent idles."""
    picked = np.asarray(actions)
    picked = picked[picked >= 0]
    if not len(picked):
        return 0.0
    return float(np.asarray(delays, dtype=np.float64)[picked].max())
