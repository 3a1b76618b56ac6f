"""Per-device delay-minimizing resource allocation under an energy budget.

For one device the problem is: choose a CPU fraction ``chi`` and a power
fraction ``rho`` (both in (0, 1]) minimizing computation-plus-transmission
delay subject to the per-round energy budget.  After substituting the
transmission time ``delta`` for ``rho`` the problem is convex, and the
first-order conditions reduce to a single monotone scalar equation in the
rate exponent ``u = model_bits / (delta * bandwidth)``.  One bisection
solves it; its feasible end gives chi and the energy-binding transmission
time together, so an interior solve spends its budget to within about
1e-12 relative.  Failures raise where they happen:
``InfeasibleError`` when the budget is below the transmission-energy
infimum, ``ConvergenceError`` when the bisection finds no bracket or a
binding solve comes out more than ``ENERGY_GUARD_REL`` over budget.

Outcomes:
  * energy slack: full allocation (chi = rho = 1) fits the budget;
  * energy binding, interior power: chi from the multiplier relation,
    delta from the same rate exponent, rho < 1;
  * energy binding, power capped: rho = 1 and chi spends the remaining
    budget on computation.

A brute-force grid oracle over (chi, rho) is provided for verification.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cost_model import DeviceProfile
from .errors import ConvergenceError, InfeasibleError, RaceError

LN2 = 0.6931471805599453

# A binding solve whose energy exceeds its budget by more than this share
# is a solver failure, not an allocation.
ENERGY_GUARD_REL = 1e-9


class Binding(Enum):
    ENERGY_SLACK = "slack"
    ENERGY_BINDING = "binding"


@dataclass(frozen=True)
class AllocationResult:
    chi: float
    rho: float
    tx_time: float
    binding: Binding
    multipliers: tuple[float, float, float, float]
    comp_time: float
    energy: float

    @property
    def total_delay(self) -> float:
        return self.comp_time + self.tx_time


def check_feasibility(model_bits: float, max_energy: float,
                      bandwidth: float, gain: float) -> bool:
    """False iff even vanishing power cannot meet the energy budget.

    The transmission energy decreases toward ``model_bits * ln2 /
    (bandwidth * gain)`` as the transmission is stretched out; the budget
    must exceed that infimum strictly (the boundary is unattainable).
    """
    return LN2 * model_bits < max_energy * bandwidth * gain


def rho_from_delta(tx_time: float, model_bits: float, bandwidth: float,
                   power: float, gain: float) -> float:
    """Power fraction that achieves transmission time ``tx_time``."""
    if tx_time <= 0:
        raise RaceError("tx_time must be > 0")
    rho = math.expm1(LN2 * model_bits / (tx_time * bandwidth)) / (power * gain)
    if rho > 1.0 + 1e-12:
        raise RaceError(
            "tx_time below the minimum achievable transmission time "
            "(would need rho > 1)"
        )
    return min(rho, 1.0)


def _h(u):
    """``(x * e^x - expm1(x), expm1(x))`` at ``x = u * ln2``.

    The two terms of the first agree to first order and their difference
    cancels to nothing as x -> 0, so below ``x = 1e-3`` its Taylor series
    replaces them; the result stays within about 3e-13 relative of the
    exact value.  ``expm1(x)`` comes back too, for the transmission energy.
    """
    x = u * LN2
    em1 = math.expm1(x)
    if x < 1e-3:
        return x * x * (0.5 + x * (1.0 / 3.0 + x * (0.125 + x * (
            1.0 / 30.0 + x / 144.0)))), em1
    return x * math.exp(x) - em1, em1


def _stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain, emax):
    """Rate exponent u at which the stationarity path spends the budget.

    Along the path chi**3 = h(u) / den, clamped to 1, and the energy
    overshoot ``kappa * mz * (chi * cpu_hz)**2 + etx(u) - emax`` increases
    in u.  One loop probes it in three stages: the lower end steps down
    from 1e-6 by 1/16 until the overshoot is negative (at most 200 probes;
    after that the bisection starts from the last step), the upper end
    doubles from 1 until it is positive (past 1e9 the solve fails), then
    the bracket is bisected (at most 300 probes).  Returns the bracket's
    feasible end, where the overshoot is <= 0.
    """
    den = 2.0 * kappa * cpu_hz ** 3 * gain
    kmz = kappa * mz
    ecp_full = kmz * cpu_hz ** 2  # computation energy at chi = 1
    u = u_lo = 1e-6
    u_hi = 1.0
    stage = probes = 0
    while True:
        h, em1 = _h(u)
        y = h / den
        # libm's cube root of y >= 1 is >= 1, so chi would clamp to 1
        ecp = ecp_full if y >= 1.0 else kmz * (y ** (1.0 / 3.0) * cpu_hz) ** 2
        over = ecp + bits * em1 / (u * bandwidth * gain) - emax
        probes += 1
        if stage == 0:
            if not over < 0.0:
                u_lo *= 0.0625
                if probes < 200:
                    u = u_lo
                    continue
            stage, u = 1, u_hi
            continue
        if stage == 1:
            if not over > 0.0:
                u_hi *= 2.0
                if u_hi > 1e9:
                    raise ConvergenceError(
                        "allocation solver failed to converge")
                u = u_hi
                continue
            stage, probes = 2, 0
        else:
            if over > 0.0:
                u_hi = u
            else:
                u_lo = u
            if (u_hi - u_lo) <= 1e-14 * u_hi or probes == 300:
                return u_lo
        u = 0.5 * (u_lo + u_hi)
        if u == u_lo or u == u_hi:
            return u_lo


def _result(profile, chi, rho, delta, binding, multipliers):
    ecp = profile.power_coeff * profile.work_cycles * (
        chi * profile.cpu_hz) ** 2
    res = AllocationResult(
        chi=float(chi), rho=float(rho), tx_time=float(delta),
        binding=binding, multipliers=multipliers,
        comp_time=float(profile.work_cycles / (chi * profile.cpu_hz)),
        energy=float(ecp + rho * profile.max_power_w * delta),
    )
    if (binding is Binding.ENERGY_BINDING and not res.energy
            <= profile.max_energy_j * (1.0 + ENERGY_GUARD_REL)):
        raise ConvergenceError(
            "allocation solver failed to converge: a binding solve spends "
            f"{res.energy!r} J of a {profile.max_energy_j!r} J budget")
    return res


def optimal_allocation(profile: DeviceProfile, gain: float,
                       bandwidth: float) -> AllocationResult:
    """Delay-optimal (chi, rho) for one device under its energy budget."""
    kappa = profile.power_coeff
    mz = profile.work_cycles
    cpu_hz = profile.cpu_hz
    bits = profile.model_bits
    power = profile.max_power_w
    emax = profile.max_energy_j
    if not check_feasibility(bits, emax, bandwidth, gain):
        raise InfeasibleError(
            "infeasible device instance: budget below transmission infimum"
        )
    u_full = math.log1p(power * gain) / LN2
    delta_full = bits / (bandwidth * u_full)
    if kappa * mz * cpu_hz ** 2 + power * delta_full <= emax:
        u = bits / (delta_full * bandwidth)
        lam2 = (bandwidth * power * gain * delta_full
                / (bits * LN2 * math.exp(LN2 * u)))
        return _result(profile, 1.0, 1.0, delta_full, Binding.ENERGY_SLACK,
                       (0.0, lam2, 0.0, mz / cpu_hz))

    # Energy binds. The stationarity conditions tie chi and delta to one
    # multiplier; sweep the rate exponent u (monotone in the multiplier)
    # until the budget is spent.
    u_star = _stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain,
                              emax)
    if u_star > u_full:
        # Power cap binds first: transmit at full power, spend what is
        # left of the budget on computation.
        etx = power * delta_full
        chi = min(math.sqrt((emax - etx) / (kappa * mz * cpu_hz ** 2)), 1.0)
        lam1 = 1.0 / (2.0 * kappa * cpu_hz ** 3 * chi ** 3)
        u = bits / (delta_full * bandwidth)
        lam2 = max(0.0, (1.0 - lam1 * _h(u)[0] / gain) * delta_full * power
                   * gain / (u * LN2 * math.exp(LN2 * u)))
        return _result(profile, chi, 1.0, delta_full, Binding.ENERGY_BINDING,
                       (lam1, lam2, 0.0, 0.0))

    h_star = _h(u_star)[0]
    chi = min((h_star / (2.0 * kappa * cpu_hz ** 3 * gain)) ** (1.0 / 3.0),
              1.0)
    delta = bits / (u_star * bandwidth)
    rho = rho_from_delta(delta, bits, bandwidth, power, gain)
    lam1 = gain / h_star
    lam4 = max(0.0, mz / cpu_hz * (1.0 - 2.0 * lam1 * kappa * cpu_hz ** 3)
               ) if chi >= 1.0 else 0.0
    return _result(profile, chi, rho, delta, Binding.ENERGY_BINDING,
                   (lam1, 0.0, 0.0, lam4))


def grid_search_allocation(profile: DeviceProfile, gain: float,
                           bandwidth: float, resolution: int = 400,
                           chi_range=(0.01, 1.0), rho_range=(0.01, 1.0)):
    """Brute-force oracle: best feasible (chi, rho) grid point.

    Returns (total_delay, chi, rho); total_delay is inf when no grid
    point satisfies the energy budget.
    """
    chi = np.linspace(chi_range[0], chi_range[1], resolution)
    rho = np.linspace(rho_range[0], rho_range[1], resolution)
    mz = profile.work_cycles
    comp_t = mz / (chi * profile.cpu_hz)
    comp_e = profile.power_coeff * mz * (chi * profile.cpu_hz) ** 2
    rate = bandwidth * np.log1p(rho * profile.max_power_w * gain) / LN2
    tx_t = profile.model_bits / rate
    tx_e = rho * profile.max_power_w * tx_t
    energy = comp_e[:, None] + tx_e[None, :]
    delay = comp_t[:, None] + tx_t[None, :]
    delay = np.where(energy <= profile.max_energy_j, delay, np.inf)
    idx = np.argmin(delay)
    i, j = np.unravel_index(idx, delay.shape)
    return float(delay[i, j]), float(chi[i]), float(rho[j])
