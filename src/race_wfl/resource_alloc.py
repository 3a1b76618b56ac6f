"""Per-device delay-minimizing resource allocation under an energy budget.

For one device the problem is: choose a CPU fraction ``chi`` and a power
fraction ``rho`` (both in (0, 1]) minimizing computation-plus-transmission
delay subject to the per-round energy budget.  After substituting the
transmission time ``delta`` for ``rho`` the problem is convex, and the
first-order conditions reduce to a single monotone scalar equation in the
rate exponent ``u = model_bits / (delta * bandwidth)``.  One bracketed,
safeguarded Newton search solves it (about 13 probes on typical rows);
the feasible end of its final bracket gives chi and the energy-binding
transmission time together, so an interior solve spends its budget to
within about 1e-12 relative.  Failures raise where they happen:
``ValueError`` on a gain or bandwidth <= 0, ``InfeasibleError`` when the
budget is below the transmission-energy infimum, ``OverflowError`` or
``ZeroDivisionError`` when a term leaves the float range (such as
``max_power_w * gain``, or the cube of a power-capped chi),
``ArithmeticError`` when an interior transmission time does,
``ConvergenceError`` when the search finds no bracket or a binding solve
comes out more than ``ENERGY_GUARD_REL`` over budget.

Outcomes:
  * energy slack: full allocation (chi = rho = 1) fits the budget;
  * energy binding, interior power: chi from the multiplier relation,
    delta from the same rate exponent, rho < 1;
  * energy binding, power capped: rho = 1 and chi spends the remaining
    budget on computation.

A brute-force grid oracle over (chi, rho) is provided for verification.
"""

import math
import sys
from enum import Enum
from typing import NamedTuple

import numpy as np

from .cost_model import DeviceProfile, comp_costs
from .errors import ConvergenceError, InfeasibleError, RaceError

LN2 = 0.6931471805599453
# the largest x with a finite exp(x) or expm1(x)
LOG_MAX = math.log(sys.float_info.max)

# A binding solve whose energy exceeds its budget by more than this share
# is a solver failure, not an allocation.
ENERGY_GUARD_REL = 1e-9


class Binding(Enum):
    ENERGY_SLACK = "slack"
    ENERGY_BINDING = "binding"


class AllocationResult(NamedTuple):
    """One device's allocation; a tuple, so immutable and cheap to make
    (the round loop makes one per device per round)."""

    chi: float
    rho: float
    tx_time: float
    binding: Binding
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
    ``E(u) = kappa * mz * (chi * cpu_hz)**2 + etx(u)`` increases in u.  One
    loop probes its overshoot ``E(u) - emax`` in three stages.  The lower
    end steps down from 1e-6 by 1/16 until the overshoot is negative (at
    most 200 probes; after that the search starts from the last step).
    The upper end doubles from 1 until it is positive (past 1e9 the solve
    fails); each non-positive probe there becomes the lower end.  Then
    Newton steps on ``log(E(u) / emax)`` shrink the bracket (at most 300
    probes), each from the end with the smaller ``|log(E / emax)|``, with
    the closed-form slope ``E'(u) = bits * h / (bandwidth * gain * u**2)
    + (2/3) * ecp * ln2 * x e^x / h`` (the second term is 0 while chi is
    clamped).  A Newton point within a tolerance of a bracket end moves
    that tolerance inside, so a one-sided approach still closes the
    bracket; a point outside the bracket, or any step after two that did
    not halve it, is replaced by the midpoint.  Stops at a bracket of
    1e-14 relative width and returns its feasible end, where the
    overshoot is <= 0.
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
        ubg = u * bandwidth * gain
        energy = ecp + bits * em1 / ubg
        over = energy - emax
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
                u_lo = u
                u_hi *= 2.0
                if u_hi > 1e9:
                    raise ConvergenceError(
                        "allocation solver failed to converge")
                u = u_hi
                continue
            stage, probes = 2, 0
            # |log(E / emax)| and the Newton point at each end; the lower
            # end has none yet
            dist_lo, newton_lo = math.inf, math.nan
            width_1 = width_2 = math.inf
        slope = bits * h / ubg / u
        if y < 1.0 and h > 0.0:
            slope += (2.0 / 3.0) * ecp * LN2 * (h + em1) / h
        ratio = energy / emax
        if ratio > 0.0 and slope > 0.0:
            log_ratio = math.log(ratio)
            dist, newton = abs(log_ratio), u - log_ratio * energy / slope
        else:
            dist, newton = math.inf, math.nan
        if over > 0.0:
            u_hi, dist_hi, newton_hi = u, dist, newton
        else:
            u_lo, dist_lo, newton_lo = u, dist, newton
        width = u_hi - u_lo
        if width <= 1e-14 * u_hi or probes == 300:
            return u_lo
        # step from the end nearer the root; the midpoint when that point
        # leaves the bracket or the bracket has not halved in two steps
        newton = newton_hi if dist_hi < dist_lo else newton_lo
        if width <= 0.5 * width_2 and u_lo <= newton <= u_hi:
            tol = 5e-15 * u_hi
            u = min(max(newton, u_lo + tol), u_hi - tol)
        else:
            u = 0.5 * (u_lo + u_hi)
        width_1, width_2 = width, width_1
        if u == u_lo or u == u_hi:
            return u_lo


def _check_full_rate(bits, delta_full, bandwidth):
    """Raise when the full-power rate exponent, recomputed from the
    transmission time, leaves the float range: the time underflows to 0,
    or 2**u overflows."""
    if delta_full * bandwidth == 0.0:
        raise ZeroDivisionError("full-power transmission time underflows "
                                "to 0: beyond the float range")
    if LN2 * (bits / (delta_full * bandwidth)) > LOG_MAX:
        raise OverflowError("full-power rate exponent beyond the float "
                            "range")


def _result(profile, chi, rho, delta, binding):
    if chi == 0.0:
        # a positive chi below the float range: the computation delay
        # overflows, as the other out-of-range rows do
        raise OverflowError("CPU fraction underflows to 0: computation "
                            "delay beyond the float range")
    comp_time, ecp = comp_costs(profile, chi)
    res = AllocationResult(
        chi=float(chi), rho=float(rho), tx_time=float(delta),
        binding=binding, comp_time=float(comp_time),
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
    if not gain > 0.0:
        raise ValueError(f"gain must be > 0, got {gain}")
    if not bandwidth > 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
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
    if math.isinf(u_full):
        raise OverflowError("max_power_w * gain overflows: full-power "
                            "rate beyond the float range")
    delta_full = bits / (bandwidth * u_full)
    if kappa * mz * cpu_hz ** 2 + power * delta_full <= emax:
        _check_full_rate(bits, delta_full, bandwidth)
        return _result(profile, 1.0, 1.0, delta_full, Binding.ENERGY_SLACK)

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
        if 2.0 * kappa * cpu_hz ** 3 * chi ** 3 == 0.0:
            raise ZeroDivisionError("CPU fraction cubed underflows to 0: "
                                    "energy multiplier beyond the float "
                                    "range")
        _check_full_rate(bits, delta_full, bandwidth)
        if bits / (delta_full * bandwidth) == 0.0:
            raise ZeroDivisionError("full-power rate exponent underflows "
                                    "to 0: beyond the float range")
        return _result(profile, chi, 1.0, delta_full, Binding.ENERGY_BINDING)

    h_star = _h(u_star)[0]
    chi = min((h_star / (2.0 * kappa * cpu_hz ** 3 * gain)) ** (1.0 / 3.0),
              1.0)
    delta = bits / (u_star * bandwidth)
    try:
        rho = rho_from_delta(delta, bits, bandwidth, power, gain)
    except RaceError as exc:
        # u_star <= u_full, so only rounding fails here: a time that
        # underflows to 0 or rounds below the full-power time
        raise ArithmeticError(f"interior transmission time {delta!r} s "
                              f"beyond the float range: {exc}") from exc
    if h_star == 0.0:
        raise ZeroDivisionError("stationarity term h(u) underflows to 0: "
                                "energy multiplier beyond the float range")
    return _result(profile, chi, rho, delta, Binding.ENERGY_BINDING)


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
