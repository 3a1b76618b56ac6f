"""Per-device delay-minimizing resource allocation under an energy budget.

For one device the problem is: choose a CPU fraction ``chi`` and a power
fraction ``rho`` (both in (0, 1]) minimizing computation-plus-transmission
delay subject to the per-round energy budget.  After substituting the
transmission time ``delta`` for ``rho`` the problem is convex, and the
first-order conditions reduce to a single monotone scalar equation, which
is solved here by safeguarded bisection with a Brent polish of the
energy-binding transmission time.  The Brent root is taken from the side
of its bracket that stays within the budget, so a binding solve never
overshoots it.  Failures raise where they happen: ``InfeasibleError``
when the budget is below the transmission-energy infimum,
``ConvergenceError`` when a root-finder fails.

Outcomes:
  * energy slack: full allocation (chi = rho = 1) fits the budget;
  * energy binding, interior power: chi from the multiplier relation,
    delta from the binding energy equation, rho < 1;
  * energy binding, power capped: rho = 1 and chi spends the remaining
    budget on computation.

A brute-force grid oracle over (chi, rho) is provided for verification.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cost_model import DeviceProfile
from .errors import ConvergenceError, InfeasibleError, RaceError, RegimeError

LN2 = 0.6931471805599453
_EPS = 2.220446049250313e-16

# Root-finder controls.  ROOT_TOLERANCE bounds both the bracket width
# (seconds) and the relative energy residual at a binding solution;
# BRACKET_SCALE sets the initial upper bracket as a multiple of the
# full-power transmission time (expanded geometrically if the residual
# has not changed sign yet).
ROOT_TOLERANCE = 1e-6
MAX_ITERATIONS = 100
BRACKET_SCALE = 1e3


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


def _binding_residual(delta, ecp, bits, bandwidth, gain, emax):
    """Energy overshoot at transmission time ``delta`` for fixed chi."""
    u = bits / (delta * bandwidth)
    return ecp + delta * math.expm1(LN2 * u) / gain - emax


def _binding_bracket(lo, ecp, bits, bandwidth, gain, emax):
    """Upper end of a bracket ``[lo, hi]`` on which the binding residual
    turns negative: ``BRACKET_SCALE * lo``, grown tenfold while the
    residual has not changed sign (near-boundary instances need very long
    transmission times)."""
    hi = BRACKET_SCALE * lo
    for _ in range(60):
        if _binding_residual(hi, ecp, bits, bandwidth, gain, emax) < 0.0:
            return hi
        hi *= 10.0
    raise InfeasibleError("energy constraint cannot be met on any bracket")


def _brent_binding(ecp, bits, bandwidth, gain, emax, a, b):
    """Brent root of the binding-energy residual on [a, b].

    The residual falls as the transmission time grows, so a converged
    root is returned from the bracket end whose residual is <= 0: the
    solve never overshoots its budget.  Raises InfeasibleError when the
    residual does not change sign on [a, b] and ConvergenceError when the
    iteration cap leaves the residual above ``ROOT_TOLERANCE * emax``.
    """
    res_tol = ROOT_TOLERANCE * emax
    fa = _binding_residual(a, ecp, bits, bandwidth, gain, emax)
    fb = _binding_residual(b, ecp, bits, bandwidth, gain, emax)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise InfeasibleError("no sign change on bracket")
    c = a
    fc = fa
    e = b - a
    d = e
    for _ in range(MAX_ITERATIONS):
        if abs(fc) < abs(fb):
            a = b
            b = c
            c = a
            fa = fb
            fb = fc
            fc = fa
        # steps may shrink to machine precision; the user tolerances only
        # decide when the current iterate counts as converged
        step_tol = 2.0 * _EPS * abs(b) + 1e-30
        m = 0.5 * (c - b)
        width_ok = abs(m) <= max(ROOT_TOLERANCE, 2.0 * step_tol)
        if fb == 0.0 or (abs(fb) <= res_tol and width_ok):
            return c if fb > 0.0 else b
        if abs(m) <= step_tol:
            break
        if abs(e) < step_tol or abs(fa) <= abs(fb):
            # bisection
            e = m
            d = e
        else:
            s = fb / fa
            if a == c:
                # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(step_tol * q), abs(e * q)):
                e = d
                d = p / q
            else:
                e = m
                d = e
        a = b
        fa = fb
        if abs(d) > step_tol:
            b += d
        elif m > 0.0:
            b += step_tol
        else:
            b -= step_tol
        fb = _binding_residual(b, ecp, bits, bandwidth, gain, emax)
        if (fb > 0.0) == (fc > 0.0):
            c = a
            fc = fa
            e = b - a
            d = e
    if abs(fb) <= res_tol:
        return c if fb > 0.0 else b
    raise ConvergenceError("root-finder hit its iteration cap")


def _stationarity_chi(u, kappa, cpu_hz, gain):
    """Unconstrained chi from the multiplier relation at rate exponent u."""
    h = u * LN2 * math.exp(LN2 * u) - math.expm1(LN2 * u)
    return (h / (2.0 * kappa * cpu_hz ** 3 * gain)) ** (1.0 / 3.0)


def _binding_overshoot(u, kappa, mz, cpu_hz, bits, bandwidth, gain, emax):
    """Energy overshoot along the stationarity path, increasing in u."""
    chi = _stationarity_chi(u, kappa, cpu_hz, gain)
    if chi > 1.0:
        chi = 1.0
    ecp = kappa * mz * (chi * cpu_hz) ** 2
    etx = bits * math.expm1(LN2 * u) / (u * bandwidth * gain)
    return ecp + etx - emax


def _stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain, emax):
    """Rate exponent u at which the stationarity path exactly spends the
    budget, by bisection on a geometrically grown bracket."""
    u_lo = 1e-6
    for _ in range(200):
        if _binding_overshoot(u_lo, kappa, mz, cpu_hz, bits, bandwidth,
                              gain, emax) < 0.0:
            break
        u_lo *= 0.0625
        if u_lo < 1e-280:
            raise ConvergenceError("allocation solver failed to converge")
    u_hi = 1.0
    for _ in range(200):
        if _binding_overshoot(u_hi, kappa, mz, cpu_hz, bits, bandwidth,
                              gain, emax) > 0.0:
            break
        u_hi *= 2.0
        if u_hi > 1e9:
            raise ConvergenceError("allocation solver failed to converge")
    for _ in range(300):
        mid = 0.5 * (u_lo + u_hi)
        if mid == u_lo or mid == u_hi:
            break
        if _binding_overshoot(mid, kappa, mz, cpu_hz, bits, bandwidth,
                              gain, emax) > 0.0:
            u_hi = mid
        else:
            u_lo = mid
        if (u_hi - u_lo) <= 1e-14 * u_hi:
            break
    return 0.5 * (u_lo + u_hi)


def solve_binding_delta(chi: float, profile: DeviceProfile, gain: float,
                        bandwidth: float) -> float:
    """Transmission time that exactly exhausts the energy budget at ``chi``.

    The bracket starts at the full-power transmission time and extends to
    ``BRACKET_SCALE`` times it, expanding geometrically while the residual
    has not changed sign.
    """
    if not 0.0 < chi <= 1.0:
        raise RaceError("chi must lie in (0, 1]")
    bits = profile.model_bits
    emax = profile.max_energy_j
    if not check_feasibility(bits, emax, bandwidth, gain):
        raise InfeasibleError("energy budget below the transmission infimum")
    ecp = profile.power_coeff * profile.work_cycles * (chi * profile.cpu_hz) ** 2
    lo = bits / (bandwidth * math.log1p(profile.max_power_w * gain) / LN2)
    if _binding_residual(lo, ecp, bits, bandwidth, gain, emax) < 0.0:
        raise InfeasibleError(
            "no sign change on bracket: energy is slack at full power"
        )
    hi = _binding_bracket(lo, ecp, bits, bandwidth, gain, emax)
    return float(_brent_binding(ecp, bits, bandwidth, gain, emax, lo, hi))


def _result(profile, chi, rho, delta, binding, multipliers):
    ecp = profile.power_coeff * profile.work_cycles * (
        chi * profile.cpu_hz) ** 2
    return AllocationResult(
        chi=float(chi), rho=float(rho), tx_time=float(delta),
        binding=binding, multipliers=multipliers,
        comp_time=float(profile.work_cycles / (chi * profile.cpu_hz)),
        energy=float(ecp + rho * profile.max_power_w * delta),
    )


def optimal_allocation(profile: DeviceProfile, gain: float,
                       bandwidth: float) -> AllocationResult:
    """Delay-optimal (chi, rho) for one device under its energy budget."""
    kappa = profile.power_coeff
    mz = profile.work_cycles
    cpu_hz = profile.cpu_hz
    bits = profile.model_bits
    power = profile.max_power_w
    emax = profile.max_energy_j
    if LN2 * bits >= emax * bandwidth * gain:
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
    # until the budget is exactly spent.
    u_star = _stationary_rate(kappa, mz, cpu_hz, bits, bandwidth, gain,
                              emax)
    chi = min(_stationarity_chi(u_star, kappa, cpu_hz, gain), 1.0)
    ecp = kappa * mz * (chi * cpu_hz) ** 2
    if (u_star > u_full
            or _binding_residual(delta_full, ecp, bits, bandwidth, gain,
                                 emax) < 0.0):
        # Power cap binds first: transmit at full power, spend what is
        # left of the budget on computation.
        etx = power * delta_full
        chi = min(math.sqrt((emax - etx) / (kappa * mz * cpu_hz ** 2)), 1.0)
        lam1 = 1.0 / (2.0 * kappa * cpu_hz ** 3 * chi ** 3)
        u = bits / (delta_full * bandwidth)
        h = u * LN2 * math.exp(LN2 * u) - math.expm1(LN2 * u)
        lam2 = max(0.0, (1.0 - lam1 * h / gain) * delta_full * power * gain
                   / (u * LN2 * math.exp(LN2 * u)))
        return _result(profile, chi, 1.0, delta_full, Binding.ENERGY_BINDING,
                       (lam1, lam2, 0.0, 0.0))

    h = u_star * LN2 * math.exp(LN2 * u_star) - math.expm1(LN2 * u_star)
    lam1 = gain / h
    try:
        hi = _binding_bracket(delta_full, ecp, bits, bandwidth, gain, emax)
        delta = _brent_binding(ecp, bits, bandwidth, gain, emax, delta_full,
                               hi)
    except InfeasibleError as exc:
        # chi lies on the stationarity path, whose budget is reachable: a
        # bracket without a sign change is a solver failure
        raise ConvergenceError("allocation solver failed to converge") from exc
    rho = min(math.expm1(LN2 * bits / (delta * bandwidth)) / (power * gain),
              1.0)
    lam4 = max(0.0, mz / cpu_hz * (1.0 - 2.0 * lam1 * kappa * cpu_hz ** 3)
               ) if chi >= 1.0 else 0.0
    return _result(profile, chi, rho, delta, Binding.ENERGY_BINDING,
                   (lam1, 0.0, 0.0, lam4))


def large_model_delta(chi: float, profile: DeviceProfile, gain: float,
                      bandwidth: float) -> float:
    """Closed-form transmission time for payloads much larger than the
    per-transmission-time bandwidth budget. Raises RegimeError when the
    logarithm's argument is not > 1 (no positive solution)."""
    ecp = profile.power_coeff * profile.work_cycles * (chi * profile.cpu_hz) ** 2
    numer = profile.model_bits * LN2
    arg = (profile.max_energy_j - ecp) * gain / numer
    if arg <= 1.0:
        raise RegimeError(
            "large-model approximation outside its regime (log argument <= 1)"
        )
    return numer / (bandwidth * math.log(arg))


def high_snr_delta(chi: float, profile: DeviceProfile, gain: float,
                   bandwidth: float) -> float:
    """Closed-form transmission time in the high-SNR binding regime.

    Requires received SNR at full power of at least 10.
    """
    if profile.max_power_w * gain < 10.0:
        raise RegimeError("high-SNR closed form requires P * gain >= 10")
    ecp = profile.power_coeff * profile.work_cycles * (chi * profile.cpu_hz) ** 2
    if ecp <= 0 or profile.max_energy_j <= 0:
        raise RegimeError("invalid energy terms")
    return profile.model_bits / (
        bandwidth * math.log1p(profile.max_energy_j * gain / ecp) / LN2
    )


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


def grid_feasibility(profile: DeviceProfile, gain: float, bandwidth: float,
                     resolution: int = 600) -> bool:
    """Dense log-grid oracle: does any (chi, rho) fit the energy budget?

    chi and rho extend far below the optimality grid so the oracle can
    approach the vanishing-power energy infimum.
    """
    chi = np.logspace(-8, 0, resolution)
    rho = np.logspace(-12, 0, resolution)
    mz = profile.work_cycles
    comp_e = profile.power_coeff * mz * (chi * profile.cpu_hz) ** 2
    rate = bandwidth * np.log1p(rho * profile.max_power_w * gain) / LN2
    tx_e = rho * profile.max_power_w * profile.model_bits / rate
    energy = comp_e[:, None] + tx_e[None, :]
    return bool((energy <= profile.max_energy_j).any())
