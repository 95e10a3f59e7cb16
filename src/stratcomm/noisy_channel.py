"""The game over an average-power-limited additive white Gaussian channel.

Uncoded linear transmission is optimal here: the transmitter scales the
noiseless equilibrium signal X + alpha*theta to meet the power budget
exactly, and the achieved encoder cost coincides with the strategic
rate-distortion bound evaluated at the channel capacity.  The matching is
exact (inner and outer bounds meet), which the tests verify to tight
tolerance on sampled models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import _linear_costs, _signal_ratio, best_alpha
from .gausslin import CostPair, LinearScheme, SourcePairModel
from .strategic_rd import rd_point


@dataclass(frozen=True)
class ChannelSpec:
    """Average transmit power budget and channel noise variance."""

    power: float
    noise_var: float


def validate_channel(ch: ChannelSpec) -> None:
    if not (math.isfinite(ch.power) and ch.power > 0.0):
        raise ValueError("power: must be positive and finite")
    if not (math.isfinite(ch.noise_var) and ch.noise_var > 0.0):
        raise ValueError("noise_var: must be positive and finite")


def capacity(ch: ChannelSpec) -> float:
    """Channel capacity 0.5*log2(1 + power/noise_var) in bits."""
    validate_channel(ch)
    return 0.5 * math.log2(1.0 + ch.power / ch.noise_var)


def solve_noisy(model: SourcePairModel, ch: ChannelSpec) -> tuple[LinearScheme, CostPair]:
    """Equilibrium over the power-limited channel.

    The theta-weight is channel-independent (identical to the noiseless
    equilibrium); only the gain depends on the budget, saturating it:
    E{U^2} = power exactly.  Costs are the closed-form best response.
    """
    alpha = best_alpha(model)
    validate_channel(ch)
    gain, kappa, d_e, d_d = _budget_costs(model, alpha, ch.power, ch.noise_var)
    s2 = model.sigma_x2
    scheme = LinearScheme(enc_gain=gain, enc_theta_weight=alpha, dec_y_weight=float(kappa) / gain)
    return scheme, CostPair(d_e=float(s2 * d_e), d_d=float(s2 * d_d))


def _budget_costs(model: SourcePairModel, alpha: float, power, noise_var: float):
    """(c, kappa, d_e, d_d), costs per unit sigma_x2, of c*(X + alpha*theta) at E{U^2} = power.

    The kernel runs on Y/c: unit gain and channel noise Var(S)*N/P, with S =
    X + alpha*theta, so a gain whose square underflows still gives the costs.
    c = sqrt(P)/sqrt(Var(S)) is formed for the report only; floats in give
    floats out, arrays of powers give arrays.
    """
    rho, r = model.rho, model.r
    ratio = _signal_ratio(rho, r, alpha)  # Var(S) / sigma_x2
    sqrt = np.sqrt if isinstance(power, np.ndarray) else math.sqrt
    gain = sqrt(power) / sqrt(model.sigma_x2 * ratio)
    return (gain, *_linear_costs(rho, r, alpha, 1.0, 0.0, ratio * noise_var / power))


def opta_bound(model: SourcePairModel, ch: ChannelSpec) -> float:
    """Best encoder cost attainable by any coding scheme over this channel.

    Source-channel separation gives the outer bound: the strategic
    rate-distortion cost at the channel capacity.  :func:`solve_noisy`
    achieves it, so the bound is tight.
    """
    return rd_point(model, capacity(ch)).costs.d_e


@dataclass(frozen=True)
class PowerSweepRow:
    p_over_n: float
    capacity_bits: float
    d_e: float
    d_d: float
    gain: float


def power_sweep(
    model: SourcePairModel, p_over_n_values, noise_var: float = 1.0
) -> list[PowerSweepRow]:
    """Evaluate the noisy equilibrium across transmit-power budgets."""
    alpha = best_alpha(model)
    ratios = np.asarray(p_over_n_values, float)
    bits = [capacity(ChannelSpec(power=float(ratio) * noise_var, noise_var=noise_var)) for ratio in ratios]
    gain, _, d_e, d_d = _budget_costs(model, alpha, ratios * noise_var, noise_var)
    s2 = model.sigma_x2
    return [
        PowerSweepRow(float(ratio), c, float(e), float(d), float(g))
        for ratio, c, e, d, g in zip(ratios, bits, s2 * d_e, s2 * d_d, gain)
    ]
