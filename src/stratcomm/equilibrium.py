"""Leader-follower equilibrium of the noiseless signaling game.

The transmitter commits to a disclosure rule before the receiver moves, the
receiver best-responds with the conditional mean, and both costs are
quadratic.  Within linear rules Y = X + alpha*theta + T the transmitter's
problem reduces to maximizing a single rational function of alpha (the
alignment term E{(2*theta + X) * Xhat}); its unique maximizer is the closed
form alpha* = 2/(1 + sqrt(1 + 4*(r + rho))).  Injecting encoder noise (T)
only hurts, so the equilibrium is deterministic and linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateDenominator
from .gausslin import PSD_RTOL, CostPair, SourcePairModel, _require_finite, require_valid


@dataclass(frozen=True)
class EquilibriumReport:
    """Solved noiseless equilibrium.

    ``a_aux`` is the discriminant-root sqrt(1 + 4*(r + rho)) that appears
    throughout the closed forms; it is reported because downstream
    regression checks are written in terms of it.
    """

    alpha: float
    kappa: float
    costs: CostPair
    a_aux: float


@dataclass(frozen=True)
class LimitReport:
    """d_d evaluated along a model path, with an extrapolated limit."""

    d_d: tuple[float, ...]
    extrapolated: float


def objective_j(model: SourcePairModel, alpha: float, sigma_t2: float = 0.0) -> float:
    """Alignment term E{(2*theta + X) * Xhat} under best-response decoding.

    The transmitter's cost is E{(X + theta)^2} minus this quantity, so the
    equilibrium disclosure weight maximizes it.  Adding encoder noise
    ``sigma_t2`` only inflates the denominator, which is why the noiseless
    scheme is optimal.
    """
    require_valid(model)
    _require_finite(alpha=alpha, sigma_t2=sigma_t2)
    if sigma_t2 < 0.0:
        raise ValueError("sigma_t2: must be nonnegative")
    rho, r = model.rho, model.r
    kappa, _, _ = _linear_costs(rho, r, alpha, 1.0, sigma_t2 / model.sigma_x2, 0.0)
    # kappa * Cov(X + 2*theta, X + alpha*theta), in product form
    return float(model.sigma_x2 * kappa * (1.0 + 2.0 * rho + alpha * (rho + 2.0 * r)))


def _signal_ratio(rho, r, alpha):
    """Var(X + alpha*theta) / sigma_x2, elementwise."""
    return 1.0 + alpha * (2.0 * rho + alpha * r)


def _linear_costs(rho, r, alpha, gain2, t, n):
    """(kappa, d_e, d_d) of Y = c*(X + alpha*theta) + T + N under the best decoder.

    Arguments broadcast and, like the costs, are per unit sigma_x2: gain2 =
    c^2, t and n the variances of T and N.  kappa is c times the weight on
    Y.  As in the oracle decoder, Y is dropped when its signal power
    c^2*Var(X + alpha*theta) is at most PSD_RTOL * Var(Y), a test in Y's
    own units, so t = inf gives the no-information costs and gain2 = 0 the
    prior point.  Floats in give floats out, with no numpy call; arrays in
    give arrays, equal to the float route bit for bit.
    """
    cov_xs = 1.0 + alpha * rho  # Cov(X, X + alpha*theta) / sigma_x2
    cov_ts = rho + alpha * r  # Cov(theta, X + alpha*theta) / sigma_x2
    signal = gain2 * _signal_ratio(rho, r, alpha)
    var_y = signal + t + n
    keep = signal > PSD_RTOL * var_y
    if isinstance(keep, np.ndarray):  # divide only where Y is kept
        kappa = np.divide(gain2 * cov_xs, var_y, out=np.zeros(keep.shape), where=keep)
    else:
        kappa = gain2 * cov_xs / var_y if keep else 0.0
    d_d = 1.0 - kappa * cov_xs
    return kappa, d_d + 2.0 * (rho - kappa * cov_ts) + r, d_d


def a_aux(model: SourcePairModel) -> float:
    """sqrt(1 + 4*(r + rho)); always real for valid models since r > rho^2."""
    return sqrt(1.0 + 4.0 * (model.r + model.rho))


def best_alpha(model: SourcePairModel) -> float:
    """Equilibrium disclosure weight 2/(1 + sqrt(1 + 4*(r + rho))).

    It is the root (-1 + sqrt(1 + 4*(r + rho)))/(2*(r + rho)) of the
    stationarity quadratic with the cancellation rationalized away, and
    the alignment value's strict global maximum
    (``docs/derivation_notes.md`` §3).
    """
    require_valid(model)
    return float(_stationary_weight(model.rho, model.r))


def _stationary_weight(rho, r):
    """:func:`best_alpha` for pairs the caller has checked, elementwise.

    1 + 4*(r + rho) = Var(X + 2*theta)/sigma_x2 is positive on every pair,
    so the formula holds without a branch.  Floats or arrays, as in
    :func:`_linear_costs` (math.sqrt and np.sqrt both round correctly).
    """
    q = 1.0 + 4.0 * (r + rho)
    return 2.0 / (1.0 + (np.sqrt if isinstance(q, np.ndarray) else sqrt)(q))


def solve_noiseless(model: SourcePairModel) -> EquilibriumReport:
    """Full noiseless equilibrium: weights plus exact costs.

    Costs come from the closed-form best response of :func:`_linear_costs`;
    see :func:`analytic_costs` for the shortcut used as an independent
    regression check.
    """
    alpha = best_alpha(model)
    kappa, d_e, d_d = _linear_costs(model.rho, model.r, alpha, 1.0, 0.0, 0.0)
    s2 = model.sigma_x2
    return EquilibriumReport(
        alpha=alpha,
        kappa=float(kappa),
        costs=CostPair(d_e=float(s2 * d_e), d_d=float(s2 * d_d)),
        a_aux=a_aux(model),
    )


def analytic_costs(model: SourcePairModel) -> CostPair:
    """Closed-form shortcut for the equilibrium costs.

    Derived independently of the cost kernel, so the two routes
    cross-check each other.  Degenerates when r + rho approaches 0 or the
    d_d denominator vanishes; callers should stay away from those
    boundaries (the solver itself does not use this function).
    """
    require_valid(model)
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    s = r + rho
    a = a_aux(model)
    if abs(a - 1.0) < 1e-9:
        raise DegenerateDenominator("shortcut forms degenerate as r + rho -> 0")
    denom = a * (2.0 * r + a * rho + rho)
    if abs(denom) < 1e-12:
        raise DegenerateDenominator("d_d shortcut denominator vanishes")
    d_e = s2 * (1.0 + (a - 3.0) * s / (a - 1.0))
    d_d = s2 * (r - rho**2) * (a - 1.0) / denom
    return CostPair(d_e=d_e, d_d=d_d)


def corollary_limits(models: Iterable[SourcePairModel] | Sequence[SourcePairModel]) -> LimitReport:
    """Evaluate d_d along a model path and extrapolate its limit.

    The path is whatever the caller parametrizes (growing r, rho -> 1,
    r -> rho^2, ...).  Aitken delta-squared acceleration is applied to the
    last three values when stable; otherwise the last value is reported.
    """
    values = tuple(solve_noiseless(m).costs.d_d for m in models)
    if not values:
        raise ValueError("models: need at least one model on the path")
    extrapolated = values[-1]
    if len(values) >= 3:
        x0, x1, x2 = values[-3], values[-2], values[-1]
        d1, d2 = x1 - x0, x2 - x1
        denom = d2 - d1
        # Accelerate only while the tail still contracts with a steady
        # sign (0 < d2/d1 < 1); anything else means the sequence is not
        # settling geometrically and the raw last value is safer.
        if abs(denom) > 1e-15 * max(1.0, abs(x2)) and d1 != 0.0:
            ratio = d2 / d1
            if 0.0 < ratio < 1.0:
                extrapolated = x2 - d2 * d2 / denom
    return LimitReport(d_d=values, extrapolated=float(extrapolated))
