"""Receiver side information: equilibria, rate limits, and exact matching.

The receiver observes W jointly Gaussian with (X, theta) in addition to the
transmitted signal.  Given W, the residuals of (X, theta) are independent of
W, so the game reduces to the plain game on the conditional moments of
(X, theta) given W (Gaussian Wyner-Ziv, with no rate loss).  Three
structural facts follow, each verified numerically elsewhere in the
package:

* side information at the transmitter is worthless: adding any multiple of W
  to the transmitted signal leaves both equilibrium costs unchanged, because
  the receiver can subtract it exactly;
* under a rate limit the relevant information measure is
  I(X, theta; Y) - I(Y; W), i.e. only the part of Y not predictable from W
  costs rate; the rate then enters the encoder cost only as a beta-free
  multiplier, so the theta-weight is the conditional game's closed-form
  weight at every rate (the noise variance carries all of the rate
  dependence);
* over a noisy channel, uncoded linear transmission is exactly optimal iff
  the source-to-W geometry satisfies a single scalar matching condition:
  W is uncorrelated with the plain game's equilibrium signal, which gives
  the matched rho_x_w in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._csvio import write_rows
from .equilibrium import _linear_costs, _signal_ratio, _stationary_weight, best_alpha
from .errors import InfeasibleInterval, NoRoot, ZeroRate
from .gausslin import (
    CostPair,
    LinearScheme,
    SideInfoModel,
    SourcePairModel,
    _require_finite,
    best_decoders,
    require_valid,
    validate_model,
)
from .noisy_channel import ChannelSpec, capacity, validate_channel
from .strategic_rd import _noise_per_signal


@dataclass(frozen=True)
class SiEquilibriumReport:
    """Noiseless equilibrium with receiver side information."""

    alpha_si: float
    dec_y: float
    dec_w: float
    costs: CostPair


@dataclass(frozen=True)
class SiRdPoint:
    """One point of the rate-limited curve with side information."""

    rate: float
    beta: float
    sigma_s2: float
    costs: CostPair


@dataclass(frozen=True)
class InvarianceReport:
    """Costs of the equilibrium encoder augmented by b*W, per b."""

    b_values: tuple[float, ...]
    costs: tuple[CostPair, ...]
    max_abs_deviation: float


@dataclass(frozen=True)
class MatchReport:
    rate: float
    beta: float
    residual: float
    matched: bool
    gap: float
    costs: CostPair  # of the uncoded linear scheme, as solve_noisy_si_linear gives them


def _params(m: SideInfoModel) -> tuple[float, float, float, float, float, float]:
    return (m.sigma_x2, m.rho_x_theta, m.r_theta, m.rho_x_w, m.rho_theta_w, m.r_w)


def _conditional_pair(m: SideInfoModel) -> SourcePairModel:
    """The (X, theta) model given W: (sigma_x2*v, rho_c, r_c).

    v = 1 - rho_x_w^2 / r_w is Var(X | W) / sigma_x2; rho_c and r_c are the
    conditional cross and theta moments normalized by it.
    """
    s2, rxt, rt, rxw, rtw, rw = _params(m)
    v = 1.0 - rxw * rxw / rw
    return SourcePairModel(
        sigma_x2=s2 * v,
        rho=(rxt - rxw * rtw / rw) / v,
        r=(rt - rtw * rtw / rw) / v,
    )


def _conditional_signal_ratio(m: SideInfoModel, beta: float) -> float:
    """Var(X + beta*theta | W) / sigma_x2; strictly positive for valid models."""
    c = _conditional_pair(m)
    return max(c.sigma_x2 / m.sigma_x2 * _signal_ratio(c.rho, c.r, beta), 0.0)


def _si_weight(m: SideInfoModel) -> float:
    """Equilibrium theta-weight: the plain game's closed form given W."""
    c = _conditional_pair(m)
    return float(_stationary_weight(c.rho, c.r))


def _si_costs(m: SideInfoModel, alpha: float, gain2: float, t: float, n: float) -> tuple[float, float, CostPair]:
    """(kappa, dec_w, costs) of Y = c*(X + alpha*theta) + T + N, decoded on (Y, W).

    t and n are the variances of T and N.  The kernel on the conditional pair gives
    kappa, c times the weight on Y - E[Y|W] (``docs/derivation_notes.md`` §6); the
    (Y, W) block is never inverted.
    """
    c = _conditional_pair(m)
    kappa, d_e, d_d = _linear_costs(c.rho, c.r, alpha, gain2, t / c.sigma_x2, n / c.sigma_x2)
    kappa = float(kappa)
    dec_w = (m.rho_x_w - kappa * (m.rho_x_w + alpha * m.rho_theta_w)) / m.r_w
    d_e = c.sigma_x2 * d_e + m.sigma_x2 * m.rho_theta_w**2 / m.r_w
    return kappa, dec_w, CostPair(d_e=float(d_e), d_d=float(c.sigma_x2 * d_d))


def solve_noiseless_si(m: SideInfoModel) -> SiEquilibriumReport:
    """Equilibrium over encoders Y = X + alpha*theta with decoding on (Y, W).

    Encoder noise is not injected (it is strictly harmful, as in the no-W
    game); the weight, the decoder and the costs are the plain game's
    closed forms on the conditional pair.
    """
    require_valid(m)
    alpha = _si_weight(m)
    dec_y, dec_w, costs = _si_costs(m, alpha, 1.0, 0.0, 0.0)
    return SiEquilibriumReport(alpha_si=alpha, dec_y=dec_y, dec_w=dec_w, costs=costs)


def transmitter_si_invariance(m: SideInfoModel, b_values) -> InvarianceReport:
    """Show that transmitting b*W alongside the signal changes nothing.

    For each b the encoder sends X + alpha_si*theta + b*W and the receiver
    best-responds on (Y, W); the costs are compared against b = 0.  The
    deviation is zero in exact arithmetic because the receiver can cancel
    the W component of Y before decoding.
    """
    report = solve_noiseless_si(m)
    b_values = tuple(float(b) for b in b_values)
    schemes = [LinearScheme(enc_theta_weight=report.alpha_si, enc_si_weight=b) for b in b_values]
    _, costs = best_decoders(m, schemes, [0.0] * len(schemes))
    ref = report.costs
    deviation = np.abs(costs - (ref.d_e, ref.d_d))
    return InvarianceReport(
        b_values=b_values,
        costs=tuple(CostPair(d_e=d_e, d_d=d_d) for d_e, d_d in costs.tolist()),
        max_abs_deviation=float(deviation.max(initial=0.0)),
    )


def si_rate(m: SideInfoModel, beta: float, sigma_s2: float) -> float:
    """Effective rate I(X, theta; Y) - I(Y; W) of a test channel, in bits.

    Equals 0.5*log2(Var(Y | W) / sigma_s2): only the component of Y that the
    receiver cannot already predict from W consumes rate.  Passing
    sigma_s2 = +inf returns 0.
    """
    require_valid(m)
    _require_finite(beta=beta)
    if not sigma_s2 > 0.0:
        raise ZeroRate("sigma_s2 must be positive (use +inf for the zero-rate point)")
    if math.isinf(sigma_s2):
        return 0.0
    ratio = _conditional_signal_ratio(m, beta) * m.sigma_x2 / sigma_s2
    return 0.5 * math.log2(1.0 + ratio)


def beta_of_rate(m: SideInfoModel, rate: float) -> tuple[float, float]:
    """Optimal (beta, sigma_s2) of the rate-limited game with side information.

    The test-channel noise variance is pinned by the rate constraint, which
    makes the rate a beta-free multiplier of the encoder's alignment term,
    so beta is the zero-noise weight of :func:`solve_noiseless_si` at every
    rate; the returned sigma_s2 is where the rate actually bites.
    """
    require_valid(m)
    if not rate > 0.0:
        raise ZeroRate(f"rate must be positive, got {rate!r}")
    beta = _si_weight(m)
    return beta, _test_noise(m, beta, rate)


def _test_noise(m: SideInfoModel, beta: float, rate: float) -> float:
    """sigma_s2 of the test channel with weight beta at ``rate`` bits; +inf at rate 0."""
    return float(m.sigma_x2 * _conditional_signal_ratio(m, beta) * _noise_per_signal(rate))


def si_rd_point(m: SideInfoModel, rate: float) -> SiRdPoint:
    """Costs of the rate-limited game at ``rate`` bits.

    Rate 0 returns the W-only point: the receiver estimates from side
    information alone.  Positive rates too small to move the costs (1e-300
    bits, say) land on the same point.  Costs are the closed-form best
    response to the test channel.
    """
    require_valid(m)
    if not rate >= 0.0:
        raise ZeroRate(f"rate must be nonnegative, got {rate!r}")
    beta = _si_weight(m) if rate > 0.0 else 0.0
    sigma_s2 = _test_noise(m, beta, rate)
    _, _, costs = _si_costs(m, beta, 1.0, sigma_s2, 0.0)
    return SiRdPoint(rate=rate, beta=beta, sigma_s2=sigma_s2, costs=costs)


def solve_noisy_si_linear(m: SideInfoModel, ch: ChannelSpec) -> tuple[LinearScheme, CostPair]:
    """Uncoded linear transmission over the noisy channel, with W decoding.

    Scales the noiseless-equilibrium signal X + alpha_si*theta to the power
    budget.  In general this is an achievable scheme, not the optimum; it is
    exactly optimal when the matching condition of
    :func:`match_condition` holds.
    """
    require_valid(m)
    validate_channel(ch)
    alpha = _si_weight(m)
    # the kernel runs on Y/c, at unit gain with channel noise Var(S)*N/P, as in solve_noisy
    var_s = m.sigma_x2 * _signal_ratio(m.rho_x_theta, m.r_theta, alpha)
    kappa, dec_w, costs = _si_costs(m, alpha, 1.0, 0.0, var_s * ch.noise_var / ch.power)
    gain = math.sqrt(ch.power) / math.sqrt(var_s)
    scheme = LinearScheme(enc_gain=gain, enc_theta_weight=alpha, dec_y_weight=kappa / gain, dec_w_weight=dec_w)
    return scheme, costs


def match_condition(m: SideInfoModel, ch: ChannelSpec, tol: float = 1e-6) -> MatchReport:
    """Test whether uncoded linear transmission is exactly optimal here.

    At the channel-capacity rate R the optimal test channel has
    theta-weight beta(R); linear transmission is optimal iff the signal
    X + beta(R)*theta is uncorrelated with W, i.e. the residual
    |rho_x_w + rho_theta_w * beta(R)| vanishes.  ``gap`` reports the
    achieved minus bound encoder cost, which is nonnegative always and
    zero exactly at matched geometries.
    """
    _require_finite(tol=tol)
    if tol < 0.0:
        raise ValueError("tol: must be nonnegative")
    scheme, lin_costs = solve_noisy_si_linear(m, ch)
    rate, beta = capacity(ch), scheme.enc_theta_weight
    residual = abs(m.rho_x_w + m.rho_theta_w * beta)
    bound = _si_costs(m, beta, 1.0, _test_noise(m, beta, rate), 0.0)[2]
    return MatchReport(
        rate=rate,
        beta=beta,
        residual=float(residual),
        matched=bool(residual <= tol),
        gap=float(lin_costs.d_e - bound.d_e),
        costs=lin_costs,
    )


def match_sweep(
    m: SideInfoModel, ch: ChannelSpec, points: int = 51
) -> tuple[tuple[str, ...], list[tuple]]:
    """Matching diagnostic on a grid across the feasible rho_x_w range.

    Returns (header, rows) with columns rho_x_w, rate_bits, beta, residual,
    gap; the grid covers the interior of the feasibility interval (the
    endpoints themselves are singular and excluded).
    """
    if points < 2:
        raise ValueError(f"points: need at least two grid points, got {points!r}")
    validate_channel(ch)
    lo, hi = feasible_rho_xw_interval(m)
    grid = np.linspace(lo, hi, points + 2)[1:-1]
    rows = []
    for value in grid:
        report = match_condition(replace(m, rho_x_w=float(value)), ch)
        rows.append((float(value), report.rate, report.beta, report.residual, report.gap))
    return ("rho_x_w", "rate_bits", "beta", "residual", "gap"), rows


def match_sweep_csv(m: SideInfoModel, ch: ChannelSpec, path: str, points: int = 51) -> None:
    """Write :func:`match_sweep` rows as a repr-exact CSV file."""
    header, rows = match_sweep(m, ch, points)
    write_rows(path, header, rows)


def feasible_rho_xw_interval(m: SideInfoModel) -> tuple[float, float]:
    """Open interval of rho_x_w keeping the model positive definite.

    All other entries are held fixed.  The determinant of the normalized
    covariance is a downward parabola in rho_x_w, so feasibility is the
    interval between its roots.
    """
    _, rxt, rt, _, rtw, rw = _params(m)
    a = -rt
    b = 2.0 * rxt * rtw
    c = rt * rw - rtw**2 - rxt**2 * rw
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise InfeasibleInterval(
            "no value of rho_x_w makes the covariance positive definite"
        )
    root = math.sqrt(disc)
    lo = (-b + root) / (2.0 * a)  # a < 0: this is the smaller root
    hi = (-b - root) / (2.0 * a)
    return lo, hi


def find_matched_rho_xw(m: SideInfoModel, ch: ChannelSpec) -> float:
    """Solve the matching condition for rho_x_w in closed form.

    Treats rho_x_w as free (the given model supplies every other entry).  The
    matched point is rho_x_w = -rho_theta_w * alpha*, with alpha* the plain
    game's weight on (rho_x_theta, r_theta): there W is uncorrelated with the
    plain equilibrium signal X + alpha*theta, which is then the conditional
    game's equilibrium signal too, and no other rho_x_w is matched
    (``docs/derivation_notes.md`` §6).  The weight is the same at every rate,
    so the channel is validated but does not move the root.  Raises
    :class:`NoRoot` when the root leaves the model invalid.
    """
    validate_channel(ch)
    if m.rho_theta_w == 0.0:
        return 0.0
    lo, hi = feasible_rho_xw_interval(m)
    root = -m.rho_theta_w * best_alpha(m.pair_part())
    if not validate_model(replace(m, rho_x_w=root)).ok:  # also false outside (lo, hi)
        raise NoRoot(
            f"matched rho_x_w = {root:.6g} leaves the model invalid "
            f"(feasible interval ({lo:.6g}, {hi:.6g}))"
        )
    return root
