"""Named numerical self-checks runnable on an installed copy.

The battery mirrors the package's acceptance tests in a form that needs no
test runner: every check reduces to one scalar measurement compared against
a pinned tolerance in a stated direction, and the whole run summarizes as
JSON.  The ``quick`` profile covers the closed-form properties and the fast
sampled ones (about a tenth of a second); ``full`` adds million-sample
Monte Carlo agreement, the scalar codec experiment, and a wider
matched-correlation sweep (a few seconds).

Sampled checks draw from ``default_rng([seed, crc32(name)])``, one stream
per check keyed by its name, so a run is reproducible from a single seed
and no check's draws depend on another's or on its place in the battery.
Checks that read one shared sample, such as the two ACE checks, get it
drawn once per :func:`run_suite` call from the stream of the first of them
(the four codec checks share one codec run, which has a fixed seed of its
own); nothing is kept from one call to the next.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import simkit
from .control_games import CanonicalForm, QuadraticObjective, classification_report, solve_canonical
from .equilibrium import _signal_ratio, best_alpha, corollary_limits, objective_j, solve_noiseless
from .gausslin import (
    LinearScheme,
    SideInfoModel,
    SourcePairModel,
    best_decoder,
    best_decoders,
    cross_moment,
)
from .noisy_channel import ChannelSpec, opta_bound, solve_noisy
from .side_info import (
    beta_of_rate,
    feasible_rho_xw_interval,
    find_matched_rho_xw,
    match_condition,
    si_rd_point,
    solve_noiseless_si,
    solve_noisy_si_linear,
    transmitter_si_invariance,
)
from .strategic_rd import empirical_triple, lloyd_max, rd_point, rd_sweep

DEFAULT_SEED = 0

# Reference equilibrium at sigma_x2 = 1, rho = 0, r = 1.  The disclosure
# weight is the inverse golden ratio; the other three follow as surds.
_SQRT5 = math.sqrt(5.0)
GOLDEN_MODEL = SourcePairModel(sigma_x2=1.0, rho=0.0, r=1.0)
GOLDEN_ALPHA = (_SQRT5 - 1.0) / 2.0
GOLDEN_KAPPA = (5.0 + _SQRT5) / 10.0
GOLDEN_D_E = (3.0 - _SQRT5) / 2.0
GOLDEN_D_D = (5.0 - _SQRT5) / 10.0

# Pure tracking with a small actuation penalty, and (model, game, channel
# noise) for two games with U*X and U*theta penalties, solved by a polynomial root.
_PURE_TRACKING = CanonicalForm(k1=0.1, k2=0.0, k3=0.0, theta_weight=1.0)
_CONTROL_GAMES = (
    (SourcePairModel(1.0, 0.2, 1.3), CanonicalForm(k1=0.15, k2=0.2, k3=-0.1, theta_weight=0.8), 0.7),
    (SourcePairModel(2.0, -0.5, 0.6), CanonicalForm(k1=0.3, k2=-0.4, k3=0.5, theta_weight=-1.2), 0.4),
)

_CODEC_SEED = 414213562
_CODEC_LEVELS = 16
_CODEC_N = 1_000_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    comparator: str  # "<=" or ">="
    passed: bool
    detail: str = ""


_Check = Callable[..., tuple[float, float, str, str]]
_CHECKS: list[tuple[str, str, _Check]] = []
# A shared sample: (name of the stream it is drawn from, function that draws it).
_Shared = tuple[str, Callable[[np.random.Generator], object]]
_SHARED: dict[str, _Shared] = {}  # by the name of a check that reads it


def _check(name: str, profile: str = "quick", shared: _Shared | None = None) -> Callable[[_Check], _Check]:
    """Register a check, called with its own stream or, given ``shared``, with that sample."""

    def register(fn: _Check) -> _Check:
        _CHECKS.append((name, profile, fn))
        if shared is not None:
            _SHARED[name] = shared
        return fn

    return register


def _stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _random_pair_model(rng: np.random.Generator) -> SourcePairModel:
    rho = float(rng.uniform(-0.85, 0.85))
    return SourcePairModel(
        sigma_x2=float(rng.uniform(0.25, 4.0)),
        rho=rho,
        r=float(rho * rho + rng.uniform(0.05, 2.5)),
    )


def _random_si_model(rng: np.random.Generator) -> SideInfoModel:
    a = rng.normal(size=(3, 3))
    c = a @ a.T + 0.2 * np.eye(3)
    c = c / c[0, 0]
    return SideInfoModel(float(rng.uniform(0.25, 4.0)), c[0, 1], c[1, 1], c[0, 2], c[1, 2], c[2, 2])


def _random_channel(rng: np.random.Generator) -> ChannelSpec:
    return ChannelSpec(
        power=float(rng.uniform(0.2, 8.0)),
        noise_var=float(rng.uniform(0.2, 4.0)),
    )


# ---------------------------------------------------------------------------
# Noiseless equilibrium


@_check("golden_equilibrium")
def _golden_equilibrium(rng):
    rep = solve_noiseless(GOLDEN_MODEL)
    deviations = {
        "alpha": abs(rep.alpha - GOLDEN_ALPHA),
        "kappa": abs(rep.kappa - GOLDEN_KAPPA),
        "d_e": abs(rep.costs.d_e - GOLDEN_D_E),
        "d_d": abs(rep.costs.d_d - GOLDEN_D_D),
    }
    worst = max(deviations, key=deviations.get)
    detail = f"largest deviation in {worst}; alpha={rep.alpha!r}"
    return max(deviations.values()), 1e-6, "<=", detail


@_check("golden_grid_confirms")
def _golden_grid(rng):
    rep = solve_noiseless(GOLDEN_MODEL)
    grid = simkit.GridSpec.around(rep.alpha)
    report = simkit.deviation_search(
        GOLDEN_MODEL, 0.0, LinearScheme(enc_theta_weight=rep.alpha), grid
    )
    detail = f"grid best d_e={report.best_d_e!r} at alpha={report.best_alpha!r}"
    return report.improvement, 1e-9, "<=", detail


@_check("no_profitable_deviation")
def _no_profitable_deviation(rng):
    worst = -math.inf
    for _ in range(100):
        model = _random_pair_model(rng)
        rep = solve_noiseless(model)
        report = simkit.deviation_search(
            model,
            0.0,
            LinearScheme(enc_theta_weight=rep.alpha),
            simkit.GridSpec.around(rep.alpha),
        )
        worst = max(worst, report.improvement)
    return worst, 1e-9, "<=", "largest improvement over 100 sampled models"


def _rate_route(point):
    # a rate point reports no decoder: its encoder with test-channel noise
    return LinearScheme(enc_theta_weight=point.beta, enc_noise_var=point.sigma_s2), 0.0, point.costs


@_check("kernel_matches_propagation")
def _kernel_matches_propagation(rng):
    # Each solver route of the closed-form kernel against covariance propagation:
    # noiseless, channel noise, test-channel noise (rd_sweep and rd_point), 1e-300 bits.
    worst = 0.0
    for _ in range(20):
        rate, ch = float(rng.uniform(0.2, 4.0)), _random_channel(rng)
        pair, si = _random_pair_model(rng), _random_si_model(rng)
        eq, eq_si = solve_noiseless(pair), solve_noiseless_si(si)
        noisy, noisy_si = solve_noisy(pair, ch), solve_noisy_si_linear(si, ch)
        si_scheme = LinearScheme(enc_theta_weight=eq_si.alpha_si, dec_y_weight=eq_si.dec_y, dec_w_weight=eq_si.dec_w)
        pair_routes = [  # (scheme with the solver's decoder, channel noise, costs)
            (LinearScheme(enc_theta_weight=eq.alpha, dec_y_weight=eq.kappa), 0.0, eq.costs),
            (noisy[0], ch.noise_var, noisy[1]),
            *map(_rate_route, rd_sweep(pair, [rate, 1e-300])),
            *(_rate_route(rd_point(pair, q)) for q in (rate, 1e-300)),
        ]
        si_routes = [
            (si_scheme, 0.0, eq_si.costs),
            (noisy_si[0], ch.noise_var, noisy_si[1]),
            *(_rate_route(si_rd_point(si, q)) for q in (rate, 1e-300)),
        ]
        for model, routes in ((pair, pair_routes), (si, si_routes)):  # one oracle call per model
            schemes, noises, costs = zip(*routes)
            weights, oracle = best_decoders(model, schemes, noises)
            gaps = np.abs(np.array([(c.d_e, c.d_d) for c in costs]) - oracle)
            worst = max(worst, float(gaps.max()) / model.sigma_x2)
            exact = [i for i, scheme in enumerate(schemes) if scheme.enc_noise_var == 0.0]
            given = np.array([(schemes[i].dec_y_weight, schemes[i].dec_w_weight) for i in exact])
            truth = weights[exact]
            rel = np.linalg.norm(given - truth, axis=1) / np.linalg.norm(truth, axis=1)
            worst = max(worst, float(rel.max()))
    # Control: a pure-tracking and a generic game, each noisy and noiseless, in one oracle call.
    model, generic, noise = _CONTROL_GAMES[0]
    games = [(cf, n, *solve_canonical(model, cf, n)) for cf in (_PURE_TRACKING, generic) for n in (0.0, noise)]
    weights, _ = best_decoders(model, [game[2] for game in games], [game[1] for game in games])
    for (cf, n, scheme, j_e, j_d), (dec_y, dec_w) in zip(games, weights.tolist()):
        solved = replace(scheme, dec_y_weight=dec_y, dec_w_weight=dec_w)
        moment = partial(cross_moment, model, solved, n)
        err_e, err_d = {"x": 1.0, "theta": cf.theta_weight, "xhat": -1.0}, {"x": 1.0, "xhat": -1.0}
        u = {"u": 1.0}
        oracle_e = (
            moment(err_e, err_e) + cf.k1 * moment(u, u)
            + cf.k2 * moment(u, {"x": 1.0}) + cf.k3 * moment(u, {"theta": 1.0})
        )
        gap = max(abs(j_e - oracle_e), abs(j_d - moment(err_d, err_d)))
        worst = max(worst, gap / model.sigma_x2, abs(scheme.dec_y_weight / solved.dec_y_weight - 1.0))
    return worst, 1e-12, "<=", "costs per sigma_x2 and relative decoder weights on 204 routes"


# ---------------------------------------------------------------------------
# Rate-limited disclosure


@_check("rate_curve_endpoints")
def _rate_curve_endpoints(rng):
    worst = 0.0
    for model in (
        GOLDEN_MODEL,
        SourcePairModel(sigma_x2=1.0, rho=0.3, r=1.5),
        SourcePairModel(sigma_x2=2.0, rho=-0.4, r=0.9),
    ):
        s2 = model.sigma_x2
        zero = rd_point(model, 0.0)
        worst = max(
            worst,
            abs(zero.costs.d_e - s2 * (1.0 + 2.0 * model.rho + model.r)),
            abs(zero.costs.d_d - s2),
        )
        high = rd_point(model, 30.0)
        noiseless = solve_noiseless(model).costs
        worst = max(
            worst,
            abs(high.costs.d_e - noiseless.d_e),
            abs(high.costs.d_d - noiseless.d_d),
        )
    return worst, 1e-8, "<=", "zero-rate and 30-bit endpoints on three models"


@_check("rate_curve_shape")
def _rate_curve_shape(rng):
    rates = np.linspace(0.0, 8.0, 100)
    worst = 0.0
    for model in (GOLDEN_MODEL, SourcePairModel(sigma_x2=1.0, rho=0.3, r=1.5)):
        points = [rd_point(model, float(rate)) for rate in rates]
        d_e = np.array([p.costs.d_e for p in points])
        d_d = np.array([p.costs.d_d for p in points])
        floor = model.sigma_x2 * 2.0 ** (-2.0 * rates)
        worst = max(
            worst,
            float(np.max(np.diff(d_e))),
            float(np.max(np.diff(d_d))),
            float(np.max(floor - d_d)),
        )
    return max(worst, 0.0), 1e-12, "<=", "monotone decrease and classical floor on 100 rates"


@_check("rejected_distortion_form")
def _rejected_distortion_form(rng):
    high = rd_point(GOLDEN_MODEL, 30.0).costs.d_d
    detail = (
        f"receiver cost flattens at {high!r}; a purely geometric decay "
        f"would sit near {2.0 ** -60.0:.2e} here"
    )
    return abs(high - GOLDEN_D_D), 1e-6, "<=", detail


@_check("alignment_coefficient")
def _alignment_coefficient(rng):
    beta = best_alpha(GOLDEN_MODEL)
    j = objective_j(GOLDEN_MODEL, beta)
    detail = (
        f"alignment value {j!r} equals 1 + alpha; the discarded "
        "coefficient 1.809017 misses by 0.19"
    )
    return abs(j - (1.0 + GOLDEN_ALPHA)), 1e-6, "<=", detail


# ---------------------------------------------------------------------------
# Noisy channel


@_check("noisy_cost_matches_bound")
def _noisy_cost_matches_bound(rng):
    worst = 0.0
    for _ in range(50):
        model = _random_pair_model(rng)
        ch = _random_channel(rng)
        _, costs = solve_noisy(model, ch)
        worst = max(worst, abs(costs.d_e - opta_bound(model, ch)))
    return worst, 1e-9, "<=", "separation bound met with equality on 50 pairs"


@_check("noisy_power_budget")
def _noisy_power_budget(rng):
    worst = 0.0
    for _ in range(50):
        model = _random_pair_model(rng)
        ch = _random_channel(rng)
        scheme, _ = solve_noisy(model, ch)
        used = cross_moment(model, scheme, ch.noise_var, {"u": 1.0}, {"u": 1.0})
        worst = max(worst, abs(used - ch.power))
    return worst, 1e-12, "<=", "transmit power equals the budget"


@_check("noisy_theta_weight_fixed")
def _noisy_theta_weight_fixed(rng):
    worst = 0.0
    for _ in range(50):
        model = _random_pair_model(rng)
        scheme, _ = solve_noisy(model, _random_channel(rng))
        worst = max(worst, abs(scheme.enc_theta_weight - best_alpha(model)))
    return worst, 0.0, "<=", "bias weight is channel independent, bit for bit"


# ---------------------------------------------------------------------------
# Side information

_SI_CORRELATED = SideInfoModel(
    sigma_x2=1.0,
    rho_x_theta=0.2,
    r_theta=1.0,
    rho_x_w=0.4,
    rho_theta_w=-0.3,
    r_w=1.0,
)
_SI_UNCORRELATED = SideInfoModel(
    sigma_x2=1.0,
    rho_x_theta=0.3,
    r_theta=1.2,
    rho_x_w=0.0,
    rho_theta_w=0.0,
    r_w=1.0,
)
_SI_SKEWED = SideInfoModel(
    sigma_x2=2.0,
    rho_x_theta=-0.5,
    r_theta=0.6,
    rho_x_w=-0.3,
    rho_theta_w=0.5,
    r_w=1.5,
)


@_check("si_transmitter_invariance")
def _si_transmitter_invariance(rng):
    report = transmitter_si_invariance(_SI_CORRELATED, (-2.0, -0.5, 0.0, 1.0, 3.0))
    return report.max_abs_deviation, 1e-12, "<=", "encoder use of W never moves the costs"


@_check("si_weight_matches_plain")
def _si_weight_matches_plain(rng):
    pair = SourcePairModel(
        sigma_x2=_SI_UNCORRELATED.sigma_x2,
        rho=_SI_UNCORRELATED.rho_x_theta,
        r=_SI_UNCORRELATED.r_theta,
    )
    alpha = best_alpha(pair)
    worst = 0.0
    for rate in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        beta, _ = beta_of_rate(_SI_UNCORRELATED, rate)
        worst = max(worst, abs(beta - alpha))
    return worst, 1e-8, "<=", "independent W leaves the test-channel weight rate-free"


@_check("si_weight_high_rate_limit")
def _si_weight_high_rate_limit(rng):
    beta, _ = beta_of_rate(_SI_CORRELATED, 30.0)
    alpha_si = solve_noiseless_si(_SI_CORRELATED).alpha_si
    return abs(beta - alpha_si), 1e-4, "<=", "30-bit weight approaches the noiseless one"


@_check("si_weight_rate_free")
def _si_weight_rate_free(rng):
    # Eliminating the test-channel noise through the conditional rate
    # measure leaves the weight objective proportional across rates, so
    # the minimizer must not move even on a correlated-W model.
    low, _ = beta_of_rate(_SI_CORRELATED, 0.5)
    high, _ = beta_of_rate(_SI_CORRELATED, 4.0)
    detail = f"beta(0.5)={low!r}, beta(4)={high!r}"
    return abs(low - high), 1e-6, "<=", detail


@_check("si_weight_beats_grid")
def _si_weight_beats_grid(rng):
    # Brute force through the covariance path: no weight on a grid over
    # [-4, 4] or around the closed-form weight may undercut its encoder cost.
    worst = -math.inf
    wide = np.linspace(-4.0, 4.0, 101)
    for model in (_SI_CORRELATED, _SI_SKEWED):
        rep = solve_noiseless_si(model)
        best = rep.costs.d_e
        betas = np.concatenate([wide, rep.alpha_si + np.linspace(-0.05, 0.05, 101)]).tolist()
        _, costs = best_decoders(model, [LinearScheme(enc_theta_weight=b) for b in betas], [0.0] * len(betas))
        worst = max(worst, float(np.max((best - costs[:, 0]) / model.sigma_x2)))
    return worst, 1e-12, "<=", "largest gain of a grid weight over the closed form, per sigma_x2"


_MATCH_QUICK = (
    (-0.30, 0.00, 3.0),
    (0.35, 0.20, 1.5),
    (0.50, -0.25, 8.0),
)
_MATCH_FULL = tuple(
    (sign * mag, rho_x_theta, p_over_n)
    for mag, rho_x_theta, p_over_n in zip(
        (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50),
        (0.0, 0.15, -0.20, 0.30, 0.10, -0.10, 0.25, 0.0, 0.20, -0.15),
        (1.0, 2.0, 4.0, 8.0, 3.0, 1.5, 6.0, 2.5, 5.0, 10.0),
    )
    for sign in (-1.0, 1.0)
)


def _match_model(rho_theta_w: float, rho_x_theta: float) -> SideInfoModel:
    return SideInfoModel(
        sigma_x2=1.0,
        rho_x_theta=rho_x_theta,
        r_theta=1.0,
        rho_x_w=0.0,
        rho_theta_w=rho_theta_w,
        r_w=1.0,
    )


def _match_worst(scenarios) -> tuple[float, str]:
    worst, note = 0.0, ""
    for rho_theta_w, rho_x_theta, p_over_n in scenarios:
        model = _match_model(rho_theta_w, rho_x_theta)
        ch = ChannelSpec(power=p_over_n, noise_var=1.0)
        root = find_matched_rho_xw(model, ch)
        report = match_condition(replace(model, rho_x_w=root), ch)
        score = max(report.residual, abs(report.gap))
        if score >= worst:
            worst = score
            note = (
                f"worst at rho_theta_w={rho_theta_w}: residual="
                f"{report.residual:.2e}, gap={report.gap:.2e}"
            )
    return worst, note


@_check("matched_correlation_roots")
def _matched_correlation_roots(rng):
    worst, note = _match_worst(_MATCH_QUICK)
    return worst, 1e-6, "<=", note


@_check("matched_root_is_isolated")
def _matched_root_is_isolated(rng):
    smallest = math.inf
    for rho_theta_w, rho_x_theta, p_over_n in _MATCH_QUICK:
        model = _match_model(rho_theta_w, rho_x_theta)
        ch = ChannelSpec(power=p_over_n, noise_var=1.0)
        root = find_matched_rho_xw(model, ch)
        lo, hi = feasible_rho_xw_interval(model)
        for delta in (-0.1, 0.1):
            candidate = root + delta
            if not lo + 1e-6 < candidate < hi - 1e-6:
                continue
            report = match_condition(replace(model, rho_x_w=candidate), ch)
            smallest = min(smallest, report.gap)
    return smallest, 1e-9, ">=", "every feasible perturbation of the root pays a gap"


@_check("matched_correlation_sweep", profile="full")
def _matched_correlation_sweep(rng):
    worst, note = _match_worst(_MATCH_FULL)
    return worst, 1e-6, "<=", note


# ---------------------------------------------------------------------------
# Control games


@_check("cross_term_classification")
def _cross_term_classification(rng):
    # Tracking a controlled state couples U and Xhat; a test channel does not.
    coupled = QuadraticObjective.from_square(x=1.0, u=1.0, xhat=-1.0) + QuadraticObjective(
        u2=0.04
    )
    plain = QuadraticObjective.from_square(x=1.0, theta=1.0, xhat=-1.0) + QuadraticObjective(
        u2=0.1
    )
    receiver = QuadraticObjective.from_square(x=1.0, xhat=-1.0)
    coupled_report = classification_report(coupled, receiver)
    plain_report = classification_report(plain, receiver)
    correct = float(
        coupled_report["controller_has_u_xhat_product"] is True
        and coupled_report["linear_solution_claimed"] is False
        and plain_report["controller_has_u_xhat_product"] is False
        and plain_report["linear_solution_claimed"] is True
    )
    return correct, 1.0, ">=", "coupled pair refused, plain pair solved"


@_check("control_weight_noise_free")
def _control_weight_noise_free(rng):
    worst = 0.0
    for noise in (0.1, 1.0, 10.0):
        scheme, _, _ = solve_canonical(GOLDEN_MODEL, _PURE_TRACKING, noise)
        worst = max(worst, abs(scheme.enc_theta_weight - GOLDEN_ALPHA))
    return worst, 1e-12, "<=", "pure actuation penalty keeps the bias weight"


def _control_objective(model, cf, noise_var, alpha, gain):
    # Controller cost of U = gain*(X + alpha*theta) from the covariances of
    # (X, theta, U, Y) under the best linear receiver, broadcast over arrays.
    s2, rho, r, k = model.sigma_x2, model.rho, model.r, cf.theta_weight
    cov_xu, cov_tu = gain * s2 * (1.0 + alpha * rho), gain * s2 * (rho + alpha * r)
    var_u = gain * (cov_xu + alpha * cov_tu)
    var_y = var_u + noise_var
    kappa = np.divide(cov_xu, var_y, out=np.zeros_like(var_y), where=var_y > 0.0)
    track = s2 * _signal_ratio(rho, r, k) - 2.0 * kappa * (cov_xu + k * cov_tu) + kappa**2 * var_y
    return track + cf.k1 * var_u + cf.k2 * cov_xu + cf.k3 * cov_tu


@_check("control_beats_grid")
def _control_beats_grid(rng):
    # Brute force over (alpha, gain), wide and around the solver's point, on
    # two games without the closed form: no grid point may undercut it.
    worst = -math.inf
    for model, cf, noise in _CONTROL_GAMES:
        scheme, j_e, _ = solve_canonical(model, cf, noise)
        a, c = scheme.enc_theta_weight, scheme.enc_gain
        for alphas, gains in (
            (np.linspace(-4.0, 4.0, 161), (2.0 * abs(c) + 1.0) * np.linspace(-1.0, 1.0, 161)),
            (a + np.linspace(-0.05, 0.05, 101), c * np.linspace(0.95, 1.05, 101)),
        ):
            grid = _control_objective(model, cf, noise, alphas[:, None], gains[None, :])
            worst = max(worst, (j_e - float(grid.min())) / model.sigma_x2)
    return worst, 1e-12, "<=", "largest gain of a grid point over the solver, per sigma_x2"


# ---------------------------------------------------------------------------
# Quantizer and sampling oracles


@_check("two_level_quantizer")
def _two_level_quantizer(rng):
    quant = lloyd_max(2, 1.0)
    centroid = math.sqrt(2.0 / math.pi)
    measured = max(
        abs(quant.thresholds[0]),
        abs(quant.centroids[0] + centroid),
        abs(quant.centroids[1] - centroid),
        abs(quant.mse - (1.0 - 2.0 / math.pi)),
    )
    return measured, 1e-9, "<=", "binary quantizer closed form"


def _ace_report(rng):
    n = 100_000
    z = rng.standard_normal((n, 2))
    x = z[:, 0]
    y = 0.7 * x + math.sqrt(1.0 - 0.49) * z[:, 1]
    return simkit.ace_max_correlation(x, y, bins=64, iterations=30)


_ACE = ("max_correlation_gaussian", _ace_report)


@_check("max_correlation_gaussian", shared=_ACE)
def _max_correlation_gaussian(report):
    return abs(report.estimate - 0.7), 0.02, "<=", f"estimate={report.estimate!r}"


@_check("max_correlation_linearity", shared=_ACE)
def _max_correlation_linearity(report):
    measured = min(report.identity_corr_x, report.identity_corr_y)
    return measured, 0.99, ">=", "fitted transforms track the identity"


# ---------------------------------------------------------------------------
# Sweep panels (computed by the command line layer, checked here)


@_check("panel_costs_vs_spread")
def _panel_costs_vs_spread(rng):
    from . import cli

    _, rows = cli.panel_rows("fig3a")
    data = np.array(rows, dtype=float)
    d_e, d_d, valid = data[:, 1], data[:, 2], data[:, 3]
    direction = math.copysign(1.0, d_e[-1] - d_e[0])
    worst = max(
        float(np.max(np.abs(valid - 1.0))),
        float(np.max(-np.diff(d_d))),
        float(np.max(-direction * np.diff(d_e))),
        0.0,
    )
    return worst, 1e-12, "<=", "both cost columns monotone over the spread grid"


@_check("receiver_cost_saturates")
def _receiver_cost_saturates(rng):
    models = [SourcePairModel(sigma_x2=1.0, rho=0.0, r=r) for r in (10.0, 40.0, 160.0)]
    limit = corollary_limits(models)
    detail = f"extrapolated={limit.extrapolated!r} toward 0.5"
    return abs(limit.extrapolated - 0.5), 1e-3, "<=", detail


@_check("panel_costs_vs_correlation")
def _panel_costs_vs_correlation(rng):
    from . import cli

    _, rows = cli.panel_rows("fig3b")
    data = np.array(rows, dtype=float)
    d_e, d_d = data[:, 1], data[:, 2]
    worst = max(float(np.max(np.diff(d_d))), float(np.max(-np.diff(d_e))), 0.0)
    return worst, 1e-12, "<=", "receiver cost falls and encoder cost rises with correlation"


@_check("panel_rate_curves")
def _panel_rate_curves(rng):
    from . import cli

    _, rows = cli.panel_rows("fig3c")
    data = np.array(rows, dtype=float)
    worst = max(abs(data[0, 2] - 1.0), abs(data[0, 4] - 1.0))
    for col in (1, 2, 3, 4):
        worst = max(worst, float(np.max(np.diff(data[:, col]))))
    return max(worst, 0.0), 1e-12, "<=", "curves start at the source variance and never rise"


# ---------------------------------------------------------------------------
# Full-profile Monte Carlo


@_check("monte_carlo_agreement", profile="full")
def _monte_carlo_agreement(rng):
    worst = 0.0
    for _ in range(50):
        model = _random_pair_model(rng)
        encoder = LinearScheme(
            enc_gain=float(rng.uniform(0.2, 2.0)),
            enc_theta_weight=float(rng.uniform(-1.5, 1.5)),
            enc_noise_var=float(rng.uniform(0.0, 1.0)),
        )
        channel_noise = float(rng.uniform(0.0, 1.0))
        solved, closed = best_decoder(model, encoder, channel_noise_var=channel_noise)
        cfg = simkit.SimConfig(seed=int(rng.integers(2**62)), n=1_000_000)
        table = simkit.sample(model, cfg)
        est = simkit.estimate_costs(table, solved, channel_noise, cfg)
        worst = max(
            worst,
            abs(est.costs.d_e - closed.d_e) / est.stderr_e,
            abs(est.costs.d_d - closed.d_d) / est.stderr_d,
        )
    return worst, 4.0, "<=", "largest z score over 50 pairs at n=1e6"


def _codec_triple(rng):
    # the run has its own fixed seed, so the stream goes unused
    return empirical_triple(GOLDEN_MODEL, _CODEC_LEVELS, _CODEC_N, seed=_CODEC_SEED)


_CODEC = ("codec_receiver_window", _codec_triple)


@_check("codec_receiver_window", profile="full", shared=_CODEC)
def _codec_receiver_window(triple):
    lo, hi = 0.27922, 0.28770
    measured = max(lo - triple.costs.d_d, triple.costs.d_d - hi, 0.0)
    return measured, 0.0, "<=", f"d_d={triple.costs.d_d!r} against [{lo}, {hi}]"


@_check("codec_encoder_window", profile="full", shared=_CODEC)
def _codec_encoder_window(triple):
    lo, hi = 0.38829, 0.40725
    measured = max(lo - triple.costs.d_e, triple.costs.d_e - hi, 0.0)
    return measured, 0.0, "<=", f"d_e={triple.costs.d_e!r} against [{lo}, {hi}]"


@_check("codec_matches_analysis", profile="full", shared=_CODEC)
def _codec_matches_analysis(triple):
    model = GOLDEN_MODEL
    s2, rho, r = model.sigma_x2, model.rho, model.r
    beta = best_alpha(model)
    var_v = s2 * _signal_ratio(rho, r, beta)
    kappa = s2 * (1.0 + beta * rho) / var_v
    lam = s2 * (rho + beta * r) / var_v
    mse = lloyd_max(_CODEC_LEVELS, var_v).mse
    noiseless = solve_noiseless(model).costs
    pred_d_d = noiseless.d_d + kappa**2 * mse
    pred_d_e = noiseless.d_e + (2.0 * kappa * lam + kappa**2) * mse
    measured = max(
        abs(triple.costs.d_d - pred_d_d) / triple.stderr_d,
        abs(triple.costs.d_e - pred_d_e) / triple.stderr_e,
    )
    detail = f"predicted d_e={pred_d_e!r}, d_d={pred_d_d!r}"
    return measured, 4.0, "<=", detail


@_check("codec_respects_bound", profile="full", shared=_CODEC)
def _codec_respects_bound(triple):
    bound = rd_point(GOLDEN_MODEL, triple.rate_bits).costs
    measured = max(
        (bound.d_e - triple.costs.d_e) / triple.stderr_e,
        (bound.d_d - triple.costs.d_d) / triple.stderr_d,
    )
    return measured, 4.0, "<=", "simulated codec never beats the rate curve"


# ---------------------------------------------------------------------------
# Runner


def run_suite(profile: str = "quick", seed: int = DEFAULT_SEED) -> dict:
    """Run the battery and return a JSON-ready summary.

    ``profile`` is ``quick`` or ``full``; ``full`` is a superset.
    """
    if profile not in ("quick", "full"):
        raise ValueError("profile: expected 'quick' or 'full'")
    results: list[CheckResult] = []
    drawn: dict[_Shared, object] = {}  # the shared samples of this call
    for name, check_profile, fn in _CHECKS:
        if check_profile == "full" and profile != "full":
            continue
        shared = _SHARED.get(name)
        if shared is None:
            arg = _stream(seed, name)
        else:
            if shared not in drawn:
                stream, draw = shared
                drawn[shared] = draw(_stream(seed, stream))
            arg = drawn[shared]
        measured, tolerance, comparator, detail = fn(arg)
        passed = measured <= tolerance if comparator == "<=" else measured >= tolerance
        results.append(
            CheckResult(
                name=name,
                measured=float(measured),
                tolerance=float(tolerance),
                comparator=comparator,
                passed=bool(passed),
                detail=detail,
            )
        )
    failed = [res.name for res in results if not res.passed]
    return {
        "profile": profile,
        "seed": int(seed),
        "n_checks": len(results),
        "n_failed": len(failed),
        "failed": failed,
        "passed": not failed,
        "checks": [asdict(res) for res in results],
    }
