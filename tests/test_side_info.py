"""Receiver side information: equilibria, rate limits, exact matching.

The frozen weight 0.460190 below comes from a direct covariance-conditioning
grid search written independently of this package (600001-point grid).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import stratcomm.side_info as si_mod
from stratcomm.equilibrium import best_alpha, solve_noiseless
from stratcomm.errors import InfeasibleInterval, NoRoot, ZeroRate
from stratcomm.gausslin import LinearScheme, SideInfoModel, best_decoder, cross_moment
from stratcomm.noisy_channel import ChannelSpec, capacity
from stratcomm.side_info import (
    beta_of_rate,
    feasible_rho_xw_interval,
    find_matched_rho_xw,
    match_condition,
    match_sweep,
    match_sweep_csv,
    si_rate,
    si_rd_point,
    solve_noiseless_si,
    solve_noisy_si_linear,
    transmitter_si_invariance,
)

# The closed-form root lies outside the feasible interval, and the matching
# residual keeps one sign across it: no matched geometry exists.
NO_ROOT_MODEL = SideInfoModel(1.0, 0.6, 0.5, 0.0, -0.45, 1.0)
NO_ROOT_CHANNEL = ChannelSpec(power=0.5, noise_var=1.0)

ORACLE_MODEL = SideInfoModel(1.0, 0.2, 1.0, 0.7, -0.5, 1.0)
ORACLE_BETA = 0.460190

# Valid, but conditioned on W it sits inside the pair validation tolerance,
# and one stationary weight of the conditional pair leaves no signal.
NEAR_SINGULAR_MODEL = SideInfoModel(
    1.0, 1.9550132308569088, 3.8264468526861846,
    -2.7814785894577922, -3.910224259364644, 541.7200298553975,
)


def _seeded_si_models(n: int, seed: int = 11) -> list[SideInfoModel]:
    """Valid side-information models from random positive definite matrices."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n):
        a = rng.normal(size=(3, 3))
        c = a @ a.T + 0.1 * np.eye(3)
        c = c / c[0, 0]
        models.append(
            SideInfoModel(
                float(rng.uniform(0.25, 4.0)),
                float(c[0, 1]), float(c[1, 1]), float(c[0, 2]), float(c[1, 2]), float(c[2, 2]),
            )
        )
    return models


def test_reduces_to_plain_game_when_w_is_independent(si_uncorrelated):
    report = solve_noiseless_si(si_uncorrelated)
    plain = solve_noiseless(si_uncorrelated.pair_part())
    # conditioning on an independent W is a no-op, bit for bit
    assert report.alpha_si == plain.alpha
    assert report.dec_w == pytest.approx(0.0, abs=1e-12)
    assert report.costs.d_e == pytest.approx(plain.costs.d_e, abs=1e-12)
    assert report.costs.d_d == pytest.approx(plain.costs.d_d, abs=1e-12)


def test_side_information_helps_the_receiver(si_correlated):
    with_w = solve_noiseless_si(si_correlated)
    without = solve_noiseless(si_correlated.pair_part())
    assert with_w.costs.d_d < without.costs.d_d


def test_transmitting_w_changes_nothing(si_correlated):
    report = transmitter_si_invariance(si_correlated, (-2.0, -0.5, 0.0, 1.0, 3.0))
    assert report.max_abs_deviation <= 1e-12


def test_decoder_weights_are_the_conditional_mean(si_correlated):
    # residual of the solved decoder is uncorrelated with both observations
    report = solve_noiseless_si(si_correlated)
    enc = LinearScheme(enc_gain=1.0, enc_theta_weight=report.alpha_si)
    solved, _ = best_decoder(si_correlated, enc, 0.0)
    err = {"x": 1.0, "xhat": -1.0}
    assert cross_moment(si_correlated, solved, 0.0, err, {"y": 1.0}) == pytest.approx(0.0, abs=1e-12)
    assert cross_moment(si_correlated, solved, 0.0, err, {"w": 1.0}) == pytest.approx(0.0, abs=1e-12)


def test_rate_limit_reproduces_rate(si_correlated):
    for rate in (0.3, 1.0, 2.0, 6.0):
        point = si_rd_point(si_correlated, rate)
        assert si_rate(si_correlated, point.beta, point.sigma_s2) == pytest.approx(
            rate, abs=1e-9
        )


def test_zero_rate_point_is_w_only_estimation(si_correlated):
    point = si_rd_point(si_correlated, 0.0)
    assert point.beta == 0.0
    assert math.isinf(point.sigma_s2)
    # W-only receiver: residual variance sigma^2 (1 - rho_xw^2 / r_w)
    assert point.costs.d_d == pytest.approx(1.0 - 0.4**2, abs=1e-12)
    with pytest.raises(ZeroRate):
        si_rd_point(si_correlated, -0.5)
    with pytest.raises(ZeroRate):
        beta_of_rate(si_correlated, 0.0)


@pytest.mark.parametrize("rate", [1e-12, 1e-30, 1e-300])
def test_tiny_rates_give_the_w_only_point(si_correlated, rate):
    # the test-channel noise (up to about 1e300 * sigma_x2) dwarfs W's
    # variance; the receiver then leans on W alone, as rd_point on the prior
    point = si_rd_point(si_correlated, rate)
    w_only = si_rd_point(si_correlated, 0.0).costs
    assert point.costs.d_e == pytest.approx(w_only.d_e, rel=1e-11, abs=0.0)
    assert point.costs.d_d == pytest.approx(w_only.d_d, rel=1e-11, abs=0.0)


def test_nan_rate_is_rejected(si_correlated):
    with pytest.raises(ZeroRate):
        beta_of_rate(si_correlated, math.nan)
    with pytest.raises(ZeroRate):
        si_rd_point(si_correlated, math.nan)


def test_rates_below_the_float_range_overflow(si_correlated):
    with pytest.raises(OverflowError):
        si_rd_point(si_correlated, 1e-320)


@pytest.mark.parametrize("rate", [0.0, 1e-300, 1e-12, 0.5, 30.0])
def test_rate_points_are_floats_that_match_the_oracle(rate):
    for m in _seeded_si_models(8):
        point = si_rd_point(m, rate)
        fields = (point.rate, point.beta, point.sigma_s2, point.costs.d_e, point.costs.d_d)
        assert all(type(v) is float for v in fields)
        if rate == 0.0:
            assert point.beta == 0.0 and math.isinf(point.sigma_s2)
            continue
        scheme = LinearScheme(enc_theta_weight=point.beta, enc_noise_var=point.sigma_s2)
        oracle = best_decoder(m, scheme, 0.0)[1]
        assert abs(point.costs.d_e - oracle.d_e) <= 1e-12 * m.sigma_x2
        assert abs(point.costs.d_d - oracle.d_d) <= 1e-12 * m.sigma_x2


def test_costs_decrease_with_rate(si_correlated):
    rates = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
    points = [si_rd_point(si_correlated, rate) for rate in rates]
    d_e = [p.costs.d_e for p in points]
    assert all(a > b for a, b in zip(d_e, d_e[1:]))


def test_weight_equals_plain_root_when_w_is_independent(si_uncorrelated):
    alpha = best_alpha(si_uncorrelated.pair_part())
    for rate in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        beta, _ = beta_of_rate(si_uncorrelated, rate)
        assert beta == pytest.approx(alpha, abs=1e-8)


def test_weight_is_rate_free_even_with_correlated_w(si_correlated):
    # The conditional-variance rate elimination cancels out of the argmin:
    # the weight of the noiseless game solves every rate-limited one too.
    alpha_si = solve_noiseless_si(si_correlated).alpha_si
    baseline, _ = beta_of_rate(si_correlated, 0.5)
    for rate in (0.5, 2.0, 4.0, 30.0):
        beta, _ = beta_of_rate(si_correlated, rate)
        assert beta == baseline == alpha_si


def test_weight_matches_independent_grid_oracle():
    beta, _ = beta_of_rate(ORACLE_MODEL, 2.0)
    assert beta == pytest.approx(ORACLE_BETA, abs=1e-4)


def test_skipped_conditioning_misses_the_oracle(monkeypatch):
    # the plain game on (X, theta) that ignores W is a different weight
    monkeypatch.setattr(si_mod, "_conditional_pair", lambda m: m.pair_part())
    beta, _ = beta_of_rate(ORACLE_MODEL, 2.0)
    assert beta != pytest.approx(ORACLE_BETA, abs=1e-4)


def test_weight_beats_every_grid_point():
    # brute force through the covariance path, no closed form involved
    for m in _seeded_si_models(10) + [NEAR_SINGULAR_MODEL]:
        report = solve_noiseless_si(m)
        assert abs(report.alpha_si) < 4.0
        for beta in np.linspace(-4.0, 4.0, 201):
            scheme = LinearScheme(enc_theta_weight=float(beta))
            _, costs = best_decoder(m, scheme, 0.0)
            assert costs.d_e >= report.costs.d_e - 1e-12 * m.sigma_x2


def test_noise_variance_carries_the_rate_dependence(si_correlated):
    _, s_low = beta_of_rate(si_correlated, 0.5)
    _, s_high = beta_of_rate(si_correlated, 4.0)
    assert s_low > 100.0 * s_high


def test_linear_play_meets_power_budget(si_correlated):
    ch = ChannelSpec(power=2.5, noise_var=1.5)
    scheme, _ = solve_noisy_si_linear(si_correlated, ch)
    sent = cross_moment(si_correlated, scheme, ch.noise_var, {"u": 1.0}, {"u": 1.0})
    assert sent == pytest.approx(ch.power, abs=1e-12)


def test_linear_play_survives_a_gain_whose_square_underflows(si_correlated):
    # at sigma_x2 = 1e300 and P = N = 1e-300 the squared gain is 0 in floats
    s2, p = 1e300, 1e-300
    ref_scheme, ref = solve_noisy_si_linear(si_correlated, ChannelSpec(1.0, 1.0))
    scheme, costs = solve_noisy_si_linear(replace(si_correlated, sigma_x2=s2), ChannelSpec(p, p))
    assert costs.d_e / s2 == pytest.approx(ref.d_e, rel=1e-12)
    assert costs.d_d / s2 == pytest.approx(ref.d_d, rel=1e-12)
    assert type(scheme.enc_gain) is float
    assert scheme.enc_gain / math.sqrt(p) * math.sqrt(s2) == pytest.approx(ref_scheme.enc_gain, rel=1e-12)
    assert scheme.dec_y_weight * math.sqrt(p) / math.sqrt(s2) == pytest.approx(ref_scheme.dec_y_weight, rel=1e-12)
    assert scheme.dec_w_weight == pytest.approx(ref_scheme.dec_w_weight, rel=1e-12)


def test_matched_geometry_closes_the_gap():
    base = SideInfoModel(1.0, 0.0, 1.0, 0.0, -0.30, 1.0)
    ch = ChannelSpec(power=3.0, noise_var=1.0)
    root = find_matched_rho_xw(base, ch)
    matched_model = replace(base, rho_x_w=root)
    report = match_condition(matched_model, ch)
    assert report.matched
    assert report.residual <= 1e-6
    assert abs(report.gap) <= 1e-6
    assert report.rate == pytest.approx(capacity(ch), abs=1e-15)
    assert report.costs == solve_noisy_si_linear(matched_model, ch)[1]
    # at the matched root the rate-limited weight is the noiseless one
    assert report.beta == pytest.approx(
        solve_noiseless_si(matched_model).alpha_si, abs=1e-8
    )


def test_perturbed_geometry_reopens_the_gap():
    base = SideInfoModel(1.0, 0.0, 1.0, 0.0, -0.30, 1.0)
    ch = ChannelSpec(power=3.0, noise_var=1.0)
    root = find_matched_rho_xw(base, ch)
    lo, hi = feasible_rho_xw_interval(base)
    for shift in (-0.1, 0.1):
        rho = min(max(root + shift, lo + 1e-6), hi - 1e-6)
        report = match_condition(replace(base, rho_x_w=rho), ch)
        assert not report.matched
        assert report.gap > 1e-9


def test_match_condition_rejects_a_bad_tolerance(si_correlated):
    ch = ChannelSpec(power=1.0, noise_var=1.0)
    for tol, message in ((math.nan, "finite"), (math.inf, "finite"), (-1e-6, "nonnegative")):
        with pytest.raises(ValueError, match=f"tol: must be {message}"):
            match_condition(si_correlated, ch, tol=tol)


def test_gap_is_never_negative(si_correlated):
    for p in (0.5, 2.0, 8.0):
        report = match_condition(si_correlated, ChannelSpec(power=p, noise_var=1.0))
        assert report.gap >= -1e-9


def test_matching_trivial_when_theta_w_uncorrelated(si_uncorrelated):
    ch = ChannelSpec(power=1.0, noise_var=1.0)
    assert find_matched_rho_xw(si_uncorrelated, ch) == 0.0


def test_no_root_raises():
    with pytest.raises(NoRoot, match="feasible interval"):
        find_matched_rho_xw(NO_ROOT_MODEL, NO_ROOT_CHANNEL)


def _matching_residual(m: SideInfoModel, rho: float) -> float:
    return rho + m.rho_theta_w * si_mod._si_weight(replace(m, rho_x_w=rho))


def _bisect_matched_rho_xw(m: SideInfoModel, f_tol: float = 1e-8) -> float | None:
    """Second route: bisection on the matching residual; None where it finds no root."""
    lo, hi = feasible_rho_xw_interval(m)
    pad = 1e-9 * max(hi - lo, 1.0)
    lo, hi = lo + pad, hi - pad
    f_lo, f_hi = _matching_residual(m, lo), _matching_residual(m, hi)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _matching_residual(m, mid)
        if abs(f_mid) <= f_tol:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return None


def test_closed_form_root_matches_bisection():
    # rho_x_w* = -rho_theta_w * alpha*(rho_x_theta, r_theta) against a bisection
    # on the residual: the same models have a root, and the roots agree
    found = 0
    for m in _seeded_si_models(2000):
        reference = _bisect_matched_rho_xw(m)
        if reference is None:
            with pytest.raises(NoRoot):
                find_matched_rho_xw(m, NO_ROOT_CHANNEL)
            continue
        root = find_matched_rho_xw(m, NO_ROOT_CHANNEL)
        assert root == -m.rho_theta_w * best_alpha(m.pair_part())
        assert abs(root - reference) <= 1e-8
        assert abs(_matching_residual(m, root)) <= 1e-14
        found += 1
    assert 1000 < found < 2000


def test_feasible_interval_brackets_positive_definiteness():
    m = SideInfoModel(1.0, 0.2, 1.0, 0.0, -0.3, 1.0)
    lo, hi = feasible_rho_xw_interval(m)
    assert lo < hi
    for rho, ok in ((lo + 1e-6, True), (hi - 1e-6, True), (lo - 1e-3, False), (hi + 1e-3, False)):
        cov = replace(m, rho_x_w=rho).covariance()
        assert bool(np.linalg.eigvalsh(cov).min() > 0.0) is ok


def test_feasible_interval_can_be_empty():
    # theta-W minor is negative: no rho_x_w restores positive definiteness
    broken = SideInfoModel(1.0, 0.2, 0.5, 0.0, 0.8, 1.0)
    with pytest.raises(InfeasibleInterval):
        feasible_rho_xw_interval(broken)


def test_si_rate_validates_noise():
    m = SideInfoModel(1.0, 0.2, 1.0, 0.4, -0.3, 1.0)
    assert si_rate(m, 0.5, math.inf) == 0.0
    with pytest.raises(ZeroRate):
        si_rate(m, 0.5, 0.0)


def test_match_sweep_brackets_the_root(tmp_path):
    model = SideInfoModel(
        sigma_x2=1.0,
        rho_x_theta=0.0,
        r_theta=1.0,
        rho_x_w=0.0,
        rho_theta_w=-0.30,
        r_w=1.0,
    )
    ch = ChannelSpec(power=3.0, noise_var=1.0)
    header, rows = match_sweep(model, ch, points=21)
    assert header == ("rho_x_w", "rate_bits", "beta", "residual", "gap")
    assert len(rows) == 21
    lo, hi = feasible_rho_xw_interval(model)
    assert all(lo < row[0] < hi for row in rows)
    assert all(row[1] == pytest.approx(1.0, abs=1e-12) for row in rows)  # capacity
    assert all(row[4] >= -1e-9 for row in rows)
    # the diagnostic dips toward zero near the matched geometry and not at
    # the interval ends
    root = find_matched_rho_xw(model, ch)
    residuals = [row[3] for row in rows]
    nearest = min(rows, key=lambda row: abs(row[0] - root))
    assert nearest[3] < residuals[0] / 3.0
    assert nearest[3] < residuals[-1] / 3.0

    path = tmp_path / "matching.csv"
    match_sweep_csv(model, ch, str(path), points=21)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rho_x_w,rate_bits,beta,residual,gap"
    parsed = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    assert parsed == [tuple(row) for row in rows]


def test_match_sweep_validates_grid():
    model = SideInfoModel(1.0, 0.2, 1.0, 0.0, -0.3, 1.0)
    with pytest.raises(ValueError):
        match_sweep(model, ChannelSpec(power=1.0, noise_var=1.0), points=1)
