"""Noisy-channel play: capacity, exact optimality, power accounting."""

import math

import numpy as np
import pytest

from stratcomm.equilibrium import best_alpha, objective_j
from stratcomm.gausslin import SideInfoModel, SourcePairModel, cross_moment
from stratcomm.noisy_channel import (
    ChannelSpec,
    capacity,
    opta_bound,
    power_sweep,
    solve_noisy,
    validate_channel,
)
from stratcomm.side_info import solve_noiseless_si
from stratcomm.strategic_rd import rd_point


def _random_channels(n, seed=19):
    rng = np.random.default_rng(seed)
    return [
        ChannelSpec(power=float(rng.uniform(0.2, 8.0)), noise_var=float(rng.uniform(0.2, 4.0)))
        for _ in range(n)
    ]


def test_capacity_formula():
    ch = ChannelSpec(power=3.0, noise_var=1.0)
    assert capacity(ch) == pytest.approx(0.5 * math.log2(4.0), abs=1e-15)
    assert capacity(ChannelSpec(power=1.0, noise_var=1.0)) == pytest.approx(0.5)


def test_channel_validation():
    for bad in (
        ChannelSpec(power=0.0, noise_var=1.0),
        ChannelSpec(power=-1.0, noise_var=1.0),
        ChannelSpec(power=1.0, noise_var=0.0),
        ChannelSpec(power=float("inf"), noise_var=1.0),
    ):
        with pytest.raises(ValueError):
            validate_channel(bad)


def test_noisy_play_attains_the_rate_bound(random_models):
    # Single-letter linear transmission must land exactly on the curve
    # evaluated at channel capacity, model by model.
    channels = _random_channels(40)
    for model, ch in zip(random_models(40, seed=23), channels):
        _, costs = solve_noisy(model, ch)
        assert abs(costs.d_e - opta_bound(model, ch)) <= 1e-9


def test_opta_bound_composes_rate_curve_and_capacity(random_models):
    for model, ch in zip(random_models(10, seed=29), _random_channels(10, seed=31)):
        assert opta_bound(model, ch) == pytest.approx(
            rd_point(model, capacity(ch)).costs.d_e, abs=1e-12
        )
        # composition identity: the bound is the zero-rate cost minus the
        # capacity-scaled alignment value
        s2 = model.sigma_x2
        top = s2 * (1.0 + 2.0 * model.rho + model.r)
        shrink = 1.0 - 2.0 ** (-2.0 * capacity(ch))
        alignment = objective_j(model, best_alpha(model))
        assert opta_bound(model, ch) == pytest.approx(top - shrink * alignment, abs=1e-10)


def test_power_budget_is_exact(golden_model):
    for ch in _random_channels(10, seed=37):
        scheme, _ = solve_noisy(golden_model, ch)
        sent = cross_moment(golden_model, scheme, ch.noise_var, {"u": 1.0}, {"u": 1.0})
        assert sent == pytest.approx(ch.power, abs=1e-12)


def test_theta_weight_is_channel_independent(random_models):
    for model in random_models(10, seed=41):
        alpha = best_alpha(model)
        for ch in _random_channels(4, seed=43):
            scheme, _ = solve_noisy(model, ch)
            assert scheme.enc_theta_weight == alpha  # bit-identical, same root


def test_costs_improve_with_power(golden_model):
    noise = 1.0
    costs = [
        solve_noisy(golden_model, ChannelSpec(power=p, noise_var=noise))[1]
        for p in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    d_e = [c.d_e for c in costs]
    d_d = [c.d_d for c in costs]
    assert all(a > b for a, b in zip(d_e, d_e[1:]))
    assert all(a > b for a, b in zip(d_d, d_d[1:]))


def test_power_sweep_rows_match_pointwise(golden_model):
    ratios = [0.5, 1.0, 3.0]
    rows = power_sweep(golden_model, ratios, noise_var=2.0)
    assert [row.p_over_n for row in rows] == ratios
    for row in rows:
        ch = ChannelSpec(power=row.p_over_n * 2.0, noise_var=2.0)
        _, costs = solve_noisy(golden_model, ch)
        assert row.capacity_bits == pytest.approx(capacity(ch), abs=1e-15)
        assert row.d_e == pytest.approx(costs.d_e, abs=1e-13)
        assert row.d_d == pytest.approx(costs.d_d, abs=1e-13)
        assert row.gain > 0.0


def test_infinite_power_limit_recovers_noiseless(golden_model):
    from stratcomm.equilibrium import solve_noiseless

    free = solve_noiseless(golden_model).costs
    ch = ChannelSpec(power=1e9, noise_var=1.0)
    _, costs = solve_noisy(golden_model, ch)
    assert costs.d_e == pytest.approx(free.d_e, abs=1e-6)
    assert costs.d_d == pytest.approx(free.d_d, abs=1e-6)


def test_a_weak_channel_is_heard_at_any_source_scale():
    # the equilibrium depends on P/N only: P + N below 1e-12 * sigma_x2 once
    # dropped the signal, at d_e = 2.9 * sigma_x2 instead of 1.8518 * sigma_x2
    ref_scheme, ref = solve_noisy(SourcePairModel(1.0, 0.2, 1.5), ChannelSpec(1.0, 1.0))
    assert ref.d_e == pytest.approx(1.8518, abs=1e-4)
    for s2, p in ((1e12, 1.0), (1e13, 1.0), (1e13, 1e13), (1e100, 1e-100)):
        scheme, costs = solve_noisy(SourcePairModel(s2, 0.2, 1.5), ChannelSpec(p, p))
        assert costs.d_e / s2 == pytest.approx(ref.d_e, rel=1e-12)
        assert costs.d_d / s2 == pytest.approx(ref.d_d, rel=1e-12)
        assert scheme.dec_y_weight * math.sqrt(p / s2) == pytest.approx(ref_scheme.dec_y_weight, rel=1e-12)


def test_a_gain_whose_square_underflows_still_gives_the_costs():
    # at sigma_x2 = 1e300 and P = N = 1e-300 the squared gain is 0 in floats,
    # but the equilibrium depends on P/N only: no division by it, and not the
    # no-information point d_e = 2.9 * sigma_x2
    s2, p = 1e300, 1e-300
    ref_scheme, ref = solve_noisy(SourcePairModel(1.0, 0.2, 1.5), ChannelSpec(1.0, 1.0))
    model = SourcePairModel(s2, 0.2, 1.5)
    scheme, costs = solve_noisy(model, ChannelSpec(p, p))
    [row] = power_sweep(model, [1.0], noise_var=p)
    for d_e, d_d in ((costs.d_e, costs.d_d), (row.d_e, row.d_d)):
        assert d_e / s2 == pytest.approx(ref.d_e, rel=1e-12)
        assert d_d / s2 == pytest.approx(ref.d_d, rel=1e-12)
    for gain in (scheme.enc_gain, row.gain):
        assert type(gain) is float
        assert gain / math.sqrt(p) * math.sqrt(s2) == pytest.approx(ref_scheme.enc_gain, rel=1e-12)
    assert scheme.dec_y_weight * math.sqrt(p) / math.sqrt(s2) == pytest.approx(ref_scheme.dec_y_weight, rel=1e-12)


def _common_scale_results(s):
    """Scale-free results of noisy, rd and si_noiseless with sigma_x2, P and N all times s."""
    pair = SourcePairModel(1.3 * s, 0.2, 1.5)
    out = []
    for p, n in ((1.0, 1.0), (3.0, 0.5), (1e-13, 1e-13), (1e-100, 3e-100)):
        scheme, costs = solve_noisy(pair, ChannelSpec(p * s, n * s))
        out += [costs.d_e / s, costs.d_d / s, scheme.enc_gain, scheme.enc_theta_weight, scheme.dec_y_weight]
    for rate in (0.01, 1.0, 8.0):
        point = rd_point(pair, rate)
        out += [point.costs.d_e / s, point.costs.d_d / s, point.beta, point.sigma_s2 / s]
    eq = solve_noiseless_si(SideInfoModel(s, 0.2, 1.0, 0.4, -0.3, 1.0))
    return out + [eq.costs.d_e / s, eq.costs.d_d / s, eq.alpha_si, eq.dec_y, eq.dec_w]


@pytest.mark.parametrize("s", [1e-100, 1e-13, 1e13, 1e100])
def test_results_are_invariant_under_a_common_scale(s):
    assert _common_scale_results(s) == pytest.approx(_common_scale_results(1.0), rel=1e-12, abs=0.0)
