"""Noiseless equilibrium: closed forms, root selection, limit extrapolation.

Frozen constants carry a one-line note naming the independent oracle that
produced them; none is copied from the solver under test.
"""

import math

import numpy as np
import pytest

from stratcomm.equilibrium import (
    _linear_costs,
    _stationary_weight,
    a_aux,
    analytic_costs,
    best_alpha,
    corollary_limits,
    objective_j,
    solve_noiseless,
)
from stratcomm.errors import DegenerateDenominator
from stratcomm.gausslin import SourcePairModel

SQRT5 = math.sqrt(5.0)

# 50-digit rational-arithmetic evaluation of the stationary roots with
# explicit objective comparison (computer algebra, not this package).
ALPHA_RHO_NEG_HALF_R_03 = 1.3819660112501051
SERIES_REGIME = (
    # (r + rho, alpha) at rho = -0.49, r = 0.49 + s; alpha evaluated to 50
    # digits with `decimal` from the stored floats r and rho
    (1e-7, 0.9999999000000200),
    (1e-5, 0.9999900001999950),
    (2e-4, 0.9998000799600224),
    (-1e-5, 1.0000100002000050),
    (-2e-4, 1.0002000800400224),
)
# d_e at rho = 0.5, r = 1 is exactly 2 - sqrt(7)/2.
D_E_RHO_HALF = 0.6771243444677047


def test_golden_point_exact_surds(golden_model):
    report = solve_noiseless(golden_model)
    assert report.alpha == pytest.approx((SQRT5 - 1.0) / 2.0, abs=1e-12)
    assert report.kappa == pytest.approx((5.0 + SQRT5) / 10.0, abs=1e-12)
    assert report.costs.d_e == pytest.approx((3.0 - SQRT5) / 2.0, abs=1e-12)
    assert report.costs.d_d == pytest.approx((5.0 - SQRT5) / 10.0, abs=1e-12)
    assert report.a_aux == pytest.approx(SQRT5, abs=1e-12)


def test_two_cost_routes_agree(random_models):
    # Covariance propagation vs. the algebraic shortcut: independent
    # derivations, must agree wherever the shortcut is defined.
    for model in random_models(60):
        solved = solve_noiseless(model).costs
        shortcut = analytic_costs(model)
        assert solved.d_e == pytest.approx(shortcut.d_e, abs=1e-11, rel=1e-11)
        assert solved.d_d == pytest.approx(shortcut.d_d, abs=1e-11, rel=1e-11)


def test_encoder_cost_at_rho_half():
    report = solve_noiseless(SourcePairModel(sigma_x2=1.0, rho=0.5, r=1.0))
    assert report.costs.d_e == pytest.approx(D_E_RHO_HALF, abs=1e-12)
    assert report.costs.d_e == pytest.approx(2.0 - math.sqrt(7.0) / 2.0, abs=1e-14)


def test_best_alpha_is_stationary_and_globally_best(random_models):
    for model in random_models(25, seed=11):
        alpha = best_alpha(model)
        h = 1e-6
        slope = (objective_j(model, alpha + h) - objective_j(model, alpha - h)) / (2 * h)
        assert abs(slope) < 1e-6
        grid = np.linspace(-8.0, 8.0, 4001)
        values = [objective_j(model, a) for a in grid]
        assert objective_j(model, alpha) >= max(values) - 1e-9
        # the maximum over unit whitened signals, (|g||h| + g.h)/2 (derivation note 3)
        peak = model.sigma_x2 * (a_aux(model) + 1.0 + 2.0 * model.rho) / 2.0
        assert objective_j(model, alpha) == pytest.approx(peak, rel=1e-12)


def test_series_regime_matches_algebra_oracle():
    for s, alpha_expected in SERIES_REGIME:
        model = SourcePairModel(sigma_x2=1.0, rho=-0.49, r=0.49 + s)
        assert best_alpha(model) == pytest.approx(alpha_expected, abs=1e-15)


def test_weight_can_exceed_one_for_negative_rho():
    model = SourcePairModel(sigma_x2=1.0, rho=-0.5, r=0.3)
    alpha = best_alpha(model)
    assert alpha == pytest.approx(ALPHA_RHO_NEG_HALF_R_03, abs=1e-12)
    assert alpha > 1.0
    other = (-1.0 - a_aux(model)) / (2.0 * (model.r + model.rho))  # 3.618, the other root
    assert objective_j(model, alpha) > objective_j(model, other)


def test_weight_stays_below_one_for_nonnegative_rho():
    for rho in (0.0, 0.2, 0.5, 0.8):
        for r in (rho * rho + 0.05, 1.0, 3.0):
            assert abs(best_alpha(SourcePairModel(1.0, rho, r))) < 1.0


def test_encoder_noise_only_hurts(golden_model):
    alpha = best_alpha(golden_model)
    clean = objective_j(golden_model, alpha)
    for sigma_t2 in (0.1, 1.0, 10.0):
        assert objective_j(golden_model, alpha, sigma_t2) < clean
    with pytest.raises(ValueError):
        objective_j(golden_model, alpha, -0.5)


def test_objective_scales_with_source_variance(golden_model):
    big = SourcePairModel(sigma_x2=3.0, rho=0.0, r=1.0)
    assert objective_j(big, 0.4) == pytest.approx(3.0 * objective_j(golden_model, 0.4))


def test_analytic_costs_degenerate_near_cancellation():
    with pytest.raises(DegenerateDenominator):
        analytic_costs(SourcePairModel(sigma_x2=1.0, rho=-0.49, r=0.49 + 1e-12))


def test_receiver_cost_saturates_with_spread():
    # At rho = 0 the receiver cost is (1 - 1/sqrt(1+4r))/2 per model, so the
    # r -> inf limit is exactly 1/2; the extrapolation must see that.
    models = [SourcePairModel(1.0, 0.0, r) for r in (10.0, 40.0, 160.0)]
    for m in models:
        direct = 0.5 * (1.0 - 1.0 / math.sqrt(1.0 + 4.0 * m.r))
        assert solve_noiseless(m).costs.d_d == pytest.approx(direct, abs=1e-12)
    report = corollary_limits(models)
    assert len(report.d_d) == 3
    assert abs(report.extrapolated - 0.5) <= 1e-3
    # the raw tail alone is still 2e-2 away; acceleration is doing real work
    assert abs(report.d_d[-1] - 0.5) > 1e-2


def test_corollary_limits_guard_paths():
    with pytest.raises(ValueError):
        corollary_limits([])
    single = corollary_limits([SourcePairModel(1.0, 0.0, 1.0)])
    assert single.extrapolated == single.d_d[0]
    # non-contracting tail: fall back to the last value
    zigzag = [
        SourcePairModel(1.0, 0.0, 1.0),
        SourcePairModel(1.0, 0.0, 9.0),
        SourcePairModel(1.0, 0.0, 2.0),
    ]
    report = corollary_limits(zigzag)
    assert report.extrapolated == report.d_d[-1]


def test_a_aux_value(golden_model):
    assert a_aux(golden_model) == pytest.approx(SQRT5, abs=1e-15)


def _kernel_inputs(n: int = 12000, seed: int = 2024):
    """Seeded (rho, r, alpha, gain2, t, n) arrays over checked pairs and their seams.

    About a third of the pairs sit within 1.2e-6 of the r + rho = 0 seam (the
    seam itself and +-1e-6 included); some gains are 0, and some encoder
    noises are 0 or +inf.
    """
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-0.95, 0.95, n)
    r = rho * rho + rng.uniform(1e-9, 3.0, n)
    band = np.arange(n) % 3 == 0
    rho[band] = rng.uniform(-0.9, -0.05, band.sum())
    s = rng.uniform(-1.2e-6, 1.2e-6, band.sum())
    s[:5] = (0.0, 1e-6, -1e-6, np.nextafter(1e-6, 0.0), np.nextafter(-1e-6, 0.0))
    r[band] = s - rho[band]
    alpha = rng.uniform(-3.0, 3.0, n)
    alpha[::4] = _stationary_weight(rho[::4], r[::4])
    gain2 = rng.uniform(0.0, 3.0, n)
    gain2[::7] = 0.0
    t = rng.uniform(0.0, 2.0, n)
    t[::5], t[1::5] = np.inf, 0.0
    noise = rng.uniform(0.0, 2.0, n)
    noise[::3] = 0.0
    return rho, r, alpha, gain2, t, noise


def test_float_and_array_routes_agree_bit_for_bit():
    rho, r, alpha, gain2, t, noise = inputs = _kernel_inputs()
    assert (np.abs(r + rho) < 1e-6).sum() > 3000 and np.all(r > rho * rho)
    weights = _stationary_weight(rho, r)
    costs = _linear_costs(*inputs)
    assert isinstance(weights, np.ndarray) and all(isinstance(c, np.ndarray) for c in costs)
    scalar_weights, scalar_costs = np.empty_like(weights), np.empty((3, rho.size))
    for i, row in enumerate(zip(*(a.tolist() for a in inputs))):
        # every seventh row goes in as numpy scalars, the rest as Python floats
        args = tuple(np.float64(v) for v in row) if i % 7 == 3 else row
        w, out = _stationary_weight(*args[:2]), _linear_costs(*args)
        for value in (w, *out):  # numpy scalars in may give np.float64, never an array
            assert type(value) is float if args is row else isinstance(value, float)
        scalar_weights[i], scalar_costs[:, i] = w, out
    assert np.array_equal(scalar_weights.view(np.int64), weights.view(np.int64))
    assert np.array_equal(scalar_costs.view(np.int64), np.array(costs).view(np.int64))


def _two_root_weight(rho, r):
    """Second route: the stationary root with the lower encoder cost.

    Both roots (-1 +- sqrt(1 + 4s))/(2s), s = r + rho, are scored with the
    kernel; below |s| < 1e-6 the quotient is 0/0, so the series
    1 - s + 2s^2 stands in.  Returns the weight, both roots' encoder costs,
    and the series mask.
    """
    s = r + rho
    series = np.abs(s) < 1e-6
    s_root = np.where(series, 1.0, s)
    a = np.sqrt(1.0 + 4.0 * s_root)
    roots = (-1.0 + a) / (2.0 * s_root), (-1.0 - a) / (2.0 * s_root)
    e0, e1 = (_linear_costs(rho, r, root, 1.0, 0.0, 0.0)[1] for root in roots)
    pick = np.where(e1 < e0, roots[1], roots[0])
    return np.where(series, 1.0 - s + 2.0 * s * s, pick), e0, e1, series


def test_closed_form_matches_the_two_root_rule():
    rho, r = _kernel_inputs()[:2]
    reference, e0, e1, series = _two_root_weight(rho, r)
    assert series.sum() > 3000 and np.all(e0[~series] != e1[~series])  # no root ever ties
    weights = _stationary_weight(rho, r)
    assert weights == pytest.approx(reference, rel=2e-10, abs=0.0)
    d_e = _linear_costs(rho, r, weights, 1.0, 0.0, 0.0)[1]
    d_e_reference = _linear_costs(rho, r, reference, 1.0, 0.0, 0.0)[1]
    assert np.max(d_e - d_e_reference) <= 1e-13
