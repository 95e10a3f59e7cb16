"""The reference computations against known closed-form values."""

import math

import numpy as np
import pytest

import reference as ref

SQRT5 = math.sqrt(5.0)


def test_golden_pair_equilibrium():
    eq = ref.pair_equilibrium(1.0, 0.0, 1.0)
    assert eq.alpha == pytest.approx((SQRT5 - 1.0) / 2.0, abs=1e-15)
    assert eq.kappa == pytest.approx((5.0 + SQRT5) / 10.0, abs=1e-15)
    assert eq.d_e == pytest.approx((3.0 - SQRT5) / 2.0, abs=1e-15)
    assert eq.d_d == pytest.approx((5.0 - SQRT5) / 10.0, abs=1e-15)


def test_costs_scale_with_sigma_x2():
    base = ref.pair_equilibrium(1.0, 0.3, 1.5)
    for s2 in (1e-13, 1e-3, 7.0, 1e12):
        eq = ref.pair_equilibrium(s2, 0.3, 1.5)
        assert eq.alpha == base.alpha
        assert eq.d_e / s2 == pytest.approx(base.d_e, rel=1e-13)
        assert eq.d_d / s2 == pytest.approx(base.d_d, rel=1e-13)


def test_roots_solve_the_quadratic_and_the_larger_alignment_wins():
    for rho, r in ((0.0, 1.0), (0.4, 0.5), (-0.5, 0.3), (-0.3, 0.0901)):
        s = r + rho
        roots = ref.alpha_roots(rho, r)
        for a in roots:
            assert s * a * a + a - 1.0 == pytest.approx(0.0, abs=1e-12 * max(1.0, a * a))
        best = ref.pair_alpha(rho, r)
        grid = np.linspace(-50.0, 50.0, 200_001)
        assert float(ref.alignment(rho, r, best)) >= float(np.max(ref.alignment(rho, r, grid))) - 1e-9
    # r + rho < 0 flips the branch order; the winner here exceeds 1.
    assert ref.pair_alpha(-0.5, 0.3) == pytest.approx(1.3819660113, abs=1e-9)


def test_vectorized_routes_agree_with_the_matrix_route():
    rho = np.array([-0.6, 0.0, 0.45])
    r = np.array([0.5, 2.0, 0.3])
    a = ref.pair_alpha_vec(rho, r)
    d_e, d_d = ref.pair_costs_vec(2.0, rho, r, a, 1.7, 0.4)
    for i in range(3):
        assert a[i] == ref.pair_alpha(rho[i], r[i])
        c = ref.scheme_costs(ref.pair_cov(2.0, rho[i], r[i]), a[i], gain=math.sqrt(1.7), n_var=0.4)
        assert d_e[i] == pytest.approx(c.d_e, rel=1e-13)
        assert d_d[i] == pytest.approx(c.d_d, rel=1e-13)
    # Nothing crosses an infinitely noisy channel: the no-information costs.
    d_e, d_d = ref.pair_costs_vec(2.0, 0.3, 1.0, 0.5, 1.0, math.inf)
    assert (d_e, d_d) == (2.0 * (1.0 + 0.6 + 1.0), 2.0)


def test_test_channel_rate():
    assert ref.test_channel_rate(3.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    for rate in (1e-300, 1e-6, 0.5, 4.0, 500.0):
        ss = ref.sigma_s2_for_rate(2.5, rate)
        assert math.isfinite(ss) and ss > 0.0
        assert ref.test_channel_rate(2.5, ss) == pytest.approx(rate, rel=1e-12)


def test_rate_curve_endpoints_and_floor():
    high = ref.rd_reference(1.0, 0.0, 1.0, 40.0)
    assert high.d_e == pytest.approx((3.0 - SQRT5) / 2.0, abs=1e-12)
    assert high.d_d == pytest.approx((5.0 - SQRT5) / 10.0, abs=1e-12)
    low = ref.rd_reference(1.0, 0.0, 1.0, 1e-9)
    assert low.d_e == pytest.approx(2.0, abs=1e-8)
    assert low.d_d == pytest.approx(1.0, abs=1e-8)
    for rate in (0.25, 1.0, 3.0):
        assert ref.rd_reference(1.0, 0.0, 1.0, rate).d_d >= 2.0 ** (-2.0 * rate)


def test_conditioning_on_w_by_hand():
    # W = X + E with Var E = 1: Var(X|W) = 1/2, theta untouched.
    cov = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    assert ref.conditional_pair(cov) == pytest.approx((0.5, 0.0, 2.0), abs=1e-15)
    assert ref.signal_var(cov, 0.7, given_w=True) == pytest.approx(0.5 + 0.49, abs=1e-15)


def test_independent_w_reduces_to_the_plain_game():
    cov = ref.si_cov(1.5, 0.3, 1.2, 0.0, 0.0, 1.0)
    assert ref.si_alpha(cov) == ref.pair_alpha(0.3, 1.2)
    plain = ref.rd_reference(1.5, 0.3, 1.2, 2.0)
    si = ref.si_rd_reference(cov, 2.0)
    assert si.sigma_s2 == pytest.approx(plain.sigma_s2, rel=1e-13)
    assert si.d_e == pytest.approx(plain.d_e, rel=1e-13)
    assert si.d_d == pytest.approx(plain.d_d, rel=1e-13)


def test_si_weight_beats_a_brute_force_grid():
    cov = ref.si_cov(1.0, 0.2, 1.0, 0.4, -0.3, 1.0)
    alpha = ref.si_alpha(cov)
    best = ref.scheme_costs(cov, alpha).d_e
    for a in np.linspace(alpha - 1.0, alpha + 1.0, 2001):
        assert ref.scheme_costs(cov, a).d_e >= best - 1e-14
    # Adding b*W at the encoder moves no cost.
    for b in (-2.0, 0.5, 3.0):
        moved = ref.scheme_costs(cov, alpha, b=b)
        assert moved.d_e == pytest.approx(best, abs=1e-13)


def test_feasible_interval_ends_are_singular():
    lo, hi = ref.feasible_rho_xw(0.2, 1.0, -0.3, 1.0)
    for x in (lo, hi):
        assert np.linalg.det(ref.si_cov(1.0, 0.2, 1.0, x, -0.3, 1.0)) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.det(ref.si_cov(1.0, 0.2, 1.0, 0.5 * (lo + hi), -0.3, 1.0)) > 0.0


def test_matched_geometry_has_no_gap():
    # Bisect rho_x_w + rho_theta_w * alpha(rho_x_w) = 0 with the reference alone.
    rtw, power, noise = -0.3, 3.0, 1.0
    lo, hi = ref.feasible_rho_xw(0.0, 1.0, rtw, 1.0)
    f = lambda x: x + rtw * ref.si_alpha(ref.si_cov(1.0, 0.0, 1.0, x, rtw, 1.0))
    a, b = lo + 1e-9, hi - 1e-9
    for _ in range(100):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if f(mid) * f(a) > 0 else (a, mid)
    cov = ref.si_cov(1.0, 0.0, 1.0, a, rtw, 1.0)
    assert abs(ref.match_gap(cov, ref.si_alpha(cov), power, noise)) < 1e-12
    off = ref.si_cov(1.0, 0.0, 1.0, a + 0.1, rtw, 1.0)
    assert ref.match_gap(off, ref.si_alpha(off), power, noise) > 1e-6


def test_control_closed_form_is_the_grid_minimum():
    s2, rho, r, k, k1, noise = 1.2, 0.25, 1.1, 0.8, 0.1, 0.9
    closed = ref.control_closed_form(s2, rho, r, k, k1, noise)
    alphas = np.linspace(closed.alpha - 0.5, closed.alpha + 0.5, 1001)[:, None]
    var_v = s2 * (1.0 + 2.0 * closed.alpha * rho + closed.alpha**2 * r)
    c0 = math.sqrt(closed.v / var_v)
    gains = np.linspace(0.5 * c0, 1.5 * c0, 1001)[None, :]
    grid = ref.control_objective(s2, rho, r, k, k1, 0.0, 0.0, noise, alphas, gains)
    assert closed.j_e <= float(grid.min()) + 1e-14
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    assert alphas[i, 0] == pytest.approx(closed.alpha, abs=2e-3)
    # k = 1 is the plain game's weight.
    assert ref.control_closed_form(1.0, 0.0, 1.0, 1.0, 0.1, 1.0).alpha == pytest.approx((SQRT5 - 1.0) / 2.0, abs=1e-15)


def test_control_gain_is_zero_when_signalling_does_not_pay():
    assert ref.control_closed_form(1.0, 0.0, 1.0, 1.0, 10.0, 1.0).v == 0.0


def test_truncated_gaussian_cells():
    assert ref.normal_cell(-math.inf, math.inf) == pytest.approx((1.0, 0.0, 1.0), abs=1e-15)
    centroids, mse = ref.cell_centroids_and_mse(np.array([0.0]), np.array([-1.0, 1.0]) * math.sqrt(2.0 / math.pi))
    assert centroids == pytest.approx([-math.sqrt(2.0 / math.pi), math.sqrt(2.0 / math.pi)], abs=1e-15)
    assert mse == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-15)
    # Far-tail cells keep their precision: the centroid of (8, inf) is x over
    # the asymptotic series 1 - x^-2 + 3x^-4 - 15x^-6 + 105x^-8 - 945x^-10.
    mass, first, _ = ref.normal_cell(8.0, math.inf)
    series = sum(c * 8.0 ** (-2 * i) for i, c in enumerate((1, -1, 3, -15, 105, -945)))
    assert first / mass == pytest.approx(8.0 / series, abs=1e-5)
    mass_l, first_l, _ = ref.normal_cell(-math.inf, -8.0)
    assert (mass_l, first_l) == (mass, -first)
