"""Linearity classification and solution of canonical quadratic control games."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stratcomm.control_games import (
    CanonicalForm,
    QuadraticObjective,
    canonicalize,
    classification_report,
    expand_canonical,
    has_ux_cross_term,
    solve_canonical,
    solve_objectives,
)
from stratcomm.equilibrium import best_alpha, objective_j
from stratcomm.errors import CrossTermPresent, NonCanonicalizable, Unbounded
from stratcomm.gausslin import PSD_RTOL, SourcePairModel, cross_moment
from stratcomm.verify import _control_objective


def _tracking_pair(k=1.0, k1=0.1, k2=0.0, k3=0.0, scale=1.0):
    phi_e = QuadraticObjective.from_square(x=1.0, theta=k, xhat=-1.0, scale=scale)
    phi_e = phi_e + QuadraticObjective(u2=scale * k1, x_u=scale * k2, theta_u=scale * k3)
    phi_d = QuadraticObjective.from_square(x=1.0, xhat=-1.0)
    return phi_e, phi_d


def _two_stage_pair():
    # classical two-stage control flavor: (X + U - Xhat)^2 expands with a
    # -2 U*Xhat product, the disqualifying feature
    phi_e = QuadraticObjective.from_square(x=1.0, u=1.0, xhat=-1.0)
    phi_d = QuadraticObjective.from_square(x=1.0, u=1.0, xhat=-1.0)
    return phi_e, phi_d


def test_cross_term_detection():
    phi_e, phi_d = _two_stage_pair()
    assert has_ux_cross_term(phi_e)
    assert phi_e.u_xhat == -2.0
    clean_e, clean_d = _tracking_pair()
    assert not has_ux_cross_term(clean_e)
    assert not has_ux_cross_term(clean_d)


def test_classification_report_shapes():
    coupled = classification_report(*_two_stage_pair())
    assert coupled["controller_has_u_xhat_product"]
    assert not coupled["linear_solution_claimed"]
    assert coupled["canonical"] is None
    assert "U*Xhat" in coupled["reason"]

    clean = classification_report(*_tracking_pair(k=0.7, k1=0.2))
    assert clean["linear_solution_claimed"]
    assert clean["canonical"]["k1"] == pytest.approx(0.2, abs=1e-12)
    assert clean["canonical"]["theta_weight"] == pytest.approx(0.7, abs=1e-12)


def test_canonicalize_normalizes_scale():
    # 3 (X + 0.4 theta - Xhat)^2 + 0.9 U^2 + 0.6 UX - 1.2 U theta
    phi_e, phi_d = _tracking_pair(k=0.4, k1=0.3, k2=0.2, k3=-0.4, scale=3.0)
    cf = canonicalize(phi_e, phi_d)
    assert cf.theta_weight == pytest.approx(0.4, abs=1e-12)
    assert cf.k1 == pytest.approx(0.3, abs=1e-12)
    assert cf.k2 == pytest.approx(0.2, abs=1e-12)
    assert cf.k3 == pytest.approx(-0.4, abs=1e-12)


def test_canonicalize_roundtrips_with_expand():
    cf = CanonicalForm(k1=0.25, k2=-0.1, k3=0.3, theta_weight=0.8)
    assert canonicalize(*expand_canonical(cf)) == cf


def test_canonicalize_ignores_zero_mean_linear_terms():
    phi_e, phi_d = _tracking_pair(k=0.4, k1=0.3)
    shifted_e = phi_e + QuadraticObjective(x=2.0, theta=-1.0, u=0.5, xhat=3.0, const=7.0)
    assert canonicalize(shifted_e, phi_d) == canonicalize(phi_e, phi_d)


def test_canonicalize_rejections():
    phi_e, phi_d = _tracking_pair()
    with pytest.raises(CrossTermPresent):
        canonicalize(*_two_stage_pair())
    with pytest.raises(NonCanonicalizable, match="U\\^2"):
        canonicalize(_tracking_pair(k1=0.0)[0], phi_d)
    # receiver tracking theta instead of X is out of family
    bad_d = QuadraticObjective.from_square(theta=1.0, xhat=-1.0)
    with pytest.raises(NonCanonicalizable, match="receiver"):
        canonicalize(phi_e, bad_d)
    # negative scale flips the Xhat^2 sign
    with pytest.raises(NonCanonicalizable):
        canonicalize(phi_e.scaled(-1.0), phi_d)


def test_objective_table_parsing_accepts_aliases():
    table = {"x2": 1.0, "xhat2": 1.0, "xx_hat": -2.0, "u2": 0.1}
    phi = QuadraticObjective.from_dict(table)
    assert phi.x_xhat == -2.0
    with pytest.raises(NonCanonicalizable, match="unknown monomial"):
        QuadraticObjective.from_dict({"x3": 1.0})
    with pytest.raises(NonCanonicalizable, match="repeated"):
        QuadraticObjective.from_dict({"x_xhat": 1.0, "xx_hat": 1.0})


def test_pure_tracking_reduces_to_the_disclosure_game(golden_model):
    # k2 = k3 = 0 with a small U^2 penalty: the optimal theta-weight is the
    # equilibrium disclosure weight, independent of the channel noise
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    cf = CanonicalForm(k1=0.1, k2=0.0, k3=0.0, theta_weight=1.0)
    for noise_var in (0.1, 1.0, 10.0):
        scheme, j_e, j_d = solve_canonical(golden_model, cf, noise_var)
        assert scheme.enc_theta_weight == pytest.approx(golden, abs=1e-12)
        assert scheme.enc_gain > 0.0
        assert j_d > 0.0


def _signal_power(model, scheme):
    a = scheme.enc_theta_weight
    return scheme.enc_gain**2 * model.sigma_x2 * (1.0 + 2.0 * a * model.rho + a * a * model.r)


def _pure_tracking_games():
    rng = np.random.default_rng(20)
    games = []
    while len(games) < 20:
        rho = float(rng.uniform(-0.85, 0.85))
        r = float(rho * rho + rng.uniform(0.05, 2.5))
        k = float(rng.uniform(-2.0, 2.0))
        if abs(k * k * r + k * rho) < 1e-2:  # the scaled model is singular at k = 0
            continue
        games.append(
            (float(rng.uniform(0.25, 4.0)), rho, r, k, float(rng.uniform(0.02, 1.0)), float(rng.uniform(0.05, 5.0)))
        )
    # a game the former grid-and-golden search missed by 1.6e-2 in the weight
    games.append(
        (1.8948927282908683, -0.6732831542858927, 0.7753934859853526,
         -1.184231597426808, 0.11525948219306371, 1.1164066598932054)
    )
    return games


@pytest.mark.parametrize("game", _pure_tracking_games())
def test_pure_tracking_matches_the_closed_form(game):
    # k2 = k3 = 0: alpha = k * best_alpha(theta -> k*theta) and
    # v = max(0, sqrt(J*N/k1) - N), with J that model's alignment value
    s2, rho, r, k, k1, noise = game
    model = SourcePairModel(s2, rho, r)
    scaled = SourcePairModel(s2, k * rho, k * k * r)
    weight = best_alpha(scaled)
    j = objective_j(scaled, weight)
    v = max(0.0, math.sqrt(j * noise / k1) - noise)
    const = s2 * (1.0 + 2.0 * k * rho + k * k * r)
    scheme, j_e, _ = solve_canonical(model, CanonicalForm(k1=k1, k2=0.0, k3=0.0, theta_weight=k), noise)
    assert scheme.enc_theta_weight == pytest.approx(k * weight, rel=1e-12, abs=0.0)
    assert _signal_power(model, scheme) == pytest.approx(v, rel=1e-12, abs=1e-15 * s2)
    assert j_e == pytest.approx(const - j * v / (v + noise) + k1 * v, rel=1e-12)


def test_gain_is_zero_when_the_alignment_does_not_pay(golden_model):
    # J = 1 + alpha at the golden weight; the gain vanishes once k1*N >= J
    j = (1.0 + math.sqrt(5.0)) / 2.0
    for k1, sends in ((0.99 * j, True), (1.01 * j, False)):
        scheme, j_e, _ = solve_canonical(golden_model, CanonicalForm(k1=k1, k2=0.0, k3=0.0, theta_weight=1.0), 1.0)
        assert (scheme.enc_gain > 0.0) is sends
        assert (j_e < 2.0) is sends


def test_zero_theta_weight_sends_x_alone():
    # k = 0: the controller tracks X alone, so theta gets no weight and J = sigma_x2
    model = SourcePairModel(2.0, 0.3, 1.1)
    scheme, j_e, _ = solve_canonical(model, CanonicalForm(k1=0.1, k2=0.0, k3=0.0, theta_weight=0.0), 0.5)
    v = math.sqrt(2.0 * 0.5 / 0.1) - 0.5
    assert scheme.enc_theta_weight == 0.0
    assert _signal_power(model, scheme) == pytest.approx(v, rel=1e-12)
    assert j_e == pytest.approx(2.0 - 2.0 * v / (v + 0.5) + 0.1 * v, rel=1e-12)


@pytest.mark.parametrize("noise_var", [0.0, 1e-300])
def test_noiseless_pure_tracking_reports_the_infimum(golden_model, noise_var):
    # N = 0 and lambda = 0: any positive gain delivers the whole alignment, so
    # the infimum (3 - sqrt 5)/2 is approached as the gain goes to 0+.  At
    # N = 1e-300 the optimal signal would be too weak for the decoder to keep.
    cf = CanonicalForm(k1=0.1, k2=0.0, k3=0.0, theta_weight=1.0)
    scheme, j_e, _ = solve_canonical(golden_model, cf, noise_var)
    assert scheme.enc_theta_weight == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-12)
    assert scheme.enc_gain > 0.0
    assert scheme.dec_y_weight != 0.0
    assert 0.0 < j_e - (3.0 - math.sqrt(5.0)) / 2.0 <= 1e-6


def test_noiseless_game_with_penalties_attains_its_optimum():
    # N = 0 and lambda != 0: the gain is |lambda| / (2*k1*Var(X + alpha*theta))
    s2, rho, r = 1.5, 0.2, 1.3
    model = SourcePairModel(s2, rho, r)
    cf = CanonicalForm(k1=0.15, k2=0.2, k3=-0.1, theta_weight=0.8)
    scheme, j_e, _ = solve_canonical(model, cf, 0.0)
    a = scheme.enc_theta_weight
    lam = cf.k2 * s2 * (1.0 + a * rho) + cf.k3 * s2 * (rho + a * r)
    var = s2 * (1.0 + 2.0 * a * rho + a * a * r)
    assert abs(scheme.enc_gain) == pytest.approx(abs(lam) / (2.0 * cf.k1 * var), rel=1e-12)
    alphas, gains = np.linspace(a - 0.05, a + 0.05, 101), np.linspace(-3.0, 3.0, 601)
    grid = _control_objective(model, cf, 0.0, alphas[:, None], gains[None, :])
    assert grid.min() >= j_e - 1e-12 * s2


def _generic_games():
    rng = np.random.default_rng(21)
    games = []
    for noise in (0.0, 0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 0.3):
        rho = float(rng.uniform(-0.85, 0.85))
        games.append(
            (
                float(rng.uniform(0.25, 4.0)), rho, float(rho * rho + rng.uniform(0.05, 2.5)),
                float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.02, 1.0)),
                float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)), noise,
            )
        )
    return games


@pytest.mark.parametrize("game", _generic_games())
def test_generic_games_beat_a_brute_force_grid(game):
    # objective from the covariances of (X, theta, Y), not from the reduction
    s2, rho, r, k, k1, k2, k3, noise = game
    model, cf = SourcePairModel(s2, rho, r), CanonicalForm(k1=k1, k2=k2, k3=k3, theta_weight=k)
    scheme, j_e, _ = solve_canonical(model, cf, noise)
    a, c = scheme.enc_theta_weight, scheme.enc_gain
    span = 2.0 * abs(c) + 1.0
    for alphas, gains in (
        (np.linspace(-8.0, 8.0, 401), np.linspace(-span, span, 401)),
        (a + np.linspace(-0.05, 0.05, 101), c * np.linspace(0.95, 1.05, 101)),
    ):
        grid = _control_objective(model, cf, noise, alphas[:, None], gains[None, :])
        assert grid.min() >= j_e - 1e-12 * s2


def test_gain_shrinks_with_stronger_u_penalty(golden_model):
    gains = []
    for k1 in (0.05, 0.2, 1.0, 5.0):
        cf = CanonicalForm(k1=k1, k2=0.0, k3=0.0, theta_weight=1.0)
        scheme, _, _ = solve_canonical(golden_model, cf, 1.0)
        gains.append(abs(scheme.enc_gain))
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_solved_point_is_a_local_optimum(golden_model):
    cf = CanonicalForm(k1=0.3, k2=0.1, k3=-0.2, theta_weight=0.6)
    scheme, j_e, _ = solve_canonical(golden_model, cf, 0.5)

    def objective(gain, alpha):
        from dataclasses import replace

        from stratcomm.gausslin import best_decoder

        enc = replace(scheme, enc_gain=gain, enc_theta_weight=alpha)
        solved, _ = best_decoder(golden_model, enc, 0.5)
        track = cross_moment(
            golden_model,
            solved,
            0.5,
            {"x": 1.0, "theta": cf.theta_weight, "xhat": -1.0},
            {"x": 1.0, "theta": cf.theta_weight, "xhat": -1.0},
        )
        return (
            track
            + cf.k1 * cross_moment(golden_model, solved, 0.5, {"u": 1.0}, {"u": 1.0})
            + cf.k2 * cross_moment(golden_model, solved, 0.5, {"u": 1.0}, {"x": 1.0})
            + cf.k3 * cross_moment(golden_model, solved, 0.5, {"u": 1.0}, {"theta": 1.0})
        )

    base = objective(scheme.enc_gain, scheme.enc_theta_weight)
    assert base == pytest.approx(j_e, abs=1e-12)
    for dg in (-1e-4, 1e-4):
        for da in (-1e-4, 1e-4):
            assert objective(scheme.enc_gain + dg, scheme.enc_theta_weight + da) >= base - 1e-9


def test_negative_gain_when_u_x_penalty_is_adverse(golden_model):
    # positive k2 makes positive U*X correlation costly, so the solver
    # should flip the carrier sign
    cf = CanonicalForm(k1=0.2, k2=0.8, k3=0.0, theta_weight=1.0)
    scheme, _, _ = solve_canonical(golden_model, cf, 1.0)
    assert scheme.enc_gain < 0.0
    penalty = cross_moment(golden_model, scheme, 1.0, {"u": 1.0}, {"x": 1.0})
    assert penalty < 0.0  # favorable direction


def test_solve_canonical_requires_coercive_penalty(golden_model):
    with pytest.raises(Unbounded):
        solve_canonical(golden_model, CanonicalForm(k1=0.0, k2=0.0, k3=0.0, theta_weight=1.0), 1.0)
    with pytest.raises(ValueError):
        solve_canonical(golden_model, CanonicalForm(k1=0.1, k2=0.0, k3=0.0, theta_weight=1.0), -1.0)


@pytest.mark.parametrize("field", ["noise_var", "k1", "k2", "k3", "theta_weight"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solve_canonical_rejects_non_finite_inputs(golden_model, field, bad):
    values = {"noise_var": 1.0, "k1": 0.1, "k2": 0.1, "k3": 0.0, "theta_weight": 1.0}
    values[field] = bad
    noise_var = values.pop("noise_var")
    with pytest.raises(ValueError, match=field):
        solve_canonical(golden_model, CanonicalForm(**values), noise_var)


def test_solve_objectives_reports_raw_units(golden_model):
    phi_e, phi_d = _tracking_pair(k=1.0, k1=0.1, scale=2.0)
    phi_d = phi_d + QuadraticObjective(u2=0.3, const=1.5)
    cf, scheme, raw_e, raw_d = solve_objectives(golden_model, phi_e, phi_d, 1.0)
    assert cf.k1 == pytest.approx(0.1, abs=1e-12)
    _, j_e, j_d = solve_canonical(golden_model, cf, 1.0)
    u2 = cross_moment(golden_model, scheme, 1.0, {"u": 1.0}, {"u": 1.0})
    assert raw_e == pytest.approx(2.0 * j_e, abs=1e-10)
    assert raw_d == pytest.approx(j_d + 0.3 * u2 + 1.5, abs=1e-10)


def test_solve_objectives_refuses_cross_terms(golden_model):
    with pytest.raises(CrossTermPresent):
        solve_objectives(golden_model, *_two_stage_pair(), 1.0)


@pytest.mark.parametrize("k", [1e154, -1e154])
def test_an_overflowing_cost_raises(k):
    # Var(X + k*theta) = 2*(1 + 0.6k + k^2) leaves the float range; the weight
    # 2k/(1 + |h|) does not, so the failure is the cost's, reported as such
    with pytest.raises(OverflowError):
        solve_canonical(SourcePairModel(2.0, 0.3, 1.0), CanonicalForm(k1=0.5, k2=0.0, k3=0.0, theta_weight=k), 1.0)


def test_a_huge_theta_weight_keeps_its_limit_weight():
    # the weight tends to sign(k)/sqrt(r) as |k| grows
    scheme, j_e, j_d = solve_canonical(
        SourcePairModel(2.0, 0.3, 1.0), CanonicalForm(k1=0.5, k2=0.0, k3=0.0, theta_weight=1e150), 1.0
    )
    assert scheme.enc_theta_weight == pytest.approx(1.0, rel=1e-12)
    assert j_e == pytest.approx(1.9999999999999998e300, rel=1e-12)
    assert j_d == pytest.approx(0.7, rel=1e-12)


# ---------------------------------------------------------------------------
# Second route: the former direction scan, batched across games.  Per
# direction alpha = tan(phi) it takes the best power t = sqrt(v/sigma_x2)
# from every root of the quintic (2*k1*t - mu)(t^2 + n)^2 = 2*J*n*t, scans
# 512 angles and re-scans the three lowest local minima nine times, each
# 8 times finer.  Its weight is resolved to about 1e-8.

_SCAN_POINTS, _BASINS, _ZOOM_POINTS, _ZOOM_LEVELS = 512, 3, 17, 9


def _direction_terms(rho, r, k, k2, k3, a, b):
    """J_k, lambda and Var(S), per sigma_x2, of the encoder direction S = a*X + b*theta."""
    p = a + b * rho  # Cov(X, S) / sigma_x2
    q = a * rho + b * r  # Cov(theta, S) / sigma_x2
    var = a * p + b * q
    return p * (p + 2.0 * k * q) / var, k2 * p + k3 * q, var


def _scan_floor(k1):
    return np.sqrt(np.maximum(1e-7 / k1, 1e-10))


def _best_power(j, mu, k1, n, noiseless):
    """Per direction, the t >= 0 minimizing -j*t^2/(t^2 + n) + k1*t^2 - mu*t, and that minimum."""
    if noiseless:  # the cost is -j + k1*t^2 - mu*t for every t > 0
        value = np.minimum(-j - mu * mu / (4.0 * k1), 0.0)
        return np.where(value < 0.0, np.maximum(mu / (2.0 * k1), _scan_floor(k1)), 0.0), value
    tau = np.maximum((mu + np.sqrt(mu * mu + 4.0 * k1 * np.abs(j))) / (2.0 * k1), np.sqrt(n))
    a, b, nu = mu / (2.0 * k1 * tau), j / (k1 * tau * tau), n / (tau * tau)
    companion = np.zeros(a.shape + (5, 5))
    companion[..., 1:, :-1] = np.eye(4)
    companion[..., :, -1] = np.stack([a * nu * nu, nu * (b - nu), 2.0 * a * nu, -2.0 * nu, a], axis=-1)
    s = np.maximum(np.linalg.eigvals(companion).real, 0.0)
    a, b, nu = a[..., None], b[..., None], nu[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            q = s * s + nu
            step = ((s - a) * q * q - b * nu * s) / (q * q + 4.0 * s * (s - a) * q - b * nu)
            s = np.where(np.isfinite(step), np.maximum(s - step, 0.0), s)
    s = np.concatenate([s, np.zeros(a.shape)], axis=-1)
    q = s * s + nu
    value = s * s - 2.0 * a * s - b * np.divide(s * s, q, out=np.zeros_like(q), where=q > 0.0)
    pick = np.argmin(value, axis=-1)[..., None]
    s, value = np.take_along_axis(s, pick, -1)[..., 0], np.take_along_axis(value, pick, -1)[..., 0]
    return tau * s, k1 * tau * tau * value


def _scan(games):
    """(alpha, gain) of the scan for rows (sigma_x2, rho, r, k, k1, k2, k3, N),
    all noiseless or all noisy."""
    games = np.asarray(games, dtype=float)
    rho, r, k, k1, k2, k3 = games[:, 1:7].T
    n = games[:, 7] / games[:, 0]
    noiseless = not n.any()

    def profile(phi):
        shape = (-1,) + (1,) * (phi.ndim - 1)
        par = [v.reshape(shape) for v in (rho, r, k, k1, k2, k3, n)]
        j, lam, var = _direction_terms(*par[:3], *par[4:6], np.cos(phi), np.sin(phi))
        return _best_power(j, np.abs(lam) / np.sqrt(var), par[3], par[6], noiseless)

    rows = np.arange(len(games))[:, None]
    step = math.pi / _SCAN_POINTS
    phi = step * np.arange(_SCAN_POINTS)
    value = profile(np.broadcast_to(phi, (len(games), _SCAN_POINTS)))[1]
    local = (value <= np.roll(value, 1, axis=1)) & (value <= np.roll(value, -1, axis=1))
    basins = np.argsort(np.where(local, value, np.inf), axis=1, kind="stable")[:, :_BASINS]
    centers = phi[np.where(local[rows, basins], basins, basins[:, :1])]  # fewer basins: repeat the best
    for _ in range(_ZOOM_LEVELS):
        grid = centers[..., None] + step * np.linspace(-1.0, 1.0, _ZOOM_POINTS)
        t, value = profile(grid)
        pick = np.argmin(value, axis=2)[..., None]
        centers, t, value = (np.take_along_axis(x, pick, 2)[..., 0] for x in (grid, t, value))
        step *= 2.0 / (_ZOOM_POINTS - 1)
    best = np.argmin(value, axis=1)[:, None]
    phi, t = np.take_along_axis(centers, best, 1)[:, 0], np.take_along_axis(t, best, 1)[:, 0]
    t = np.where((t > 0.0) & (t * t + n <= PSD_RTOL), _scan_floor(k1), t)  # a signal the decoder would drop
    alpha = np.tan(phi)
    _, lam, var = _direction_terms(rho, r, k, k2, k3, 1.0, alpha)
    return alpha, np.where(lam > 0.0, -1.0, 1.0) * t / np.sqrt(var)


def _assert_no_worse_than_the_scan(games):
    # Batches of 100 games, two at a time: the 5x5 eigenvalue calls, about
    # 6 us each and 971 per noisy game, release the interpreter lock.
    games = np.asarray(games, dtype=float)
    scan = np.empty((len(games), 2))
    chunks = [
        chunk
        for noiseless in (True, False)
        for rows in [np.flatnonzero((games[:, 7] == 0.0) == noiseless)]
        for chunk in np.array_split(rows, -(-len(rows) // 100))
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for chunk, result in zip(chunks, pool.map(lambda rows: _scan(games[rows]), chunks)):
            scan[chunk] = np.column_stack(result)
    for game, (alpha, gain) in zip(games, scan):
        s2, rho, r, k, k1, k2, k3, noise = (float(v) for v in game)
        model, cf = SourcePairModel(s2, rho, r), CanonicalForm(k1=k1, k2=k2, k3=k3, theta_weight=k)
        scheme, j_e, j_d = solve_canonical(model, cf, noise)
        assert all(map(math.isfinite, (scheme.enc_gain, scheme.enc_theta_weight, j_e, j_d))), game
        new, old = (
            float(_control_objective(model, cf, noise, np.array(a), np.array(c)))
            for a, c in ((scheme.enc_theta_weight, scheme.enc_gain), (alpha, gain))
        )
        assert new <= old + 1e-12 * max(1.0, abs(j_e) / s2) * s2, game


def _wide_games(count=2000):
    # sigma_x2 to 1e+-100, r - rho^2 in 1e-8..1e4, k1 in 1e-4..1e4, N/sigma_x2
    # either 0 or in 1e-8..1e4, one game in ten pure tracking
    rng = np.random.default_rng(22)
    games = []
    for _ in range(count):
        s2, rho = 10.0 ** rng.uniform(-100.0, 100.0), rng.uniform(-0.99, 0.99)
        r, k, k1 = rho * rho + 10.0 ** rng.uniform(-8.0, 4.0), rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-4.0, 4.0)
        k2, k3 = (0.0, 0.0) if rng.uniform() < 0.1 else rng.uniform(-2.0, 2.0, 2)
        n = 0.0 if rng.uniform() < 0.15 else 10.0 ** rng.uniform(-8.0, 4.0)
        games.append((s2, rho, r, k, k1, k2, k3, n * s2))
    return games


def test_no_worse_than_the_direction_scan():
    _assert_no_worse_than_the_scan(_wide_games())


def test_extreme_games_stay_finite_and_no_worse_than_the_scan():
    # r - rho^2 = 1e-9, k = -50, k1 = 1e-8 and 1e8, N = 1e-12 and 1e12, and
    # sigma_x2 = N = 1e-300, with no, tiny and unit U*X / U*theta penalties
    games = [
        (s2, 0.6, 0.36 + gap, k, k1, k2, k3, n * s2)
        for s2, ns in ((1.0, (0.0, 1e-12, 1.0, 1e12)), (1e-300, (0.0, 1.0)))
        for n in ns
        for gap in (1e-9, 1.0)
        for k in (0.7, -50.0)
        for k1 in (1e-8, 0.3, 1e8)
        for k2, k3 in ((0.0, 0.0), (1e-300, -1e-300), (0.4, -0.3))
    ]
    # optima that send theta alone, which U = c*(X + alpha*theta) reaches only as c -> 0,
    # and penalties whose polynomial coefficients would overflow without scaling x
    games += [(1.0, rho, 1.0, 1.0, 1e20, 0.0, 1e20, 0.0) for rho in (-0.3, 0.0, 0.5)]
    games += [(1.0, 0.2, 1.3, 0.8, k1, 1e100, 3e99, n) for k1 in (1e-8, 1.0) for n in (0.0, 1.0)]
    # Newton steps from the hard-case point that end in NaN must keep that point
    games.append((2.5576350812254382e-166, -0.9882924630500897, 0.9770845336988472, -0.017547852597107325,
                  4.3358581767867973e-271, 1.4773147904868582e-295, 0.0, 3.706691427409222e-60))
    _assert_no_worse_than_the_scan(games)
