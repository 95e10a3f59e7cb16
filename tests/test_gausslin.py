"""Covariance-algebra layer: validation, MMSE weights, exact costs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from stratcomm.control_games import CanonicalForm, solve_canonical
from stratcomm.equilibrium import solve_noiseless
from stratcomm.errors import InvalidModel, SingularObservation
from stratcomm import gausslin, side_info, verify
from stratcomm.gausslin import (
    PSD_RTOL,
    LinearScheme,
    SideInfoModel,
    SourcePairModel,
    _moment_matrix,
    _si_det,
    _signal_vectors,
    best_decoder,
    best_decoders,
    cross_moment,
    mmse_linear,
    no_information_costs,
    require_valid,
    scheme_costs,
    validate_model,
)
from stratcomm.equilibrium import objective_j
from stratcomm.side_info import si_rate, si_rd_point, solve_noiseless_si
from stratcomm.simkit import GridSpec, SimConfig, deviation_search, estimate_costs, sample
from stratcomm.strategic_rd import lloyd_max, rate_of_test_channel, rd_point


def test_validate_accepts_valid_pair(golden_model):
    report = validate_model(golden_model)
    assert report.ok
    assert report.violations == ()


def test_validate_names_the_spread_violation():
    report = validate_model(SourcePairModel(sigma_x2=1.0, rho=0.5, r=0.25))
    assert not report.ok
    assert any("r must exceed rho^2" in v for v in report.violations)


def test_validate_rejects_boundary_spread():
    # r == rho^2 is a singular covariance, not a valid model
    report = validate_model(SourcePairModel(sigma_x2=1.0, rho=0.5, r=0.25 + 1e-16))
    assert not report.ok


def test_validate_rejects_bad_sigma_and_nonfinite():
    assert not validate_model(SourcePairModel(sigma_x2=0.0, rho=0.0, r=1.0)).ok
    assert not validate_model(SourcePairModel(sigma_x2=-1.0, rho=0.0, r=1.0)).ok
    report = validate_model(SourcePairModel(sigma_x2=1.0, rho=float("nan"), r=1.0))
    assert any("finite" in v for v in report.violations)


def test_validate_side_info_minors():
    ok = SideInfoModel(1.0, 0.2, 1.0, 0.4, -0.3, 1.0)
    assert validate_model(ok).ok
    # rho_x_w = 0.99 with rho_theta_w = -0.3 pushes the determinant negative
    bad = SideInfoModel(1.0, 0.2, 1.0, 0.99, -0.3, 1.0)
    report = validate_model(bad)
    assert not report.ok
    assert any("minor 3" in v for v in report.violations)
    with pytest.raises(InvalidModel):
        require_valid(bad)


def test_side_info_minors_match_a_dense_determinant():
    # unit-scale normalized covariances: diag(1, r_theta, r_w) around a random correlation
    rng = np.random.default_rng(29)
    for _ in range(2000):
        a = rng.normal(size=(3, 3))
        c = a @ a.T + 0.05 * np.eye(3)
        sd = np.sqrt([1.0, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)] / np.diag(c))
        c = c * sd[:, None] * sd[None, :]
        m = SideInfoModel(float(rng.uniform(0.25, 4.0)), c[0, 1], c[1, 1], c[0, 2], c[1, 2], c[2, 2])
        assert validate_model(m).ok
        assert abs(_si_det(m) - np.linalg.det(m.covariance() / m.sigma_x2)) <= 1e-14


@pytest.mark.parametrize("excess, ok", [(0.0, False), (1e-12, False), (2e-12, False), (1e-11, True)])
def test_side_info_determinant_at_the_tolerance(excess, ok):
    # W = X + noise of variance `excess`: the determinant is `excess`, and a
    # model at or below PSD_RTOL * trace (about 3e-12) is rejected
    m = SideInfoModel(1.0, 0.0, 1.0, 1.0, 0.0, 1.0 + excess)
    assert _si_det(m) == pytest.approx(excess, abs=1e-15)
    report = validate_model(m)
    assert report.ok == ok
    assert ok or any("minor 3" in v for v in report.violations)


# Models whose minors overflow: rho**2 used to raise OverflowError, and a
# NaN determinant used to pass "det <= tol" unflagged.
OVERFLOWING_MODELS = [
    SourcePairModel(1.0, 1e160, 1.0),
    SideInfoModel(1.0, 0.0, 1.0, -1e308, -2.5e50, 1.0),
    SideInfoModel(1.0, 0.0, 1.0, 1e160, 1e160, 1.0),
    SideInfoModel(1.0, 0.0, 1.0, -1e200, 1e200, 1.0),
    SideInfoModel(1.0, 0.0, 1.0, 1e200, -1e200, 1.0),
]


# Positive definite, with a trace past the float range: the tolerance used to
# overflow with it and reject the model.
HUGE_DIAGONAL = SideInfoModel(1.0, 0.0, 1e308, 0.0, 0.0, 1e308)


@pytest.mark.parametrize("model", OVERFLOWING_MODELS + [HUGE_DIAGONAL])
def test_validate_is_total_on_overflowing_minors(model):
    report = validate_model(model)
    if model is HUGE_DIAGONAL:
        assert report.ok, report.violations
        return
    assert not report.ok
    assert report.violations[0].split(":")[0] in ("r", "r_theta", "covariance")
    with pytest.raises(InvalidModel):
        require_valid(model)


def test_mmse_matches_lstsq_oracle():
    rng = np.random.default_rng(3)
    covs = [a @ a.T + 0.5 * np.eye(4) for a in rng.normal(size=(20, 4, 4))]
    # variances 1e300 and 1, well conditioned once scaled to unit diagonal
    wide = np.diag([1.0, 1e150, 1.0, 1.0])
    unit = [[2.0, 0.3, 0.5, 0.1], [0.3, 1.0, 0.2, 0.0], [0.5, 0.2, 1.0, 0.0], [0.1, 0.0, 0.0, 1.0]]
    covs.append(wide @ np.array(unit) @ wide)
    for cov in covs:
        weights, err = mmse_linear(cov, 0, (1, 2, 3))
        block = cov[1:, 1:]
        cross = cov[1:, 0]
        expected = np.linalg.solve(block, cross)
        sd = np.sqrt(np.diag(block))  # compare weights per standard deviation
        assert np.allclose(weights * sd, expected * sd, atol=1e-10)
        expected_err = cov[0, 0] - expected @ cross
        assert err == pytest.approx(expected_err, abs=1e-10)


def test_mmse_empty_observation_returns_prior():
    cov = np.diag([2.0, 1.0])
    weights, err = mmse_linear(cov, 0, ())
    assert weights.size == 0
    assert err == 2.0


def test_mmse_rejects_singular_block():
    cov = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]])
    with pytest.raises(SingularObservation):
        mmse_linear(cov, 0, (1, 2))


def test_cross_moment_against_direct_algebra(golden_model):
    # E{Y^2} for Y = c*(X + a*theta) + T + N has the closed form below;
    # cross_moment must reproduce it exactly.
    scheme = LinearScheme(enc_gain=1.5, enc_theta_weight=0.7, enc_noise_var=0.2)
    got = cross_moment(golden_model, scheme, 0.3, {"y": 1.0}, {"y": 1.0})
    expected = 1.5**2 * (1.0 + 0.7**2) + 0.2 + 0.3
    assert got == pytest.approx(expected, abs=1e-14)
    # transmitted power excludes the channel noise
    power = cross_moment(golden_model, scheme, 0.3, {"u": 1.0}, {"u": 1.0})
    assert power == pytest.approx(expected - 0.3, abs=1e-14)


def test_best_decoder_orthogonality(golden_model, si_correlated):
    for model, noise in ((golden_model, 0.0), (golden_model, 0.8), (si_correlated, 0.5)):
        scheme = LinearScheme(enc_gain=1.0, enc_theta_weight=0.6)
        solved, _ = best_decoder(model, scheme, channel_noise_var=noise)
        err = {"x": 1.0, "xhat": -1.0}
        assert cross_moment(model, solved, noise, err, {"y": 1.0}) == pytest.approx(
            0.0, abs=1e-12
        )
        if isinstance(model, SideInfoModel):
            assert cross_moment(model, solved, noise, err, {"w": 1.0}) == pytest.approx(
                0.0, abs=1e-12
            )


def test_best_decoder_drops_degenerate_signal(golden_model):
    solved, costs = best_decoder(golden_model, LinearScheme(enc_gain=0.0))
    assert solved.dec_y_weight == 0.0
    assert costs.d_d == pytest.approx(golden_model.sigma_x2, abs=1e-14)


def test_best_decoder_uses_w_when_y_degenerate(si_correlated):
    solved, costs = best_decoder(si_correlated, LinearScheme(enc_gain=0.0))
    # W-only estimation: weight rho_xw/r_w, residual sigma^2 (1 - rho_xw^2/r_w)
    assert solved.dec_y_weight == 0.0
    assert solved.dec_w_weight == pytest.approx(0.4 / 1.0, abs=1e-12)
    assert costs.d_d == pytest.approx(1.0 - 0.4**2, abs=1e-12)


def test_scheme_costs_match_best_decoder_on_solved_weights(golden_model):
    solved, costs = best_decoder(
        golden_model, LinearScheme(enc_gain=1.0, enc_theta_weight=0.3), 0.25
    )
    redone = scheme_costs(golden_model, solved, 0.25)
    assert redone.d_e == pytest.approx(costs.d_e, abs=1e-14)
    assert redone.d_d == pytest.approx(costs.d_d, abs=1e-14)


def test_scheme_costs_validates_noise_signs(golden_model):
    with pytest.raises(ValueError):
        scheme_costs(golden_model, LinearScheme(enc_noise_var=-1.0))
    with pytest.raises(ValueError):
        scheme_costs(golden_model, LinearScheme(), channel_noise_var=-0.1)


def test_no_information_costs(golden_model):
    costs = no_information_costs(golden_model)
    assert costs.d_e == pytest.approx(2.0, abs=1e-15)  # sigma^2 (1 + 2 rho + r)
    assert costs.d_d == pytest.approx(1.0, abs=1e-15)


def _scale_free_results(sigma_x2: float) -> list[float]:
    pair = SourcePairModel(sigma_x2, 0.0, 1.0)
    si = SideInfoModel(sigma_x2, 0.2, 1.0, 0.4, -0.3, 1.0)
    pairs = (
        solve_noiseless(pair).costs,
        rd_point(pair, 1.0).costs,
        solve_noiseless_si(si).costs,
        si_rd_point(si, 1.0).costs,
    )
    # the channel noise scales along; the factor 0.5 keeps noise_var /
    # sigma_x2 exact, so the direction scan sees one game at every scale
    cf = CanonicalForm(k1=0.15, k2=0.2, k3=-0.1, theta_weight=0.8)
    control, j_e, j_d = solve_canonical(SourcePairModel(sigma_x2, 0.2, 1.3), cf, 0.5 * sigma_x2)
    grid = GridSpec.around(0.6, sigma_t2_max=2.0 * sigma_x2, power=3.0 * sigma_x2)
    deviation = deviation_search(pair, 0.5 * sigma_x2, LinearScheme(enc_theta_weight=0.6), grid)
    costs = [c / sigma_x2 for p in pairs for c in (p.d_e, p.d_d)]
    return costs + [
        j_e / sigma_x2,
        j_d / sigma_x2,
        control.enc_theta_weight,
        control.enc_gain,
        deviation.best_d_e / sigma_x2,
    ]


@pytest.mark.parametrize("sigma_x2", [1e-200, 1e-13, 1.0, 1e13, 1e200])
def test_costs_scale_exactly_with_sigma_x2(sigma_x2):
    # the degeneracy floor of best_decoder is relative to the model's scale,
    # so no absolute term may drop Y from a tiny-variance model
    assert _scale_free_results(sigma_x2) == pytest.approx(
        _scale_free_results(1.0), rel=1e-12, abs=0.0
    )


def _non_finite_entries() -> list:
    pair, si = SourcePairModel(1.0, 0.0, 1.0), SideInfoModel(1.0, 0.2, 1.0, 0.4, -0.3, 1.0)
    grid = GridSpec.around(0.5)
    cfg = SimConfig(seed=0, n=100)
    table = sample(si, cfg)
    entries = [
        ("objective_j", "alpha", lambda x: objective_j(pair, x)),
        ("objective_j", "sigma_t2", lambda x: objective_j(pair, 0.5, x)),
        ("rate_of_test_channel", "sigma_s2", lambda x: rate_of_test_channel(pair, 0.5, x)),
        ("si_rate", "beta", lambda x: si_rate(si, x, 1.0)),
        ("lloyd_max", "source_var", lambda x: lloyd_max(4, x)),
        ("deviation_search", "channel_noise_var", lambda x: deviation_search(pair, x, LinearScheme(), grid)),
        ("deviation_search", "enc_gain", lambda x: deviation_search(pair, 0.0, LinearScheme(enc_gain=x), grid)),
    ]
    for fn in (best_decoder, scheme_costs):
        entries.append((fn.__name__, "channel_noise_var", lambda x, fn=fn: fn(si, LinearScheme(), x)))
        for f in ("enc_noise_var", "enc_gain", "enc_theta_weight"):
            entries.append((fn.__name__, f, lambda x, fn=fn, f=f: fn(si, LinearScheme(**{f: x}))))
    entries.append(("estimate_costs", "channel_noise_var", lambda x: estimate_costs(table, LinearScheme(), x, cfg)))
    for f in LinearScheme.__dataclass_fields__:
        entries.append(
            ("estimate_costs", f, lambda x, f=f: estimate_costs(table, LinearScheme(**{f: x}), 0.5, cfg))
        )
    return [pytest.param(field, call, id=f"{name}-{field}") for name, field, call in entries]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field, call", _non_finite_entries())
def test_entries_reject_non_finite_inputs(field, call, value):
    if field == "sigma_s2" and value == math.inf:
        assert call(value) == 0.0  # +inf test-channel noise is the zero-rate point
    else:
        with pytest.raises(ValueError, match=field):
            call(value)


def _negative_noise_entries() -> list:
    pair, cfg = SourcePairModel(1.0, 0.2, 1.5), SimConfig(seed=0, n=100)
    table, grid = sample(pair, cfg), GridSpec.around(0.5)
    entries = [
        ("deviation_search", "channel_noise_var", lambda x: deviation_search(pair, x, LinearScheme(enc_theta_weight=0.5), grid)),
        ("deviation_search", "enc_noise_var", lambda x: deviation_search(pair, 0.0, LinearScheme(enc_noise_var=x), grid)),
        ("estimate_costs", "channel_noise_var", lambda x: estimate_costs(table, LinearScheme(), x, cfg)),
        ("estimate_costs", "enc_noise_var", lambda x: estimate_costs(table, LinearScheme(enc_noise_var=x), 0.0, cfg)),
    ]
    return [pytest.param(field, call, id=f"{name}-{field}") for name, field, call in entries]


@pytest.mark.parametrize("field, call", _negative_noise_entries())
def test_entries_reject_negative_noise(field, call):
    # a negative variance would give deviation_search a negative baseline d_e
    with pytest.raises(ValueError, match=f"{field}: must be nonnegative"):
        call(-0.5)


# The former best_decoder, one scheme at a time through 4x4 moment algebra,
# kept as the second route for the stacked oracle; only its Y drop moved to
# Y's own units.
def _scalar_mmse(cov, observed):
    block = cov[np.ix_(observed, observed)]
    cross = cov[observed, 0]
    scale = np.sqrt(np.diag(block))
    if not np.all(scale > 0.0):
        raise SingularObservation("observation covariance has a variance that is not positive")
    unit = block / np.outer(scale, scale)
    tol = PSD_RTOL * len(observed)
    eigs = np.linalg.eigvalsh((unit + unit.T) / 2.0)
    if eigs.min() <= tol:
        raise SingularObservation(
            f"observation covariance scaled to unit diagonal has eigenvalue {eigs.min():.3g} <= {tol:.3g}"
        )
    return np.linalg.solve(unit, cross / scale) / scale


def _per_scheme_best_decoder(model, scheme, channel_noise_var=0.0):
    require_valid(model)
    k = _moment_matrix(model, scheme, channel_noise_var)
    sig = _signal_vectors(scheme)

    def m(u, v):
        return float(u @ k @ v)

    var_y = m(sig["y"], sig["y"])
    signal = sig["y"].copy()
    signal[3:] = 0.0  # c*S: Y without T and N
    names = []
    if m(signal, signal) > PSD_RTOL * var_y:  # Y's own units, as best_decoders drops it
        names.append("y")
    if isinstance(model, SideInfoModel):
        names.append("w")
    dims = ["x"] + names
    cov = np.array([[m(sig[a], sig[b]) for b in dims] for a in dims])
    weights = _scalar_mmse(cov, list(range(1, len(dims)))) if names else np.zeros(0)
    dec_y = weights[names.index("y")] if "y" in names else 0.0
    dec_w = weights[names.index("w")] if "w" in names else 0.0
    solved = replace(scheme, dec_y_weight=float(dec_y), dec_w_weight=float(dec_w))
    return solved, scheme_costs(model, solved, channel_noise_var)


def _oracle_cases(seed, n_models=60, per_model=8):
    """Seeded (model, schemes, channel noises): pair and side-information models, encoders with and
    without gain (a dropped Y), encoder noise, W in the signal and channel noise."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_models):
        if i % 2:
            rho = float(rng.uniform(-0.85, 0.85))
            model = SourcePairModel(float(rng.uniform(0.25, 4.0)), rho, rho * rho + float(rng.uniform(0.05, 2.5)))
        else:
            a = rng.normal(size=(3, 3))
            c = a @ a.T + 0.2 * np.eye(3)
            c = c / c[0, 0]
            model = SideInfoModel(float(rng.uniform(0.25, 4.0)), c[0, 1], c[1, 1], c[0, 2], c[1, 2], c[2, 2])
        schemes, noises = [], []
        for _ in range(per_model):
            schemes.append(LinearScheme(
                enc_gain=0.0 if rng.random() < 0.2 else float(rng.uniform(-3.0, 3.0)),
                enc_theta_weight=float(rng.uniform(-2.0, 2.0)),
                enc_si_weight=float(rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 else 0.0,
                enc_noise_var=float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0,
            ))
            noises.append(float(rng.uniform(0.0, 3.0)) if rng.random() < 0.5 else 0.0)
        cases.append((model, schemes, noises))
    return cases


def test_best_decoder_matches_the_per_scheme_route():
    dropped = 0
    for model, schemes, noises in _oracle_cases(2020):
        for scheme, noise in zip(schemes, noises):
            solved, costs = best_decoder(model, scheme, noise)
            ref_solved, ref_costs = _per_scheme_best_decoder(model, scheme, noise)
            dropped += ref_solved.dec_y_weight == 0.0
            for got, want in (
                (solved.dec_y_weight, ref_solved.dec_y_weight),
                (solved.dec_w_weight, ref_solved.dec_w_weight),
                (costs.d_e, ref_costs.d_e),
                (costs.d_d, ref_costs.d_d),
            ):
                assert abs(got - want) <= 1e-15 * abs(want)
    assert dropped > 0


def test_stacked_oracle_matches_the_per_scheme_route():
    # one call per model; a 1e-7 gain under unit channel noise is a Y that
    # carries 1e-14 of its variance, which both routes drop
    dropped = 0
    for model, schemes, noises in _oracle_cases(2021):
        schemes, noises = [*schemes, LinearScheme(enc_gain=1e-7, enc_theta_weight=0.5)], [*noises, 1.0]
        weights, costs = best_decoders(model, schemes, noises)
        for scheme, noise, w, c in zip(schemes, noises, weights, costs):
            solved, pair = _per_scheme_best_decoder(model, scheme, noise)
            want = np.array([solved.dec_y_weight, solved.dec_w_weight, pair.d_e, pair.d_d])
            got = np.concatenate((w, c))
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (model, scheme, noise)
            dropped += solved.dec_y_weight == 0.0
    assert dropped > 60


def test_stacked_oracle_raises_on_a_singular_block_as_the_per_scheme_route_does(si_correlated):
    singular = LinearScheme(enc_si_weight=1e9)  # Y = X + 1e9*W is W to within 1e-9
    with pytest.raises(SingularObservation) as want:
        _per_scheme_best_decoder(si_correlated, singular)
    with pytest.raises(SingularObservation) as got:
        best_decoders(si_correlated, [LinearScheme(enc_theta_weight=0.5), singular, LinearScheme()], [0.0, 0.3, 0.0])
    assert str(got.value) == str(want.value)
    assert "eigenvalue" in str(got.value)


@pytest.mark.parametrize(
    "shift, caught",
    [
        # the local grid's best weight sits within 1e-15 * sigma_x2 of the closed form
        (1e-9, {"kernel_matches_propagation", "si_transmitter_invariance", "si_weight_beats_grid"}),
        (1e-4, {"kernel_matches_propagation", "si_transmitter_invariance", "si_weight_beats_grid"}),
    ],
)
def test_battery_catches_a_lowered_oracle(monkeypatch, shift, caught):
    # lowering the stacked oracle's d_e per sigma_x2 must show against the
    # solvers' kernel, against the solver's invariance and as a grid weight
    # beating the closed form
    real = gausslin.best_decoders

    def lowered(model, schemes, channel_noise_vars):
        weights, costs = real(model, schemes, channel_noise_vars)
        costs[:, 0] -= shift * model.sigma_x2
        return weights, costs

    for module in (gausslin, side_info, verify):
        monkeypatch.setattr(module, "best_decoders", lowered)
    assert set(verify.run_suite("quick", seed=0)["failed"]) == caught
