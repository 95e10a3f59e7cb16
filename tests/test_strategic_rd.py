"""Rate-limited disclosure curve, finite-instance accounting, quantizers."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from stratcomm.equilibrium import best_alpha, objective_j, solve_noiseless
from stratcomm.errors import InvalidDistribution, ZeroRate
from stratcomm.gausslin import SourcePairModel, no_information_costs
from stratcomm.strategic_rd import (
    DiscreteInstance,
    _GL_NODES,
    _GL_WEIGHTS,
    _cells,
    _quantile_grid,
    _solve_tridiagonal,
    bits_to_nats,
    discrete_best_response,
    discrete_triple,
    empirical_triple,
    lloyd_max,
    nats_to_bits,
    quadratic_tables,
    rate_of_test_channel,
    rd_point,
    rd_sweep,
    rd_test_channel,
)

# Independent quadrature oracle: brentq on the symmetric threshold equation
# plus adaptive integration of the cell moments (no shared code).
LLOYD4_MSE = 0.117481847829
LLOYD4_THRESHOLD = 0.981598821568
LLOYD4_CENTROIDS = (0.452780034636, 1.510417608499)
LLOYD16_MSE = 0.009501008008


def test_zero_rate_is_the_no_information_point(golden_model):
    point = rd_point(golden_model, 0.0)
    ref = no_information_costs(golden_model)
    assert point.costs.d_e == ref.d_e
    assert point.costs.d_d == ref.d_d
    assert math.isinf(point.sigma_s2)


def test_high_rate_recovers_the_unconstrained_game(random_models):
    for model in random_models(3, seed=5):
        free = solve_noiseless(model).costs
        capped = rd_point(model, 30.0).costs
        assert capped.d_e == pytest.approx(free.d_e, abs=1e-8)
        assert capped.d_d == pytest.approx(free.d_d, abs=1e-8)


def test_curve_monotone_with_floor(golden_model):
    rates = np.linspace(0.0, 12.0, 100)
    points = rd_sweep(golden_model, rates)
    d_e = np.array([p.costs.d_e for p in points])
    d_d = np.array([p.costs.d_d for p in points])
    assert (np.diff(d_e) <= 1e-12).all()
    assert (np.diff(d_d) <= 1e-12).all()
    floor = golden_model.sigma_x2 * 2.0 ** (-2.0 * rates)
    assert (d_d >= floor - 1e-12).all()


def test_weight_is_rate_free_without_side_information(golden_model):
    alpha = best_alpha(golden_model)
    for rate in (0.25, 1.0, 4.0, 16.0):
        beta, _ = rd_test_channel(golden_model, rate)
        assert beta == alpha  # same root, no search involved


def test_rate_roundtrip(golden_model):
    for rate in (0.3, 1.0, 2.5, 7.0):
        beta, sigma_s2 = rd_test_channel(golden_model, rate)
        assert rate_of_test_channel(golden_model, beta, sigma_s2) == pytest.approx(
            rate, abs=1e-12
        )
    with pytest.raises(ZeroRate):
        rd_test_channel(golden_model, 0.0)
    with pytest.raises(ZeroRate):
        rate_of_test_channel(golden_model, 0.5, 0.0)
    with pytest.raises(ZeroRate):
        rd_point(golden_model, -1.0)


def test_nan_rate_is_rejected(golden_model):
    with pytest.raises(ZeroRate):
        rd_test_channel(golden_model, math.nan)
    with pytest.raises(ZeroRate):
        rd_point(golden_model, math.nan)
    for rates in ([0.5, math.nan], [0.5, -1.0]):
        with pytest.raises(ZeroRate):
            rd_sweep(golden_model, rates)


def test_rd_point_is_the_one_rate_sweep(random_models):
    # rd_point runs the kernel on floats, rd_sweep on arrays: same bits.  On a
    # few percent of the random rates math.exp and numpy's vectorized exp
    # differ in the last bit, so these also pin the exp of the float route.
    rng = np.random.default_rng(17)
    rates = [0.0, 1e-300, 1e-12, 0.5, 30.0]
    rates += rng.uniform(0.0, 40.0, 500).tolist() + (10.0 ** rng.uniform(-300.0, 1.5, 500)).tolist()
    for model in random_models(4, seed=5):
        for rate, swept in zip(rates, rd_sweep(model, rates)):
            point = rd_point(model, rate)
            assert repr(point) == repr(swept)
            fields = (point.rate, point.beta, point.sigma_s2, point.costs.d_e, point.costs.d_d)
            assert all(type(v) is float for v in fields)
            assert math.isinf(point.sigma_s2) == (rate == 0.0)


def test_rates_below_the_float_range_overflow(golden_model):
    with pytest.raises(OverflowError):
        rd_point(golden_model, 1e-320)
    with pytest.raises(OverflowError):
        rd_sweep(golden_model, [0.5, 1e-320])


def test_rejected_limit_form_contradicts_the_floor(golden_model):
    # A tempting closed form for the receiver cost decays to 0 as the rate
    # grows; the true curve saturates at the unconstrained equilibrium value
    # (5 - sqrt 5)/10, so the two differ by that whole amount in the limit.
    saturation = (5.0 - math.sqrt(5.0)) / 10.0
    d_d_30 = rd_point(golden_model, 30.0).costs.d_d
    assert d_d_30 == pytest.approx(saturation, abs=1e-6)
    rejected_limit = 0.0
    assert abs(d_d_30 - rejected_limit) > 0.27


def test_rejected_alignment_coefficient(golden_model):
    # The alignment value at the optimum is 1 + alpha = golden ratio, not
    # the (1 + alpha)^2 / alpha-flavored 1.809017 variant.
    alpha = best_alpha(golden_model)
    j = objective_j(golden_model, alpha)
    assert j == pytest.approx(1.0 + alpha, abs=1e-9)
    assert abs(j - 1.809017) > 0.19


def test_rate_unit_conversions():
    assert nats_to_bits(math.log(2.0)) == pytest.approx(1.0, abs=1e-15)
    for value in (0.0, 0.5, 3.2):
        assert nats_to_bits(bits_to_nats(value)) == pytest.approx(value, abs=1e-15)


def test_rate_unit_conversions_reject_non_finite_rates():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rate_bits: must be finite"):
            bits_to_nats(value)
        with pytest.raises(ValueError, match="rate_nats: must be finite"):
            nats_to_bits(value)


# -- finite instances -------------------------------------------------------


def _binary_instance():
    # X uniform on {-1, +1}, theta = X, clean binary channel on Y
    pmf = np.array([[0.5, 0.0], [0.0, 0.5]])
    channel = np.zeros((2, 2, 2))
    channel[0, :, 0] = 1.0
    channel[1, :, 1] = 1.0
    grid = np.array([-1.5, 0.0, 1.5])
    return DiscreteInstance(joint_pmf=pmf, channel=channel, recon_grid=grid)


def test_discrete_triple_exact_binary_case():
    inst = _binary_instance()
    d_e, d_d = quadratic_tables(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), inst.recon_grid)
    decoder = discrete_best_response(inst, d_d)
    # clean channel: the best response picks the closest grid point to x
    assert decoder.tolist() == [0, 2]
    rate, costs = discrete_triple(inst, decoder, d_e, d_d)
    assert rate == pytest.approx(1.0, abs=1e-12)  # one bit through a clean channel
    assert costs.d_d == pytest.approx(0.25, abs=1e-12)  # (x - 1.5x)^2
    assert costs.d_e == pytest.approx(0.25, abs=1e-12)  # (2x - 1.5x)^2


def test_discrete_best_response_breaks_ties_low():
    inst = _binary_instance()
    tie_grid = np.array([-2.0, 0.0, 2.0])
    _, d_d = quadratic_tables(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), tie_grid)
    tie_inst = DiscreteInstance(inst.joint_pmf, inst.channel, tie_grid)
    # |x - 0| == |x - 2x| for x = +-1: ties resolve to the smaller index
    assert discrete_best_response(tie_inst, d_d).tolist() == [0, 1]


def test_discrete_best_response_beats_alternatives():
    inst = _binary_instance()
    d_e, d_d = quadratic_tables(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), inst.recon_grid)
    best = discrete_best_response(inst, d_d)
    _, best_costs = discrete_triple(inst, best, d_e, d_d)
    rng = np.random.default_rng(0)
    for _ in range(20):
        other = rng.integers(0, 3, size=2)
        _, costs = discrete_triple(inst, other.astype(np.intp), d_e, d_d)
        assert costs.d_d >= best_costs.d_d - 1e-12


def test_discrete_validation_errors():
    inst = _binary_instance()
    bad_pmf = DiscreteInstance(
        joint_pmf=np.array([[0.6, 0.0], [0.0, 0.5]]),
        channel=inst.channel,
        recon_grid=inst.recon_grid,
    )
    with pytest.raises(InvalidDistribution):
        discrete_best_response(bad_pmf, np.zeros((2, 3)))
    bad_rows = DiscreteInstance(
        joint_pmf=inst.joint_pmf,
        channel=np.full((2, 2, 2), 0.4),
        recon_grid=inst.recon_grid,
    )
    with pytest.raises(InvalidDistribution):
        discrete_best_response(bad_rows, np.zeros((2, 3)))


def test_discrete_matches_gaussian_curve_coarsely(golden_model):
    # Discretize the golden model on a fine grid; the exact finite-instance
    # mutual information and costs of the quantized test channel must sit
    # near the Gaussian closed form at the same rate.
    alpha = best_alpha(golden_model)
    edges = np.linspace(-4.5, 4.5, 81)
    centers = 0.5 * (edges[:-1] + edges[1:])
    step = edges[1] - edges[0]
    x = centers[:, None]
    t = centers[None, :]
    pmf = np.exp(-0.5 * (x**2 + t**2)) * step * step / (2.0 * math.pi)
    pmf /= pmf.sum()

    v = x + alpha * t  # effective signal
    sigma_s2 = rd_test_channel(golden_model, 1.0)[1]
    y_edges = np.linspace(-6.0, 6.0, 49)
    y_lo = np.concatenate(([-np.inf], y_edges))
    y_hi = np.concatenate((y_edges, [np.inf]))
    from scipy.special import ndtr

    sd = math.sqrt(sigma_s2)
    channel = ndtr((y_hi - v[..., None]) / sd) - ndtr((y_lo - v[..., None]) / sd)
    channel /= channel.sum(axis=2, keepdims=True)
    recon = np.linspace(-3.0, 3.0, 121)
    inst = DiscreteInstance(joint_pmf=pmf, channel=channel, recon_grid=recon)
    d_e, d_d = quadratic_tables(centers, centers, recon)
    decoder = discrete_best_response(inst, d_d)
    rate, costs = discrete_triple(inst, decoder, d_e, d_d)

    reference = rd_point(golden_model, 1.0)
    assert rate == pytest.approx(1.0, abs=0.05)
    assert costs.d_d == pytest.approx(reference.costs.d_d, abs=0.02)
    assert costs.d_e == pytest.approx(reference.costs.d_e, abs=0.02)


# -- quantizers -------------------------------------------------------------


def test_two_level_quantizer_exact():
    quant = lloyd_max(2, 1.0)
    level = math.sqrt(2.0 / math.pi)
    assert quant.centroids == pytest.approx([-level, level], abs=1e-12)
    assert quant.thresholds == pytest.approx([0.0], abs=1e-15)
    assert quant.mse == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)


def test_four_level_quantizer_matches_quadrature_oracle():
    quant = lloyd_max(4, 1.0)
    assert quant.mse == pytest.approx(LLOYD4_MSE, abs=1e-9)
    assert quant.thresholds[2] == pytest.approx(LLOYD4_THRESHOLD, abs=1e-8)
    assert quant.thresholds[0] == pytest.approx(-LLOYD4_THRESHOLD, abs=1e-8)
    assert quant.centroids[2] == pytest.approx(LLOYD4_CENTROIDS[0], abs=1e-8)
    assert quant.centroids[3] == pytest.approx(LLOYD4_CENTROIDS[1], abs=1e-8)


def test_sixteen_level_quantizer_matches_quadrature_oracle():
    assert lloyd_max(16, 1.0).mse == pytest.approx(LLOYD16_MSE, abs=1e-9)


def test_quantizer_mse_is_a_python_float():
    # a numpy scalar reprs as np.float64(...) under numpy 2 and as a bare number under 1.x
    assert type(lloyd_max(16, 1.0).mse) is float


def test_quantizer_scaling_and_monotonicity():
    base = lloyd_max(8, 1.0)
    scaled = lloyd_max(8, 2.5)
    assert scaled.mse == pytest.approx(2.5 * base.mse, rel=1e-10)
    assert scaled.centroids == pytest.approx(math.sqrt(2.5) * base.centroids, rel=1e-10)
    mses = [lloyd_max(k, 1.0).mse for k in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(mses, mses[1:]))


def test_quantizer_validation_and_serialization():
    with pytest.raises(ValueError):
        lloyd_max(1, 1.0)
    with pytest.raises(ValueError):
        lloyd_max(4, 0.0)
    assert lloyd_max(np.int64(4), 1.0).mse == pytest.approx(LLOYD4_MSE, abs=1e-9)
    payload = json.loads(lloyd_max(4, 1.0).to_json())
    assert payload["levels"] == 4
    assert payload["mse"] == pytest.approx(LLOYD4_MSE, abs=1e-9)


@pytest.mark.parametrize(
    "levels, residual_tol, field",
    [
        (4.5, 1e-12, "levels"),
        (4.0, 1e-12, "levels"),
        (True, 1e-12, "levels"),
        ("4", 1e-12, "levels"),
        (4, 0.0, "residual_tol"),
        (4, -1e-12, "residual_tol"),
        (4, math.nan, "residual_tol"),
        (4, math.inf, "residual_tol"),
    ],
)
def test_quantizer_rejects_bad_levels_and_tolerance(levels, residual_tol, field):
    with pytest.raises(ValueError, match=field):
        lloyd_max(levels, 1.0, residual_tol=residual_tol)


def _normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _lloyd_step_by_quadrature(thresholds):
    """Cell means of N(0, 1) between ``thresholds`` by adaptive quadrature."""
    edges = [-math.inf, *thresholds.tolist(), math.inf]
    means = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mass = quad(_normal_pdf, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
        first = quad(lambda z: z * _normal_pdf(z), lo, hi, epsabs=1e-300, epsrel=1e-13)[0]
        means.append(first / mass)
    return np.array(means)


@pytest.mark.parametrize("levels", [2, 16, 256, 4096])
def test_quantizer_is_a_lloyd_fixed_point(levels):
    quant = lloyd_max(levels, 1.0)
    step = _lloyd_step_by_quadrature(quant.thresholds)
    assert np.max(np.abs(step - quant.centroids)) <= 1e-12


def test_quantizer_mse_approaches_the_panter_dite_limit():
    limit = math.sqrt(3.0) * math.pi / 2.0
    levels = [2**k for k in range(1, 13)]
    mses = [lloyd_max(k, 1.0).mse for k in levels]
    assert all(a > b for a, b in zip(mses, mses[1:]))
    scaled = [k * k * mse for k, mse in zip(levels, mses)]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] < limit
    assert scaled[-1] > 0.999 * limit


@pytest.mark.parametrize("levels", [512, 4096])
def test_many_level_quantizers_take_few_newton_steps(levels):
    quant = lloyd_max(levels, 1.0)
    assert 1 <= quant.iterations <= 10


def test_quadrature_rule_is_sixteen_point_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(_GL_NODES, nodes)
    assert np.array_equal(_GL_WEIGHTS, weights)


def test_tridiagonal_sweep_matches_a_dense_solve():
    rng = np.random.default_rng(7)
    n = 9
    sub, sup = rng.uniform(0.0, 0.5, n - 1), rng.uniform(0.0, 0.5, n - 1)
    diag = -1.0 - rng.uniform(0.0, 0.5, n)
    rhs = rng.normal(size=n)
    dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    got = _solve_tridiagonal(sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist())
    assert got == pytest.approx(np.linalg.solve(dense, rhs), abs=1e-14)


def _assert_tails_match_ndtr(centroids):
    t, mass = _cells(centroids)[:2]
    # scipy's erfc loses about t^2 ulp in the tail (3.6e-15 at t = 5.87);
    # math.erfc is closer to the exact mass there
    assert mass[0] == pytest.approx(ndtr(t[0]), rel=2e-15, abs=0.0), len(centroids)
    assert mass[-1] == pytest.approx(ndtr(-t[-1]), rel=2e-15, abs=0.0), len(centroids)


def test_stdlib_normal_functions_match_scipy():
    for levels in range(2, 4097):
        # Both sides mirror their lower half: ndtri of the rounded upper
        # probabilities (i + 1/2)/L misses the mirror by up to 1.1e-13.
        # Python's AS241 is within 5 ulp of the exact quantile (2.2e-15 at
        # |q| = 3.7), ndtri within 1 ulp, so the bound is 2.5e-15.
        low = ndtri((np.arange(levels // 2) + 0.5) / levels)
        expected = np.concatenate((low, [0.0] * (levels % 2), -low[::-1]))
        grid = _quantile_grid(levels)
        assert np.max(np.abs(grid - expected)) <= 2.5e-15, levels
        # the two outer centroids on each side cut the same tail cells as the whole grid
        _assert_tails_match_ndtr(grid if levels < 4 else grid[[0, 1, -2, -1]])
    for levels in (2, 3, 4, 16, 128, 1024, 4095, 4096):
        _assert_tails_match_ndtr(lloyd_max(levels, 1.0).centroids)


def test_quantize_maps_to_nearest_centroid():
    quant = lloyd_max(4, 1.0)
    values = np.array([-3.0, -0.5, 0.5, 3.0])
    out = quant.quantize(values)
    direct = quant.centroids[np.argmin(np.abs(values[:, None] - quant.centroids[None, :]), axis=1)]
    assert out == pytest.approx(direct)


# -- simulated codec --------------------------------------------------------


def test_empirical_triple_is_deterministic_and_calibrated(golden_model):
    run1 = empirical_triple(golden_model, 16, 100_000, seed=21)
    run2 = empirical_triple(golden_model, 16, 100_000, seed=21)
    assert run1 == run2
    assert run1.rate_bits == 4.0

    # exact predictions from the truncated-moment identities
    alpha = best_alpha(golden_model)
    var_v = 1.0 + alpha * alpha
    kappa = 1.0 / var_v
    mu = (1.0 + alpha) / var_v
    keep = var_v - lloyd_max(16, var_v).mse
    predicted_d_d = 1.0 - kappa * kappa * keep
    predicted_d_e = 2.0 - 2.0 * kappa * mu * keep + kappa * kappa * keep
    assert abs(run1.costs.d_d - predicted_d_d) <= 4.0 * run1.stderr_d
    assert abs(run1.costs.d_e - predicted_d_e) <= 4.0 * run1.stderr_e


def _whole_array_triple(model, levels: int, n: int, seed: int, chunk: int) -> tuple:
    """Second route: the codec's squared errors as n-row arrays."""
    from stratcomm.equilibrium import _linear_costs, _signal_ratio
    from stratcomm.simkit import SimConfig, sample

    beta = best_alpha(model)
    quant = lloyd_max(levels, model.sigma_x2 * _signal_ratio(model.rho, model.r, beta))
    kappa = float(_linear_costs(model.rho, model.r, beta, 1.0, 0.0, 0.0)[0])
    table = sample(model, SimConfig(seed=seed, n=n, chunk=chunk))
    x, theta = table.column("X"), table.column("theta")
    xhat = kappa * quant.quantize(x + beta * theta)
    sq_e, sq_d = (x + theta - xhat) ** 2, (x - xhat) ** 2
    return sq_e.mean(), sq_d.mean(), sq_e.std(ddof=1) / math.sqrt(n), sq_d.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("n, chunk", [(10_000, 2**16), (65_536, 8192), (50_001, 4096)])
def test_chunked_triple_matches_the_whole_array_codec(n, chunk):
    model = SourcePairModel(1.7, 0.3, 1.1)
    run = empirical_triple(model, 16, n, seed=5, chunk=chunk)
    got = (run.costs.d_e, run.costs.d_d, run.stderr_e, run.stderr_d)
    assert got == pytest.approx(_whole_array_triple(model, 16, n, 5, chunk), rel=1e-12, abs=0.0)


def test_empirical_triple_rejects_tiny_samples(golden_model):
    with pytest.raises(ValueError):
        empirical_triple(golden_model, 16, 5_000, seed=0)


def test_rd_sweep_csv_round_trips(golden_model, tmp_path):
    from stratcomm.strategic_rd import rd_sweep_csv

    path = tmp_path / "curve.csv"
    rates = np.array([0.0, 0.5, 1.0, 2.5])
    rd_sweep_csv(golden_model, rates, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "rate_bits,d_e,d_d,beta,sigma_s2"
    assert len(lines) == 1 + len(rates)
    for line, rate in zip(lines[1:], rates):
        cells = [float(cell) for cell in line.split(",")]
        point = rd_point(golden_model, float(rate))
        assert cells[0] == point.rate
        assert cells[1] == point.costs.d_e  # repr floats: exact round-trip
        assert cells[2] == point.costs.d_d
        assert cells[3] == point.beta
        assert cells[4] == point.sigma_s2
    assert lines[1].endswith(",inf")  # zero-rate row carries no test noise
