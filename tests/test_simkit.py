"""Seeded Monte Carlo kit: sampling contracts, estimators, searches."""

import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from stratcomm import simkit
from stratcomm.equilibrium import solve_noiseless
from stratcomm.gausslin import LinearScheme, SideInfoModel, SourcePairModel, scheme_costs
from stratcomm.simkit import (
    GridSpec,
    SimConfig,
    _quantile_bins,
    ace_max_correlation,
    deviation_search,
    empirical_decoder,
    estimate_costs,
    sample,
    verification_report,
)
from stratcomm.strategic_rd import empirical_triple

PAIR = SourcePairModel(1.3, 0.2, 0.8)
SI = SideInfoModel(1.0, 0.2, 1.0, 0.4, -0.3, 1.0)


def _substream_normals(seed: int, stream: int, n: int, chunk: int, cols: int) -> np.ndarray:
    """The substream contract spelled out: chunk i of stream s is jump s * 2**20 + i."""
    parts = []
    for i, start in enumerate(range(0, n, chunk)):
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(stream * 2**20 + i))
        parts.append(gen.standard_normal((min(chunk, n - start), cols)))
    return np.vstack(parts)


def _whole_array_costs(samples, scheme: LinearScheme, channel_noise_var: float, cfg: SimConfig):
    """Second route: every quantity as one n-row array, as the estimator once was."""
    n = samples.data.shape[0]
    x = samples.column("X")
    theta = samples.column("theta")
    w = samples.column("W") if "W" in samples.columns else np.zeros(n)
    u = scheme.enc_gain * (x + scheme.enc_theta_weight * theta + scheme.enc_si_weight * w)
    if scheme.enc_noise_var > 0.0:
        u = u + math.sqrt(scheme.enc_noise_var) * _substream_normals(cfg.seed, 1, n, cfg.chunk, 1)[:, 0]
    y = u
    if channel_noise_var > 0.0:
        y = y + math.sqrt(channel_noise_var) * _substream_normals(cfg.seed, 2, n, cfg.chunk, 1)[:, 0]
    xhat = scheme.dec_y_weight * y + scheme.dec_w_weight * w
    sq_e = (x + theta - xhat) ** 2
    sq_d = (x - xhat) ** 2
    ddof = 1 if n > 1 else 0
    return (
        sq_e.mean(),
        sq_d.mean(),
        sq_e.std(ddof=ddof) / math.sqrt(n),
        sq_d.std(ddof=ddof) / math.sqrt(n),
    )


def _binary_search_bins(values: np.ndarray, bins: int) -> np.ndarray:
    edges = np.quantile(values, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, values, side="right")


def _per_row_ace(x: np.ndarray, y: np.ndarray, bins: int = 64, iterations: int = 30) -> tuple:
    """Second route: alternating projections on n-row vectors, one bincount per step."""

    def standardize(v):
        sd = v.std()
        if sd <= 0.0:
            raise ValueError("degenerate function during alternating projections")
        return (v - v.mean()) / sd

    bx = _binary_search_bins(x, bins)
    by = _binary_search_bins(y, bins)
    cx = np.maximum(np.bincount(bx, minlength=bins), 1)
    cy = np.maximum(np.bincount(by, minlength=bins), 1)
    f_bins = np.bincount(bx, weights=x, minlength=bins) / cx
    f = standardize(f_bins[bx])
    history = []
    for _ in range(iterations):
        g_bins = np.bincount(by, weights=f, minlength=bins) / cy
        g = standardize(g_bins[by])
        f_bins = np.bincount(bx, weights=g, minlength=bins) / cx
        f = standardize(f_bins[bx])
        history.append(float(np.mean(f * g)))
    corr_x = abs(np.corrcoef(f, x)[0, 1])
    corr_y = abs(np.corrcoef(g, y)[0, 1])
    return history, f_bins, g_bins, corr_x, corr_y


def test_sample_is_deterministic(golden_model):
    cfg = SimConfig(seed=42, n=5000, chunk=512)
    t1 = sample(golden_model, cfg)
    t2 = sample(golden_model, cfg)
    assert t1.columns == ("X", "theta")
    assert np.array_equal(t1.data, t2.data)


def test_sample_prefix_stable_in_n(golden_model):
    # chunk substreams are independent, so asking for more rows must not
    # change the rows already drawn
    short = sample(golden_model, SimConfig(seed=7, n=1000, chunk=256))
    long = sample(golden_model, SimConfig(seed=7, n=3000, chunk=256))
    assert np.array_equal(long.data[:1000], short.data)


def test_sample_covariance_calibrated(si_correlated):
    n = 200_000
    table = sample(si_correlated, SimConfig(seed=3, n=n))
    emp = table.data.T @ table.data / n
    cov = si_correlated.covariance()
    # second-moment stderr is roughly sqrt((k_ii k_jj + k_ij^2)/n)
    for i in range(3):
        for j in range(3):
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
            assert abs(emp[i, j] - cov[i, j]) <= 5.0 * se


@pytest.mark.parametrize("model", [PAIR, SI], ids=["pair", "side-info"])
def test_sample_matches_the_substream_contract_bit_for_bit(model):
    # 1000 rows in chunks of 256: the last chunk is ragged
    cfg = SimConfig(seed=2024, n=1000, chunk=256)
    cov = model.covariance()
    want = _substream_normals(cfg.seed, 0, cfg.n, cfg.chunk, cov.shape[0]) @ np.linalg.cholesky(cov).T
    assert np.array_equal(sample(model, cfg).data, want)


def test_sample_validation(golden_model):
    with pytest.raises(ValueError):
        sample(golden_model, SimConfig(seed=0, n=0))
    with pytest.raises(ValueError):
        sample(golden_model, SimConfig(seed=0, n=10, chunk=0))


def test_estimate_costs_agrees_with_closed_form(golden_model):
    report = solve_noiseless(golden_model)
    scheme = LinearScheme(
        enc_gain=1.0,
        enc_theta_weight=report.alpha,
        dec_y_weight=report.kappa,
    )
    cfg = SimConfig(seed=11, n=400_000)
    table = sample(golden_model, cfg)
    est = estimate_costs(table, scheme, 0.0, cfg)
    assert abs(est.costs.d_e - report.costs.d_e) <= 4.0 * est.stderr_e
    assert abs(est.costs.d_d - report.costs.d_d) <= 4.0 * est.stderr_d


def test_estimate_costs_with_channel_noise_and_w(si_correlated):
    from stratcomm.gausslin import best_decoder

    enc = LinearScheme(enc_gain=0.8, enc_theta_weight=0.5)
    solved, exact = best_decoder(si_correlated, enc, channel_noise_var=0.7)
    cfg = SimConfig(seed=13, n=400_000)
    table = sample(si_correlated, cfg)
    est = estimate_costs(table, solved, 0.7, cfg)
    assert abs(est.costs.d_e - exact.d_e) <= 4.0 * est.stderr_e
    assert abs(est.costs.d_d - exact.d_d) <= 4.0 * est.stderr_d


@pytest.mark.parametrize("model", [PAIR, SI], ids=["pair", "side-info"])
@pytest.mark.parametrize("enc_noise_var", [0.0, 0.4])
@pytest.mark.parametrize("channel_noise_var", [0.0, 0.7])
@pytest.mark.parametrize("n, chunk", [(1, 64), (4096, 1024), (5000, 1024), (20_000, 2**16)])
def test_chunked_costs_match_the_whole_array_estimator(model, enc_noise_var, channel_noise_var, n, chunk):
    scheme = LinearScheme(
        enc_gain=0.9,
        enc_theta_weight=0.6,
        enc_si_weight=-0.3,
        enc_noise_var=enc_noise_var,
        dec_y_weight=0.8,
        dec_w_weight=0.25,
    )
    cfg = SimConfig(seed=31, n=n, chunk=chunk)
    table = sample(model, cfg)
    est = estimate_costs(table, scheme, channel_noise_var, cfg)
    got = (est.costs.d_e, est.costs.d_d, est.stderr_e, est.stderr_d)
    assert got == pytest.approx(_whole_array_costs(table, scheme, channel_noise_var, cfg), rel=1e-12, abs=0.0)
    if n == 1:
        assert est.stderr_e == est.stderr_d == 0.0


def test_deviation_search_finds_nothing_at_equilibrium(golden_model):
    report = solve_noiseless(golden_model)
    baseline = LinearScheme(enc_gain=1.0, enc_theta_weight=report.alpha)
    grid = GridSpec.around(report.alpha)
    out = deviation_search(golden_model, 0.0, baseline, grid)
    assert out.improvement <= 1e-9
    assert out.baseline_d_e == pytest.approx(report.costs.d_e, abs=1e-12)


def test_deviation_search_exposes_bad_baselines(golden_model):
    # a deliberately wrong weight leaves room the search must find
    baseline = LinearScheme(enc_gain=1.0, enc_theta_weight=-1.0)
    out = deviation_search(golden_model, 0.0, baseline, GridSpec.around(0.0))
    assert out.improvement > 0.1
    assert out.best_d_e < out.baseline_d_e


def test_grid_spec_around_shapes():
    grid = GridSpec.around(0.5, half_width=1.0, n_alpha=11, sigma_t2_max=2.0, n_sigma=5)
    assert grid.alphas.shape == (11,)
    assert grid.sigma_t2s.shape == (5,)
    assert grid.alphas[0] == pytest.approx(-0.5)
    assert grid.alphas[-1] == pytest.approx(1.5)
    assert grid.sigma_t2s[0] == 0.0


def test_ace_recovers_gaussian_correlation():
    rng = np.random.default_rng(101)
    n = 100_000
    x = rng.standard_normal(n)
    y = 0.7 * x + math.sqrt(1.0 - 0.49) * rng.standard_normal(n)
    report = ace_max_correlation(x, y)
    assert report.estimate == pytest.approx(0.7, abs=0.02)
    # for jointly Gaussian pairs the optimal transforms are linear
    assert report.identity_corr_x >= 0.99
    assert report.identity_corr_y >= 0.99


def test_ace_finds_nonlinear_dependence():
    rng = np.random.default_rng(103)
    x = rng.standard_normal(50_000)
    y = x * x  # zero linear correlation, perfect functional dependence
    report = ace_max_correlation(x, y)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.02
    assert report.estimate > 0.95
    assert report.identity_corr_x < 0.9  # transform is far from linear


def _gaussian_pair(n: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(101)
    x = rng.standard_normal(n)
    return x, 0.7 * x + math.sqrt(1.0 - 0.49) * rng.standard_normal(n)


def _square_law(n: int = 50_000) -> tuple[np.ndarray, np.ndarray]:
    x = np.random.default_rng(103).standard_normal(n)
    return x, x * x


@pytest.mark.parametrize("draw", [_gaussian_pair, _square_law], ids=["gaussian", "square-law"])
def test_table_ace_matches_per_row_projections(draw):
    x, y = draw()
    history, f_bins, g_bins, corr_x, corr_y = _per_row_ace(x, y)
    report = ace_max_correlation(x, y)
    assert report.history == pytest.approx(history, rel=1e-12, abs=0.0)
    assert report.estimate == report.history[-1]
    # bins near zero carry the per-row route's own summation error, so the
    # bin vectors are compared relative to their largest entry
    for got, want in ((report.f_bin_values, f_bins), (report.g_bin_values, g_bins)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    assert report.identity_corr_x == pytest.approx(corr_x, rel=1e-12)
    assert report.identity_corr_y == pytest.approx(corr_y, rel=1e-12)


def test_ace_rejects_a_constant_function():
    x = np.random.default_rng(5).standard_normal(20_000)
    for c in (0.0, 1e-3, 1.0, 3.7):
        with pytest.raises(ValueError, match="degenerate function"):
            ace_max_correlation(x, np.full(x.size, c))


@pytest.mark.parametrize("bins", [2, 8, 64, 1024])
def test_quantile_bins_match_a_binary_search_per_value(bins):
    rng = np.random.default_rng(9)
    for values in (
        rng.standard_normal(30_001),
        np.round(rng.standard_normal(20_000), 1),  # many ties
        rng.integers(0, 5, 20_000).astype(float),  # ties across edges
        np.r_[np.zeros(15_000), rng.standard_normal(5_000)],
        np.full(10_000, 2.5),
    ):
        got = _quantile_bins(values, bins)
        assert got.dtype == np.intp
        assert np.array_equal(got, _binary_search_bins(values, bins))


def test_ace_input_validation():
    x = np.zeros(100)
    with pytest.raises(ValueError):
        ace_max_correlation(x, x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x", "y"])
def test_ace_rejects_non_finite_samples(name, bad):
    x, y = _gaussian_pair(20_000)
    samples = {"x": x, "y": y}
    samples[name][1234] = bad
    with pytest.raises(ValueError, match=f"^{name}: must be finite"):
        ace_max_correlation(**samples)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["samples_y", "samples_x"])
def test_empirical_decoder_rejects_non_finite_samples(name, bad):
    x, y = _gaussian_pair(20_000)
    samples = {"samples_y": y, "samples_x": x}
    samples[name][77] = bad
    with pytest.raises(ValueError, match=f"^{name}: must be finite"):
        empirical_decoder(cfg=SimConfig(seed=0, n=20_000), linear_weight=0.7, **samples)


def test_empirical_decoder_tracks_conditional_mean(golden_model):
    report = solve_noiseless(golden_model)
    cfg = SimConfig(seed=17, n=200_000, bins=48)
    table = sample(golden_model, cfg)
    x = table.column("X")
    theta = table.column("theta")
    y = x + report.alpha * theta
    check = empirical_decoder(y, x, cfg, report.kappa)
    assert check.max_deviation < 0.03
    assert check.counts.sum() == cfg.n


def test_verification_report_is_plain_arithmetic():
    out = verification_report(1.05, 0.02, 1.0)
    assert out["z_score"] == pytest.approx(2.5)
    assert out["closed_form"] == 1.0


def test_sim_config_chunk_is_part_of_the_contract(golden_model):
    a = sample(golden_model, SimConfig(seed=5, n=2000, chunk=500))
    b = sample(golden_model, SimConfig(seed=5, n=2000, chunk=1000))
    assert not np.array_equal(a.data, b.data)


@pytest.mark.parametrize("n", [1, 2, 3, 10_000, 100_000, 2**17])
def test_quantile_edges_equal_numpy_quantile(n):
    rng = np.random.default_rng(n)
    one_off = np.full(n, 0.25)
    one_off[rng.integers(n)] = -3.0
    for values in (
        rng.standard_normal(n),
        rng.integers(0, 5, n).astype(float),  # ties
        np.round(rng.standard_normal(n), 1),
        one_off,  # all values equal except one
    ):
        ranked = np.sort(values)
        for bins in (2, 8, 64, 100, 1024):
            want = np.quantile(ranked, np.linspace(0.0, 1.0, bins + 1)[1:-1])
            assert np.array_equal(simkit._quantile_edges(ranked, bins), want)


# ---------------------------------------------------------------------------
# the chunk map: every worker count gives the one-worker run's bits


def _with_cpus(monkeypatch, cpus, call):
    with monkeypatch.context() as patch:
        patch.setattr(simkit, "_cpus", lambda: cpus)
        return call()


_NOISES = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (0.3, 0.7)]


@pytest.mark.parametrize("chunk", [1000, 2**16, 2**17])
@pytest.mark.parametrize("n", [10_000, 65_536, 65_537, 10**6])
@pytest.mark.parametrize("model", [PAIR, SI], ids=["pair", "side-info"])
def test_sample_and_estimate_match_a_one_worker_run(monkeypatch, model, n, chunk):
    cfg = SimConfig(seed=n + chunk, n=n, chunk=chunk)
    si = isinstance(model, SideInfoModel)
    schemes = [
        LinearScheme(
            enc_gain=1.1,
            enc_theta_weight=0.4,
            enc_si_weight=0.2 if si else 0.0,
            enc_noise_var=t,
            dec_y_weight=0.6,
            dec_w_weight=0.1 if si else 0.0,
        )
        for t, _ in _NOISES
    ]

    def run():
        table = sample(model, cfg)
        return table.data, [estimate_costs(table, s, nv, cfg) for s, (_, nv) in zip(schemes, _NOISES)]

    want_table, want = _with_cpus(monkeypatch, 1, run)
    for cpus in (2, 3):
        table, got = _with_cpus(monkeypatch, cpus, run)
        assert np.array_equal(table, want_table)
        assert got == want


@pytest.mark.parametrize("chunk", [1000, 2**16, 2**17])
@pytest.mark.parametrize("n", [10_000, 65_536, 65_537, 10**6])
def test_empirical_triple_matches_a_one_worker_run(monkeypatch, n, chunk):
    def run():
        return empirical_triple(PAIR, 16, n, seed=n + chunk, chunk=chunk)

    want = _with_cpus(monkeypatch, 1, run)
    for cpus in (2, 3):
        assert _with_cpus(monkeypatch, cpus, run) == want


@pytest.mark.parametrize("cpus, n", [(2, 2**16), (1, 3 * 2**16)], ids=["one-chunk", "one-cpu"])
def test_an_inline_run_creates_no_pool(monkeypatch, cpus, n):
    def no_pool():
        raise AssertionError("a pool was asked for")

    monkeypatch.setattr(simkit, "_cpus", lambda: cpus)
    monkeypatch.setattr(simkit, "_executor", no_pool)
    cfg = SimConfig(seed=3, n=n)
    estimate_costs(sample(PAIR, cfg), LinearScheme(enc_noise_var=0.2, dec_y_weight=0.5), 0.4, cfg)
    empirical_triple(PAIR, 8, n, seed=3)


@pytest.mark.parametrize("bad", [0, 5], ids=["caller's run", "worker's run"])
def test_an_exception_in_a_chunk_reaches_the_caller(monkeypatch, bad):
    monkeypatch.setattr(simkit, "_cpus", lambda: 2)
    done = []

    def fn(i, buffer):
        if i == bad:
            raise ZeroDivisionError(f"chunk {i}")
        time.sleep(0.02)
        done.append(i)
        return i

    with pytest.raises(ZeroDivisionError, match=f"chunk {bad}"):
        simkit._map_chunks(fn, 8, lambda: None)
    # the other run finished before the exception reached the caller
    other = range(4, 8) if bad == 0 else range(0, 4)
    assert set(other) <= set(done)


def test_workers_never_share_a_buffer(monkeypatch):
    # more workers than cores, with frequent thread switches: a buffer handed
    # to two threads at once would see another chunk's mark
    monkeypatch.setattr(simkit, "_cpus", lambda: 8)
    monkeypatch.setattr(simkit, "_pool", None)  # a pool of 7 threads, for this test alone
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def fn(i, buffer):
            buffer.fill(i)
            np.add(buffer, 0.0, out=buffer)  # releases the interpreter lock
            return bool((buffer == i).all())

        for _ in range(10):
            assert simkit._map_chunks(fn, 64, lambda: np.empty(100_000)) == [True] * 64
    finally:
        sys.setswitchinterval(interval)
        if simkit._pool is not None:
            simkit._pool.shutdown()


def test_importing_the_cli_loads_no_thread_pool():
    # a fresh interpreter: the CLI and one-chunk runs leave concurrent.futures unloaded
    code = (
        "import sys, stratcomm.cli\n"
        "from stratcomm import SourcePairModel, SimConfig, LinearScheme, empirical_triple, estimate_costs, sample\n"
        "cfg = SimConfig(seed=1, n=2**14)\n"
        "estimate_costs(sample(SourcePairModel(1.0, 0.0, 1.0), cfg), LinearScheme(dec_y_weight=0.5), 0.0, cfg)\n"
        "empirical_triple(SourcePairModel(1.0, 0.0, 1.0), 16, 10_000, seed=3)\n"
        "print('concurrent.futures' in sys.modules)\n"
    )
    src = str(Path(simkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "False\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_its_own_pool(monkeypatch):
    # the parent's pool threads do not exist in the child; were the pool
    # kept, the child's first threaded map would wait forever
    monkeypatch.setattr(simkit, "_cpus", lambda: 2)
    assert simkit._map_chunks(lambda i, _: i, 4, lambda: None) == [0, 1, 2, 3]
    pid = os.fork()
    if pid == 0:  # the child: exit 0 only if a threaded map completes
        signal.alarm(30)
        ok = False
        try:
            ok = simkit._map_chunks(lambda i, _: i, 4, lambda: None) == [0, 1, 2, 3]
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
