"""Seeded Monte Carlo and model-free oracles used to falsify closed forms.

Sampling is counter-based: the master seed keys a Philox stream and every
chunk of every logical noise source jumps to its own disjoint substream, so
results are bit-identical no matter how chunks would be scheduled.  Nothing
here feeds back into the solvers; this module exists to check them.

The hot loops build no n-row temporary.  ``sample`` fills one preallocated
table chunk by chunk; ``estimate_costs`` walks the table in the same chunks,
drawing each chunk's noises into one reused buffer and merging per-chunk
moments of the squared errors; ``ace_max_correlation`` bins the samples
once and iterates on the bins x bins table of joint counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equilibrium import _linear_costs, _signal_ratio
from .gausslin import CostPair, LinearScheme, Model, SourcePairModel, _check_encoder, require_valid

# Substream layout: stream s, chunk i lives at jump s * _STREAM_STRIDE + i.
# Each jump advances 2**128 Philox states, so streams can never overlap.
_STREAM_STRIDE = 2**20
_STREAM_SOURCE = 0
_STREAM_ENC_NOISE = 1
_STREAM_CHANNEL_NOISE = 2


@dataclass(frozen=True)
class SimConfig:
    """Reproducibility contract for one simulation.

    ``chunk`` fixes the substream granularity; changing it changes the
    sample values (but not their law), so it is part of the contract.
    """

    seed: int
    n: int
    chunk: int = 2**16
    bins: int = 64


@dataclass(frozen=True)
class SampleTable:
    """Columns of jointly sampled source variables."""

    columns: tuple[str, ...]
    data: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


@dataclass(frozen=True)
class CostEstimate:
    costs: CostPair
    stderr_e: float
    stderr_d: float


@dataclass(frozen=True)
class DecoderCheck:
    """Quantile-binned conditional means versus a linear prediction."""

    y_bin_means: np.ndarray
    x_bin_means: np.ndarray
    counts: np.ndarray
    max_deviation: float


@dataclass(frozen=True)
class GridSpec:
    """Deviation grid over the family U = c*(X + alpha*theta) + T.

    With ``power`` unset the encoder gain is fixed at c = 1 (noiseless
    deviations); with ``power`` set, c is chosen at every grid point so the
    transmit power c^2*Var(X + alpha*theta) + sigma_t2 meets it exactly, and
    grid points whose sigma_t2 exceeds the power budget are skipped.
    """

    alphas: np.ndarray
    sigma_t2s: np.ndarray
    power: float | None = None

    @staticmethod
    def around(
        alpha_center: float,
        half_width: float = 2.0,
        n_alpha: int = 201,
        sigma_t2_max: float = 2.0,
        n_sigma: int = 51,
        power: float | None = None,
    ) -> "GridSpec":
        return GridSpec(
            alphas=np.linspace(alpha_center - half_width, alpha_center + half_width, n_alpha),
            sigma_t2s=np.linspace(0.0, sigma_t2_max, n_sigma),
            power=power,
        )


@dataclass(frozen=True)
class DeviationReport:
    baseline_d_e: float
    best_d_e: float
    best_alpha: float
    best_sigma_t2: float
    improvement: float


@dataclass(frozen=True)
class AceReport:
    """Alternating-conditional-expectation estimate of maximal correlation."""

    estimate: float
    history: tuple[float, ...]
    f_bin_values: np.ndarray
    g_bin_values: np.ndarray
    identity_corr_x: float
    identity_corr_y: float


def _substream(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    bit_gen = np.random.Philox(key=seed).jumped(stream * _STREAM_STRIDE + chunk_index)
    return np.random.Generator(bit_gen)


class _ErrorMoments:
    """Running mean and centered second moment of two squared-error streams.

    Each ``add`` takes one (2, m) block of errors (encoder's, decoder's),
    squares it in place, reduces it, and merges it into the totals by the
    pairwise rule of Chan, Golub & LeVeque, so no n-row array is needed.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = np.zeros(2)
        self.m2 = np.zeros(2)

    def add(self, errors: np.ndarray) -> None:
        m = errors.shape[1]
        np.square(errors, out=errors)
        mean = errors.sum(axis=1) / m
        errors -= mean[:, None]
        np.square(errors, out=errors)
        total = self.count + m
        delta = mean - self.mean
        self.mean += delta * (m / total)
        self.m2 += errors.sum(axis=1) + delta * delta * (self.count * m / total)
        self.count = total

    def result(self) -> tuple[CostPair, float, float]:
        """Mean costs and their standard errors (ddof 1, or 0 for one row)."""
        n = self.count
        stderr_e, stderr_d = np.sqrt(self.m2 / max(n - 1, 1)) / np.sqrt(n)
        return CostPair(d_e=float(self.mean[0]), d_d=float(self.mean[1])), float(stderr_e), float(stderr_d)


def sample(model: Model, cfg: SimConfig) -> SampleTable:
    """Draw ``cfg.n`` rows of the model's joint law, chunk-deterministically.

    Rows ``[i*chunk, (i+1)*chunk)`` are standard normals from substream i of
    the source stream, mapped through the Cholesky factor of the model's
    covariance.  The same (model, cfg) always yields the same table, and
    the content of chunk i does not depend on how many chunks follow it.
    """
    require_valid(model)
    if cfg.n < 1:
        raise ValueError("n: need at least one sample")
    if cfg.chunk < 1:
        raise ValueError("chunk: must be positive")
    cov = model.covariance()
    chol = np.linalg.cholesky(cov)
    z = np.empty((cfg.n, cov.shape[0]))
    for i, start in enumerate(range(0, cfg.n, cfg.chunk)):
        _substream(cfg.seed, _STREAM_SOURCE, i).standard_normal(out=z[start : start + cfg.chunk])
    columns = ("X", "theta") if isinstance(model, SourcePairModel) else ("X", "theta", "W")
    return SampleTable(columns=columns, data=z @ chol.T)


def estimate_costs(
    samples: SampleTable,
    scheme: LinearScheme,
    channel_noise_var: float,
    cfg: SimConfig,
) -> CostEstimate:
    """Monte Carlo costs of a scheme on a sampled table.

    Fresh encoder noise T and channel noise N are drawn per row: row r of
    chunk i takes its T from substream i of the encoder-noise stream and
    its N from substream i of the channel-noise stream, both disjoint from
    the source stream, so repeated calls are reproducible and independent
    of the source draw.  A noise with zero variance is not drawn.

    The table is walked one chunk at a time.  Each error is linear in the
    row and the noises, so the encoder and decoder weights are folded into
    one coefficient vector per cost and a chunk's two errors come from one
    small matrix product; their squares are merged across chunks by
    ``_ErrorMoments``.
    """
    _check_encoder(scheme, channel_noise_var)
    data = samples.data
    n, k = data.shape
    # Xhat = ky*g*(X + a*theta + s*W) + kw*W + ky*sqrt(t)*T + ky*sqrt(nv)*N
    ky, g = scheme.dec_y_weight, scheme.enc_gain
    xhat = [ky * g, ky * g * scheme.enc_theta_weight, ky * g * scheme.enc_si_weight + scheme.dec_w_weight]
    noises = [
        (stream, ky * math.sqrt(var))
        for stream, var in ((_STREAM_ENC_NOISE, scheme.enc_noise_var), (_STREAM_CHANNEL_NOISE, channel_noise_var))
        if var > 0.0
    ]
    coef = -np.array([xhat[:k] + [w for _, w in noises]] * 2)
    coef[:, 0] += 1.0  # both errors are measured from X ...
    coef[0, 1] += 1.0  # ... and the encoder's from X + theta
    block = np.empty((coef.shape[1], min(cfg.chunk, n)))
    errors = np.empty((2, block.shape[1]))
    moments = _ErrorMoments()
    for i, start in enumerate(range(0, n, cfg.chunk)):
        rows = data[start : start + cfg.chunk]
        m = rows.shape[0]
        block[:k, :m] = rows.T
        for j, (stream, _) in enumerate(noises):
            _substream(cfg.seed, stream, i).standard_normal(out=block[k + j, :m])
        moments.add(np.matmul(coef, block[:, :m], out=errors[:, :m]))
    return CostEstimate(*moments.result())


def _sample_vectors(**named: np.ndarray) -> tuple[np.ndarray, ...]:
    """Equal-length finite float vectors, or a ValueError naming the bad one."""
    arrays = tuple(np.asarray(v, dtype=float) for v in named.values())
    if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
        raise ValueError(f"{' and '.join(named)} must be equal-length vectors")
    for name, a in zip(named, arrays):
        if not np.isfinite(a).all():
            raise ValueError(f"{name}: must be finite")
    return arrays


def _quantile_bins(values: np.ndarray, bins: int) -> np.ndarray:
    """Bin of each value: the number of interior quantile edges at or below it.

    A value of rank r passes edge k exactly when at most r values lie below
    the edge, so the bins are read off the sorted order instead of by a
    binary search per value.
    """
    order = np.argsort(values)
    ranked = values[order]
    edges = np.quantile(ranked, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    sizes = np.diff(np.searchsorted(ranked, edges), prepend=0, append=values.size)
    idx = np.empty(values.size, dtype=np.intp)
    idx[order] = np.repeat(np.arange(bins), sizes)
    return idx


def empirical_decoder(
    samples_y: np.ndarray,
    samples_x: np.ndarray,
    cfg: SimConfig,
    linear_weight: float,
) -> DecoderCheck:
    """Bin Y by quantiles and compare E{X | bin} to a linear prediction.

    The deviation is measured at the bin's mean Y, which is where a linear
    decoder would sit; a large ``max_deviation`` falsifies the claim that
    the conditional mean is linear.
    """
    if cfg.bins < 2:
        raise ValueError("bins: need at least two bins")
    y, x = _sample_vectors(samples_y=samples_y, samples_x=samples_x)
    idx = _quantile_bins(y, cfg.bins)
    counts = np.bincount(idx, minlength=cfg.bins).astype(float)
    safe = np.maximum(counts, 1.0)
    y_means = np.bincount(idx, weights=y, minlength=cfg.bins) / safe
    x_means = np.bincount(idx, weights=x, minlength=cfg.bins) / safe
    occupied = counts > 0
    deviation = np.abs(x_means - linear_weight * y_means)
    max_dev = float(deviation[occupied].max()) if occupied.any() else 0.0
    return DecoderCheck(
        y_bin_means=y_means,
        x_bin_means=x_means,
        counts=counts,
        max_deviation=max_dev,
    )


def deviation_search(
    model: SourcePairModel,
    channel_noise_var: float,
    baseline: LinearScheme,
    grid: GridSpec,
) -> DeviationReport:
    """Search the deviation grid for an encoder that beats the baseline.

    Every grid point is evaluated in closed form under best-response
    decoding; no sampling, and no use of the equilibrium weight rule, so
    the search falsifies the weight independently.  ``improvement`` > 0
    means the baseline was beaten, i.e. it was not an equilibrium.
    """
    require_valid(model)
    _check_encoder(baseline, channel_noise_var)
    s2, rho, r, n = model.sigma_x2, model.rho, model.r, channel_noise_var / model.sigma_x2
    t = baseline.enc_noise_var / s2
    base = float(s2 * _linear_costs(rho, r, baseline.enc_theta_weight, baseline.enc_gain**2, t, n)[1])
    al = np.asarray(grid.alphas, float)[:, None]
    st = np.asarray(grid.sigma_t2s, float)[None, :]
    gain2 = 1.0
    if grid.power is not None:
        budget = grid.power - st
        gain2 = np.where(budget >= 0.0, budget / (s2 * _signal_ratio(rho, r, al)), np.nan)
    d_e = _linear_costs(rho, r, al, gain2, st / s2, n)[1]
    if grid.power is not None:  # a point whose noise alone exceeds the budget is not in the family
        d_e = np.where(np.isnan(gain2), np.inf, d_e)
    i, j = np.unravel_index(int(np.argmin(d_e)), d_e.shape)
    best = float(s2 * d_e[i, j])
    return DeviationReport(
        baseline_d_e=base,
        best_d_e=best,
        best_alpha=float(grid.alphas[i]),
        best_sigma_t2=float(grid.sigma_t2s[j]),
        improvement=base - best,
    )


def _bin_moments(values: np.ndarray, counts: np.ndarray, n: int) -> tuple[float, float]:
    """Mean and standard deviation over the rows of the per-row function values[bin]."""
    mean = counts @ values / n
    centered = values - mean
    return mean, math.sqrt(counts @ (centered * centered) / n)


def _bin_standardize(values: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    occupied = values[counts > 0]
    if occupied.min() == occupied.max():
        raise ValueError("degenerate function during alternating projections")
    mean, sd = _bin_moments(values, counts, n)
    return (values - mean) / sd


def _identity_corr(values: np.ndarray, counts: np.ndarray, sums: np.ndarray, samples: np.ndarray) -> float:
    """|corr(values[bin], samples)| over the rows, from per-bin sums of the samples."""
    n = samples.size
    mean, sd = _bin_moments(values, counts, n)
    return abs(float((values @ sums / n - mean * samples.mean()) / (sd * samples.std())))


def ace_max_correlation(
    x: np.ndarray,
    y: np.ndarray,
    bins: int = 64,
    iterations: int = 30,
) -> AceReport:
    """Maximal correlation sup corr(f(X), g(Y)) by alternating projections.

    X and Y are discretized into quantile bins, once; the rows then enter
    only through the bins x bins table of joint counts.  A function of the
    bin is a vector, the conditional expectation of one side given the
    other is a product with the table divided by the bin counts, and each
    sweep standardizes with count weights (Breiman & Friedman's ACE).  The
    procedure is a power iteration, so the per-iteration correlations are
    nondecreasing up to sampling noise.  ``identity_corr_x`` reports
    |corr(f(X), X)|, taken from the per-bin sums of X; it is near 1
    exactly when the optimal transform is linear.
    """
    if not 8 <= bins <= 1024:
        raise ValueError("bins: must lie in [8, 1024]")
    if iterations < 10:
        raise ValueError("iterations: need at least 10")
    x, y = _sample_vectors(x=x, y=y)
    n = x.size
    if n < 10_000:
        raise ValueError("n: need at least 10000 samples")

    bx = _quantile_bins(x, bins)
    by = _quantile_bins(y, bins)
    table = np.bincount(bx * bins + by, minlength=bins * bins).reshape(bins, bins).astype(float)
    nx, ny = table.sum(axis=1), table.sum(axis=0)
    cx, cy = np.maximum(nx, 1.0), np.maximum(ny, 1.0)
    sum_x = np.bincount(bx, weights=x, minlength=bins)

    f_bins = sum_x / cx
    f = _bin_standardize(f_bins, nx, n)
    history = []
    g = g_bins = np.zeros(bins)
    for _ in range(iterations):
        g_bins = (f @ table) / cy
        g = _bin_standardize(g_bins, ny, n)
        table_g = table @ g
        f_bins = table_g / cx
        f = _bin_standardize(f_bins, nx, n)
        history.append(float(f @ table_g / n))

    return AceReport(
        estimate=history[-1],
        history=tuple(history),
        f_bin_values=f_bins,
        g_bin_values=g_bins,
        identity_corr_x=_identity_corr(f, nx, sum_x, x),
        identity_corr_y=_identity_corr(g, ny, np.bincount(by, weights=y, minlength=bins), y),
    )


def verification_report(estimate: float, stderr: float, closed_form: float) -> dict:
    """JSON-ready comparison of a Monte Carlo estimate with a closed form."""
    if stderr > 0.0:
        z = (estimate - closed_form) / stderr
    else:
        z = 0.0 if estimate == closed_form else float("inf")
    return {
        "estimate": float(estimate),
        "stderr": float(stderr),
        "closed_form": float(closed_form),
        "z_score": float(z),
    }
