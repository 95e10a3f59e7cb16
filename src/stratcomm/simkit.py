"""Seeded Monte Carlo and model-free oracles used to falsify closed forms.

Sampling is counter-based: the master seed keys a Philox stream and every
chunk of every logical noise source jumps to its own disjoint substream, so
results are bit-identical no matter how chunks would be scheduled.  Nothing
here feeds back into the solvers; this module exists to check them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equilibrium import _linear_costs, _signal_ratio
from .gausslin import CostPair, LinearScheme, Model, SourcePairModel, _require_finite, require_valid

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

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.data:
                writer.writerow([repr(float(v)) for v in row])


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


def _chunk_sizes(n: int, chunk: int) -> list[int]:
    sizes = []
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        sizes.append(take)
        remaining -= take
    return sizes


def _chunked_normals(seed: int, stream: int, n: int, chunk: int, cols: int) -> np.ndarray:
    parts = []
    for i, size in enumerate(_chunk_sizes(n, chunk)):
        parts.append(_substream(seed, stream, i).standard_normal((size, cols)))
    return np.vstack(parts) if parts else np.zeros((0, cols))


def sample(model: Model, cfg: SimConfig) -> SampleTable:
    """Draw ``cfg.n`` rows of the model's joint law, chunk-deterministically.

    The same (model, cfg) always yields the same table; chunks are
    independent substreams so the content of chunk i does not depend on how
    many chunks follow it.
    """
    require_valid(model)
    if cfg.n < 1:
        raise ValueError("n: need at least one sample")
    if cfg.chunk < 1:
        raise ValueError("chunk: must be positive")
    cov = model.covariance()
    chol = np.linalg.cholesky(cov)
    z = _chunked_normals(cfg.seed, _STREAM_SOURCE, cfg.n, cfg.chunk, cov.shape[0])
    data = z @ chol.T
    columns = ("X", "theta") if isinstance(model, SourcePairModel) else ("X", "theta", "W")
    return SampleTable(columns=columns, data=data)


def estimate_costs(
    samples: SampleTable,
    scheme: LinearScheme,
    channel_noise_var: float,
    cfg: SimConfig,
) -> CostEstimate:
    """Monte Carlo costs of a scheme on a sampled table.

    Fresh encoder noise T and channel noise N are drawn per row from
    substreams of ``cfg.seed`` that are disjoint from the source stream, so
    repeated calls are reproducible and independent of the source draw.
    """
    if channel_noise_var < 0.0 or scheme.enc_noise_var < 0.0:
        raise ValueError("noise variances must be nonnegative")
    n = samples.data.shape[0]
    x = samples.column("X")
    theta = samples.column("theta")
    w = samples.column("W") if "W" in samples.columns else np.zeros(n)

    u = scheme.enc_gain * (x + scheme.enc_theta_weight * theta + scheme.enc_si_weight * w)
    if scheme.enc_noise_var > 0.0:
        t = _chunked_normals(cfg.seed, _STREAM_ENC_NOISE, n, cfg.chunk, 1)[:, 0]
        u = u + np.sqrt(scheme.enc_noise_var) * t
    y = u
    if channel_noise_var > 0.0:
        nse = _chunked_normals(cfg.seed, _STREAM_CHANNEL_NOISE, n, cfg.chunk, 1)[:, 0]
        y = y + np.sqrt(channel_noise_var) * nse
    xhat = scheme.dec_y_weight * y + scheme.dec_w_weight * w

    sq_e = (x + theta - xhat) ** 2
    sq_d = (x - xhat) ** 2
    ddof = 1 if n > 1 else 0
    return CostEstimate(
        costs=CostPair(d_e=float(sq_e.mean()), d_d=float(sq_d.mean())),
        stderr_e=float(sq_e.std(ddof=ddof) / np.sqrt(n)),
        stderr_d=float(sq_d.std(ddof=ddof) / np.sqrt(n)),
    )


def _quantile_bins(values: np.ndarray, bins: int) -> np.ndarray:
    edges = np.quantile(values, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    return np.searchsorted(edges, values, side="right")


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
    y = np.asarray(samples_y, dtype=float)
    x = np.asarray(samples_x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("samples_y and samples_x must be equal-length vectors")
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
    _require_finite(channel_noise_var=channel_noise_var, **vars(baseline))
    s2, rho, r, n = model.sigma_x2, model.rho, model.r, channel_noise_var / model.sigma_x2
    t = baseline.enc_noise_var / s2
    base = float(s2 * _linear_costs(rho, r, baseline.enc_theta_weight, baseline.enc_gain**2, t, n)[1])
    al = np.asarray(grid.alphas, float)[:, None]
    st = np.asarray(grid.sigma_t2s, float)[None, :]
    gain2 = 1.0
    if grid.power is not None:  # a point whose noise alone exceeds the budget is not in the family
        budget = grid.power - st
        gain2 = np.where(budget >= 0.0, budget / (s2 * _signal_ratio(rho, r, al)), np.nan)
    d_e = np.where(np.isnan(gain2), np.inf, _linear_costs(rho, r, al, gain2, st / s2, n)[1])
    i, j = np.unravel_index(int(np.argmin(d_e)), d_e.shape)
    best = float(s2 * d_e[i, j])
    return DeviationReport(
        baseline_d_e=base,
        best_d_e=best,
        best_alpha=float(grid.alphas[i]),
        best_sigma_t2=float(grid.sigma_t2s[j]),
        improvement=base - best,
    )


def _bin_standardize(values_per_row: np.ndarray) -> np.ndarray:
    mean = values_per_row.mean()
    sd = values_per_row.std()
    if sd <= 0.0:
        raise ValueError("degenerate function during alternating projections")
    return (values_per_row - mean) / sd


def ace_max_correlation(
    x: np.ndarray,
    y: np.ndarray,
    bins: int = 64,
    iterations: int = 30,
) -> AceReport:
    """Maximal correlation sup corr(f(X), g(Y)) by alternating projections.

    X and Y are discretized into quantile bins; the conditional-expectation
    operator is then a stochastic matrix and the procedure is a power
    iteration, so the per-iteration correlations are nondecreasing up to
    sampling noise.  ``identity_corr_x`` reports |corr(f(X), X)|, which is
    near 1 exactly when the optimal transform is linear.
    """
    if not 8 <= bins <= 1024:
        raise ValueError("bins: must lie in [8, 1024]")
    if iterations < 10:
        raise ValueError("iterations: need at least 10")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    n = x.size
    if n < 10_000:
        raise ValueError("n: need at least 10000 samples")

    bx = _quantile_bins(x, bins)
    by = _quantile_bins(y, bins)
    cx = np.maximum(np.bincount(bx, minlength=bins), 1)
    cy = np.maximum(np.bincount(by, minlength=bins), 1)

    f_bins = np.bincount(bx, weights=x, minlength=bins) / cx
    f = _bin_standardize(f_bins[bx])
    history = []
    g = np.zeros(n)
    g_bins = np.zeros(bins)
    for _ in range(iterations):
        g_bins = np.bincount(by, weights=f, minlength=bins) / cy
        g = _bin_standardize(g_bins[by])
        f_bins = np.bincount(bx, weights=g, minlength=bins) / cx
        f = _bin_standardize(f_bins[bx])
        history.append(float(np.mean(f * g)))

    def _corr(a: np.ndarray, b: np.ndarray) -> float:
        return float(abs(np.corrcoef(a, b)[0, 1]))

    return AceReport(
        estimate=history[-1],
        history=tuple(history),
        f_bin_values=f_bins,
        g_bin_values=g_bins,
        identity_corr_x=_corr(f, x),
        identity_corr_y=_corr(g, y),
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
