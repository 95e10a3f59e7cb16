"""Rate-limited disclosure: the strategic rate-distortion curve.

The transmitter commits to a forward test channel Y = X + beta*theta + S
with S ~ N(0, sigma_s2) independent of the source; the receiver sees Y at
mutual-information rate R and best-responds with the conditional mean.  For
a fixed rate the optimal theta-weight beta is the same root that solves the
unconstrained game, so the whole curve is swept by scaling sigma_s2 alone.
Rates are in bits throughout; use :func:`bits_to_nats` / :func:`nats_to_bits`
at the boundary if another unit is needed.

The module also carries two model-free evaluators used to validate the
Gaussian closed forms: exact mutual-information/cost accounting on finite
instances, and optimal scalar quantizers (the Lloyd fixed point) whose simulated
performance must land between neighboring points of the curve.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass

import numpy as np

from ._csvio import write_rows
from .equilibrium import _linear_costs, _signal_ratio, best_alpha
from .errors import InvalidDistribution, ZeroRate
from .gausslin import CostPair, SourcePairModel, _require_finite, require_valid
from . import simkit

_LN2 = math.log(2.0)
_SQRTH = math.sqrt(0.5)  # scipy's ndtr scales its erfc argument by this


def bits_to_nats(rate_bits: float) -> float:
    _require_finite(rate_bits=rate_bits)
    return rate_bits * _LN2


def nats_to_bits(rate_nats: float) -> float:
    _require_finite(rate_nats=rate_nats)
    return rate_nats / _LN2


@dataclass(frozen=True)
class RdPoint:
    """One point of the strategic rate-distortion curve.

    ``sigma_s2`` is +inf at rate 0 (no information crosses the channel);
    recomputing the rate from (beta, sigma_s2) reproduces ``rate``.
    """

    rate: float
    costs: CostPair
    beta: float
    sigma_s2: float


def _noise_per_signal(rate):
    """1 / (2^(2R) - 1), the test-channel noise per unit signal variance.

    As 2^(-2R) / |expm1(-2R ln 2)| it neither overflows at high rates nor
    cancels at tiny ones; below about 4e-309 bits it leaves the float range.
    Elementwise over nonnegative rates, a float or an array; rate 0 gives +inf.
    """
    x = -2.0 * _LN2 * rate
    if isinstance(x, np.ndarray):
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.exp(x) / np.abs(np.expm1(x))
        tiny = rate[np.isinf(ratio) & (x < 0.0)]
    else:  # numpy's exp, not math's, to match an array's bits; float 1/0 raises
        ratio = float(np.exp(x)) / abs(float(np.expm1(x))) if x else math.inf
        tiny = [rate] if math.isinf(ratio) and x < 0.0 else []
    if len(tiny):
        raise OverflowError(f"rate {float(tiny[0])!r} is too small for a finite test-channel noise")
    return ratio


def rd_test_channel(model: SourcePairModel, rate: float) -> tuple[float, float]:
    """Optimal test channel (beta, sigma_s2) at a strictly positive rate.

    beta does not depend on the rate; sigma_s2 is set so the mutual
    information I(X, theta; Y) equals ``rate`` bits exactly.
    """
    if not rate > 0.0:
        raise ZeroRate(f"rate must be positive, got {rate!r}")
    point = rd_point(model, rate)
    return point.beta, point.sigma_s2


def rate_of_test_channel(model: SourcePairModel, beta: float, sigma_s2: float) -> float:
    """Mutual information I(X, theta; Y) in bits for a given test channel."""
    require_valid(model)
    if math.isnan(sigma_s2):
        raise ValueError("sigma_s2: must not be NaN (use +inf for the zero-rate point)")
    if sigma_s2 <= 0.0:
        raise ZeroRate("sigma_s2 must be positive (use +inf for the zero-rate point)")
    b = _signal_ratio(model.rho, model.r, beta)
    return 0.5 * math.log2(1.0 + model.sigma_x2 * b / sigma_s2)


def rd_point(model: SourcePairModel, rate: float) -> RdPoint:
    """Costs on the strategic rate-distortion curve at ``rate`` bits.

    Rate 0 returns the no-information point exactly.  For positive rates
    the costs are the closed-form best response to the test channel.
    """
    beta, rate = best_alpha(model), float(rate)
    if not rate >= 0.0:
        raise ZeroRate(f"rate must be nonnegative, got {rate!r}")
    d_e, d_d, sigma_s2 = _test_channel_costs(model, beta, rate)
    return RdPoint(rate=rate, costs=CostPair(d_e=d_e, d_d=d_d), beta=beta, sigma_s2=sigma_s2)


def rd_sweep(model: SourcePairModel, rates: np.ndarray) -> list[RdPoint]:
    """Evaluate the curve on a rate grid, preserving grid order."""
    beta = best_alpha(model)
    rates = np.asarray(rates, float)
    bad = rates[~(rates >= 0.0)]
    if bad.size:
        raise ZeroRate(f"rate must be nonnegative, got {float(bad[0])!r}")
    return [
        RdPoint(rate=float(q), costs=CostPair(d_e=float(e), d_d=float(d)), beta=beta, sigma_s2=float(v))
        for q, e, d, v in zip(rates, *_test_channel_costs(model, beta, rates))
    ]


def _test_channel_costs(model: SourcePairModel, beta: float, rates):
    """(d_e, d_d, sigma_s2) of the test channel with weight beta, per rate (a float or an array)."""
    t = _signal_ratio(model.rho, model.r, beta) * _noise_per_signal(rates)
    _, d_e, d_d = _linear_costs(model.rho, model.r, beta, 1.0, t, 0.0)
    return model.sigma_x2 * d_e, model.sigma_x2 * d_d, model.sigma_x2 * t


def rd_sweep_csv(model: SourcePairModel, rates: np.ndarray, path: str) -> None:
    """Write the curve as CSV: rate_bits, d_e, d_d, beta, sigma_s2.

    Floats are repr-exact so re-reading a row reproduces it; a zero-rate
    row carries sigma_s2 = inf.
    """
    rows = [
        (p.rate, p.costs.d_e, p.costs.d_d, p.beta, p.sigma_s2)
        for p in rd_sweep(model, rates)
    ]
    write_rows(path, ("rate_bits", "d_e", "d_d", "beta", "sigma_s2"), rows)


# ---------------------------------------------------------------------------
# Finite instances: exact information/cost accounting with no Gaussian
# assumptions, used as an independent check of the closed forms above.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteInstance:
    """A finite source pair with a finite noisy observation channel.

    ``joint_pmf[i, j]`` is P(X = x_i, theta = t_j); ``channel[i, j, k]`` is
    P(Y = y_k | X = x_i, theta = t_j); ``recon_grid`` lists the candidate
    reconstruction values.
    """

    joint_pmf: np.ndarray
    channel: np.ndarray
    recon_grid: np.ndarray


def validate_instance(inst: DiscreteInstance) -> None:
    pmf = np.asarray(inst.joint_pmf, float)
    channel = np.asarray(inst.channel, float)
    if pmf.ndim != 2:
        raise InvalidDistribution("joint_pmf: must be a 2-D table over (X, theta)")
    if channel.ndim != 3 or channel.shape[:2] != pmf.shape:
        raise InvalidDistribution("channel: must have shape (n_x, n_theta, n_y)")
    if (pmf < 0).any():
        raise InvalidDistribution("joint_pmf: negative mass")
    if abs(pmf.sum() - 1.0) > 1e-12:
        raise InvalidDistribution(f"joint_pmf: sums to {pmf.sum()!r}, not 1")
    if (channel < 0).any():
        raise InvalidDistribution("channel: negative probability")
    rows = channel.sum(axis=2)
    if np.abs(rows - 1.0).max() > 1e-12:
        raise InvalidDistribution("channel: each conditional row must sum to 1")
    if np.asarray(inst.recon_grid).ndim != 1 or len(inst.recon_grid) == 0:
        raise InvalidDistribution("recon_grid: must be a nonempty vector")


def quadratic_tables(
    x_grid: np.ndarray, theta_grid: np.ndarray, recon_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic distortion tables for a finite instance.

    Returns (d_e, d_d) with d_e[i, j, k] = (x_i + t_j - c_k)^2 and
    d_d[i, k] = (x_i - c_k)^2.
    """
    x = np.asarray(x_grid, float)
    t = np.asarray(theta_grid, float)
    c = np.asarray(recon_grid, float)
    d_e = (x[:, None, None] + t[None, :, None] - c[None, None, :]) ** 2
    d_d = (x[:, None] - c[None, :]) ** 2
    return d_e, d_d


def discrete_triple(
    inst: DiscreteInstance,
    decoder: np.ndarray,
    d_e: np.ndarray,
    d_d: np.ndarray,
) -> tuple[float, CostPair]:
    """Exact (rate, costs) of a decoder on a finite instance.

    The rate is the mutual information I(X, theta; Y) in bits with the
    convention 0*log 0 = 0; the costs are exact expectations of the given
    distortion tables under the decoder map y -> recon index.
    """
    validate_instance(inst)
    pmf = np.asarray(inst.joint_pmf, float)
    channel = np.asarray(inst.channel, float)
    n_y = channel.shape[2]
    decoder = np.asarray(decoder)
    if decoder.shape != (n_y,) or not np.issubdtype(decoder.dtype, np.integer):
        raise ValueError("decoder: must map every Y index to a recon index")
    if decoder.min() < 0 or decoder.max() >= len(inst.recon_grid):
        raise ValueError("decoder: reconstruction index out of range")

    p_xty = pmf[:, :, None] * channel
    joint = p_xty.reshape(-1, n_y)
    p_source = joint.sum(axis=1)
    p_y = joint.sum(axis=0)
    mask = joint > 0.0
    denom = np.outer(p_source, p_y)
    mi = float(np.sum(joint[mask] * np.log2(joint[mask] / denom[mask])))

    cost_e = float(np.sum(p_xty * np.asarray(d_e, float)[:, :, decoder]))
    cost_d = float(np.sum(p_xty.sum(axis=1) * np.asarray(d_d, float)[:, decoder]))
    return mi, CostPair(d_e=cost_e, d_d=cost_d)


def discrete_best_response(inst: DiscreteInstance, d_d: np.ndarray) -> np.ndarray:
    """Receiver's exact best response on a finite instance.

    For every observable y the reconstruction minimizing the posterior
    expected d_d is chosen; ties resolve to the smallest reconstruction
    index, and zero-probability observations get the prior-optimal
    reconstruction.
    """
    validate_instance(inst)
    pmf = np.asarray(inst.joint_pmf, float)
    channel = np.asarray(inst.channel, float)
    d_d = np.asarray(d_d, float)
    p_xy = np.einsum("ij,ijk->ik", pmf, channel)
    cost = d_d.T @ p_xy  # (n_recon, n_y)
    decoder = np.argmin(cost, axis=0)
    p_y = p_xy.sum(axis=0)
    if (p_y == 0.0).any():
        prior_cost = d_d.T @ pmf.sum(axis=1)
        decoder = np.where(p_y == 0.0, int(np.argmin(prior_cost)), decoder)
    return decoder.astype(np.intp)


# ---------------------------------------------------------------------------
# Optimal scalar quantizers for Gaussian sources.
# ---------------------------------------------------------------------------


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _quantile_grid(levels: int) -> np.ndarray:
    """N(0, 1) quantiles at (i + 1/2)/levels, by Wichura's AS241 in ``statistics`` on the lower half, mirrored."""
    inv_cdf = statistics.NormalDist().inv_cdf
    low = [inv_cdf((i + 0.5) / levels) for i in range(levels // 2)]
    return np.array(low + [0.0] * (levels % 2) + [-c for c in reversed(low)])


# Interior quantizer cells are integrated with the 16-point Gauss-Legendre
# rule.  It is exact to rounding on every interior cell of every quantizer
# here: the widest, at 3 levels, spans 1.2 standard deviations.  Differences
# of the normal cdf would cancel away about 1e-12 of a centroid at 4096
# levels, the whole tolerance.  The positive nodes and their weights are
# those of numpy.polynomial.legendre.leggauss(16), which would touch LAPACK
# at import and add about 0.9 MB to every process.
_GL_POSITIVE_NODES = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_POSITIVE_WEIGHTS = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
_GL_NODES = np.concatenate((-_GL_POSITIVE_NODES[::-1], _GL_POSITIVE_NODES))
_GL_WEIGHTS = np.concatenate((_GL_POSITIVE_WEIGHTS[::-1], _GL_POSITIVE_WEIGHTS))


def _cells(centroids: np.ndarray):
    """N(0, 1) cut at the centroid midpoints, in standard units.

    Returns the thresholds, the cell masses, the cell means (one Lloyd step
    from ``centroids``), and the interior cells' quadrature nodes and
    weighted densities.  The two tail cells use pdf(t) and the tail mass
    Q(|t|) = erfc(|t|/sqrt(2))/2 from ``math.erfc``, which does not cancel.
    """
    t = 0.5 * (centroids[1:] + centroids[:-1])
    half = 0.5 * (t[1:] - t[:-1])[:, None]
    nodes = 0.5 * (t[1:] + t[:-1])[:, None] + half * _GL_NODES
    dens = half * _GL_WEIGHTS * _phi(nodes)
    mass = np.concatenate(([0.5 * math.erfc(-t[0] * _SQRTH)], dens.sum(axis=1), [0.5 * math.erfc(t[-1] * _SQRTH)]))
    first = np.concatenate(([-_phi(t[0])], (dens * nodes).sum(axis=1), [_phi(t[-1])]))
    return t, mass, first / mass, nodes, dens


def _solve_tridiagonal(sub: list, diag: list, sup: list, rhs: list) -> np.ndarray:
    """Thomas sweep; ``sub`` and ``sup`` hold the n - 1 off-diagonal entries.

    No pivoting: the Lloyd Jacobian is diagonally dominant, because the two
    threshold derivatives of a cell mean sum to at most 1 for a log-concave
    density.  The sweep is sequential, so it runs on Python floats, and the
    package needs no scipy.
    """
    n = len(diag)
    gamma = [0.0] * n  # the eliminated superdiagonal
    x = [0.0] * n
    pivot = diag[0]
    x[0] = rhs[0] / pivot
    for i in range(1, n):
        gamma[i] = sup[i - 1] / pivot
        pivot = diag[i] - sub[i - 1] * gamma[i]
        x[i] = (rhs[i] - sub[i - 1] * x[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        x[i] -= gamma[i + 1] * x[i + 1]
    return np.array(x)


@dataclass(frozen=True)
class LloydMaxQuantizer:
    """Fixed point of the Lloyd iteration for a zero-mean Gaussian source."""

    thresholds: np.ndarray  # interior cell boundaries, ascending
    centroids: np.ndarray  # reconstruction levels, ascending
    source_var: float
    mse: float
    iterations: int

    def index(self, values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.thresholds, np.asarray(values, float))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return self.centroids[self.index(values)]

    def as_dict(self) -> dict:
        return {
            "levels": int(len(self.centroids)),
            "source_var": float(self.source_var),
            "mse": float(self.mse),
            "thresholds": [float(v) for v in self.thresholds],
            "centroids": [float(v) for v in self.centroids],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def lloyd_max(
    levels: int,
    source_var: float,
    residual_tol: float = 1e-12,
) -> LloydMaxQuantizer:
    """Optimal ``levels``-point scalar quantizer for N(0, source_var).

    Solves the Lloyd fixed point G(c) = c, where G maps centroids to the
    means of the cells cut at their midpoints, by damped Newton steps from
    the quantile grid, which ``statistics.NormalDist().inv_cdf`` (Wichura's
    AS241) gives on the lower half and mirroring on the upper.  The
    Jacobian of G - c is tridiagonal and analytic.
    ``residual_tol`` bounds max|G(c) - c|, the move of one plain Lloyd
    step, in standard-deviation units; iteration also stops at the rounding
    floor, where a step no longer lowers that residual.  ``iterations``
    counts the Newton steps (at least 1).  The result is exactly symmetric
    about 0 by construction.
    """
    if isinstance(levels, bool) or not isinstance(levels, (int, np.integer)):
        raise ValueError("levels: must be an integer")
    if not 2 <= levels <= 4096:
        raise ValueError("levels: must lie in [2, 4096]")
    if not (math.isfinite(source_var) and source_var > 0.0):
        raise ValueError("source_var: must be positive and finite")
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise ValueError("residual_tol: must be positive and finite")
    # Work in standard units, rescale at the end.
    centroids = _quantile_grid(levels)
    cells = _cells(centroids)
    residual = float(np.max(np.abs(cells[2] - centroids)))
    iterations = 0
    while True:
        iterations += 1
        t, mass, means = cells[:3]
        # dG_i/dt_i and dG_{i+1}/dt_i; each t_i is the mean of c_i and c_{i+1}
        pdf_t = _phi(t)
        upper = pdf_t * (t - means[:-1]) / mass[:-1]
        lower = pdf_t * (means[1:] - t) / mass[1:]
        diag = np.full(levels, -1.0)
        diag[:-1] += 0.5 * upper
        diag[1:] += 0.5 * lower
        step = _solve_tridiagonal(
            (0.5 * lower).tolist(), diag.tolist(), (0.5 * upper).tolist(), (centroids - means).tolist()
        )
        for _ in range(52):  # halved 52 times, a step no longer moves O(1) centroids
            trial = centroids + step
            trial = 0.5 * (trial - trial[::-1])
            if np.all(np.diff(trial) > 0.0):
                trial_cells = _cells(trial)
                trial_residual = float(np.max(np.abs(trial_cells[2] - trial)))
                if trial_residual < residual:
                    break
            step *= 0.5
        else:  # the rounding floor
            break
        centroids, cells, residual = trial, trial_cells, trial_residual
        if residual <= residual_tol:
            break

    t, mass, _, nodes, dens = cells
    top, q_top, pdf_top = centroids[-1], mass[-1], _phi(t[-1])
    # interior cells by quadrature; each tail cell gives (1 + c^2) Q(t) + (t - 2c) pdf(t)
    mse_std = float(np.sum(dens * (nodes - centroids[1:-1, None]) ** 2))
    mse_std += 2.0 * ((1.0 + top * top) * q_top + (t[-1] - 2.0 * top) * pdf_top)

    sd = math.sqrt(source_var)
    return LloydMaxQuantizer(
        thresholds=t * sd,
        centroids=centroids * sd,
        source_var=float(source_var),
        mse=float(mse_std * source_var),
        iterations=iterations,
    )


@dataclass(frozen=True)
class EmpiricalTriple:
    """Simulated (rate, costs) of a concrete scalar codec."""

    rate_bits: float
    costs: CostPair
    stderr_e: float
    stderr_d: float


def empirical_triple(
    model: SourcePairModel,
    levels: int,
    n: int,
    seed: int,
    chunk: int = 2**16,
) -> EmpiricalTriple:
    """Simulate an achievable codec: quantize X + beta*theta, decode linearly.

    The effective signal V = X + beta*theta is quantized with the optimal
    ``levels``-point quantizer; the receiver plays the per-cell conditional
    mean of X, which for jointly Gaussian (X, V) is the linear factor
    Cov(X,V)/Var(V) times the cell centroid (truncated-moment identity).
    The resulting point is achievable at rate log2(levels), so it must lie
    on or above the strategic rate-distortion curve.
    """
    require_valid(model)
    if n < 10_000:
        raise ValueError("n: need at least 10000 samples")
    beta = best_alpha(model)
    var_v = model.sigma_x2 * _signal_ratio(model.rho, model.r, beta)
    quant = lloyd_max(levels, var_v)
    kappa = float(_linear_costs(model.rho, model.r, beta, 1.0, 0.0, 0.0)[0])  # Cov(X, V) / Var(V)

    table = simkit.sample(model, simkit.SimConfig(seed=seed, n=n, chunk=chunk))
    moments = simkit._ErrorMoments()
    for start in range(0, n, chunk):
        x, theta = table.data[start : start + chunk].T
        xhat = kappa * quant.quantize(x + beta * theta)
        moments.add(np.stack([x + theta - xhat, x - xhat]))
    return EmpiricalTriple(math.log2(levels), *moments.result())
