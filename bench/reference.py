"""Reference computations for the benchmark's output checks.

Everything here is written apart from ``stratcomm``, in plain ``math`` and
numpy, from the model definitions alone:

* the source is the zero-mean Gaussian vector (X, theta, W) with covariance
  ``S`` (for pair models W has zero variance);
* a linear scheme sends Y = g * (X + a*theta + b*W) + T + N, with encoder
  noise T and channel noise N independent of the source;
* the receiver plays Xhat = ky * Y + kw * W, by default the best linear
  estimate of X from (Y, W), found here by Cramer's rule on the 2x2 normal
  equations;
* costs are d_e = E{(X + theta - Xhat)^2} and d_d = E{(X - Xhat)^2}.

No function here imports or calls the package under test, so a fault in the
package's covariance propagation, root selection or searches cannot cancel
against the same fault in the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Covariances and linear estimation


def pair_cov(s2: float, rho: float, r: float) -> np.ndarray:
    """Covariance of (X, theta, W) for a pair model; W is identically zero."""
    return s2 * np.array([[1.0, rho, 0.0], [rho, r, 0.0], [0.0, 0.0, 0.0]])


def si_cov(s2: float, rxt: float, rt: float, rxw: float, rtw: float, rw: float) -> np.ndarray:
    """Covariance of (X, theta, W) for a side-information model."""
    return s2 * np.array([[1.0, rxt, rxw], [rxt, rt, rtw], [rxw, rtw, rw]])


@dataclass(frozen=True)
class Costs:
    d_e: float
    d_d: float
    ky: float
    kw: float


def scheme_costs(
    cov: np.ndarray,
    a: float,
    b: float = 0.0,
    gain: float = 1.0,
    t_var: float = 0.0,
    n_var: float = 0.0,
    decoder: tuple[float, float] | None = None,
) -> Costs:
    """Costs of one linear scheme; best-response decoding unless ``decoder``.

    The best response regresses X on Y alone when W has zero variance or
    when Y carries nothing (zero variance), and on (Y, W) otherwise.
    """
    v = gain * np.array([1.0, a, b])  # Y's source part over (X, theta, W)
    noise = t_var + n_var
    var_y = float(v @ cov @ v) + noise
    c_xy = float(cov[0] @ v)
    c_yw = float(cov[2] @ v)
    var_w = float(cov[2, 2])
    c_xw = float(cov[0, 2])
    if decoder is not None:
        ky, kw = decoder
    elif var_w <= 0.0:
        ky, kw = (c_xy / var_y if var_y > 0.0 else 0.0), 0.0
    elif var_y <= 0.0:
        ky, kw = 0.0, c_xw / var_w
    else:
        det = var_y * var_w - c_yw * c_yw
        ky = (c_xy * var_w - c_yw * c_xw) / det
        kw = (var_y * c_xw - c_yw * c_xy) / det
    err_d = np.array([1.0, 0.0, 0.0]) - ky * v - np.array([0.0, 0.0, kw])
    err_e = err_d + np.array([0.0, 1.0, 0.0])
    d_d = float(err_d @ cov @ err_d) + ky * ky * noise
    d_e = float(err_e @ cov @ err_e) + ky * ky * noise
    return Costs(d_e=d_e, d_d=d_d, ky=float(ky), kw=float(kw))


def conditional_pair(cov: np.ndarray) -> tuple[float, float, float]:
    """(sigma_x2, rho, r) of (X, theta) conditioned on W.

    The side-information game reduces to the plain game on these moments:
    given W the residuals of (X, theta) are independent of W.
    """
    s = cov[:2, :2] - np.outer(cov[:2, 2], cov[:2, 2]) / cov[2, 2]
    return float(s[0, 0]), float(s[0, 1] / s[0, 0]), float(s[1, 1] / s[0, 0])


# ---------------------------------------------------------------------------
# The plain equilibrium


def alignment(rho: float, r: float, a) -> np.ndarray:
    """J(a) / sigma_x2 = Cov(X, V) * Cov(X + 2*theta, V) / Var(V), V = X + a*theta.

    E{(X + theta - Xhat)^2} = Var(X + theta) - J(a) under best-response
    decoding, so the equilibrium weight maximizes J.
    """
    a = np.asarray(a, float)
    c_xv = 1.0 + a * rho
    c_tv = rho + a * r
    var_v = 1.0 + 2.0 * a * rho + a * a * r
    return c_xv * (c_xv + 2.0 * c_tv) / var_v


def alpha_roots(rho: float, r: float) -> tuple[float, ...]:
    """Both roots of (r + rho)*a^2 + a - 1 = 0, in cancellation-free form."""
    s = r + rho
    d = math.sqrt(1.0 + 4.0 * s)
    if s == 0.0:
        return (1.0,)
    return (2.0 / (1.0 + d), -(1.0 + d) / (2.0 * s))


def pair_alpha(rho: float, r: float) -> float:
    """The equilibrium weight: the root with the larger alignment value.

    Exact ties go to the smaller magnitude.
    """
    roots = alpha_roots(rho, r)
    values = [float(alignment(rho, r, a)) for a in roots]
    best = max(values)
    return min((a for a, j in zip(roots, values) if j == best), key=abs)


def pair_alpha_vec(rho, r) -> np.ndarray:
    """:func:`pair_alpha` over arrays of (rho, r), for whole sweep grids."""
    rho, r = np.broadcast_arrays(np.asarray(rho, float), np.asarray(r, float))
    s = r + rho
    d = np.sqrt(1.0 + 4.0 * s)
    a1 = 2.0 / (1.0 + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        a2 = np.where(s != 0.0, -(1.0 + d) / (2.0 * s), a1)
    j1, j2 = alignment(rho, r, a1), alignment(rho, r, a2)
    take2 = (j2 > j1) | ((j2 == j1) & (np.abs(a2) < np.abs(a1)))
    return np.where(take2, a2, a1)


def pair_costs_vec(s2, rho, r, a, g2, noise) -> tuple[np.ndarray, np.ndarray]:
    """(d_e, d_d) of Y = g*(X + a*theta) + noise under best-response decoding.

    Scalar formulas, no matrices: d_d = Var X - Cov(X,Y)^2 / Var Y and
    d_e = Var(X + theta) - Cov(X,Y) * Cov(X + 2*theta, Y) / Var Y.
    ``noise`` may be +inf (nothing crosses the channel).
    """
    c_xv = s2 * (1.0 + a * rho)
    c_tv = s2 * (rho + a * r)
    var_y = g2 * s2 * (1.0 + 2.0 * a * rho + a * a * r) + noise
    with np.errstate(invalid="ignore"):
        gain = np.where(np.isinf(var_y), 0.0, g2 / var_y)
    d_d = s2 - gain * c_xv * c_xv
    d_e = s2 * (1.0 + 2.0 * rho + r) - gain * c_xv * (c_xv + 2.0 * c_tv)
    return d_e, d_d


@dataclass(frozen=True)
class PairEquilibrium:
    alpha: float
    kappa: float
    d_e: float
    d_d: float


def pair_equilibrium(s2: float, rho: float, r: float) -> PairEquilibrium:
    alpha = pair_alpha(rho, r)
    c = scheme_costs(pair_cov(s2, rho, r), alpha)
    return PairEquilibrium(alpha=alpha, kappa=c.ky, d_e=c.d_e, d_d=c.d_d)


# ---------------------------------------------------------------------------
# Test channels and rates


def signal_var(cov: np.ndarray, beta: float, given_w: bool = False) -> float:
    """Var(X + beta*theta), or Var(X + beta*theta | W) when ``given_w``."""
    v = np.array([1.0, beta, 0.0])
    var = float(v @ cov @ v)
    if given_w and cov[2, 2] > 0.0:
        c = float(cov[2] @ v)
        var -= c * c / float(cov[2, 2])
    return var


def test_channel_rate(var_signal: float, sigma_s2: float) -> float:
    """0.5 * log2(1 + Var(signal) / sigma_s2), in bits."""
    return 0.5 * math.log1p(var_signal / sigma_s2) / _LN2


def sigma_s2_for_rate(var_signal: float, rate_bits: float) -> float:
    """Inverse of :func:`test_channel_rate` in sigma_s2.

    var / (2^(2R) - 1), written as var * 2^(-2R) / (1 - 2^(-2R)) so that
    neither large nor tiny rates overflow or cancel.
    """
    y = 2.0 * rate_bits * _LN2
    return var_signal * math.exp(-y) / -math.expm1(-y)


@dataclass(frozen=True)
class RdReference:
    beta: float
    sigma_s2: float
    d_e: float
    d_d: float


def rd_reference(s2: float, rho: float, r: float, rate_bits: float) -> RdReference:
    """Point of the plain rate-distortion curve at a positive rate."""
    cov = pair_cov(s2, rho, r)
    beta = pair_alpha(rho, r)
    ss = sigma_s2_for_rate(signal_var(cov, beta), rate_bits)
    c = scheme_costs(cov, beta, t_var=ss)
    return RdReference(beta=beta, sigma_s2=ss, d_e=c.d_e, d_d=c.d_d)


def si_alpha(cov: np.ndarray) -> float:
    """Side-information equilibrium weight from the conditional reduction."""
    _, rho_c, r_c = conditional_pair(cov)
    return pair_alpha(rho_c, r_c)


def si_rd_reference(cov: np.ndarray, rate_bits: float) -> RdReference:
    """Point of the side-information curve: the rate is spent on Y given W."""
    beta = si_alpha(cov)
    ss = sigma_s2_for_rate(signal_var(cov, beta, given_w=True), rate_bits)
    c = scheme_costs(cov, beta, t_var=ss)
    return RdReference(beta=beta, sigma_s2=ss, d_e=c.d_e, d_d=c.d_d)


def capacity(power: float, noise_var: float) -> float:
    return 0.5 * math.log2(1.0 + power / noise_var)


def linear_over_channel(
    cov: np.ndarray, a: float, power: float, noise_var: float
) -> tuple[float, Costs]:
    """Uncoded transmission of X + a*theta scaled to the power budget."""
    gain = math.sqrt(power / signal_var(cov, a))
    return gain, scheme_costs(cov, a, gain=gain, n_var=noise_var)


def match_gap(cov: np.ndarray, a: float, power: float, noise_var: float) -> float:
    """Encoder cost of uncoded transmission minus the coded bound at capacity."""
    _, lin = linear_over_channel(cov, a, power, noise_var)
    rate = capacity(power, noise_var)
    ss = sigma_s2_for_rate(signal_var(cov, a, given_w=True), rate)
    bound = scheme_costs(cov, a, t_var=ss)
    return lin.d_e - bound.d_e


def feasible_rho_xw(rxt: float, rt: float, rtw: float, rw: float) -> tuple[float, float]:
    """Open interval of rho_x_w for which the normalized covariance is PD.

    det = -rt*x^2 + 2*rxt*rtw*x + (rt*rw - rtw^2 - rxt^2*rw), a downward
    parabola in x = rho_x_w.
    """
    a, b = -rt, 2.0 * rxt * rtw
    c = rt * rw - rtw * rtw - rxt * rxt * rw
    root = math.sqrt(b * b - 4.0 * a * c)
    return (-b + root) / (2.0 * a), (-b - root) / (2.0 * a)


# ---------------------------------------------------------------------------
# Control games


@dataclass(frozen=True)
class ControlReference:
    alpha: float
    v: float  # c^2 * Var(X + alpha*theta)
    j_e: float


def control_objective(s2, rho, r, k, k1, k2, k3, noise_var, alpha, c) -> np.ndarray:
    """Controller cost of U = c*(X + alpha*theta) under best-response decoding.

    (X + k*theta - Xhat)^2 + k1*U^2 + k2*U*X + k3*U*theta in expectation,
    broadcast over array-valued ``alpha`` and ``c``.
    """
    alpha = np.asarray(alpha, float)
    c = np.asarray(c, float)
    c_xv = s2 * (1.0 + alpha * rho)
    c_tv = s2 * (rho + alpha * r)
    v = c * c * s2 * (1.0 + 2.0 * alpha * rho + alpha * alpha * r)
    var_y = v + noise_var
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(var_y > 0.0, c * c * c_xv * (c_xv + 2.0 * k * c_tv) / var_y, 0.0)
    track = s2 * (1.0 + 2.0 * k * rho + k * k * r) - gain
    return track + k1 * v + c * (k2 * c_xv + k3 * c_tv)


def control_closed_form(s2, rho, r, k, k1, noise_var) -> ControlReference:
    """The k2 = k3 = 0 solution: alpha = k * best weight of theta -> k*theta.

    With J the rescaled model's alignment value (in sigma_x2 units times
    sigma_x2), the objective is const - v/(v+N)*J + k1*v, minimized at
    v = max(0, sqrt(J*N/k1) - N).
    """
    rho_k, r_k = k * rho, k * k * r
    alpha = k * pair_alpha(rho_k, r_k)
    j = s2 * float(alignment(rho_k, r_k, alpha / k))
    v = max(0.0, math.sqrt(j * noise_var / k1) - noise_var)
    var_v = s2 * (1.0 + 2.0 * alpha * rho + alpha * alpha * r)
    c = math.sqrt(v / var_v)
    j_e = float(control_objective(s2, rho, r, k, k1, 0.0, 0.0, noise_var, alpha, c))
    return ControlReference(alpha=alpha, v=v, j_e=j_e)


# ---------------------------------------------------------------------------
# Truncated Gaussian moments (Lloyd fixed point)


def _upper_tail(z: float) -> float:
    """P(Z > z) for a standard normal, accurate in both tails."""
    return 0.5 * math.erfc(z / _SQRT2)


def _pdf(z: float) -> float:
    return 0.0 if math.isinf(z) else _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_cell(lo: float, hi: float) -> tuple[float, float, float]:
    """(mass, first moment, second moment) of N(0, 1) on (lo, hi)."""
    if hi > 0.0:
        mass = _upper_tail(lo) - _upper_tail(hi)
    else:  # mirror a left-tail cell so neither tail probability is near 1
        mass = _upper_tail(-hi) - _upper_tail(-lo)
    first = _pdf(lo) - _pdf(hi)
    z_pdf_lo = 0.0 if math.isinf(lo) else lo * _pdf(lo)
    z_pdf_hi = 0.0 if math.isinf(hi) else hi * _pdf(hi)
    second = mass + z_pdf_lo - z_pdf_hi
    return mass, first, second


def cell_centroids_and_mse(thresholds_std: np.ndarray, centroids_std: np.ndarray) -> tuple[np.ndarray, float]:
    """Centroids of the cells between thresholds, and the quantizer's MSE.

    Both in standard units: the cells partition N(0, 1) at ``thresholds_std``
    and the MSE is that of reconstructing at ``centroids_std``.
    """
    edges = [-math.inf, *(float(t) for t in thresholds_std), math.inf]
    out = np.empty(len(edges) - 1)
    mse = 0.0
    for i in range(len(out)):
        mass, first, second = normal_cell(edges[i], edges[i + 1])
        out[i] = first / mass
        c = float(centroids_std[i])
        mse += second - 2.0 * c * first + c * c * mass
    return out, mse
