"""Exact second-order algebra for jointly Gaussian signaling games.

Everything downstream reduces to second moments.  The models here carry the
normalized covariance of the source pair (X, theta), optionally extended by
receiver side information W; a ``LinearScheme`` describes one encoder/decoder
pair; and the functions evaluate estimation weights and quadratic costs
exactly by covariance propagation.  No sampling and no iterative solvers
enter this module: observation blocks are at most 4x4, scaled to unit
diagonal and solved directly, so results are deterministic to the last bit.
It is the independent route that the solvers' closed-form costs
(``equilibrium._linear_costs``) are checked against.

``best_decoders`` propagates many encoders of one model at once: one stack
of 5x5 moment matrices, one stacked singularity test and one stacked solve.
Each entry is rounded as for that scheme alone, so a scheme's weights and
costs do not depend on the stack it comes in; ``best_decoder`` is its
one-scheme case and ``mmse_linear`` shares its scaled solve.

Conventions
-----------
* ``SourcePairModel(sigma_x2, rho, r)`` is Cov(X, theta) =
  sigma_x2 * [[1, rho], [rho, r]].  Validity requires r > rho**2.
* ``SideInfoModel`` extends this with W:  Cov(X, theta, W) = sigma_x2 *
  [[1, rxt, rxw], [rxt, r_theta, rtw], [rxw, rtw, r_w]], positive definite.
* A scheme transmits U = enc_gain * (X + a*theta + b*W) + T with
  T ~ N(0, enc_noise_var); the receiver observes Y = U + N with channel
  noise N ~ N(0, channel_noise_var) and reconstructs
  Xhat = dec_y_weight * Y + dec_w_weight * W.
* Costs: d_e = E{(X + theta - Xhat)^2} (encoder), d_d = E{(X - Xhat)^2}
  (decoder).  All variables are zero mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import InvalidModel, SingularObservation

# Positive-definiteness tolerance, relative to the trace of the matrix
# under test.  Boundary models (minor == tolerance) are rejected.
PSD_RTOL = 1e-12


@dataclass(frozen=True)
class SourcePairModel:
    """Second-order statistics of the source X and the private signal theta."""

    sigma_x2: float
    rho: float
    r: float

    def covariance(self) -> np.ndarray:
        """Covariance matrix of (X, theta)."""
        s = self.sigma_x2
        return np.array([[s, s * self.rho], [s * self.rho, s * self.r]])


@dataclass(frozen=True)
class SideInfoModel:
    """Second-order statistics of (X, theta) plus receiver side information W."""

    sigma_x2: float
    rho_x_theta: float
    r_theta: float
    rho_x_w: float
    rho_theta_w: float
    r_w: float

    def covariance(self) -> np.ndarray:
        """Covariance matrix of (X, theta, W)."""
        s = self.sigma_x2
        return s * np.array(
            [
                [1.0, self.rho_x_theta, self.rho_x_w],
                [self.rho_x_theta, self.r_theta, self.rho_theta_w],
                [self.rho_x_w, self.rho_theta_w, self.r_w],
            ]
        )

    def pair_part(self) -> SourcePairModel:
        """The embedded (X, theta) model obtained by dropping W."""
        return SourcePairModel(self.sigma_x2, self.rho_x_theta, self.r_theta)


Model = Union[SourcePairModel, SideInfoModel]


@dataclass(frozen=True)
class LinearScheme:
    """One linear encoder/decoder pair.

    The encoder transmits U = enc_gain * (X + enc_theta_weight * theta
    + enc_si_weight * W) + T; the decoder plays Xhat = dec_y_weight * Y
    + dec_w_weight * W.  For pair models the W-weights act on a
    zero-variance signal and are inert.
    """

    enc_gain: float = 1.0
    enc_theta_weight: float = 0.0
    enc_si_weight: float = 0.0
    enc_noise_var: float = 0.0
    dec_y_weight: float = 0.0
    dec_w_weight: float = 0.0


@dataclass(frozen=True)
class CostPair:
    """Encoder and decoder expected quadratic costs."""

    d_e: float
    d_d: float


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate_model(model: Model) -> ValidationReport:
    """Check a model's invariants; total function, never raises.

    Positive definiteness is tested through the leading principal minors of
    the normalized covariance, each compared against ``PSD_RTOL`` times the
    matrix trace.  Violation messages name the offending field or minor.
    """
    violations: list[str] = []
    if isinstance(model, SourcePairModel):
        fields = {"sigma_x2": model.sigma_x2, "rho": model.rho, "r": model.r}
    elif isinstance(model, SideInfoModel):
        fields = {
            "sigma_x2": model.sigma_x2,
            "rho_x_theta": model.rho_x_theta,
            "r_theta": model.r_theta,
            "rho_x_w": model.rho_x_w,
            "rho_theta_w": model.rho_theta_w,
            "r_w": model.r_w,
        }
    else:
        return ValidationReport(False, (f"unsupported model type {type(model).__name__}",))

    for name, value in fields.items():
        if not math.isfinite(value):
            violations.append(f"{name}: must be finite")
    if violations:
        return ValidationReport(False, tuple(violations))

    if model.sigma_x2 <= 0.0:
        violations.append("sigma_x2: must be positive")

    # x * x overflows to inf where x**2 raises, and "not ... > tol" fails a NaN minor
    if isinstance(model, SourcePairModel):
        tol = PSD_RTOL * (1.0 + model.r)
        if not model.r - model.rho * model.rho > tol:
            violations.append("r: r must exceed rho^2")
    else:
        # PSD_RTOL times the normalized trace, term by term: 1 + r_theta + r_w can overflow
        tol = PSD_RTOL + PSD_RTOL * model.r_theta + PSD_RTOL * model.r_w
        if not model.r_theta - model.rho_x_theta * model.rho_x_theta > tol:
            violations.append("r_theta: r_theta must exceed rho_x_theta^2 (leading principal minor 2)")
        det = _si_det(model)
        if not det > tol:
            violations.append(f"covariance: leading principal minor 3 not positive (det = {det:.6g})")

    return ValidationReport(not violations, tuple(violations))


def _si_det(m: SideInfoModel) -> float:
    """Determinant of the normalized covariance of (X, theta, W), by cofactors of its first row."""
    a, b, c = m.rho_x_theta, m.rho_x_w, m.rho_theta_w
    return (m.r_theta * m.r_w - c * c) - a * (a * m.r_w - b * c) + b * (a * c - b * m.r_theta)


def require_valid(model: Model) -> None:
    """Raise :class:`InvalidModel` if the model fails validation."""
    report = validate_model(model)
    if not report.ok:
        raise InvalidModel("; ".join(report.violations))


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name}: must be finite")


def mmse_linear(
    cov: np.ndarray, target: int, observed: Sequence[int]
) -> tuple[np.ndarray, float]:
    """Best linear estimate of one coordinate from a set of others.

    Parameters
    ----------
    cov : array_like
        Joint covariance of all coordinates, at most 4x4, symmetric.
    target : int
        Index of the coordinate to estimate.
    observed : sequence of int
        Indices of the observed coordinates (may be empty).

    Returns
    -------
    weights : ndarray
        Coefficients w such that the estimate is w @ observations.
    err_var : float
        Residual variance E{(target - estimate)^2}, never negative.

    Raises
    ------
    SingularObservation
        If the observed block, scaled to unit diagonal, has an eigenvalue
        below ``PSD_RTOL`` times its dimension.  The test is scale-free, so
        observations of very different variances are not singular.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0]
    if cov.shape != (n, n) or n > 4:
        raise ValueError("covariance must be square and at most 4x4")
    observed = tuple(int(i) for i in observed)
    if len(observed) == 0:
        return np.zeros(0), max(0.0, float(cov[target, target]))
    cross = cov[list(observed), target]
    weights = _scaled_solve(cov[np.ix_(observed, observed)][None], cross[None])[0]
    err_var = float(cov[target, target] - weights @ cross)
    return weights, max(0.0, err_var)


def _scaled_solve(block: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Solve block @ w = cross for a stack of observation blocks, each scaled to unit diagonal.

    Raises :class:`SingularObservation` for the first block with a variance
    that is not positive, or with a unit-diagonal eigenvalue at or below
    ``PSD_RTOL`` times its dimension.
    """
    scale = np.sqrt(np.diagonal(block, axis1=1, axis2=2))
    if not np.all(scale > 0.0):
        raise SingularObservation("observation covariance has a variance that is not positive")
    unit = block / (scale[:, :, None] * scale[:, None, :])
    tol = PSD_RTOL * block.shape[1]
    low = np.linalg.eigvalsh((unit + unit.transpose(0, 2, 1)) / 2.0)[:, 0]
    singular = low <= tol
    if singular.any():
        raise SingularObservation(
            f"observation covariance scaled to unit diagonal has eigenvalue {low[singular][0]:.3g} <= {tol:.3g}"
        )
    return np.linalg.solve(unit, (cross / scale)[:, :, None])[:, :, 0] / scale


# Basis order used for exact moment propagation: (X, theta, W, T, N).
_NBASE = 5
# X + theta and X over that basis: the encoder's and decoder's targets.
_COST_ROWS = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0]])


def _check_encoder(scheme: LinearScheme, channel_noise_var: float) -> None:
    _require_finite(channel_noise_var=channel_noise_var, **vars(scheme))
    if scheme.enc_noise_var < 0.0:
        raise ValueError("enc_noise_var: must be nonnegative")
    if channel_noise_var < 0.0:
        raise ValueError("channel_noise_var: must be nonnegative")


def _moment_matrix(model: Model, scheme: LinearScheme, channel_noise_var: float) -> np.ndarray:
    _check_encoder(scheme, channel_noise_var)
    k = np.zeros((_NBASE, _NBASE))
    cov = model.covariance()
    d = cov.shape[0]
    k[:d, :d] = cov
    k[3, 3] = scheme.enc_noise_var
    k[4, 4] = channel_noise_var
    return k


def _signal_vectors(scheme: LinearScheme) -> dict[str, np.ndarray]:
    c = scheme.enc_gain
    y = np.array(
        [c, c * scheme.enc_theta_weight, c * scheme.enc_si_weight, 1.0, 1.0]
    )
    w = np.zeros(_NBASE)
    w[2] = 1.0
    xhat = scheme.dec_y_weight * y + scheme.dec_w_weight * w
    vectors = {
        "x": np.array([1.0, 0, 0, 0, 0]),
        "theta": np.array([0, 1.0, 0, 0, 0]),
        "w": w,
        "u": y - np.array([0, 0, 0, 0, 1.0]),
        "y": y,
        "xhat": xhat,
    }
    return vectors


def cross_moment(
    model: Model,
    scheme: LinearScheme,
    channel_noise_var: float,
    left: Mapping[str, float],
    right: Mapping[str, float],
) -> float:
    """Exact E{L * R} for linear combinations of the scheme's signals.

    ``left`` and ``right`` map signal names (``x``, ``theta``, ``w``, ``u``,
    ``y``, ``xhat``) to coefficients.  Used by solvers and tests to evaluate
    arbitrary quadratic functionals without re-deriving covariance algebra.
    """
    sig = _signal_vectors(scheme)
    vl = sum(c * sig[name] for name, c in left.items())
    vr = sum(c * sig[name] for name, c in right.items())
    k = _moment_matrix(model, scheme, channel_noise_var)
    return float(vl @ k @ vr)


def scheme_costs(
    model: Model, scheme: LinearScheme, channel_noise_var: float = 0.0
) -> CostPair:
    """Exact quadratic costs of a fully specified scheme.

    Deterministic covariance propagation; no sampling.  The scheme's decoder
    weights are used as given (they need not be a best response).
    """
    require_valid(model)
    k = _moment_matrix(model, scheme, channel_noise_var)
    sig = _signal_vectors(scheme)
    err_d = sig["x"] - sig["xhat"]
    err_e = sig["x"] + sig["theta"] - sig["xhat"]
    d_d = float(err_d @ k @ err_d)
    d_e = float(err_e @ k @ err_e)
    return CostPair(d_e=d_e, d_d=d_d)


def best_decoder(
    model: Model, scheme: LinearScheme, channel_noise_var: float = 0.0
) -> tuple[LinearScheme, CostPair]:
    """Best-response decoder for a given encoder, with the resulting costs.

    The decoder minimizes d_d over linear maps of its observations (Y for
    pair models, (Y, W) with side information), i.e. it plays the linear
    conditional mean.  This is the one-scheme case of :func:`best_decoders`,
    which states when Y is dropped.
    """
    weights, costs = best_decoders(model, (scheme,), (channel_noise_var,))
    (dec_y, dec_w), (d_e, d_d) = weights[0].tolist(), costs[0].tolist()
    return replace(scheme, dec_y_weight=dec_y, dec_w_weight=dec_w), CostPair(d_e=d_e, d_d=d_d)


def best_decoders(
    model: Model, schemes: Sequence[LinearScheme], channel_noise_vars: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Best-response decoders and their costs for many encoders of one model.

    Scheme i is heard through channel noise of variance
    ``channel_noise_vars[i]``; its decoder weights are ignored.  Returns
    ``(weights, costs)``, arrays of shape (n, 2): ``weights[i]`` is
    (dec_y_weight, dec_w_weight) and ``costs[i]`` is (d_e, d_d).

    All schemes go through one stack of moment matrices over (X, theta, W,
    T, N): one singularity test of the unit-diagonal observation blocks,
    one solve of the normal equations and one propagation of the costs.
    Y = c*S + T + N is dropped from the observations, in its own units,
    when its signal power c^2*Var(S) is at most ``PSD_RTOL`` * Var(Y); the
    decoder then plays the prior (or the W-only estimate with side
    information).
    """
    require_valid(model)
    table = np.array(
        [
            (1.0, s.enc_theta_weight, s.enc_si_weight, s.enc_gain, s.enc_noise_var, noise, s.dec_y_weight, s.dec_w_weight)
            for s, noise in zip(schemes, channel_noise_vars, strict=True)
        ],
        dtype=float,
    ).reshape(-1, 8)
    if not (np.isfinite(table).all() and (table[:, 4:6] >= 0.0).all()):
        for s, noise in zip(schemes, channel_noise_vars):
            _check_encoder(s, noise)  # raises, naming the first bad field
    c, t, noise = table[:, 3:6].T
    n = len(table)
    cov = model.covariance()
    d = cov.shape[0]
    k = np.zeros((n, _NBASE, _NBASE))
    k[:, :d, :d] = cov
    k[:, 3, 3], k[:, 4, 4] = t, noise
    # Rows X, Y, W and the signal c*S = Y - T - N, over the basis (X, theta, W, T, N)
    rows = np.zeros((n, 4, _NBASE))
    rows[:, 0, 0] = rows[:, 2, 2] = rows[:, 1, 3] = rows[:, 1, 4] = 1.0
    rows[:, 1, :3] = rows[:, 3, :3] = c[:, None] * table[:, :3]  # c*(1, a, b), S = X + a*theta + b*W
    mom = _moments(rows, k)
    keep = mom[:, 3, 3] > PSD_RTOL * mom[:, 1, 1]

    stop = 3 if isinstance(model, SideInfoModel) else 2  # observations Y, or Y and W
    block, cross = mom[:, 1:stop, 1:stop].copy(), mom[:, 1:stop, 0].copy()
    drop = ~keep
    if drop.any():  # a dropped Y becomes an observation orthogonal to the rest
        block[drop, 0, :] = block[drop, :, 0] = cross[drop, 0] = 0.0
        block[drop, 0, 0] = 1.0
    solved = _scaled_solve(block, cross)
    weights = np.zeros((n, 2))
    weights[:, 0] = np.where(keep, solved[:, 0], 0.0)
    weights[:, 1 : stop - 1] = solved[:, 1:]

    xhat = weights[:, :1] * rows[:, 1] + weights[:, 1:] * rows[:, 2]
    err = _COST_ROWS - xhat[:, None, :]  # X + theta - Xhat and X - Xhat
    return weights, _moments(err, k)[:, (0, 1), (0, 1)]


def _moments(rows: np.ndarray, k: np.ndarray) -> np.ndarray:
    """rows[i, a] @ k[i] @ rows[i, b] for every i, a and b.

    Each entry is a vector-matrix product and then a dot product, rounded
    as for one pair of vectors, so no result depends on the stack around it.
    """
    rk = np.matmul(rows[:, :, None, :], k[:, None])[:, :, 0, :]
    return rk @ rows.transpose(0, 2, 1)


def no_information_costs(model: Model) -> CostPair:
    """Costs when the decoder plays the prior mean (Xhat = 0)."""
    require_valid(model)
    if isinstance(model, SideInfoModel):
        rho, r = model.rho_x_theta, model.r_theta
    else:
        rho, r = model.rho, model.r
    s = model.sigma_x2
    return CostPair(d_e=s * (1.0 + 2.0 * rho + r), d_d=s)
