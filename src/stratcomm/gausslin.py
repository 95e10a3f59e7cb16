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
    block = cov[np.ix_(observed, observed)]
    cross = cov[list(observed), target]
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
    weights = np.linalg.solve(unit, cross / scale) / scale
    err_var = float(cov[target, target] - weights @ cross)
    return weights, max(0.0, err_var)


# Basis order used for exact moment propagation: (X, theta, W, T, N).
_NBASE = 5


def _moment_matrix(model: Model, scheme: LinearScheme, channel_noise_var: float) -> np.ndarray:
    _require_finite(channel_noise_var=channel_noise_var, **vars(scheme))
    if scheme.enc_noise_var < 0.0:
        raise ValueError("enc_noise_var: must be nonnegative")
    if channel_noise_var < 0.0:
        raise ValueError("channel_noise_var: must be nonnegative")
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
    conditional mean.  A degenerate Y (zero variance) is dropped from the
    observation set, leaving the prior decoder (or the W-only decoder when
    side information is available).
    """
    require_valid(model)
    k = _moment_matrix(model, scheme, channel_noise_var)
    sig = _signal_vectors(scheme)
    has_w = isinstance(model, SideInfoModel)

    def m(u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ k @ v)

    var_y = m(sig["y"], sig["y"])
    scale = max(model.sigma_x2, var_y)
    names = []
    if var_y > PSD_RTOL * scale:
        names.append("y")
    if has_w:
        names.append("w")

    dims = ["x"] + names
    cov = np.array([[m(sig[a], sig[b]) for b in dims] for a in dims])
    weights, err = mmse_linear(cov, 0, range(1, len(dims)))
    dec_y = weights[names.index("y")] if "y" in names else 0.0
    dec_w = weights[names.index("w")] if "w" in names else 0.0
    solved = replace(scheme, dec_y_weight=float(dec_y), dec_w_weight=float(dec_w))
    costs = scheme_costs(model, solved, channel_noise_var)
    # d_d from the normal equations and from propagation agree to roundoff;
    # report the propagated pair so both costs come from one path.
    return solved, costs


def no_information_costs(model: Model) -> CostPair:
    """Costs when the decoder plays the prior mean (Xhat = 0)."""
    require_valid(model)
    if isinstance(model, SideInfoModel):
        rho, r = model.rho_x_theta, model.r_theta
    else:
        rho, r = model.rho, model.r
    s = model.sigma_x2
    return CostPair(d_e=s * (1.0 + 2.0 * rho + r), d_d=s)
