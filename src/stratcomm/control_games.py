"""When is the optimal control signal linear?  Canonical quadratic games.

A control game couples four zero-mean variables: the source X, the private
signal theta, the transmitted control U, and the reconstruction Xhat.  Both
players' stage costs are quadratic polynomials in these.  The toolkit makes
a linearity claim for exactly one family: controller cost reducible to

    (X + k*theta - Xhat)^2 + k1*U^2 + k2*U*X + k3*U*theta,   k1 > 0,

against a receiver that tracks X under squared error.  The decisive feature
is the absence of a U*Xhat product: once the control enters the cost jointly
with the reconstruction (as in the classical two-stage control problem with
cost (X + U - Xhat)^2, whose expansion contains -2*U*Xhat), nonlinear
strategies can dominate and this module refuses to solve rather than return
a misleading linear answer.

The canonicalizer is deliberately conservative: it pattern-matches the exact
tracking form and rejects anything else.  Linear monomials and constants are
dropped: every variable is zero mean, so they contribute nothing to either
expectation within the model class handled here.

A canonical game reduces to the disclosure game it extends: pure tracking
is solved in closed form, and U*X / U*theta penalties leave one scan over
the encoder direction (see :func:`solve_canonical`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .equilibrium import _linear_costs, _signal_ratio, _stationary_weight
from .errors import CrossTermPresent, NonCanonicalizable, Unbounded
from .gausslin import PSD_RTOL, LinearScheme, SourcePairModel, require_valid

_REL_TOL = 1e-9
_ABS_TOL = 1e-12

# Direction scan: _SCAN_POINTS angles, then _ZOOM_LEVELS re-scans over the
# two cells around each of the _BASINS lowest local minima, each 8 times
# finer, down to a spacing below what the objective's rounding resolves.
_SCAN_POINTS, _BASINS, _ZOOM_POINTS, _ZOOM_LEVELS = 512, 3, 17, 9

# JSON aliases: keys as they appear in objective tables elsewhere.
_KEY_ALIASES = {
    "x_hat2": "xhat2",
    "xx_hat": "x_xhat",
    "thetax_hat": "theta_xhat",
    "ux_hat": "u_xhat",
    "x_hat": "xhat",
}


@dataclass(frozen=True)
class QuadraticObjective:
    """Coefficient table of a quadratic polynomial in (X, theta, U, Xhat).

    Field names follow the monomials: ``x2`` multiplies X^2, ``x_theta``
    multiplies X*theta, ``x`` multiplies the linear term, ``const`` is the
    constant.  Missing monomials are zero.
    """

    x2: float = 0.0
    theta2: float = 0.0
    u2: float = 0.0
    xhat2: float = 0.0
    x_theta: float = 0.0
    x_u: float = 0.0
    x_xhat: float = 0.0
    theta_u: float = 0.0
    theta_xhat: float = 0.0
    u_xhat: float = 0.0
    x: float = 0.0
    theta: float = 0.0
    u: float = 0.0
    xhat: float = 0.0
    const: float = 0.0

    @staticmethod
    def from_dict(table: dict) -> "QuadraticObjective":
        """Build from a JSON monomial table; unknown keys are rejected."""
        known = {f.name for f in fields(QuadraticObjective)}
        values: dict[str, float] = {}
        for key, value in table.items():
            name = _KEY_ALIASES.get(key, key)
            if name not in known:
                raise NonCanonicalizable(f"objective table: unknown monomial '{key}'")
            if name in values:
                raise NonCanonicalizable(f"objective table: monomial '{key}' repeated")
            values[name] = float(value)
        return QuadraticObjective(**values)

    def to_dict(self) -> dict:
        return {
            f.name: float(getattr(self, f.name))
            for f in fields(self)
            if getattr(self, f.name) != 0.0
        }

    @staticmethod
    def from_square(
        x: float = 0.0,
        theta: float = 0.0,
        u: float = 0.0,
        xhat: float = 0.0,
        scale: float = 1.0,
    ) -> "QuadraticObjective":
        """Expand scale * (x*X + theta*theta_ + u*U + xhat*Xhat)^2."""
        return QuadraticObjective(
            x2=scale * x * x,
            theta2=scale * theta * theta,
            u2=scale * u * u,
            xhat2=scale * xhat * xhat,
            x_theta=2.0 * scale * x * theta,
            x_u=2.0 * scale * x * u,
            x_xhat=2.0 * scale * x * xhat,
            theta_u=2.0 * scale * theta * u,
            theta_xhat=2.0 * scale * theta * xhat,
            u_xhat=2.0 * scale * u * xhat,
        )

    def __add__(self, other: "QuadraticObjective") -> "QuadraticObjective":
        if not isinstance(other, QuadraticObjective):
            return NotImplemented
        return QuadraticObjective(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def scaled(self, factor: float) -> "QuadraticObjective":
        return QuadraticObjective(
            **{f.name: factor * getattr(self, f.name) for f in fields(self)}
        )


@dataclass(frozen=True)
class CanonicalForm:
    """Normalized controller cost (X + k*theta - Xhat)^2 + k1 U^2 + k2 UX + k3 U theta."""

    k1: float
    k2: float
    k3: float
    theta_weight: float


def has_ux_cross_term(phi: QuadraticObjective) -> bool:
    """True iff the cost couples U and Xhat directly."""
    return phi.u_xhat != 0.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def canonicalize(phi_e: QuadraticObjective, phi_d: QuadraticObjective) -> CanonicalForm:
    """Reduce an objective pair to the canonical form, or refuse.

    Accepted shape (up to positive scaling, linear monomials and constants,
    which are dropped under the zero-mean convention):

    * controller: t * [(X + k*theta - Xhat)^2 + k1*U^2 + k2*U*X + k3*U*theta]
      with t > 0 and k1 > 0;
    * receiver: t' * (X - Xhat)^2 plus terms in U alone, with t' > 0.

    Raises :class:`CrossTermPresent` when either cost contains a U*Xhat
    product and :class:`NonCanonicalizable` for any other shape mismatch.
    """
    if has_ux_cross_term(phi_e):
        raise CrossTermPresent(
            "controller cost contains a U*Xhat product; no linearity claim is "
            "made for that family"
        )
    if has_ux_cross_term(phi_d):
        raise CrossTermPresent(
            "receiver cost contains a U*Xhat product; no linearity claim is "
            "made for that family"
        )

    td = phi_d.xhat2
    if td <= 0.0:
        raise NonCanonicalizable("receiver cost: Xhat^2 coefficient must be positive")
    checks_d = {
        "X^2 == Xhat^2": _close(phi_d.x2, td),
        "X*Xhat == -2*Xhat^2": _close(phi_d.x_xhat, -2.0 * td),
        "no theta^2 term": _close(phi_d.theta2, 0.0),
        "no X*theta term": _close(phi_d.x_theta, 0.0),
        "no theta*Xhat term": _close(phi_d.theta_xhat, 0.0),
        "no X*U term": _close(phi_d.x_u, 0.0),
        "no theta*U term": _close(phi_d.theta_u, 0.0),
    }
    bad = [name for name, ok in checks_d.items() if not ok]
    if bad:
        raise NonCanonicalizable(
            "receiver cost must be a positive multiple of (X - Xhat)^2 plus "
            "U-only terms; violated: " + ", ".join(bad)
        )

    te = phi_e.xhat2
    if te <= 0.0:
        raise NonCanonicalizable("controller cost: Xhat^2 coefficient must be positive")
    k = phi_e.x_theta / (2.0 * te)
    checks_e = {
        "X^2 == Xhat^2": _close(phi_e.x2, te),
        "X*Xhat == -2*Xhat^2": _close(phi_e.x_xhat, -2.0 * te),
        "theta^2 == k^2*Xhat^2": _close(phi_e.theta2, te * k * k),
        "theta*Xhat == -2*k*Xhat^2": _close(phi_e.theta_xhat, -2.0 * te * k),
    }
    bad = [name for name, ok in checks_e.items() if not ok]
    if bad:
        raise NonCanonicalizable(
            "controller cost must reduce to a positive multiple of "
            "(X + k*theta - Xhat)^2 plus U^2, U*X, U*theta terms; violated: "
            + ", ".join(bad)
        )
    k1 = phi_e.u2 / te
    if k1 <= 0.0:
        raise NonCanonicalizable(
            "controller cost: U^2 coefficient must be positive after "
            f"normalization (got {k1!r})"
        )
    return CanonicalForm(k1=k1, k2=phi_e.x_u / te, k3=phi_e.theta_u / te, theta_weight=k)


def expand_canonical(cf: CanonicalForm) -> tuple[QuadraticObjective, QuadraticObjective]:
    """Re-expand a canonical form into an objective pair (unit scaling)."""
    k = cf.theta_weight
    phi_e = QuadraticObjective.from_square(x=1.0, theta=k, xhat=-1.0) + QuadraticObjective(
        u2=cf.k1, x_u=cf.k2, theta_u=cf.k3
    )
    phi_d = QuadraticObjective.from_square(x=1.0, xhat=-1.0)
    return phi_e, phi_d


def classification_report(
    phi_e: QuadraticObjective, phi_d: QuadraticObjective
) -> dict:
    """JSON-ready linearity classification of an objective pair."""
    report: dict = {
        "controller_has_u_xhat_product": has_ux_cross_term(phi_e),
        "receiver_has_u_xhat_product": has_ux_cross_term(phi_d),
        "linear_solution_claimed": False,
        "canonical": None,
    }
    try:
        cf = canonicalize(phi_e, phi_d)
    except NonCanonicalizable as exc:
        report["reason"] = str(exc)
        return report
    report["linear_solution_claimed"] = True
    report["canonical"] = {
        "k1": cf.k1,
        "k2": cf.k2,
        "k3": cf.k3,
        "theta_weight": cf.theta_weight,
    }
    return report


def _direction_terms(model: SourcePairModel, cf: CanonicalForm, a, b):
    """J_k, lambda and Var(S), per sigma_x2, of the encoder direction S = a*X + b*theta:
    J_k is the alignment value of the model with theta scaled to k*theta,
    lambda the U*X / U*theta penalty per unit gain.  Broadcasts over a, b."""
    p = a + b * model.rho  # Cov(X, S) / sigma_x2
    q = a * model.rho + b * model.r  # Cov(theta, S) / sigma_x2
    var = a * p + b * q
    return p * (p + 2.0 * cf.theta_weight * q) / var, cf.k2 * p + cf.k3 * q, var


def _noiseless_power(k1: float) -> float:
    # t for an unattained noiseless infimum, or for an optimum below the
    # decoder's floor (PSD_RTOL): k1*t^2 = 1e-7, with t^2 >= 1e-10 kept.
    return math.sqrt(max(1e-7 / k1, 1e-10))


def _best_power(j, mu, k1: float, n: float):
    """Per direction, the t = sqrt(v / sigma_x2) >= 0 minimizing the cost
    -j*t^2/(t^2 + n) + k1*t^2 - mu*t (per sigma_x2, less its constant), and
    that minimum (``docs/derivation_notes.md`` §8)."""
    if n == 0.0:  # the cost is -j + k1*t^2 - mu*t for every t > 0
        value = np.minimum(-j - mu * mu / (4.0 * k1), 0.0)
        return np.where(value < 0.0, np.maximum(mu / (2.0 * k1), _noiseless_power(k1)), 0.0), value
    # Stationary points solve (2*k1*t - mu)(t^2 + n)^2 = 2*j*n*t.  Scaled by
    # tau, the larger of sqrt(n) and the bound on the minimizer, it reads
    # (s - a)(s^2 + nu)^2 = b*nu*s with a, |b|, nu <= 1 at any noise level.
    tau = np.maximum((mu + np.sqrt(mu * mu + 4.0 * k1 * np.abs(j))) / (2.0 * k1), math.sqrt(n))
    a, b, nu = mu / (2.0 * k1 * tau), j / (k1 * tau * tau), n / (tau * tau)
    companion = np.zeros(a.shape + (5, 5))
    companion[..., 1:, :-1] = np.eye(4)
    companion[..., :, -1] = np.stack([a * nu * nu, nu * (b - nu), 2.0 * a * nu, -2.0 * nu, a], axis=-1)
    # Candidates: every root, clipped at 0 and Newton-polished (small roots
    # lose relative accuracy), and s = 0; any s >= 0 is feasible.
    s = np.maximum(np.linalg.eigvals(companion).real, 0.0)
    a, b, nu = a[..., None], b[..., None], nu[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            q = s * s + nu
            step = ((s - a) * q * q - b * nu * s) / (q * q + 4.0 * s * (s - a) * q - b * nu)
            s = np.where(np.isfinite(step), np.maximum(s - step, 0.0), s)
    s = np.concatenate([s, np.zeros(a.shape)], axis=-1)
    q = s * s + nu  # 0 only where s = 0 and nu underflows
    value = s * s - 2.0 * a * s - b * np.divide(s * s, q, out=np.zeros_like(q), where=q > 0.0)
    pick = np.argmin(value, axis=-1)[..., None]
    s, value = np.take_along_axis(s, pick, -1)[..., 0], np.take_along_axis(value, pick, -1)[..., 0]
    return tau * s, k1 * tau * tau * value


def _scan_directions(model: SourcePairModel, cf: CanonicalForm, n: float) -> tuple[float, float]:
    """Weight alpha and power t of the best encoder direction.  The direction
    is an angle phi, alpha = tan(phi): one scan of period pi covers every alpha."""
    def profile(phi):
        j, lam, var = _direction_terms(model, cf, np.cos(phi), np.sin(phi))
        return _best_power(j, np.abs(lam) / np.sqrt(var), cf.k1, n)

    step = math.pi / _SCAN_POINTS
    phi = step * np.arange(_SCAN_POINTS)
    value = profile(phi)[1]
    local = np.flatnonzero((value <= np.roll(value, 1)) & (value <= np.roll(value, -1)))
    centers = phi[local[np.argsort(value[local], kind="stable")[:_BASINS]]]
    rows = np.arange(len(centers))
    for _ in range(_ZOOM_LEVELS):
        grid = centers[:, None] + step * np.linspace(-1.0, 1.0, _ZOOM_POINTS)
        t, value = profile(grid)
        pick = np.argmin(value, axis=1)
        centers, t, value = grid[rows, pick], t[rows, pick], value[rows, pick]
        step *= 2.0 / (_ZOOM_POINTS - 1)
    best = int(np.argmin(value))
    return math.tan(centers[best]), float(t[best])


def solve_canonical(
    model: SourcePairModel, cf: CanonicalForm, noise_var: float
) -> tuple[LinearScheme, float, float]:
    """Optimal linear control for a canonical game over a Gaussian channel.

    Minimizes the exact controller objective over encoders
    U = c*(X + alpha*theta) observed through noise of variance N =
    ``noise_var`` by a receiver best-responding in squared error, and
    returns the solved scheme with the controller and receiver costs.

    With v = c^2*Var(X + alpha*theta) the objective is const -
    J_k(alpha)*v/(v + N) + k1*v - |lambda(alpha)*c|: J_k is the alignment
    value of the model with theta scaled to k*theta, lambda the U*X /
    U*theta penalty per unit gain (``docs/derivation_notes.md`` §8).  With
    k2 = k3 = 0, alpha = k*best_alpha(sigma_x2, k*rho, k^2*r)
    and v = max(0, sqrt(J_k*N/k1) - N), zero exactly when J_k <= k1*N;
    otherwise one scan over the encoder direction takes each direction's
    best v from its stationarity equation.  The gain's sign makes the
    U*X / U*theta penalty favorable.

    Over a noiseless channel (N = 0) any positive gain delivers the whole
    alignment.  When lambda(alpha*) != 0 the optimum is attained at
    c = |lambda|/(2*k1*Var(X + alpha*theta)).  When lambda(alpha*) = 0, as
    in every k2 = k3 = 0 game, the infimum is the unattained limit c -> 0+;
    the gain returned sends v = 1e-7*sigma_x2/k1, within 1e-7*sigma_x2 of
    it (v = 1e-10*sigma_x2 for k1 > 1000, above the decoder's floor).  The
    same v replaces an optimal signal too weak for the decoder to keep.
    """
    require_valid(model)
    if not (math.isfinite(noise_var) and noise_var >= 0.0):
        raise ValueError("noise_var: must be finite and nonnegative")
    for name in ("k1", "k2", "k3", "theta_weight"):
        if not math.isfinite(getattr(cf, name)):
            raise ValueError(f"{name}: must be finite")
    if cf.k1 <= 0.0:
        raise Unbounded(f"U^2 penalty k1 = {cf.k1!r} is not coercive")

    s2, rho, r, k, n = model.sigma_x2, model.rho, model.r, cf.theta_weight, noise_var / model.sigma_x2
    if cf.k2 == 0.0 and cf.k3 == 0.0:
        alpha = k * float(_stationary_weight(k * rho, k * k * r))
        j = _direction_terms(model, cf, 1.0, alpha)[0]  # positive at the best weight
        if n > 0.0:  # v = sqrt(j*n/k1) - n, written so that it cannot overflow
            t = math.sqrt(max(0.0, math.sqrt(n) * (math.sqrt(j / cf.k1) - math.sqrt(n))))
        else:
            t = _noiseless_power(cf.k1)
    else:
        alpha, t = _scan_directions(model, cf, n)
    if t > 0.0 and t * t + n <= PSD_RTOL:  # a signal the decoder would drop
        t = _noiseless_power(cf.k1)
    _, lam, var = _direction_terms(model, cf, 1.0, alpha)
    c = (-1.0 if lam > 0.0 else 1.0) * t / math.sqrt(var)
    # The kernel's kappa is c times the decoder weight; the tracking error
    # E[(X + k*theta - Xhat)^2] is Var(X + k*theta) - kappa*Cov(X + 2k*theta, S).
    kappa, _, d_d = _linear_costs(rho, r, alpha, c * c, 0.0, n)
    p, q = 1.0 + alpha * rho, rho + alpha * r  # Cov(X, S), Cov(theta, S) per sigma_x2
    track = _signal_ratio(rho, r, k) - kappa * (p + 2.0 * k * q)
    j_e = track + cf.k1 * c * c * var + c * (cf.k2 * p + cf.k3 * q)
    scheme = LinearScheme(enc_gain=c, enc_theta_weight=alpha, dec_y_weight=kappa / c if c else 0.0)
    return scheme, float(s2 * j_e), float(s2 * d_d)


def solve_objectives(
    model: SourcePairModel,
    phi_e: QuadraticObjective,
    phi_d: QuadraticObjective,
    noise_var: float,
) -> tuple[CanonicalForm, LinearScheme, float, float]:
    """Gatekeeping path from raw objectives to a solved linear scheme.

    Canonicalizes first (refusing cross-term games), then solves.  The
    returned expected costs are in the raw objectives' units, including the
    receiver's U-only terms (which never influence the solution itself).
    """
    cf = canonicalize(phi_e, phi_d)
    scheme, j_e, j_d = solve_canonical(model, cf, noise_var)
    u2 = model.sigma_x2 * scheme.enc_gain**2 * _signal_ratio(model.rho, model.r, scheme.enc_theta_weight)
    raw_e = phi_e.xhat2 * j_e + phi_e.const
    raw_d = phi_d.xhat2 * j_d + phi_d.u2 * u2 + phi_d.const
    return cf, scheme, float(raw_e), float(raw_d)
