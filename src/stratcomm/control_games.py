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

The canonicalizer is deliberately conservative: it reads the form off the
costs, re-expands it and rejects anything that does not match.  Linear
monomials and constants are dropped: every variable is zero mean, so they
contribute nothing to either expectation within the model class handled here.

A canonical game reduces to the disclosure game it extends, and one root
solve gives its optimum (see :func:`solve_canonical`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .equilibrium import _linear_costs, _signal_ratio
from .errors import CrossTermPresent, NonCanonicalizable, Unbounded
from .gausslin import PSD_RTOL, LinearScheme, SourcePairModel, _require_finite, require_valid

_REL_TOL = 1e-9
_ABS_TOL = 1e-12

# JSON aliases: keys as they appear in objective tables elsewhere.
_KEY_ALIASES = {
    "x_hat2": "xhat2",
    "xx_hat": "x_xhat",
    "thetax_hat": "theta_xhat",
    "ux_hat": "u_xhat",
    "x_hat": "xhat",
}

# The quadratic monomials, in field order: what canonicalize compares.
_QUADRATIC = ("x2", "theta2", "u2", "xhat2", "x_theta", "x_u", "x_xhat", "theta_u", "theta_xhat", "u_xhat")


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

    With t and t' the controller's and receiver's Xhat^2 coefficients, the
    form cf = (k, k1, k2, k3) is read off the controller's X*theta, U^2, U*X
    and U*theta coefficients, and the accepted family is: controller
    t * expand_canonical(cf)[0] = t * [(X + k*theta - Xhat)^2 + k1*U^2 +
    k2*U*X + k3*U*theta], receiver t' * expand_canonical(cf)[1] =
    t' * (X - Xhat)^2 plus U-only terms, with t, t', k1 > 0, up to linear
    monomials and constants (dropped under the zero-mean convention).

    Raises :class:`CrossTermPresent` when either cost contains a U*Xhat
    product and :class:`NonCanonicalizable` for any other shape mismatch.
    """
    for who, phi in (("controller", phi_e), ("receiver", phi_d)):
        if has_ux_cross_term(phi):
            raise CrossTermPresent(
                f"{who} cost contains a U*Xhat product; no linearity claim is made for that family"
            )
    te, td = phi_e.xhat2, phi_d.xhat2
    if td <= 0.0:
        raise NonCanonicalizable("receiver cost: Xhat^2 coefficient must be positive")
    s = te or math.nan  # te = 0 is refused below, after the receiver's shape
    k = phi_e.x_theta / (2.0 * s)
    cf = CanonicalForm(k1=phi_e.u2 / s, k2=phi_e.x_u / s, k3=phi_e.theta_u / s, theta_weight=k)
    # the scale goes into the expansion, which forms t*k*k as (t*k)*k: finite where k*k overflows
    _require_match(phi_d, expand_canonical(cf, td)[1], ("xhat2", "u2"),
                   "receiver cost must be a positive multiple of (X - Xhat)^2 plus U-only terms")
    if te <= 0.0:
        raise NonCanonicalizable("controller cost: Xhat^2 coefficient must be positive")
    _require_match(phi_e, expand_canonical(cf, te)[0], ("xhat2", "x_theta", "u2", "x_u", "theta_u"),
                   "controller cost must reduce to a positive multiple of "
                   "(X + k*theta - Xhat)^2 plus U^2, U*X, U*theta terms")
    if cf.k1 <= 0.0:
        raise NonCanonicalizable(
            f"controller cost: U^2 coefficient must be positive after normalization (got {cf.k1!r})"
        )
    return cf


def _require_match(phi: QuadraticObjective, expansion: QuadraticObjective, read_off: tuple, shape: str) -> None:
    """Refuse unless each quadratic monomial of phi, bar those read off, is _close to the expansion's."""
    bad = [n for n in _QUADRATIC if n not in read_off and not _close(getattr(phi, n), getattr(expansion, n))]
    if bad:
        raise NonCanonicalizable(f"{shape}; mismatched: {', '.join(bad)}")


def expand_canonical(cf: CanonicalForm, scale: float = 1.0) -> tuple[QuadraticObjective, QuadraticObjective]:
    """Re-expand a canonical form into an objective pair, both costs times ``scale``."""
    square = QuadraticObjective.from_square(x=1.0, theta=cf.theta_weight, xhat=-1.0, scale=scale)
    phi_e = replace(square, u2=scale * cf.k1, x_u=scale * cf.k2, theta_u=scale * cf.k3)
    return phi_e, QuadraticObjective.from_square(x=1.0, xhat=-1.0, scale=scale)


def classification_report(phi_e: QuadraticObjective, phi_d: QuadraticObjective) -> dict:
    """JSON-ready linearity classification of an objective pair."""
    try:
        outcome = canonicalize(phi_e, phi_d)
    except NonCanonicalizable as exc:
        outcome = exc
    return _classification(phi_e, phi_d, outcome)


def _classification(
    phi_e: QuadraticObjective, phi_d: QuadraticObjective, outcome: CanonicalForm | NonCanonicalizable
) -> dict:
    """:func:`classification_report` from the pair's canonical form or its refusal."""
    report: dict = {
        "controller_has_u_xhat_product": has_ux_cross_term(phi_e),
        "receiver_has_u_xhat_product": has_ux_cross_term(phi_d),
        "linear_solution_claimed": False,
        "canonical": None,
    }
    if isinstance(outcome, NonCanonicalizable):
        report["reason"] = str(outcome)
        return report
    report["linear_solution_claimed"] = True
    report["canonical"] = asdict(outcome)
    return report


def _noiseless_power(k1: float) -> float:
    # |z| sent for an unattained noiseless infimum or in place of a weaker signal: k1*|z|^2 = 1e-7, |z|^2 >= 1e-10
    return math.sqrt(max(1e-7 / k1, 1e-10))


def _cost(w1, w0, m1, m0, l1, l0, nu):
    """f(w) = -(w^T M w)/(|w|^2 + nu) + |w|^2 + l.w, scaled, in M's eigenbasis (§8)."""
    d = w1 * w1 + w0 * w0
    if not d + nu:  # |w|^2 underflows at nu = 0: no candidate, as no signal already covers w = 0
        return math.inf
    return d + l1 * w1 + l0 * w0 - (m1 * w1 * w1 + m0 * w0 * w0) / (d + nu)


def _polish(w1, w0, m1, m0, l1, l0, nu):
    """(f, w1, w0) after Newton steps on the gradient of :func:`_cost` from w, or at w."""
    start = (_cost(w1, w0, m1, m0, l1, l0, nu), w1, w0)
    for _ in range(16):  # from a root, 1 to 8 steps reach a fixed point
        d = w1 * w1 + w0 * w0 + nu
        if not d:  # a step to |w|^2 = 0 at nu = 0 costs inf, so the start is kept
            break
        p1, p0 = w1 / d, w0 / d
        beta = m1 * p1 * p1 + m0 * p0 * p0  # (w^T M w) / d^2
        # the gradient is 2*c*w + l and the Hessian 2*diag(c) + 2*(u p^T + p u^T)
        c1, c0 = 1.0 + beta - m1 / d, 1.0 + beta - m0 / d
        u1, u0 = 2.0 * p1 * (m1 - beta * d), 2.0 * p0 * (m0 - beta * d)
        h11, h00, h10 = 2.0 * c1 + 4.0 * u1 * p1, 2.0 * c0 + 4.0 * u0 * p0, 2.0 * (u1 * p0 + p1 * u0)
        det = h11 * h00 - h10 * h10
        if not (det and math.isfinite(det)):
            break
        g1, g0 = 2.0 * w1 * c1 + l1, 2.0 * w0 * c0 + l0
        s1, s0 = (h00 * g1 - h10 * g0) / det, (h11 * g0 - h10 * g1) / det
        w1, w0 = w1 - s1, w0 - s0
        if abs(s1) + abs(s0) <= 1e-15 * (abs(w1) + abs(w0)):
            break
    end = (_cost(w1, w0, m1, m0, l1, l0, nu), w1, w0)
    return end if end[0] <= start[0] else start  # ties go to the end, a NaN to the start


def _signal(m1, m0, l1, l0, nu):
    """The scaled whitened signal w minimizing :func:`_cost`: the best of no signal, the hard case
    x = 0 and one Newton-polished point per positive root x of the polynomial of §8 (w -> 0+ at nu = 0)."""
    best = (0.0, 0.0, 0.0)
    if l0 * l0 < 4.0:  # x = 0, exact when l1 = 0: D^2*(1 - l0^2/4) = m1*nu, w1 free on its sphere
        d = math.sqrt(m1 * nu / (1.0 - l0 * l0 / 4.0))
        w0 = -d * l0 / 2.0
        if d - nu - w0 * w0 > 0.0:
            w1 = math.sqrt(d - nu - w0 * w0) * (-1.0 if l1 > 0.0 else 1.0)
            exact = (_cost(w1, w0, m1, m0, l1, l0, nu), w1, w0)
            best = min(best, _polish(w1, w0, m1, m0, l1, l0, nu) if l1 else exact)
    q1, q0, roots = l1 * l1, l0 * l0, []
    b = 4.0 - q1 - q0  # its left side is 4(m1 + x)x^3(1 + x)^3(4x^2 + b*x - q1)
    if nu == 0.0:  # the right side vanishes: the positive root of 4x^2 + b*x - q1
        roots = [2.0 * q1 / (b + math.hypot(b, 4.0 * l1)) if b > 0.0 else (math.hypot(b, 4.0 * l1) - b) / 8.0]
    elif l1 or l0:  # with l = 0 every root gives w = 0
        e = 1.0 / (1.0 + (q1 + q0) / 4.0)  # in x*e every root and coefficient stays bounded
        lhs = np.convolve(np.convolve([4.0, 4.0 * m1 * e], [4.0, b * e, -q1 * e * e]), np.poly([0.0] * 3 + [-e] * 3))
        kx = np.array([4.0, 8.0, 4.0 + m0 * q0 + m1 * q1, 2.0 * m1 * q1, m1 * q1]) * e ** np.arange(5.0)
        lhs[1:] -= nu * e * np.convolve(kx, kx)
        if not np.isfinite(lhs).all():
            raise OverflowError("the control polynomial overflows at this scale")
        roots = (np.roots(lhs).real / e).tolist()
    for x in [x for x in roots if x > 0.0]:
        y1, y0 = -l1 / (2.0 * x), -l0 / (2.0 * (1.0 + x))
        b = m1 * y1 * y1 + m0 * y0 * y0 + 1.0
        if b > 0.0:
            d = (m1 + x) / b
            best = min(best, _polish(d * y1, d * y0, m1, m0, l1, l0, nu))
    return best[1], best[2]


def solve_canonical(
    model: SourcePairModel, cf: CanonicalForm, noise_var: float
) -> tuple[LinearScheme, float, float]:
    """Optimal linear control for a canonical game over a Gaussian channel.

    Minimizes the exact controller objective over encoders
    U = c*(X + alpha*theta) observed through noise of variance N =
    ``noise_var`` by a receiver best-responding in squared error, and
    returns the solved scheme with the controller and receiver costs.

    In whitened coordinates z = L^T c*(1, alpha), with L L^T the covariance
    of (X, theta), the cost per sigma_x2 is Var(X + k*theta) -
    (g.z)(h.z)/(|z|^2 + n) + k1*|z|^2 + l.z, n = N/sigma_x2.  Its minimizer
    is the best of no signal, the hard case and one candidate per positive
    root of one polynomial (``docs/derivation_notes.md`` §8).  Pure tracking
    is the hard case: alpha = k*best_alpha(sigma_x2, k*rho, k^2*r), also
    reported when nothing is sent, and v = max(0, sqrt(J_k*N/k1) - N).

    When N = 0 and the optimum is not attained, as in every k2 = k3 = 0
    game, the infimum is the limit c -> 0+; the gain returned sends
    v = 1e-7*sigma_x2/k1, within 1e-7*sigma_x2 of it (v = 1e-10*sigma_x2
    for k1 > 1000).  The same v replaces a weaker optimal signal whose
    power plus noise is below 1e-12*sigma_x2, unless it costs more than
    sending nothing.

    Raises :class:`OverflowError` when the gain or a cost is not finite.
    """
    require_valid(model)
    if not (math.isfinite(noise_var) and noise_var >= 0.0):
        raise ValueError("noise_var: must be finite and nonnegative")
    _require_finite(**vars(cf))
    if cf.k1 <= 0.0:
        raise Unbounded(f"U^2 penalty k1 = {cf.k1!r} is not coercive")

    s2, rho, r, k, n = model.sigma_x2, model.rho, model.r, cf.theta_weight, noise_var / model.sigma_x2
    s = math.sqrt(r - rho * rho)  # L = [[1, 0], [rho, s]], so g = (1, 0)
    a = math.hypot(1.0 + 2.0 * k * rho, 2.0 * k * s)  # |h|, h = L^T (1, 2k)
    # M/|h| has eigenvalues (hx +- 1)/2; its top eigenvector (e1, e2), L^T (1 + |h|, 2k), bisects g and h.
    hx, ht = (1.0 + 2.0 * k * rho) / a, 2.0 * k * s / a
    hp = 1.0 + hx if hx >= 0.0 else ht * ht / (1.0 - hx)  # 1 + hx, without cancellation
    m1, m0 = hp / 2.0, -(ht * ht / hp if hx >= 0.0 else 1.0 - hx) / 2.0
    e1, e2 = hp / math.hypot(hp, ht), ht / math.hypot(hp, ht)
    # z = tau*w with tau = sqrt(|h|/k1) and f divided by |h|, so k1 = |h| = 1
    tau, root = math.sqrt(a) / math.sqrt(cf.k1), math.sqrt(a) * math.sqrt(cf.k1)
    lx, lt = (cf.k2 + cf.k3 * rho) / root, cf.k3 * s / root
    l1, l0, nu, floor = lx * e1 + lt * e2, lt * e1 - lx * e2, n / tau / tau, _noiseless_power(cf.k1) / tau
    w1, w0 = _signal(m1, m0, l1, l0, nu)
    t = math.hypot(w1, w0)
    # Raise to the floor a noiseless optimum, attained or not, or a signal whose power plus noise is below PSD_RTOL.
    if t < floor and (nu == 0.0 or 0.0 < t and tau * t * tau * t + n <= PSD_RTOL):
        w1, w0 = (w1 * floor / t, w0 * floor / t) if t else (floor, 0.0)
    if (w1 or w0) and _cost(w1, w0, m1, m0, l1, l0, nu) >= 0.0:  # the floor costs more than it gains
        w1 = w0 = 0.0
    u2 = tau * (w1 * e2 + w0 * e1) / s  # U = c*X + u2*theta
    # U = c*(X + alpha*theta) reaches a pure-theta signal only as c -> 0; 2^-52*u2 costs the same
    c = tau * (w1 * e1 - w0 * e2) - rho * u2 or 2.0 ** -52 * u2
    alpha = u2 / c if c else 2.0 * k / (1.0 + a)
    # The kernel's kappa is c times the decoder weight; the tracking error
    # E[(X + k*theta - Xhat)^2] is Var(X + k*theta) - kappa*Cov(X + 2k*theta, S).
    kappa, _, d_d = _linear_costs(rho, r, alpha, c * c, 0.0, n)
    p, q = 1.0 + alpha * rho, rho + alpha * r  # Cov(X, S), Cov(theta, S) per sigma_x2
    track = _signal_ratio(rho, r, k) - kappa * (p + 2.0 * k * q)
    j_e = s2 * (track + cf.k1 * c * c * _signal_ratio(rho, r, alpha) + c * (cf.k2 * p + cf.k3 * q))
    if not all(map(math.isfinite, (c, alpha, j_e, s2 * d_d))):
        raise OverflowError("the solved gain or costs are not finite at this scale")
    scheme = LinearScheme(enc_gain=c, enc_theta_weight=alpha, dec_y_weight=kappa / c if c else 0.0)
    return scheme, float(j_e), float(s2 * d_d)


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
    return (cf, *_solve_form(model, cf, phi_e, phi_d, noise_var))


def _solve_form(
    model: SourcePairModel,
    cf: CanonicalForm,
    phi_e: QuadraticObjective,
    phi_d: QuadraticObjective,
    noise_var: float,
) -> tuple[LinearScheme, float, float]:
    """:func:`solve_objectives` for a pair whose canonical form ``cf`` is already known."""
    scheme, j_e, j_d = solve_canonical(model, cf, noise_var)
    u2 = model.sigma_x2 * scheme.enc_gain**2 * _signal_ratio(model.rho, model.r, scheme.enc_theta_weight)
    raw_e = phi_e.xhat2 * j_e + phi_e.const
    raw_d = phi_d.xhat2 * j_d + phi_d.u2 * u2 + phi_d.const
    return scheme, float(raw_e), float(raw_d)
