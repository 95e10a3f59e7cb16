"""The benchmark's seeded workloads.

Each workload turns ``(seed, round index)`` into a list of operations.  An
operation is one call into the public API of ``stratcomm`` (or one
``stratcomm.cli.main`` command) plus a check of its output against
:mod:`reference` or against a property the method must have.  An operation
fails when the call raises or the check misses.

Every round of a workload holds the same operations in the same order; only
the generated inputs change with the seed and the round index.  Program
functions are looked up on their modules at call time (``sc.rd_point``, not
a name bound at import), so the traced run sees every call.

Tolerances come from each route's stated accuracy:

* ``EXACT`` (1e-9, relative): two exact-arithmetic routes on the same model,
  for example a closed form against covariance propagation.  It covers the
  cancellation floor of the quotient root formula, about eps / 1e-6, just
  above the package's series cutoff.
* ``SEARCH`` (1e-7, relative to max(1, |w|)): weights found by grid plus
  golden-section search.  Pure value comparison places a minimum to about
  sqrt(eps) = 1.5e-8 of the weight scale.
* ``ROUNDING`` (1e-12, relative): quantities that differ only by rounding,
  such as the power actually spent against the budget.
* ``MATCH`` (1e-6): the matching residual and gap, from the default ``tol``
  of ``match_condition``.
* ``CONTROL`` (1e-6, relative): weight and signal power of the nested
  control search, which its docstring puts at about 1e-8.
* ``Z_MAX`` (5): Monte Carlo z-scores against reference costs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
import stratcomm as sc
from stratcomm import cli

EXACT = 1e-9
SEARCH = 1e-7
ROUNDING = 1e-12
MATCH = 1e-6
CONTROL = 1e-6
Z_MAX = 5.0
ACE_TOL = 0.02  # the battery's pinned accuracy at n = 1e5, 64 bins

MC_ROWS = 2**20
ACE_ROWS = 2**17
CODEC_ROWS = 2**19


class CheckFailed(Exception):
    """An operation's output missed its check."""


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: bool = False


@dataclass
class Round:
    ops: list[Op]
    cleanup: Callable[[], None] = lambda: None


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def near(what: str, got, want, tol: float, scale: float = 1.0) -> None:
    """|got - want| <= tol * max(scale, |want|); NaN never passes."""
    got = float(got)
    want = float(want)
    if not abs(got - want) <= tol * max(scale, abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def near_all(what: str, got, want, tol: float, scale: float = 1.0) -> None:
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    bad = ~(np.abs(got - want) <= tol * np.maximum(scale, np.abs(want)))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckFailed(f"{what}[{i}]: got {got.flat[i]!r}, want {want.flat[i]!r}")


def z_ok(what: str, estimate: float, stderr: float, want: float) -> None:
    expect(math.isfinite(stderr) and stderr > 0.0, f"{what}: bad stderr {stderr!r}")
    z = abs(estimate - want) / stderr
    expect(z <= Z_MAX, f"{what}: z = {z:.2f} > {Z_MAX}")


# ---------------------------------------------------------------------------
# Seeded inputs


def draw_pair(rng: np.random.Generator) -> sc.SourcePairModel:
    rho = float(rng.uniform(-0.85, 0.85))
    return sc.SourcePairModel(
        sigma_x2=float(rng.uniform(0.25, 4.0)),
        rho=rho,
        r=float(rho * rho + rng.uniform(0.05, 2.5)),
    )


def draw_channel(rng: np.random.Generator) -> sc.ChannelSpec:
    return sc.ChannelSpec(power=float(rng.uniform(0.2, 8.0)), noise_var=float(rng.uniform(0.2, 4.0)))


def pair_cov(m: sc.SourcePairModel) -> np.ndarray:
    return ref.pair_cov(m.sigma_x2, m.rho, m.r)


def si_cov(m: sc.SideInfoModel) -> np.ndarray:
    return ref.si_cov(m.sigma_x2, m.rho_x_theta, m.r_theta, m.rho_x_w, m.rho_theta_w, m.r_w)


def draw_si(rng: np.random.Generator) -> sc.SideInfoModel:
    """W = a*X + b*theta + E with independent E, so the covariance is PD.

    Redrawn until the equilibrium weight sits well inside the package's
    search interval [-10, 10].
    """
    while True:
        s2 = float(rng.uniform(0.5, 2.0))
        rxt = float(rng.uniform(-0.6, 0.6))
        rt = float(rxt * rxt + rng.uniform(0.2, 2.0))
        a, b = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
        e = float(rng.uniform(0.2, 1.5))
        m = sc.SideInfoModel(
            sigma_x2=s2,
            rho_x_theta=rxt,
            r_theta=rt,
            rho_x_w=a + b * rxt,
            rho_theta_w=a * rxt + b * rt,
            r_w=a * a + 2.0 * a * b * rxt + b * b * rt + e,
        )
        if abs(ref.si_alpha(si_cov(m))) < 8.0:
            return m


def _match_residual(m: sc.SideInfoModel, rho_x_w: float) -> float:
    return rho_x_w + m.rho_theta_w * ref.si_alpha(si_cov(replace(m, rho_x_w=rho_x_w)))


def draw_si_with_root(rng: np.random.Generator) -> sc.SideInfoModel:
    """A side-information model whose matching residual changes sign."""
    while True:
        m = draw_si(rng)
        if abs(m.rho_theta_w) < 0.05:
            continue
        lo, hi = ref.feasible_rho_xw(m.rho_x_theta, m.r_theta, m.rho_theta_w, m.r_w)
        pad = 1e-6 * (hi - lo)
        try:
            f_lo = _match_residual(m, lo + pad)
            f_hi = _match_residual(m, hi - pad)
        except (ValueError, ZeroDivisionError):
            continue
        ends = (replace(m, rho_x_w=x) for x in (lo + pad, hi - pad))
        if f_lo * f_hi < 0.0 and max(abs(ref.si_alpha(si_cov(e))) for e in ends) < 8.0:
            return m


# ---------------------------------------------------------------------------
# Pair solvers


def op_solve_noiseless(m: sc.SourcePairModel) -> Op:
    def check(rep) -> None:
        want = ref.pair_equilibrium(m.sigma_x2, m.rho, m.r)
        near("alpha", rep.alpha, want.alpha, EXACT)
        near("kappa", rep.kappa, want.kappa, EXACT)
        near("d_e", rep.costs.d_e, want.d_e, EXACT, m.sigma_x2)
        near("d_d", rep.costs.d_d, want.d_d, EXACT, m.sigma_x2)
        near("a_aux", rep.a_aux, math.sqrt(1.0 + 4.0 * (m.r + m.rho)), ROUNDING)

    return Op("solve_noiseless", lambda: sc.solve_noiseless(m), check)


def op_rd_point(m: sc.SourcePairModel, rate: float, curve: dict) -> Op:
    """One point of the rate curve; ``curve`` links the points of one model."""

    def check(point) -> None:
        want = ref.rd_reference(m.sigma_x2, m.rho, m.r, rate)
        near("beta", point.beta, want.beta, EXACT)
        near("sigma_s2", point.sigma_s2, want.sigma_s2, EXACT)
        near("d_e", point.costs.d_e, want.d_e, EXACT, m.sigma_x2)
        near("d_d", point.costs.d_d, want.d_d, EXACT, m.sigma_x2)
        spent = ref.test_channel_rate(ref.signal_var(pair_cov(m), point.beta), point.sigma_s2)
        near("rate of the test channel", spent, rate, EXACT)
        floor = m.sigma_x2 * 2.0 ** (-2.0 * rate)
        expect(point.costs.d_d >= floor * (1.0 - ROUNDING), "d_d below sigma^2 * 2^(-2R)")
        prev = curve.get("prev")
        if prev is not None:
            expect(prev[0] < rate, "rates must ascend within a curve")
            expect(point.costs.d_e <= prev[1] * (1.0 + ROUNDING), "d_e rose with rate")
            expect(point.costs.d_d <= prev[2] * (1.0 + ROUNDING), "d_d rose with rate")
        curve["prev"] = (rate, point.costs.d_e, point.costs.d_d)

    return Op("rd_point", lambda: sc.rd_point(m, rate), check)


def op_noisy(m: sc.SourcePairModel, ch: sc.ChannelSpec) -> Op:
    def call():
        return sc.solve_noisy(m, ch), sc.opta_bound(m, ch)

    def check(out) -> None:
        (scheme, costs), bound = out
        cov = pair_cov(m)
        alpha = ref.pair_alpha(m.rho, m.r)
        near("theta weight", scheme.enc_theta_weight, alpha, EXACT)
        spent = scheme.enc_gain**2 * ref.signal_var(cov, scheme.enc_theta_weight)
        near("power spent", spent, ch.power, ROUNDING)
        want = ref.scheme_costs(cov, alpha, gain=scheme.enc_gain, n_var=ch.noise_var)
        near("dec_y_weight", scheme.dec_y_weight, want.ky, EXACT)
        near("d_e", costs.d_e, want.d_e, EXACT, m.sigma_x2)
        near("d_d", costs.d_d, want.d_d, EXACT, m.sigma_x2)
        at_capacity = ref.rd_reference(m.sigma_x2, m.rho, m.r, ref.capacity(ch.power, ch.noise_var))
        near("opta bound", bound, at_capacity.d_e, EXACT, m.sigma_x2)
        near("d_e reaches the bound", costs.d_e, bound, EXACT, m.sigma_x2)

    return Op("noisy", call, check)


def _panel_reference(panel: str, lo: float, hi: float, model, noise_var: float):
    if panel == "fig3a":
        grid = np.linspace(lo, hi, 200)
        a = ref.pair_alpha_vec(0.0, grid)
        d_e, d_d = ref.pair_costs_vec(1.0, 0.0, grid, a, 1.0, 0.0)
        return ("r", "d_e", "d_d", "valid"), np.column_stack([grid, d_e, d_d, np.ones_like(grid)])
    if panel == "fig3b":
        grid = np.linspace(lo, hi, 181)
        a = ref.pair_alpha_vec(grid, 1.0)
        d_e, d_d = ref.pair_costs_vec(1.0, grid, 1.0, a, 1.0, 0.0)
        return ("rho", "d_e", "d_d", "valid"), np.column_stack([grid, d_e, d_d, np.ones_like(grid)])
    if panel == "fig3c":
        rates = np.linspace(lo, hi, 101)
        cols = [rates]
        for r in (1.0, 0.1):
            a = ref.pair_alpha(0.0, r)
            var_v = 1.0 + a * a * r
            with np.errstate(divide="ignore"):
                noise = var_v / np.expm1(2.0 * rates * math.log(2.0))
            cols.extend(ref.pair_costs_vec(1.0, 0.0, r, a, 1.0, noise))
        return ("rate_bits", "d_e_r1", "d_d_r1", "d_e_r01", "d_d_r01"), np.column_stack(cols)
    ratios = np.linspace(lo, hi, 60)
    s2, rho, r = model.sigma_x2, model.rho, model.r
    a = ref.pair_alpha(rho, r)
    var_v = s2 * (1.0 + 2.0 * a * rho + a * a * r)
    g2 = ratios * noise_var / var_v
    d_e, d_d = ref.pair_costs_vec(s2, rho, r, a, g2, noise_var)
    cap = 0.5 * np.log2(1.0 + ratios)
    header = ("p_over_n", "capacity_bits", "d_e", "d_d", "gain")
    return header, np.column_stack([ratios, cap, d_e, d_d, np.sqrt(g2)])


def check_panel_rows(panel, lo, hi, model, noise_var, header, rows) -> None:
    want_header, want = _panel_reference(panel, lo, hi, model, noise_var)
    expect(tuple(header) == want_header, f"{panel}: header {header!r}")
    got = np.array(rows, dtype=float)
    expect(got.shape == want.shape, f"{panel}: shape {got.shape} != {want.shape}")
    near_all(f"{panel} grid", got[:, 0], want[:, 0], ROUNDING)
    scale = 1.0 if model is None else model.sigma_x2
    near_all(f"{panel} values", got[:, 1:], want[:, 1:], EXACT, scale)


def op_panel(panel: str, lo: float, hi: float, model=None, noise_var: float = 1.0) -> Op:
    def call():
        return cli.panel_rows(panel, lo=lo, hi=hi, model=model, noise_var=noise_var)

    def check(out) -> None:
        check_panel_rows(panel, lo, hi, model, noise_var, *out)

    return Op(f"panel_{panel}", call, check)


def draw_panels(rng: np.random.Generator) -> list[tuple]:
    """(panel, lo, hi, model, noise_var) for the four panels."""
    return [
        ("fig3a", float(rng.uniform(0.05, 0.5)), float(rng.uniform(5.0, 10.0)), None, 1.0),
        ("fig3b", float(rng.uniform(-0.9, -0.5)), float(rng.uniform(0.5, 0.9)), None, 1.0),
        ("fig3c", float(rng.uniform(0.0, 0.5)), float(rng.uniform(4.0, 6.0)), None, 1.0),
        (
            "custom",
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(10.0, 20.0)),
            draw_pair(rng),
            float(rng.uniform(0.5, 2.0)),
        ),
    ]


# ---------------------------------------------------------------------------
# Searches


def _si_costs_check(m: sc.SideInfoModel, weight: float, costs, t_var: float = 0.0, decoder=None) -> None:
    want = ref.scheme_costs(si_cov(m), weight, t_var=t_var)
    if decoder is not None:
        near("dec_y", decoder[0], want.ky, EXACT)
        near("dec_w", decoder[1], want.kw, EXACT)
    near("d_e", costs.d_e, want.d_e, EXACT, m.sigma_x2)
    near("d_d", costs.d_d, want.d_d, EXACT, m.sigma_x2)


def op_solve_noiseless_si(m: sc.SideInfoModel, b: float) -> Op:
    """The equilibrium, plus the invariance: adding b*W at the encoder moves no cost."""

    def call():
        rep = sc.solve_noiseless_si(m)
        scheme = sc.LinearScheme(enc_theta_weight=rep.alpha_si, enc_si_weight=b)
        return rep, sc.best_decoder(m, scheme)[1]

    def check(out) -> None:
        rep, with_w = out
        cov = si_cov(m)
        alpha = ref.si_alpha(cov)
        near("alpha_si", rep.alpha_si, alpha, SEARCH)
        _si_costs_check(m, rep.alpha_si, rep.costs, decoder=(rep.dec_y, rep.dec_w))
        best = ref.scheme_costs(cov, alpha)
        expect(rep.costs.d_e <= best.d_e + EXACT * m.sigma_x2, "d_e above the reference optimum")
        near("d_e with b*W", with_w.d_e, rep.costs.d_e, EXACT, m.sigma_x2)
        near("d_d with b*W", with_w.d_d, rep.costs.d_d, EXACT, m.sigma_x2)

    return Op("solve_noiseless_si", call, check)


def op_si_rd_point(m: sc.SideInfoModel, rate: float, curve: dict) -> Op:
    def check(point) -> None:
        cov = si_cov(m)
        near("beta", point.beta, ref.si_alpha(cov), SEARCH)
        var_c = ref.signal_var(cov, point.beta, given_w=True)
        near("sigma_s2", point.sigma_s2, ref.sigma_s2_for_rate(var_c, rate), EXACT)
        near("rate given W", ref.test_channel_rate(var_c, point.sigma_s2), rate, EXACT)
        _si_costs_check(m, point.beta, point.costs, t_var=point.sigma_s2)
        best = ref.si_rd_reference(cov, rate)
        expect(point.costs.d_e <= best.d_e + EXACT * m.sigma_x2, "d_e above the reference optimum")
        prev = curve.get("prev")
        if prev is not None:
            expect(point.costs.d_e <= prev[0] * (1.0 + ROUNDING), "d_e rose with rate")
            expect(point.costs.d_d <= prev[1] * (1.0 + ROUNDING), "d_d rose with rate")
        curve["prev"] = (point.costs.d_e, point.costs.d_d)

    return Op("si_rd_point", lambda: sc.si_rd_point(m, rate), check)


def _check_match_row(m: sc.SideInfoModel, ch: sc.ChannelSpec, rate, beta, residual, gap) -> None:
    cov = si_cov(m)
    near("capacity", rate, ref.capacity(ch.power, ch.noise_var), ROUNDING)
    near("beta", beta, ref.si_alpha(cov), SEARCH)
    near("residual", residual, abs(m.rho_x_w + m.rho_theta_w * beta), ROUNDING)
    want_gap = ref.match_gap(cov, beta, ch.power, ch.noise_var)
    near("gap", gap, want_gap, EXACT, m.sigma_x2)
    expect(gap >= -EXACT * m.sigma_x2, f"negative gap {gap!r}")


def op_match_condition(m: sc.SideInfoModel, ch: sc.ChannelSpec) -> Op:
    def check(rep) -> None:
        _check_match_row(m, ch, rep.rate, rep.beta, rep.residual, rep.gap)
        expect(rep.matched == (rep.residual <= MATCH), "matched flag disagrees with the residual")

    return Op("match_condition", lambda: sc.match_condition(m, ch), check)


def check_matched_root(m: sc.SideInfoModel, ch: sc.ChannelSpec, root: float) -> None:
    lo, hi = ref.feasible_rho_xw(m.rho_x_theta, m.r_theta, m.rho_theta_w, m.r_w)
    expect(lo < root < hi, f"root {root!r} outside ({lo!r}, {hi!r})")
    matched = replace(m, rho_x_w=root)
    cov = si_cov(matched)
    alpha = ref.si_alpha(cov)
    residual = abs(root + m.rho_theta_w * alpha)
    gap = ref.match_gap(cov, alpha, ch.power, ch.noise_var)
    expect(residual <= MATCH, f"residual {residual:.3g} at the root")
    expect(abs(gap) <= MATCH * m.sigma_x2, f"gap {gap:.3g} at the root")


def op_find_matched(m: sc.SideInfoModel, ch: sc.ChannelSpec) -> Op:
    return Op(
        "find_matched_rho_xw",
        lambda: sc.find_matched_rho_xw(m, ch),
        lambda root: check_matched_root(m, ch, root),
    )


def op_match_sweep(m: sc.SideInfoModel, ch: sc.ChannelSpec, points: int = 51) -> Op:
    def check(out) -> None:
        header, rows = out
        expect(tuple(header) == ("rho_x_w", "rate_bits", "beta", "residual", "gap"), "header")
        expect(len(rows) == points, f"{len(rows)} rows")
        lo, hi = ref.feasible_rho_xw(m.rho_x_theta, m.r_theta, m.rho_theta_w, m.r_w)
        grid = np.linspace(lo, hi, points + 2)[1:-1]
        near_all("grid", [row[0] for row in rows], grid, EXACT)
        for row in rows:
            _check_match_row(replace(m, rho_x_w=row[0]), ch, *row[1:])

    return Op("match_sweep", lambda: sc.match_sweep(m, ch, points), check)


# Fixed control games.  The nested search in solve_canonical brackets its
# golden-section step by one alpha-grid spacing around the joint grid
# minimum; on some models that bracket misses the optimum and the search
# returns the grid point.  Seeded games would therefore fail on some seeds
# only, so the games are fixed: two it solves, and one it misses every time.
CONTROL_SOLVED = (
    # (sigma_x2, rho, r, k, k1, k2, k3, noise_var)
    (1.0, 0.0, 1.0, 1.0, 0.1, 0.0, 0.0, 1.0),
    (1.0, 0.2, 1.3, 0.8, 0.15, 0.2, -0.1, 0.7),
)
CONTROL_KNOWN_FAULT = (
    1.8948927282908683, -0.6732831542858927, 0.7753934859853526,
    -1.184231597426808, 0.11525948219306371, 0.0, 0.0, 1.1164066598932054,
)


def check_control(game: tuple, scheme, j_e: float, j_d: float) -> None:
    s2, rho, r, k, k1, k2, k3, noise = game
    alpha, c = scheme.enc_theta_weight, scheme.enc_gain
    scale = 1.0 + abs(j_e)
    at_solution = float(ref.control_objective(s2, rho, r, k, k1, k2, k3, noise, alpha, c))
    near("controller cost", j_e, at_solution, EXACT, scale)
    want = ref.scheme_costs(ref.pair_cov(s2, rho, r), alpha, gain=c, n_var=noise)
    near("receiver cost", j_d, want.d_d, EXACT, s2)
    near("dec_y_weight", scheme.dec_y_weight, want.ky, EXACT)
    if k2 == 0.0 and k3 == 0.0:
        closed = ref.control_closed_form(s2, rho, r, k, k1, noise)
        near("alpha", alpha, closed.alpha, CONTROL)
        v = c * c * s2 * (1.0 + 2.0 * alpha * rho + alpha * alpha * r)
        near("signal power", v, closed.v, CONTROL)
        near("controller cost", j_e, closed.j_e, EXACT, scale)
        return
    # Brute force over (alpha, c): a global grid, then a fine one around
    # the reported solution.  No point may beat the solver.
    c_max = 2.0 * abs(c) + 1.0
    grids = [
        (np.linspace(-10.0, 10.0, 801), np.linspace(-c_max, c_max, 401)),
        (np.linspace(alpha - 0.05, alpha + 0.05, 201), np.linspace(0.95 * c, 1.05 * c, 201)),
    ]
    for alphas, gains in grids:
        vals = ref.control_objective(s2, rho, r, k, k1, k2, k3, noise, alphas[:, None], gains[None, :])
        best = float(vals.min())
        expect(best >= j_e - EXACT * scale, f"grid point beats the solver by {j_e - best:.3g}")


def op_control(game: tuple, known_fault: bool = False) -> Op:
    s2, rho, r, k, k1, k2, k3, noise = game
    model = sc.SourcePairModel(s2, rho, r)
    cf = sc.CanonicalForm(k1=k1, k2=k2, k3=k3, theta_weight=k)
    return Op(
        "solve_canonical",
        lambda: sc.solve_canonical(model, cf, noise),
        lambda out: check_control(game, *out),
        known_fault=known_fault,
    )


# ---------------------------------------------------------------------------
# Monte Carlo


def draw_mc_pair(rng: np.random.Generator) -> sc.SourcePairModel:
    """A pair model whose X-theta correlation suits the ACE check."""
    while True:
        m = draw_pair(rng)
        if 0.3 <= abs(m.rho) / math.sqrt(m.r) <= 0.9:
            return m


def check_sample(m, cfg: sc.SimConfig, table) -> None:
    cov = si_cov(m) if isinstance(m, sc.SideInfoModel) else pair_cov(m)[:2, :2]
    d = cov.shape[0]
    names = ("X", "theta", "W")[:d]
    expect(tuple(table.columns) == names, f"columns {table.columns!r}")
    data = table.data
    expect(data.shape == (cfg.n, d), f"shape {data.shape}")
    expect(bool(np.isfinite(data).all()), "non-finite samples")
    moments = data.T @ data / cfg.n
    var = np.diag(cov)
    stderr = np.sqrt((np.outer(var, var) + cov * cov) / cfg.n)
    z = np.abs(moments - cov) / stderr
    expect(float(z.max()) <= Z_MAX, f"second-moment z = {float(z.max()):.2f}")


def op_sample(m, cfg: sc.SimConfig, state: dict) -> Op:
    def check(table) -> None:
        check_sample(m, cfg, table)
        state["table"] = table

    return Op("sample", lambda: sc.sample(m, cfg), check)


def op_estimate(m, encoder: sc.LinearScheme, noise_var: float, cfg: sc.SimConfig, state: dict) -> Op:
    """Best-response decoder for an encoder, then its costs on the sampled table."""

    def call():
        solved, closed = sc.best_decoder(m, encoder, noise_var)
        return solved, closed, sc.estimate_costs(state["table"], solved, noise_var, cfg)

    def check(out) -> None:
        solved, closed, est = out
        cov = si_cov(m) if isinstance(m, sc.SideInfoModel) else pair_cov(m)
        want = ref.scheme_costs(
            cov,
            encoder.enc_theta_weight,
            b=encoder.enc_si_weight if isinstance(m, sc.SideInfoModel) else 0.0,
            gain=encoder.enc_gain,
            t_var=encoder.enc_noise_var,
            n_var=noise_var,
        )
        near("dec_y", solved.dec_y_weight, want.ky, EXACT)
        near("dec_w", solved.dec_w_weight, want.kw, EXACT)
        near("d_e", closed.d_e, want.d_e, EXACT, m.sigma_x2)
        near("d_d", closed.d_d, want.d_d, EXACT, m.sigma_x2)
        z_ok("d_e estimate", est.costs.d_e, est.stderr_e, want.d_e)
        z_ok("d_d estimate", est.costs.d_d, est.stderr_d, want.d_d)

    return Op("estimate_costs", call, check)


def op_lloyd(levels: int, var: float) -> Op:
    def check(q) -> None:
        sd = math.sqrt(var)
        c, t = np.asarray(q.centroids) / sd, np.asarray(q.thresholds) / sd
        expect(c.shape == (levels,) and t.shape == (levels - 1,), "sizes")
        expect(bool(np.all(np.diff(c) > 0.0)), "centroids not ascending")
        near_all("thresholds are centroid midpoints", t, 0.5 * (c[1:] + c[:-1]), ROUNDING)
        centroids, mse = ref.cell_centroids_and_mse(t, c)
        near_all("centroids of their cells", c, centroids, 1e-8)
        near("mse", q.mse / var, mse, 1e-9)
        expect(q.mse >= var / levels**2, "mse below the distortion-rate bound")
        expect(q.iterations >= 1, "no iterations")

    return Op("lloyd_max", lambda: sc.lloyd_max(levels, var), check)


def op_codec(m: sc.SourcePairModel, levels: int, seed: int) -> Op:
    """The scalar codec's point lies on or above the rate curve."""

    def check(t) -> None:
        near("rate", t.rate_bits, math.log2(levels), ROUNDING)
        bound = ref.rd_reference(m.sigma_x2, m.rho, m.r, t.rate_bits)
        for name, got, err, floor in (
            ("d_e", t.costs.d_e, t.stderr_e, bound.d_e),
            ("d_d", t.costs.d_d, t.stderr_d, bound.d_d),
        ):
            expect(math.isfinite(err) and err > 0.0, f"{name}: bad stderr")
            expect(got >= floor - Z_MAX * err, f"{name} {got!r} beats the rate curve {floor!r}")
        expect(t.costs.d_d <= m.sigma_x2 + Z_MAX * t.stderr_d, "d_d above the no-information cost")

    return Op("empirical_triple", lambda: sc.empirical_triple(m, levels, CODEC_ROWS, seed), check)


def op_ace(m, state: dict) -> Op:
    """Maximal correlation of two sampled columns; for Gaussians it is |corr|."""
    other = "W" if isinstance(m, sc.SideInfoModel) else "theta"
    cov = si_cov(m) if isinstance(m, sc.SideInfoModel) else pair_cov(m)
    j = 2 if other == "W" else 1
    corr = abs(cov[0, j]) / math.sqrt(cov[0, 0] * cov[j, j])

    def call():
        table = state.pop("table")
        return sc.ace_max_correlation(table.column("X")[:ACE_ROWS], table.column(other)[:ACE_ROWS])

    def check(rep) -> None:
        near("maximal correlation", rep.estimate, corr, ACE_TOL)
        expect(min(rep.identity_corr_x, rep.identity_corr_y) >= 0.99, "transforms not linear")
        expect(rep.history[-1] >= rep.history[0] - 1e-9, "correlations fell over the iterations")

    return Op("ace_max_correlation", call, check)


def draw_mc_si(rng: np.random.Generator) -> sc.SideInfoModel:
    while True:
        m = draw_si(rng)
        cov = si_cov(m)
        if 0.3 <= abs(cov[0, 2]) / math.sqrt(cov[0, 0] * cov[2, 2]) <= 0.9:
            return m


def mc_encoders(m, rng: np.random.Generator) -> list[tuple[sc.LinearScheme, float]]:
    """Encoders with encoder noise and channel noise both drawn.

    The first two are the optimal test channels at seeded rates, the last
    a random linear encoder; each comes with a channel noise variance.
    """
    is_si = isinstance(m, sc.SideInfoModel)
    out = []
    for _ in range(2):
        rate = float(rng.uniform(0.25, 3.0))
        if is_si:
            point = ref.si_rd_reference(si_cov(m), rate)
        else:
            point = ref.rd_reference(m.sigma_x2, m.rho, m.r, rate)
        encoder = sc.LinearScheme(
            enc_theta_weight=point.beta,
            enc_si_weight=float(rng.uniform(-1.0, 1.0)) if is_si else 0.0,
            enc_noise_var=point.sigma_s2,
        )
        out.append((encoder, float(rng.uniform(0.1, 1.0))))
    encoder = sc.LinearScheme(
        enc_gain=float(rng.uniform(0.2, 2.0)),
        enc_theta_weight=float(rng.uniform(-1.5, 1.5)),
        enc_noise_var=float(rng.uniform(0.05, 1.0)),
    )
    out.append((encoder, float(rng.uniform(0.05, 1.0))))
    return out


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    key = 0

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def rng(self, phase: int, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.key, phase, index])

    def round(self, index: int) -> Round:
        return self.build(self.rng(0, index), f"r{index}")

    def warmup(self) -> Round:
        """One operation of each kind, on inputs of their own."""
        full = self.build(self.rng(1, 0), "warmup")
        seen, ops = set(), []
        for op in full.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                ops.append(op)
        return Round(ops, full.cleanup)

    def build(self, rng: np.random.Generator, tag: str) -> Round:
        raise NotImplementedError


class PairClosedForm(Workload):
    name = "pair-closed-form"
    key = 1
    MODELS = 24
    RATES = 4

    def build(self, rng, tag):
        ops = []
        for _ in range(self.MODELS):
            m = draw_pair(rng)
            ops.append(op_solve_noiseless(m))
            curve: dict = {}
            for rate in np.sort(rng.uniform(0.05, 8.0, self.RATES)):
                ops.append(op_rd_point(m, float(rate), curve))
            ops.append(op_noisy(m, draw_channel(rng)))
        ops.extend(op_panel(*spec) for spec in draw_panels(rng))
        return Round(ops)


class SearchSolvers(Workload):
    name = "search-solvers"
    key = 2
    MODELS = 16
    RATES = 3
    CHANNELS = 2

    def build(self, rng, tag):
        ops = []
        for _ in range(self.MODELS):
            m = draw_si(rng)
            ops.append(op_solve_noiseless_si(m, float(rng.uniform(-2.0, 2.0))))
            curve: dict = {}
            for rate in np.sort(rng.uniform(0.1, 6.0, self.RATES)):
                ops.append(op_si_rd_point(m, float(rate), curve))
            for _ in range(self.CHANNELS):
                ops.append(op_match_condition(m, draw_channel(rng)))
        ops.append(op_find_matched(draw_si_with_root(rng), draw_channel(rng)))
        ops.append(op_match_sweep(draw_si(rng), draw_channel(rng)))
        ops.extend(op_control(game) for game in CONTROL_SOLVED)
        ops.append(op_control(CONTROL_KNOWN_FAULT, known_fault=True))
        return Round(ops)


class MonteCarlo(Workload):
    name = "monte-carlo"
    key = 3
    PAIR_MODELS = 2
    SI_MODELS = 2
    LEVELS = (16, 32, 64, 64, 64, 128)
    CODECS = 2

    def build(self, rng, tag):
        ops = []
        models = [draw_mc_pair(rng) for _ in range(self.PAIR_MODELS)]
        models += [draw_mc_si(rng) for _ in range(self.SI_MODELS)]
        for m in models:
            state: dict = {}
            ops.append(op_sample(m, sc.SimConfig(seed=int(rng.integers(2**62)), n=MC_ROWS), state))
            for encoder, noise in mc_encoders(m, rng):
                cfg = sc.SimConfig(seed=int(rng.integers(2**62)), n=MC_ROWS)
                ops.append(op_estimate(m, encoder, noise, cfg, state))
            ops.append(op_ace(m, state))
        for levels in self.LEVELS:
            ops.append(op_lloyd(levels, float(rng.uniform(0.25, 4.0))))
        for _ in range(self.CODECS):
            ops.append(op_codec(draw_pair(rng), 16, int(rng.integers(2**62))))
        return Round(ops)


# ---------------------------------------------------------------------------
# Command line reports


def _quiet_main(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _report(path: Path) -> dict:
    return json.loads(path.read_text())


def _pair_dict(m: sc.SourcePairModel) -> dict:
    return {"sigma_x2": m.sigma_x2, "rho": m.rho, "r": m.r}


def _si_dict(m: sc.SideInfoModel) -> dict:
    return {
        "sigma_x2": m.sigma_x2,
        "rho_x_theta": m.rho_x_theta,
        "r_theta": m.r_theta,
        "rho_x_w": m.rho_x_w,
        "rho_theta_w": m.rho_theta_w,
        "r_w": m.r_w,
    }


def _check_sim_block(block: dict, want_e: float, want_d: float, n: int) -> None:
    expect(block["n"] == n, "sim.n")
    z_ok("sim d_e", block["d_e"]["estimate"], block["d_e"]["stderr"], want_e)
    z_ok("sim d_d", block["d_d"]["estimate"], block["d_d"]["stderr"], want_d)


def check_report(kind: str, scenario: dict, rep: dict) -> None:
    """Check one JSON report against the reference computations."""
    expect(rep["schema"] == 1 and rep["kind"] == kind, "schema or kind")
    model = scenario["model"]
    s2 = model.get("sigma_x2", 1.0)
    sim = scenario.get("sim")
    if kind in ("noiseless", "rd", "noisy"):
        m = sc.SourcePairModel(**model)
        cov = pair_cov(m)
    elif kind != "control":
        m = sc.SideInfoModel(**model)
        cov = si_cov(m)
    if kind == "noiseless":
        want = ref.pair_equilibrium(s2, m.rho, m.r)
        near("alpha", rep["alpha"], want.alpha, EXACT)
        near("kappa", rep["kappa"], want.kappa, EXACT)
        near("d_e", rep["d_e"], want.d_e, EXACT, s2)
        near("d_d", rep["d_d"], want.d_d, EXACT, s2)
        if sim:
            _check_sim_block(rep["sim"], want.d_e, want.d_d, sim["n"])
    elif kind in ("rd", "si_rd"):
        rate = rep["rate_bits"]
        near("rate_nats", rep["rate_nats"], rate * math.log(2.0), ROUNDING)
        if kind == "rd":
            want = ref.rd_reference(s2, m.rho, m.r, rate)
            near("beta", rep["beta"], want.beta, EXACT)
        else:
            want = ref.si_rd_reference(cov, rate)
            near("beta", rep["beta"], want.beta, SEARCH)
            want = ref.scheme_costs(cov, rep["beta"], t_var=rep["sigma_s2"])
        var_signal = ref.signal_var(cov, rep["beta"], given_w=kind == "si_rd")
        near("sigma_s2", rep["sigma_s2"], ref.sigma_s2_for_rate(var_signal, rate), EXACT)
        near("d_e", rep["d_e"], want.d_e, EXACT, s2)
        near("d_d", rep["d_d"], want.d_d, EXACT, s2)
        if sim:
            _check_sim_block(rep["sim"], want.d_e, want.d_d, sim["n"])
    elif kind == "noisy":
        ch = scenario["channel"]
        alpha = ref.pair_alpha(m.rho, m.r)
        gain, want = ref.linear_over_channel(cov, alpha, ch["power"], ch["noise_var"])
        near("theta_weight", rep["theta_weight"], alpha, EXACT)
        near("gain", rep["gain"], gain, EXACT)
        near("capacity", rep["capacity_bits"], ref.capacity(ch["power"], ch["noise_var"]), ROUNDING)
        near("d_e", rep["d_e"], want.d_e, EXACT, s2)
        near("d_d", rep["d_d"], want.d_d, EXACT, s2)
        near("gap", rep["gap"], 0.0, EXACT, s2)
    elif kind == "si_noiseless":
        near("alpha_si", rep["alpha_si"], ref.si_alpha(cov), SEARCH)
        want = ref.scheme_costs(cov, rep["alpha_si"])
        near("dec_y", rep["dec_y_weight"], want.ky, EXACT)
        near("dec_w", rep["dec_w_weight"], want.kw, EXACT)
        near("d_e", rep["d_e"], want.d_e, EXACT, s2)
        near("d_d", rep["d_d"], want.d_d, EXACT, s2)
        if sim:
            _check_sim_block(rep["sim"], want.d_e, want.d_d, sim["n"])
    elif kind == "si_match":
        ch = sc.ChannelSpec(**scenario["channel"])
        check_matched_root(m, ch, rep["rho_x_w_root"])
        expect(rep["matched"] is True and rep["residual"] <= MATCH, "not matched")
        expect(abs(rep["gap"]) <= MATCH * s2, "gap at the root")
    else:
        claimed = rep["classification"]["linear_solution_claimed"]
        game = scenario["bench_game"]
        if game is None:
            expect(claimed is False and "solution" not in rep, "a U*Xhat game was solved")
            return
        expect(claimed is True, "a canonical game was refused")
        sol = rep["solution"]
        scheme = sc.LinearScheme(
            enc_gain=sol["gain"], enc_theta_weight=sol["theta_weight"], dec_y_weight=sol["dec_y_weight"]
        )
        check_control(game, scheme, sol["controller_cost"], sol["receiver_cost"])


def _control_scenario(game) -> dict:
    if game is None:  # tracking a controlled state: (X + U - Xhat)^2 has a U*Xhat product
        enc = {"x2": 1.0, "u2": 1.04, "xhat2": 1.0, "x_u": 2.0, "x_xhat": -2.0, "u_xhat": -2.0}
        return {
            "schema": 1,
            "kind": "control",
            "model": {"rho": 0.0, "r": 1.0},
            "objectives": {"encoder": enc, "decoder": {"x2": 1.0, "xhat2": 1.0, "x_xhat": -2.0}},
            "bench_game": None,
        }
    s2, rho, r, k, k1, k2, k3, noise = game
    enc = {
        "x2": 1.0, "theta2": k * k, "xhat2": 1.0, "x_theta": 2.0 * k,
        "x_xhat": -2.0, "theta_xhat": -2.0 * k, "u2": k1, "x_u": k2, "theta_u": k3,
    }
    return {
        "schema": 1,
        "kind": "control",
        "model": {"sigma_x2": s2, "rho": rho, "r": r},
        "channel": {"power": 1.0, "noise_var": noise},
        "objectives": {
            "encoder": {key: v for key, v in enc.items() if v != 0.0},
            "decoder": {"x2": 1.0, "xhat2": 1.0, "x_xhat": -2.0},
        },
        "bench_game": game,
    }


def check_csv(text: str, panel, lo, hi, model, noise_var) -> None:
    """A sweep CSV read back reproduces its rows: repr-exact cells, right values."""
    lines = text.splitlines()
    header = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        for cell in cells:
            expect(cell in ("0", "1") or repr(float(cell)) == cell, f"cell {cell!r} is not repr-exact")
        rows.append(tuple(float(cell) for cell in cells))
    check_panel_rows(panel, lo, hi, model, noise_var, header, rows)


class CliReports(Workload):
    name = "cli-reports"
    key = 4
    PAIR_PER_KIND = 27
    SI_NOISELESS = 21
    SI_RD = 22

    def build(self, rng, tag):
        root = self.scratch / tag
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        ops: list[Op] = []

        def report_ops(command: str, scenario: dict, extra: tuple = ()) -> None:
            """Write a scenario, run the command twice, check the report and its bytes."""
            i = len(ops)
            path = root / f"s{i}.json"
            body = {key: v for key, v in scenario.items() if key != "bench_game"}
            path.write_text(json.dumps(body))
            first, second = root / f"s{i}.a.json", root / f"s{i}.b.json"
            argv = [command, "--scenario", str(path), *extra]

            def check_first(code):
                expect(code == 0, f"exit code {code}")
                check_report(scenario["kind"], scenario, _report(first))

            def check_second(code):
                expect(code == 0, f"exit code {code}")
                expect(first.read_bytes() == second.read_bytes(), "report bytes differ between runs")

            kind = f"cli_{scenario['kind']}"
            ops.append(Op(kind, lambda: _quiet_main([*argv, "--out", str(first)]), check_first))
            ops.append(Op(kind + "_again", lambda: _quiet_main([*argv, "--out", str(second)]), check_second))

        def sim_block() -> dict:
            return {"seed": int(rng.integers(2**62)), "n": 2**14}

        for i in range(self.PAIR_PER_KIND):
            scn = {"schema": 1, "kind": "noiseless", "model": _pair_dict(draw_pair(rng))}
            if i == 0:
                scn["sim"] = sim_block()
            report_ops("solve", scn)
        for i in range(self.PAIR_PER_KIND):
            rate = float(rng.uniform(0.1, 6.0))
            scn = {"schema": 1, "kind": "rd", "model": _pair_dict(draw_pair(rng)), "rate": rate}
            if i == 0:
                scn["sim"] = sim_block()
            if i % 3 == 1:  # given in nats
                scn["rate"] = rate * math.log(2.0)
                report_ops("rd", scn, ("--rate-units", "nats"))
            else:
                report_ops("rd", scn)
        for _ in range(self.PAIR_PER_KIND):
            ch = draw_channel(rng)
            scn = {
                "schema": 1,
                "kind": "noisy",
                "model": _pair_dict(draw_pair(rng)),
                "channel": {"power": ch.power, "noise_var": ch.noise_var},
            }
            report_ops("solve", scn)
        for _ in range(self.SI_NOISELESS):
            report_ops("solve", {"schema": 1, "kind": "si_noiseless", "model": _si_dict(draw_si(rng))})
        for _ in range(self.SI_RD):
            scn = {
                "schema": 1,
                "kind": "si_rd",
                "model": _si_dict(draw_si(rng)),
                "rate": float(rng.uniform(0.1, 6.0)),
            }
            report_ops("rd", scn)
        ch = draw_channel(rng)
        scn = {
            "schema": 1,
            "kind": "si_match",
            "model": _si_dict(draw_si_with_root(rng)),
            "channel": {"power": ch.power, "noise_var": ch.noise_var},
        }
        report_ops("si-match", scn)
        report_ops("control-check", _control_scenario(CONTROL_SOLVED[0]))
        report_ops("control-check", _control_scenario(None))

        for panel, lo, hi, model, noise_var in draw_panels(rng):
            out = root / f"{panel}.csv"
            argv = ["sweep", "--panel", panel, "--out", str(out), "--lo", repr(lo), "--hi", repr(hi)]
            if panel == "custom":
                path = root / "custom.json"
                path.write_text(
                    json.dumps(
                        {
                            "schema": 1,
                            "kind": "noisy",
                            "model": _pair_dict(model),
                            "channel": {"power": 1.0, "noise_var": noise_var},
                        }
                    )
                )
                argv += ["--scenario", str(path)]
            if panel == "fig3a":
                argv += ["--gnuplot", str(root / "fig3a.gp")]

            def check_sweep(code, out=out, spec=(panel, lo, hi, model, noise_var)):
                expect(code == 0, f"exit code {code}")
                check_csv(out.read_text(), *spec)
                if spec[0] == "fig3a":
                    expect(str(out) in (root / "fig3a.gp").read_text(), "gnuplot script misses its CSV")

            ops.append(Op(f"cli_sweep_{panel}", lambda argv=argv: _quiet_main(argv), check_sweep))

        verify_out = root / "verify.json"
        verify_seed = int(rng.integers(2**31))

        def check_verify(code):
            summary = _report(verify_out)
            expect(code == 0 and summary["passed"] is True, f"verify failed: {summary['failed']}")
            expect(summary["n_failed"] == 0 and summary["profile"] == "quick", "verify summary")

        argv = ["verify", "--quick", "--seed", str(verify_seed), "--out", str(verify_out)]
        ops.append(Op("cli_verify", lambda: _quiet_main(argv), check_verify))
        return Round(ops, lambda: shutil.rmtree(root, ignore_errors=True))


WORKLOADS = {w.name: w for w in (PairClosedForm, SearchSolvers, MonteCarlo, CliReports)}
