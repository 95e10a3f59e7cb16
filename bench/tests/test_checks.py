"""The operations' checks pass on the package and catch tampered results."""

from pathlib import Path

import pytest

import stratcomm as sc
import worker
import workloads as W
from stratcomm import equilibrium, gausslin, side_info

PAIR = sc.SourcePairModel(1.3, 0.25, 1.4)
SI = sc.SideInfoModel(1.0, 0.2, 1.0, 0.4, -0.3, 1.0)


def run(op) -> dict:
    tally = worker._new_tally()
    worker._run_ops([op], tally)
    return tally


def passes(op) -> bool:
    return run(op)["failed"] == 0


def test_untampered_operations_pass():
    assert passes(W.op_solve_noiseless(PAIR))
    assert passes(W.op_rd_point(PAIR, 1.5, {}))
    assert passes(W.op_noisy(PAIR, sc.ChannelSpec(2.0, 0.5)))
    assert passes(W.op_solve_noiseless_si(SI, 1.5))
    assert passes(W.op_si_rd_point(SI, 2.0, {}))
    assert passes(W.op_match_condition(SI, sc.ChannelSpec(3.0, 1.0)))
    assert passes(W.op_lloyd(16, 2.0))


def _perturbed(fn, delta):
    return lambda *args, **kwargs: fn(*args, **kwargs) + delta


def test_a_perturbed_alpha_fails(monkeypatch):
    monkeypatch.setattr(equilibrium, "best_alpha", _perturbed(equilibrium.best_alpha, 1e-6))
    tally = run(W.op_solve_noiseless(PAIR))
    assert (tally["attempted"], tally["failed"], tally["unexpected"]) == (1, 1, 1)
    assert "alpha" in tally["errors"][0]


def test_a_corrupted_conditioning_step_fails(monkeypatch):
    real = gausslin.mmse_linear

    def corrupted(cov, target, observed):
        weights, err = real(cov, target, observed)
        return weights * (1.0 + 1e-6), err

    monkeypatch.setattr(gausslin, "mmse_linear", corrupted)
    assert not passes(W.op_solve_noiseless(PAIR))
    assert not passes(W.op_noisy(PAIR, sc.ChannelSpec(2.0, 0.5)))
    assert not passes(W.op_solve_noiseless_si(SI, 0.0))


def test_a_corrupted_side_information_conditioning_fails(monkeypatch):
    real = side_info._conditional_signal_ratio
    monkeypatch.setattr(side_info, "_conditional_signal_ratio", lambda m, beta: real(m, beta) * (1.0 + 1e-6))
    assert not passes(W.op_si_rd_point(SI, 2.0, {}))


def test_a_rate_curve_that_rises_fails():
    curve = {}
    assert passes(W.op_rd_point(PAIR, 2.0, curve))
    curve["prev"] = (1.0, 0.0, 0.0)  # an earlier point with zero cost
    assert not passes(W.op_rd_point(PAIR, 2.5, curve))


def test_monte_carlo_checks_catch_a_wrong_decoder(monkeypatch):
    m = sc.SourcePairModel(1.0, 0.3, 1.2)
    encoder = sc.LinearScheme(enc_theta_weight=0.5, enc_noise_var=0.3)
    state = {}
    cfg = sc.SimConfig(seed=3, n=2**16)
    assert passes(W.op_sample(m, cfg, state))
    assert passes(W.op_estimate(m, encoder, 0.2, cfg, state))
    real = sc.estimate_costs

    def biased(table, scheme, noise, cfg):
        est = real(table, scheme, noise, cfg)
        shifted = sc.CostPair(est.costs.d_e + 10 * est.stderr_e, est.costs.d_d)
        return sc.CostEstimate(shifted, est.stderr_e, est.stderr_d)

    monkeypatch.setattr(sc, "estimate_costs", biased)
    assert not passes(W.op_estimate(m, encoder, 0.2, cfg, state))


def test_a_lloyd_quantizer_off_its_fixed_point_fails(monkeypatch):
    real = sc.lloyd_max

    def early(levels, var):
        return real(levels, var, residual_tol=1e-4)

    monkeypatch.setattr(sc, "lloyd_max", early)
    assert not passes(W.op_lloyd(32, 1.0))


def test_the_control_checks():
    assert passes(W.op_control(W.CONTROL_SOLVED[0]))
    assert passes(W.op_control(W.CONTROL_SOLVED[1]))
    tally = run(W.op_control(W.CONTROL_KNOWN_FAULT, known_fault=True))
    assert (tally["failed"], tally["unexpected"]) == (1, 0)


def test_a_control_solution_off_the_optimum_fails(monkeypatch):
    real = sc.solve_canonical

    def nudged(model, cf, noise):
        scheme, j_e, j_d = real(model, cf, noise)
        moved = sc.LinearScheme(enc_gain=scheme.enc_gain, enc_theta_weight=scheme.enc_theta_weight + 0.02)
        solved, _ = sc.best_decoder(model, moved, noise)
        s2, rho, r, k, k1, k2, k3, _ = game
        a, c = solved.enc_theta_weight, solved.enc_gain
        j = float(W.ref.control_objective(s2, rho, r, k, k1, k2, k3, noise, a, c))
        return solved, j, W.ref.scheme_costs(W.ref.pair_cov(s2, rho, r), a, gain=c, n_var=noise).d_d

    game = W.CONTROL_SOLVED[1]
    monkeypatch.setattr(sc, "solve_canonical", nudged)
    tally = run(W.op_control(game))
    assert tally["failed"] == 1 and "beats the solver" in tally["errors"][0]


def test_rounds_repeat_their_operations_and_inputs(tmp_path: Path):
    for cls in W.WORKLOADS.values():
        a = cls(5, tmp_path)
        first, again, other = a.round(0), a.round(0), a.round(1)
        assert [op.kind for op in first.ops] == [op.kind for op in other.ops]
        assert len(first.ops) == len(again.ops)
        for rnd in (first, again, other):
            rnd.cleanup()


def test_cli_report_checks_catch_a_wrong_number(tmp_path: Path):
    scenario = {"schema": 1, "kind": "noiseless", "model": {"sigma_x2": 1.0, "rho": 0.0, "r": 1.0}}
    out = tmp_path / "report.json"
    path = tmp_path / "scenario.json"
    path.write_text(W.json.dumps(scenario))
    assert W._quiet_main(["solve", "--scenario", str(path), "--out", str(out)]) == 0
    report = W._report(out)
    W.check_report("noiseless", scenario, report)
    report["d_d"] *= 1.0 + 1e-6
    with pytest.raises(W.CheckFailed):
        W.check_report("noiseless", scenario, report)


def test_csv_checks_catch_rounded_cells():
    header, rows = sc.cli.panel_rows("fig3b", lo=-0.5, hi=0.5)
    lines = [",".join(header)]
    lines += [",".join([*(repr(float(v)) for v in row[:3]), str(row[3])]) for row in rows]
    exact = "\n".join(lines)
    W.check_csv(exact, "fig3b", -0.5, 0.5, None, 1.0)
    rounded = exact.replace(repr(float(rows[3][1])), f"{rows[3][1]:.6f}")
    with pytest.raises(W.CheckFailed):
        W.check_csv(rounded, "fig3b", -0.5, 0.5, None, 1.0)
