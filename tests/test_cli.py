"""CLI contract: strict schema, exit codes, byte-stable reports, sweep CSVs."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stratcomm
from stratcomm import cli, control_games
from stratcomm.equilibrium import solve_noiseless
from stratcomm.gausslin import LinearScheme, SideInfoModel, SourcePairModel, best_decoder
from stratcomm.side_info import si_rd_point, solve_noiseless_si
from stratcomm.simkit import SimConfig, estimate_costs, sample
from stratcomm.strategic_rd import rd_point

GOLDEN = {"schema": 1, "kind": "noiseless", "model": {"rho": 0.0, "r": 1.0}}


def _run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# solve


def test_solve_golden_report(write_scenario, tmp_path, capsys):
    path = write_scenario(GOLDEN)
    out = tmp_path / "report.json"
    code = _run(["solve", "--scenario", path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["kind"] == "noiseless"
    assert report["alpha"] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    assert report["d_e"] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert report["d_d"] == pytest.approx((5.0 - math.sqrt(5.0)) / 10.0, abs=1e-12)
    assert capsys.readouterr().err == ""


def test_reports_are_byte_stable(write_scenario, tmp_path):
    path = write_scenario(
        {
            "schema": 1,
            "kind": "rd",
            "model": {"rho": 0.3, "r": 1.5},
            "rate": 2.0,
            "sim": {"seed": 9, "n": 20000},
        }
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["solve", "--scenario", path, "--out", str(out1)]) == 0
    assert _run(["solve", "--scenario", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_rate_units_nats(write_scenario, tmp_path):
    rate_nats = 1.5
    bits_path = write_scenario(
        {"schema": 1, "kind": "rd", "model": {"rho": 0.0, "r": 1.0}, "rate": rate_nats / math.log(2.0)}
    )
    nats_path = write_scenario(
        {"schema": 1, "kind": "rd", "model": {"rho": 0.0, "r": 1.0}, "rate": rate_nats}
    )
    out_bits, out_nats = tmp_path / "bits.json", tmp_path / "nats.json"
    assert _run(["rd", "--scenario", bits_path, "--out", str(out_bits)]) == 0
    assert _run(["rd", "--scenario", nats_path, "--rate-units", "nats", "--out", str(out_nats)]) == 0
    a = json.loads(out_bits.read_text())
    b = json.loads(out_nats.read_text())
    assert b["rate_bits"] == pytest.approx(a["rate_bits"], abs=1e-12)
    assert b["rate_nats"] == pytest.approx(rate_nats, abs=1e-12)
    assert b["d_e"] == pytest.approx(a["d_e"], abs=1e-12)


def test_sim_block_reports_z_scores(write_scenario, capsys):
    path = write_scenario(
        {
            "schema": 1,
            "kind": "noiseless",
            "model": {"rho": 0.0, "r": 1.0},
            "sim": {"seed": 4, "n": 100000},
        }
    )
    assert _run(["solve", "--scenario", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sim"]["n"] == 100000
    assert abs(report["sim"]["d_e"]["z_score"]) < 4.0
    assert abs(report["sim"]["d_d"]["z_score"]) < 4.0


# ---------------------------------------------------------------------------
# validation failures: exit 1 and the message names the field


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"schema": 1, "kind": "noiseless", "model": {"rho": 0.0, "r": 1.0, "rr": 2}}, "rr"),
        ({"schema": 1, "kind": "noiseless", "model": {"rho": True, "r": 1.0}}, "model.rho"),
        ({"schema": 1, "kind": "noiseless", "model": {"rho": 0.0}}, "model.r"),
        ({"schema": 1, "kind": "noisy", "model": {"rho": 0.0, "r": 1.0}}, "channel"),
        ({"schema": 2, "kind": "noiseless", "model": {"rho": 0.0, "r": 1.0}}, "schema"),
        ({"kind": "noiseless", "model": {"rho": 0.0, "r": 1.0}}, "schema"),
        ({"schema": 1, "kind": "osmosis", "model": {}}, "kind"),
        ({"schema": 1, "kind": "rd", "model": {"rho": 0.0, "r": 1.0}}, "rate"),
        ({"schema": 1, "kind": "rd", "model": {"rho": 0.0, "r": 1.0}, "rate": -1.0}, "rate"),
        (
            {"schema": 1, "kind": "noiseless", "model": {"rho": 0.0, "r": 1.0}, "sim": {"seed": 4, "n": 10, "bins": 64}},
            "bins",
        ),
        ({"schema": 1, "kind": ["rd"], "model": {}}, "kind: expected one of"),
        ({"schema": 1, "kind": {"rd": 1}, "model": {}}, "kind: expected one of"),
    ],
)
def test_schema_violations_exit_one(write_scenario, capsys, payload, needle):
    code = _run(["solve", "--scenario", write_scenario(payload)])
    err = capsys.readouterr().err
    assert code == 1
    assert needle in err


def test_sim_rejected_for_match_kind(write_scenario, capsys):
    payload = {
        "schema": 1,
        "kind": "si_match",
        "model": {
            "rho_x_theta": 0.2,
            "r_theta": 1.0,
            "rho_theta_w": -0.3,
            "r_w": 1.0,
        },
        "channel": {"power": 1.0, "noise_var": 1.0},
        "sim": {"seed": 1, "n": 1000},
    }
    code = _run(["solve", "--scenario", write_scenario(payload)])
    err = capsys.readouterr().err
    assert code == 1
    assert "sim" in err and "si_match" in err


# The schema as the README states it: whether each kind requires, allows or
# rejects each optional top-level section.
_SECTIONS = ("channel", "rate", "objectives", "sim")
_SECTION_RULES = {
    "noiseless": ("rejected", "rejected", "rejected", "allowed"),
    "rd": ("rejected", "required", "rejected", "allowed"),
    "noisy": ("required", "rejected", "rejected", "allowed"),
    "si_noiseless": ("rejected", "rejected", "rejected", "allowed"),
    "si_rd": ("rejected", "required", "rejected", "allowed"),
    "si_match": ("required", "rejected", "rejected", "rejected"),
    "control": ("allowed", "rejected", "required", "rejected"),
}
_SECTION_VALUES = {
    "channel": {"power": 3.0, "noise_var": 1.0},
    "rate": 1.0,
    "objectives": {
        "encoder": {"x2": 1.0, "theta2": 1.0, "xhat2": 1.0, "x_xhat": -2.0, "theta_xhat": -2.0, "x_theta": 2.0, "u2": 0.1},
        "decoder": {"x2": 1.0, "xhat2": 1.0, "x_xhat": -2.0},
    },
    "sim": {"seed": 3, "n": 256},
}


def _minimal_scenario(kind):
    if kind == "si_match":
        model = {"rho_x_theta": 0.0, "r_theta": 1.0, "rho_theta_w": -0.3, "r_w": 1.0}
    elif kind.startswith("si_"):
        model = _SI_MODEL
    else:
        model = {"rho": 0.2, "r": 1.1}
    payload = {"schema": 1, "kind": kind, "model": model}
    for section, rule in zip(_SECTIONS, _SECTION_RULES[kind]):
        if rule == "required":
            payload[section] = _SECTION_VALUES[section]
    return payload


@pytest.mark.parametrize("present", [True, False], ids=["present", "absent"])
@pytest.mark.parametrize("section", _SECTIONS)
@pytest.mark.parametrize("kind", list(_SECTION_RULES))
def test_schema_matrix(write_scenario, capsys, kind, section, present):
    rule = _SECTION_RULES[kind][_SECTIONS.index(section)]
    payload = _minimal_scenario(kind)
    if present:
        payload[section] = _SECTION_VALUES[section]
    else:
        payload.pop(section, None)
    code = _run(["solve", "--scenario", write_scenario(payload)])
    err = capsys.readouterr().err
    fails = rule == ("rejected" if present else "required")
    assert code == (1 if fails else 0), err
    if fails:
        assert err.startswith(f"error: {section}:")
        assert f"'{kind}'" in err


@pytest.mark.parametrize("kind", list(_SECTION_RULES))
def test_samples_flag_follows_the_sim_rule(write_scenario, capsys, kind):
    path = write_scenario(_minimal_scenario(kind))
    code = _run(["solve", "--scenario", path, "--samples", "256"])
    out, err = capsys.readouterr()
    if _SECTION_RULES[kind][_SECTIONS.index("sim")] == "allowed":
        assert code == 0, err
        assert json.loads(out)["sim"]["n"] == 256
    else:
        assert code == 1
        assert err.startswith("error: sim:")
        assert f"'{kind}'" in err


@pytest.mark.parametrize("kind", list(_SECTION_RULES))
def test_seed_flag_follows_the_sim_rule(write_scenario, capsys, kind):
    allowed = _SECTION_RULES[kind][_SECTIONS.index("sim")] == "allowed"
    bare = write_scenario(_minimal_scenario(kind))
    # with no sim block and no --samples there is nothing to seed
    assert _run(["solve", "--scenario", bare, "--seed", "11"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sim:")
    assert allowed or f"'{kind}'" in err
    code = _run(["solve", "--scenario", bare, "--seed", "11", "--samples", "256"])
    out, err = capsys.readouterr()
    if allowed:
        assert code == 0, err
        assert json.loads(out)["sim"]["seed"] == 11
        assert _run(["solve", "--scenario", bare, "--seed", "-3", "--samples", "256"]) == 1
        assert capsys.readouterr().err.startswith("error: sim.seed: must fit in an unsigned 64-bit integer")
    else:
        assert code == 1
        assert err.startswith("error: sim:")
        assert f"'{kind}'" in err


@pytest.mark.parametrize(
    "kind, model, field",
    [
        ("noiseless", {"rho": 1e160, "r": 1.0}, "r"),
        ("si_noiseless", {"rho_x_theta": 0.0, "r_theta": 1.0, "rho_x_w": -1e308, "rho_theta_w": -2.5e50, "r_w": 1.0}, "covariance"),
        ("si_noiseless", {"rho_x_theta": 0.0, "r_theta": 1.0, "rho_x_w": 1e160, "rho_theta_w": 1e160, "r_w": 1.0}, "covariance"),
        ("si_noiseless", {"rho_x_theta": 0.0, "r_theta": 1.0, "rho_x_w": -1e200, "rho_theta_w": 1e200, "r_w": 1.0}, "covariance"),
        ("si_noiseless", {"rho_x_theta": 0.0, "r_theta": 1.0, "rho_x_w": 1e200, "rho_theta_w": -1e200, "r_w": 1.0}, "covariance"),
    ],
)
def test_overflowing_minors_exit_one(write_scenario, capsys, kind, model, field):
    # these used to exit 2 on an OverflowError, or 0 with NaN in the report
    code = _run(["solve", "--scenario", write_scenario({"schema": 1, "kind": kind, "model": model})])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: InvalidModel: {field}:")


def test_readme_lists_the_kinds_in_table_order():
    # the "kind: expected one of ..." message prints the table's order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = readme[readme.index("* `kind` is one of ") :].split(".\n", 1)[0]
    assert re.findall(r"`(\w+)`", line)[1:] == list(cli._KINDS)


def test_readme_lists_the_scenario_commands_in_table_order():
    # the quick start's command list opens with the scenario subcommands, as --help lists them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme[readme.index("The same things from the command line:") :].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1] for line in block.splitlines()]
    names = [name for name, _, _, _ in cli._SCENARIO_COMMANDS]
    assert commands[: len(names)] == names


def test_invalid_model_exit_one(write_scenario, capsys):
    # r = rho^2 sits exactly on the singular boundary
    payload = {"schema": 1, "kind": "noiseless", "model": {"rho": 0.5, "r": 0.25}}
    code = _run(["solve", "--scenario", write_scenario(payload)])
    err = capsys.readouterr().err
    assert code == 1
    assert "r must exceed rho^2" in err


def test_no_root_exit_two(write_scenario, capsys):
    # residual keeps one sign over the whole feasible interval
    payload = {
        "schema": 1,
        "kind": "si_match",
        "model": {
            "rho_x_theta": 0.6,
            "r_theta": 0.5,
            "rho_theta_w": -0.45,
            "r_w": 1.0,
        },
        "channel": {"power": 0.5, "noise_var": 1.0},
    }
    code = _run(["si-match", "--scenario", write_scenario(payload)])
    err = capsys.readouterr().err
    assert code == 2
    assert "NoRoot" in err


_SI_MODEL = {"rho_x_theta": 0.2, "r_theta": 1.0, "rho_x_w": 0.4, "rho_theta_w": -0.3, "r_w": 1.0}


def _rate_scheme(model, rep):
    if math.isinf(rep["sigma_s2"]):  # rate 0: nothing is sent
        return LinearScheme(enc_gain=0.0)
    return best_decoder(model, LinearScheme(enc_theta_weight=rep["beta"], enc_noise_var=rep["sigma_s2"]))[0]


# (kind, scenario fields, scheme and channel noise from the report's own fields)
_SIM_CASES = [
    (
        "noiseless",
        {"model": {"sigma_x2": 2.5, "rho": 0.3, "r": 1.2}},
        lambda m, rep: (LinearScheme(enc_theta_weight=rep["alpha"], dec_y_weight=rep["kappa"]), 0.0),
    ),
    ("rd", {"model": {"rho": 0.3, "r": 1.5}, "rate": 2.0}, lambda m, rep: (_rate_scheme(m, rep), 0.0)),
    ("rd", {"model": {"rho": 0.3, "r": 1.5}, "rate": 0.0}, lambda m, rep: (_rate_scheme(m, rep), 0.0)),
    (
        "noisy",
        {"model": {"rho": 0.2, "r": 1.1}, "channel": {"power": 2.0, "noise_var": 0.6}},
        lambda m, rep: (
            LinearScheme(
                enc_gain=rep["gain"], enc_theta_weight=rep["theta_weight"], dec_y_weight=rep["dec_y_weight"]
            ),
            rep["channel"]["noise_var"],
        ),
    ),
    (
        "si_noiseless",
        {"model": _SI_MODEL},
        lambda m, rep: (
            LinearScheme(
                enc_theta_weight=rep["alpha_si"], dec_y_weight=rep["dec_y_weight"], dec_w_weight=rep["dec_w_weight"]
            ),
            0.0,
        ),
    ),
    ("si_rd", {"model": _SI_MODEL, "rate": 1.25}, lambda m, rep: (_rate_scheme(m, rep), 0.0)),
]


@pytest.mark.parametrize(
    "kind, fields, scheme_of", _SIM_CASES, ids=["noiseless", "rd", "rd_rate_0", "noisy", "si_noiseless", "si_rd"]
)
def test_sim_samples_the_scheme_the_report_states(write_scenario, capsys, kind, fields, scheme_of):
    cfg = SimConfig(seed=13, n=5000, chunk=1024)
    sim = {"seed": cfg.seed, "n": cfg.n, "chunk": cfg.chunk}
    assert _run(["solve", "--scenario", write_scenario({"schema": 1, "kind": kind, **fields, "sim": sim})]) == 0
    rep = json.loads(capsys.readouterr().out)
    model = (SourcePairModel if "rho" in rep["model"] else SideInfoModel)(**rep["model"])
    scheme, noise_var = scheme_of(model, rep)
    est = estimate_costs(sample(model, cfg), scheme, noise_var, cfg)
    assert rep["sim"]["d_e"]["estimate"] == est.costs.d_e
    assert rep["sim"]["d_d"]["estimate"] == est.costs.d_d
    assert (rep["sim"]["d_e"]["closed_form"], rep["sim"]["d_d"]["closed_form"]) == (rep["d_e"], rep["d_d"])


def test_the_sim_cases_cover_every_kind_that_takes_sim():
    assert {kind for kind, _, _ in _SIM_CASES} == {kind for kind, spec in cli._KINDS.items() if spec.allows("sim")}


@pytest.mark.parametrize(
    "kind, model", [("rd", {"rho": 0.2, "r": 1.3}), ("si_rd", _SI_MODEL)], ids=["rd", "si_rd"]
)
def test_extreme_rates_exit_cleanly(write_scenario, capsys, kind, model):
    if kind == "rd":
        m = SourcePairModel(sigma_x2=1.0, **model)
        noiseless, zero_rate = solve_noiseless(m).costs, rd_point(m, 0.0).costs
    else:
        m = SideInfoModel(sigma_x2=1.0, **model)
        noiseless, zero_rate = solve_noiseless_si(m).costs, si_rd_point(m, 0.0).costs

    def solve(rate):
        payload = {"schema": 1, "kind": kind, "model": model, "rate": rate}
        code = _run(["solve", "--scenario", write_scenario(payload)])
        out, err = capsys.readouterr()
        return code, json.loads(out) if code == 0 else err

    # 600 bits: the test-channel noise underflows to 0, the noiseless point
    code, high = solve(600.0)
    assert code == 0
    assert high["sigma_s2"] == 0.0
    assert high["d_e"] == pytest.approx(noiseless.d_e, rel=1e-12)
    assert high["d_d"] == pytest.approx(noiseless.d_d, rel=1e-12)
    # 1e-300 bits: the zero-rate point, no information for a pair model and
    # the W-only point with side information
    code, low = solve(1e-300)
    assert code == 0
    assert low["d_e"] == pytest.approx(zero_rate.d_e, rel=1e-12)
    assert low["d_d"] == pytest.approx(zero_rate.d_d, rel=1e-12)
    # below about 4e-309 bits the noise variance itself would overflow
    code, err = solve(1e-320)
    assert code == 2
    assert "OverflowError" in err


def test_kind_gate_on_subcommands(write_scenario, capsys):
    code = _run(["si-match", "--scenario", write_scenario(GOLDEN)])
    err = capsys.readouterr().err
    assert code == 1
    assert "si_match" in err


def test_missing_file_exit_one(tmp_path, capsys):
    code = _run(["solve", "--scenario", str(tmp_path / "nope.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# si-match success path


def test_si_match_report(write_scenario, capsys):
    payload = {
        "schema": 1,
        "kind": "si_match",
        "model": {
            "rho_x_theta": 0.0,
            "r_theta": 1.0,
            "rho_theta_w": -0.3,
            "r_w": 1.0,
        },
        "channel": {"power": 3.0, "noise_var": 1.0},
    }
    assert _run(["si-match", "--scenario", write_scenario(payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matched"] is True
    assert abs(report["residual"]) <= 1e-6
    assert abs(report["gap"]) <= 1e-6


# ---------------------------------------------------------------------------
# control-check


def _control_payload(decoder_extra=None):
    decoder = {"x2": 1.0, "xhat2": 1.0, "x_xhat": -2.0}
    if decoder_extra:
        decoder.update(decoder_extra)
    return {
        "schema": 1,
        "kind": "control",
        "model": {"rho": 0.0, "r": 1.0},
        "objectives": {
            "encoder": {
                "x2": 1.0,
                "theta2": 1.0,
                "xhat2": 1.0,
                "x_xhat": -2.0,
                "theta_xhat": -2.0,
                "x_theta": 2.0,
                "u2": 0.1,
            },
            "decoder": decoder,
        },
    }


def test_control_check_solves_canonical(write_scenario, capsys):
    assert _run(["control-check", "--scenario", write_scenario(_control_payload())]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["linear_solution_claimed"] is True
    assert report["solution"]["theta_weight"] == pytest.approx(0.6180339887, abs=1e-6)
    # no channel means a noiseless one: any positive gain sends the whole
    # alignment, so the cost sits just above the infimum (3 - sqrt 5)/2
    assert report["noise_var"] == 0.0
    assert report["solution"]["gain"] > 0.0
    assert report["solution"]["dec_y_weight"] != 0.0
    assert 0.0 < report["solution"]["controller_cost"] - (3.0 - math.sqrt(5.0)) / 2.0 <= 1e-6


def test_control_check_rejects_an_overflowing_penalty(write_scenario, capsys):
    # U^2 / Xhat^2 = 1e300 / 1e-300 overflows the normalized penalty k1
    payload = _control_payload()
    payload["objectives"]["encoder"] = {"x2": 1e-300, "xhat2": 1e-300, "x_xhat": -2e-300, "u2": 1e300}
    assert _run(["control-check", "--scenario", write_scenario(payload)]) == 1
    assert "k1: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("k, code", [(1e154, 2), (-1e154, 2), (1e150, 0)])
def test_control_check_at_a_huge_theta_weight(write_scenario, capsys, k, code):
    # (X + k*theta - Xhat)^2 + 0.5 U^2 on (2, 0.3, 1): at |k| = 1e154 the cost
    # Var(X + k*theta) leaves the float range, a numerical failure (exit 2)
    payload = _control_payload()
    payload["model"] = {"sigma_x2": 2.0, "rho": 0.3, "r": 1.0}
    payload["channel"] = {"power": 1.0, "noise_var": 1.0}
    payload["objectives"]["encoder"].update(theta2=k * k, theta_xhat=-2.0 * k, x_theta=2.0 * k, u2=0.5)
    assert _run(["control-check", "--scenario", write_scenario(payload)]) == code
    out, err = capsys.readouterr()
    if code:
        assert "OverflowError" in err
    else:
        solution = json.loads(out)["solution"]
        assert solution["theta_weight"] == pytest.approx(1.0, rel=1e-12)
        assert solution["controller_cost"] == pytest.approx(2e300, rel=1e-12)


def test_control_check_classifies_without_solving(write_scenario, capsys):
    payload = _control_payload(decoder_extra={"u_xhat": 1.0, "u2": 1.0})
    assert _run(["control-check", "--scenario", write_scenario(payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"]["linear_solution_claimed"] is False
    assert report["classification"]["receiver_has_u_xhat_product"] is True
    assert "solution" not in report


# ---------------------------------------------------------------------------
# sweep


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = tuple(lines[0].split(","))
    rows = [tuple(cell for cell in line.split(",")) for line in lines[1:]]
    return header, rows


def test_sweep_fig3a(tmp_path):
    out = tmp_path / "a.csv"
    gp = tmp_path / "a.gp"
    code = _run(["sweep", "--panel", "fig3a", "--out", str(out), "--points", "40", "--gnuplot", str(gp)])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ("r", "d_e", "d_d", "valid")
    assert len(rows) == 40
    assert all(row[3] == "1" for row in rows)
    assert str(out) in gp.read_text()


def test_sweep_fig3b_flags_invalid_points(tmp_path):
    out = tmp_path / "b.csv"
    code = _run(["sweep", "--panel", "fig3b", "--out", str(out), "--points", "21", "--lo", "-1.2", "--hi", "1.2"])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ("rho", "d_e", "d_d", "valid")
    assert len(rows) == 21
    # |rho| >= 1 breaks positive definiteness at r = 1; those rows are kept
    # but flagged and carry NaN costs
    bad = [row for row in rows if row[3] == "0"]
    assert bad
    assert all(row[1] == "nan" for row in bad)
    assert any(row[3] == "1" for row in rows)


def test_sweep_fig3c_round_trips(tmp_path):
    from stratcomm.gausslin import SourcePairModel
    from stratcomm.strategic_rd import rd_point

    out = tmp_path / "c.csv"
    assert _run(["sweep", "--panel", "fig3c", "--out", str(out), "--points", "11"]) == 0
    header, rows = _read_csv(out)
    assert header == ("rate_bits", "d_e_r1", "d_d_r1", "d_e_r01", "d_d_r01")
    assert len(rows) == 11
    wide = SourcePairModel(sigma_x2=1.0, rho=0.0, r=1.0)
    narrow = SourcePairModel(sigma_x2=1.0, rho=0.0, r=0.1)
    for row in rows:
        rate = float(row[0])
        w = rd_point(wide, rate)
        n = rd_point(narrow, rate)
        assert float(row[1]) == pytest.approx(w.costs.d_e, abs=1e-9)
        assert float(row[2]) == pytest.approx(w.costs.d_d, abs=1e-9)
        assert float(row[3]) == pytest.approx(n.costs.d_e, abs=1e-9)
        assert float(row[4]) == pytest.approx(n.costs.d_d, abs=1e-9)


def test_sweep_custom_requires_scenario(tmp_path, capsys):
    code = _run(["sweep", "--panel", "custom", "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "scenario" in err


def test_sweep_custom_panel(write_scenario, tmp_path):
    path = write_scenario(
        {
            "schema": 1,
            "kind": "noisy",
            "model": {"rho": 0.0, "r": 1.0},
            "channel": {"power": 2.0, "noise_var": 2.0},
        }
    )
    out = tmp_path / "p.csv"
    code = _run(
        ["sweep", "--panel", "custom", "--out", str(out), "--scenario", path, "--points", "12"]
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ("p_over_n", "capacity_bits", "d_e", "d_d", "gain")
    assert len(rows) == 12


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    code = _run(["sweep", "--panel", "fig3a", "--out", str(tmp_path / "x.csv"), "--points", "1"])
    assert code == 1
    assert "points" in capsys.readouterr().err


def test_panel_rows_rejects_non_finite_bounds(tmp_path, capsys):
    for panel in ("fig3a", "fig3b", "fig3c"):
        for field in ("lo", "hi"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{field}: must be finite"):
                    cli.panel_rows(panel, **{field: value})
    # through the CLI it is a validation error: exit 1, naming the field
    code = _run(["sweep", "--panel", "fig3c", "--out", str(tmp_path / "x.csv"), "--lo", "nan"])
    assert code == 1
    assert "lo: must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_quick_via_cli(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = _run(["verify", "--quick", "--seed", "0", "--out", str(out)])
    lines = capsys.readouterr().out.strip().split("\n")
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["n_failed"] == 0
    assert summary["profile"] == "quick"
    assert len(lines) == summary["n_checks"]
    assert all(line.startswith("pass ") for line in lines)


# ---------------------------------------------------------------------------
# one parser per process


def test_shared_parser_keeps_no_seed_or_sample_override(write_scenario, tmp_path):
    path = write_scenario(
        {"schema": 1, "kind": "rd", "model": {"rho": 0.3, "r": 1.5}, "rate": 2.0, "sim": {"seed": 9, "n": 20000}}
    )
    fresh, seeded, plain = tmp_path / "fresh.json", tmp_path / "seeded.json", tmp_path / "plain.json"
    cli._build_parser.cache_clear()
    assert _run(["solve", "--scenario", path, "--out", str(fresh)]) == 0
    assert _run(["solve", "--scenario", path, "--out", str(seeded), "--seed", "4", "--samples", "30000"]) == 0
    assert _run(["solve", "--scenario", path, "--out", str(plain)]) == 0
    assert seeded.read_bytes() != fresh.read_bytes()
    assert plain.read_bytes() == fresh.read_bytes()


def test_shared_parser_keeps_no_gnuplot_path(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    gp = first / "a.gp"
    assert _run(["sweep", "--panel", "fig3a", "--out", str(first / "a.csv"), "--gnuplot", str(gp)]) == 0
    gp.unlink()
    assert _run(["sweep", "--panel", "fig3a", "--out", str(second / "b.csv")]) == 0
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.csv", "b.csv", "first", "second"]


def test_shared_parser_survives_an_argument_error(write_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["solve"])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err
    assert _run(["solve", "--scenario", write_scenario(GOLDEN)]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "noiseless"


def test_the_package_loads_no_scipy():
    # a fresh interpreter: the package, the CLI, a quantizer and a simulated codec
    code = (
        "import sys, stratcomm, stratcomm.cli\n"
        "from stratcomm import SourcePairModel, empirical_triple, lloyd_max\n"
        "lloyd_max(16, 1.0)\n"
        "empirical_triple(SourcePairModel(1.0, 0.0, 1.0), 16, 10_000, seed=3)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(stratcomm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("command", ["solve", "control-check"])
def test_a_control_report_canonicalizes_once(monkeypatch, write_scenario, capsys, command):
    calls = []
    real = cli.canonicalize

    def counted(phi_e, phi_d):
        calls.append(1)
        return real(phi_e, phi_d)

    monkeypatch.setattr(cli, "canonicalize", counted)
    monkeypatch.setattr(control_games, "canonicalize", counted)
    assert _run([command, "--scenario", write_scenario(_control_payload())]) == 0
    assert json.loads(capsys.readouterr().out)["solution"]["gain"] > 0.0
    assert len(calls) == 1
