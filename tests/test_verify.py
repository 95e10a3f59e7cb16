"""Self-check battery: suite contract, determinism, tamper detection."""

import json
import sys
from dataclasses import replace

import pytest

import stratcomm.side_info as side_info
from stratcomm import equilibrium, verify


def test_quick_suite_passes_and_serializes():
    out = verify.run_suite("quick", seed=0)
    assert out["profile"] == "quick"
    assert out["n_failed"] == 0
    assert out["failed"] == []
    assert out["n_checks"] == len(out["checks"]) == 28
    # the CLI writes this dict straight to disk, so it must round-trip
    blob = json.dumps(out)
    assert json.loads(blob)["n_checks"] == 28


def test_full_suite_is_a_superset_of_quick():
    quick = {name for name, profile, _ in verify._CHECKS if profile == "quick"}
    every = {name for name, _, _ in verify._CHECKS}
    assert quick < every
    assert len(every) == len(verify._CHECKS)  # names are unique


def test_suite_is_deterministic():
    # the summary carries no wall-clock field, so two runs serialize to the same bytes
    a, b = (json.dumps(verify.run_suite("quick", seed=123), sort_keys=True) for _ in range(2))
    assert a == b


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("exhaustive")


def test_codec_detail_prints_plain_floats():
    # the --full report's bytes must not depend on how numpy reprs its scalars
    check = next(fn for name, _, fn in verify._CHECKS if name == "codec_matches_analysis")
    stream, draw = verify._SHARED["codec_matches_analysis"]
    detail = check(draw(verify._stream(0, stream)))[3]
    assert detail.startswith("predicted d_e=0.")
    assert "np." not in detail


def test_battery_catches_skipped_conditioning(monkeypatch):
    # solving the plain game on (X, theta) while ignoring W must trip the
    # brute-force grid check rather than pass silently
    monkeypatch.setattr(side_info, "_conditional_pair", lambda m: m.pair_part())
    out = verify.run_suite("quick", seed=0)
    assert out["n_failed"] > 0
    assert "si_weight_beats_grid" in out["failed"]


def test_battery_catches_a_perturbed_kernel(monkeypatch):
    # every solver's costs come from one kernel; moving its encoder cost by
    # 1e-9 per sigma_x2 must show against covariance propagation
    real = equilibrium._linear_costs

    def perturbed(*args):
        kappa, d_e, d_d = real(*args)
        return kappa, d_e + 1e-9, d_d

    for name, module in list(sys.modules.items()):
        if name.startswith("stratcomm") and getattr(module, "_linear_costs", None) is real:
            monkeypatch.setattr(module, "_linear_costs", perturbed)
    out = verify.run_suite("quick", seed=0)
    assert "kernel_matches_propagation" in out["failed"]


def test_battery_catches_a_control_weight_off_the_optimum(monkeypatch):
    # a control solution whose weight sits 0.02 from the optimum must be
    # undercut by the brute-force grid
    real = verify.solve_canonical

    def nudged(model, cf, noise_var):
        scheme, _, _ = real(model, cf, noise_var)
        moved = replace(scheme, enc_theta_weight=scheme.enc_theta_weight + 0.02)
        solved, _ = verify.best_decoder(model, moved, channel_noise_var=noise_var)
        j_e = verify._control_objective(model, cf, noise_var, solved.enc_theta_weight, solved.enc_gain)
        return solved, float(j_e), 0.0

    monkeypatch.setattr(verify, "solve_canonical", nudged)
    out = verify.run_suite("quick", seed=0)
    assert "control_beats_grid" in out["failed"]


def test_checks_are_seeded_by_name_not_position(monkeypatch):
    # inserting a check in front must not re-seed the sampled checks
    before = {c["name"]: c["measured"] for c in verify.run_suite("quick", seed=0)["checks"]}
    extra = ("inserted_first", "quick", lambda rng: (float(rng.random()), 1.0, "<=", ""))
    monkeypatch.setattr(verify, "_CHECKS", [extra, *verify._CHECKS])
    after = {c["name"]: c["measured"] for c in verify.run_suite("quick", seed=0)["checks"]}
    del after["inserted_first"]
    assert after == before


@pytest.mark.parametrize("name", ["max_correlation_gaussian", "max_correlation_linearity"])
def test_a_check_on_a_shared_sample_measures_alone_as_in_the_suite(monkeypatch, name):
    suite = {c["name"]: c["measured"] for c in verify.run_suite("quick", seed=5)["checks"]}
    monkeypatch.setattr(verify, "_CHECKS", [entry for entry in verify._CHECKS if entry[0] == name])
    alone = verify.run_suite("quick", seed=5)["checks"]
    assert [c["name"] for c in alone] == [name]
    assert alone[0]["measured"] == suite[name]


def test_interleaved_seeds_give_the_bytes_of_each_seed_alone():
    # the shared sample is drawn per call, so no call sees another call's draws
    alone = {seed: json.dumps(verify.run_suite("quick", seed=seed)) for seed in (3, 4)}
    for seed in (4, 3, 4, 3):
        assert json.dumps(verify.run_suite("quick", seed=seed)) == alone[seed]


def test_quick_suite_passes_on_every_seed_from_0_to_199():
    failed = {seed: out["failed"] for seed in range(200) if (out := verify.run_suite("quick", seed=seed))["failed"]}
    assert failed == {}
