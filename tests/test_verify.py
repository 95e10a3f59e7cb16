"""Self-check battery: suite contract, determinism, tamper detection."""

import json

import pytest

import stratcomm.side_info as side_info
from stratcomm import verify


def test_quick_suite_passes_and_serializes():
    out = verify.run_suite("quick", seed=0)
    assert out["profile"] == "quick"
    assert out["n_failed"] == 0
    assert out["failed"] == []
    assert out["n_checks"] == len(out["checks"]) == 26
    # the CLI writes this dict straight to disk, so it must round-trip
    blob = json.dumps(out)
    assert json.loads(blob)["n_checks"] == 26


def test_full_suite_is_a_superset_of_quick():
    quick = {name for name, profile, _ in verify._CHECKS if profile == "quick"}
    every = {name for name, _, _ in verify._CHECKS}
    assert quick < every
    assert len(every) == len(verify._CHECKS)  # names are unique


def test_suite_is_deterministic():
    a = verify.run_suite("quick", seed=123)
    b = verify.run_suite("quick", seed=123)
    va = {c["name"]: c["measured"] for c in a["checks"]}
    vb = {c["name"]: c["measured"] for c in b["checks"]}
    assert va == vb


def test_unknown_profile_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("exhaustive")


def test_battery_catches_skipped_conditioning(monkeypatch):
    # solving the plain game on (X, theta) while ignoring W must trip the
    # brute-force grid check rather than pass silently
    monkeypatch.setattr(side_info, "_conditional_pair", lambda m: m.pair_part())
    out = verify.run_suite("quick", seed=0)
    assert out["n_failed"] > 0
    assert "si_weight_beats_grid" in out["failed"]
