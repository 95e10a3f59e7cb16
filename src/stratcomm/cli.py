"""Command line interface: scenario files in, reports and sweep data out.

Typical calls::

    stratcomm solve --scenario game.json --out report.json
    stratcomm sweep --panel fig3a --out fig3a.csv --gnuplot fig3a.gp
    stratcomm verify --quick --out summary.json

Scenario files are strict JSON with a version field (``"schema": 1``);
unknown or misspelled fields are rejected by name, never ignored.  Rates
are read in bits unless ``--rate-units nats`` is given, and reports quote
both units.  Exit codes: 0 on success, 1 on validation problems (the
message names the offending field), 2 on numerical failures such as
``NoRoot``.

Two tables hold the rest.  ``_KINDS`` states the schema and the solver of
each scenario kind; a kind that names the linear scheme its report states
accepts a ``sim`` block, and the seeded Monte Carlo check samples that
scheme and compares its costs with the report's own.  ``_SCENARIO_COMMANDS``
lists the subcommands that solve one scenario file (``solve``, ``rd``,
``si-match``, ``control-check``); they differ only in the kinds they take.

Reports are JSON with sorted keys and full-precision floats, so a given
(scenario, seed, version) triple reproduces its report byte for byte.
Sweep CSVs use ``repr`` floats for the same reason: re-reading a row and
re-evaluating it reproduces the file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from typing import Callable, Container, Mapping, Sequence

import numpy as np

from . import simkit, verify
from ._csvio import write_rows
from .control_games import QuadraticObjective, _classification, _solve_form, canonicalize
from .equilibrium import _linear_costs, _stationary_weight, solve_noiseless
from .errors import (
    InvalidDistribution,
    InvalidModel,
    NonCanonicalizable,
    SingularObservation,
    ZeroRate,
)
from .gausslin import (
    LinearScheme,
    SideInfoModel,
    SourcePairModel,
    _require_finite,
    best_decoder,
    validate_model,
)
from .noisy_channel import ChannelSpec, capacity, opta_bound, power_sweep, solve_noisy
from .side_info import find_matched_rho_xw, match_condition, si_rd_point, solve_noiseless_si
from .strategic_rd import nats_to_bits, rd_point, rd_sweep

# ArithmeticError covers NoRoot, Unbounded and any unguarded overflow alike.
_NUMERICAL_ERRORS = (
    ArithmeticError,
    SingularObservation,
    ZeroRate,
    NonCanonicalizable,
)

_SECTIONS = ("channel", "rate", "objectives", "sim")  # the optional top-level fields
_TOP_FIELDS = frozenset({"schema", "kind", "model", *_SECTIONS})
_SIM_FIELDS = frozenset({"seed", "n", "chunk"})
_OBJECTIVE_FIELDS = frozenset({"encoder", "decoder"})


class SchemaError(ValueError):
    """A scenario file does not conform to the published schema."""


@dataclass(frozen=True)
class Scenario:
    kind: str
    model: SourcePairModel | SideInfoModel
    channel: ChannelSpec | None
    rate_bits: float | None
    objectives: tuple[QuadraticObjective, QuadraticObjective] | None
    sim: simkit.SimConfig | None


# ---------------------------------------------------------------------------
# Scenario parsing


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return value


def _reject_unknown(mapping: dict, allowed: Container[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise SchemaError(f"{path}: unknown field '{key}'")


def _number(mapping: dict, key: str, path: str, default=None, integer: bool = False):
    """A finite number from ``mapping[key]``, or with ``integer`` a JSON integer."""
    if key not in mapping:
        if default is not None:
            return default
        raise SchemaError(f"{path}.{key}: required field is missing")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise SchemaError(f"{path}.{key}: expected {'an integer' if integer else 'a number'}")
    if integer:
        return value
    try:
        value = float(value)
    except OverflowError:  # a JSON integer past the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{path}.{key}: must be finite")
    return value


def _parse_fields(raw, cls, path: str, defaults: Mapping[str, float]):
    """Build ``cls`` from a JSON object with one finite number per dataclass field."""
    mapping = _require_mapping(raw, path)
    names = [f.name for f in fields(cls)]
    _reject_unknown(mapping, names, path)
    return cls(**{name: _number(mapping, name, path, defaults.get(name)) for name in names})


def _parse_objective_table(raw: dict, path: str) -> QuadraticObjective:
    mapping = _require_mapping(raw, path)
    for key in mapping:
        _number(mapping, key, path)
    try:
        return QuadraticObjective.from_dict(mapping)
    except NonCanonicalizable as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _parse_objectives(raw: dict) -> tuple[QuadraticObjective, QuadraticObjective]:
    table = _require_mapping(raw, "objectives")
    _reject_unknown(table, _OBJECTIVE_FIELDS, "objectives")
    if "encoder" not in table or "decoder" not in table:
        raise SchemaError("objectives: both 'encoder' and 'decoder' tables are required")
    return (
        _parse_objective_table(table["encoder"], "objectives.encoder"),
        _parse_objective_table(table["decoder"], "objectives.decoder"),
    )


def _parse_rate(mapping: dict, rate_units: str) -> float:
    rate = _number(mapping, "rate", "scenario")
    if rate < 0.0:
        raise SchemaError("rate: must be nonnegative")
    return rate if rate_units == "bits" else nats_to_bits(rate)


def _parse_sim(raw: dict) -> simkit.SimConfig:
    mapping = _require_mapping(raw, "sim")
    _reject_unknown(mapping, _SIM_FIELDS, "sim")
    seed = _number(mapping, "seed", "sim", integer=True)
    if not 0 <= seed < 2**64:
        raise SchemaError("sim.seed: must fit in an unsigned 64-bit integer")
    n = _number(mapping, "n", "sim", integer=True)
    if n < 1:
        raise SchemaError("sim.n: need at least one sample")
    chunk = _number(mapping, "chunk", "sim", default=2**16, integer=True)
    if chunk < 1:
        raise SchemaError("sim.chunk: must be positive")
    return simkit.SimConfig(seed=seed, n=n, chunk=chunk)


def parse_scenario(raw: dict, rate_units: str = "bits") -> Scenario:
    """Validate a decoded scenario object against the schema, strictly."""
    mapping = _require_mapping(raw, "scenario")
    _reject_unknown(mapping, _TOP_FIELDS, "scenario")
    if "schema" not in mapping:
        raise SchemaError("schema: required field is missing")
    if mapping["schema"] != 1:
        raise SchemaError(f"schema: unsupported version {mapping['schema']!r}, expected 1")
    kind = mapping.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"kind: expected one of {', '.join(_KINDS)}")
    spec = _KINDS[kind]
    if "model" not in mapping:
        raise SchemaError("model: required field is missing")
    for name in _SECTIONS:
        if name in mapping:
            if not spec.allows(name):
                raise SchemaError(f"{name}: not used for kind '{kind}'")
        elif name in spec.required:
            raise SchemaError(f"{name}: required for kind '{kind}'")
    return Scenario(
        kind=kind,
        model=_parse_fields(mapping["model"], spec.model, "model", spec.defaults),
        channel=_parse_fields(mapping["channel"], ChannelSpec, "channel", {}) if "channel" in mapping else None,
        rate_bits=_parse_rate(mapping, rate_units) if "rate" in mapping else None,
        objectives=_parse_objectives(mapping["objectives"]) if "objectives" in mapping else None,
        sim=_parse_sim(mapping["sim"]) if "sim" in mapping else None,
    )


def load_scenario(path: str, rate_units: str = "bits") -> Scenario:
    raw = json.loads(Path(path).read_text())
    return parse_scenario(raw, rate_units=rate_units)


# ---------------------------------------------------------------------------
# Reports


def _rd_scheme(model, report: dict) -> LinearScheme:
    if math.isfinite(report["sigma_s2"]):
        encoder = LinearScheme(enc_gain=1.0, enc_theta_weight=report["beta"], enc_noise_var=report["sigma_s2"])
    else:
        encoder = LinearScheme(enc_gain=0.0)
    solved, _ = best_decoder(model, encoder)
    return solved


def _payload_noiseless(scn: Scenario, classify_only: bool) -> dict:
    rep = solve_noiseless(scn.model)
    return {
        "alpha": rep.alpha,
        "kappa": rep.kappa,
        "a_aux": rep.a_aux,
        "d_e": rep.costs.d_e,
        "d_d": rep.costs.d_d,
    }


def _payload_rd(scn: Scenario, classify_only: bool) -> dict:
    point = (rd_point if scn.kind == "rd" else si_rd_point)(scn.model, scn.rate_bits)
    return {
        "rate_bits": point.rate,
        "rate_nats": point.rate * math.log(2.0),
        "beta": point.beta,
        "sigma_s2": point.sigma_s2,
        "d_e": point.costs.d_e,
        "d_d": point.costs.d_d,
    }


def _payload_noisy(scn: Scenario, classify_only: bool) -> dict:
    scheme, costs = solve_noisy(scn.model, scn.channel)
    bound = opta_bound(scn.model, scn.channel)
    return {
        "capacity_bits": capacity(scn.channel),
        "gain": scheme.enc_gain,
        "theta_weight": scheme.enc_theta_weight,
        "dec_y_weight": scheme.dec_y_weight,
        "d_e": costs.d_e,
        "d_d": costs.d_d,
        "opta_d_e": bound,
        "gap": costs.d_e - bound,
    }


def _payload_si_noiseless(scn: Scenario, classify_only: bool) -> dict:
    rep = solve_noiseless_si(scn.model)
    return {
        "alpha_si": rep.alpha_si,
        "dec_y_weight": rep.dec_y,
        "dec_w_weight": rep.dec_w,
        "d_e": rep.costs.d_e,
        "d_d": rep.costs.d_d,
    }


def _payload_si_match(scn: Scenario, classify_only: bool) -> dict:
    root = find_matched_rho_xw(scn.model, scn.channel)
    report = match_condition(replace(scn.model, rho_x_w=root), scn.channel)
    return {
        "rho_x_w_root": root,
        "capacity_bits": report.rate,
        "beta": report.beta,
        "residual": report.residual,
        "matched": report.matched,
        "gap": report.gap,
        "d_e": report.costs.d_e,
        "d_d": report.costs.d_d,
    }


def _payload_control(scn: Scenario, classify_only: bool) -> dict:
    phi_e, phi_d = scn.objectives
    noise_var = scn.channel.noise_var if scn.channel else 0.0
    try:
        cf = canonicalize(phi_e, phi_d)
    except NonCanonicalizable as exc:
        if not classify_only:
            raise
        return {"noise_var": noise_var, "classification": _classification(phi_e, phi_d, exc)}
    payload: dict = {"noise_var": noise_var, "classification": _classification(phi_e, phi_d, cf)}
    scheme, raw_e, raw_d = _solve_form(scn.model, cf, phi_e, phi_d, noise_var)
    payload["solution"] = {
        "gain": scheme.enc_gain,
        "theta_weight": scheme.enc_theta_weight,
        "dec_y_weight": scheme.dec_y_weight,
        "controller_cost": raw_e,
        "receiver_cost": raw_d,
    }
    return payload


@dataclass(frozen=True)
class _Kind:
    """How one scenario kind is read and solved.

    Each of the optional top-level fields in ``_SECTIONS`` is required if
    listed in ``required``, allowed if listed in ``allowed`` and rejected
    otherwise; ``sim`` is allowed exactly when the kind has ``simulated``,
    the linear scheme its report states, which the Monte Carlo check
    samples.  ``defaults`` holds the model fields a scenario may omit.
    """

    model: type
    payload: Callable[[Scenario, bool], dict]
    required: tuple[str, ...] = ()
    allowed: tuple[str, ...] = ()
    simulated: Callable[[SourcePairModel | SideInfoModel, dict], LinearScheme] | None = None
    defaults: Mapping[str, float] = field(default_factory=lambda: {"sigma_x2": 1.0})

    def allows(self, name: str) -> bool:
        return name in self.required or name in self.allowed or (name == "sim" and self.simulated is not None)


# The schema, one entry per kind; the README's "Scenario files" list states it in prose.
_KINDS = {
    "noiseless": _Kind(
        SourcePairModel,
        _payload_noiseless,
        simulated=lambda model, rep: LinearScheme(enc_theta_weight=rep["alpha"], dec_y_weight=rep["kappa"]),
    ),
    "rd": _Kind(SourcePairModel, _payload_rd, required=("rate",), simulated=_rd_scheme),
    "noisy": _Kind(
        SourcePairModel,
        _payload_noisy,
        required=("channel",),
        simulated=lambda model, rep: LinearScheme(
            enc_gain=rep["gain"], enc_theta_weight=rep["theta_weight"], dec_y_weight=rep["dec_y_weight"]
        ),
    ),
    "si_noiseless": _Kind(
        SideInfoModel,
        _payload_si_noiseless,
        simulated=lambda model, rep: LinearScheme(
            enc_theta_weight=rep["alpha_si"], dec_y_weight=rep["dec_y_weight"], dec_w_weight=rep["dec_w_weight"]
        ),
    ),
    "si_rd": _Kind(SideInfoModel, _payload_rd, required=("rate",), simulated=_rd_scheme),
    # si_match solves for rho_x_w, so the model may leave it out
    "si_match": _Kind(
        SideInfoModel, _payload_si_match, required=("channel",), defaults={"sigma_x2": 1.0, "rho_x_w": 0.0}
    ),
    "control": _Kind(SourcePairModel, _payload_control, required=("objectives",), allowed=("channel",)),
}


def solve_scenario(scn: Scenario, sim=None, classify_only: bool = False) -> dict:
    """Produce the kind-appropriate JSON-ready report for one scenario.

    Given ``sim``, a kind with a ``simulated`` scheme also reports a Monte
    Carlo estimate of that scheme's costs against the report's own; other
    kinds ignore it, as their scenarios cannot carry one.
    """
    spec = _KINDS[scn.kind]
    payload = {"schema": 1, "kind": scn.kind, "model": vars(scn.model).copy()}
    if scn.channel is not None:
        payload["channel"] = vars(scn.channel).copy()
    payload.update(spec.payload(scn, classify_only))
    if sim is not None and spec.simulated is not None:
        scheme = spec.simulated(scn.model, payload)
        noise_var = scn.channel.noise_var if scn.channel else 0.0
        est = simkit.estimate_costs(simkit.sample(scn.model, sim), scheme, noise_var, sim)
        payload["sim"] = {
            "seed": sim.seed,
            "n": sim.n,
            "d_e": simkit.verification_report(est.costs.d_e, est.stderr_e, payload["d_e"]),
            "d_d": simkit.verification_report(est.costs.d_d, est.stderr_d, payload["d_d"]),
        }
    return payload


# ---------------------------------------------------------------------------
# Sweep panels


def panel_rows(
    panel: str,
    points: int | None = None,
    lo: float | None = None,
    hi: float | None = None,
    model: SourcePairModel | None = None,
    noise_var: float = 1.0,
) -> tuple[tuple[str, ...], list[tuple]]:
    """Grid rows for one sweep panel, in grid order.

    ``fig3a``: costs against the bias spread r at rho = 0.
    ``fig3b``: costs against the correlation rho at r = 1.
    ``fig3c``: rate curves for r = 1 and r = 0.1 at rho = 0.
    ``custom``: costs against the power ratio for a supplied noisy model.
    Grid points with an invalid model are kept, flagged valid = 0, and not
    evaluated.
    """
    _require_finite(**{name: v for name, v in (("lo", lo), ("hi", hi)) if v is not None})
    if panel in ("fig3a", "fig3b"):
        if panel == "fig3a":
            grid = np.linspace(lo if lo is not None else 0.05, hi if hi is not None else 10.0, points or 200)
            models = [SourcePairModel(sigma_x2=1.0, rho=0.0, r=float(v)) for v in grid]
            header: tuple[str, ...] = ("r", "d_e", "d_d", "valid")
        else:
            grid = np.linspace(lo if lo is not None else -0.9, hi if hi is not None else 0.9, points or 181)
            models = [SourcePairModel(sigma_x2=1.0, rho=float(v), r=1.0) for v in grid]
            header = ("rho", "d_e", "d_d", "valid")
        valid = np.array([validate_model(m).ok for m in models], dtype=bool)
        rho, r = np.array([(m.rho, m.r) for m in models])[valid].T
        d_e, d_d = np.full((2, grid.size), math.nan)
        # sigma_x2 = 1, so the kernel's costs per unit sigma_x2 are the costs
        _, d_e[valid], d_d[valid] = _linear_costs(rho, r, _stationary_weight(rho, r), 1.0, 0.0, 0.0)
        rows = [(float(v), float(e), float(d), int(ok)) for v, e, d, ok in zip(grid, d_e, d_d, valid)]
        return header, rows

    if panel == "fig3c":
        rates = np.linspace(lo if lo is not None else 0.0, hi if hi is not None else 5.0, points or 101)
        wide = rd_sweep(SourcePairModel(sigma_x2=1.0, rho=0.0, r=1.0), rates)
        narrow = rd_sweep(SourcePairModel(sigma_x2=1.0, rho=0.0, r=0.1), rates)
        header = ("rate_bits", "d_e_r1", "d_d_r1", "d_e_r01", "d_d_r01")
        rows = [
            (float(rate), w.costs.d_e, w.costs.d_d, n.costs.d_e, n.costs.d_d)
            for rate, w, n in zip(rates, wide, narrow)
        ]
        return header, rows

    if panel == "custom":
        if model is None:
            raise SchemaError("scenario: --scenario with a noisy-kind model is required for the custom panel")
        ratios = np.linspace(lo if lo is not None else 0.1, hi if hi is not None else 20.0, points or 60)
        header = ("p_over_n", "capacity_bits", "d_e", "d_d", "gain")
        rows = [
            (row.p_over_n, row.capacity_bits, row.d_e, row.d_d, row.gain)
            for row in power_sweep(model, ratios, noise_var=noise_var)
        ]
        return header, rows

    raise SchemaError(f"panel: unknown panel '{panel}'")


def gnuplot_script(csv_path: str, header: Sequence[str]) -> str:
    """A minimal plotting script for a sweep CSV; no plotting dependency."""
    plots = [
        f"  '{csv_path}' using 1:{idx + 1} with lines title '{name}'"
        for idx, name in enumerate(header)
        if idx > 0 and name != "valid"
    ]
    lines = [
        "set datafile separator ','",
        "set key outside",
        f"set xlabel '{header[0]}'",
        "set ylabel 'cost'",
        "plot \\",
        ", \\\n".join(plots),
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _effective_sim(scn: Scenario, seed: int | None, samples: int | None):
    """The scenario's sim block with the --seed and --samples overrides applied."""
    if seed is None and samples is None:
        return scn.sim
    if not _KINDS[scn.kind].allows("sim"):
        raise SchemaError(f"sim: not used for kind '{scn.kind}'")
    if scn.sim is None and samples is None:
        raise SchemaError("sim: --seed needs a sim block in the scenario or --samples")
    sim = scn.sim or simkit.SimConfig(seed=verify.DEFAULT_SEED, n=samples)
    return _parse_sim({
        "seed": sim.seed if seed is None else seed,
        "n": sim.n if samples is None else samples,
        "chunk": sim.chunk,
    })


def _cmd_solve(args) -> int:
    """Solve one scenario file and emit its JSON report."""
    scn = load_scenario(args.scenario, rate_units=args.rate_units)
    if args.kinds and scn.kind not in args.kinds:
        raise SchemaError(f"kind: this command handles {', '.join(args.kinds)}, got '{scn.kind}'")
    sim = _effective_sim(scn, args.seed, args.samples)
    payload = solve_scenario(scn, sim=sim, classify_only=args.classify_only)
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    model = None
    noise_var = 1.0
    if args.panel == "custom":
        if not args.scenario:
            raise SchemaError("scenario: --scenario is required for the custom panel")
        scn = load_scenario(args.scenario)
        if scn.kind != "noisy":
            raise SchemaError(f"kind: the custom panel needs a 'noisy' scenario, got '{scn.kind}'")
        model = scn.model
        noise_var = scn.channel.noise_var
    if args.points is not None and args.points < 2:
        raise SchemaError("points: need at least two grid points")
    if args.lo is not None and args.hi is not None and not args.lo < args.hi:
        raise SchemaError("lo: grid bounds must satisfy lo < hi")
    header, rows = panel_rows(
        args.panel, points=args.points, lo=args.lo, hi=args.hi, model=model, noise_var=noise_var
    )
    if "valid" in header:
        flag = header.index("valid")
        n_valid = sum(int(row[flag]) for row in rows)
    else:
        n_valid = len(rows)
    if n_valid == 0:
        print("error: grid: no valid grid points", file=sys.stderr)
        return 1
    write_rows(args.out, header, rows)
    if args.gnuplot:
        Path(args.gnuplot).write_text(gnuplot_script(args.out, header))
    return 0


def _cmd_verify(args) -> int:
    profile = "full" if args.full else "quick"
    summary = verify.run_suite(profile=profile, seed=args.seed)
    _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.out)
    if args.out:
        for check in summary["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            print(
                f"{status} {check['name']}: {check['measured']:.3e} "
                f"{check['comparator']} {check['tolerance']:.3e}"
            )
    return 0 if summary["passed"] else 2


# The scenario subcommands: (name, help, kinds it accepts or None for any, classify_only).
_SCENARIO_COMMANDS = (
    ("solve", "solve any scenario kind", None, False),
    ("rd", "evaluate one rate-limited disclosure point", ("rd", "si_rd"), False),
    ("si-match", "solve the matched-correlation condition", ("si_match",), False),
    ("control-check", "classify (and solve) a control game", ("control",), True),
)


@cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratcomm",
        description="Solvers and sweeps for leader-follower communication games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, kinds, classify_only in _SCENARIO_COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, help="path to a schema-1 scenario JSON file")
        cmd.add_argument("--out", default=None, help="write the report here instead of stdout")
        cmd.add_argument("--seed", type=int, default=None, help="override the scenario's sim seed")
        cmd.add_argument("--samples", type=int, default=None, help="sample count for Monte Carlo cross-checks")
        cmd.add_argument(
            "--rate-units", choices=("bits", "nats"), default="bits", dest="rate_units",
            help="units of the scenario's rate field (default bits)",
        )
        cmd.set_defaults(func=_cmd_solve, kinds=kinds, classify_only=classify_only)

    sweep = sub.add_parser("sweep", help="write one panel of sweep data as CSV")
    sweep.add_argument("--panel", required=True, choices=("fig3a", "fig3b", "fig3c", "custom"))
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--points", type=int, default=None, help="number of grid points")
    sweep.add_argument("--lo", type=float, default=None, help="grid lower bound")
    sweep.add_argument("--hi", type=float, default=None, help="grid upper bound")
    sweep.add_argument("--scenario", default=None, help="noisy scenario for the custom panel")
    sweep.add_argument("--gnuplot", default=None, help="also write a gnuplot script here")
    sweep.set_defaults(func=_cmd_sweep)

    check = sub.add_parser("verify", help="run the named self-check battery")
    profile = check.add_mutually_exclusive_group()
    profile.add_argument("--quick", action="store_true", help="fast profile (default)")
    profile.add_argument("--full", action="store_true", help="adds million-sample checks")
    check.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    check.add_argument("--out", default=None, help="write the JSON summary here")
    check.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InvalidModel, InvalidDistribution) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
