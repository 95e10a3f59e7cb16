"""One benchmark process: set up a workload, then run it timed or traced.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
a line ``READY`` once set-up is complete (imports, seeded inputs, one
discarded warm-up pass), then, unless ``--setup-only``, a line ``RESULT``
followed by a JSON object.  Anything else the process prints goes to
stderr.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100
_REPORTED_FAILURES = 5


def _run_ops(ops, tally: dict) -> float:
    """Run operations in order, recording latencies and failures; returns busy time."""
    busy = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            op.check(op.call())
            ok = True
        except Exception as exc:  # any raise or missed check fails the operation
            ok = False
            error = f"{op.kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        busy += elapsed
        tally["latencies"].append(elapsed)
        tally["attempted"] += 1
        if not ok:
            tally["failed"] += 1
            if not op.known_fault:
                tally["unexpected"] += 1
            if len(tally["errors"]) < _REPORTED_FAILURES and error not in tally["errors"]:
                tally["errors"].append(error)
                print(("known fault: " if op.known_fault else "FAILED: ") + error, file=sys.stderr)
    return busy


def _new_tally() -> dict:
    return {"latencies": [], "attempted": 0, "failed": 0, "unexpected": 0, "errors": []}


def run_timed(workload, seconds: float) -> dict:
    """Whole rounds until ``seconds`` of operations and MIN_OPS operations have run.

    Throughput is the operations that passed per second of operation time
    (input generation between rounds is not counted).
    """
    tally = _new_tally()
    busy = 0.0
    index = 0
    while busy < seconds or tally["attempted"] < MIN_OPS:
        rnd = workload.round(index)
        busy += _run_ops(rnd.ops, tally)
        rnd.cleanup()
        index += 1
    lat = tally["latencies"]
    return {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "unexpected": tally["unexpected"],
        "rounds": index,
        "metrics": {
            "ops_per_s": (tally["attempted"] - tally["failed"]) / busy,
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def run_traced(workload, seconds: float, import_s: float, trace_path: Path) -> dict:
    """Pairs of rounds on identical inputs, first untraced, then traced.

    Per-layer figures are per traced round; the tracing overhead is the mean
    extra time of a traced round over its untraced twin.
    """
    import tracing

    tracer = tracing.Tracer()
    tally = _new_tally()
    plain = traced = 0.0
    index = 0
    started = time.perf_counter()
    while index == 0 or time.perf_counter() - started < seconds:
        rnd = workload.round(index)
        plain += _run_ops(rnd.ops, _new_tally())
        rnd.cleanup()
        rnd = workload.round(index)
        with tracer.installed():
            traced += _run_ops(rnd.ops, tally)
        rnd.cleanup()
        index += 1

    per_round = 1.0 / index
    calls = tracer.call_count
    self_s = tracer.self_time
    counters = tracer.counters
    values = {
        "gausslin.require_valid.calls": (calls("gausslin.require_valid"), "count"),
        "gausslin.best_decoder.calls": (calls("gausslin.best_decoder"), "count"),
        "gausslin.best_decoder.self_s": (self_s("gausslin.best_decoder"), "s"),
        "gausslin.scheme_costs.self_s": (self_s("gausslin.scheme_costs"), "s"),
        "gausslin.mmse_linear.self_s": (self_s("gausslin.mmse_linear"), "s"),
        "equilibrium.best_alpha.calls": (calls("equilibrium.best_alpha"), "count"),
        "equilibrium.best_alpha.self_s": (self_s("equilibrium.best_alpha"), "s"),
        "strategic_rd.rd_point.self_s": (self_s("strategic_rd.rd_point"), "s"),
        "noisy_channel.solve_noisy.self_s": (self_s("noisy_channel.solve_noisy"), "s"),
        "side_info.beta_of_rate.calls": (calls("side_info.beta_of_rate"), "count"),
        "side_info.beta_of_rate.self_s": (self_s("side_info.beta_of_rate"), "s"),
        "side_info.solve_noiseless_si.self_s": (self_s("side_info.solve_noiseless_si"), "s"),
        "optim.grid_then_golden.calls": (calls("_optim.grid_then_golden"), "count"),
        "optim.golden_min.calls": (calls("_optim.golden_min"), "count"),
        "optim.objective_evals": (counters["optim.objective_evals"], "count"),
        "optim.self_s": (tracer.layer_self_time("_optim"), "s"),
        "control_games.solve_canonical.self_s": (self_s("control_games.solve_canonical"), "s"),
        "simkit.sample.self_s": (self_s("simkit.sample"), "s"),
        "simkit.sample.rows": (counters["simkit.sample.rows"], "count"),
        "simkit.estimate_costs.self_s": (self_s("simkit.estimate_costs"), "s"),
        "simkit.ace_max_correlation.self_s": (self_s("simkit.ace_max_correlation"), "s"),
        "simkit.bytes_computed": (counters["simkit.bytes_computed"], "bytes"),
        "strategic_rd.lloyd_max.iterations": (counters["strategic_rd.lloyd_max.iterations"], "count"),
        "strategic_rd.lloyd_max.self_s": (self_s("strategic_rd.lloyd_max"), "s"),
        "cli.parse_scenario.self_s": (self_s("cli.parse_scenario"), "s"),
        "cli.solve_scenario.self_s": (self_s("cli.solve_scenario"), "s"),
        "cli.panel_rows.self_s": (self_s("cli.panel_rows"), "s"),
        "cli.serialize_s": (sum(self_s(name) for name in tracing.SERIALIZE), "s"),
        "verify.run_suite.self_s": (self_s("verify.run_suite"), "s"),
        "trace.overhead_s": (traced - plain, "s"),
    }
    metrics = {name: {"value": value * per_round, "unit": unit} for name, (value, unit) in values.items()}
    metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
    tracer.write(
        trace_path,
        {
            "workload": workload.name,
            "seed": workload.seed,
            "traced_rounds": index,
            "untraced_s": plain,
            "traced_s": traced,
            "metrics": metrics,
        },
    )
    return {
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "unexpected": tally["unexpected"],
        "rounds": index,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy  # noqa: F401  (timed with the package imports)
    import scipy  # noqa: F401
    import stratcomm  # noqa: F401
    import stratcomm.cli  # noqa: F401

    import_s = time.perf_counter() - started
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
    warm = workload.warmup()
    _run_ops(warm.ops, _new_tally())
    warm.cleanup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        trace_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        result = run_traced(workload, args.seconds, import_s, trace_path)
    else:
        result = run_timed(workload, args.seconds)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
