"""Span tracing for the benchmark's traced run, from outside the package.

:meth:`Tracer.installed` rebinds every public function of every
``stratcomm`` module, in each module namespace that holds it (the defining
module, modules that imported the name, and the package itself), to a
wrapper that records a span; leaving the block restores the originals.
The search callables passed into ``stratcomm._optim`` are wrapped too, so
objective evaluations are counted and their time is not charged to the
search bookkeeping.  No file of the package changes.

A span is (name, start, end, parent).  Spans and counts stay in memory and
:meth:`Tracer.write` stores them when the run ends.  A span's self time is
its duration minus the durations of its child spans; it is accumulated as
spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

PACKAGE = "stratcomm"
SPAN_CAP = 250_000  # spans kept for the trace file; aggregates count all
SERIALIZE = (
    "cli.json.dumps",
    "cli._emit",
    "cli.write_csv",
    "cli.gnuplot_script",
    "_csvio.write_rows",
    "_csvio.format_cell",
)


def _count_sample(counters, args, result) -> None:
    n, d = result.data.shape
    counters["simkit.sample.rows"] += n
    counters["simkit.bytes_computed"] += 2 * n * d * 8  # normals drawn + table


def _count_estimate(counters, args, result) -> None:
    table, scheme, noise = args[0], args[1], args[2]
    streams = int(scheme.enc_noise_var > 0.0) + int(noise > 0.0)
    counters["simkit.bytes_computed"] += table.data.nbytes + streams * table.data.shape[0] * 8


def _count_ace(counters, args, result) -> None:
    counters["simkit.bytes_computed"] += 2 * len(args[0]) * 8


def _count_lloyd(counters, args, result) -> None:
    counters["strategic_rd.lloyd_max.iterations"] += result.iterations


# Counts taken from a call's arguments and result, by traced function.
_HOOKS = {
    "simkit.sample": _count_sample,
    "simkit.estimate_costs": _count_estimate,
    "simkit.ace_max_correlation": _count_ace,
    "strategic_rd.lloyd_max": _count_lloyd,
}


def _short(module_name: str) -> str:
    return module_name[len(PACKAGE) + 1 :]


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {
            "optim.objective_evals": 0.0,
            "simkit.sample.rows": 0.0,
            "simkit.bytes_computed": 0.0,
            "strategic_rd.lloyd_max.iterations": 0.0,
        }
        self._stack: list[list] = []  # [span index, time covered by children]

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _span(self, nid: int, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = len(self.span_start)
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[nid] += 1
            self.self_s[nid] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if idx >= 0:
                self.span_start[idx] = start - self.t0
                self.span_end[idx] = end - self.t0

    def _objective(self, layer: str, fn):
        nid = self._id(f"{layer}.objective")
        counters = self.counters

        @functools.wraps(fn)
        def objective(x, *args, **kwargs):
            counters["optim.objective_evals"] += getattr(x, "size", 1)
            return self._span(nid, fn, (x, *args), kwargs)

        return objective

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counters = self.counters

        if name.startswith("_optim."):
            # Every search takes its objective first and may take a
            # vectorized one as ``f_grid``; both are traced as the caller's.
            @functools.wraps(fn)
            def search(f, *args, **kwargs):
                layer = _short(f.__module__)
                if kwargs.get("f_grid") is not None:
                    kwargs["f_grid"] = self._objective(layer, kwargs["f_grid"])
                return self._span(nid, fn, (self._objective(layer, f), *args), kwargs)

            return search

        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(nid, fn, args, kwargs)
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Rebind the package's public functions to traced wrappers."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            if module.__name__ == PACKAGE or module.__name__.endswith(".errors"):
                continue
            for attr, value in vars(module).items():
                if not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and f"{_short(module.__name__)}.{attr}" not in SERIALIZE:
                    continue
                wrappers[id(value)] = self._wrap(f"{_short(module.__name__)}.{attr}", value)
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        cli = sys.modules.get(PACKAGE + ".cli")
        if cli is not None:
            real = cli.json
            proxy = types.SimpleNamespace(**{k: getattr(real, k) for k in dir(real) if not k.startswith("__")})
            proxy.dumps = self._wrap("cli.json.dumps", real.dumps)
            saved.append((cli, "json", real))
            cli.json = proxy
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    # -- results -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def layer_self_time(self, prefix: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n.startswith(prefix + "."))

    def write(self, path: Path, extra: dict) -> None:
        """Store names, spans (ns since the tracer started), aggregates and ``extra``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {
            "names": self.names,
            "spans": {
                "name": list(self.span_name),
                "parent": list(self.span_parent),
                "start_ns": [round(t * 1e9) for t in self.span_start],
                "end_ns": [round(t * 1e9) for t in self.span_end],
            },
            "spans_dropped": self.dropped,
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": self.counters,
            **extra,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(body, fh)
