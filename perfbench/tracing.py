"""Spans and counters for the traced run, installed from outside ``riopt``.

Every wrapped call becomes a span (name, start, end, parent span). The spans
of one experiment run share its run id, stay in memory while it runs and are
written when it ends. A wrapper is installed wherever callers look the name
up: a module function in every ``riopt`` module that holds it, a method on
its class, a numpy LAPACK routine on ``numpy.linalg``. A name the program no
longer has is skipped and reports zero calls. Leaving the ``Tracer`` context
puts every original back.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MANIFOLD_CLASSES = ("Hyperbolic", "SPD", "Sphere", "Product")
MANIFOLD_METHODS = ("exp", "log", "dist", "transport", "inner")
GEOMETRY_MEANS = ("geometry.frechet_mean", "geometry.weighted_frechet_mean")
# Spans that hold the whole experiment run. Their self time is the time no
# layer accounts for, so trace.self_coverage leaves it out.
ROOT_SPANS = ("cli.main", "bench.run_experiment")
SOLVER_STEPS = ("games.rogda_step", "games.rgda_step", "games.rceg_step")

# Methods wrapped on their class: span name -> (module, class, method).
CLASS_METHODS = {
    "games.field": ("riopt.games", "ZeroSumGame", "field"),
    "games.value": ("riopt.games", "ZeroSumGame", "value"),
    "streams.loss.grad": ("riopt.streams", "FrechetMeanLoss", "grad"),
    "streams.loss.value": ("riopt.streams", "FrechetMeanLoss", "value"),
}
CLASS_METHODS.update(
    {
        f"manifolds.{cls}.{m}": ("riopt.manifolds", cls, m)
        for cls in MANIFOLD_CLASSES
        for m in MANIFOLD_METHODS
    }
)
CLASS_METHODS.update(
    {
        f"manifolds.Hyperbolic.{m}": ("riopt.manifolds", "Hyperbolic", m)
        for m in ("log_many", "dist_many")
    }
)
# Payoff partial gradients are fields of the game instance, so they are
# wrapped on the game that ``riopt.bench.build_game`` returns.
GAME_FIELDS = ("grad_x", "grad_y")
GAME_FIELD_SPANS = tuple(f"games.{f}" for f in GAME_FIELDS)
# Calls whose repeats on an identical (object, point) pair are counted.
KEYED = ("streams.loss.grad", "streams.loss.value", "games.field")
# LAPACK routines whose stacked inputs are counted as matrices.
STACKED = ("kernel.eigh",)


def _metric_names() -> list[str]:
    names = []
    for cls in MANIFOLD_CLASSES:
        for m in MANIFOLD_METHODS:
            names += [f"manifolds.{cls}.{m}.calls", f"manifolds.{cls}.{m}.self_s"]
    for m in ("log_many", "dist_many"):
        names += [f"manifolds.Hyperbolic.{m}.calls", f"manifolds.Hyperbolic.{m}.self_s"]
    names += [
        "kernel.eigh.calls",
        "kernel.eigh.matrices",
        "kernel.eigh.self_s",
        "kernel.eigvalsh.calls",
        "kernel.slogdet.calls",
    ]
    for span in GEOMETRY_MEANS:
        names += [f"{span}.{s}" for s in ("calls", "total_s", "self_s", "iters", "failures")]
    names += ["streams.gen_frechet_stream.total_s", "streams.fixed_probe_points.total_s"]
    for m in ("grad", "value"):
        names += [f"streams.loss.{m}.{s}" for s in ("calls", "self_s", "repeat_ratio")]
    for f in ("rogd_step", "roogd_step", "roogd_corrected_step", "aoogd_round", "regret_update"):
        names += [f"online.{f}.{s}" for s in ("calls", "total_s", "self_s")]
    names += [f"games.field.{s}" for s in ("calls", "total_s", "self_s", "per_step", "repeat_ratio")]
    for f in ("value",) + GAME_FIELDS:
        names += [f"games.{f}.calls", f"games.{f}.total_s"]
    for f in ("rogda_step", "rgda_step", "rceg_step", "geodesic_average", "ne_diagnostics"):
        names += [f"games.{f}.calls", f"games.{f}.self_s"]
    for f in (
        "triangle_comparison_suite",
        "holonomy_probe",
        "fd_gradient_check",
        "correction_blowup_trace",
    ):
        names += [f"verify.{f}.calls", f"verify.{f}.total_s"]
    names += [
        "bench.run_experiment.total_s",
        "bench.run_experiment.self_s",
        "bench.write_outputs.total_s",
        "cli.main.total_s",
        "trace.overhead_ratio",
        "trace.self_coverage",
    ]
    return names


METRICS = _metric_names()
SPANS = tuple(dict.fromkeys(n.rsplit(".", 1)[0] for n in METRICS if not n.startswith("trace.")))
UNITS = {
    "calls": "count",
    "matrices": "count",
    "iters": "count",
    "failures": "count",
    "total_s": "s",
    "self_s": "s",
    "repeat_ratio": "ratio",
    "per_step": "calls/step",
    "overhead_ratio": "ratio",
    "self_coverage": "ratio",
}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


class Trace:
    """The spans and counters of one experiment run."""

    def __init__(self, run_id: str, names: list[str]):
        self.run_id = run_id
        self.names = names
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.failures: list[tuple[int, str]] = []
        self.seen: dict[int, set] = defaultdict(set)
        self.repeats: Counter = Counter()
        self.matrices: Counter = Counter()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez(
                fh,
                run_id=np.array(self.run_id),
                names=np.array(self.names),
                name=name,
                parent=parent,
                start=start,
                end=end,
            )


def span_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Duration and self time of every span.

    Self time is the duration minus the durations of the direct children;
    spans of one thread nest, so the children cover disjoint parts of it.
    """
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - child


def nested_counts(
    name: np.ndarray, parent: np.ndarray, counted: set, owners: set, n_names: int
) -> np.ndarray:
    """Per owner name, the spans named in ``counted`` that run inside it.

    A counted span nested in another counted span is left out, so an exp
    that calls a factor's exp is one iteration.
    """
    totals = np.zeros(n_names, dtype=np.int64)
    idx = np.flatnonzero(np.isin(name, list(counted)))
    cur = parent[idx]
    while cur.size:
        cur = cur[cur >= 0]
        cur = cur[~np.isin(name[cur], list(counted))]
        hit = name[cur]
        own = np.isin(hit, list(owners))
        np.add.at(totals, hit[own], 1)
        cur = parent[cur]
    return totals


class Tracer:
    """Installs the span wrappers for the life of a ``with`` block."""

    def __init__(self):
        self.names = list(SPANS)
        self.ids = {n: i for i, n in enumerate(self.names)}
        self.trace = Trace("", self.names)
        self._installed: list[tuple[object, str, object, bool]] = []

    def start_run(self, run_id: str) -> Trace:
        self.trace = Trace(run_id, self.names)
        return self.trace

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for span in SPANS:
            if span in CLASS_METHODS:
                module, cls_name, meth = CLASS_METHODS[span]
                cls = getattr(sys.modules.get(module), cls_name, None)
                if cls is not None and getattr(cls, meth, None) is not None:
                    self._set(cls, meth, self._wrap(span, getattr(cls, meth)))
            elif span.startswith("kernel."):
                linalg = sys.modules["numpy.linalg"]
                self._wrap_everywhere(span, linalg, span.split(".", 1)[1], [linalg])
            elif span not in GAME_FIELD_SPANS:
                layer, attr = span.split(".", 1)
                self._wrap_everywhere(span, sys.modules.get(f"riopt.{layer}"), attr, [])
        self._wrap_everywhere(None, sys.modules.get("riopt.bench"), "build_game", [])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def _set(self, owner, attr, value) -> None:
        own = attr in vars(owner)
        self._installed.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def _wrap_everywhere(self, span, home, attr, extra_owners) -> None:
        """Wrap ``home.attr`` in every riopt module that holds the same object."""
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapper = self._build_game(original) if span is None else self._wrap(span, original)
        owners = extra_owners + [
            mod
            for name, mod in list(sys.modules.items())
            if (name == "riopt" or name.startswith("riopt.")) and mod is not None
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapper)

    # -- wrappers -----------------------------------------------------------
    def _build_game(self, build_game):
        tracer = self

        @functools.wraps(build_game)
        def traced_build_game(*args, **kwargs):
            game = build_game(*args, **kwargs)
            if not dataclasses.is_dataclass(game):
                return game
            fields = {
                f: tracer._wrap(f"games.{f}", getattr(game, f))
                for f in GAME_FIELDS
                if callable(getattr(game, f, None))
            }
            return dataclasses.replace(game, **fields)

        return traced_build_game

    def _wrap(self, span: str, fn):
        tracer = self
        nid = self.ids[span]
        keyed = span in KEYED
        stacked = span in STACKED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t = tracer.trace
            i = len(t.start)
            t.name.append(nid)
            t.parent.append(t.stack[-1])
            t.end.append(0.0)
            if keyed and len(args) > 1:
                key = (id(args[0]), args[1].coords.tobytes())
                seen = t.seen[nid]
                if key in seen:
                    t.repeats[nid] += 1
                else:
                    seen.add(key)
            if stacked:
                shape = np.shape(args[0])
                t.matrices[nid] += int(np.prod(shape[:-2], dtype=np.int64))
            t.stack.append(i)
            t.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                t.failures.append((i, type(exc).__name__))
                raise
            finally:
                t.end[i] = clock()
                t.stack.pop()

        return traced


def layer_metrics(trace: Trace, traced_wall_s: float) -> dict:
    """Every metric of METRICS for one traced run, except
    trace.overhead_ratio, which compares traced with untraced runs."""
    ids = {n: i for i, n in enumerate(trace.names)}
    n_names = len(trace.names)
    name, parent, start, end = trace.arrays()
    dur, self_t = span_times(parent, start, end)
    calls = np.bincount(name, minlength=n_names)
    exp_ids = {ids[s] for s in SPANS if s.startswith("manifolds.") and s.endswith(".exp")}
    steps = sum(int(calls[ids[s]]) for s in SOLVER_STEPS)

    def counter(counts) -> np.ndarray:
        out = np.zeros(n_names, dtype=np.int64)
        for nid, n in counts.items():
            out[nid] = n
        return out

    failures = Counter(int(name[i]) for i, kind in trace.failures if kind == "FrechetMeanError")
    columns = {
        "calls": calls,
        "total_s": np.bincount(name, weights=dur, minlength=n_names),
        "self_s": np.bincount(name, weights=self_t, minlength=n_names),
        "iters": nested_counts(name, parent, exp_ids, {ids[s] for s in GEOMETRY_MEANS}, n_names),
        "failures": counter(failures),
        "matrices": counter(trace.matrices),
        "repeat_ratio": counter(trace.repeats) / np.maximum(calls, 1),
        "per_step": calls / steps if steps else np.zeros(n_names),
    }
    out = {}
    for metric in METRICS:
        span, kind = metric.rsplit(".", 1)
        if kind in columns:
            out[metric] = columns[kind][ids[span]].item()
    layered = ~np.isin(name, [ids[s] for s in ROOT_SPANS])
    out["trace.self_coverage"] = float(self_t[layered].sum()) / traced_wall_s
    return out
