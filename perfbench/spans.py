"""Span tracing of the chebnets layers, from outside the program.

A `Tracer` wraps public functions of `src/chebnets` and records one span per
call: name, start, end and parent span. Spans are kept in compact arrays in
memory and written out when the run ends. A span's self time is its duration
minus the durations of its child spans; the wrappers' own bookkeeping lands
in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name). A function is wrapped at every chebnets
# module attribute bound to it (`from .chebyshev import cheb` binds `cheb`
# again in verifiers, lipschitz and cli); a dataclass is wrapped through its
# `__post_init__`, which its generated `__init__` looks up on every call.
LAYERS = [
    ("cli", "main", "cli.main"),
    ("cli", "suite_all", "cli.suite_all"),
    ("verifiers", "verify_lemma1", "verifiers.verify_lemma1"),
    ("verifiers", "verify_lemma2", "verifiers.verify_lemma2"),
    ("verifiers", "verify_lemma4", "verifiers.verify_lemma4"),
    ("verifiers", "verify_lemma4_random", "verifiers.verify_lemma4_random"),
    ("verifiers", "verify_statement1", "verifiers.verify_statement1"),
    ("verifiers", "verify_statement2", "verifiers.verify_statement2"),
    ("verifiers", "_shared_edge_pair", "verifiers.shared_edge_pair"),
    ("verifiers", "_shared_vertex_pair", "verifiers.shared_vertex_pair"),
    ("lipschitz", "sample_pair", "lipschitz.sample_pair"),
    ("lipschitz", "random_net", "lipschitz.random_net"),
    ("lipschitz", "perturbed_net", "lipschitz.perturbed_net"),
    ("lipschitz", "estimate_local_lipschitz", "lipschitz.estimate_local_lipschitz"),
    ("counterexamples", "lemma3_counterexample", "counterexamples.lemma3_counterexample"),
    ("counterexamples", "lemma3_nonuniform_sequence", "counterexamples.lemma3_nonuniform_sequence"),
    ("counterexamples", "lemma3_hyperbolic_counterexample",
     "counterexamples.lemma3_hyperbolic_counterexample"),
    ("chebyshev", "cheb", "chebyshev.cheb"),
    ("geometry", "Net.__post_init__", "geometry.Net"),
    ("geometry", "Point.__post_init__", "geometry.Point"),
    ("geometry", "distance", "geometry.distance"),
    ("hausdorff", "alpha", "hausdorff.alpha"),
    ("hyperbolic", "h_cheb3", "hyperbolic.h_cheb3"),
    ("hyperbolic", "h_distance", "hyperbolic.h_distance"),
    ("hyperbolic", "h_alpha", "hyperbolic.h_alpha"),
    ("hyperbolic", "_newton_circumcenter", "hyperbolic.newton"),
    ("hyperbolic", "minimax_center_search", "hyperbolic.minimax_center_search"),
]

# Verifiers called by suite-all; their reports carry the lemma id and trials.
TOP_VERIFIERS = ("verify_lemma1", "verify_lemma2", "verify_lemma4_random",
                 "verify_statement1", "verify_statement2")
LEMMAS = ("L1", "L2", "L4", "S1", "S2i", "S2ii")

# Size classes of `cheb` calls made outside the meb workload's own ops.
SMALL_MAX_POINTS = 10
LARGE_MIN_POINTS = 1000


def _report_tag(args, kwargs, result):
    return None if result is None else (result.lemma_id, result.trials)


def _net_size(args, kwargs, result):
    return len(args[0] if args else kwargs["net"])


TAGS = {"chebyshev.cheb": _net_size}
TAGS.update({f"verifiers.{name}": _report_tag for name in TOP_VERIFIERS})


class Tracer:
    """In-memory span recorder with wrappers installed on chebnets."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self.failed: list[int] = []
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (one operation)."""
        idx = self._open(self._name_id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        tag = TAGS.get(name)
        opened, clock, stack, start, end = self._open, time.perf_counter, self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            result = None
            ok = False
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end[idx] = clock()
                stack.pop()
                if not ok:
                    self.failed.append(idx)
                if tag is not None:
                    self.tags[idx] = tag(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap every layer function at each module attribute bound to it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "chebnets" or key.startswith("chebnets."))]
        for module_name, attr, span_name in LAYERS:
            owner = importlib.import_module(f"chebnets.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, method, self.wrap(getattr(cls, method), span_name))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)

    def _set(self, obj, key, value) -> None:
        self._installed.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._installed):
            setattr(obj, key, original)
        self._installed.clear()

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        return name, parent, dur, dur - child

    def save(self, path) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 failed=np.array(self.failed, dtype=np.int64),
                 names=np.array(json.dumps(self.names)))


def layer_metrics(tracer: Tracer, ops: int, class_of_op: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of a traced run, per operation where they are totals.

    `class_of_op` maps the span name of each meb operation to its net class;
    `cheb` calls under other spans are classed by their number of points.
    """
    name, parent, dur, self_t = tracer.arrays()
    names = tracer.names

    def mask(span):
        return name == names.index(span) if span in names else np.zeros(len(name), bool)

    def per_op(values):
        return float(values.sum()) / ops

    def mean_us(m):
        return float(dur[m].mean()) * 1e6 if m.any() else 0.0

    def under(child, parents):
        """Mask of `child` spans whose parent span is in the `parents` mask."""
        m = mask(child) & (parent >= 0)
        m[m] = parents[parent[m]]
        return m

    out: dict[str, float] = {}
    for span in ("cli.suite_all", "verifiers.verify_lemma4", "counterexamples.lemma3_counterexample",
                 "counterexamples.lemma3_nonuniform_sequence",
                 "counterexamples.lemma3_hyperbolic_counterexample",
                 "lipschitz.perturbed_net", "lipschitz.estimate_local_lipschitz"):
        out[f"{span}.self_s"] = per_op(self_t[mask(span)])
    for verifier in TOP_VERIFIERS:
        out[f"verifiers.{verifier}.self_s"] = per_op(self_t[mask(f"verifiers.{verifier}")])
    for span in ("lipschitz.sample_pair", "lipschitz.random_net", "geometry.Net", "geometry.Point",
                 "geometry.distance", "hausdorff.alpha", "hyperbolic.h_cheb3",
                 "hyperbolic.h_distance", "hyperbolic.h_alpha", "hyperbolic.newton",
                 "chebyshev.cheb"):
        m = mask(span)
        out[f"{span}.calls"] = per_op(m)
        out[f"{span}.self_s"] = per_op(self_t[m])
    out["hausdorff.alpha.us_per_call"] = mean_us(mask("hausdorff.alpha"))
    out["hyperbolic.h_cheb3.us_per_call"] = mean_us(mask("hyperbolic.h_cheb3"))
    out["hyperbolic.fallback.calls"] = per_op(
        under("hyperbolic.minimax_center_search", mask("hyperbolic.h_cheb3")))

    # Verifier throughput and the acceptance ratios of the rejection samplers.
    top = np.zeros(len(name), bool)
    for verifier in TOP_VERIFIERS:
        top |= mask(f"verifiers.{verifier}")
    trials = {lemma: 0 for lemma in LEMMAS}
    busy = {lemma: 0.0 for lemma in LEMMAS}
    for idx in np.flatnonzero(top):
        tag = tracer.tags.get(int(idx))
        if tag is not None:
            trials[tag[0]] += tag[1]
            busy[tag[0]] += float(dur[idx])
    for lemma in LEMMAS:
        out[f"verifiers.{lemma}.trials_per_s"] = trials[lemma] / busy[lemma] if busy[lemma] else 0.0
    s1 = mask("verifiers.verify_statement1")
    draws = under("chebyshev.cheb", s1).sum() / 2.0
    out["verifiers.verify_statement1.accept_ratio"] = trials["S1"] / draws if draws else 0.0
    s2 = mask("verifiers.verify_statement2")
    drawn = (under("verifiers.shared_edge_pair", s2).sum()
             + under("verifiers.shared_vertex_pair", s2).sum())
    accepted = trials["S2i"] + trials["S2ii"]
    out["verifiers.verify_statement2.accept_ratio"] = accepted / drawn if drawn else 0.0

    # cheb by net class: the meb op's class, else the size of the net.
    cheb = np.flatnonzero(mask("chebyshev.cheb"))
    op_class = {names.index(span): cls for span, cls in class_of_op.items() if span in names}
    failed = set(tracer.failed)
    out["chebyshev.cheb.us_per_call"] = mean_us(mask("chebyshev.cheb"))
    out["chebyshev.cheb.failed"] = sum(1 for idx in cheb if int(idx) in failed) / ops
    sums: dict[str, list[float]] = {cls: [0.0, 0, 0] for cls in ("small", "medium", "large", "structured")}
    for idx in cheb:
        size = tracer.tags[int(idx)]
        p = int(parent[idx])
        cls = op_class.get(int(name[p])) if p >= 0 else None
        if cls is None:
            cls = ("small" if size <= SMALL_MAX_POINTS
                   else "large" if size >= LARGE_MIN_POINTS else "medium")
        if cls in sums:
            acc = sums[cls]
            acc[0] += float(dur[idx])
            acc[1] += 1
            acc[2] += size
    for cls, (busy_s, calls, points) in sums.items():
        out[f"chebyshev.cheb.{cls}.us_per_call"] = busy_s / calls * 1e6 if calls else 0.0
    busy_s, _, points = sums["large"]
    out["chebyshev.cheb.large.us_per_point"] = busy_s / points * 1e6 if points else 0.0
    return out
