"""Outside-in tracing of the program's layers, installed from the benchmark.

The tracer wraps each layer's public functions at the names their callers
bind: module globals such as `strategies.points_near` (rebound in every
`schmidtgame` module that imported the same function object) and class
methods such as `MatrixSequence.t`.  Nothing in `src/` changes; leaving the
context restores every original binding.

A span is (name, start, end, parent), kept in memory and written out when
the run ends.  A span's self time is its duration minus the time covered by
its direct child spans.  Functions called too often for a span, such as
`Interval` construction, are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

# (module, attribute) pairs that get a span; the span name is module.attribute
SPANNED = [
    ("cli", "main"),
    ("engine", "run_game"),
    ("engine", "limit_margin"),
    ("engine", "save_transcript"),
    ("engine", "validate_transcript"),
    ("engine", "load_transcript"),
    ("strategies", "ChaseBob.propose"),
    ("strategies", "Theorem42Alice.propose"),
    ("strategies", "epoch_constraints"),
    ("strategies", "schedule_params"),
    ("strategies", "avoidance_move"),
    ("targets", "points_near"),
    ("targets", "dist2_to_targets"),
    ("supports", "candidate_centers"),
    ("supports", "SupportModel.on_support"),
    ("matseq", "MatrixSequence.t"),
    ("matseq", "operator_norm"),
    ("matseq", "spectral_radius_gt_one"),
    ("matseq", "analyze_lacunarity"),
    ("badapprox", "bad_margin"),
    ("badapprox", "best_approx_sequence"),
    ("badapprox", "rational_rank_check"),
    ("exact", "sqrt_interval"),
    ("geometry", "slab_distance_exceeds"),
    ("geometry", "schmidt_leq"),
]

# spans whose result length is summed into <name>.returned
RETURNS_LIST = {"targets.points_near", "supports.candidate_centers"}

# (module, attribute, counter name): counted, no span
COUNTED = [
    ("matseq", "charpoly", "matseq.charpoly.calls"),
    ("matseq", "sturm_count", "matseq.sturm_count.calls"),
    ("exact", "Interval.__post_init__", "exact.Interval.created"),
]

# every per-layer metric, in BENCHMARK.json order: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("engine.run_game.self_s", "s", "lower"),
    ("engine.limit_margin.self_s", "s", "lower"),
    ("engine.save_transcript.self_s", "s", "lower"),
    ("engine.transcript_bytes", "bytes", "lower"),
    ("engine.validate_transcript.self_s", "s", "lower"),
    ("engine.load_transcript.self_s", "s", "lower"),
    ("strategies.ChaseBob.propose.calls", "count", "lower"),
    ("strategies.ChaseBob.propose.self_s", "s", "lower"),
    ("strategies.Theorem42Alice.propose.calls", "count", "lower"),
    ("strategies.Theorem42Alice.propose.self_s", "s", "lower"),
    ("strategies.epoch_constraints.calls", "count", "lower"),
    ("strategies.epoch_constraints.self_s", "s", "lower"),
    ("strategies.schedule_params.self_s", "s", "lower"),
    ("strategies.avoidance_move.calls", "count", "lower"),
    ("strategies.avoidance_move.self_s", "s", "lower"),
    ("strategies.avoidance_move.exact_per_move", "count", "lower"),
    ("targets.points_near.calls", "count", "lower"),
    ("targets.points_near.self_s", "s", "lower"),
    ("targets.points_near.returned", "count", "lower"),
    ("targets.dist2_to_targets.calls", "count", "lower"),
    ("targets.dist2_to_targets.self_s", "s", "lower"),
    ("supports.candidate_centers.calls", "count", "lower"),
    ("supports.candidate_centers.self_s", "s", "lower"),
    ("supports.candidate_centers.returned", "count", "lower"),
    ("supports.SupportModel.on_support.calls", "count", "lower"),
    ("supports.SupportModel.on_support.self_s", "s", "lower"),
    ("matseq.MatrixSequence.t.calls", "count", "lower"),
    ("matseq.operator_norm.calls", "count", "lower"),
    ("matseq.operator_norm.self_s", "s", "lower"),
    ("matseq.t.hit_ratio", "ratio", "higher"),
    ("matseq.charpoly.calls", "count", "lower"),
    ("matseq.sturm_count.calls", "count", "lower"),
    ("matseq.spectral_radius_gt_one.self_s", "s", "lower"),
    ("matseq.analyze_lacunarity.self_s", "s", "lower"),
    ("badapprox.bad_margin.calls", "count", "lower"),
    ("badapprox.bad_margin.self_s", "s", "lower"),
    ("badapprox.best_approx_sequence.self_s", "s", "lower"),
    ("badapprox.rational_rank_check.self_s", "s", "lower"),
    ("exact.Interval.created", "count", "lower"),
    ("exact.sqrt_interval.calls", "count", "lower"),
    ("exact.sqrt_interval.self_s", "s", "lower"),
    ("geometry.slab_distance_exceeds.calls", "count", "lower"),
    ("geometry.slab_distance_exceeds.self_s", "s", "lower"),
    ("geometry.schmidt_leq.calls", "count", "lower"),
    ("geometry.schmidt_leq.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) for 'func' or 'Class.method'."""
    owner = importlib.import_module(f"schmidtgame.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans: List[Optional[Tuple[int, float, float, int]]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        returned = f"{name}.returned" if name in RETURNS_LIST else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, stack[-1])
            if returned is not None:
                counts[returned] += len(result)
            return result

        return traced

    def _counted(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every traced name for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("schmidtgame.")]
        undo = []

        def rebind(owner, name, original, wrapper):
            if isinstance(owner, type):
                undo.append((owner, name, original))
                setattr(owner, name, wrapper)
                return
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

        try:
            for module, attr in SPANNED:
                owner, name, original = _resolve(module, attr)
                rebind(owner, name, original, self._spanned(f"{module}.{attr}", original))
            for module, attr, counter in COUNTED:
                owner, name, original = _resolve(module, attr)
                rebind(owner, name, original, self._counted(counter, original))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer calls, self times and derived ratios from the spans."""
        names = self.names
        spans = self.spans
        child = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Dict[str, float] = {}
        # per span: is an avoidance_move span among its ancestors
        avoid_id = self._ids.get("strategies.avoidance_move", -2)
        t_id = self._ids.get("matseq.MatrixSequence.t", -2)
        under_avoid = [False] * len(spans)
        t_misses = 0
        exact_in_moves = 0
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if parent >= 0:
                pid = spans[parent][0]
                under_avoid[i] = pid == avoid_id or under_avoid[parent]
                if name == "matseq.operator_norm" and pid == t_id:
                    t_misses += 1
            if name == "geometry.slab_distance_exceeds" and under_avoid[i]:
                exact_in_moves += 1
        out: Dict[str, float] = {}
        for metric, _, _ in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if stat == "calls" and base in calls:
                out[metric] = calls[base]
            elif stat == "self_s":
                out[metric] = self_s.get(base, 0.0)
            elif metric in self.counts:
                out[metric] = self.counts[metric]
        t_calls = calls["matseq.MatrixSequence.t"]
        out["matseq.t.hit_ratio"] = 1 - t_misses / t_calls if t_calls else 0.0
        moves = calls["strategies.avoidance_move"]
        out["strategies.avoidance_move.exact_per_move"] = exact_in_moves / moves if moves else 0.0
        for metric, _, _ in PER_LAYER:
            out.setdefault(metric, 0)
        return out

    def write(self, path: Path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
