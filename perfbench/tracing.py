"""Spans recorded from outside the program, around each layer's public calls.

The traced run installs thin wrappers over the names ``repro.core.solver``
calls (construction, reduction, and the three parts of the exhaustive
search), so an unmodified ``mine()`` call yields one span per layer call.
Nothing is added inside ``src/``.  Spans stay in memory and are written as
JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# (span name, attribute of repro.core.solver, result -> span attributes)
_LAYER_CALLS: list[tuple[str, str, Callable[[Any], dict[str, Any]]]] = [
    ("construct", "build_continuous_supergraph",
     lambda sg: {"super_vertices": sg.num_super_vertices}),
    ("construct", "build_discrete_supergraph",
     lambda sg: {"super_vertices": sg.num_super_vertices}),
    ("reduce", "reduce_supergraph", lambda n: {"contractions": n}),
    ("search.bitset", "BitsetGraph", lambda _: {}),
    ("search.accumulator", "DiscreteAccumulator", lambda _: {}),
    ("search.accumulator", "ContinuousAccumulator", lambda _: {}),
    ("search.walk", "exhaustive_best_mask", lambda out: {
        "states": out.explored,
        "bound_cuts": out.bound_cuts,
        "bound_evaluations": out.bound_evaluations,
        "chi_square": out.chi_square,
    }),
]

LAYERS = ("construct", "reduce", "search")
"""Top-level layer names; ``search`` sums the three ``search.*`` spans."""
_COUNTS = ("super_vertices", "contractions", "states", "bound_cuts",
           "bound_evaluations")


class Recorder:
    """In-memory span store: name, start, end, parent, op id, attributes."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self.op_id: Any = None
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, op: Any,
            **attrs: Any) -> None:
        """Append a finished root span (safe to call from client threads)."""
        with self._lock:
            self.spans.append({
                "id": len(self.spans), "name": name, "parent": None,
                "op": op, "start": start, "end": end, "attrs": attrs,
            })

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    def op_spans(self, op_id: Any) -> list[dict[str, Any]]:
        return [s for s in self.spans if s["op"] == op_id]


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_time(span: dict[str, Any], spans: list[dict[str, Any]]) -> float:
    """The span's duration minus the time its direct children cover."""
    children = sum(duration(s) for s in spans if s["parent"] == span["id"])
    return duration(span) - children


def op_summary(recorder: Recorder, op_id: Any) -> dict[str, Any]:
    """Seconds per layer, work counts and the search optimum of one op."""
    spans = recorder.op_spans(op_id)
    root = next(s for s in spans if s["name"] == "op")
    summary: dict[str, Any] = {layer: 0.0 for layer in LAYERS}
    summary.update({key: 0 for key in _COUNTS})
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in LAYERS:
            summary[layer] += duration(s)
        for key in _COUNTS:
            summary[key] += s["attrs"].get(key, 0)
    walks = [s["attrs"]["chi_square"] for s in spans
             if s["name"] == "search.walk"]
    summary.update(
        wall=duration(root),
        other=self_time(root, spans),
        optimum=max(walks, default=None),
    )
    return summary


def traced_op(recorder: Recorder, op_id: Any, call: Callable[[], Any],
              **attrs: Any) -> tuple[Any, dict[str, Any]]:
    """Run ``call`` (one ``mine()``) under an ``op`` span with layer spans."""
    recorder.op_id = op_id
    with layer_spans(recorder):
        with recorder.span("op", **attrs):
            result = call()
    return result, op_summary(recorder, op_id)


def layer_metrics(summaries: list[dict[str, Any]],
                  counted: list[dict[str, Any]],
                  step1: list[dict[str, Any]]) -> dict[str, float]:
    """The library-layer metrics over traced ops.

    Times are medians over ``summaries``.  Counts are summed over
    ``counted``, a fixed set of ops, so they repeat exactly for a seed.
    ``step1`` holds the summaries of the ``prune=bounds backend=numpy``
    probe ops (ROADMAP item 2, step 1).
    """
    def ms(key: str, ops: list[dict[str, Any]]) -> float:
        return statistics.median(s[key] for s in ops) * 1e3

    def share(ops: list[dict[str, Any]]) -> float:
        return 100 * statistics.median(s["search"] / s["wall"] for s in ops)

    searched = sum(s["search"] for s in summaries)
    evaluations = sum(s["bound_evaluations"] for s in summaries)
    return {
        "construct.ms": ms("construct", summaries),
        "construct.super_vertices": sum(s["super_vertices"] for s in counted),
        "reduce.ms": ms("reduce", summaries),
        "reduce.contractions": sum(s["contractions"] for s in counted),
        "search.ms": ms("search", summaries),
        "search.states": sum(s["states"] for s in counted),
        "search.states_per_s": (
            sum(s["states"] for s in summaries) / searched if searched else 0.0),
        "search.bound_cut_ratio": (
            sum(s["bound_cuts"] for s in summaries) / evaluations
            if evaluations else 0.0),
        "search.share_pct": share(summaries),
        "search.numpy_bounds_ms": ms("search", step1),
        "search.numpy_bounds_share_pct": share(step1),
        "solver.other_ms": ms("other", summaries),
    }


@contextmanager
def layer_spans(recorder: Recorder) -> Iterator[None]:
    """Wrap the solver's layer calls in spans for the duration of the block.

    Fails loudly when ``repro.core.solver`` no longer calls one of the
    wrapped names: a trace that silently lost a layer would report it as 0.
    """
    import repro.core.solver as solver

    missing = [attr for _, attr, _ in _LAYER_CALLS if not hasattr(solver, attr)]
    if missing:
        raise RuntimeError(
            f"repro.core.solver no longer calls {missing}; update "
            "perfbench/tracing.py so the traced run still covers every layer"
        )
    originals = {attr: getattr(solver, attr) for _, attr, _ in _LAYER_CALLS}

    def wrap(name: str, fn: Callable, attrs_of: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name) as record:
                result = fn(*args, **kwargs)
                record["attrs"].update(attrs_of(result))
            return result
        return traced

    for name, attr, attrs_of in _LAYER_CALLS:
        setattr(solver, attr, wrap(name, originals[attr], attrs_of))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(solver, attr, fn)
