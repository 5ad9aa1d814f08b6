"""One benchmark process: set up a workload, then (optionally) measure it.

``run.py`` starts this script several times per run.  Each start pays a
full set-up as a user's process would: import ``repro``, generate the
instances, and run one untimed warm-up op on a small instance so lazy
imports (the numpy kernel) are paid.  The process prints ``READY`` when
its first timed op could start; ``run.py`` times that from the moment it
started the process.  With ``--role setup`` the process then exits; with
``--role measure`` it runs the timed loop, checks every op against an
independent reference configuration, and prints one ``RESULT`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from calibrate import Sampler

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


# -- small helpers shared with run.py and service_mix.py ------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def read_line(proc: subprocess.Popen, deadline: float) -> str:
    """The next stdout line of ``proc``; '' on EOF or when time runs out."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(max(0.0, deadline - time.monotonic())):
            return ""
    return proc.stdout.readline()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def same_regions(got: list[tuple[list[str], float]],
                 want: list[tuple[list[str], float]]) -> bool:
    """Equal region lists: vertex sets exactly, chi-squares to 1e-9."""
    return len(got) == len(want) and all(
        g_vertices == w_vertices
        and math.isclose(g_chi, w_chi, rel_tol=1e-9, abs_tol=1e-9)
        for (g_vertices, g_chi), (w_vertices, w_chi) in zip(got, want)
    )


def regions_of(result: Any) -> list[tuple[list[str], float]]:
    return [
        (sorted(map(str, sub.vertices)), sub.chi_square)
        for sub in result.subgraphs
    ]


# -- library workloads: one op is one mine() call --------------------------

@dataclass
class LibraryWorkload:
    """A workload whose op is one in-process ``mine()`` call.

    ``params`` pins every knob the op passes; ``reference`` overrides the
    knobs of the independent configuration each op is checked against
    (a different ``prune`` or ``backend``, which the differential property
    suites prove gives the identical optimum).
    """

    name: str
    make_instances: Callable[[int], list[tuple[Any, Any]]]
    make_warmup: Callable[[int], tuple[Any, Any]]
    params: dict[str, Any]
    reference: dict[str, Any]


def _snap_instances(name: str, scale: int) -> Callable[[int], list]:
    def make(seed: int) -> list:
        from repro.datasets.snaplike import degree_zscore_labeling, snap_like_graph

        graph = snap_like_graph(name, scale=scale, seed=seed)
        return [(graph, degree_zscore_labeling(graph))]
    return make


def ba_instance(n: int, d: int, rng: random.Random) -> tuple[Any, Any]:
    """A Barabasi-Albert graph with a uniform 5-label random labeling."""
    from repro.graph.generators import barabasi_albert_graph
    from repro.labels.discrete import DiscreteLabeling, uniform_probabilities

    graph = barabasi_albert_graph(n, d, seed=rng.randrange(2**31))
    labeling = DiscreteLabeling.random(
        graph, uniform_probabilities(5), seed=rng.randrange(2**31)
    )
    return graph, labeling


LIBRARY_WORKLOADS = {
    wl.name: wl for wl in [
        LibraryWorkload(
            name="fig2-sparse",
            make_instances=_snap_instances("com-Youtube", 100),
            make_warmup=lambda seed: _snap_instances("com-Youtube", 2000)(seed)[0],
            params={
                "top_t": 1, "n_theta": 20, "prune": "bounds",
                "backend": "auto", "method": "supergraph",
                "edge_order": "input", "polish": False, "correction": "none",
            },
            reference={"backend": "numpy"},
        ),
    ]
}

STEP1_PARAMS = {"prune": "bounds", "backend": "numpy"}
"""The configuration ROADMAP's "prove or remove sharding" step 1 asks about."""


def setup_library(wl: LibraryWorkload, seed: int) -> list:
    from repro.core.solver import mine

    instances = wl.make_instances(seed)
    graph, labeling = wl.make_warmup(seed)
    mine(graph, labeling, **wl.params)
    return instances


def run_library(wl: LibraryWorkload, instances: list, seconds: float,
                trace: bool) -> dict[str, Any]:
    """Timed loop, then per-op verification; layer metrics when traced.

    Ops cycle through the instances; the loop stops once ``seconds`` have
    passed and every instance has had an op of each kind.  A traced run
    alternates untraced and traced ops, so both see the same host drift.
    """
    from repro.core.solver import mine
    from tracing import Recorder, layer_metrics, traced_op

    recorder = Recorder()
    sampler = Sampler()
    kinds = ("plain", "traced") if trace else ("plain",)
    ops: list[dict[str, Any]] = []
    loop_start = time.perf_counter()
    while True:
        n = len(ops)
        index = (n // len(kinds)) % len(instances)
        graph, labeling = instances[index]
        op = {"instance": index, "kind": kinds[n % len(kinds)], "id": n,
              "mark": sampler.mark()}
        try:
            if op["kind"] == "plain":
                started = time.perf_counter()
                result = mine(graph, labeling, **wl.params)
                op["wall"] = time.perf_counter() - started
            else:
                result, op["summary"] = traced_op(
                    recorder, n, lambda: mine(graph, labeling, **wl.params))
                op["wall"] = op["summary"]["wall"]
            op["regions"] = regions_of(result)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            op["error"] = f"{type(exc).__name__}: {exc}"
        ops.append(op)
        if (len(ops) >= len(instances) * len(kinds)
                and time.perf_counter() - loop_start >= seconds):
            break
    sampler.close()

    # Verification runs after the timed loop: one reference per instance.
    references = [
        regions_of(mine(g, lab, **{**wl.params, **wl.reference}))
        for g, lab in instances
    ]
    for op in ops:
        op["ok"] = "error" not in op and same_regions(
            op["regions"], references[op["instance"]])
        # A traced op's own construct -> reduce -> search optimum must also
        # be the optimum mine() reported.
        if op["ok"] and "summary" in op:
            optimum = op["summary"]["optimum"]
            op["ok"] = optimum is not None and math.isclose(
                optimum, references[op["instance"]][0][1], rel_tol=1e-9)
        if not op["ok"]:
            print(f"op {op['id']} failed: {op.get('error', 'wrong optimum')}",
                  file=sys.stderr)
    plain = [op for op in ops if op["kind"] == "plain" and op["ok"]]
    traced = [op for op in ops if op["kind"] == "traced" and op["ok"]]
    timed = [op for op in ops if op["kind"] == "plain" and "wall" in op]
    for op in timed:
        op["scaled"] = op["wall"] * sampler.scale(op["mark"])
    out: dict[str, Any] = {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "calibration_ms": sampler.samples_ms,
        "end_to_end": {
            "op_p50_ms": _per_instance_p50(plain, "scaled") * 1e3,
            "ops_per_s": len(plain) / sum(op["scaled"] for op in timed),
        },
        "unscaled": {
            "op_p50_ms": _per_instance_p50(plain, "wall") * 1e3,
            "ops_per_s": len(plain) / sum(op["wall"] for op in timed),
        },
    }
    if not trace:
        return out
    if not traced:
        raise RuntimeError("no traced op completed")

    step1 = []
    for index, (graph, labeling) in enumerate(instances):
        result, summary = traced_op(
            recorder, f"step1-{index}",
            lambda: mine(graph, labeling, **{**wl.params, **STEP1_PARAMS}),
            config="numpy+bounds")
        step1.append(summary)
        out["attempted"] += 1
        if not same_regions(regions_of(result), references[index]):
            out["failed"] += 1
            print(f"numpy+bounds op on instance {index} gave a different "
                  "optimum", file=sys.stderr)
    recorder.write(OUT_DIR / "traces" / f"{wl.name}.jsonl")

    first_per_instance = {op["instance"]: op["summary"]
                          for op in reversed(traced)}
    out["per_layer"] = layer_metrics(
        [op["summary"] for op in traced], list(first_per_instance.values()),
        step1)
    out["per_layer"]["trace.overhead_pct"] = 100 * (
        _per_instance_p50(traced, "wall") / _per_instance_p50(plain, "wall")
        - 1)
    return out


def _per_instance_p50(ops: list[dict[str, Any]], key: str) -> float:
    """Median over instances of each instance's median op time ``key``."""
    by_instance: dict[int, list[float]] = {}
    for op in ops:
        by_instance.setdefault(op["instance"], []).append(op[key])
    return median([median(walls) for walls in by_instance.values()])


# -- entry point ----------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    args = parser.parse_args()
    # run.py stops a process it gave up on with SIGTERM; exiting through
    # SystemExit lets the service workload stop its server tree first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The service is stopped with SIGINT.  A process started with SIGINT
    # ignored (a background job of a shell) would pass that on to the
    # service, which would then ignore it until killed; a handled SIGINT
    # resets to the default in the service's process.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401 - paid inside set-up, as a user's process does

    if args.workload in LIBRARY_WORKLOADS:
        wl = LIBRARY_WORKLOADS[args.workload]
        state = setup_library(wl, args.seed)
        print("READY", flush=True)
        if args.role == "setup":
            return 0
        out = run_library(wl, state, args.seconds, bool(args.trace))
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        import service_mix

        with service_mix.ServiceRun(args.seed, OUT_DIR) as run:
            print("READY", flush=True)
            if args.role == "setup":
                return 0
            out = run.measure(args.seconds, bool(args.trace))
        out["peak_rss_mb"] = peak_rss_mb() + out.pop("service_rss_mb")
    import numpy

    out["numpy"] = numpy.__version__
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
