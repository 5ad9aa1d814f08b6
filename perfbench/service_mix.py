"""The ``service-mixed`` workload: a closed loop against a real service.

Set-up starts ``python -m repro serve --workers 2`` in its own process
tree, waits until both workers are alive, uploads the 8 base instances
with ``PUT /graphs``, and warms both workers.  The timed loop is closed:
one client sends the next request of a pre-generated mix only after the
previous answer arrived, so at most one worker computes at a time and the
2 vCPUs the benchmark was tuned on are not oversubscribed.  Between
requests the client times the calibration kernel about every 1 s.  Every
request pins ``prune``, ``backend``, ``n_theta``, ``top_t``, ``polish``,
``correction`` and ``"trace": false``; none sets ``parallel``.

The mix (one slot per request, drawn from the seed):

- ~60% ``inline``: a repeat over 8 discrete 600-vertex BA instances, which
  the workers' memory prefix cache serves after the first sight;
- ~20% ``digest``: the same instances by ``graph_digest``;
- ~10% ``miss``: a never-seen labeling of a base graph, so construct and
  reduce run under the cache;
- ~10% ``fwer``: an inline repeat with ``correction="fwer"``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from calibrate import Sampler
from harness import (
    STEP1_PARAMS, ba_instance, median, read_line, regions_of, same_regions,
)
from tracing import Recorder, layer_metrics, traced_op

BASE_INSTANCES = 8
VERTICES = 600
ATTACH = 8  # Figure-3 density for 5 labels: about (l/2) ln n edges per vertex
SLOTS = 2048
WORKERS = 2
CACHE_SIZE = 128
"""Prefix-cache entries per worker: holds the base working set (8 instances
x 4 n_theta values x up to 3 top-t rounds), so repeats are memory hits."""
REPLAYS = 48
FAILED_OP_MS = 60_000.0
"""Latency charged to a failed op: it misses any latency limit."""

REFERENCE = {"prune": "bounds", "backend": "numpy"}
"""Every request's answer is checked against this configuration: the
``prune="none"`` requests differ from it in pruning, the ``prune="bounds"``
ones (which ``auto`` runs on the python walk at <= 24 vertices) in backend."""


# prune="none" stops at n_theta=16: one n_theta=20 exhaustive search costs
# more than 50 ordinary requests and would own the tail.
NONE_N_THETAS = (12, 14, 16)
BOUNDS_N_THETAS = (12, 16, 20)
# Every request pins these; the mix varies the rest.  As they stand they
# are the cache warm-up request: all top-t rounds, cheap bounds search.
WARM_PARAMS = {
    "top_t": 3, "prune": "bounds", "backend": "auto", "method": "supergraph",
    "edge_order": "input", "polish": False, "correction": "none",
    "alpha": 0.05,
}


def _params(rng: random.Random, correction: str) -> dict[str, Any]:
    prune = rng.choice(("none", "bounds"))
    n_theta = rng.choice(NONE_N_THETAS if prune == "none" else BOUNDS_N_THETAS)
    top_t = rng.choice((1, 3))
    # Polish only on top-1 requests: a polished region removes other
    # vertices, so later rounds would need prefixes the cache never holds.
    polish = top_t == 1 and rng.random() < 0.4
    return {**WARM_PARAMS, "top_t": top_t, "n_theta": n_theta,
            "prune": prune, "polish": polish, "correction": correction}


def _edges_json(graph: Any) -> str:
    return json.dumps({"edges": [[u, v] for u, v in graph.edges()]})


def _labels_json(labeling: Any) -> str:
    return json.dumps({
        "type": "discrete",
        "probabilities": list(labeling.probabilities),
        "assignment": {str(v): label
                       for v, label in sorted(labeling.as_dict().items())},
    })


class ServiceRun:
    """Set-up, timed loop, verification and teardown of ``service-mixed``."""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.proc: subprocess.Popen | None = None
        self.worker_pids: list[int] = []
        self._built: dict[str, tuple] = {}

    # -- set-up ----------------------------------------------------------
    def __enter__(self) -> "ServiceRun":
        try:
            self._generate()
            self._start_service()
            self._register()
            self._warm_up()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _generate(self) -> None:
        from repro.labels.discrete import DiscreteLabeling

        rng = random.Random(self.seed)
        base = [ba_instance(VERTICES, ATTACH, rng)
                for _ in range(BASE_INSTANCES)]
        graphs = [graph for graph, _ in base]
        probabilities = base[0][1].probabilities
        self.graph_json = [_edges_json(graph) for graph in graphs]
        # instance key -> (base graph index, labels JSON)
        self.instances: dict[str, tuple[int, str]] = {
            f"base{i}": (i, _labels_json(labeling))
            for i, (_, labeling) in enumerate(base)
        }
        self.slots: list[dict[str, Any]] = []
        for slot in range(SLOTS):
            draw = rng.random()
            kind = ("inline" if draw < 0.6 else "digest" if draw < 0.8
                    else "miss" if draw < 0.9 else "fwer")
            index = rng.randrange(BASE_INSTANCES)
            key = f"base{index}"
            if kind == "miss":
                key = f"miss{slot}"
                labeling = DiscreteLabeling.random(
                    graphs[index], probabilities, seed=rng.randrange(2**31))
                self.instances[key] = (index, _labels_json(labeling))
            params = _params(rng, "fwer" if kind == "fwer" else "none")
            self.slots.append({"kind": kind, "instance": key,
                               "params": params})

    def instance_doc(self, key: str) -> str:
        base, labels = self.instances[key]
        return f'"graph": {self.graph_json[base]}, "labels": {labels}'

    def body(self, slot: int) -> bytes:
        spec = self.slots[slot % SLOTS]
        if spec["kind"] == "digest":
            head = f'"graph_digest": "{self.digests[spec["instance"]]}"'
        else:
            head = self.instance_doc(spec["instance"])
        return self._body(head, spec["params"])

    @staticmethod
    def _body(head: str, params: dict[str, Any]) -> bytes:
        return (f'{{{head}, "params": {json.dumps(params)}, '
                '"trace": false}').encode()

    def _start_service(self) -> None:
        trace_dir = self.out_dir / "service-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--workers", str(WORKERS), "--cache-size", str(CACHE_SIZE),
             "--trace-dir", str(trace_dir)],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        line = read_line(self.proc, time.monotonic() + 60.0)
        if not line:
            raise RuntimeError("the service printed no address")
        # "repro service on http://127.0.0.1:PORT (...)"
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, health = self.call("GET", "/healthz")
                if status == 200 and health["pool"]["workers_alive"] == WORKERS:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("the service did not become healthy")
            time.sleep(0.05)

    def _register(self) -> None:
        self.digests: dict[str, str] = {}
        for i in range(BASE_INSTANCES):
            key = f"base{i}"
            status, summary = self.call(
                "PUT", "/graphs", ("{" + self.instance_doc(key) + "}").encode())
            if status not in (200, 201):
                raise RuntimeError(f"PUT /graphs failed: {status} {summary}")
            self.digests[key] = summary["graph_digest"]

    def _warm_up(self) -> None:
        """Pay the workers' lazy imports, then fill their prefix caches.

        Each body is sent as a concurrent pair, so both idle workers run
        it.  First a small instance (imports, numpy kernel), then every
        base prefix the mix repeats, with all its top-t rounds: the timed
        loop then sees a warm service, where only ``miss`` slots run
        construct and reduce.
        """
        graph, labeling = ba_instance(60, 3, random.Random(self.seed))
        bodies = [self._body(
            f'"graph": {_edges_json(graph)}, '
            f'"labels": {_labels_json(labeling)}',
            {**WARM_PARAMS, "prune": "none", "n_theta": 12, "top_t": 1})]
        bodies += [
            self._body(self.instance_doc(f"base{i}"),
                       {**WARM_PARAMS, "n_theta": n_theta})
            for i in range(BASE_INSTANCES)
            for n_theta in sorted({*NONE_N_THETAS, *BOUNDS_N_THETAS})
        ]
        for body in bodies:
            answers: list[int] = []
            threads = [threading.Thread(target=lambda: answers.append(
                self.call("POST", "/mine", body)[0])) for _ in range(WORKERS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            if answers != [200] * WORKERS:
                raise RuntimeError(f"warm-up ops answered {answers}")
        _, health = self.call("GET", "/healthz")
        self.worker_pids = [w["pid"] for w in health["pool"]["worker_detail"]]

    # -- plumbing --------------------------------------------------------
    def call(self, method: str, path: str,
             body: bytes | None = None) -> tuple[int, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def service_peak_rss_mb(self) -> float:
        """Summed peak RSS of the server and worker processes (Linux)."""
        total = 0.0
        for pid in [self.proc.pid, *self.worker_pids]:
            try:
                with open(f"/proc/{pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                print(f"peak RSS of pid {pid} unavailable", file=sys.stderr)
        return total

    def stop(self) -> None:
        """SIGINT makes ``repro serve`` drain and join its workers."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait(timeout=30.0)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()

    # -- measurement -----------------------------------------------------
    def measure(self, seconds: float, trace: bool) -> dict[str, Any]:
        recorder = Recorder()
        sampler = Sampler()
        before = self.call("GET", "/metricsz")[1]["metrics"]
        ops: list[dict[str, Any]] = []
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < seconds:
            slot = len(ops)
            body = self.body(slot)
            op: dict[str, Any] = {"slot": slot, "mark": sampler.mark()}
            started = time.perf_counter()
            try:
                op["status"], op["payload"] = self.call("POST", "/mine", body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                op["status"], op["payload"] = 0, {"error": repr(exc)}
            ended = time.perf_counter()
            op["latency"] = ended - started
            if trace:
                recorder.add("client.mine", started, ended, slot,
                             kind=self.slots[slot % SLOTS]["kind"])
                op["span_cost"] = time.perf_counter() - ended
            ops.append(op)
        sampler.close()
        after = self.call("GET", "/metricsz")[1]["metrics"]
        respawned = after["service.workers_respawned"]
        rss = self.service_peak_rss_mb()
        self.stop()

        references: dict[tuple, list] = {}
        for op in ops:
            op["ok"] = op["status"] == 200 and same_regions(
                _payload_regions(op["payload"]),
                self.reference(op["slot"], references),
            )
            if not op["ok"]:
                print(f"slot {op['slot']} failed: status {op['status']}",
                      file=sys.stderr)
        ok = [op for op in ops if op["ok"]]
        latencies = [op["latency"] * 1e3 if op["ok"] else FAILED_OP_MS
                     for op in ops]
        for op in ops:
            op["scaled"] = op["latency"] * sampler.scale(op["mark"])
        scaled = [op["scaled"] * 1e3 if op["ok"] else FAILED_OP_MS
                  for op in ops]
        out: dict[str, Any] = {
            "attempted": len(ops),
            "failed": len(ops) - len(ok),
            "service_rss_mb": rss,
            "calibration_ms": sampler.samples_ms,
            "end_to_end": {
                "op_p50_ms": median(scaled),
                "ops_per_s": len(ok) / sum(op["scaled"] for op in ops),
            },
            "unscaled": {
                "op_p50_ms": median(latencies),
                "ops_per_s": len(ok) / sum(op["latency"] for op in ops),
            },
        }
        if respawned:
            out["invalid"] = f"{respawned} worker(s) respawned during the run"
        if not trace:
            return out

        layer = self._replay(recorder, references, out)
        decode = layer["protocol.decode_ms"]
        build = layer["protocol.build_instance_ms"]
        encode = layer["protocol.encode_ms"]
        worker = [op["payload"]["result"]["report"]["total_seconds"] * 1e3
                  for op in ok]
        queue_ipc = [
            op["latency"] * 1e3 - w - decode - encode
            - (0.0 if self.slots[op["slot"] % SLOTS]["kind"] == "digest"
               else build)
            for op, w in zip(ok, worker)
        ]
        hits = after["service.cache.hits"] - before["service.cache.hits"]
        misses = after["service.cache.misses"] - before["service.cache.misses"]
        layer.update({
            # Reported with the layers, not end to end: only this workload
            # has >= 10 samples beyond its 90th percentile in a run.
            "service.op_p90_ms": statistics.quantiles(
                latencies, n=10, method="inclusive")[8],
            "worker.mine_ms": median(worker),
            "jobs.queue_ipc_ms": median(queue_ipc),
            "cache.hit_ratio": hits / max(hits + misses, 1),
            # The service path is untouched by tracing; what the traced run
            # adds to an op is the client's span bookkeeping.
            "trace.overhead_pct": 100 * median([op["span_cost"] for op in ok])
            / median([op["latency"] for op in ok]),
        })
        recorder.write(self.out_dir / "traces" / "service-mixed.jsonl")
        out["per_layer"] = layer
        return out

    # -- verification and replay ------------------------------------------
    def instance(self, key: str) -> tuple:
        """The (graph, labeling) the service builds from this instance."""
        from repro.service.protocol import build_instance, validate_request

        if key not in self._built:
            doc = json.loads("{" + self.instance_doc(key) + "}")
            self._built[key] = build_instance(validate_request(doc))
        return self._built[key]

    def reference(self, slot: int, references: dict[tuple, list]) -> list:
        from repro.core.solver import mine

        spec = self.slots[slot % SLOTS]
        params = spec["params"]
        key = (spec["instance"], params["n_theta"], params["top_t"],
               params["polish"], params["correction"])
        if key not in references:
            graph, labeling = self.instance(spec["instance"])
            references[key] = regions_of(
                mine(graph, labeling, **{**params, **REFERENCE}))
        return references[key]

    def _replay(self, recorder: Recorder, references: dict[tuple, list],
                out: dict[str, Any]) -> dict[str, float]:
        """Time the service's CPU layers on the first REPLAYS requests.

        Each request document goes through the same public functions the
        server and worker call: decode + validate, ``build_instance``, the
        prefix digest (graph + labeling digests), ``mine()`` with layer
        spans, and result encoding.  A ``fwer`` request is mined again
        with ``correction="none"``; the difference is the correction layer.
        """
        from repro.core.solver import mine
        from repro.service.digest import prefix_digest
        from repro.service.protocol import (
            build_instance, result_to_payload, validate_request,
        )

        timings: dict[str, list[float]] = {
            k: [] for k in ("decode", "build", "digest", "encode",
                            "correction")}
        summaries, step1 = [], []
        for slot in range(REPLAYS):
            spec = self.slots[slot]
            body = self.body(slot)
            t0 = time.perf_counter()
            request = validate_request(json.loads(body))
            t1 = time.perf_counter()
            timings["decode"].append(t1 - t0)
            params = request["params"]
            if spec["kind"] == "digest":
                graph, labeling = self.instance(spec["instance"])
            else:
                graph, labeling = build_instance(request)
                t2 = time.perf_counter()
                prefix_digest(graph, labeling, n_theta=params["n_theta"],
                              edge_order=params["edge_order"],
                              seed=params["seed"])
                t3 = time.perf_counter()
                timings["build"].append(t2 - t1)
                timings["digest"].append(t3 - t2)
            result, summary = traced_op(
                recorder, f"replay-{slot}",
                lambda: mine(graph, labeling, **params))
            summaries.append(summary)
            t4 = time.perf_counter()
            json.dumps(result_to_payload(result))
            timings["encode"].append(time.perf_counter() - t4)
            out["attempted"] += 1
            if not same_regions(regions_of(result),
                                self.reference(slot, references)):
                out["failed"] += 1
                print(f"replay of slot {slot} gave a different answer",
                      file=sys.stderr)
            if params["correction"] == "fwer":
                t5 = time.perf_counter()
                mine(graph, labeling, **params)
                t6 = time.perf_counter()
                mine(graph, labeling, **{**params, "correction": "none"})
                timings["correction"].append(
                    2 * t6 - t5 - time.perf_counter())
            step1.append(traced_op(
                recorder, f"step1-{slot}",
                lambda: mine(graph, labeling, **{**params, **STEP1_PARAMS}),
                config="numpy+bounds")[1])

        def ms(values: list[float]) -> float:
            return median(values) * 1e3

        return {
            **layer_metrics(summaries, summaries, step1),
            "protocol.decode_ms": ms(timings["decode"]),
            "protocol.build_instance_ms": ms(timings["build"]),
            "digest.ms": ms(timings["digest"]),
            "protocol.encode_ms": ms(timings["encode"]),
            "correction.ms": ms(timings["correction"]),
        }


def _payload_regions(payload: Any) -> list[tuple[list[str], float]]:
    subgraphs = payload.get("result", {}).get("subgraphs", [])
    return [(sub["vertices"], sub["chi_square"]) for sub in subgraphs]
