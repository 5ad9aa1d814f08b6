"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2-sparse --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``perfbench/README.md``).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it (``# meta {...}``) carries the machine
metadata and git sha, and the same record is appended to
``.perfbench/trajectory.jsonl``.

The run first imports the package once in a throwaway process (bytecode
compile and a cold page cache are one-off per-checkout costs), then starts
``harness.py`` ``SETUPS`` times.  Each start is a full set-up, timed from
process start to its ``READY`` line; ``setup_s`` is their median.  The
last start also runs the timed loop.

Op timings are scaled to the reference host speed: each op by the mean of
the samples of the calibration kernel of ``calibrate.py`` just before and
after it, taken about every 1 s in the timed loop.  The ``# meta`` line
keeps the unscaled values.  Set-up times are not scaled.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import read_line

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("fig2-sparse", "service-mixed")
SETUPS = 3
RUN_LIMIT_S = 170.0

END_TO_END = {
    "op_p50_ms": "ms", "ops_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
PER_LAYER = {
    "construct.ms": "ms", "construct.super_vertices": "count",
    "reduce.ms": "ms", "reduce.contractions": "count",
    "search.ms": "ms", "search.states": "count",
    "search.states_per_s": "1/s", "search.bound_cut_ratio": "ratio",
    "search.share_pct": "%", "search.numpy_bounds_ms": "ms",
    "search.numpy_bounds_share_pct": "%", "solver.other_ms": "ms",
    "protocol.decode_ms": "ms", "protocol.build_instance_ms": "ms",
    "digest.ms": "ms", "protocol.encode_ms": "ms", "correction.ms": "ms",
    "service.op_p90_ms": "ms", "worker.mine_ms": "ms",
    "jobs.queue_ipc_ms": "ms",
    "cache.hit_ratio": "ratio", "trace.overhead_pct": "%",
}


def git_sha() -> str | None:
    """HEAD's sha read from ``.git`` (None in an exported checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stop(proc: subprocess.Popen) -> None:
    """Ask the harness to clean up (it stops its service), then make sure."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=40.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def run_harness(args: argparse.Namespace, role: str, env: dict[str, str],
                deadline: float) -> tuple[float, dict | None]:
    """Start one harness process; returns (setup seconds, RESULT or None)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--role", role],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    try:
        if read_line(proc, deadline).strip() != "READY":
            raise RuntimeError(f"{role} process did not get ready")
        setup_s = time.perf_counter() - started
        result = None
        while line := read_line(proc, deadline):
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0 or (role == "measure" and result is None):
            raise RuntimeError(f"{role} process failed with exit code {code}")
        return setup_s, result
    finally:
        stop(proc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    env["PYTHONHASHSEED"] = "0"
    deadline = time.monotonic() + RUN_LIMIT_S

    subprocess.run(
        [sys.executable, "-c",
         "import repro.core.solver, repro.enumerate.kernel, "
         "repro.service.server, repro.cli"],
        env=env, cwd=ROOT, check=True, timeout=RUN_LIMIT_S,
    )
    setups = []
    result: dict | None = None
    try:
        for i in range(SETUPS):
            role = "measure" if i == SETUPS - 1 else "setup"
            setup_s, result = run_harness(args, role, env, deadline)
            setups.append(setup_s)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        layer = result["per_layer"]
        values = {name: layer.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = dict(result["end_to_end"])
        values.update(
            setup_s=statistics.median(setups),
            peak_rss_mb=result["peak_rss_mb"] + own_rss,
            ok_ratio=(attempted - failed) / attempted,
        )
        units = END_TO_END
    if "invalid" in result:
        print(f"run invalid: {result['invalid']}", file=sys.stderr)
    summary = {
        "correct": failed == 0 and "invalid" not in result,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_samples_s": setups,
        "calibration_median_ms": statistics.median(result["calibration_ms"]),
        "calibration_samples": len(result["calibration_ms"]),
        "unscaled": result["unscaled"],
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": result.get("numpy"), "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with (OUT_DIR / "trajectory.jsonl").open("a") as log:
        log.write(json.dumps({"meta": meta, "result": summary}) + "\n")
    print("# meta " + json.dumps(meta))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
