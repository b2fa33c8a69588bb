#!/usr/bin/env python3
"""Benchmark of ``blockjacobi.run()`` on four fixed workloads.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-reference

Workloads are defined in ``workloads.py``.  With ``--trace 0`` a run
measures, with no wrappers installed:

* ``setup_s``: fresh interpreter until the workload is ready (``import
  blockjacobi`` plus building its configs and operators), median of
  SETUP_RUNS child processes;
* ``wall_s``: median wall time of one pass (every config through
  ``run(config, out_dir=...)``, report and CSV writes included) over the
  passes that fit in ``--seconds``, after a warm-up run of the first config
  inside the same window (checked, not timed);
* ``peak_rss_mb``: peak resident memory of this process, which is fresh and
  runs only this workload (``--workload all`` runs each in its own process).

With ``--trace 1`` a run alternates untraced and traced passes and reports
per-layer metrics of the traced ones (``tracer.py``), plus the tracing
overhead: median traced minus median untraced pass time.

Every pass is checked against ``reference.json`` (see ``workloads.check``);
failures are printed and make ``correct`` false.  A human-readable table,
with sample counts, quartiles, ``fail_ratio`` and the environment, goes to
stderr and to ``.perfbench/`` at the repository root; the last line of
stdout is the JSON result.  The load is a closed loop of one client: one
pass at a time in one process, no client threads; the library's job pool
and BLAS threading keep their defaults.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

if not (SRC / "blockjacobi" / "__init__.py").is_file():
    sys.exit(f"error: library source not found under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_for(metric: str) -> str:
    if metric.endswith((".calls", ".jobs", ".spans")):
        return "count"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for metric {metric!r}")


def environment() -> dict:
    import numpy
    import scipy
    from blockjacobi import harness

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "harness_pool_size": getattr(harness, "MAX_WORKERS", None),
    }


def child_setup(name: str, seed: int, scale: float = 1.0) -> float:
    """Seconds from spawning a fresh interpreter until it has the workload ready."""
    cmd = [sys.executable, str(HERE / "child.py"), name, str(seed), repr(scale)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"child {' '.join(cmd[1:])} failed with exit code {code}")
    return ready


class Gate:
    """Accumulates the correctness checks of every pass of one run."""

    def __init__(self, reference, out_dir: Path):
        self.reference, self.out_dir = reference, out_dir
        self.attempted = self.failed = 0
        self.messages = []

    def timed_pass(self, wl) -> float:
        gc.collect()
        start = perf_counter()
        outcomes = workloads.run_pass(wl, self.out_dir)
        seconds = perf_counter() - start
        attempted, failed, messages = workloads.check(wl, outcomes, self.reference)
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages)
        for msg in messages:
            print(f"FAILED {wl.name}: {msg}", file=sys.stderr)
        return seconds


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """One run; ``scale`` < 1 shrinks every workload for the self-test."""
    wl = workloads.build(name, seed, scale)
    gate = Gate(workloads.load_reference(wl), OUT / f"run-{os.getpid()}")
    samples, layer, spans = {}, {}, None
    if not trace:
        samples["setup_s"] = [child_setup(name, seed, scale) for _ in range(SETUP_RUNS)]
    untraced, traced, per_pass = [], [], []
    tr = tracer.Tracer()
    start = perf_counter()
    try:
        # warm-up on the first config: pool, BLAS threads and first-call costs
        gate.timed_pass(replace(wl, configs=wl.configs[:1]))
        while True:
            untraced.append(gate.timed_pass(wl))
            if trace:
                tr.pass_id += 1
                tr.install()
                try:
                    traced.append(gate.timed_pass(wl))
                finally:
                    tr.uninstall()
                per_pass.append(tr.pass_metrics(tr.pass_id))
            step = statistics.median(untraced) + (statistics.median(traced) if trace else 0.0)
            if perf_counter() - start + step > seconds:
                break
    finally:
        shutil.rmtree(gate.out_dir, ignore_errors=True)
    samples["wall_s"] = untraced
    if trace:
        for msg in tr.missing:
            print(f"note: {msg} not found; reported as 0", file=sys.stderr)
        layer = tracer.median_metrics(per_pass)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        samples["traced_wall_s"] = traced
        spans = tr.dump()
    else:
        # this process is fresh and has run only this workload
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {"workload": name, "seed": seed, "trace": int(trace),
            "attempted": gate.attempted, "failed": gate.failed,
            "failures": gate.messages, "samples": samples, "per_layer": layer,
            "spans": spans}


def result_line(res: dict) -> dict:
    if res["trace"]:
        metrics = {k: {"value": v, "unit": unit_for(k)} for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": statistics.median(res["samples"][k]), "unit": unit}
                   for k, unit in END_TO_END.items()}
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def table(res: dict, env: dict) -> str:
    lines = [f"== {res['workload']} (seed {res['seed']}, trace {res['trace']})"]
    for key, values in res["samples"].items():
        lo, hi = quartiles(values)
        unit = END_TO_END.get(key, "s")
        lines.append(f"  {key:<40} {statistics.median(values):>14.6g} {unit:<6}"
                     f" n={len(values)} q1={lo:.6g} q3={hi:.6g}")
    ratio = res["failed"] / res["attempted"] if res["attempted"] else float("nan")
    lines.append(f"  {'fail_ratio':<40} {ratio:>14.6g} {'ratio':<6}"
                 f" failed={res['failed']} attempted={res['attempted']}")
    for key, value in res["per_layer"].items():
        lines.append(f"  {key:<40} {value:>14.6g} {unit_for(key)}")
    lines.append("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    return "\n".join(lines)


def save(res: dict, env: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{res['workload']}-seed{res['seed']}-trace{res['trace']}"
    record = {k: v for k, v in res.items() if k != "spans"}
    record["env"] = env
    record["result"] = result_line(res)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res["spans"] is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(res["spans"]) + "\n")


def write_reference() -> None:
    entries = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        out_dir = OUT / f"reference-{os.getpid()}"
        try:
            entries[name] = workloads.reference_entry(workloads.run_pass(wl, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    data = {"seed": workloads.DEFAULT_SEED, "rel_tol": workloads.REL_TOL,
            "env": environment(), "workloads": entries}
    workloads.REFERENCE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def run_all(names, args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    lines = {}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        lines[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(v["correct"] for v in lines.values()),
        "attempted": sum(v["attempted"] for v in lines.values()),
        "failed": sum(v["failed"] for v in lines.values()),
        "metrics": {f"{w}/{k}": m for w, v in lines.items()
                    for k, m in v["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record reference.json from the current library")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS} or all")
    env = environment()
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    save(res, env)
    print(table(res, env), file=sys.stderr)
    print(json.dumps(result_line(res)))
    return 0

if __name__ == "__main__":
    sys.exit(main())
