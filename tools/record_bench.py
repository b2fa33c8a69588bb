#!/usr/bin/env python3
"""Record a BENCH_<n>.json: a parent and a changed checkout, same machine.

    python3 tools/record_bench.py --parent <checkout> [--change <checkout>] \
        --out BENCH_<n>.json

Both checkouts are measured in alternating order (the side that goes first
swaps every pair), so slow drift of the machine hits both alike, with
``PAIRS`` pairs per workload, ``SECONDS`` per ``perfbench/run.py`` run and
``LADDER_REPEATS`` pairs per ladder point:

* every workload of ``perfbench/run.py`` (``--trace 0``): median and
  quartiles of ``wall_s``, ``peak_rss_mb`` and ``setup_s`` over the pairs,
  per metric the number of pairs in which the change read lower
  (``change_lower_pairs``; ties count for neither side), and the
  correctness gate (``correct``, ``failed``) of every run;
* every workload once per side with ``--trace 1``: every per-layer metric
  it reports, under the workload's ``trace`` key, with that run's gate;
* the N ladder, each point in a fresh interpreter: ``verify_green_bound``
  on example 2 (x = 3) at zeta = 0.5, and at the off-axis zeta = 0.3 + 0.2i,
  whose 2N re-solve needs no singularity screen; ``verify_eigenvector_bound``
  on the same operator with B_1 = 0.5 I (its 2N section included), and
  ``verify_eigenvector_bound`` on that operator's gauge copy with every A_n
  times e^{0.7 i}: unitarily equivalent (same spectrum, same block norms),
  but its band is complex, so it times the complex band reduction where
  the real operator takes the real one; ``truncated_spectrum`` of the
  assembled example 2 section (every eigenvalue, as the ``truncation`` gap
  source and the ``spectrum`` command take them), the assembly untimed;
  each point records the median and quartiles of its wall time and the
  number of its pairs in which the change read lower
  (``change_lower_runs``), as the workloads do, and its verdict: ``pass`` when every result of its
  report passed (a ``truncated_spectrum`` that returns has passed its own
  checks), ``failed`` otherwise, in any of its runs, and the median process
  CPU time (``time.process_time``, every thread of the process) of the
  timed call beside its wall time: CPU time above wall time shows work on
  several BLAS threads, wall time above CPU time a wait for the machine;
  and the median peak resident memory of the point's interpreter
  (``ru_maxrss``, in MB), imports and operator included;
* under ``machine.lapack``, per side, the band LAPACK its ``blockjacobi``
  runs on: the library file and its ``openblas_get_config`` string.

Each side is labelled with its HEAD commit, plus the hash of a stash commit
of its working tree when that has uncommitted changes, so the numbers can be
tied to the exact code that was timed; record from clean checkouts to get
plain commit hashes. The ``notes`` list is written empty: notes on the run
are added by hand afterwards.

Nothing is written into either checkout except what ``perfbench/run.py``
itself keeps in its ``.perfbench/`` directory and, for a dirty tree, the
unreferenced stash commit in its git object store.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("green-large", "sweep", "eigvec", "commuting")
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
LADDER = {"green": (1200, 10_000, 100_000), "green-offaxis": (1200, 10_000, 100_000),
          "eigenvector": (1000, 2000, 4000, 10_000),
          "complex-eigenvector": (1000, 2000, 4000),
          "truncation-spectrum": (300, 600, 1200)}
PAIRS = 10
SECONDS = 5.0
LADDER_REPEATS = 5

#: one ladder point, run with the checkout's ``src`` on sys.path
LADDER_POINT = """
import json, resource, sys
from time import perf_counter, process_time
import numpy as np
import blockjacobi as bj
from blockjacobi.harness import ExperimentConfig
kind, n = sys.argv[1], int(sys.argv[2])
seq = bj.example2_sequence(3.0)
A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)      # its constant A
if kind == "eigenvector":
    seq = bj.with_prefix(seq, [(A2, 0.5 * np.eye(2))])
elif kind == "complex-eigenvector":
    # every A_n times e^{0.7 i}: unitarily equivalent, with a complex band
    A = np.exp(0.7j) * A2
    seq = bj.explicit_sequence([(A, 0.5 * np.eye(2))], tail=(A, np.zeros((2, 2))))
green = kind in ("green", "green-offaxis")
zeta = 0.3 + 0.2j if kind == "green-offaxis" else 0.5
if kind == "truncation-spectrum":
    op = bj.assemble_truncation(seq, n)
    t0, c0 = perf_counter(), process_time()
    bj.truncated_spectrum(op)
    seconds, cpu, passed = perf_counter() - t0, process_time() - c0, True
else:
    cfg = ExperimentConfig(operator=seq, zetas=(zeta,), n_blocks=n,
                           experiments=("green" if green else "eigenvector",))
    verify = bj.verify_green_bound if green else bj.verify_eigenvector_bound
    t0, c0 = perf_counter(), process_time()
    report = verify(cfg)
    seconds, cpu = perf_counter() - t0, process_time() - c0
    passed = all(r.passed is True for r in report.experiments)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"seconds": seconds, "cpu_seconds": cpu, "rss_mb": rss_mb,
                  "passed": passed}))
"""


#: the band LAPACK a checkout's ``blockjacobi`` runs on, run with its ``src``
#: on sys.path: the library file (relative to numpy's site directory) and its
#: ``openblas_get_config`` string, or scipy's LAPACK (with scipy's build-time
#: OpenBLAS configuration): ``scipy.linalg.cython_lapack`` on the fallback
#: path, ``scipy.linalg.lapack`` for a checkout from before ``blockjacobi._lapack``
LAPACK_RUNTIME = """
import json, os
import numpy
try:
    from blockjacobi._lapack import LIBRARY, openblas_config
    fallback = "scipy.linalg.cython_lapack"
except ImportError:
    LIBRARY, fallback = None, "scipy.linalg.lapack"
if LIBRARY is None:
    import scipy
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    print(json.dumps({"library": fallback,
                      "openblas_config": lapack.get("openblas configuration")}))
else:
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    print(json.dumps({"library": os.path.relpath(LIBRARY, site),
                      "openblas_config": openblas_config()}))
"""


def last_json_line(cmd, cwd: Path, env=None):
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def perfbench(root: Path, workload: str, trace: int) -> dict:
    return last_json_line([sys.executable, str(root / "perfbench" / "run.py"),
                           "--workload", workload, "--seconds", str(SECONDS),
                           "--trace", str(trace)], root)


def traced(root: Path, workload: str) -> dict:
    res = perfbench(root, workload, 1)
    return {"correct": res["correct"], "failed": res["failed"],
            "metrics": {m: v["value"] for m, v in res["metrics"].items()}}


def in_checkout(root: Path, code: str, *args: str):
    """Last JSON line printed by ``code`` run with the checkout's ``src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return last_json_line([sys.executable, "-c", code, *args], root, env)


def ladder_point(root: Path, kind: str, n: int) -> dict:
    """``{"seconds": wall time, "cpu_seconds": process CPU time, "rss_mb":
    peak resident memory, "passed": verdict}`` of one ladder run."""
    return in_checkout(root, LADDER_POINT, kind, str(n))


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def alternate(sides: dict, pairs: int, measure) -> dict:
    """Run ``measure(root)`` ``pairs`` times per side, alternating the order."""
    runs = {name: [] for name in sides}
    order = list(sides)
    for k in range(pairs):
        for name in (order if k % 2 == 0 else order[::-1]):
            runs[name].append(measure(sides[name]))
    return runs


def revision(root: Path) -> str:
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    stash = git("stash", "create")   # empty for a clean tree
    return f"{head}+worktree:{stash}" if stash else head


def machine(sides: dict) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "lapack": {name: in_checkout(root, LAPACK_RUNTIME)
                       for name, root in sides.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    workloads = {}
    for wl in WORKLOADS:
        runs = alternate(sides, PAIRS, lambda root: perfbench(root, wl, 0))
        entry = {"pairs": PAIRS}
        for name, results in runs.items():
            entry[name] = {m: summary([r["metrics"][m]["value"] for r in results])
                           for m in END_TO_END}
            entry[name]["correct"] = all(r["correct"] for r in results)
            entry[name]["failed"] = sum(r["failed"] for r in results)
        entry["change_lower_pairs"] = {
            m: sum(c["metrics"][m]["value"] < p["metrics"][m]["value"]
                   for p, c in zip(runs["parent"], runs["change"]))
            for m in END_TO_END}
        entry["trace"] = {name: traced(root, wl) for name, root in sides.items()}
        workloads[wl] = entry
        print(wl, json.dumps({k: entry[k]["wall_s"]["median"] for k in sides}),
              file=sys.stderr)

    ladder = {}
    for kind, sizes in LADDER.items():
        ladder[kind] = {"N": list(sizes)}
        for n in sizes:
            runs = alternate(sides, LADDER_REPEATS,
                             lambda root: ladder_point(root, kind, n))
            for name, points in runs.items():
                seconds = summary([p["seconds"] for p in points])
                for key, stat in (("s", "median"), ("s_q1", "q1"), ("s_q3", "q3")):
                    ladder[kind].setdefault(f"{name}_{key}", []).append(seconds[stat])
                ladder[kind].setdefault(f"{name}_cpu_s", []).append(
                    statistics.median(p["cpu_seconds"] for p in points))
                ladder[kind].setdefault(f"{name}_rss_mb", []).append(
                    statistics.median(p["rss_mb"] for p in points))
                ladder[kind].setdefault(f"{name}_verdict", []).append(
                    "pass" if all(p["passed"] for p in points) else "failed")
            ladder[kind].setdefault("change_lower_runs", []).append(
                sum(c["seconds"] < p["seconds"] for p, c in zip(runs["parent"], runs["change"])))
        print(kind, json.dumps(ladder[kind]), file=sys.stderr)

    result = {
        "revisions": {name: revision(root) for name, root in sides.items()},
        "machine": machine(sides),
        "method": {
            "workloads": f"perfbench/run.py --workload W --seconds {SECONDS} "
                         f"--trace 0, {PAIRS} alternating parent/change pairs; "
                         "change_lower_pairs counts, per end-to-end metric, "
                         "the pairs in which the change's run read lower "
                         "(ties count for neither side)",
            "trace": f"perfbench/run.py --workload W --seconds {SECONDS} "
                     "--trace 1, once per side and workload",
            "ladder": "example 2 (x = 3), zeta = 0.5 (green-offaxis: "
                      "0.3 + 0.2i), wall time of one "
                      "verify_green_bound / verify_eigenvector_bound call "
                      "(B_1 = 0.5 I; complex-eigenvector: every A_n times "
                      "e^{0.7 i}), or of one truncated_spectrum call on "
                      "the assembled section (truncation-spectrum), "
                      "in a fresh interpreter, median (<side>_s) and "
                      "quartiles (<side>_s_q1, <side>_s_q3) of "
                      f"{LADDER_REPEATS} alternating runs per side; "
                      "change_lower_runs counts the pairs of runs in which "
                      "the change read lower (ties count for neither side); "
                      "<side>_cpu_s is the median process CPU time "
                      "(time.process_time, all threads) of the same calls; "
                      "<side>_rss_mb is the median peak resident memory "
                      "(ru_maxrss, MB) of the same fresh interpreters; "
                      "<side>_verdict is pass when every result of every "
                      "run's report passed, failed otherwise",
            "notes": "added by hand after the run, not by this tool",
        },
        "workloads": workloads,
        "ladder_s": ladder,
        "notes": [],
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
