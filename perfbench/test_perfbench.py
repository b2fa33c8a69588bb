"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that self time is span duration minus child spans on a synthetic trace,
that the correctness gate fails a perturbed reference, and that the
benchmark refuses to run without the library source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.05


def test_every_metric_emitted_with_unit():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = bench.measure("green-large", 1, 0.0, bool(trace), scale=TINY)
        line = bench.result_line(res)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
        assert line["attempted"] >= 1
    # green_block is reached only through harness's own from-import binding
    assert res["per_layer"]["spectral.green_block.calls"] == 4
    assert res["per_layer"]["spectral.lu_factor.calls"] == 4


def test_self_time_on_synthetic_trace():
    tr = tracer.Tracer()
    tr.spans = [
        # id, name, start, end, parent, thread, pass
        (1, "harness.run", 0.0, 10.0, None, 7, 1),
        (2, "spectral.green_block", 1.0, 3.0, 1, 7, 1),
        (3, "spectral.green_block", 4.0, 8.0, 1, 7, 1),
        (4, "spectral.lu_factor", 5.0, 6.5, 3, 7, 1),
        (5, "operators.norms", 9.5, 10.0, 1, 7, 1),
        (6, "harness.job", 2.0, 5.0, None, 8, 1),   # another thread: a root
        (7, "spectral.green_block", 0.0, 1.0, None, 7, 2),
    ]
    selfs = dict(((sid, t) for sid, (_, t) in
                  zip((s[0] for s in tr.spans), tracer.self_time(tr.spans))))
    assert selfs == {1: 10.0 - 2.0 - 4.0 - 0.5, 2: 2.0, 3: 4.0 - 1.5, 4: 1.5,
                     5: 0.5, 6: 3.0, 7: 1.0}
    metrics = tr.pass_metrics(1)
    assert metrics["harness.self_s"] == 3.5 + 3.0
    assert metrics["spectral.self_s"] == 2.0 + 2.5 + 1.5
    assert metrics["operators.self_s"] == 0.5
    assert metrics["spectral.green_block.busy_s"] == 6.0
    assert metrics["spectral.green_block.calls"] == 2
    # a child that overruns its parent is clipped to the parent's interval
    clipped = tracer.self_time([(1, "a.x", 0.0, 2.0, None, 1, 1),
                                (2, "a.y", 1.0, 3.0, 1, 1, 1)])
    assert clipped[0] == ("a.x", 1.0)


def test_perturbed_reference_counts_as_failure():
    wl = workloads.build("green-large", 1, scale=TINY)
    outcomes = workloads.run_pass(wl, ROOT / ".perfbench" / "selftest")
    shutil.rmtree(ROOT / ".perfbench" / "selftest", ignore_errors=True)
    reference = workloads.reference_entry(outcomes)
    attempted, failed, _ = workloads.check(wl, outcomes, reference)
    assert (attempted, failed) == (2, 0)
    name = next(iter(reference["0"]))
    for key, value in (("gamma", 1e-9), ("C_emp", 1e-3), ("slope_measured", 1e-3)):
        changed = json.loads(json.dumps(reference))
        changed["0"][name][key] *= 1.0 + value
        attempted, failed, messages = workloads.check(wl, outcomes, changed)
        fail_ratio = failed / attempted
        assert (fail_ratio > 0) == (value > workloads.REL_TOL), messages
    changed = json.loads(json.dumps(reference))
    changed["0"][name]["pass"] = not changed["0"][name]["pass"]
    assert workloads.check(wl, outcomes, changed)[1] == 1


def test_refuses_to_run_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "sweep", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
