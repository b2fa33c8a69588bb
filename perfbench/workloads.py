"""Benchmark workloads: experiment configs drawn from a seed, and the
correctness gate that checks every experiment of a pass.

Each workload is a list of ``ExperimentConfig`` objects handed to
``blockjacobi.run``; the library only ever sees these generated configs.
Only ``sweep`` depends on the seed (its spectral points are drawn from
``SWEEP_REGION``); the other workloads are fixed, so on every seed their
outputs are compared with the stored reference.

Why each workload exists:

* ``green-large``: one dense Green solve pair at N = 600 (its 2N re-run
  factors a 2400 x 2400 complex matrix); LU, the sigma_min power iteration
  and assembly dominate time and memory.
* ``sweep``: many small (N = 60) Green experiments over four gaps, three
  variants each; per-call overhead, symbol gap refinement, ``best_delta``,
  repeated identical solves and the job pool dominate.
* ``eigvec``: the eigenvector experiment at N = 200; dense eigen-search of
  the N and 2N sections instead of a Green solve.
* ``commuting``: the criterion-7 diagonal family; commutator checks and
  per-(m, j) operator envelopes dominate, the Green solve is negligible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blockjacobi as bj
from blockjacobi import harness
from blockjacobi.harness import ExperimentConfig

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

DEFAULT_SEED = 0
#: relative tolerance for gamma, C_emp and slope_measured against the reference
REL_TOL = 1e-6
#: absolute floor under the relative tolerance, for values near zero
ABS_TOL = 1e-12
#: the number fields compared with the reference (report.json names)
COMPARED = ("gamma", "C_emp", "slope_measured")

A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)

SWEEP_XS = (2.5, 3.0, 3.5, 4.0)
#: sweep draws, per config, two real and two complex zeta in the gap
#: (-h, h) of example2 with h = |x| - 2:  Re zeta = +-u h with u uniform in
#: [0.25, 0.75] (clear of the zero-energy bound state at 0 and of the band
#: edges), Im zeta = v h with v uniform in [0.05, 0.5] for the complex ones
SWEEP_REGION = {"u": (0.25, 0.75), "v": (0.05, 0.5)}
#: criterion 2's zeta = 0 at x = 3 is an eigenvalue; its correct outcome
#: is a SingularityError rejection of the Green solve
SWEEP_SINGULAR = (3.0, 0j)

WORKLOADS = ("green-large", "sweep", "eigvec", "commuting")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: tuple
    seeded: bool          # inputs depend on the seed
    scale: float = 1.0


def _commuting_blocks(n):
    return (np.diag([n + 3.0, 2.0 * (n + 3.0)]).astype(complex),
            np.zeros((2, 2)))


def sweep_zetas(x: float, rng: np.random.Generator) -> list:
    h = abs(x) - 2.0
    zetas = []
    for k in range(4):
        u = rng.uniform(*SWEEP_REGION["u"]) * rng.choice((-1.0, 1.0))
        v = rng.uniform(*SWEEP_REGION["v"]) if k >= 2 else 0.0
        zetas.append(complex(u * h, v * h))
    if x == SWEEP_SINGULAR[0]:
        zetas.append(SWEEP_SINGULAR[1])
    return zetas


def build(name: str, seed: int = DEFAULT_SEED, scale: float = 1.0) -> Workload:
    """The configs of workload ``name``; ``scale`` shrinks N for self-tests."""

    def n(blocks):
        return max(8, int(round(blocks * scale)))

    if name == "green-large":
        configs = [ExperimentConfig(
            operator=bj.example2_sequence(3.0), gap={"source": "symbol"},
            zetas=(0.5, 0.3 + 0.2j), variants=("continuous",),
            n_blocks=n(600), experiments=("green",))]
    elif name == "sweep":
        rng = np.random.default_rng(seed)
        configs = [ExperimentConfig(
            operator=bj.example2_sequence(x), gap={"source": "symbol"},
            zetas=sweep_zetas(x, rng),
            variants=("continuous", "simplified", "discrete"),
            n_blocks=n(60), experiments=("green",)) for x in SWEEP_XS]
    elif name == "eigvec":
        seq = bj.with_prefix(bj.example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
        configs = [ExperimentConfig(
            operator=seq, gap={"source": "symbol"}, zetas=(0.5,),
            n_blocks=n(200), experiments=("eigenvector",))]
    elif name == "commuting":
        big = n(160)
        configs = [ExperimentConfig(
            operator=bj.custom_sequence(_commuting_blocks, 2),
            gap={"source": "explicit", "r": -1.0, "s": 1.0},
            zetas=(0.5j,), delta=1.0, variants=("commuting",),
            n_blocks=big, rows=(1, max(2, big * 3 // 4)), cols=(1, 1),
            experiments=("commuting",))]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name=name, seed=seed, configs=tuple(configs),
                    seeded=name == "sweep", scale=scale)


def run_pass(wl: Workload, out_dir: Path) -> list:
    """One pass: every config through ``run``, with report and CSV writes.

    Returns, per config, the list of experiment records or the exception
    that ``run`` raised.
    """
    outcomes = []
    for i, cfg in enumerate(wl.configs):
        try:
            # looked up at call time so that a traced pass sees the wrapper
            report, _ = harness.run(cfg, out_dir=str(out_dir / f"cfg{i}"))
        except Exception as exc:  # counted as failures by check()
            outcomes.append(exc)
        else:
            outcomes.append([record(r) for r in report.experiments])
    return outcomes


def record(result) -> dict:
    """The fields of one experiment the correctness gate looks at."""
    data = result.to_json()
    error = data["details"].get("error")
    out = {"name": data["name"], "pass": data["pass"],
           "error": error.split(":", 1)[0] if error else None}
    for key in COMPARED:
        out[key] = data[key]
    return out


def _close(a, b) -> bool:
    a, b = float(a), float(b)   # report.json writes non-finite values as 'nan'/'inf'
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _expected_verdict(rec: dict) -> bool:
    """Verdict-only rule used off the reference seed."""
    if rec["name"].endswith("zeta=0+0j"):
        return rec["error"] == "SingularityError"
    return rec["pass"] is True and rec["error"] is None


def check(wl: Workload, outcomes: list, reference: dict | None) -> tuple:
    """(attempted, failed, messages) for one pass.

    With a reference (the workload's inputs equal the reference inputs)
    every experiment must match its verdict, error type and numbers within
    REL_TOL; otherwise there must be one passing experiment per (zeta,
    variant), except that zeta = 0 must be rejected with a SingularityError.  A config whose ``run``
    raised counts all its reference experiments (at least one) as failed.
    """
    attempted = failed = 0
    messages = []
    for i, outcome in enumerate(outcomes):
        expected = reference[str(i)] if reference is not None else None
        if isinstance(outcome, Exception):
            count = len(expected) if expected else 1
            attempted += count
            failed += count
            messages.append(f"cfg{i}: run raised {type(outcome).__name__}: {outcome}")
            continue
        if expected is None:
            cfg = wl.configs[i]
            missing = len(cfg.zetas) * len(cfg.variants) - len(outcome)
            if missing > 0:   # every workload config yields one per (zeta, variant)
                attempted += missing
                failed += missing
                messages.append(f"cfg{i}: {missing} experiments missing")
            for rec in outcome:
                attempted += 1
                if not _expected_verdict(rec):
                    failed += 1
                    messages.append(f"cfg{i} {rec['name']}: verdict {rec['pass']} "
                                    f"error {rec['error']}")
            continue
        got = {rec["name"]: rec for rec in outcome}
        for name in sorted(set(got) | set(expected)):
            attempted += 1
            want, have = expected.get(name), got.get(name)
            if want is None or have is None:
                failed += 1
                messages.append(f"cfg{i} {name}: "
                                + ("unexpected experiment" if want is None else "missing"))
                continue
            bad = [key for key in ("pass", "error") if have[key] != want[key]]
            bad += [key for key in COMPARED if not _close(have[key], want[key])]
            if bad:
                failed += 1
                messages.append(f"cfg{i} {name}: " + ", ".join(
                    f"{key} {have[key]!r} != reference {want[key]!r}" for key in bad))
    return attempted, failed, messages


def load_reference(wl: Workload) -> dict | None:
    """The stored reference for ``wl``, or None off the reference inputs."""
    if wl.scale != 1.0 or (wl.seeded and wl.seed != DEFAULT_SEED):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][wl.name]


def reference_entry(outcomes: list) -> dict:
    """Reference JSON for one pass: config index -> experiment name -> record."""
    entry = {}
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, Exception):
            raise RuntimeError(f"cfg{i} raised while recording the reference: {outcome}")
        entry[str(i)] = {rec["name"]: rec for rec in outcome}
    return entry
