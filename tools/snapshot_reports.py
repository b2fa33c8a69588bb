#!/usr/bin/env python3
"""Write the report.json and CSVs of a fixed set of configs, for diffing.

    python3 tools/snapshot_reports.py <src-root> <out-dir>

``<src-root>`` is a checkout of this repository: its ``src/blockjacobi``
is the library that runs, and its ``perfbench/workloads.py`` supplies the
benchmark configs (imported, never written to).  Every config goes through
``blockjacobi.run(config, out_dir=<out-dir>/<name>)``:

* every config of every benchmark workload (sweep at its default seed);
* edge cases given as config JSON: several kinds in one config, a
  ``truncation`` gap source, an edge-only config without an operator, an
  eigenvector search that finds no pair, a commuting config whose hypothesis
  fails, explicit windows with the discrete variant, a singular zeta, and a
  symbol gap asked of a finite block list (``run`` raises);
* a 2-periodic (dimerized) chain with a symbol gap, built in code.

A config whose ``run`` raises gets an ``error.txt`` with the exception type
and message instead.  Snapshots of two checkouts compare with ``diff -r``.
"""

from __future__ import annotations

import sys
from pathlib import Path

A2 = [[[1.0, 0.0], [3.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def _diag(value):
    return [[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [value, 0.0]]]


def _example2(b1=None):
    op = {"dim": 2, "family": "example2", "params": {"x": 3.0}}
    if b1 is not None:
        op["prefix"] = [{"A": A2, "B": _diag(b1)}]
    return op


def _dimer(n):
    """Couplings 1, 3, 1, 3, ... and zero diagonal: gap (-2, 2)."""
    return [[1.0 if n % 2 else 3.0]], [[0.0]]


EDGE = {"x": 3.0, "eps_list": [1e-3, 1e-2], "n_blocks": 200}

#: name -> config JSON
EDGE_CASES = {
    "multi-kind": {
        "operator": _example2(0.5), "zetas": [[0.5, 0.0], [0.3, 0.2]],
        "variants": ["continuous", "simplified", "discrete", "commuting"],
        "n_blocks": 60, "experiments": ["green", "eigenvector", "commuting", "edge"],
        "edge": EDGE},
    "truncation-source": {
        "operator": _example2(0.5), "gap": {"source": "truncation", "tol": 0.5},
        "zetas": [[0.5, 0.0]], "n_blocks": 60,
        "experiments": ["green", "eigenvector"]},
    "truncation-source-one-kind": {
        "operator": _example2(), "gap": {"source": "truncation", "tol": 0.5},
        "zetas": [[0.5, 0.0]], "n_blocks": 60, "experiments": ["green"]},
    "edge-only": {"experiments": ["edge"], "edge": EDGE},
    "no-eigenpair": {
        "operator": _example2(1.5), "zetas": [[0.5, 0.0]], "n_blocks": 60,
        "experiments": ["eigenvector"]},
    "hypothesis-violated": {
        "operator": _example2(), "zetas": [[0.5, 0.0]], "variants": ["commuting"],
        "n_blocks": 40, "rows": [1, 30], "experiments": ["commuting"]},
    "explicit-window": {
        "operator": _example2(), "gap": {"source": "explicit", "r": -1.0, "s": 1.0},
        "zetas": [[0.5, 0.0], [-0.4, 0.1]],
        "params": {"delta": 2.0, "epsilon": 0.3, "eta": 0.4, "eps_prime": 0.02},
        "variants": ["discrete", "continuous"], "n_blocks": 80,
        "rows": [5, 60], "cols": [3, 7], "experiments": ["green"]},
    "singular-zeta": {
        "operator": _example2(), "zetas": [[0.0, 0.0], [0.5, 0.0]],
        "variants": ["continuous", "discrete"], "n_blocks": 61,
        "experiments": ["green", "eigenvector"]},
    "symbol-past-finite-list": {
        "operator": {"dim": 1, "family": "explicit-list",
                     "prefix": [{"A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]},
                                {"A": [[[3.0, 0.0]]], "B": [[[0.0, 0.0]]]}] * 40},
        "zetas": [[0.0, 0.0], [1.0, 0.5]], "variants": ["continuous", "simplified"],
        "n_blocks": 30, "experiments": ["green"]},
}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    if not (root / "src" / "blockjacobi" / "__init__.py").is_file():
        print(f"error: no src/blockjacobi under {root}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True     # leave no __pycache__ in the checkout
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from blockjacobi import ExperimentConfig, custom_sequence, run

    configs = {f"{name}-{i}": cfg
               for name in workloads.WORKLOADS
               for i, cfg in enumerate(workloads.build(name).configs)}
    configs.update(EDGE_CASES)
    configs["period2-symbol"] = ExperimentConfig(
        operator=custom_sequence(_dimer, 1), zetas=(0.5, 1.0 + 0.5j),
        variants=("continuous", "simplified", "discrete"), n_blocks=41)
    for name, cfg in configs.items():
        target = out / name
        target.mkdir(parents=True, exist_ok=True)
        try:
            run(cfg, out_dir=str(target))
        except Exception as exc:  # recorded, so a raise is diffed too
            (target / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n",
                                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
