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
  fails, explicit windows with the discrete variant, a singular zeta, a
  stack of zetas whose stacked sigma_min estimate overflows, so every zeta
  is redone on its own (``stack-fallback``: J_4 = diag(5e-324, 1, 2, 3)), a
  symbol gap asked of a finite block list (``run`` raises), and one config
  each of the ``example3``, ``example1`` and ``constant`` families, so every
  block family's generator runs, and an example 2 Green config at
  N = 12200, whose far blocks' norms and envelope underflow to 0;
* a 2-periodic (dimerized) chain with a symbol gap, built in code.

A config whose ``run`` raises gets an ``error.txt`` with the exception type
and message instead.  ``<out-dir>/cli/`` holds the files that the command
line writes with ``--out`` for the ``bound`` (explicit, auto and simplified
delta), ``green`` (JSON and CSV) and ``example1`` (JSON and CSV) cases of
``CLI_CASES``.  ``<out-dir>/band_edges.json`` also holds
``band_edges(symbol_spectrum(A, B, 2048), 0.2)``, each value written with
``repr``, for the example 2 symbols of the sweep workload, the dimer fold
and three seeded random symbols (d = 1, 2, 3), so a change of the gap-edge
refinement shows directly.  Snapshots of two checkouts compare with
``diff -r``, or in summary with ``tools/snapshot_diff.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

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
    "example3-explicit-gap": {
        "operator": {"dim": 2, "family": "example3",
                     "params": {"x": 0.0, "alpha": 0.75, "c1": 0.0, "c2": 1.0}},
        "gap": {"source": "explicit", "r": -1.0, "s": 1.0},
        "zetas": [[0.3, 0.0], [0.2, 0.5]],
        "variants": ["continuous", "simplified", "discrete"], "n_blocks": 400,
        "experiments": ["green"]},
    "example1-power-rules": {
        "operator": {"dim": 2, "family": "example1",
                     "params": {"lambda_rule": {"kind": "power"},
                                "eps_rule": {"kind": "power", "scale": 0.5,
                                             "exponent": -1.0}}},
        "gap": {"source": "explicit", "r": -1.0, "s": 1.0},
        "zetas": [[0.5, 0.0], [0.3, 0.2]], "variants": ["continuous", "simplified"],
        "n_blocks": 80, "experiments": ["green"]},
    "constant-diagonal": {
        "operator": {"dim": 2, "family": "constant",
                     "params": {"A": _diag(0.5), "B": [[[3.0, 0.0], [0.0, 0.0]],
                                                      [[0.0, 0.0], [-3.0, 0.0]]]}},
        "zetas": [[0.5, 0.0], [0.0, 0.5]], "variants": ["continuous", "discrete"],
        "n_blocks": 60, "experiments": ["green", "commuting"]},
    "underflow": {
        "operator": _example2(), "zetas": [[0.5, 0.0]], "n_blocks": 12200,
        "experiments": ["green"]},
    "stack-fallback": {
        "operator": {"dim": 1, "family": "explicit-list",
                     "prefix": [{"A": [[[0.0, 0.0]]], "B": [[[b, 0.0]]]}
                                for b in (5e-324, 1.0, 2.0, 3.0)],
                     "tail": {"A": [[[0.0, 0.0]]], "B": [[[5.0, 0.0]]]}},
        "gap": {"source": "explicit", "r": -1.0, "s": 4.0},
        "zetas": [[0.5, 0.0], [0.0, 0.0], [1.5, 0.0], [0.5, 1.0]],
        "params": {"delta": 1.0}, "n_blocks": 4, "experiments": ["green"]},
    "symbol-past-finite-list": {
        "operator": {"dim": 1, "family": "explicit-list",
                     "prefix": [{"A": [[[1.0, 0.0]]], "B": [[[0.0, 0.0]]]},
                                {"A": [[[3.0, 0.0]]], "B": [[[0.0, 0.0]]]}] * 40},
        "zetas": [[0.0, 0.0], [1.0, 0.5]], "variants": ["continuous", "simplified"],
        "n_blocks": 30, "experiments": ["green"]},
}


#: file name under <out-dir>/cli -> command line arguments before --out
CLI_CASES = {
    "bound-explicit.json": ["bound", "--gap=-1,1", "--zeta", "0.5,0.1", "--delta", "2",
                            "--epsilon", "0.3", "--eta", "0.4"],
    "bound-auto.json": ["bound", "--gap=-1,1", "--zeta", "0.5", "--delta", "auto",
                        "--operator", "example2:x=3", "--n", "300"],
    "bound-simplified.json": ["bound", "--gap=-1,1", "--zeta", "0.3,0.2",
                              "--variant", "simplified", "--eps-prime", "0.02"],
    "green.json": ["green", "--operator", "example2:x=3", "--n", "60",
                   "--zeta", "0.5,0.1", "--rows", "1:40", "--cols", "2:4"],
    "green.csv": ["green", "--operator", "example2:x=3", "--n", "60", "--zeta", "0.5,0.1",
                  "--rows", "1:40", "--cols", "2:4", "--format", "csv"],
    "example1.json": ["example1", "--eps-scale", "0.5", "--n", "30", "--col", "5"],
    "example1.csv": ["example1", "--eps-scale", "0.5", "--n", "30", "--col", "5",
                     "--format", "csv"],
}


def band_edges_table(xs) -> dict:
    """name -> repr of every band edge of the symbol (A, B) on 2048 thetas."""
    from blockjacobi import (band_edges, example2_sequence, period2_symbol_blocks,
                             symbol_spectrum)

    symbols = {}
    for x in xs:
        A, B = example2_sequence(x).blocks(1, 2)
        symbols[f"example2 x={x}"] = (A[0], B[0])
    symbols["dimer fold"] = period2_symbol_blocks(1, 3, 0, 0)
    rng = np.random.default_rng(20261018)
    for d in (1, 2, 3):
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        symbols[f"random d={d}"] = (0.5 * A, H + H.conj().T)
    return {name: [repr(float(e)) for e in band_edges(symbol_spectrum(A, B, 2048), 0.2)]
            for name, (A, B) in symbols.items()}


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
    from blockjacobi.cli import main as cli_main

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
    (out / "cli").mkdir(parents=True, exist_ok=True)
    for name, argv in CLI_CASES.items():     # a failing command leaves no file
        cli_main([*argv, "--out", str(out / "cli" / name)])
    edges = band_edges_table(workloads.SWEEP_XS)
    (out / "band_edges.json").write_text(json.dumps(edges, indent=2) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
