"""Command line interface.

Subcommands: spectrum, gap, green, bound, verify, example1, example2,
example3, edge-study.  Operators are given either as a JSON file path or as
a family shorthand like ``example2:x=3`` or
``example3:x=0,alpha=0.75,c1=0,c2=1``.  Results are emitted as JSON (default,
stdout) or CSV via --out/--format.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .boundfns import DEFAULT_EPS_PRIME, DEFAULT_EPSILON, DEFAULT_ETA, GapInterval
from .errors import ParameterError
from .harness import (EDGE_N_BLOCKS, GAP_TOL, ExperimentConfig, edge_scaling_study,
                      run, verify_green_bound, _green_rows, _resolve_rate, _write_csv)
from .operators import assemble_truncation, load_operator, EntrySequence
from .spectral import (SYMBOL_GRID, band_edges, detect_gap, green_block,
                       tail_symbol_spectrum, truncated_spectrum)
from .transfer import (classify_splitting, example3_gap, example3_rho,
                       monodromy_splitting)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return (int(lo), int(hi or lo))


_SHORTHAND_KEYS = {"example1": (), "example2": ("x",),   # accepted parameters
                   "example3": ("x", "alpha", "c1", "c2")}


def _parse_operator(text: str) -> EntrySequence:
    if Path(text).exists():
        return load_operator(text)
    family, _, rest = text.partition(":")
    if family not in _SHORTHAND_KEYS:
        raise ParameterError(
            f"operator {text!r} is neither a JSON file nor a supported family "
            "shorthand (example1/example2/example3)")
    keys = _SHORTHAND_KEYS[family]
    params = {}
    for item in rest.split(",") if rest else ():
        key, eq, value = (part.strip() for part in item.partition("="))
        try:
            if not eq or key not in keys:
                raise ValueError(item)
            params[key] = float(value)
        except ValueError:
            raise ParameterError(f"operator item {item!r}: {family} takes " + (
                ", ".join(f"{k}=<number>" for k in keys) or "no parameters")) from None
    return EntrySequence(dim=2, family=family, params=params)


def _emit(payload, args, csv_kind=None, csv_rows=None) -> None:
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if fmt == "csv":
        if csv_rows is None:
            raise ParameterError("this subcommand has no CSV representation")
        if out is None:
            raise ParameterError("--format csv needs --out")
        _write_csv(Path(out), csv_kind, csv_rows)
        return
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _add_io(p) -> None:
    p.add_argument("--out", help="output file path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="json")


def _spectrum_estimate(args):
    seq = _parse_operator(args.operator)
    if args.source == "symbol":
        return tail_symbol_spectrum(seq, args.grid)
    return truncated_spectrum(assemble_truncation(seq, args.n))


def cmd_spectrum(args) -> int:
    est = _spectrum_estimate(args)
    rows = [(i, float(v)) for i, v in enumerate(est.samples)]
    _emit({"method": est.method, "size": est.size,
           "eigenvalues": [float(v) for v in est.samples]},
          args, "spectrum", rows)
    return 0


def cmd_gap(args) -> int:
    est = _spectrum_estimate(args)
    gaps = detect_gap(est, args.tol)
    edges = band_edges(est, args.tol)
    _emit({"gaps": [[g.r, g.s] for g in gaps],
           "band_edges": [float(e) for e in edges]}, args)
    return 0


def cmd_green(args) -> int:
    seq = _parse_operator(args.operator)
    op = assemble_truncation(seq, args.n)
    rows = range(args.rows[0], args.rows[1] + 1)
    cols = range(args.cols[0], args.cols[1] + 1)
    table = green_block(op, args.zeta, rows, cols)
    csv_rows = _green_rows(table)
    _emit({"zeta": [args.zeta.real, args.zeta.imag],
           "condition": table.condition,
           "ill_conditioned": table.ill_conditioned,
           "norms": {f"{m},{j}": v for m, j, _, _, v in csv_rows}},
          args, "green", csv_rows)
    return 0


def cmd_bound(args) -> int:
    gap = GapInterval(args.gap[0], args.gap[1])
    norms = None
    if args.delta == "auto" and args.variant != "simplified":
        if args.operator is None:
            raise ParameterError("--delta auto needs --operator for the norm profile")
        norms = _parse_operator(args.operator).norms(max(args.n - 1, 1))
    rate, delta = _resolve_rate(args.variant, gap, args.zeta, norms, args.delta,
                                args.epsilon, args.eta, args.eps_prime)
    _emit({"gamma": rate.gamma, "branch": rate.branch, "variant": rate.variant,
           "delta": delta, "epsilon": args.epsilon, "eta": args.eta}, args)
    return 0


def cmd_verify(args) -> int:
    report, code = run(args.config, out_dir=args.out)
    if args.out is None:
        sys.stdout.write(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return code


def cmd_example1(args) -> int:
    seq = EntrySequence(dim=2, family="example1", params={
        "lambda_rule": {"kind": "power", "scale": args.lam_scale,
                        "exponent": args.lam_exponent},
        "eps_rule": {"kind": "power", "scale": args.eps_scale,
                     "exponent": args.eps_exponent} if args.eps_scale else {"kind": "zero"},
    })
    op = assemble_truncation(seq, args.n)
    rows = range(1, args.n + 1)
    table = green_block(op, args.zeta, rows, [args.col])
    csv_rows = _green_rows(table)
    off_band = max((v for m, j, _, _, v in csv_rows if abs(m - j) >= 2), default=0.0)
    _emit({"zeta": [args.zeta.real, args.zeta.imag],
           "max_norm_beyond_band": off_band,
           "band_structure": off_band <= 1e-12,
           "norms": {str(m): v for m, _, _, _, v in csv_rows}},
          args, "green", csv_rows)
    return 0


def cmd_example2(args) -> int:
    cfg = ExperimentConfig(
        operator=EntrySequence(dim=2, family="example2", params={"x": args.x}),
        gap={"source": "symbol"}, zetas=(args.zeta,), delta=args.delta,
        epsilon=args.epsilon, eta=args.eta, eps_prime=args.eps_prime,
        variants=tuple(args.variant), n_blocks=args.n, cols=(args.col, args.col))
    report = verify_green_bound(cfg)
    _emit(report.to_json(), args)
    return report.exit_code


def cmd_example3(args) -> int:
    gap = example3_gap(args.c1, args.c2, args.x)
    out = {"gap": [gap.r, gap.s] if gap is not None else None, "zetas": []}
    for zeta in args.zeta:
        rho_exact = example3_rho(args.c1, args.c2, args.x, zeta)[0]
        data = monodromy_splitting(args.c1, args.c2, args.x, args.alpha,
                                   zeta, args.blocks)
        out["zetas"].append({
            "zeta": [zeta.real, zeta.imag],
            "rho_plus_measured": [data.rho_plus.real, data.rho_plus.imag],
            "rho_minus_measured": [data.rho_minus.real, data.rho_minus.imag],
            "rho_plus_exact": [rho_exact.real, rho_exact.imag],
            "epsilon": data.epsilon,
            "classification": classify_splitting(data),
            "in_gap": bool(gap.contains(zeta.real)) if gap is not None else False,
        })
    _emit(out, args)
    return 0


def cmd_edge_study(args) -> int:
    res = edge_scaling_study(args.x, args.eps, n_blocks=args.n, delta=args.delta)
    _emit({"x": res.x, "n_blocks": res.n_blocks,
           "slope_measured": res.slope_measured, "slope_gamma": res.slope_gamma,
           "rows": res.rows}, args, "edge", res.table)
    return 0


def _delta_arg(text: str):
    return text if text == "auto" else float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockjacobi",
        description="Decay bounds for Green blocks of block Jacobi operators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, zeta_default=None):
        p.add_argument("--operator", required=True,
                       help="operator JSON file or family shorthand, e.g. example2:x=3")
        p.add_argument("--n", type=int, default=200, help="number of blocks")
        if zeta_default is not None:
            p.add_argument("--zeta", type=_parse_complex, default=zeta_default,
                           help="spectral point as 're' or 're,im'")
        _add_io(p)

    p = sub.add_parser("spectrum", help="spectrum of a truncation or symbol")
    common(p)
    p.add_argument("--source", choices=("truncation", "symbol"), default="truncation")
    p.add_argument("--grid", type=int, default=SYMBOL_GRID, help="symbol theta-grid size")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("gap", help="detect spectral gaps and band edges")
    common(p)
    p.add_argument("--source", choices=("truncation", "symbol"), default="symbol")
    p.add_argument("--grid", type=int, default=SYMBOL_GRID)
    p.add_argument("--tol", type=float, default=GAP_TOL, help="minimal gap length")
    p.set_defaults(fn=cmd_gap)

    p = sub.add_parser("green", help="Green block norms at one zeta")
    common(p, zeta_default=complex(0.5))
    p.add_argument("--rows", type=_parse_window, default=(1, 50), help="row window a:b")
    p.add_argument("--cols", type=_parse_window, default=(1, 1), help="column window a:b")
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("bound", help="evaluate the decay rate gamma")
    p.add_argument("--gap", type=_parse_window_float, required=True, help="gap as r,s")
    p.add_argument("--zeta", type=_parse_complex, required=True)
    p.add_argument("--delta", type=_delta_arg, default=1.0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--eta", type=float, default=DEFAULT_ETA)
    p.add_argument("--eps-prime", type=float, default=DEFAULT_EPS_PRIME)
    p.add_argument("--variant", choices=("continuous", "discrete", "simplified"),
                   default="continuous")
    p.add_argument("--operator", help="needed for --delta auto")
    p.add_argument("--n", type=int, default=200)
    _add_io(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("verify", help="run a config of experiments")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="output directory for report.json and CSVs")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("example1", help="band structure of the nilpotent-coupling family")
    p.add_argument("--lam-scale", type=float, default=1.0)
    p.add_argument("--lam-exponent", type=float, default=1.0)
    p.add_argument("--eps-scale", type=float, default=0.0)
    p.add_argument("--eps-exponent", type=float, default=-1.0)
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--col", type=int, default=5)
    p.add_argument("--zeta", type=_parse_complex, default=complex(0.5, 0.5))
    _add_io(p)
    p.set_defaults(fn=cmd_example1)

    p = sub.add_parser("example2", help="Green bound check for the periodic family")
    p.add_argument("--x", type=float, default=3.0)
    p.add_argument("--zeta", type=_parse_complex, default=complex(0.5))
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--col", type=int, default=1)
    p.add_argument("--delta", type=_delta_arg, default="auto")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--eta", type=float, default=DEFAULT_ETA)
    p.add_argument("--eps-prime", type=float, default=DEFAULT_EPS_PRIME)
    p.add_argument("--variant", action="append", default=None,
                   choices=("continuous", "discrete", "simplified"))
    _add_io(p)
    p.set_defaults(fn=cmd_example2)

    p = sub.add_parser("example3", help="monodromy splitting of the growing 2-periodic family")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=1.0)
    p.add_argument("--zeta", type=_parse_complex, action="append", default=None)
    p.add_argument("--blocks", type=int, default=10000,
                   help="monodromy index n (period count)")
    _add_io(p)
    p.set_defaults(fn=cmd_example3)

    p = sub.add_parser("edge-study", help="decay-rate scaling near the gap edge")
    p.add_argument("--x", type=float, default=3.0)
    p.add_argument("--eps", type=_parse_float_list, default=[1e-4, 1e-3, 1e-2],
                   help="comma-separated distances to the edge")
    p.add_argument("--n", type=int, default=EDGE_N_BLOCKS)
    p.add_argument("--delta", type=_delta_arg, default="auto")
    _add_io(p)
    p.set_defaults(fn=cmd_edge_study)

    return parser


def _parse_window_float(text: str) -> tuple[float, float]:
    r, _, s = text.partition(",")
    return (float(r), float(s))


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "variant", 0) is None and args.command == "example2":
        args.variant = ["continuous", "simplified"]
    if getattr(args, "zeta", 0) is None and args.command == "example3":
        args.zeta = [complex(0.0), complex(0.5)]
    try:
        return args.fn(args)
    except Exception as exc:  # surface errors with a clean message and code 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
