"""Experiment orchestration: bound-vs-measurement comparisons and reports.

Each experiment evaluates one decay bound on a finite truncation:

* ``green``: Green block norms against the scalar/discrete/simplified
  envelope, with the empirical constant C_emp = max ratio;
* ``eigenvector``: gap eigenvector block norms against the envelope from
  block 1;
* ``commuting``: norms of (operator envelope) . G_mj for commuting-entry
  families;
* ``edge``: measured decay rate and theoretical rate as the spectral point
  approaches a band edge, with log-log slopes in the distance.

The bounds only assert existence of a constant, so pass/fail is defined on
N-stability of C_emp (within 5% between N and 2N), finiteness of every
ratio, and the measured decay rate being at least the theoretical envelope
rate; never on the magnitude of C_emp itself.  Everything is deterministic:
identical configs produce byte-identical CSV bodies.

The variants of a Green config differ only in rate and envelope, so they
share one Green solve per (zeta, section): the N and 2N sections are
assembled once per config, each zeta is solved once on each, and every
variant evaluates its own envelope against those tables.  ``meta.counters``
in the report counts that work (sections assembled, Green solves,
eigen-searches); like everything else in the report it is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .boundfns import (BoundParams, DecayRate, GapInterval, best_delta,
                       decay_rate, phi_delta_array, DEFAULT_EPSILON, DEFAULT_ETA)
from .envelopes import (cumulative_phi, cumulative_reciprocal,
                        commuting_check, discrete_envelope, operator_envelope,
                        phi_delta_spectral, scalar_envelope)
from .errors import (DomainError, ParameterError, PreconditionError,
                     SingularityError)
from .operators import (EntrySequence, assemble_truncation, example2_sequence,
                        load_operator)
from .spectral import (SINGULARITY_TOL, RESIDUAL_TOL, detect_gap,
                       eigenpairs_in_gap, green_block, period2_symbol_blocks,
                       symbol_spectrum, truncated_spectrum)

STABILITY_REL = 0.05     # C_emp(N) vs C_emp(2N) agreement required for a pass
DRIFT_TOL = 1e-6
NOISE_FLOOR_REL = 1e-13  # entries below this (relative) are LU solve noise
FIT_HEAD_OFFSET = 5      # slope fit starts at j0 + 5
FIT_TAIL_MARGIN = 10     # and ends at N - 10 (Dirichlet edge contamination)

VARIANTS = ("continuous", "discrete", "simplified", "commuting")
COUNTERS = ("sections_assembled", "green_solves", "eigen_searches")

# errors that become a failed experiment in the report instead of propagating
_REPORTED = (SingularityError, PreconditionError, DomainError, ParameterError)


@dataclass
class ExperimentConfig:
    """One harness configuration (shared by all its experiments)."""

    operator: EntrySequence | dict
    gap: dict = field(default_factory=lambda: {"source": "symbol"})
    zetas: tuple = ()
    delta: float | str = "auto"
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA
    eps_prime: float = 0.01
    variants: tuple = ("continuous",)
    n_blocks: int = 200
    rows: tuple | None = None
    cols: tuple = (1, 1)
    experiments: tuple = ("green",)
    gap_tol: float = 0.2
    symbol_grid: int = 2048
    edge: dict | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.n_blocks < 4:
            raise ParameterError(f"n_blocks must be >= 4, got {self.n_blocks}")
        if self.rows is None:
            self.rows = (1, self.n_blocks)
        self.rows = (int(self.rows[0]), int(self.rows[1]))
        self.cols = (int(self.cols[0]), int(self.cols[1]))
        for lo, hi in (self.rows, self.cols):
            if not (1 <= lo <= hi <= self.n_blocks):
                raise ParameterError(
                    f"window ({lo}, {hi}) must lie within [1, {self.n_blocks}]")
        self.zetas = tuple(complex(z) for z in self.zetas)
        self.variants = tuple(self.variants)
        for v in self.variants:
            if v not in VARIANTS:
                raise ParameterError(f"unknown variant {v!r}")
        self.experiments = tuple(self.experiments)
        if not isinstance(self.delta, str):
            self.delta = float(self.delta)
        elif self.delta != "auto":
            raise ParameterError(f"delta must be a number or 'auto', got {self.delta!r}")

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = dict(source)
        params = data.get("params", {})
        zetas = [complex(z[0], z[1]) if isinstance(z, (list, tuple)) else complex(z)
                 for z in data.get("zetas", [])]
        return cls(
            operator=data.get("operator", {}),
            gap=data.get("gap", {"source": "symbol"}),
            zetas=zetas,
            delta=params.get("delta", "auto"),
            epsilon=params.get("epsilon", DEFAULT_EPSILON),
            eta=params.get("eta", DEFAULT_ETA),
            eps_prime=params.get("eps_prime", 0.01),
            variants=data.get("variants", ["continuous"]),
            n_blocks=data.get("n_blocks", 200),
            rows=data.get("rows"),
            cols=data.get("cols", (1, 1)),
            experiments=data.get("experiments", ["green"]),
            gap_tol=data.get("gap_tol", 0.2),
            symbol_grid=data.get("symbol_grid", 2048),
            edge=data.get("edge"),
            out_dir=data.get("out_dir"),
        )


@dataclass
class ExperimentResult:
    name: str
    variant: str
    branch: str = ""
    gamma: float = math.nan
    delta: float | None = None
    c_emp: float = math.nan
    slope_measured: float = math.nan
    slope_theoretical: float = math.nan
    passed: bool | None = None
    n_blocks: int = 0
    zeta: complex | None = None
    details: dict = field(default_factory=dict)
    table: tuple | None = None   # CSV payload, not serialized into the report

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "variant": self.variant,
            "branch": self.branch,
            "gamma": _json_float(self.gamma),
            "delta": _json_float(self.delta) if self.delta is not None else None,
            "C_emp": _json_float(self.c_emp),
            "slope_measured": _json_float(self.slope_measured),
            "slope_theoretical": _json_float(self.slope_theoretical),
            "pass": self.passed,
            "N": self.n_blocks,
            "zeta": [self.zeta.real, self.zeta.imag] if self.zeta is not None else None,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    experiments: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 0 if all(r.passed is not False for r in self.experiments) else 1

    def to_json(self) -> dict:
        return {"experiments": [r.to_json() for r in self.experiments],
                "meta": self.meta}


def _json_float(x):
    x = float(x)
    return x if math.isfinite(x) else repr(x)


def _meta(cfg: ExperimentConfig) -> dict:
    return {
        "version": __version__,
        "n_blocks": cfg.n_blocks,
        "tolerances": {
            "singularity": SINGULARITY_TOL,
            "residual": RESIDUAL_TOL,
            "drift": DRIFT_TOL,
            "stability_rel": STABILITY_REL,
        },
        "counters": dict.fromkeys(COUNTERS, 0),
    }


def _fmt_zeta(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


# ---------------------------------------------------------------------------
# gap resolution

def as_sequence(operator) -> EntrySequence:
    return operator if isinstance(operator, EntrySequence) else load_operator(operator)


def _start(cfg: ExperimentConfig) -> tuple[EntrySequence, GapInterval, VerificationReport]:
    """The sequence, the resolved gap and an empty report carrying both."""
    seq = as_sequence(cfg.operator)
    gap = resolve_gap(cfg, seq)
    report = VerificationReport(meta=_meta(cfg))
    report.meta["gap"] = [gap.r, gap.s]
    if cfg.gap.get("source", "symbol") == "truncation":
        # resolve_gap diagonalized the assembled N section
        report.meta["counters"]["sections_assembled"] += 1
        report.meta["counters"]["eigen_searches"] += 1
    return seq, gap, report


def resolve_gap(cfg: ExperimentConfig, seq: EntrySequence) -> GapInterval:
    """Resolve the configured gap source to a concrete interval.

    ``explicit`` uses the given (r, s).  ``symbol`` inspects the blocks past
    the prefix: equal consecutive blocks give a period-1 symbol, a 2-periodic
    pattern is folded by block doubling.  ``truncation`` detects gaps in the
    N-section spectrum.  For the spectrum-based sources, the gap containing
    Re of the first configured zeta is selected.
    """
    source = cfg.gap.get("source", "symbol")
    if source == "explicit":
        return GapInterval(float(cfg.gap["r"]), float(cfg.gap["s"]))
    if source == "symbol":
        p0 = len(seq.prefix) + 1
        A, B = seq.blocks(p0, p0 + 4)
        if np.allclose(A[0], A[1], atol=1e-12) and np.allclose(B[0], B[1], atol=1e-12):
            est = symbol_spectrum(A[0], B[0], cfg.symbol_grid)
        elif np.allclose(A[:2], A[2:], atol=1e-12) and np.allclose(B[:2], B[2:], atol=1e-12):
            est = symbol_spectrum(*period2_symbol_blocks(A[0], A[1], B[0], B[1]),
                                  cfg.symbol_grid)
        else:
            raise ParameterError(
                "symbol gap source needs constant or 2-periodic blocks past the "
                "prefix; use an explicit gap for this operator")
    elif source == "truncation":
        est = truncated_spectrum(assemble_truncation(seq, cfg.n_blocks))
    else:
        raise ParameterError(f"unknown gap source {source!r}")
    gaps = detect_gap(est, cfg.gap.get("tol", cfg.gap_tol))
    if not cfg.zetas:
        if not gaps:
            raise ParameterError("no spectral gap detected")
        return gaps[0]
    target = cfg.zetas[0].real
    for g in gaps:
        if g.contains(target):
            return g
    raise ParameterError(
        f"no detected gap contains Re zeta = {target}; gaps: "
        + ", ".join(f"({g.r:.6g}, {g.s:.6g})" for g in gaps))


# ---------------------------------------------------------------------------
# shared helpers

def _resolve_rate(cfg: ExperimentConfig, variant: str, gap: GapInterval,
                  zeta: complex, norms: np.ndarray) -> tuple[DecayRate, float | None]:
    if variant == "simplified":
        return decay_rate("simplified", None, gap, zeta, cfg.eps_prime), None
    rate_variant = "continuous" if variant == "commuting" else variant
    if cfg.delta == "auto":
        template = BoundParams(1.0, cfg.epsilon, cfg.eta)
        delta, _ = best_delta(template, gap, zeta, norms, rate_variant)
    else:
        delta = float(cfg.delta)
    params = BoundParams(delta, cfg.epsilon, cfg.eta)
    return decay_rate(rate_variant, params, gap, zeta), delta


def _make_envelope(variant: str, rate: DecayRate, seq: EntrySequence,
                   delta: float | None, norms: np.ndarray, m, j) -> np.ndarray:
    """Scalar envelope on the windows (m, j) (broadcast arrays); norms cover them."""
    if variant == "simplified":
        return scalar_envelope(rate, cumulative_reciprocal(seq, len(norms), norms=norms), m, j)
    if variant in ("continuous", "commuting"):
        return scalar_envelope(rate, cumulative_phi(seq, delta, len(norms), norms=norms), m, j)
    if variant == "discrete":
        return discrete_envelope(rate, seq, m, j, norms=norms).value
    raise ParameterError(f"unknown variant {variant!r}")


def _fit_slope(ms, values, lo: int, hi: int) -> tuple[float, np.ndarray]:
    """Least-squares decay rate of log(values) over m in [lo, hi].

    Indices below the relative noise floor of the linear solver are excluded;
    returns (rate, mask of used indices).  Positive rate means decay.
    """
    ms = np.asarray(ms, dtype=float)
    values = np.asarray(values, dtype=float)
    peak = np.max(values) if values.size else 0.0
    mask = ((ms >= lo) & (ms <= hi) & np.isfinite(values)
            & (values > max(NOISE_FLOOR_REL * peak, 1e-300)))
    if np.count_nonzero(mask) < 3:
        return math.nan, mask
    coeff = np.polyfit(ms[mask], np.log(values[mask]), 1)
    return -float(coeff[0]), mask


def _noise_floor_m(ms: np.ndarray, mask: np.ndarray) -> int | None:
    """Largest m the slope fit kept (None when it kept none)."""
    kept = ms[mask]
    return int(kept[-1]) if kept.size else None


def _theoretical_slope(ms: np.ndarray, env: np.ndarray) -> float:
    """Least-squares slope of -log(env) against m."""
    if ms.size < 2:
        return math.nan
    return float(np.polyfit(ms.astype(float), -np.log(env), 1)[0])


# ---------------------------------------------------------------------------
# experiments

@dataclass(frozen=True, eq=False)
class _VariantBound:
    """One variant's rate and envelope on the config's (rows, cols) window."""

    variant: str
    rate: DecayRate
    delta: float | None
    env: np.ndarray                     # (rows, cols) scalar envelope
    op_env: np.ndarray | None = None    # (rows, cols, d, d), commuting variant
    n0: int | None = None               # discrete variant


def _window(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    return (np.arange(cfg.rows[0], cfg.rows[1] + 1),
            np.arange(cfg.cols[0], cfg.cols[1] + 1))


def _variant_bound(cfg: ExperimentConfig, seq: EntrySequence, gap: GapInterval,
                   zeta: complex, variant: str, norms: np.ndarray) -> _VariantBound:
    """The variant's own rate and envelope; norms = ||A_k|| up to the window's end."""
    rows, cols = _window(cfg)
    upto = len(norms)
    rate, delta = _resolve_rate(cfg, variant, gap, zeta, norms[:max(upto - 1, 1)])
    m, j = rows[:, None], cols[None, :]
    env = _make_envelope(variant, rate, seq, delta, norms, m, j)
    op_env = operator_envelope(rate, seq, delta, m, j) if variant == "commuting" else None
    n0 = (int(discrete_envelope(rate, seq, min(rows[0], cols[0]), upto, norms=norms).n0)
          if variant == "discrete" else None)
    return _VariantBound(variant, rate, delta, env, op_env, n0)


def _green_tables(seq: EntrySequence, sizes: tuple, sections: list, zeta: complex,
                  rows, cols, counters: dict):
    """Green tables of zeta on the sections of the given sizes, or the first error.

    ``sections`` holds the truncations assembled so far (in ``sizes`` order)
    and grows as the solves reach further sections.
    """
    tables = []
    try:
        for size in sizes:
            if len(sections) == len(tables):
                sections.append(assemble_truncation(seq, size))
                counters["sections_assembled"] += 1
            counters["green_solves"] += 1
            tables.append(green_block(sections[len(tables)], zeta, rows, cols))
    except _REPORTED as exc:
        return exc
    return tables


def _green_evaluate(cfg: ExperimentConfig, zeta: complex, bound: _VariantBound,
                    tables: list) -> ExperimentResult:
    """C_emp, stability, slope fit and CSV rows of one variant.

    ``tables`` holds the Green table of the N section and, when stability is
    checked, that of the 2N section.
    """
    n = cfg.n_blocks
    rows, cols = _window(cfg)
    j0 = int(cols[0])

    def c_emp_for(table) -> tuple[float, np.ndarray]:
        if bound.op_env is not None:
            ratios = np.linalg.norm(bound.op_env @ table.stack, 2, axis=(-2, -1))
        else:
            ratios = table.norm_stack / bound.env
        return float(np.max(ratios)), ratios

    table = tables[0]
    c1, ratios = c_emp_for(table)
    all_finite = bool(np.all(np.isfinite(ratios)))
    check_stability = len(tables) > 1
    if check_stability:
        c2 = c_emp_for(tables[1])[0]
        stable = (math.isfinite(c1) and math.isfinite(c2)
                  and abs(c1 - c2) < STABILITY_REL * c1)
    else:
        c2 = math.nan
        stable = math.isfinite(c1)
    slope, mask = _fit_slope(rows, table.norm_stack[:, 0], j0 + FIT_HEAD_OFFSET,
                             n - FIT_TAIL_MARGIN)
    slope_theo = _theoretical_slope(rows[mask], bound.env[mask, 0])
    passed = bool(all_finite and stable and math.isfinite(slope) and slope >= slope_theo)
    details = {
        "c_emp_2n": _json_float(c2),
        "sigma_min": _json_float(table.sigma_min),
        "condition": _json_float(table.condition),
        "ill_conditioned": table.ill_conditioned,
        "fit_points": int(np.count_nonzero(mask)),
        "noise_floor_m": _noise_floor_m(rows, mask),
        "all_ratios_finite": all_finite,
        "c_emp_stable": bool(stable),
        "stability_checked": check_stability,
    }
    if bound.n0 is not None:
        details["n0"] = bound.n0
    mm, jj = np.broadcast_arrays(rows[:, None], cols[None, :])
    csv_rows = tuple(zip(mm.ravel().tolist(), jj.ravel().tolist(),
                         repeat(zeta.real), repeat(zeta.imag),
                         table.norm_stack.ravel().tolist()))
    variant, rate = bound.variant, bound.rate
    return ExperimentResult(
        name=f"green:{variant}:zeta={_fmt_zeta(zeta)}", variant=variant,
        branch=rate.branch, gamma=rate.gamma, delta=bound.delta, c_emp=c1,
        slope_measured=slope, slope_theoretical=slope_theo, passed=passed,
        n_blocks=n, zeta=zeta, details=details, table=csv_rows)


def _green_experiments(cfg: ExperimentConfig, seq: EntrySequence, gap: GapInterval,
                       variants: tuple, counters: dict) -> list[ExperimentResult]:
    """Every (zeta, variant) Green experiment of cfg, in that order.

    Only the rate and the envelope depend on the variant, so the rest is
    done once and shared: ||A_k|| on the window, one assembly of the N and
    of the 2N section, and per zeta one Green solve on each.  A variant's own
    rate or envelope error is reported before the solve's; a failed solve
    gives every variant of its zeta the same error.
    """
    n = cfg.n_blocks
    rows, cols = _window(cfg)
    norms = None
    sections = []
    results = []
    for zeta in cfg.zetas:
        tables = None        # this zeta's Green tables, or the error of its solve
        for variant in variants:
            try:
                if norms is None:
                    norms = seq.norms(max(cfg.rows[1], cfg.cols[1]))
                bound = _variant_bound(cfg, seq, gap, zeta, variant, norms)
                if tables is None:
                    tables = _green_tables(seq, (n, 2 * n), sections, zeta,
                                           rows, cols, counters)
                if isinstance(tables, Exception):
                    raise tables
                result = _green_evaluate(cfg, zeta, bound, tables)
            except _REPORTED as exc:
                result = _error_result(f"green:{variant}:zeta={_fmt_zeta(zeta)}",
                                       variant, zeta, n, exc)
            results.append(result)
    return results


def _error_result(name: str, variant: str, zeta, n: int, exc: Exception) -> ExperimentResult:
    return ExperimentResult(name=name, variant=variant, passed=False, n_blocks=n,
                            zeta=zeta, details={"error": f"{type(exc).__name__}: {exc}"})


def verify_green_bound(cfg: ExperimentConfig) -> VerificationReport:
    """Green-block decay against the envelope for every (zeta, variant).

    Each zeta is solved once per section; every variant is evaluated
    against the same tables.
    """
    seq, gap, report = _start(cfg)
    report.experiments = _green_experiments(cfg, seq, gap, cfg.variants,
                                            report.meta["counters"])
    return report


def verify_eigenvector_bound(cfg: ExperimentConfig) -> VerificationReport:
    """Eigenvector decay for every N-stable gap eigenpair.

    Reported as skipped (pass = null), not failed, when the operator has no
    genuine gap eigenpair at this truncation size.
    """
    seq, gap, report = _start(cfg)
    n = cfg.n_blocks
    counters = report.meta["counters"]
    variant = next((v for v in cfg.variants if v != "commuting"), "continuous")
    pairs = eigenpairs_in_gap(assemble_truncation(seq, n), gap)
    counters["sections_assembled"] += 1
    counters["eigen_searches"] += 1
    if not pairs:
        report.experiments.append(ExperimentResult(
            name="eigenvector:none", variant=variant, passed=None, n_blocks=n,
            details={"skipped": f"no N-stable gap eigenpair in ({gap.r:.6g}, {gap.s:.6g})"}))
        return report
    pairs_2n = eigenpairs_in_gap(assemble_truncation(seq, 2 * n), gap)
    counters["sections_assembled"] += 1
    counters["eigen_searches"] += 1
    norms = seq.norms(n - 1)
    ms = np.arange(1, 2 * n + 1)

    def c_b_for(pair, env):
        un = pair.block_norms
        return float(np.max(un / env[:len(un)]))

    for pair in pairs:
        zeta0 = pair.zeta
        partner = next((p for p in pairs_2n if abs(p.zeta - zeta0) < DRIFT_TOL), None)
        # envelope on the windows (1, m) up to the 2N section when it has a
        # partner; the first N values serve the N section
        top = n if partner is None else 2 * n
        try:
            rate, delta = _resolve_rate(cfg, variant, gap, zeta0, norms)
            env = _make_envelope(variant, rate, seq, delta, seq.norms(top - 1), 1, ms[:top])
        except (DomainError, PreconditionError, ParameterError) as exc:
            report.experiments.append(_error_result(
                f"eigenvector:zeta={_fmt_zeta(complex(zeta0))}", variant,
                complex(zeta0), n, exc))
            continue
        c_b = c_b_for(pair, env)
        c_b_2n = c_b_for(partner, env) if partner is not None else math.nan
        stable = (math.isfinite(c_b) and math.isfinite(c_b_2n)
                  and abs(c_b - c_b_2n) < STABILITY_REL * c_b)
        un = pair.block_norms
        slope, mask = _fit_slope(ms[:n], un, 1 + FIT_HEAD_OFFSET, n - FIT_TAIL_MARGIN)
        slope_theo = _theoretical_slope(ms[:n][mask], env[:n][mask])
        passed = bool(math.isfinite(c_b) and stable
                      and math.isfinite(slope) and slope >= slope_theo)
        csv_rows = tuple(zip(ms[:n].tolist(), un.tolist()))
        report.experiments.append(ExperimentResult(
            name=f"eigenvector:zeta={_fmt_zeta(complex(zeta0))}", variant=variant,
            branch=rate.branch, gamma=rate.gamma, delta=delta, c_emp=c_b,
            slope_measured=slope, slope_theoretical=slope_theo, passed=passed,
            n_blocks=n, zeta=complex(zeta0),
            details={"c_b_2n": _json_float(c_b_2n), "residual": pair.residual,
                     "drift": pair.drift, "stable_partner_found": partner is not None,
                     "fit_points": int(np.count_nonzero(mask)),
                     "noise_floor_m": _noise_floor_m(ms[:n], mask)},
            table=csv_rows))
    return report


def verify_commuting_bound(cfg: ExperimentConfig) -> VerificationReport:
    """Operator-envelope bound for commuting-entry families.

    When the commuting hypothesis fails on the sampled range, results are
    tagged hypothesis-violated and no pass/fail is asserted.
    """
    seq, gap, report = _start(cfg)
    upto = max(cfg.rows[1], cfg.cols[1])
    ok, max_comm = commuting_check(seq, upto)
    report.meta["max_commutator"] = _json_float(max_comm)
    if not ok:
        for zeta in cfg.zetas:
            report.experiments.append(ExperimentResult(
                name=f"commuting:zeta={_fmt_zeta(zeta)}", variant="commuting",
                passed=None, n_blocks=cfg.n_blocks, zeta=zeta,
                details={"hypothesis-violated": _json_float(max_comm)}))
        return report
    report.experiments = _green_experiments(cfg, seq, gap, ("commuting",),
                                            report.meta["counters"])
    for result in report.experiments:
        if "error" not in result.details:
            result.details["direction_exponent_ratio"] = _direction_ratio(
                seq, result, cfg)
    return report


def _direction_ratio(seq: EntrySequence, result: ExperimentResult,
                     cfg: ExperimentConfig) -> float:
    """Largest operator-envelope exponent across directions over the scalar one.

    Both exponents are evaluated on the longest configured window; > 1 means
    the operator bound is sharper along some direction.
    """
    lo = min(cfg.rows[0], cfg.cols[0])
    hi = max(cfg.rows[1], cfg.cols[1])
    delta = result.delta if result.delta is not None else 1.0
    A = seq.blocks(lo, hi)[0]
    lam_max = float(np.linalg.eigvalsh(np.sum(phi_delta_spectral(delta, A), axis=0))[-1])
    scalar_sum = float(np.sum(phi_delta_array(delta, np.linalg.norm(A, 2, axis=(-2, -1)))))
    return lam_max / scalar_sum if scalar_sum > 0 else math.nan


@dataclass
class EdgeStudyResult:
    x: float
    n_blocks: int
    rows: list                 # dicts: eps, zeta, rate_measured, gamma, c_emp
    slope_measured: float      # log-log slope of measured rate vs eps
    slope_gamma: float         # log-log slope of gamma vs eps
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))


def edge_scaling_study(x: float, eps_list, n_blocks: int = 1200,
                       delta: float | str = "auto",
                       epsilon: float = DEFAULT_EPSILON,
                       eta: float = DEFAULT_ETA) -> EdgeStudyResult:
    """Measured vs theoretical decay rate near the gap edge zeta = 2 - |x| + eps.

    No pass threshold is placed on C_emp(eps); the object of interest is the
    pair of log-log slopes, both expected near 1/2 (the rate is governed by
    the square root of the distance to the edge).
    """
    if not abs(x) > 2.0:
        raise DomainError(f"edge study needs |x| > 2, got x = {x}")
    eps_arr = np.asarray(sorted(float(e) for e in eps_list), dtype=float)
    if eps_arr.size < 2:
        raise ParameterError("edge study needs at least two eps values")
    if np.any(eps_arr <= 0.0) or np.any(eps_arr > 1e-2):
        raise DomainError("eps values must lie in (0, 0.01]")
    seq = example2_sequence(x)
    gap = GapInterval(2.0 - abs(x), abs(x) - 2.0)
    cfg = ExperimentConfig(operator=seq,
                           gap={"source": "explicit", "r": gap.r, "s": gap.s},
                           zetas=(0.0,), delta=delta, epsilon=epsilon, eta=eta,
                           variants=("continuous",), n_blocks=n_blocks)
    window = _window(cfg)
    norms = seq.norms(n_blocks)
    section = assemble_truncation(seq, n_blocks)
    rows = []
    for eps in eps_arr:
        zeta = complex(gap.r + eps)
        bound = _variant_bound(cfg, seq, gap, zeta, "continuous", norms)
        res = _green_evaluate(cfg, zeta, bound, [green_block(section, zeta, *window)])
        rows.append({"eps": float(eps), "zeta": zeta.real,
                     "rate_measured": res.slope_measured, "gamma": res.gamma,
                     "c_emp": res.c_emp})
    log_eps = np.log(eps_arr)
    slope_meas = float(np.polyfit(log_eps, np.log([r["rate_measured"] for r in rows]), 1)[0])
    slope_gamma = float(np.polyfit(log_eps, np.log([r["gamma"] for r in rows]), 1)[0])
    counters = {"sections_assembled": 1, "green_solves": len(rows), "eigen_searches": 0}
    return EdgeStudyResult(x=x, n_blocks=n_blocks, rows=rows,
                           slope_measured=slope_meas, slope_gamma=slope_gamma,
                           counters=counters)


# ---------------------------------------------------------------------------
# top-level runner and file emission

_CSV_HEADERS = {
    "green": "m,j,re_zeta,im_zeta,norm_G",
    "eigenvector": "m,norm_u",
    "edge": "eps,rate_measured,gamma,c_emp",
    "spectrum": "index,eigenvalue",
}


def _write_csv(path: Path, kind: str, rows) -> None:
    lines = [f"# blockjacobi v{__version__}", _CSV_HEADERS[kind]]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def run(config, out_dir: str | None = None) -> tuple[VerificationReport, int]:
    """Execute all configured experiments; write report.json and CSVs.

    Returns (report, exit_code) with exit code 0 iff every non-skipped
    experiment passed.  Fully deterministic for a given config.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_json(config)
    report = VerificationReport(meta=_meta(cfg))
    edge_result = None
    for kind in cfg.experiments:
        if kind == "green":
            part = verify_green_bound(cfg)
        elif kind == "eigenvector":
            part = verify_eigenvector_bound(cfg)
        elif kind == "commuting":
            part = verify_commuting_bound(cfg)
        elif kind == "edge":
            if not cfg.edge:
                raise ParameterError("edge experiment needs an 'edge' config section")
            edge_result = edge_scaling_study(
                x=float(cfg.edge["x"]), eps_list=cfg.edge["eps_list"],
                n_blocks=int(cfg.edge.get("n_blocks", 1200)),
                delta=cfg.edge.get("delta", cfg.delta),
                epsilon=cfg.edge.get("epsilon", cfg.epsilon),
                eta=cfg.edge.get("eta", cfg.eta))
            ok = (abs(edge_result.slope_measured - 0.5) <= 0.05
                  and abs(edge_result.slope_gamma - 0.5) <= 0.05)
            part = VerificationReport(experiments=[ExperimentResult(
                name="edge-study", variant="continuous",
                slope_measured=edge_result.slope_measured,
                slope_theoretical=edge_result.slope_gamma,
                passed=bool(ok), n_blocks=edge_result.n_blocks,
                details={"rows": edge_result.rows})],
                meta={"counters": edge_result.counters})
        else:
            raise ParameterError(f"unknown experiment kind {kind!r}")
        report.experiments.extend(part.experiments)
        for key, value in part.meta.items():
            report.meta.setdefault(key, value)
        for key, value in part.meta["counters"].items():
            report.meta["counters"][key] += value
    target = out_dir or cfg.out_dir
    if target is not None:
        target = Path(target)
        target.mkdir(parents=True, exist_ok=True)
        (target / "report.json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        for i, res in enumerate(report.experiments):
            if res.table is None:
                continue
            kind = "eigenvector" if res.name.startswith("eigenvector") else "green"
            _write_csv(target / f"{kind}_{i:02d}.csv", kind, res.table)
        if edge_result is not None:
            _write_csv(target / "edge.csv", "edge",
                       [(r["eps"], r["rate_measured"], r["gamma"], r["c_emp"])
                        for r in edge_result.rows])
    return report, report.exit_code
