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

``run`` and the ``verify_*`` functions run one pipeline over the configured
kinds: the operator and gap are resolved once, and every kind appends its
results to one report.  The bounds only assert existence of a constant, so
one pass rule decides every green, commuting and eigenvector result: C_emp
is finite and agrees within 5% between N and 2N, and the measured decay
rate is at least the theoretical envelope rate; never a threshold on the
magnitude of C_emp itself.  Everything is deterministic: identical configs
produce byte-identical CSV bodies.

The variants of a Green config differ only in rate and envelope, so they
share one Green solve per (zeta, section): the N and 2N sections are
assembled once per config, all zetas of a section are solved by one stacked
band LU (``green_blocks``), and every variant evaluates its own envelope
against those tables.  ``meta.counters`` in the report counts that work
(sections assembled, Green solves per (zeta, section), eigen-searches and
band LU factorizations); like everything else in the report it is
deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
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
from .spectral import (SINGULARITY_TOL, RESIDUAL_TOL, GreenTable, detect_gap,
                       eigenpairs_in_gap, green_blocks, tail_symbol_spectrum,
                       truncated_spectrum)

STABILITY_REL = 0.05     # C_emp(N) vs C_emp(2N) agreement required for a pass
DRIFT_TOL = 1e-6
NOISE_FLOOR_REL = 1e-13  # entries below this (relative) are LU solve noise
FIT_HEAD_OFFSET = 5      # slope fit starts at j0 + 5
FIT_TAIL_MARGIN = 10     # and ends at N - 10 (Dirichlet edge contamination)
GAP_TOL = 0.2            # minimal gap length when gap.tol is not given

VARIANTS = ("continuous", "discrete", "simplified", "commuting")
COUNTERS = ("sections_assembled", "green_solves", "eigen_searches", "factorizations")
_PARAM_KEYS = ("delta", "epsilon", "eta", "eps_prime")   # JSON "params" fields
_EDGE_KEYS = ("x", "eps_list", "n_blocks")   # "edge" section: edge_scaling_study args
_EDGE_REQUIRED = ("x", "eps_list")            # its positional ones
#: keys of the "gap" section per source, and those a source cannot do without
_GAP_KEYS = {"symbol": ("source", "tol"), "truncation": ("source", "tol"),
             "explicit": ("source", "r", "s")}
_GAP_REQUIRED = {"explicit": ("r", "s")}

# errors that become a failed experiment in the report instead of propagating
_REPORTED = (SingularityError, PreconditionError, DomainError, ParameterError)


@dataclass
class ExperimentConfig:
    """One harness configuration (shared by all its experiments)."""

    operator: EntrySequence | dict = field(default_factory=dict)
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
        source = self.gap.get("source", "symbol")
        if source not in _GAP_KEYS:
            raise ParameterError(f"unknown gap source {source!r}; expected "
                                 f"{', '.join(_GAP_KEYS)}")
        _reject_unknown("gap", self.gap, _GAP_KEYS[source], _GAP_REQUIRED.get(source, ()))
        if self.edge is not None:
            _reject_unknown("edge", self.edge, _EDGE_KEYS, _EDGE_REQUIRED)

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        """Config from a JSON file or dict; unknown keys raise ParameterError."""
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        else:
            data = dict(source)
        params = data.pop("params", {})
        _reject_unknown("config", data,
                        [f.name for f in fields(cls) if f.name not in _PARAM_KEYS])
        _reject_unknown("params", params, _PARAM_KEYS)
        if "zetas" in data:
            data["zetas"] = [complex(z[0], z[1]) if isinstance(z, (list, tuple))
                             else complex(z) for z in data["zetas"]]
        return cls(**data, **params)


def _reject_unknown(where: str, data: dict, known, required=()) -> None:
    """ParameterError unless every key of ``data`` is ``known`` and every
    ``required`` key is present."""
    if unknown := sorted(set(data) - set(known)):
        raise ParameterError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                             f"expected {', '.join(known)}")
    if missing := [key for key in required if key not in data]:
        raise ParameterError(f"{where} section needs key(s) {', '.join(map(repr, missing))}")


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


def resolve_gap(cfg: ExperimentConfig, seq: EntrySequence) -> GapInterval:
    """Resolve the configured gap source to a concrete interval.

    ``explicit`` uses the given (r, s).  ``symbol`` uses the symbol of the
    blocks past the prefix (constant, or 2-periodic folded by block
    doubling; see ``tail_symbol_spectrum``).  ``truncation`` detects gaps in
    the N-section spectrum.  For the spectrum-based sources, the gap
    containing Re of the first configured zeta is selected.
    """
    source = cfg.gap.get("source", "symbol")
    if source == "explicit":
        return GapInterval(float(cfg.gap["r"]), float(cfg.gap["s"]))
    if source == "symbol":
        est = tail_symbol_spectrum(seq, cfg.symbol_grid)
    elif source == "truncation":
        est = truncated_spectrum(assemble_truncation(seq, cfg.n_blocks))
    else:
        raise ParameterError(f"unknown gap source {source!r}")
    gaps = detect_gap(est, cfg.gap.get("tol", GAP_TOL))
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
                   delta: float | None, upto: int, m, j
                   ) -> tuple[np.ndarray, int | None]:
    """Scalar envelope on the windows (m, j) (broadcast arrays) within
    blocks 1..upto + 1.

    Also returns the discrete variant's n0 (None for the others): the largest
    over the windows, which is the widest window's, as n0 is non-decreasing
    in a window's far end.
    """
    if variant == "simplified":
        profile = cumulative_reciprocal(seq, upto)
        return scalar_envelope(rate, profile, m, j), None
    if variant in ("continuous", "commuting"):
        profile = cumulative_phi(seq, delta, upto)
        return scalar_envelope(rate, profile, m, j), None
    if variant == "discrete":
        prod = discrete_envelope(rate, seq, m, j)
        return prod.value, int(np.max(prod.n0))
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


def _verdict(ms: np.ndarray, values: np.ndarray, env: np.ndarray, c_n: float,
             c_2n: float | None, lo: int, hi: int) -> tuple:
    """The pass rule of every green, commuting and eigenvector result.

    Passed: C_emp c_n is finite and within STABILITY_REL of the 2N value
    c_2n (not checked when None), and the decay rate of ``values`` over ms
    in [lo, hi] is finite and at least the slope of ``env`` on the fitted
    blocks.  Returns (stable, slope, slope_theo, fit mask, passed).
    """
    if c_2n is None:
        stable = math.isfinite(c_n)
    else:
        stable = (math.isfinite(c_n) and math.isfinite(c_2n)
                  and abs(c_n - c_2n) < STABILITY_REL * c_n)
    slope, mask = _fit_slope(ms, values, lo, hi)
    slope_theo = _theoretical_slope(ms[mask], env[mask])
    passed = bool(math.isfinite(c_n) and stable
                  and math.isfinite(slope) and slope >= slope_theo)
    return bool(stable), slope, slope_theo, mask, passed


# ---------------------------------------------------------------------------
# experiment kinds: each is (cfg, seq, gap, meta) -> list of results

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
                   zeta: complex, variant: str) -> _VariantBound:
    """The variant's own rate and envelope on the config's window."""
    rows, cols = _window(cfg)
    upto = max(cfg.rows[1], cfg.cols[1])
    rate, delta = _resolve_rate(cfg, variant, gap, zeta, seq.norms(max(upto - 1, 1)))
    m, j = rows[:, None], cols[None, :]
    env, n0 = _make_envelope(variant, rate, seq, delta, upto, m, j)
    op_env = operator_envelope(rate, seq, delta, m, j) if variant == "commuting" else None
    return _VariantBound(variant, rate, delta, env, op_env, n0)


def _green_evaluate(cfg: ExperimentConfig, zeta: complex, bound: _VariantBound,
                    table, table_2n) -> ExperimentResult:
    """C_emp, verdict and CSV rows of one variant against the N section's
    Green table, with stability against the 2N table unless that is None."""
    n = cfg.n_blocks
    rows, cols = _window(cfg)

    def c_emp_for(t) -> float:
        if bound.op_env is not None:
            ratios = np.linalg.norm(bound.op_env @ t.stack, 2, axis=(-2, -1))
        else:
            ratios = t.norm_stack / bound.env
        return float(np.max(ratios))     # inf or nan if any ratio is

    c1 = c_emp_for(table)
    c2 = None if table_2n is None else c_emp_for(table_2n)
    stable, slope, slope_theo, mask, passed = _verdict(
        rows, table.norm_stack[:, 0], bound.env[:, 0], c1, c2,
        int(cols[0]) + FIT_HEAD_OFFSET, n - FIT_TAIL_MARGIN)
    details = {
        "c_emp_2n": _json_float(math.nan if c2 is None else c2),
        "sigma_min": _json_float(table.sigma_min),
        "condition": _json_float(table.condition),
        "ill_conditioned": table.ill_conditioned,
        "fit_points": int(np.count_nonzero(mask)),
        "noise_floor_m": _noise_floor_m(rows, mask),
        "all_ratios_finite": math.isfinite(c1),
        "c_emp_stable": stable,
        "stability_checked": table_2n is not None,
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
                       meta: dict, variants: tuple | None = None) -> list[ExperimentResult]:
    """Every (zeta, variant) Green experiment of cfg, in that order.

    Only the rate and the envelope depend on the variant, so the rest is
    done once and shared: ||A_k|| on the window, one assembly of the N and
    of the 2N section, and one stacked Green solve on each (``green_blocks``):
    the N section for every zeta with at least one variant bound, the 2N
    section for every zeta whose N solve succeeded.  Only C_emp is read from
    the 2N tables, so that solve runs with ``health=False``: the sigma_min
    estimate runs only for its zetas within 1e-8 of the real axis, where the
    singularity verdict needs it.  A variant's own rate or
    envelope error is reported before the solve's; a failed solve gives every
    variant of its zeta the same error.  ``variants`` defaults to the
    config's.
    """
    n = cfg.n_blocks
    rows, cols = _window(cfg)
    counters = meta["counters"]
    variants = variants or cfg.variants
    bounds = {}                 # (zeta index, variant) -> _VariantBound or its error
    for i, zeta in enumerate(cfg.zetas):
        for variant in variants:
            try:
                bounds[i, variant] = _variant_bound(cfg, seq, gap, zeta, variant)
            except _REPORTED as exc:
                bounds[i, variant] = exc

    def solve(size: int, todo: list, health: bool) -> dict:
        """zeta index -> Green table on the size-block section, or its error."""
        if not todo:
            return {}
        try:
            section = assemble_truncation(seq, size)
        except _REPORTED as exc:
            return dict.fromkeys(todo, exc)
        counters["sections_assembled"] += 1
        counters["green_solves"] += len(todo)
        tables = green_blocks(section, [cfg.zetas[i] for i in todo], rows, cols, health)
        counters["factorizations"] += tables.factorizations
        return dict(zip(todo, tables))

    tables_n = solve(n, [i for i in range(len(cfg.zetas))
                         if any(isinstance(bounds[i, v], _VariantBound) for v in variants)],
                     health=True)
    tables_2n = solve(2 * n, [i for i, t in tables_n.items() if isinstance(t, GreenTable)],
                      health=False)
    results = []
    for i, zeta in enumerate(cfg.zetas):
        for variant in variants:
            outcome = [bounds[i, variant], tables_n.get(i), tables_2n.get(i)]
            error = next((x for x in outcome if isinstance(x, Exception)), None)
            if error is None:
                results.append(_green_evaluate(cfg, zeta, *outcome))
            else:
                results.append(_error_result(f"green:{variant}:zeta={_fmt_zeta(zeta)}",
                                             variant, zeta, n, error))
    return results


def _error_result(name: str, variant: str, zeta, n: int, exc: Exception) -> ExperimentResult:
    return ExperimentResult(name=name, variant=variant, passed=False, n_blocks=n,
                            zeta=zeta, details={"error": f"{type(exc).__name__}: {exc}"})


def _eigenvector_experiments(cfg: ExperimentConfig, seq: EntrySequence,
                             gap: GapInterval, meta: dict) -> list[ExperimentResult]:
    n = cfg.n_blocks
    counters = meta["counters"]
    variant = next((v for v in cfg.variants if v != "commuting"), "continuous")
    pairs = eigenpairs_in_gap(assemble_truncation(seq, n), gap)
    counters["sections_assembled"] += 1
    counters["eigen_searches"] += 1
    counters["factorizations"] += pairs.factorizations
    if not pairs:
        return [ExperimentResult(
            name="eigenvector:none", variant=variant, passed=None, n_blocks=n,
            details={"skipped": f"no N-stable gap eigenpair in ({gap.r:.6g}, {gap.s:.6g})"})]
    pairs_2n = eigenpairs_in_gap(assemble_truncation(seq, 2 * n), gap)
    counters["sections_assembled"] += 1
    counters["eigen_searches"] += 1
    counters["factorizations"] += pairs_2n.factorizations
    ms = np.arange(1, 2 * n + 1)
    results = []
    for pair in pairs:
        zeta0 = complex(pair.zeta)
        name = f"eigenvector:zeta={_fmt_zeta(zeta0)}"
        partner = next((p for p in pairs_2n if abs(p.zeta - pair.zeta) < DRIFT_TOL), None)
        # envelope on the windows (1, m) up to the 2N section when it has a
        # partner; the first N values serve the N section
        top = n if partner is None else 2 * n
        try:
            rate, delta = _resolve_rate(cfg, variant, gap, pair.zeta, seq.norms(n - 1))
            env, _ = _make_envelope(variant, rate, seq, delta, top - 1, 1, ms[:top])
        except (DomainError, PreconditionError, ParameterError) as exc:
            results.append(_error_result(name, variant, zeta0, n, exc))
            continue
        un = pair.block_norms
        c_b = float(np.max(un / env[:n]))
        c_b_2n = math.nan if partner is None else float(np.max(partner.block_norms / env))
        _, slope, slope_theo, mask, passed = _verdict(
            ms[:n], un, env[:n], c_b, c_b_2n, 1 + FIT_HEAD_OFFSET, n - FIT_TAIL_MARGIN)
        results.append(ExperimentResult(
            name=name, variant=variant, branch=rate.branch, gamma=rate.gamma,
            delta=delta, c_emp=c_b, slope_measured=slope,
            slope_theoretical=slope_theo, passed=passed, n_blocks=n, zeta=zeta0,
            details={"c_b_2n": _json_float(c_b_2n), "residual": pair.residual,
                     "drift": pair.drift, "stable_partner_found": partner is not None,
                     "fit_points": int(np.count_nonzero(mask)),
                     "noise_floor_m": _noise_floor_m(ms[:n], mask)},
            table=tuple(zip(ms[:n].tolist(), un.tolist()))))
    return results


def _commuting_experiments(cfg: ExperimentConfig, seq: EntrySequence,
                           gap: GapInterval, meta: dict) -> list[ExperimentResult]:
    ok, max_comm = commuting_check(seq, max(cfg.rows[1], cfg.cols[1]))
    meta["max_commutator"] = _json_float(max_comm)
    if not ok:
        return [ExperimentResult(
            name=f"commuting:zeta={_fmt_zeta(zeta)}", variant="commuting",
            passed=None, n_blocks=cfg.n_blocks, zeta=zeta,
            details={"hypothesis-violated": _json_float(max_comm)})
            for zeta in cfg.zetas]
    results = _green_experiments(cfg, seq, gap, meta, ("commuting",))
    for result in results:
        if "error" not in result.details:
            result.details["direction_exponent_ratio"] = _direction_ratio(
                seq, result, cfg)
    return results


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
    norms = seq.norms(max(hi - 1, 1))[lo - 1:hi - 1]      # empty when lo = hi
    scalar_sum = float(np.sum(phi_delta_array(delta, norms)))
    return lam_max / scalar_sum if scalar_sum > 0 else math.nan


@dataclass
class EdgeStudyResult:
    x: float
    n_blocks: int
    rows: list                 # dicts: eps, zeta, rate_measured, gamma, c_emp
    slope_measured: float      # log-log slope of measured rate vs eps
    slope_gamma: float         # log-log slope of gamma vs eps
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))

    @property
    def table(self) -> tuple:
        """CSV rows (eps, rate_measured, gamma, c_emp)."""
        return tuple((r["eps"], r["rate_measured"], r["gamma"], r["c_emp"]) for r in self.rows)


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
    zetas = [complex(gap.r + eps) for eps in eps_arr]
    bounds = [_variant_bound(cfg, seq, gap, zeta, "continuous") for zeta in zetas]
    tables = green_blocks(assemble_truncation(seq, n_blocks), zetas, *_window(cfg))
    rows = []
    for eps, zeta, bound, table in zip(eps_arr, zetas, bounds, tables):
        if isinstance(table, SingularityError):
            raise table
        res = _green_evaluate(cfg, zeta, bound, table, None)
        rows.append({"eps": float(eps), "zeta": zeta.real,
                     "rate_measured": res.slope_measured, "gamma": res.gamma,
                     "c_emp": res.c_emp})
    log_eps = np.log(eps_arr)
    slope_meas = float(np.polyfit(log_eps, np.log([r["rate_measured"] for r in rows]), 1)[0])
    slope_gamma = float(np.polyfit(log_eps, np.log([r["gamma"] for r in rows]), 1)[0])
    counters = {"sections_assembled": 1, "green_solves": len(rows), "eigen_searches": 0,
                "factorizations": tables.factorizations}
    return EdgeStudyResult(x=x, n_blocks=n_blocks, rows=rows,
                           slope_measured=slope_meas, slope_gamma=slope_gamma,
                           counters=counters)


def _edge_experiments(cfg: ExperimentConfig, seq, gap, meta: dict) -> list[ExperimentResult]:
    """The edge study of cfg.edge with cfg's params; passes when both slopes are 1/2 +- 0.05."""
    if not cfg.edge:
        raise ParameterError("edge experiment needs an 'edge' config section")
    study = edge_scaling_study(**cfg.edge, delta=cfg.delta, epsilon=cfg.epsilon,
                               eta=cfg.eta)
    for key, value in study.counters.items():
        meta["counters"][key] += value
    ok = (abs(study.slope_measured - 0.5) <= 0.05
          and abs(study.slope_gamma - 0.5) <= 0.05)
    return [ExperimentResult(
        name="edge-study", variant="continuous",
        slope_measured=study.slope_measured, slope_theoretical=study.slope_gamma,
        passed=bool(ok), n_blocks=study.n_blocks, details={"rows": study.rows},
        table=study.table)]


# ---------------------------------------------------------------------------
# the pipeline, top-level runner and file emission

_KINDS = {"green": _green_experiments, "eigenvector": _eigenvector_experiments,
          "commuting": _commuting_experiments, "edge": _edge_experiments}


def _verify(cfg: ExperimentConfig, kinds) -> VerificationReport:
    """One report holding the results of each experiment kind, in order.

    The sequence and the gap are resolved once, when the first kind other
    than ``edge`` needs them, so an edge-only config needs no operator.
    """
    report = VerificationReport(meta=_meta(cfg))
    seq = gap = None
    for kind in kinds:
        if kind not in _KINDS:
            raise ParameterError(f"unknown experiment kind {kind!r}")
        if gap is None and kind != "edge":
            seq = as_sequence(cfg.operator)
            gap = resolve_gap(cfg, seq)
            report.meta["gap"] = [gap.r, gap.s]
            if cfg.gap.get("source", "symbol") == "truncation":
                # resolve_gap took every eigenvalue of the assembled N
                # section from its band (truncated_spectrum)
                report.meta["counters"]["sections_assembled"] += 1
                report.meta["counters"]["eigen_searches"] += 1
        report.experiments += _KINDS[kind](cfg, seq, gap, report.meta)
    return report


def verify_green_bound(cfg: ExperimentConfig) -> VerificationReport:
    """Green-block decay against the envelope for every (zeta, variant).

    Each zeta is solved once per section; every variant is evaluated
    against the same tables.
    """
    return _verify(cfg, ("green",))


def verify_eigenvector_bound(cfg: ExperimentConfig) -> VerificationReport:
    """Eigenvector decay for every N-stable gap eigenpair.

    Reported as skipped (pass = null), not failed, when the operator has no
    genuine gap eigenpair at this truncation size.
    """
    return _verify(cfg, ("eigenvector",))


def verify_commuting_bound(cfg: ExperimentConfig) -> VerificationReport:
    """Operator-envelope bound for commuting-entry families.

    When the commuting hypothesis fails on the sampled range, results are
    tagged hypothesis-violated and no pass/fail is asserted.
    """
    return _verify(cfg, ("commuting",))


_CSV_HEADERS = {
    "green": "m,j,re_zeta,im_zeta,norm_G",
    "eigenvector": "m,norm_u",
    "edge": "eps,rate_measured,gamma,c_emp",
    "spectrum": "index,eigenvalue",
}


#: one row format per CSV kind: indices as integers, values with 17
#: significant digits (enough to round-trip every float)
_CSV_ROW_FORMATS = {
    "green": "{:d},{:d},{:.17g},{:.17g},{:.17g}",
    "eigenvector": "{:d},{:.17g}",
    "edge": "{:.17g},{:.17g},{:.17g},{:.17g}",
    "spectrum": "{:d},{:.17g}",
}


def _write_csv(path: Path, kind: str, rows) -> None:
    fmt = _CSV_ROW_FORMATS[kind]
    lines = [f"# blockjacobi v{__version__}", _CSV_HEADERS[kind]]
    lines.extend(fmt.format(*row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(config, out_dir: str | None = None) -> tuple[VerificationReport, int]:
    """Execute all configured experiments; write report.json and CSVs.

    Returns (report, exit_code) with exit code 0 iff every non-skipped
    experiment passed.  Fully deterministic for a given config.
    """
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_json(config)
    report = _verify(cfg, cfg.experiments)
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
            if res.name == "edge-study":
                _write_csv(target / "edge.csv", "edge", res.table)
            else:
                kind = "eigenvector" if res.name.startswith("eigenvector") else "green"
                _write_csv(target / f"{kind}_{i:02d}.csv", kind, res.table)
    return report, report.exit_code
