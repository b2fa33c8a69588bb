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
against those tables.  Each zeta's tables are evaluated once for all its
variants: one measured-slope fit and one CSV payload, which ``run`` formats
once and writes to every variant's file; a variant adds only its C_emp (N
and 2N), its theoretical slope on the shared fit's blocks and its verdict.
Slopes are closed-form degree-1 least-squares fits from centred sums.
``meta.counters`` in the report counts that work (sections assembled, Green
solves per (zeta, section), eigen-searches and band LU factorizations); like
everything else in the report it is deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .boundfns import (BoundParams, DecayRate, GapInterval, best_delta,
                       decay_rate, phi_delta_array, DEFAULT_EPSILON, DEFAULT_ETA,
                       DEFAULT_EPS_PRIME)
from .envelopes import (cumulative_phi, cumulative_reciprocal,
                        commuting_check, discrete_envelope, operator_envelope,
                        phi_delta_spectral, scalar_envelope)
from .errors import (DomainError, ParameterError, PreconditionError,
                     SingularityError)
from .operators import (EntrySequence, _integer, _read_json, _real_scalar,
                        _reject_unknown, _scalar_from_json, assemble_truncation,
                        example2_sequence, load_operator)
from .spectral import (SINGULARITY_TOL, RESIDUAL_TOL, SYMBOL_GRID, GreenTable,
                       _block_norms, detect_gap, eigenpairs_in_gap, green_blocks,
                       tail_symbol_spectrum, truncated_spectrum)

STABILITY_REL = 0.05     # C_emp(N) vs C_emp(2N) agreement required for a pass
DRIFT_TOL = 1e-6
NOISE_FLOOR_REL = 1e-13  # entries below this (relative) are LU solve noise
FIT_HEAD_OFFSET = 5      # slope fit starts at j0 + 5
FIT_TAIL_MARGIN = 10     # and ends at N - 10 (Dirichlet edge contamination)
GAP_TOL = 0.2            # minimal gap length when gap.tol is not given
EDGE_N_BLOCKS = 1200     # section size of the edge study when none is given

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
    eps_prime: float = DEFAULT_EPS_PRIME
    variants: tuple = ("continuous",)
    n_blocks: int = 200
    rows: tuple | None = None
    cols: tuple = (1, 1)
    experiments: tuple = ("green",)
    symbol_grid: int = SYMBOL_GRID
    edge: dict | None = None
    out_dir: str | None = None

    def __post_init__(self):
        self.n_blocks = _integer(self.n_blocks, "n_blocks")
        if self.n_blocks < 4:
            raise ParameterError(f"n_blocks must be >= 4, got {self.n_blocks}")
        self.symbol_grid = _integer(self.symbol_grid, "symbol_grid")
        if self.rows is None:
            self.rows = (1, self.n_blocks)
        self.rows, self.cols = _block_pair(self.rows, "rows"), _block_pair(self.cols, "cols")
        for lo, hi in (self.rows, self.cols):
            if not (1 <= lo <= hi <= self.n_blocks):
                raise ParameterError(
                    f"window ({lo}, {hi}) must lie within [1, {self.n_blocks}]")
        if not isinstance(self.operator, (EntrySequence, dict)):
            raise ParameterError(f"operator must be an object or an EntrySequence, "
                                 f"got {self.operator!r}")
        self.zetas = tuple(_scalar_from_json(z) for z in _listed(self.zetas, "zetas"))
        for z in self.zetas:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ParameterError(f"zetas must be finite, got {z}")
        self.variants = _listed(self.variants, "variants")
        for v in self.variants:
            if v not in VARIANTS:
                raise ParameterError(f"unknown variant {v!r}")
        self.experiments = _listed(self.experiments, "experiments")
        for name in ("epsilon", "eta", "eps_prime"):
            setattr(self, name, _real_scalar(getattr(self, name), name))
        if not isinstance(self.delta, str):
            self.delta = _real_scalar(self.delta, "delta")
        elif self.delta != "auto":
            raise ParameterError(f"delta must be a number or 'auto', got {self.delta!r}")
        self.gap = _gap_section(self.gap)
        if self.edge is not None:
            self.edge = _edge_section(self.edge)
        elif "edge" in self.experiments:
            raise ParameterError("edge experiment needs an 'edge' config section")
        for kind in self.experiments:
            if kind not in _KINDS:
                raise ParameterError(f"unknown experiment kind {kind!r}")

    @classmethod
    def from_json(cls, source) -> "ExperimentConfig":
        """Config from a JSON file or dict; unknown keys raise ParameterError."""
        data = _read_json(source)
        params = data.pop("params", {})
        _reject_unknown("config", data,
                        [f.name for f in fields(cls) if f.name not in _PARAM_KEYS])
        _reject_unknown("params", params, _PARAM_KEYS)
        return cls(**data, **params)


def _listed(value, what: str) -> tuple:
    """``value`` as a tuple when it is a list (or a tuple or an array)."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ParameterError(f"{what} must be a list, got {value!r}")
    return tuple(value)


def _section(value, what: str) -> dict:
    """A copy of the config section ``value`` when it is an object."""
    if not isinstance(value, dict):
        raise ParameterError(f"{what} must be an object, got {value!r}")
    return dict(value)


def _gap_section(gap) -> dict:
    """The "gap" section with its numbers as floats: a positive tol, and
    reals r < s for an explicit gap."""
    gap = _section(gap, "gap")
    source = gap.get("source", "symbol")
    if source not in _GAP_KEYS:
        raise ParameterError(f"unknown gap source {source!r}; expected "
                             f"{', '.join(_GAP_KEYS)}")
    _reject_unknown("gap", gap, _GAP_KEYS[source], _GAP_REQUIRED.get(source, ()))
    if "tol" in gap:
        gap["tol"] = _real_scalar(gap["tol"], "gap.tol")
        if not 0.0 < gap["tol"] < math.inf:
            raise ParameterError(f"gap.tol must be a positive real, got {gap['tol']}")
    if source == "explicit":
        r, s = _real_scalar(gap["r"], "gap.r"), _real_scalar(gap["s"], "gap.s")
        if not -math.inf < r < s < math.inf:
            raise ParameterError(f"gap.r and gap.s must be reals with r < s, got ({r}, {s})")
        gap.update(r=r, s=s)
    return gap


def _edge_section(edge) -> dict:
    """The "edge" section with a real x, at least two distinct real eps
    values and an integer n_blocks."""
    edge = _section(edge, "edge")
    _reject_unknown("edge", edge, _EDGE_KEYS, _EDGE_REQUIRED)
    edge["x"] = _real_scalar(edge["x"], "edge.x")
    edge["eps_list"] = _eps_values(edge["eps_list"], "edge.eps_list")
    if "n_blocks" in edge:
        edge["n_blocks"] = _integer(edge["n_blocks"], "edge.n_blocks")
    return edge


def _eps_values(eps_list, what: str) -> list[float]:
    """The eps values of an edge study: a list of reals, at least two distinct."""
    values = [_real_scalar(e, what) for e in _listed(eps_list, what)]
    if len(set(values)) < 2:
        raise ParameterError(f"{what} needs at least two distinct values, got {values}")
    return values


def _block_pair(value, what: str) -> tuple[int, int]:
    """A (lo, hi) block window given as a pair of integers."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParameterError(f"{what} must be a pair (lo, hi), got {value!r}")
    return _integer(value[0], what), _integer(value[1], what)


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
        return GapInterval(cfg.gap["r"], cfg.gap["s"])
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

def _resolve_rate(variant: str, gap: GapInterval, zeta: complex, norms,
                  delta: float | str, epsilon: float, eta: float,
                  eps_prime: float) -> tuple[DecayRate, float | None]:
    """The variant's rate and the delta it used (None for the simplified
    rate, which takes none).  Only ``delta="auto"`` reads ``norms``: it picks
    delta by ``best_delta`` on those ||A_k|| samples."""
    if variant == "simplified":
        return decay_rate("simplified", None, gap, zeta, eps_prime), None
    rate_variant = "continuous" if variant == "commuting" else variant
    if delta == "auto":
        delta, _ = best_delta(BoundParams(1.0, epsilon, eta), gap, zeta, norms,
                              rate_variant)
    else:
        delta = float(delta)
    return decay_rate(rate_variant, BoundParams(delta, epsilon, eta), gap, zeta), delta


def _count(meta: dict, **work: int) -> None:
    """Add ``work`` to the report's ``meta.counters``."""
    for key, value in work.items():
        meta["counters"][key] += value


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


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the degree-1 least-squares fit of y against x (at least two
    distinct x), from centred sums: the value of ``np.polyfit(x, y, 1)[0]``
    to rounding, and nan, as there, when y holds an inf or a nan."""
    if not np.isfinite(y).all():
        return math.nan
    x = x - x.sum() / x.size
    return float(x @ (y - y.sum() / y.size) / (x @ x))


@dataclass(frozen=True, eq=False)
class _Fit:
    """The measured decay rate of one table and the blocks it was fitted on."""

    ms: np.ndarray
    slope: float
    mask: np.ndarray

    @property
    def details(self) -> dict:
        """``fit_points`` and ``noise_floor_m``: the number of blocks kept
        and the largest m kept (None when it kept none)."""
        kept = self.ms[self.mask]
        return {"fit_points": int(kept.size),
                "noise_floor_m": int(kept[-1]) if kept.size else None}


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
    return -_slope(ms[mask], np.log(values[mask])), mask


def _theoretical_slope(ms: np.ndarray, env: np.ndarray) -> float:
    """Least-squares slope of -log(env) against m."""
    if ms.size < 2:
        return math.nan
    return _slope(ms.astype(float), -np.log(env))


def _ratios(norms: np.ndarray, env: np.ndarray) -> np.ndarray:
    """norms / env, and 0 where a norm is 0: far blocks whose norm and envelope
    both underflow to 0 bound nothing.  A norm over an envelope of 0 is inf."""
    with np.errstate(divide="ignore"):
        return np.divide(norms, env, out=np.zeros(np.shape(norms)), where=norms > 0)


def _verdict(fit: _Fit, env: np.ndarray, c_n: float, c_2n: float | None) -> tuple:
    """The pass rule of every green, commuting and eigenvector result.

    Passed: C_emp c_n is finite and within STABILITY_REL of the 2N value
    c_2n (not checked when None), and the measured decay rate ``fit.slope``
    is finite and at least the slope of ``env`` (over the fit's ms) on the
    fitted blocks.  The fit is the table's, so the variants of one table
    share it.  Returns (stable, slope, slope_theo, fit mask, passed).
    """
    if c_2n is None:
        stable = math.isfinite(c_n)
    else:
        stable = (math.isfinite(c_n) and math.isfinite(c_2n)
                  and abs(c_n - c_2n) < STABILITY_REL * c_n)
    slope, mask = fit.slope, fit.mask
    slope_theo = _theoretical_slope(fit.ms[mask], env[mask])
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
    rate, delta = _resolve_rate(variant, gap, zeta, seq.norms(max(upto - 1, 1)),
                                cfg.delta, cfg.epsilon, cfg.eta, cfg.eps_prime)
    m, j = rows[:, None], cols[None, :]
    env, n0 = _make_envelope(variant, rate, seq, delta, upto, m, j)
    op_env = operator_envelope(rate, seq, delta, m, j) if variant == "commuting" else None
    return _VariantBound(variant, rate, delta, env, op_env, n0)


@dataclass(frozen=True, eq=False)
class _ZetaTables:
    """The Green tables of one zeta, and what every variant reads from them
    alike: the measured-slope fit of the N table's first column and the CSV
    payload, both made once."""

    zeta: complex
    table: GreenTable
    table_2n: GreenTable | None
    fit: _Fit
    csv: tuple                          # rows (m, j, Re zeta, Im zeta, norm)


def _zeta_tables(cfg: ExperimentConfig, zeta: complex, table: GreenTable,
                 table_2n: GreenTable | None) -> _ZetaTables:
    """The fit over m in [j0 + 5, N - 10] and the CSV rows of one zeta's tables."""
    rows, cols = _window(cfg)
    fit = _Fit(rows, *_fit_slope(rows, table.norm_stack[:, 0],
                                 int(cols[0]) + FIT_HEAD_OFFSET,
                                 cfg.n_blocks - FIT_TAIL_MARGIN))
    return _ZetaTables(zeta, table, table_2n, fit, _green_rows(table))


class _GreenRows(tuple):
    """The green CSV rows (m, j, Re zeta, Im zeta, ||G_mj||) of one table,
    m-major, and what :func:`_csv_text` formats of them: its ``zeta``, one
    value of both zeta columns, and ``cells``, the m, j and norm of every
    row in one flat list."""

    def __new__(cls, rows, zeta: complex, cells: list):
        self = super().__new__(cls, rows)
        self.zeta, self.cells = zeta, cells
        return self


def _green_rows(table: GreenTable) -> _GreenRows:
    """The green CSV rows (m, j, Re zeta, Im zeta, ||G_mj||) of a table,
    m-major."""
    mm, jj = np.meshgrid(table.rows, table.cols, indexing="ij")
    ms, js, norms = mm.ravel().tolist(), jj.ravel().tolist(), table.norm_stack.ravel().tolist()
    cells = [None] * (3 * len(ms))
    cells[0::3], cells[1::3], cells[2::3] = ms, js, norms
    return _GreenRows(zip(ms, js, repeat(table.zeta.real), repeat(table.zeta.imag), norms),
                      table.zeta, cells)


def _green_evaluate(cfg: ExperimentConfig, bound: _VariantBound,
                    tables: _ZetaTables) -> ExperimentResult:
    """C_emp and verdict of one variant against the N section's Green table,
    with stability against the 2N table unless that is None; the fit and the
    CSV rows are the zeta's own, shared by its variants."""
    table, table_2n, zeta = tables.table, tables.table_2n, tables.zeta

    def c_emp_for(t) -> float:
        if bound.op_env is not None:
            ratios = _block_norms(bound.op_env @ t.stack)
        else:
            ratios = _ratios(t.norm_stack, bound.env)
        return float(np.max(ratios))     # inf or nan if any ratio is

    c1 = c_emp_for(table)
    c2 = None if table_2n is None else c_emp_for(table_2n)
    stable, slope, slope_theo, _, passed = _verdict(tables.fit, bound.env[:, 0], c1, c2)
    details = {
        "c_emp_2n": _json_float(math.nan if c2 is None else c2),
        "sigma_min": _json_float(table.sigma_min),
        "condition": _json_float(table.condition),
        "ill_conditioned": table.ill_conditioned,
        **tables.fit.details,
        "all_ratios_finite": math.isfinite(c1),
        "c_emp_stable": stable,
        "stability_checked": table_2n is not None,
    }
    if bound.n0 is not None:
        details["n0"] = bound.n0
    variant, rate = bound.variant, bound.rate
    return ExperimentResult(
        name=f"green:{variant}:zeta={_fmt_zeta(zeta)}", variant=variant,
        branch=rate.branch, gamma=rate.gamma, delta=bound.delta, c_emp=c1,
        slope_measured=slope, slope_theoretical=slope_theo, passed=passed,
        n_blocks=cfg.n_blocks, zeta=zeta, details=details, table=tables.csv)


def _green_experiments(cfg: ExperimentConfig, seq: EntrySequence, gap: GapInterval,
                       meta: dict, variants: tuple | None = None) -> list[ExperimentResult]:
    """Every (zeta, variant) Green experiment of cfg, in that order.

    Only the rate and the envelope depend on the variant, so the rest is
    done once and shared: ||A_k|| on the window, one assembly of the N and
    of the 2N section, and one stacked Green solve on each (``green_blocks``):
    the N section for every zeta with at least one variant bound, the 2N
    section for every zeta whose N solve succeeded.  Only C_emp is read from
    the 2N tables, so that solve runs with ``health=False``: only its zetas
    within 1e-8 of the real axis need a singularity verdict, which one band
    Cholesky certificate settles for them all, and the sigma_min estimate
    runs only for those it leaves open.  The fit of the measured slope and the
    CSV rows are made once per zeta (:func:`_zeta_tables`), when its first
    variant is evaluated.  A variant's own rate or
    envelope error is reported before the solve's; a failed solve gives every
    variant of its zeta the same error.  ``variants`` defaults to the
    config's.
    """
    n = cfg.n_blocks
    rows, cols = _window(cfg)
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
        tables = green_blocks(section, [cfg.zetas[i] for i in todo], rows, cols, health)
        _count(meta, sections_assembled=1, green_solves=len(todo),
               factorizations=tables.factorizations)
        return dict(zip(todo, tables))

    tables_n = solve(n, [i for i in range(len(cfg.zetas))
                         if any(isinstance(bounds[i, v], _VariantBound) for v in variants)],
                     health=True)
    tables_2n = solve(2 * n, [i for i, t in tables_n.items() if isinstance(t, GreenTable)],
                      health=False)
    results = []
    for i, zeta in enumerate(cfg.zetas):
        solved = (tables_n.get(i), tables_2n.get(i))
        shared = None               # the zeta's fit and CSV rows, made once
        for variant in variants:
            outcome = (bounds[i, variant], *solved)
            error = next((x for x in outcome if isinstance(x, Exception)), None)
            if error is not None:
                results.append(_error_result(f"green:{variant}:zeta={_fmt_zeta(zeta)}",
                                             variant, zeta, n, error))
                continue
            if shared is None:
                shared = _zeta_tables(cfg, zeta, *solved)
            results.append(_green_evaluate(cfg, bounds[i, variant], shared))
    return results


def _error_result(name: str, variant: str, zeta, n: int, exc: Exception) -> ExperimentResult:
    return ExperimentResult(name=name, variant=variant, passed=False, n_blocks=n,
                            zeta=zeta, details={"error": f"{type(exc).__name__}: {exc}"})


def _eigenvector_experiments(cfg: ExperimentConfig, seq: EntrySequence,
                             gap: GapInterval, meta: dict) -> list[ExperimentResult]:
    n = cfg.n_blocks
    variant = next((v for v in cfg.variants if v != "commuting"), "continuous")
    pairs = eigenpairs_in_gap(assemble_truncation(seq, n), gap)
    _count(meta, sections_assembled=1, eigen_searches=1,
           factorizations=pairs.factorizations)
    if not pairs:
        return [ExperimentResult(
            name="eigenvector:none", variant=variant, passed=None, n_blocks=n,
            details={"skipped": f"no N-stable gap eigenpair in ({gap.r:.6g}, {gap.s:.6g})"})]
    # only the 2N clusters that can hold a partner are iterated
    pairs_2n = eigenpairs_in_gap(assemble_truncation(seq, 2 * n), gap,
                                 near=[p.zeta for p in pairs])
    _count(meta, sections_assembled=1, eigen_searches=1,
           factorizations=pairs_2n.factorizations)
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
            rate, delta = _resolve_rate(variant, gap, pair.zeta, seq.norms(n - 1),
                                        cfg.delta, cfg.epsilon, cfg.eta, cfg.eps_prime)
            env, _ = _make_envelope(variant, rate, seq, delta, top - 1, 1, ms[:top])
        except (DomainError, PreconditionError, ParameterError) as exc:
            results.append(_error_result(name, variant, zeta0, n, exc))
            continue
        un = pair.block_norms
        c_b = float(np.max(_ratios(un, env[:n])))
        c_b_2n = math.nan if partner is None else float(np.max(_ratios(partner.block_norms, env)))
        fit = _Fit(ms[:n], *_fit_slope(ms[:n], un, 1 + FIT_HEAD_OFFSET, n - FIT_TAIL_MARGIN))
        _, slope, slope_theo, _, passed = _verdict(fit, env[:n], c_b, c_b_2n)
        results.append(ExperimentResult(
            name=name, variant=variant, branch=rate.branch, gamma=rate.gamma,
            delta=delta, c_emp=c_b, slope_measured=slope,
            slope_theoretical=slope_theo, passed=passed, n_blocks=n, zeta=zeta0,
            details={"c_b_2n": _json_float(c_b_2n), "residual": pair.residual,
                     "drift": pair.drift, "stable_partner_found": partner is not None,
                     **fit.details},
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


def edge_scaling_study(x: float, eps_list, n_blocks: int = EDGE_N_BLOCKS,
                       delta: float | str = "auto",
                       epsilon: float = DEFAULT_EPSILON,
                       eta: float = DEFAULT_ETA) -> EdgeStudyResult:
    """Measured vs theoretical decay rate near the gap edge zeta = 2 - |x| + eps.

    No pass threshold is placed on C_emp(eps); the object of interest is the
    pair of log-log slopes, both expected near 1/2 (the rate is governed by
    the square root of the distance to the edge), so ``eps_list`` needs at
    least two distinct values in (0, 0.01].
    """
    if not abs(x) > 2.0:
        raise DomainError(f"edge study needs |x| > 2, got x = {x}")
    eps_arr = np.sort(_eps_values(eps_list, "eps_list"))
    if not np.all((eps_arr > 0.0) & (eps_arr <= 1e-2)):
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
        res = _green_evaluate(cfg, bound, _zeta_tables(cfg, zeta, table, None))
        rows.append({"eps": float(eps), "zeta": zeta.real,
                     "rate_measured": res.slope_measured, "gamma": res.gamma,
                     "c_emp": res.c_emp})
    log_eps = np.log(eps_arr)
    slope_meas = _slope(log_eps, np.log([r["rate_measured"] for r in rows]))
    slope_gamma = _slope(log_eps, np.log([r["gamma"] for r in rows]))
    counters = {"sections_assembled": 1, "green_solves": len(rows), "eigen_searches": 0,
                "factorizations": tables.factorizations}
    return EdgeStudyResult(x=x, n_blocks=n_blocks, rows=rows,
                           slope_measured=slope_meas, slope_gamma=slope_gamma,
                           counters=counters)


def _edge_experiments(cfg: ExperimentConfig, seq, gap, meta: dict) -> list[ExperimentResult]:
    """The edge study of cfg.edge with cfg's params; passes when both slopes are 1/2 +- 0.05."""
    study = edge_scaling_study(**cfg.edge, delta=cfg.delta, epsilon=cfg.epsilon,
                               eta=cfg.eta)
    _count(meta, **study.counters)
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
        if gap is None and kind != "edge":
            seq = (cfg.operator if isinstance(cfg.operator, EntrySequence)
                   else load_operator(cfg.operator))
            gap = resolve_gap(cfg, seq)
            report.meta["gap"] = [gap.r, gap.s]
            if cfg.gap.get("source", "symbol") == "truncation":
                # resolve_gap took every eigenvalue of the assembled N
                # section from its band (truncated_spectrum)
                _count(report.meta, sections_assembled=1, eigen_searches=1)
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
    "green": "%d,%d,%.17g,%.17g,%.17g\n",
    "eigenvector": "%d,%.17g\n",
    "edge": "%.17g,%.17g,%.17g,%.17g\n",
    "spectrum": "%d,%.17g\n",
}


def _csv_text(kind: str, rows) -> str:
    """The CSV file of ``rows``: the version line, the header, and every row
    formatted by one ``%`` over the whole table.  The rows of one Green table
    (:func:`_green_rows`) share their Re zeta and Im zeta cells, which are
    formatted once, into the row format, so each row formats only m, j and
    the norm, to the same text."""
    if isinstance(rows, _GreenRows):
        row = "%%d,%%d,%.17g,%.17g,%%.17g\n" % (rows.zeta.real, rows.zeta.imag)
        body = row * len(rows) % tuple(rows.cells)
    else:
        rows = tuple(rows)
        body = _CSV_ROW_FORMATS[kind] * len(rows) % tuple(chain.from_iterable(rows))
    return f"# blockjacobi v{__version__}\n{_CSV_HEADERS[kind]}\n{body}"


def _write_csv(path: Path, kind: str, rows) -> None:
    path.write_text(_csv_text(kind, rows), encoding="utf-8")


def run(config, out_dir: str | None = None) -> tuple[VerificationReport, int]:
    """Execute all configured experiments; write report.json and CSVs.

    Returns (report, exit_code) with exit code 0 iff every non-skipped
    experiment passed.  Fully deterministic for a given config.  The
    variants of one zeta share one CSV payload, which is formatted once and
    written to each of their files.
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
        texts = {}          # (kind, id of a payload of this report) -> CSV text
        for i, res in enumerate(report.experiments):
            if res.table is None:
                continue
            if res.name == "edge-study":
                kind, path = "edge", target / "edge.csv"
            else:
                kind = "eigenvector" if res.name.startswith("eigenvector") else "green"
                path = target / f"{kind}_{i:02d}.csv"
            key = (kind, id(res.table))
            if key not in texts:
                texts[key] = _csv_text(kind, res.table)
            path.write_text(texts[key], encoding="utf-8")
    return report, report.exit_code
