"""Spectra, Green blocks and gap detection for truncated block Jacobi operators.

Two spectrum estimators are available: all eigenvalues of the finite
truncation, from its Hermitian band (see below), and (for operators with
constant blocks) the symbol
phi(theta) = exp(i theta) A + exp(-i theta) A^* + B whose eigenvalue ranges
over the unit circle fill the essential spectrum.  Gap endpoints detected
from symbol samples are refined by a zoom on the batched eigenvalue
functions: 33 thetas per round in one ``eigvalsh`` call, the bracket
re-centred on the best and shrunk 16-fold until it is below 1e-7 (at a
smooth extremum the value's error is quadratic in the bracket, so it is then
at rounding level); truncation-only gaps keep sample resolution.

Green blocks G_mj(zeta) = P_m (J_N - zeta)^{-1} P_j are computed from one
banded LU factorization per section (LAPACK ``zgbtrf`` on the
block-tridiagonal band, kl = ku = 2d - 1): the J_N - zeta of all requested
zetas are stacked as decoupled segments of one band, factored once, and
share one sigma_min estimate and one solve for all requested column blocks.
The estimate is 22 Arnoldi steps on (J_N - zeta)^{-1}, one in-place
``zgbtrs`` on the stacked vector each, orthogonalized per segment by
classical Gram-Schmidt applied twice; 1 / sigma_max of each segment's
Hessenberg matrix is an upper estimate of the distance from zeta to the
truncated spectrum.  It runs where a verdict or a report reads it: on every
segment by default, and with ``health=False`` only on the zetas within 1e-8
of the real axis, since J_N is Hermitian and sigma_min(J_N - zeta) >=
|Im zeta| settles the singularity verdict of every other zeta (the harness
re-solves the 2N section so, reading only C_emp there).  Cost and memory are
O(Z N d^3) and O(Z N d^2) for Z zetas: no dense (N d) x (N d) matrix is
built.

Gap eigenpairs are banded too: one reduction of the Hermitian band
(kd = 2d - 1) to tridiagonal form, in real arithmetic when the band is real
(as for every real symmetric operator), then bisection, gives only the
eigenvalues of J_N inside the gap window and the two extreme ones; block
inverse iteration on the band LU gives the eigenvectors of the in-gap ones
(a one-vector block is normalized after each step, a larger one
orthonormalized by a QR), and the far-edge artifact filter reads only the
coupling A_N to block N + 1 instead of a 2N section.  ``truncated_spectrum``
takes the same reduction of the same band, then all its eigenvalues from the
tridiagonal form (``dsterf``), checked against the trace and Frobenius
identities of the block stacks.  No function here builds the dense
truncation.

The band routines (``zgbtrf``, ``zgbtrs``, its in-place ``band_solver``,
``eigvals_window`` and ``eigvals_all``) come from :mod:`blockjacobi._lapack`,
one set of ctypes wrappers bound to the ILP64 OpenBLAS inside numpy when
numpy's build names it, so no scipy module is imported, and to the LAPACK of
scipy's ``cython_lapack`` on other builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import band_solver, eigvals_all, eigvals_window, zgbtrf, zgbtrs
from .boundfns import GapInterval
from .errors import ConvergenceError, ParameterError, SingularityError
from .operators import (EntrySequence, TruncatedOperator, as_block,
                        hermitian_deviation, HERMITICITY_TOL)

#: zeta must stay at least this far from the truncated spectrum
SINGULARITY_TOL = 1e-8
#: condition estimates above this attach an ill-conditioned warning
CONDITION_LIMIT = 1e12
#: relative residual allowed for eigenpairs, and relative error of the
#: trace and Frobenius identities of a truncated spectrum
RESIDUAL_TOL = 1e-8

#: Arnoldi steps of the sigma_min estimate, at most N d; with 20, some
#: random off-axis zetas get a value above that of 40 inverse power steps
_ARNOLDI_STEPS = 22
#: an Arnoldi residual below this share of ||M^{-1} v_j|| ends the Krylov space
_KRYLOV_END = 1e-12
#: seed of the random start vectors of the Arnoldi and inverse iterations
_SEED = 20260810
#: cap on block inverse-iteration steps per eigenvalue cluster
_INVERSE_STEPS = 40
#: imaginary part of the inverse-iteration shift, relative to max(||J_N||, 1)
_SHIFT_IMAG_REL = 1e-10
#: smallest normal float
_TINY = np.finfo(float).tiny
#: gap eigenvalue candidates keep this share of the gap width from each end
_MARGIN_FRAC = 0.02
#: candidate eigenvalues closer than this form one cluster
_CLUSTER_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    """Sorted real spectrum samples from a truncation or a symbol sweep."""

    method: str                 # "truncation" or "symbol"
    samples: np.ndarray
    size: int                   # N (truncation) or theta-grid size (symbol)
    symbol: tuple | None = None  # (A, B) when method == "symbol"
    #: (size, d) symbol eigenvalues per grid theta; computed from ``symbol``
    #: when that is given without it
    symbol_eigvals: np.ndarray | None = None

    def __post_init__(self):
        if self.symbol is not None and self.symbol_eigvals is None:
            object.__setattr__(self, "symbol_eigvals", _symbol_table(*self.symbol, self.size))


def truncated_spectrum(op: TruncatedOperator) -> SpectrumEstimate:
    """All N d eigenvalues of the Hermitian truncation, sorted ascending.

    One reduction of the lower Hermitian band (kd = 2d - 1) to tridiagonal
    form and LAPACK ``dsterf`` (``eigvals_all``): O((N d)^2 d) time and
    O(N d^2) memory, no dense matrix.  The result is checked against two
    identities of the block stacks, each O(N d^2): the trace,
    sum lambda = sum tr B_k, within 1e-8 max(||J||, 1), and the Frobenius
    norm, sum lambda^2 = sum ||B_k||_F^2 + 2 sum ||A_k||_F^2, within
    1e-8 max(||J||, 1)^2.  A violation, a count other than N d, a
    non-finite value or a failed ``dsterf`` raises ConvergenceError.
    """
    vals = eigvals_all(_hermitian_band(op))
    size, finite = op.n_blocks * op.dim, int(np.count_nonzero(np.isfinite(vals)))
    if vals.size != size or finite != size:
        raise ConvergenceError(f"eigensolver returned {vals.size} values ({finite} finite) "
                               f"for a {size}-dimensional truncation")
    # both identities in units of max(||J||, 1), where no square overflows
    scale = max(float(np.max(np.abs(vals))), 1.0)
    x, a, b = vals / scale, op.a_blocks / scale, op.b_blocks / scale
    trace = np.sum(np.trace(b, axis1=1, axis2=2).real)
    frobenius = np.sum(np.abs(b) ** 2) + 2.0 * np.sum(np.abs(a) ** 2)
    for name, error, unit in (("trace", np.sum(x) - trace, "max(||J||, 1)"),
                              ("Frobenius", np.sum(x * x) - frobenius, "max(||J||, 1)^2")):
        if not abs(error) <= RESIDUAL_TOL:
            raise ConvergenceError(f"eigenvalues miss the {name} identity by "
                                   f"{abs(error):.3e} {unit} (tolerance {RESIDUAL_TOL:.0e})")
    vals.flags.writeable = False
    return SpectrumEstimate(method="truncation", samples=vals, size=op.n_blocks)


def _symbol_matrices(A: np.ndarray, B: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    z = np.exp(1j * thetas)[:, None, None]
    return z * A + np.conj(z) * A.conj().T + B


def _symbol_table(A: np.ndarray, B: np.ndarray, grid_size: int) -> np.ndarray:
    """Read-only (grid_size, d) symbol eigenvalues on the uniform theta-grid."""
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    vals = np.linalg.eigvalsh(_symbol_matrices(A, B, thetas))
    vals.flags.writeable = False
    return vals


def symbol_spectrum(A, B, grid_size: int = 2048) -> SpectrumEstimate:
    """Eigenvalues of the symbol over a uniform theta-grid on [0, 2 pi).

    Valid for operators with constant blocks (period 1); use
    :func:`period2_symbol_blocks` to fold a 2-periodic sequence first.
    """
    A = as_block(A, what="symbol A")
    B = as_block(B, A.shape[0], "symbol B")
    if hermitian_deviation(B) > HERMITICITY_TOL:
        raise ParameterError("symbol B must be Hermitian")
    if grid_size < 4:
        raise ParameterError(f"grid size must be >= 4, got {grid_size}")
    vals = _symbol_table(A, B, grid_size)
    samples = np.sort(vals.ravel())
    samples.flags.writeable = False
    return SpectrumEstimate(method="symbol", samples=samples, size=grid_size,
                            symbol=(A, B), symbol_eigvals=vals)


def tail_symbol_spectrum(seq: EntrySequence, grid_size: int = 2048) -> SpectrumEstimate:
    """Symbol spectrum of the blocks past the prefix of ``seq``.

    Equal consecutive blocks give a period-1 symbol; a 2-periodic pattern is
    folded by block doubling (:func:`period2_symbol_blocks`).  Any other
    tail raises ParameterError.
    """
    p0 = len(seq.prefix) + 1
    A, B = seq.blocks(p0, p0 + 4)

    def equal(x, y):        # absolute only: a relative tolerance lets a slow drift pass
        return np.allclose(x, y, rtol=0.0, atol=1e-12)

    if equal(A[0], A[1]) and equal(B[0], B[1]):
        return symbol_spectrum(A[0], B[0], grid_size)
    if equal(A[:2], A[2:]) and equal(B[:2], B[2:]):
        return symbol_spectrum(*period2_symbol_blocks(A[0], A[1], B[0], B[1]), grid_size)
    raise ParameterError(
        "symbol gap source needs constant or 2-periodic blocks past the "
        "prefix; use an explicit gap for this operator")


def period2_symbol_blocks(A1, A2, B1, B2) -> tuple[np.ndarray, np.ndarray]:
    """Fold a 2-periodic block sequence into one 2d-block period.

    Treating (u_{2k-1}, u_{2k}) as a single cell, the in-cell coupling is
    [[B1, A1], [A1^*, B2]] and the cell-to-cell coupling [[0, 0], [A2, 0]].
    For slowly varying coefficients this is an approximation of the local
    band structure.
    """
    A1 = as_block(A1, what="A1")
    d = A1.shape[0]
    A2 = as_block(A2, d, "A2")
    B1 = as_block(B1, d, "B1")
    B2 = as_block(B2, d, "B2")
    big_a = np.zeros((2 * d, 2 * d), dtype=complex)
    big_a[d:, :d] = A2
    big_b = np.zeros((2 * d, 2 * d), dtype=complex)
    big_b[:d, :d] = B1
    big_b[d:, d:] = B2
    big_b[:d, d:] = A1
    big_b[d:, :d] = A1.conj().T
    return big_a, big_b


# ---------------------------------------------------------------------------
# gap detection and band-edge refinement

def _refine_symbol_level(est: SpectrumEstimate, level: float, side: str) -> float:
    """Refined gap endpoint: extremize the symbol eigenvalues nearest ``level``.

    side == "below": maximize the largest eigenvalue <= level;
    side == "above": minimize the smallest eigenvalue >= level.
    The coarse bracket is read from the grid's eigenvalue table, then zoomed:
    each round evaluates 33 thetas across the bracket in one batch,
    re-centres on the best and shrinks the half-width 16-fold, until it is
    below 1e-7: the value at a smooth extremum is off by O(h^2), so a
    narrower bracket moves it only in the last bits (4 rounds on a 2048
    grid, where a 1e-12 stop took 8).
    """
    A, B = est.symbol

    def nearest(vals):
        if side == "below":
            return np.max(np.where(vals <= level, vals, -math.inf), axis=-1)
        return np.min(np.where(vals >= level, vals, math.inf), axis=-1)

    best = np.argmax if side == "below" else np.argmin
    vals = nearest(est.symbol_eigvals)
    theta = 2.0 * math.pi * best(vals) / est.size
    h = 2.0 * math.pi / est.size
    while h >= 1e-7:
        thetas = theta + h * np.linspace(-1.0, 1.0, 33)
        vals = nearest(np.linalg.eigvalsh(_symbol_matrices(A, B, thetas)))
        theta = thetas[best(vals)]
        h /= 16.0
    return float(vals[best(vals)])


def detect_gap(est: SpectrumEstimate, tol: float) -> list[GapInterval]:
    """Maximal open intervals between consecutive samples longer than ``tol``.

    Symbol-based estimates get their endpoints refined by a zoom on the
    batched eigenvalue functions (:func:`_refine_symbol_level`); sorted by
    length descending.
    """
    samples = est.samples
    if samples.size < 2:
        raise ParameterError("gap detection needs at least 2 spectrum samples")
    gaps = []
    diffs = np.diff(samples)
    for i in np.nonzero(diffs > tol)[0]:
        r, s = float(samples[i]), float(samples[i + 1])
        if est.symbol is not None:
            mid = 0.5 * (r + s)
            r = _refine_symbol_level(est, mid, "below")
            s = _refine_symbol_level(est, mid, "above")
        gaps.append(GapInterval(r, s))
    gaps.sort(key=lambda g: g.width, reverse=True)
    return gaps


def band_edges(est: SpectrumEstimate, tol: float) -> np.ndarray:
    """Sorted band boundary points: spectrum extremes plus all gap endpoints.

    Refined against the symbol eigenvalue functions when available.
    """
    edges = [e for g in detect_gap(est, tol) for e in (g.r, g.s)]
    if est.symbol is not None:
        edges.extend((_refine_symbol_level(est, -math.inf, "above"),
                      _refine_symbol_level(est, math.inf, "below")))
    else:
        edges.extend((float(est.samples[0]), float(est.samples[-1])))
    return np.sort(np.array(edges))


# ---------------------------------------------------------------------------
# Green blocks

@dataclass(frozen=True, eq=False)
class GreenTable:
    """Green blocks G_mj(zeta) and their spectral norms for one zeta.

    ``stack[a, b]`` is G_mj for m = rows[a], j = cols[b] (both ascending);
    ``norm_stack`` holds the matching spectral norms.
    """

    zeta: complex
    dim: int
    rows: tuple
    cols: tuple
    stack: np.ndarray        # (len(rows), len(cols), d, d)
    norm_stack: np.ndarray   # (len(rows), len(cols))
    sigma_min: float = math.inf
    condition: float = 0.0
    ill_conditioned: bool = False

    def block(self, m: int, j: int) -> np.ndarray:
        return self.stack[self.rows.index(m), self.cols.index(j)]

    def norm(self, m: int, j: int) -> float:
        return float(self.norm_stack[self.rows.index(m), self.cols.index(j)])


def _band_storage(op: TruncatedOperator, zetas) -> np.ndarray:
    """J_N - zeta in LAPACK general band storage with kl = ku = 2d - 1.

    Entry (i, j) of the matrix sits at row 2 kl + i - j, column j; the first
    kl rows are left zero for the fill-in of partial pivoting.  Each of the
    three block diagonals is written by one scatter over all N blocks.  A
    sequence of zetas gives the stack diag(J_N - zeta_1, J_N - zeta_2, ...):
    one segment of N d columns per zeta, with no coupling between segments.
    """
    zetas = np.atleast_1d(np.asarray(zetas, dtype=complex))
    n, d = op.n_blocks, op.dim
    size = n * d
    kl = 2 * d - 1
    ab = np.zeros((3 * kl + 1, zetas.size * size), dtype=complex, order="F")
    r, c = np.divmod(np.arange(d * d), d)      # entry (r, c) of a d x d block
    main = 2 * kl + r - c
    col = d * np.arange(n)[:, None] + c
    ab[main, col] = op.b_blocks.reshape(n, d * d)
    ab[main - d, col[:-1] + d] = op.a_blocks.reshape(n - 1, d * d)
    ab[main + d, col[:-1]] = op.a_blocks.conj().transpose(0, 2, 1).reshape(n - 1, d * d)
    ab[:, size:] = np.tile(ab[:, :size], zetas.size - 1)
    ab[2 * kl] -= np.repeat(zetas, size)
    return ab


def _hermitian_band(op: TruncatedOperator) -> np.ndarray:
    """The lower Hermitian band of J_N, kd = 2d - 1: rows 2 kl.. of the LU
    band storage at zeta = 0, which hold entry (i, j), i >= j, at row i - j."""
    return _band_storage(op, 0.0)[2 * (2 * op.dim - 1):]


class FactoredResults(list):
    """A list of results and the number of band LU factorizations behind them."""

    def __init__(self, items=(), factorizations: int = 0):
        super().__init__(items)
        self.factorizations = factorizations


def _sigma_min(lu, ipiv, kl: int, segments: int, size: int) -> np.ndarray | None:
    """Smallest singular value of every segment of a stacked band LU.

    k = min(22, N d) steps of Arnoldi on M^{-1}, all segments in the same
    solves and each orthogonalized on its own, started from the same seeded
    vector.  Each step is one ``zgbtrs`` call on the stacked vector, in
    place in one buffer bound once (``band_solver``), then classical
    Gram-Schmidt applied twice, as batched matmuls over the segments into
    preallocated buffers.  The segments are decoupled, so the leading
    segments of a stack, passed as ``lu[:, :k size]`` and
    ``ipiv[:k size]``, get the values they get in the whole stack.  The
    (k + 1) x k Hessenberg matrix H of a segment satisfies
    M^{-1} V_k = V_{k+1} H with orthonormal V, so sigma_max(H) <= ||M^{-1}||
    and 1 / sigma_max(H) is an upper estimate of sigma_min(M), equal to it
    once the Krylov space holds the top singular vector.  A segment whose
    Krylov space runs out stops cleanly: when the residual after
    orthogonalization is below 1e-12 ||M^{-1} v_j||, where a further
    Gram-Schmidt pass could no longer make it orthogonal, its next basis
    vector is zero.  Returns None when an entry of H turns non-finite, which
    an overflowing solve or sum of squares gives, or when sigma_max(H) is
    zero: then some sigma is 0, and in a stack 0 x inf or 0 / 0 may have
    carried that into the other segments.
    """
    steps = min(_ARNOLDI_STEPS, size)
    rng = np.random.default_rng(_SEED)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    V = np.zeros((steps, segments, size), dtype=complex)      # V[j]: step j's vector
    V[0] = v / np.linalg.norm(v)
    H = np.zeros((segments, steps + 1, steps), dtype=complex)
    # every step works in these buffers: w is solved in place, conj holds the
    # conjugates and h, proj, beta the Gram-Schmidt products
    w = np.empty((segments, size), dtype=complex)
    solve = band_solver(lu, kl, kl, w.reshape(-1), ipiv)
    conj = np.empty_like(w)
    h = np.empty((segments, steps, 1), dtype=complex)
    proj = np.empty((segments, 1, size), dtype=complex)
    beta = np.empty((segments, 1, 1))
    parts = w.view(float)[:, None, :]
    # an overflowing sum of squares is inf and inf - inf is NaN; both stay
    # in H, whose finiteness is checked once at the end
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            np.copyto(w, V[j])
            solve()
            basis = V[:j + 1].transpose(1, 0, 2)                # (segments, j + 1, size)
            hj = h[:, :j + 1]
            for _ in range(2):
                np.matmul(basis, np.conjugate(w, out=conj)[:, :, None], out=hj)
                np.conjugate(hj, out=hj)
                w -= np.matmul(hj.transpose(0, 2, 1), basis, out=proj)[:, 0]
                H[:, :j + 1, j] += hj[:, :, 0]
            np.sqrt(np.matmul(parts, parts.transpose(0, 2, 1), out=beta), out=beta)
            H[:, j + 1, j] = beta[:, 0, 0]
            if j + 1 < steps:
                # a residual at rounding level is no new direction: the
                # Krylov space has run out and the segment's next vector is 0;
                # the column norm is np.linalg.norm's reduction, without its
                # argument handling
                column = H[:, :j + 2, j]
                norm = np.sqrt(np.add.reduce((column.conj() * column).real, axis=1))
                grows = beta[:, 0, 0] > _KRYLOV_END * norm
                np.divide(w, beta[:, 0], out=V[j + 1], where=grows[:, None])
    if not np.all(np.isfinite(H)):
        return None
    top = np.linalg.svd(H, compute_uv=False)[:, 0]
    if not np.all(top > 0.0):
        return None
    return 1.0 / top


def green_blocks(op: TruncatedOperator, zetas, rows, cols,
                 health: bool = True) -> FactoredResults:
    """Green blocks G_mj(zeta) for all (m, j) in rows x cols, for every zeta.

    Stacks J_N - zeta I for every zeta as decoupled segments of one band
    (LAPACK general band storage, kl = ku = 2d - 1) and factors the stack
    with one ``zgbtrf``; partial pivoting never crosses a segment boundary,
    so each segment's LU is the LU of its own J_N - zeta.  One Arnoldi
    iteration on (J_N - zeta)^{-1} serves every segment
    (:func:`_sigma_min`): min(22, N d) steps, each one ``zgbtrs`` call on
    the stacked vector.  One more ``zgbtrs`` call, with e_j in every segment
    of its right-hand side, solves (J_N - zeta I) X = E_j for all zetas and
    column blocks.  Time is O(Z N d^3) and memory O(Z N d^2) for Z zetas;
    no dense matrix is built.

    Returns one GreenTable or SingularityError per zeta, in order.  A zeta is
    singular on an exact zero pivot, or when the smallest singular value of
    its segment puts it within 1e-8 of the truncated spectrum; a condition
    estimate above 1e12 is flagged, not fatal.  ``sigma_min`` is an upper
    estimate of dist(zeta, spec J_N): the largest growth of
    (J_N - zeta)^{-1} over a Krylov space of dimension 22.  It is the
    distance, to rounding, where N d <= 22, where the nearest eigenvalue is
    isolated, and where eigenvalues on both sides are equally near (example
    2, x = 3, zeta = 0.5: 0.5 at N = 600 and 1200).  It stays high where
    the nearest eigenvalues form a band-edge cluster that 22 steps do not
    resolve: on example 2, +1.5e-3 at x = 2.5, N = 120, zeta = 0.3 and
    +6.2e-4 at x = 4, N = 60, zeta = 1.2.  ``condition`` is an upper bound on
    ||J_N - zeta|| over ``sigma_min``.

    With ``health=False`` the estimate runs only where the verdict needs
    it.  J_N is Hermitian, so sigma_min(J_N - zeta) >= |Im zeta|, and a
    zeta with |Im zeta| > 1e-8 cannot be singular in that sense: the stack
    puts the zetas with |Im zeta| <= 1e-8 first and the Arnoldi iteration
    runs on those segments only, with the same values as in the full stack.
    The tables of the other zetas carry ``sigma_min = condition = nan``
    (and ``ill_conditioned = False``); their blocks, norms and verdicts are
    those of ``health=True``.

    Segments with an exact zero pivot are taken out and the rest refactored.
    When the Arnoldi iteration turns non-finite or overflows, which one
    segment's inf or zero pivot could carry into its neighbours inside
    ``zgbtrs``, the zetas are solved one at a time instead.  ``factorizations`` on the
    result counts the band LU factorizations made.
    """
    zetas = [complex(z) for z in zetas]
    n, d = op.n_blocks, op.dim
    rows = sorted(set(int(m) for m in rows))
    cols = sorted(set(int(j) for j in cols))
    for idx in rows + cols:
        if not 1 <= idx <= n:
            raise ParameterError(f"block index {idx} outside [1, {n}]")
    kl = 2 * d - 1
    size = n * d
    out = FactoredResults([None] * len(zetas))
    # J_N is Hermitian, so sigma_min(J_N - zeta) >= |Im zeta|: without
    # health figures only the zetas near the real axis need the estimate
    estimate = [health or abs(z.imag) <= SINGULARITY_TOL for z in zetas]
    # zetas of the current stack, those to estimate first
    live = sorted(range(len(zetas)), key=lambda i: not estimate[i])
    while live:
        ab = _band_storage(op, [zetas[i] for i in live])
        # |J_N - zeta| is symmetric, so ||.||_1 = ||.||_inf and the upper
        # bound sqrt(||.||_1 ||.||_inf) on the spectral norm is the largest
        # column sum
        band = np.abs(ab[kl:]).T.reshape(len(live), size, 2 * kl + 1)
        norm_upper = np.minimum(np.max(np.sum(band, axis=2), axis=1),
                                np.sqrt(np.sum(band * band, axis=(1, 2))))
        lu, ipiv, info = zgbtrf(ab, kl, kl, overwrite_ab=1)
        out.factorizations += 1
        if info <= 0:
            break
        segment, column = divmod(info - 1, size)
        i = live.pop(segment)
        out[i] = SingularityError(
            f"zeta = {zetas[i]} is an eigenvalue of the truncation "
            f"(exact zero pivot in column {column + 1})")
    if not live:
        return out
    # segments are decoupled, so the leading ones are estimated on their own
    estimated = sum(estimate[i] for i in live)
    sigma = np.full(len(live), math.nan)
    if estimated:
        head = _sigma_min(lu[:, :estimated * size], ipiv[:estimated * size], kl,
                          estimated, size)
        if head is None:
            if len(live) > 1:
                return _one_at_a_time(op, zetas, rows, cols, live, out, health)
            head = np.zeros(1)
        sigma[:estimated] = head
    solved = []                             # positions in the stack
    for k, i in enumerate(live):
        if sigma[k] <= SINGULARITY_TOL:
            out[i] = SingularityError(
                f"zeta = {zetas[i]} is within {sigma[k]:.3e} of the truncated "
                f"spectrum (tolerance {SINGULARITY_TOL:.0e})")
        else:
            solved.append(k)
    if not solved:
        return out
    # zero right-hand sides in the singular segments give exact zeros there
    rhs = np.zeros((len(live), n, d, len(cols), d), dtype=complex)
    pos = np.arange(len(cols))
    rhs[np.array(solved)[:, None], np.array(cols) - 1, :, pos, :] = np.eye(d)
    X, _ = zgbtrs(lu, kl, kl, rhs.reshape(len(live) * size, len(cols) * d), ipiv)
    if len(live) > 1 and not np.all(np.isfinite(X)):
        return _one_at_a_time(op, zetas, rows, cols, live, out, health)
    X = X.reshape(len(live), n, d, len(cols), d)[np.ix_(solved, np.array(rows) - 1)]
    X.flags.writeable = False
    norm_stacks = np.linalg.norm(X.transpose(0, 1, 3, 2, 4), 2, axis=(-2, -1))
    norm_stacks.flags.writeable = False
    for t, k in enumerate(solved):
        condition = float(norm_upper[k] / sigma[k])
        out[live[k]] = GreenTable(
            zeta=zetas[live[k]], dim=d, rows=tuple(rows), cols=tuple(cols),
            stack=X[t].transpose(0, 2, 1, 3), norm_stack=norm_stacks[t],
            sigma_min=float(sigma[k]), condition=condition,
            ill_conditioned=condition > CONDITION_LIMIT)
    return out


def _one_at_a_time(op, zetas, rows, cols, live, out, health) -> FactoredResults:
    """Fill ``out`` for the zetas at ``live`` with one single-zeta stack each."""
    for i in live:
        single = green_blocks(op, [zetas[i]], rows, cols, health)
        out[i] = single[0]
        out.factorizations += single.factorizations
    return out


def green_block(op: TruncatedOperator, zeta: complex, rows, cols) -> GreenTable:
    """Green blocks G_mj(zeta) for all (m, j) in rows x cols: the one-zeta
    case of :func:`green_blocks`, a single band LU of J_N - zeta I.

    O(N d^3) time and O(N d^2) memory, no dense matrix.  Raises
    SingularityError on an exact zero pivot, or when the smallest singular
    value (an upper estimate from 22 Arnoldi steps on the same LU) puts zeta
    within 1e-8 of the truncated spectrum; a condition estimate above 1e12
    is flagged, not fatal.  The estimate always runs here: ``sigma_min`` and
    ``condition`` are set for every zeta (``health=True``).
    """
    [table] = green_blocks(op, [zeta], rows, cols)
    if isinstance(table, SingularityError):
        raise table
    return table


# ---------------------------------------------------------------------------
# eigenpairs inside a gap

@dataclass(frozen=True, eq=False)
class EigenpairInGap:
    """A normalized eigenpair of the truncation lying strictly inside a gap."""

    zeta: float
    blocks: np.ndarray    # (N, d) array of the blocks u_m
    residual: float       # ||J_N u - zeta u||
    drift: float          # certified upper bound on dist(zeta, spec J_2N)

    @property
    def block_norms(self) -> np.ndarray:
        return np.linalg.norm(self.blocks, axis=1)


def _apply(op: TruncatedOperator, X: np.ndarray) -> np.ndarray:
    """J_N X for an (N d, k) array, straight from the block stacks."""
    n, d = op.n_blocks, op.dim
    Xb = X.reshape(n, d, -1)
    Y = op.b_blocks @ Xb
    Y[:-1] += op.a_blocks @ Xb[1:]
    Y[1:] += op.a_blocks.conj().transpose(0, 2, 1) @ Xb[:-1]
    return Y.reshape(X.shape)


def _ritz_basis(op: TruncatedOperator, shift: complex, k: int,
                steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Ritz vectors U of the k eigenvalues of J_N nearest ``shift``, and J_N U.

    ``steps`` steps of seeded block inverse iteration on the band LU of
    J_N - shift, each solving in place and then orthonormalizing the block
    (a QR; one vector is just normalized, which is its QR up to a unit
    phase that nothing downstream sees), then Rayleigh-Ritz on the block.
    """
    n, d = op.n_blocks, op.dim
    kl = 2 * d - 1
    # Im shift > 0 keeps sigma_min(J_N - shift) >= Im shift: no zero pivot
    lu, ipiv, _ = zgbtrf(_band_storage(op, shift), kl, kl, overwrite_ab=1)
    rng = np.random.default_rng(_SEED)
    X = np.empty((n * d, k), dtype=complex, order="F")
    X[:] = rng.standard_normal((n * d, k)) + 1j * rng.standard_normal((n * d, k))
    solve = band_solver(lu, kl, kl, X, ipiv)
    for _ in range(steps):
        solve()
        if k == 1:
            X /= np.linalg.norm(X)
        else:
            X[:] = np.linalg.qr(X)[0]       # Q is C-ordered: copied into the block
    JX = _apply(op, X)
    _, V = np.linalg.eigh(X.conj().T @ JX)
    return X @ V, JX @ V


def _inverse_steps(vals: np.ndarray, cluster: list, shift: complex,
                   lo: float, hi: float) -> int:
    """Inverse-iteration steps that resolve every entry above the smallest normal float.

    Each step shrinks the share of the eigenvectors outside the cluster by
    rho = max_in |lambda - shift| / min_out |lambda - shift|, uniformly in
    every entry; after ceil(log(tiny) / log(rho)) steps, plus one for the
    random start, what is left lies below the smallest normal float, so the
    tiny far blocks of a localized eigenvector are resolved too, not just its
    norm.  At most ``_INVERSE_STEPS``.  ``vals`` are the eigenvalues in the
    window (lo, hi), which holds Re shift; every other eigenvalue lies at or
    beyond lo or hi, so min_out is bounded below by the nearer of
    |shift - lo| and |shift - hi|, and rho from this bound is an upper bound.
    """
    dist = np.abs(vals - shift)
    outside = min(np.min(np.delete(dist, cluster), initial=math.inf),
                  abs(shift - lo), abs(shift - hi))
    rho = np.max(dist[cluster]) / outside
    if rho == 0.0:
        return 1
    if not rho < 1.0:
        return _INVERSE_STEPS
    return min(_INVERSE_STEPS, 1 + math.ceil(math.log(_TINY) / math.log(rho)))


def eigenpairs_in_gap(op: TruncatedOperator, gap: GapInterval,
                      drift_tol: float = 1e-6,
                      embed_tol: float = 1e-6) -> FactoredResults:
    """Eigenpairs of J_N strictly inside the gap, filtered of cut artifacts.

    Candidates are eigenvalues in (r + margin, s - margin) with margin 2% of
    the gap width.  They and the extreme eigenvalues, whose larger modulus is
    ||J_N||, come from ``eigvals_window`` on the lower rows of the LU band
    storage (kd = 2d - 1): one reduction to tridiagonal form (LAPACK
    ``dsbtrd`` when no band entry has a nonzero imaginary part, as for every
    real symmetric operator, ``zhbtrd`` otherwise), then bisection
    (``dstebz``) for the window and for the lowest and highest eigenvalue
    only.  Candidates within 1e-8 of each other form a cluster, whose
    eigenvectors come from block inverse iteration on the band LU of
    J_N - (mean + i tau), tau = 1e-10 max(||J_N||, 1), followed by
    Rayleigh-Ritz.  The iteration
    runs until the other eigenvectors' share is below the smallest normal
    float, so far blocks of a localized eigenvector are resolved entrywise.

    A Dirichlet cut manufactures spurious in-gap eigenpairs localized at the
    far boundary; these can be perfectly N-stable (the cut exists at every
    N), so stability of the eigenvalue alone cannot reject them.  Each
    candidate is therefore also embedded (zero-padded) into the 2N section,
    where its residual is exactly [(J_N - x) u ; A_N^* u_N ; 0], so no 2N
    section is assembled: genuine eigenvectors of the infinite operator keep
    a tiny residual there, boundary artifacts jump to O(1).  Near-degenerate
    clusters are re-separated by an SVD of this embedded residual map, so a
    genuine mode hiding inside a degenerate pair is still found.  ``drift``
    is ||(J_2N - theta) E u|| (E = zero padding), an upper bound on
    dist(theta, spec J_2N) because J_2N is Hermitian.  The reduction takes
    O((N d)^2 d) time, in real arithmetic about half that of the complex
    one, and the bisection O(N d) per wanted eigenvalue (one O(N d) Sturm
    count per halving, about 53 halvings to full precision), each cluster
    O(N d^3) more; memory is O(N d^2) and no dense matrix is built.  The
    pairs come sorted by eigenvalue, with ``factorizations`` counting the
    band LU factorizations: one per cluster.
    """
    seq = op.sequence
    if seq is None:
        raise ParameterError("eigenpairs_in_gap needs a sequence-backed truncation")
    n, d = op.n_blocks, op.dim
    margin = _MARGIN_FRAC * gap.width
    lo, hi = gap.r + margin, gap.s - margin
    vals, lowest, highest = eigvals_window(_hermitian_band(op), lo, hi)
    vals = vals[(vals > lo) & (vals < hi)]
    if vals.size == 0:
        return FactoredResults()
    # group candidates into near-degenerate clusters
    clusters = np.split(np.arange(vals.size), np.nonzero(np.diff(vals) > _CLUSTER_TOL)[0] + 1)
    norm_scale = max(abs(lowest), abs(highest), 1.0)
    # block (N + 1, N) of the 2N section
    a_cut = seq.blocks(n, n + 1)[0][0].conj().T
    results = FactoredResults(factorizations=len(clusters))
    for cluster in clusters:
        mean_val = float(np.mean(vals[cluster]))
        shift = complex(mean_val, _SHIFT_IMAG_REL * norm_scale)
        U, JU = _ritz_basis(op, shift, len(cluster),
                            _inverse_steps(vals, cluster, shift, lo, hi))
        W = np.vstack([JU - mean_val * U, a_cut @ U[-d:]])
        _, svals, vh = np.linalg.svd(W, full_matrices=False)
        for i in range(len(cluster) - 1, -1, -1):
            if svals[i] > embed_tol * norm_scale:
                continue
            u, Ju = U @ vh[i, :].conj(), JU @ vh[i, :].conj()
            theta = float(np.real(u.conj() @ Ju))
            if not lo < theta < hi:
                continue
            residual = float(np.linalg.norm(Ju - theta * u))
            drift = math.hypot(residual, float(np.linalg.norm(a_cut @ u[-d:])))
            if drift >= drift_tol:
                continue
            if residual > RESIDUAL_TOL * norm_scale:
                continue
            u = u / np.linalg.norm(u)
            blocks = u.reshape(n, d).copy()
            blocks.flags.writeable = False
            results.append(EigenpairInGap(zeta=theta, blocks=blocks,
                                          residual=residual, drift=drift))
    results.sort(key=lambda p: p.zeta)
    return results
