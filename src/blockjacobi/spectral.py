"""Spectra, Green blocks and gap detection for truncated block Jacobi operators.

Two spectrum estimators are available: all eigenvalues of the finite
truncation, from its Hermitian band (see below), and (for operators with
constant blocks) the symbol
phi(theta) = exp(i theta) A + exp(-i theta) A^* + B whose eigenvalue ranges
over the unit circle fill the essential spectrum.  Gap endpoints detected
from symbol samples are refined by a zoom on the batched eigenvalue
functions: 33 thetas per round in one batch, the bracket re-centred on the
best and shrunk 16-fold until it is below 1e-7 (at a smooth extremum the
value's error is quadratic in the bracket, so it is then at rounding level);
truncation-only gaps keep sample resolution.

The 2 x 2 eigenvalue and norm work is done in closed form: ``_eigvalsh``
(symbol tables and the zoom) and ``_block_norms`` (Green block norms, and
the harness's commuting C_emp) give, for d = 2, the eigenvalues from the
mean of the diagonal and a ``hypot``, and the spectral norm from the Gram
matrix of the block scaled exactly by a power of two, within a few eps of
LAPACK's and without one LAPACK call per matrix; other d go to numpy.

Every band LU here is of J_N minus one or more shifts, stacked as decoupled
segments of one band (kl = ku = 2d - 1) whose builder, ``_band_storage``,
alone picks the arithmetic: real for real shifts on a real band (every real
symmetric operator), complex otherwise.  ``_factor`` factors every stack
once, in place, and marks the segments with an exact zero pivot.  Green blocks
G_mj(zeta) = P_m (J_N - zeta)^{-1} P_j come from one such factorization per
section: the J_N - zeta of all requested zetas, always complex, share one
solve for all requested column blocks.  J_N is Hermitian, so
sigma_min(J_N - zeta) = hypot(dist(Re zeta, spec J_N), Im zeta): the
singularity verdict and the health figures need only the distance from the
real shift Re zeta to the spectrum.  Its estimate stacks J_N - Re zeta of
the zetas it serves as a band of its own, real for a real operator, and
runs 22 Lanczos steps on the inverses, one in-place solve of the stacked
vector each, without reorthogonalization; 1 / sigma_max of each segment's
(k + 1) x k tridiagonal matrix is an upper estimate of the distance.  It
runs where a verdict or a report reads it: on every zeta by default.  With
``health=False`` (the harness re-solves the 2N section so, reading only
C_emp there) sigma_min(J_N - zeta) >= |Im zeta| settles the singularity
verdict of every zeta farther than 1e-8 from the real axis, and one band
Cholesky of the stacked (J_N - Re zeta)^2 - s^2 I (kd = 3d - 1) proves
dist(Re zeta, spec J_N) >= 2e-8 for the others wherever it completes
(``_screen``, with a rigorous rounding margin in s); only the zetas it
leaves open are estimated.  Cost and memory are O(Z N d^3) and
O(Z N d^2) for Z zetas: no dense (N d) x (N d) matrix is built.

Gap eigenpairs are banded too: one reduction of the Hermitian band
(kd = 2d - 1) to tridiagonal form, in real arithmetic when the band is real
(as for every real symmetric operator), then bisection, gives only the
eigenvalues of J_N inside the gap window and the two extreme ones; block
inverse iteration on the band LU of J_N minus each cluster's bisected
eigenvalue, again in real arithmetic for a real band, gives the
eigenvectors of the in-gap ones (a one-vector block is normalized after
each step, a larger one orthonormalized by a QR; ``_factor`` replaces an
exact zero pivot by 8 eps max(||J_N||, 1), as LAPACK's ``dstein`` does),
and the far-edge artifact filter reads only the coupling A_N to block
N + 1 instead of a 2N section.  The partners of the N section's pairs in
the 2N section need no reduction (``partners_in_gap``): the same band
Cholesky screen certifies an empty annulus around each cluster of their
eigenvalues, and block inverse iteration at the cluster, with one vector
more than it holds, confirms the count; a cluster it cannot confirm takes
the search restricted to given eigenvalues (``near``), which iterates
only the 2N clusters that can hold one.
``truncated_spectrum`` takes the same reduction of the same band, then all
its eigenvalues from the tridiagonal form (``dsterf``), checked against the
trace and Frobenius identities of the block stacks.  No function here
builds the dense truncation.

The band routines (``lu_factor`` and ``band_solver``, the in-place band LU
and its solves in the band's own arithmetic, ``cholesky_factor``, the
in-place band Cholesky, ``eigvals_window`` and ``eigvals_all``) come from
:mod:`blockjacobi._lapack`, one set of ctypes wrappers bound to the ILP64
OpenBLAS inside numpy when numpy's build names it, so no scipy module is
imported, and to the LAPACK of scipy's ``cython_lapack`` on other builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import band_solver, cholesky_factor, eigvals_all, eigvals_window, lu_factor
from .boundfns import GapInterval
from .errors import ConvergenceError, ParameterError, SingularityError
from .operators import (EntrySequence, TruncatedOperator, as_block,
                        hermitian_deviation, HERMITICITY_TOL)

#: zeta must stay at least this far from the truncated spectrum
SINGULARITY_TOL = 1e-8
#: condition estimates above this attach an ill-conditioned warning
CONDITION_LIMIT = 1e12
#: theta-grid size of a symbol spectrum when none is given
SYMBOL_GRID = 2048
#: relative residual allowed for eigenpairs, and relative error of the
#: trace and Frobenius identities of a truncated spectrum
RESIDUAL_TOL = 1e-8

#: Lanczos steps of the distance estimate, at most N d
_LANCZOS_STEPS = 22
#: a Lanczos residual at or below this share of its column of the
#: tridiagonal matrix ends the Krylov space
_KRYLOV_END = 1e-12
#: seed of the hashed start vectors of the Lanczos and inverse iterations
#: (:func:`_start_block`)
_SEED = 20260810
#: cap on block inverse-iteration steps per eigenvalue cluster
_INVERSE_STEPS = 40
#: accuracy of a bisected eigenvalue of J_N, in units of eps max(||J_N||, 1):
#: the floor of the inverse-iteration shift's distance to an eigenvalue in its
#: cluster, and the pivot that replaces an exact zero one
_SHIFT_FLOOR_ULPS = 8
#: smallest normal float, largest float and the spacing of floats at 1
_TINY, _HUGE, _EPS = np.finfo(float).tiny, np.finfo(float).max, np.finfo(float).eps
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


def _eig2(a: np.ndarray, c: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, radius): the eigenvalues mean -+ radius of each Hermitian 2 x 2
    matrix with diagonal (a, c) and off-diagonal modulus ``off``, as
    mean(a, c) and hypot((a - c) / 2, off)."""
    return 0.5 * a + 0.5 * c, np.hypot(0.5 * a - 0.5 * c, off)


def _eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each Hermitian d x d matrix of the stack H.

    For d = 2 in closed form, mean(h_11, h_22) -+ hypot((h_11 - h_22) / 2,
    |h_21|) (:func:`_eig2`), within a few eps ||H||_2 of LAPACK's and
    without one LAPACK call per matrix; a matrix with an inf or nan entry
    gives nan.  Any other d goes to ``np.linalg.eigvalsh``.
    """
    if H.shape[-1] != 2:
        return np.linalg.eigvalsh(H)
    a, c, off = H[..., 0, 0].real, H[..., 1, 1].real, H[..., 1, 0]
    finite = np.isfinite(a) & np.isfinite(c) & np.isfinite(off)
    # inf - inf of an inf entry; an eigenvalue past the float range is inf,
    # as LAPACK's
    with np.errstate(invalid="ignore", over="ignore"):
        mean, radius = _eig2(a, c, np.abs(off))
        radius = np.where(finite, radius, math.nan)
        return np.stack((mean - radius, mean + radius), axis=-1)


def _block_norms(X: np.ndarray) -> np.ndarray:
    """Spectral norm of each d x d block of the stack X.

    For d = 2 in closed form: each block is scaled by the power of two of its
    largest real or imaginary part (exact, ``frexp`` and ``ldexp``), into Y
    with real and imaginary parts P and Q; the entries of the Gram matrix
    Y^* Y are formed entry by entry from them, g_11 and g_22 as sums of
    squares of Y's columns and g_21 = y_1^* y_0 (column y_k) as
    sum_r (p_r1 p_r0 + q_r1 q_r0) + i sum_r (p_r1 q_r0 - q_r1 p_r0), and the
    norm is the square root of the larger eigenvalue of that Gram matrix
    (:func:`_eig2`), scaled back; within a few eps of the SVD's, exactly 0
    for a zero block, nan for a block with an inf or nan entry, and without
    one LAPACK call, or one batched complex matrix product, per block.  Any
    other d goes to ``np.linalg.norm(X, 2)``.
    """
    if X.shape[-2:] != (2, 2):
        return np.linalg.norm(X, 2, axis=(-2, -1))
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    peak = np.max(np.abs(parts[0]), axis=(-2, -1))
    for part in parts[1:]:
        peak = np.maximum(peak, np.max(np.abs(part), axis=(-2, -1)))
    exponent = np.frexp(peak)[1]
    shift = -exponent[..., None, None]
    # 0 inf of an inf entry; a norm past the float range is inf, as the SVD's
    with np.errstate(invalid="ignore", over="ignore"):
        p, *q = (np.ldexp(part, shift) for part in parts)
        squares = p * p
        cross = p[..., 1] * p[..., 0]           # p_r1 p_r0, indexed by r
        if q:
            q, = q
            squares += q * q
            cross += q[..., 1] * q[..., 0]
            turn = p[..., 1] * q[..., 0] - q[..., 1] * p[..., 0]
            off = np.hypot(cross[..., 0] + cross[..., 1], turn[..., 0] + turn[..., 1])
        else:
            off = np.abs(cross[..., 0] + cross[..., 1])
        mean, radius = _eig2(squares[..., 0, 0] + squares[..., 1, 0],
                             squares[..., 0, 1] + squares[..., 1, 1], off)
        return np.where(np.isfinite(peak), np.ldexp(np.sqrt(mean + radius), exponent), math.nan)


def _symbol_matrices(A: np.ndarray, B: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    z = np.exp(1j * thetas)[:, None, None]
    return z * A + np.conj(z) * A.conj().T + B


def _symbol_table(A: np.ndarray, B: np.ndarray, grid_size: int) -> np.ndarray:
    """Read-only (grid_size, d) symbol eigenvalues on the uniform theta-grid."""
    thetas = 2.0 * math.pi * np.arange(grid_size) / grid_size
    vals = _eigvalsh(_symbol_matrices(A, B, thetas))
    vals.flags.writeable = False
    return vals


def symbol_spectrum(A, B, grid_size: int = SYMBOL_GRID) -> SpectrumEstimate:
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


def tail_symbol_spectrum(seq: EntrySequence, grid_size: int = SYMBOL_GRID) -> SpectrumEstimate:
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
        vals = nearest(_eigvalsh(_symbol_matrices(A, B, thetas)))
        theta = thetas[best(vals)]
        h /= 16.0
    return float(vals[best(vals)])


def detect_gap(est: SpectrumEstimate, tol: float) -> list[GapInterval]:
    """Maximal open intervals between consecutive samples longer than ``tol``.

    Symbol-based estimates get their endpoints refined by a zoom on the
    batched eigenvalue functions (:func:`_refine_symbol_level`); sorted by
    length descending.  A ``tol`` that is not a finite positive number
    raises ParameterError.
    """
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"gap tolerance tol must be a finite positive number, got {tol}")
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


def _put_blocks(ab: np.ndarray, row: int, col: int, blocks: np.ndarray) -> None:
    """Write the stack ``blocks`` of d x d blocks into the band storage ``ab``:
    entry (r, c) of block k at band row ``row + r - c``, column
    ``col + d k + c``.  Column c of every block lands in d consecutive band
    rows of one band column, contiguous in the F-ordered ``ab``, so one
    strided write puts it there for the whole stack: d writes, each band
    column touched once, band rows outside ``ab`` (the lower triangle of an
    upper band) left out.  (One write per band row instead, 2d - 1 of them,
    crosses every band column 2d - 1 times, and at d = 8 and 16 with
    N = 2000 was slower than a fancy-index scatter.)"""
    m, d, height = blocks.shape[0], blocks.shape[-1], ab.shape[0]
    columns = ab.T[col:col + m * d].reshape(m, d, height)       # a view: ab is F-ordered
    for c in range(d):
        lo, hi = max(0, c - row), min(d, height - row + c)
        columns[:, c, row - c + lo:row - c + hi] = blocks[:, lo:hi, c]


def _band_storage(op: TruncatedOperator, shifts) -> np.ndarray:
    """J_N - zeta in LAPACK general band storage with kl = ku = 2d - 1.

    Entry (i, j) of the matrix sits at row 2 kl + i - j, column j; the first
    kl rows are left zero for the fill-in of partial pivoting.  Each of the
    three block diagonals is written by d strided writes over all N blocks
    (:func:`_put_blocks`).  A sequence of shifts gives the stack
    diag(J_N - zeta_1, J_N - zeta_2, ...): one segment of N d columns per
    shift, with no coupling between segments.  The band is float64 for real
    shifts when no block entry has a nonzero imaginary part (every real
    symmetric operator), else complex128.
    """
    shifts = np.atleast_1d(np.asarray(shifts))
    dtype = float if not np.iscomplexobj(shifts) and _real_band(op) else complex
    n, d = op.n_blocks, op.dim
    size = n * d
    kl = 2 * d - 1
    ab = np.zeros((3 * kl + 1, shifts.size * size), dtype=dtype, order="F")
    a, b = (op.a_blocks, op.b_blocks) if dtype is complex else (
        op.a_blocks.real, op.b_blocks.real)
    _put_blocks(ab, 2 * kl, 0, b)
    _put_blocks(ab, 2 * kl - d, d, a)
    _put_blocks(ab, 2 * kl + d, 0, a.conj().transpose(0, 2, 1))
    segments = ab.T.reshape(shifts.size, size, 3 * kl + 1)     # a view: ab is F-ordered
    segments[1:] = segments[0]
    segments[:, :, 2 * kl] -= shifts[:, None]
    return ab


def _hermitian_band(op: TruncatedOperator) -> np.ndarray:
    """The lower Hermitian band of J_N, kd = 2d - 1: rows 2 kl.. of the LU
    band storage at zeta = 0, which hold entry (i, j), i >= j, at row i - j;
    real for a real operator."""
    return _band_storage(op, 0.0)[2 * (2 * op.dim - 1):]


def _real_band(op: TruncatedOperator) -> bool:
    """Whether no block entry of J_N has a nonzero imaginary part, as for
    every real symmetric operator."""
    return not (np.any(op.a_blocks.imag) or np.any(op.b_blocks.imag))


def _factor(lu: np.ndarray, kl: int, size: int, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Band LU, once and in place by ``lu_factor``, of the stack ``lu`` of
    ``size``-column segments (:func:`_band_storage`), and its singular ones.

    Partial pivoting never crosses a segment boundary, and LAPACK completes
    the factorization past an exact zero pivot, so every segment's factor
    is, bit for bit, that of a factorization of its own.  Returns (ipiv,
    pivots): ``pivots[k]`` is the 1-based column, within segment k, of its
    first exact zero pivot (or the one LAPACK's ``info`` names), 0 if none.
    Each zero pivot, whose multipliers are zero too, is then replaced by
    ``floor``, so every solve with the stack stays finite.
    """
    ipiv, info = lu_factor(lu, kl)
    if info <= 0:                       # info names the first zero pivot
        return ipiv, np.zeros(lu.shape[1] // size, dtype=int)
    diagonal = lu[2 * kl]
    zero = diagonal == 0.0
    segments = zero.reshape(-1, size)
    pivots = np.where(segments.any(axis=1), segments.argmax(axis=1) + 1, 0)
    segment, column = divmod(info - 1, size)
    pivots[segment] = column + 1
    diagonal[zero] = floor
    return ipiv, pivots


class FactoredResults(list):
    """A list of results and the number of band LU factorizations behind them."""

    def __init__(self, items=(), factorizations: int = 0):
        super().__init__(items)
        self.factorizations = factorizations


def _start_block(rows: int, cols: int, dtype) -> np.ndarray:
    """The deterministic (rows, cols) start block of an iteration, of ``dtype``
    (float or complex).

    Entry i of the flat sequence (C order; a complex entry takes two in a
    row, its real and imaginary parts) hashes the counter _SEED + i: the
    counter times the golden-ratio increment 0x9E3779B97F4A7C15, then
    splitmix64's finalizer, whose top 53 bits k give k 2^-52 - 1, in
    [-1, 1).  The values belong to this code alone, not to a numpy random
    stream, so no numpy version moves them.  uint64 arrays wrap silently,
    where uint64 scalars would warn, so every step is an array operation.
    """
    parts = 2 if np.dtype(dtype) == complex else 1
    z = (np.arange(rows * cols * parts, dtype=np.uint64) + _SEED) * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    values = (z >> 11).astype(float) * 2.0**-52 - 1.0
    return values.view(dtype).reshape(rows, cols)


def _lanczos(lu, ipiv, kl: int, size: int, singular: np.ndarray) -> np.ndarray | None:
    """Upper estimates of 1 / ||M^{-1}|| for every segment M of a stacked band LU.

    k = min(22, N d) steps of the Lanczos recurrence on the Hermitian
    M^{-1}, all segments in the same solves and each with its own
    coefficients, started from the same hashed vector (:func:`_start_block`,
    real for a real factor).  Each step is one in-place solve of the stacked
    vector, in one buffer bound once (``band_solver``), then the three-term
    update, without reorthogonalization.  The (k + 1) x k
    tridiagonal T of a segment satisfies M^{-1} V_k = V_{k+1} T, with V
    orthonormal in exact arithmetic, so sigma_max(T) is the largest growth
    of M^{-1} over the Krylov space and 1 / sigma_max(T) an upper estimate
    of 1 / ||M^{-1}||, the distance from 0 to the spectrum of M.  A segment
    whose Krylov space runs out stops cleanly: when a residual is at or
    below 1e-12 times the norm of its column of T, its next vector is zero.
    A vector whose sum of squares overflows is measured scaled by its
    largest entry.  The ``singular`` segments (an exact zero pivot) start
    from the zero vector, so their solves stay exactly zero and cannot
    reach their neighbours; their estimate is 0.  Returns None when an entry
    of T turns non-finite, which an overflowing solve gives, or when
    sigma_max(T) of another segment is zero: then some distance is 0, and in
    a stack 0 x inf or 0 / 0 may have carried that into the other segments.
    """
    steps, segments = min(_LANCZOS_STEPS, size), singular.size
    v = _start_block(size, 1, lu.dtype)[:, 0]
    basis = np.zeros((2, segments, size), dtype=lu.dtype)    # v_j in basis[j % 2]
    basis[0] = v / np.linalg.norm(v)
    basis[0, singular] = 0.0
    w = np.empty((segments, size), dtype=lu.dtype)
    solve = band_solver(lu, kl, w.reshape(-1), ipiv)
    # Re(x^H y) per segment is the product of the real views of x as a row
    # and y as a column
    rows = basis.view(float)[:, :, None, :]
    w_row, w_col = w.view(float)[:, None, :], w.view(float)[:, :, None]
    # alpha[j] and beta[j + 1] are column j of T; beta[0] = 0 and v_{-1} = 0
    # start the three-term recurrence
    alpha, beta = np.zeros((steps, segments)), np.zeros((steps + 1, segments))
    # an overflowing solve gives inf, and inf - inf NaN; both stay in T,
    # whose finiteness is checked once at the end
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            cur, prev = basis[j % 2], basis[1 - j % 2]
            np.copyto(w, cur)
            solve()
            w -= beta[j][:, None] * prev
            alpha[j] = np.matmul(rows[j % 2], w_col)[:, 0, 0]
            w -= alpha[j][:, None] * cur
            beta[j + 1] = np.sqrt(np.matmul(w_row, w_col)[:, 0, 0])
            if not beta[j + 1].max() < math.inf:
                # squares past the float range (a shift within about 1e-154
                # of an eigenvalue): the norms of w scaled by its largest
                # entries, 0 for a w that is 0
                peak = np.maximum(np.max(np.abs(w_row), axis=(1, 2)), _TINY)
                beta[j + 1] = peak * np.sqrt(np.sum((w_row / peak[:, None, None]) ** 2,
                                                    axis=(1, 2)))
            if j + 1 < steps:
                # a residual at rounding level is no new direction: the
                # Krylov space has run out, and the segment's next vector
                # and the coefficient that would bring it back are 0 (w
                # divided by inf)
                column = np.hypot(np.hypot(beta[j], alpha[j]), beta[j + 1])
                grows = beta[j + 1] > _KRYLOV_END * column
                beta[j + 1] *= grows
                np.divide(w, np.where(grows, beta[j + 1], math.inf)[:, None], out=prev)
    T = np.zeros((segments, steps + 1, steps))
    i = np.arange(steps)
    T[:, i, i] = alpha.T
    T[:, i + 1, i] = beta[1:].T
    T[:, i[:-1], i[1:]] = beta[1:-1].T
    if not np.all(np.isfinite(T)):
        return None
    top = np.linalg.svd(T, compute_uv=False)[:, 0]
    top[singular] = math.inf
    if not np.all(top > 0.0):
        return None
    return 1.0 / top


def _spectral_distance(op: TruncatedOperator, shifts) -> np.ndarray | None:
    """Upper estimates of dist(x, spec J_N) for the real ``shifts`` x, from
    one band LU.

    J_N - x of every shift is one segment of one stacked band
    (:func:`_band_storage`, :func:`_factor`), real when no band entry has a
    nonzero imaginary part (every real symmetric operator); one Lanczos
    iteration on the inverses serves every segment (:func:`_lanczos`).  An
    exact zero pivot makes x an eigenvalue, with distance 0.  Returns None
    when the iteration fails on more than one shift; a lone shift whose
    iteration fails gets distance 0.
    """
    size, kl = op.n_blocks * op.dim, 2 * op.dim - 1
    lu = _band_storage(op, [float(x) for x in shifts])
    ipiv, pivots = _factor(lu, kl, size, 1.0)
    dist = _lanczos(lu, ipiv, kl, size, pivots > 0)
    if dist is None and len(shifts) == 1:
        return np.zeros(1)
    return dist


def _normal_band(op: TruncatedOperator, centres, radii) -> tuple[np.ndarray, np.ndarray]:
    """(ab, s2): (J_N - c)^2 - s^2 I for every real centre c as one segment of
    a stacked upper band, kd = 3d - 1, in LAPACK's upper band storage (entry
    (i, j), i <= j, at row kd + i - j, column j), and each segment's s^2.

    J_N - c is block tridiagonal with diagonal blocks C_k = B_k - c and
    couplings A_k, so its square is block pentadiagonal:
    D0_k = C_k^2 + A_{k-1}^* A_{k-1} + A_k A_k^* on the diagonal,
    D1_k = C_k A_k + A_k C_{k+1} and D2_k = A_k A_{k+1} above it.  Each is a
    product of block row k of J_N - c, [A_{k-1}^*, C_k, A_k], with the
    matching part of the conjugate transpose of block row k, k + 1 or
    k + 2 (block column k, k + 1 or k + 2 of the Hermitian J_N - c): three
    batched products per stack, each entry an inner product of at most 3d
    products of the rounded C_k and A_k.  The blocks are written by
    :func:`_put_blocks`; every segment's first block column holds zero
    coupling blocks, so the segments are decoupled.  Real for a real band
    (every real symmetric operator), else complex.

    s^2 = rho^2 + 2 delta for the segment's radius rho (``radii``, one or
    one per centre), delta = kappa (3d + 4) eps t, is the margin of
    :func:`_screen`, with t the segment's computed trace of (J_N - c)^2,
    kappa = 1 on a real band and sqrt(2) on a complex one.  A segment whose
    trace is not finite, or within a factor 16 of the float range (squares
    past it), is not formed: it holds -I, with s^2 = inf.  The squares that
    overflow raise no warning.
    """
    centres = np.asarray(centres, dtype=float)
    radii = np.broadcast_to(np.asarray(radii, dtype=float), centres.shape)
    dtype = float if _real_band(op) else complex
    n, d = op.n_blocks, op.dim
    kd = 3 * d - 1
    a, b = (op.a_blocks, op.b_blocks) if dtype is complex else (
        op.a_blocks.real, op.b_blocks.real)
    diagonal = np.arange(d)
    rows = np.zeros((centres.size, n, d, 3 * d), dtype)     # [A_{k-1}^*, C_k, A_k]
    rows[:, 1:, :, :d] = a.conj().transpose(0, 2, 1)
    rows[:, :, :, d:2 * d] = b
    rows[:, :-1, :, 2 * d:] = a
    blocks = np.zeros((3, centres.size, n, d, d), dtype)    # D0_k, D1_{k-1}, D2_{k-2}
    with np.errstate(over="ignore", invalid="ignore"):
        rows[:, :, diagonal, d + diagonal] -= centres[:, None, None]
        # C-ordered: numpy's batched product is several times slower on a
        # transposed view
        cols = rows.conj().transpose(0, 1, 3, 2).copy()
        np.matmul(rows, cols, out=blocks[0])
        np.matmul(rows[:, :-1, :, d:], cols[:, 1:, :2 * d], out=blocks[1, :, 1:])
        np.matmul(rows[:, :-2, :, 2 * d:], cols[:, 2:, :d], out=blocks[2, :, 2:])
        trace = blocks[0][..., diagonal, diagonal].real.sum(axis=(1, 2))
    ab = np.zeros((kd + 1, centres.size * n * d), dtype, order="F")
    for offset in range(3):
        _put_blocks(ab, kd - offset * d, 0, blocks[offset].reshape(-1, d, d))
    segments = ab.T.reshape(centres.size, n * d, kd + 1)    # a view: ab is F-ordered
    formed = trace <= _HUGE / 16.0
    kappa = math.sqrt(2.0) if dtype is complex else 1.0
    s2 = np.where(formed, radii ** 2 + 2.0 * kappa * (3 * d + 4) * _EPS * trace, math.inf)
    segments[~formed] = 0.0
    segments[~formed, :, kd] = -1.0
    segments[formed, :, kd] -= s2[formed, None]
    return ab, s2


def _screen(op: TruncatedOperator, centres, radii) -> np.ndarray:
    """Which windows (c - rho, c + rho), for the real ``centres`` c and
    ``radii`` rho (one, or one per centre), provably hold no eigenvalue of
    J_N, from one band Cholesky of their stack; the closed windows
    [c - rho, c + rho] then hold none either.

    J_N - c is Hermitian, so dist(c, spec J_N)^2 is the smallest eigenvalue
    of (J_N - c)^2, and (J_N - c)^2 - s^2 I is positive definite iff
    dist > s.  That matrix of every window is one segment of one stacked
    band (:func:`_normal_band`), which is factored in place by
    ``cholesky_factor`` (LAPACK ``dpbtrf``, or ``zpbtrf`` on a complex band,
    upper).  Its ``info`` names the first column whose leading minor fails:
    every segment that ends before that column has a completed
    factorization and is certified, that segment is not, and the
    factorization resumes on the F-ordered column view of the segments after
    it, which the failed one left untouched (their coupling entries are
    zero).  So each window is judged on its own, with the outcome it gets
    when screened alone, and every column is factored once: one call is one
    factorization.

    The margin is s^2 = rho^2 + 2 delta with delta = kappa (3d + 4) eps t,
    where t is the segment's computed trace, eps = 2u = 2^-52 and kappa is 1
    on a real band and sqrt(2) on a complex one.  delta bounds, in the
    2-norm, everything between the exact C^2 - s^2 I (C = J_N - c) and the
    matrix whose exact Cholesky factor the computed one is.  Let
    T = ||C'||_F^2 = trace(C'^2) for the computed C', and g = gamma_{3d}
    = 3d u / (1 - 3d u) in real arithmetic, sqrt(2) gamma_{3d+2} in complex
    arithmetic (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 3.6).  Then:

    * C' = C + D with D diagonal, |D| <= u |C| (the rounding of B_k - c), so
      ||C'^2 - C^2||_2 <= (2u + u^2) ||C||_F^2 <= (2u + u^2) T / (1 - u)^2;
    * each entry of the formed square is an inner product of at most 3d
      products, so its error F has |F| <= g |C'|^2 and ||F||_2 <= g T;
    * subtracting s^2 rounds each diagonal entry by at most u (1 + g) T;
    * a band Cholesky that completes gives R^* R = A + E with
      |E| <= g |R^*| |R| (Higham, Thm 10.3; inner products of at most
      kd + 1 = 3d terms), so ||E||_2 <= g ||R||_F^2 = g trace(A + E), and
      with |trace E| <= g ||R||_F^2 that is at most g / (1 - g) trace(A)
      <= g (1 + g) T / (1 - g).

    The sum is (3u + 2g) T to first order: (3d + 1.5) eps T in real and
    (sqrt(2) (3d + 2) + 1.5) eps T in complex arithmetic, which delta covers
    with t >= T (1 - g) (1 - gamma_{N d}), the rounding of the trace.  So a
    completed factorization gives dist(c, spec J_N)^2 >= s^2 - delta
    = rho^2 + delta > rho^2, the second delta absorbing the rounding of s^2
    and delta themselves (at most eps s^2: the first pivot of a completed
    factorization is positive, so T exceeds s^2 to rounding and
    delta >= 7 eps s^2).  The bound holds for any summation
    order, so for LAPACK's blocked factorization too.  A segment that is not
    formed (:func:`_normal_band`) fails at its first column.
    """
    ab, s2 = _normal_band(op, centres, radii)
    size = op.n_blocks * op.dim
    certified = np.ones(s2.size, dtype=bool)
    start = 0
    while start < s2.size and (info := cholesky_factor(ab[:, start * size:])):
        start += (info - 1) // size
        certified[start] = False
        start += 1
    return certified


def green_blocks(op: TruncatedOperator, zetas, rows, cols,
                 health: bool = True) -> FactoredResults:
    """Green blocks G_mj(zeta) for all (m, j) in rows x cols, for every zeta.

    Stacks J_N - zeta I for every zeta as decoupled segments of one complex
    band (LAPACK general band storage, kl = ku = 2d - 1) and factors the
    stack once (:func:`_factor`), each segment's LU that of its own
    J_N - zeta.  One in-place solve (``band_solver``) on an F-ordered
    right-hand side, with e_j in every segment and zero in a singular one,
    solves (J_N - zeta I) X = E_j for all zetas and column blocks; the block
    norms come from :func:`_block_norms`.  Time is O(Z N d^3) and memory
    O(Z N d^2) for Z zetas; no dense matrix is built.  A non-finite zeta
    raises ParameterError.

    Returns one GreenTable or SingularityError per zeta, in order.  A zeta is
    singular on an exact zero pivot, or when ``sigma_min`` puts it within
    1e-8 of the truncated spectrum; a condition estimate above 1e12 is
    flagged, not fatal.  J_N is Hermitian, so the smallest singular value of
    J_N - zeta is exactly hypot(dist(Re zeta, spec J_N), Im zeta), and
    ``sigma_min`` is that with an upper estimate of the distance from the
    real shift Re zeta (:func:`_spectral_distance`): 22 Lanczos steps on
    (J_N - Re zeta)^{-1}, on a band LU of its own, in real arithmetic for a
    real band, all estimated zetas in one stack.  The distance is the largest
    growth of (J_N - Re zeta)^{-1} over a Krylov space of dimension 22, and
    0 when Re zeta gives an exact zero pivot.  It is the distance, to
    rounding, where N d <= 22, where the nearest eigenvalue is isolated, and
    where eigenvalues on both sides are equally near (example 2, x = 3,
    zeta = 0.5: 0.5 at N = 600 and 1200).  It stays high where the nearest
    eigenvalues form a band-edge cluster that 22 steps do not resolve: on
    example 2, by 2.7e-5 relative at x = 2.5, N = 120, zeta = 0.3 and by
    8.8e-6 at x = 4, N = 60, zeta = 1.2.  Those two figures describe the one
    start vector the iteration takes (:func:`_start_block`); they are not
    bounds.  ``condition`` is an upper bound on ||J_N - zeta|| over
    ``sigma_min``.

    With ``health=False`` the estimate runs only where the verdict needs
    it: sigma_min(J_N - zeta) >= |Im zeta|, so a zeta with
    |Im zeta| > 1e-8 cannot be singular in that sense, and the zetas with
    |Im zeta| <= 1e-8 are screened first by one band Cholesky of their
    stacked (J_N - Re zeta)^2 - s^2 I (:func:`_screen`): where it
    completes it proves dist(Re zeta, spec J_N) >= 2e-8, where the upper
    estimate of ``health=True`` clears 1e-8 too, so the verdict is the same.
    Only the zetas it leaves open are estimated, with the values they get
    with ``health=True``.  The tables of the other zetas carry
    ``sigma_min = condition = nan`` (and ``ill_conditioned = False``); their
    blocks, norms and verdicts are those of ``health=True``.

    When the estimate fails on the stack (:func:`_spectral_distance` returns
    None), or the solve turns non-finite, which one segment's inf could
    carry into its neighbours inside the stacked solve, every zeta without
    an exact zero pivot is solved on its own instead.  ``factorizations``
    on the result counts the band factorizations made, LU or Cholesky: one
    LU for the stack, plus one Cholesky when ``health=False`` screens any
    zeta, plus one LU for the estimate when any zeta is estimated.
    """
    zetas = [complex(z) for z in zetas]
    if bad := [zeta for zeta in zetas if not np.isfinite(zeta)]:
        raise ParameterError(f"zeta must be finite, got {bad[0]}")
    n, d = op.n_blocks, op.dim
    rows = sorted(set(int(m) for m in rows))
    cols = sorted(set(int(j) for j in cols))
    for idx in rows + cols:
        if not 1 <= idx <= n:
            raise ParameterError(f"block index {idx} outside [1, {n}]")
    kl = 2 * d - 1
    size = n * d
    lu = _band_storage(op, zetas)
    norm_upper = _norm_upper(lu, kl, size)
    ipiv, pivots = _factor(lu, kl, size, 1.0)
    out = FactoredResults([None] * len(zetas), factorizations=1)
    regular = []                            # the zetas without an exact zero pivot
    for i, column in enumerate(pivots.tolist()):
        if column:
            out[i] = SingularityError(
                f"zeta = {zetas[i]} is an eigenvalue of the truncation "
                f"(exact zero pivot in column {column})")
        else:
            regular.append(i)
    # J_N is Hermitian, so sigma_min(J_N - zeta) = hypot(dist(Re zeta,
    # spec J_N), Im zeta) >= |Im zeta|: without health figures only the
    # zetas near the real axis need a verdict, and only those the
    # certificate leaves open need the estimate
    estimated = [i for i in regular if health or abs(zetas[i].imag) <= SINGULARITY_TOL]
    if estimated and not health:
        certified = _screen(op, [zetas[i].real for i in estimated], 2.0 * SINGULARITY_TOL)
        out.factorizations += 1
        estimated = [i for i, done in zip(estimated, certified.tolist()) if not done]
    sigma = np.full(len(zetas), math.nan)
    if estimated:
        dist = _spectral_distance(op, [zetas[i].real for i in estimated])
        out.factorizations += 1
        if dist is None:
            return _one_at_a_time(op, zetas, rows, cols, regular, out, health)
        sigma[estimated] = np.hypot(dist, [zetas[i].imag for i in estimated])
    solved = []
    for i in regular:
        if sigma[i] <= SINGULARITY_TOL:
            out[i] = SingularityError(
                f"zeta = {zetas[i]} is within {sigma[i]:.3e} of the truncated "
                f"spectrum (tolerance {SINGULARITY_TOL:.0e})")
        else:
            solved.append(i)
    if not solved:
        return out
    # zero right-hand sides in the singular segments give exact zeros there;
    # entry (segment, m, r, j, c) of the F-ordered right-hand side is entry
    # (j, c, segment, m, r) of its C-ordered transpose
    rhs = np.zeros((len(zetas) * size, len(cols) * d), dtype=complex, order="F")
    entries = rhs.T.reshape(len(cols), d, len(zetas), n, d)
    pos = np.arange(len(cols))
    entries[pos, :, np.array(solved)[:, None], np.array(cols) - 1, :] = np.eye(d)
    band_solver(lu, kl, rhs, ipiv)()
    if len(zetas) > 1 and not np.all(np.isfinite(rhs)):
        return _one_at_a_time(op, zetas, rows, cols, regular, out, health)
    X = entries.transpose(2, 3, 4, 0, 1)[np.ix_(solved, np.array(rows) - 1)]
    X.flags.writeable = False
    norm_stacks = _block_norms(X.transpose(0, 1, 3, 2, 4))
    norm_stacks.flags.writeable = False
    for t, i in enumerate(solved):
        condition = float(norm_upper[i] / sigma[i])
        out[i] = GreenTable(
            zeta=zetas[i], dim=d, rows=tuple(rows), cols=tuple(cols),
            stack=X[t].transpose(0, 2, 1, 3), norm_stack=norm_stacks[t],
            sigma_min=float(sigma[i]), condition=condition,
            ill_conditioned=condition > CONDITION_LIMIT)
    return out


def _norm_upper(ab: np.ndarray, kl: int, size: int) -> np.ndarray:
    """Upper bounds on ||J_N - zeta|| for the segments of the stacked band
    ``ab``: the Frobenius norm, or sqrt(||.||_1 ||.||_inf), the largest column
    sum since |J_N - zeta| is symmetric, whichever is smaller."""
    band = np.abs(ab[kl:]).T.reshape(-1, size, 2 * kl + 1)
    with np.errstate(over="ignore"):
        frobenius = np.sqrt(np.sum(band * band, axis=(1, 2)))
    if not frobenius.max() < math.inf:
        # squares past the float range (|zeta| or an entry above about
        # 1e154): each segment's norm scaled by its largest entry
        peak = np.maximum(np.max(band, axis=(1, 2)), _TINY)
        frobenius = peak * np.sqrt(np.sum((band / peak[:, None, None]) ** 2, axis=(1, 2)))
    return np.minimum(np.max(np.sum(band, axis=2), axis=1), frobenius)


def _one_at_a_time(op, zetas, rows, cols, todo, out, health) -> FactoredResults:
    """Fill ``out`` at the positions ``todo`` with one single-zeta stack each."""
    for i in todo:
        single = green_blocks(op, [zetas[i]], rows, cols, health)
        out[i] = single[0]
        out.factorizations += single.factorizations
    return out


def green_block(op: TruncatedOperator, zeta: complex, rows, cols) -> GreenTable:
    """Green blocks G_mj(zeta) for all (m, j) in rows x cols: the one-zeta
    case of :func:`green_blocks`, a single band LU of J_N - zeta I.

    O(N d^3) time and O(N d^2) memory, no dense matrix.  Raises
    SingularityError on an exact zero pivot, or when the smallest singular
    value, hypot(dist(Re zeta, spec J_N), Im zeta) with an upper estimate of
    the distance from 22 Lanczos steps on a band LU of J_N - Re zeta, puts
    zeta within 1e-8 of the truncated spectrum; a condition estimate above
    1e12 is flagged, not fatal.  The estimate always runs here: ``sigma_min`` and
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
    """J_N X for an (N d, k) array, straight from the block stacks; a real X,
    which only a real band gets, meets the blocks' real parts."""
    n, d = op.n_blocks, op.dim
    a, b = (op.a_blocks, op.b_blocks) if np.iscomplexobj(X) else (
        op.a_blocks.real, op.b_blocks.real)
    Xb = X.reshape(n, d, -1)
    Y = b @ Xb
    Y[:-1] += a @ Xb[1:]
    Y[1:] += a.conj().transpose(0, 2, 1) @ Xb[:-1]
    return Y.reshape(X.shape)


def _inverse_block(op: TruncatedOperator, shift: float, k: int, steps: int,
                   floor: float) -> tuple[np.ndarray, np.ndarray]:
    """(X, J_N X): the orthonormal (N d, k) block X after ``steps`` steps of
    block inverse iteration on the band LU of J_N - shift.

    The iteration starts from the hashed start block (:func:`_start_block`)
    and each step solves in place and then orthonormalizes the block (a QR;
    one vector is just normalized, which is its QR up to a unit phase that
    nothing downstream sees).  Column j of a QR depends on columns 1..j
    alone, so the first j columns of X are those of a j-column iteration
    from the same first j start columns, and carry no share of the later
    ones: entry by entry, to rounding.  The real shift keeps a real band
    real: a real LU and real start vectors then, complex ones otherwise.  A
    shift that is an eigenvalue to the last bit gives an exact zero pivot;
    as in LAPACK's ``dstein``, it is replaced by ``floor`` and the iteration
    runs on, since the solve then amplifies exactly the wanted eigenvector.
    """
    n, d = op.n_blocks, op.dim
    kl = 2 * d - 1
    lu = _band_storage(op, shift)
    ipiv, _ = _factor(lu, kl, n * d, floor)
    X = np.asfortranarray(_start_block(n * d, k, lu.dtype))
    solve = band_solver(lu, kl, X, ipiv)
    for _ in range(steps):
        solve()
        if k == 1:
            X /= np.linalg.norm(X)
        else:
            X[:] = np.linalg.qr(X)[0]       # Q is C-ordered: copied into the block
    return X, _apply(op, X)


def _ritz(X: np.ndarray, JX: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, J_N U): the Ritz vectors of J_N on the span of the orthonormal X,
    from Rayleigh-Ritz on the block."""
    _, V = np.linalg.eigh(X.conj().T @ JX)
    return X @ V, JX @ V


def _inverse_steps(vals: np.ndarray, cluster: list, shift: float,
                   lo: float, hi: float, floor: float) -> int:
    """Inverse-iteration steps that resolve every entry above the smallest normal float.

    Each step shrinks the share of the eigenvectors outside the cluster by
    rho = max_in |lambda - shift| / min_out |lambda - shift|, uniformly in
    every entry; after ceil(log(tiny) / log(rho)) steps, plus one for the
    start block, what is left lies below the smallest normal float, so the
    tiny far blocks of a localized eigenvector are resolved too, not just its
    norm.  At most ``_INVERSE_STEPS``.  ``vals`` are the eigenvalues in the
    window (lo, hi), which holds ``shift``; every other eigenvalue lies at or
    beyond lo or hi, so min_out is bounded below by the nearer of
    |shift - lo| and |shift - hi|, and rho from this bound is an upper bound.
    The bisected ``vals`` are only accurate to about eps ||J_N||, so each
    in-cluster distance is taken as at least ``floor``, 8 eps
    max(||J_N||, 1): the shift at a bisected eigenvalue is not the
    eigenvalue itself.
    """
    dist = np.abs(vals - shift)
    outside = min(np.min(np.delete(dist, cluster), initial=math.inf),
                  abs(shift - lo), abs(shift - hi))
    rho = max(float(np.max(dist[cluster])), floor) / outside
    if not rho < 1.0:
        return _INVERSE_STEPS
    return min(_INVERSE_STEPS, 1 + math.ceil(math.log(_TINY) / math.log(rho)))


class GapEigenpairs(FactoredResults):
    """The pairs of :func:`eigenpairs_in_gap`, with what its search found on
    the way: the ``gap`` and the filters (``drift_tol``, ``embed_tol``) it
    applied, the bisected eigenvalues ``eigvals`` of J_N inside its window,
    ascending, and the extreme ones, ``lowest`` and ``highest``."""

    def __init__(self, gap: GapInterval, drift_tol: float, embed_tol: float,
                 eigvals: np.ndarray, lowest: float, highest: float):
        super().__init__()
        self.gap, self.drift_tol, self.embed_tol = gap, drift_tol, embed_tol
        self.eigvals, self.lowest, self.highest = eigvals, lowest, highest


def _window(gap: GapInterval) -> tuple[float, float]:
    """The eigen-search window (r + margin, s - margin), margin 2% of the gap width."""
    margin = _MARGIN_FRAC * gap.width
    return gap.r + margin, gap.s - margin


def _clusters(vals: np.ndarray) -> list:
    """Index groups of the ascending ``vals``: a step above 1e-8 starts a new one."""
    return np.split(np.arange(vals.size), np.nonzero(np.diff(vals) > _CLUSTER_TOL)[0] + 1)


def _cut_coupling(op: TruncatedOperator) -> np.ndarray:
    """Block (N + 1, N) of the 2N section, A_N^*, real when it has no
    imaginary part; ParameterError for a truncation without a sequence."""
    if op.sequence is None:
        raise ParameterError("a gap eigen-search needs a sequence-backed truncation")
    n = op.n_blocks
    a_cut = op.sequence.blocks(n, n + 1)[0][0].conj().T
    return a_cut if np.any(a_cut.imag) else a_cut.real


def _filtered_pairs(op: TruncatedOperator, U: np.ndarray, JU: np.ndarray, shift: float,
                    a_cut: np.ndarray, window: tuple, drift_tol: float, embed_tol: float,
                    norm_scale: float) -> list:
    """The eigenpairs in the span of the orthonormal U (with J_N U) that pass
    the artifact filters of :func:`eigenpairs_in_gap`: the right singular
    vectors of the embedded residual map [(J_N - shift) U; A_N^* U_N] whose
    singular value is at most embed_tol norm_scale, with their Rayleigh
    quotient theta inside ``window``, drift below drift_tol and residual at
    most RESIDUAL_TOL norm_scale, normalized."""
    n, d = op.n_blocks, op.dim
    lo, hi = window
    W = np.vstack([JU - shift * U, a_cut @ U[-d:]])
    _, svals, vh = np.linalg.svd(W, full_matrices=False)
    pairs = []
    for i in range(U.shape[1] - 1, -1, -1):
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
        pairs.append(EigenpairInGap(zeta=theta, blocks=blocks, residual=residual, drift=drift))
    return pairs


def eigenpairs_in_gap(op: TruncatedOperator, gap: GapInterval,
                      drift_tol: float = 1e-6, embed_tol: float = 1e-6,
                      near=None) -> GapEigenpairs:
    """Eigenpairs of J_N strictly inside the gap, filtered of cut artifacts.

    Candidates are eigenvalues in (r + margin, s - margin) with margin 2% of
    the gap width.  They and the extreme eigenvalues, whose larger modulus is
    ||J_N||, come from ``eigvals_window`` on the lower rows of the LU band
    storage (kd = 2d - 1): one reduction to tridiagonal form (LAPACK
    ``dsbtrd`` when no band entry has a nonzero imaginary part, as for every
    real symmetric operator, ``zhbtrd`` otherwise), then bisection
    (``dstebz``) for the window and for the lowest and highest eigenvalue
    only; the result keeps them (:class:`GapEigenpairs`), for the 2N partner
    search (:func:`partners_in_gap`).  Candidates within 1e-8 of each other
    form a cluster, whose eigenvectors come from block inverse iteration on
    the band LU of J_N - mean, at the cluster's mean bisected eigenvalue, in
    real arithmetic for a real band, followed by Rayleigh-Ritz.  The
    iteration runs until the other eigenvectors' share is below the
    smallest normal float, so far blocks of a localized eigenvector are
    resolved entrywise; the shift's distance to its cluster counts as at
    least 8 eps max(||J_N||, 1), the accuracy of the bisected eigenvalue.

    ``near``, a sequence of eigenvalues, restricts the iteration to the
    clusters whose eigenvalue range, widened by 2 drift_tol on each side,
    holds one of them.  A pair within drift_tol of a value of ``near`` is
    never lost, and each cluster's iteration starts from the same hashed
    block and is independent of the others, so every pair returned is
    bit-identical to the full search's.  It is the fallback of
    :func:`partners_in_gap`, which finds the 2N partners of the N section's
    pairs without this reduction wherever a band Cholesky certifies their
    neighbourhood, and hands the other clusters' eigenvalues here.

    A Dirichlet cut manufactures spurious in-gap eigenpairs localized at the
    far boundary; these can be perfectly N-stable (the cut exists at every
    N), so stability of the eigenvalue alone cannot reject them.  Each
    candidate is therefore also embedded (zero-padded) into the 2N section,
    where its residual is exactly [(J_N - x) u ; A_N^* u_N ; 0], so no 2N
    section is assembled: genuine eigenvectors of the infinite operator keep
    a tiny residual there, boundary artifacts jump to O(1).  Near-degenerate
    clusters are re-separated by an SVD of this embedded residual map, so a
    genuine mode hiding inside a degenerate pair is still found
    (:func:`_filtered_pairs`).  ``drift`` is ||(J_2N - theta) E u||
    (E = zero padding), an upper bound on dist(theta, spec J_2N) because
    J_2N is Hermitian.  The reduction takes O((N d)^2 d) time, in real
    arithmetic about half that of the complex one, and the bisection
    O(N d) per wanted eigenvalue (one O(N d) Sturm count per halving, about
    53 halvings to full precision), each cluster O(N d^3) more; memory is
    O(N d^2) and no dense matrix is built.  The pairs come sorted by
    eigenvalue, with ``factorizations`` counting the band LU
    factorizations: one per iterated cluster.  ``blocks`` are real
    (float64) on a real band.
    """
    a_cut = _cut_coupling(op)
    window = lo, hi = _window(gap)
    vals, lowest, highest = eigvals_window(_hermitian_band(op), lo, hi)
    vals = vals[(vals > lo) & (vals < hi)]
    results = GapEigenpairs(gap, drift_tol, embed_tol, vals, lowest, highest)
    clusters = _clusters(vals) if vals.size else []
    if near is not None:
        near = np.asarray(near, dtype=float)
        reach = 2.0 * drift_tol
        clusters = [c for c in clusters
                    if np.any((near >= vals[c[0]] - reach) & (near <= vals[c[-1]] + reach))]
    norm_scale = max(abs(lowest), abs(highest), 1.0)
    floor = _SHIFT_FLOOR_ULPS * _EPS * norm_scale
    results.factorizations = len(clusters)
    for cluster in clusters:
        mean_val = float(np.mean(vals[cluster]))
        U, JU = _ritz(*_inverse_block(op, mean_val, len(cluster),
                                      _inverse_steps(vals, cluster, mean_val, lo, hi, floor),
                                      floor))
        results.extend(_filtered_pairs(op, U, JU, mean_val, a_cut, window,
                                       drift_tol, embed_tol, norm_scale))
    results.sort(key=lambda p: p.zeta)
    return results


def partners_in_gap(op: TruncatedOperator, found: GapEigenpairs) -> FactoredResults:
    """The eigenpairs of the 2N section ``op`` that can partner the N
    section's pairs ``found`` (:func:`eigenpairs_in_gap`), with its gap and
    filters, and without reducing the 2N band.

    The N pairs' thetas are grouped into clusters as eigenvalues are (steps
    above 1e-8).  For a cluster of k thetas with mean theta, let
    r = 2 drift_tol and h half the distance from theta to the nearer window
    end or to the nearest bisected in-window eigenvalue of the N section
    farther than r from every theta of the cluster.  One band Cholesky of
    the 2N section (:func:`_screen`) certifies, for every cluster at once,
    that the annulus r <= |lambda - theta| <= h, as two closed windows,
    holds no eigenvalue of J_2N.  Then block inverse iteration at theta with
    k + 1 vectors (:func:`_inverse_block`, one band LU per cluster), for as
    many steps as :func:`_inverse_steps` gives with every other eigenvalue at
    least h away and the cluster's eigenvalues within each theta's drift,
    the bound on its distance to spec J_2N (exact when k = 1).  The cluster
    is accepted when the k + 1 Ritz values of (J_2N - theta)^2 on the
    iterated block, the squared singular values of (J_2N - theta) X, put
    exactly k at or below r^2 and the last at or above h^2: by Poincare's
    interlacing J_2N then has at least k eigenvalues within r of theta,
    and with more, a converged block would put all k + 1 Ritz values at or
    below r^2 (unless its start block had no share of them).  The pairs come
    from the block's first k columns alone (:func:`_ritz`), which carry no
    share of the last one, so the tiny far blocks of a localized eigenvector
    stay resolved entry by entry, and pass the filters of
    :func:`eigenpairs_in_gap` unchanged (:func:`_filtered_pairs`).
    ``norm_scale`` is max(|lowest|, |highest|, 1) of the N section, at most
    ||J_2N|| by interlacing, so no filter is looser than in a search of the
    2N section.

    A cluster goes to the fallback when its annulus has no room (h <= r),
    when the N section itself has other than k eigenvalues within r of its
    thetas (such as a far-boundary artifact beside a pair, which the 2N
    section repeats at its own far boundary), when the annulus is not
    certified or when the count differs: one ``near=`` search of the 2N section
    (:func:`eigenpairs_in_gap`, one reduction) for all of them.  The pairs
    come sorted by eigenvalue; ``factorizations`` counts the band LU
    factorizations, one per cluster iterated here plus the fallback's, and
    ``fallbacks`` the clusters that took the fallback.  The screen takes the
    place of the reduction, O(C N d^3) for C clusters against O((N d)^2 d).
    """
    a_cut = _cut_coupling(op)
    results = FactoredResults()
    results.fallbacks = 0
    if not found:
        return results
    window = lo, hi = _window(found.gap)
    inner = 2.0 * found.drift_tol
    thetas = np.array([p.zeta for p in found])
    drifts = np.array([p.drift for p in found])
    norm_scale = max(abs(found.lowest), abs(found.highest), 1.0)
    floor = _SHIFT_FLOOR_ULPS * _EPS * norm_scale
    fallback, annuli = [], []
    for cluster in _clusters(thetas):
        theta = float(np.mean(thetas[cluster]))
        own = np.any(np.abs(found.eigvals[:, None] - thetas[cluster]) <= inner, axis=1)
        outer = 0.5 * min(theta - lo, hi - theta,
                          np.min(np.abs(found.eigvals[~own] - theta), initial=math.inf))
        if inner < outer and np.count_nonzero(own) == cluster.size < op.n_blocks * op.dim:
            annuli.append((cluster, theta, outer))
        else:
            fallback.append(cluster)
    # each annulus as two windows, the radius widened by the rounding of
    # their centres and radius
    centres = [theta + side * 0.5 * (outer + inner) for _, theta, outer in annuli
               for side in (-1.0, 1.0)]
    radii = [0.5 * (outer - inner) + 4.0 * _EPS * (abs(theta) + outer)
             for _, theta, outer in annuli for _ in range(2)]
    certified = _screen(op, centres, radii).reshape(-1, 2).all(axis=1) if annuli else []
    for (cluster, theta, outer), empty in zip(annuli, certified):
        if not empty:
            fallback.append(cluster)
            continue
        spread = np.concatenate([thetas[cluster] - drifts[cluster],
                                 thetas[cluster] + drifts[cluster]])
        steps = _inverse_steps(spread, np.arange(spread.size), theta,
                               theta - outer, theta + outer, floor)
        X, JX = _inverse_block(op, theta, cluster.size + 1, steps, floor)
        results.factorizations += 1
        svals = np.linalg.svd(JX - theta * X, compute_uv=False)
        if not (svals[1] <= inner and svals[0] >= outer):
            fallback.append(cluster)
            continue
        U, JU = _ritz(X[:, :-1], JX[:, :-1])
        results.extend(_filtered_pairs(op, U, JU, theta, a_cut, window,
                                       found.drift_tol, found.embed_tol, norm_scale))
    if fallback:
        near = eigenpairs_in_gap(op, found.gap, found.drift_tol, found.embed_tol,
                                 near=thetas[np.concatenate(fallback)])
        results.extend(near)
        results.factorizations += near.factorizations
        results.fallbacks = len(fallback)
    results.sort(key=lambda p: p.zeta)
    return results
