"""Spectra, Green blocks and gap detection for truncated block Jacobi operators.

Two spectrum estimators are available: a Hermitian eigensolve of the finite
truncation, and (for operators with constant blocks) the symbol
phi(theta) = exp(i theta) A + exp(-i theta) A^* + B whose eigenvalue ranges
over the unit circle fill the essential spectrum.  Gap endpoints detected
from symbol samples are refined by golden-section search on the eigenvalue
functions; truncation-only gaps keep sample resolution.

Green blocks G_mj(zeta) = P_m (J_N - zeta)^{-1} P_j are computed from one
banded LU factorization per zeta (LAPACK ``zgbtrf`` on the block-tridiagonal
band, kl = ku = 2d - 1), reused across all requested column blocks.  Cost
and memory are O(N d^3) and O(N d^2): no dense (N d) x (N d) matrix is built.

Gap eigenpairs are banded too: one Hermitian band eigensolve (kd = 2d - 1)
gives the eigenvalues of J_N, block inverse iteration on the band LU gives
the eigenvectors of the in-gap ones, and the far-edge artifact filter reads
only the coupling A_N to block N + 1 instead of a 2N section.  Only
``truncated_spectrum`` diagonalizes the dense truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .boundfns import GapInterval
from .errors import ConvergenceError, ParameterError, SingularityError
from .operators import (TruncatedOperator, as_block, hermitian_deviation,
                        HERMITICITY_TOL)

#: zeta must stay at least this far from the truncated spectrum
SINGULARITY_TOL = 1e-8
#: condition estimates above this attach an ill-conditioned warning
CONDITION_LIMIT = 1e12
#: relative residual allowed for eigenpairs
RESIDUAL_TOL = 1e-8

_POWER_ITERATIONS = 40
#: seed of the random start vectors of both inverse iterations
_SEED = 20260810
#: cap on block inverse-iteration steps per eigenvalue cluster
_INVERSE_STEPS = 40
#: imaginary part of the inverse-iteration shift, relative to max(||J_N||, 1)
_SHIFT_IMAG_REL = 1e-10
#: entries of a length-n vector below this / sqrt(n) keep its sum of squares finite
_SQNORM_SAFE = math.sqrt(np.finfo(float).max)
#: smallest normal float
_TINY = np.finfo(float).tiny


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
    """All N*d eigenvalues of the Hermitian truncation, sorted ascending.

    Residuals ||J v - lambda v|| are verified against 1e-8 * ||J|| for every
    pair; a violation means the eigensolver failed and raises.
    """
    M = op.to_dense()
    vals, vecs = np.linalg.eigh(M)
    norm_j = float(np.max(np.abs(vals))) if vals.size else 0.0
    residual = float(np.max(np.linalg.norm(M @ vecs - vecs * vals, axis=0)))
    if residual > RESIDUAL_TOL * max(norm_j, 1.0):
        raise ConvergenceError(
            f"eigensolver residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} * ||J||")
    vals = np.sort(vals)
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

def _golden_extremum(f, a: float, b: float, sign: float) -> tuple[float, float]:
    """Golden-section maximization of sign*f over [a, b]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * f(c), sign * f(d)
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _refine_symbol_level(est: SpectrumEstimate, level: float, side: str) -> float:
    """Refined gap endpoint: extremize the symbol eigenvalues nearest ``level``.

    side == "below": maximize the largest eigenvalue <= level;
    side == "above": minimize the smallest eigenvalue >= level.
    The coarse bracket is read from the grid's eigenvalue table.
    """
    A, B = est.symbol

    def nearest(vals):
        if side == "below":
            return np.max(np.where(vals <= level, vals, -math.inf), axis=-1)
        return np.min(np.where(vals >= level, vals, math.inf), axis=-1)

    def f(theta):
        return float(nearest(np.linalg.eigvalsh(
            _symbol_matrices(A, B, np.array([theta]))[0])))

    coarse = nearest(est.symbol_eigvals)
    k = int(np.argmax(coarse)) if side == "below" else int(np.argmin(coarse))
    theta = 2.0 * math.pi * k / est.size
    h = 2.0 * math.pi / est.size
    sign = 1.0 if side == "below" else -1.0
    _, val = _golden_extremum(f, theta - h, theta + h, sign)
    return val


def detect_gap(est: SpectrumEstimate, tol: float) -> list[GapInterval]:
    """Maximal open intervals between consecutive samples longer than ``tol``.

    Symbol-based estimates get their endpoints refined by golden-section
    search on the eigenvalue functions; sorted by length descending.
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


def _band_storage(op: TruncatedOperator, zeta: complex) -> np.ndarray:
    """J_N - zeta in LAPACK general band storage with kl = ku = 2d - 1.

    Entry (i, j) of the matrix sits at row 2 kl + i - j, column j; the first
    kl rows are left zero for the fill-in of partial pivoting.  Each of the
    three block diagonals is written by one scatter over all N blocks.
    """
    n, d = op.n_blocks, op.dim
    kl = 2 * d - 1
    ab = np.zeros((3 * kl + 1, n * d), dtype=complex, order="F")
    r, c = np.divmod(np.arange(d * d), d)      # entry (r, c) of a d x d block
    main = 2 * kl + r - c
    col = d * np.arange(n)[:, None] + c
    ab[main, col] = op.b_blocks.reshape(n, d * d)
    ab[main - d, col[:-1] + d] = op.a_blocks.reshape(n - 1, d * d)
    ab[main + d, col[:-1]] = op.a_blocks.conj().transpose(0, 2, 1).reshape(n - 1, d * d)
    ab[2 * kl] -= zeta
    return ab


def _smallest_singular_value(lu, ipiv, kl: int, size: int) -> float:
    """Inverse power iteration on (M M^H)^{-1} using an existing band LU factorization."""
    rng = np.random.default_rng(_SEED)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITERATIONS):
        w, _ = zgbtrs(lu, kl, kl, v, ipiv)
        if not np.all(np.isfinite(w)):
            return 0.0
        w, _ = zgbtrs(lu, kl, kl, w, ipiv, trans=2)
        # a sum of squares that would overflow means sigma = 0; checking the
        # peak first keeps np.linalg.norm from warning about that overflow
        if not np.max(np.abs(w)) < _SQNORM_SAFE / math.sqrt(size):
            return 0.0
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return 0.0
        v = w / lam
    return 1.0 / math.sqrt(lam)


def green_block(op: TruncatedOperator, zeta: complex, rows, cols) -> GreenTable:
    """Green blocks G_mj(zeta) for all (m, j) in rows x cols.

    Factors J_N - zeta I in LAPACK band storage (``zgbtrf``, LU with partial
    pivoting, kl = ku = 2d - 1) straight from the operator's block stacks and
    solves (J_N - zeta I) X = E_j for all requested column blocks in one
    ``zgbtrs`` call: O(N d^3) time and O(N d^2) memory, no dense matrix.
    Raises SingularityError on an exact zero pivot, or when the smallest
    singular value (40 steps of inverse power iteration on the same LU)
    puts zeta within 1e-8 of the truncated spectrum; a condition estimate
    above 1e12 is flagged, not fatal.
    """
    zeta = complex(zeta)
    n, d = op.n_blocks, op.dim
    rows = sorted(set(int(m) for m in rows))
    cols = sorted(set(int(j) for j in cols))
    for idx in rows + cols:
        if not 1 <= idx <= n:
            raise ParameterError(f"block index {idx} outside [1, {n}]")
    kl = 2 * d - 1
    ab = _band_storage(op, zeta)
    band = np.abs(ab[kl:])
    # |J_N - zeta| is symmetric, so ||.||_1 = ||.||_inf and the upper bound
    # sqrt(||.||_1 ||.||_inf) on the spectral norm is the largest column sum
    norm_upper = min(float(np.max(np.sum(band, axis=0))),
                     float(np.sqrt(np.sum(band * band))))
    lu, ipiv, info = zgbtrf(ab, kl, kl, overwrite_ab=1)
    if info > 0:
        raise SingularityError(
            f"zeta = {zeta} is an eigenvalue of the truncation "
            f"(exact zero pivot in column {info})")
    sigma = _smallest_singular_value(lu, ipiv, kl, n * d)
    if sigma <= SINGULARITY_TOL:
        raise SingularityError(
            f"zeta = {zeta} is within {sigma:.3e} of the truncated spectrum "
            f"(tolerance {SINGULARITY_TOL:.0e})")
    condition = norm_upper / sigma
    rhs = np.zeros((n, d, len(cols), d), dtype=complex)
    pos = np.arange(len(cols))
    rhs[np.array(cols) - 1, :, pos, :] = np.eye(d)
    X, _ = zgbtrs(lu, kl, kl, rhs.reshape(n * d, len(cols) * d), ipiv)
    stack = X.reshape(n, d, len(cols), d)[np.array(rows) - 1].transpose(0, 2, 1, 3)
    stack.flags.writeable = False
    norm_stack = np.linalg.norm(stack, 2, axis=(-2, -1))
    norm_stack.flags.writeable = False
    return GreenTable(zeta=zeta, dim=d, rows=tuple(rows), cols=tuple(cols),
                      stack=stack, norm_stack=norm_stack,
                      sigma_min=sigma, condition=condition,
                      ill_conditioned=condition > CONDITION_LIMIT)


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


def _hermitian_band(op: TruncatedOperator) -> np.ndarray:
    """Lower triangle of J_N in LAPACK Hermitian band storage, kd = 2d - 1.

    Entry (i, j), i >= j, sits at row i - j, column j (the ``lower=True``
    layout of ``scipy.linalg.eigvals_banded``).  The lower triangles of the
    B_k and the A_k^* below the diagonal are each written by one scatter
    over all N blocks.
    """
    n, d = op.n_blocks, op.dim
    ab = np.zeros((2 * d, n * d), dtype=complex)
    r, c = np.divmod(np.arange(d * d), d)      # entry (r, c) of a d x d block
    col = d * np.arange(n)[:, None] + c
    low = r >= c
    ab[(r - c)[low], col[:, low]] = op.b_blocks.reshape(n, d * d)[:, low]
    ab[d + r - c, col[:-1]] = op.a_blocks.conj().transpose(0, 2, 1).reshape(n - 1, d * d)
    return ab


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
    J_N - shift, with a QR after every step, then Rayleigh-Ritz on the block.
    """
    n, d = op.n_blocks, op.dim
    kl = 2 * d - 1
    # Im shift > 0 keeps sigma_min(J_N - shift) >= Im shift: no zero pivot
    lu, ipiv, _ = zgbtrf(_band_storage(op, shift), kl, kl, overwrite_ab=1)
    rng = np.random.default_rng(_SEED)
    X = rng.standard_normal((n * d, k)) + 1j * rng.standard_normal((n * d, k))
    for _ in range(steps):
        X, _ = zgbtrs(lu, kl, kl, X, ipiv)
        X, _ = np.linalg.qr(X)
    JX = _apply(op, X)
    _, V = np.linalg.eigh(X.conj().T @ JX)
    return X @ V, JX @ V


def _inverse_steps(vals: np.ndarray, cluster: list, shift: complex) -> int:
    """Inverse-iteration steps that resolve every entry above the smallest normal float.

    Each step shrinks the share of the eigenvectors outside the cluster by
    rho = max_in |lambda - shift| / min_out |lambda - shift|, uniformly in
    every entry; after ceil(log(tiny) / log(rho)) steps, plus one for the
    random start, what is left lies below the smallest normal float, so the
    tiny far blocks of a localized eigenvector are resolved too, not just its
    norm.  At most ``_INVERSE_STEPS``.
    """
    dist = np.abs(vals - shift)
    rho = np.max(dist[cluster]) / np.min(np.delete(dist, cluster), initial=math.inf)
    if rho == 0.0:
        return 1
    if not rho < 1.0:
        return _INVERSE_STEPS
    return min(_INVERSE_STEPS, 1 + math.ceil(math.log(_TINY) / math.log(rho)))


def eigenpairs_in_gap(op: TruncatedOperator, gap: GapInterval,
                      margin_frac: float = 0.02, drift_tol: float = 1e-6,
                      embed_tol: float = 1e-6,
                      cluster_tol: float = 1e-8) -> list[EigenpairInGap]:
    """Eigenpairs of J_N strictly inside the gap, filtered of cut artifacts.

    Candidates are eigenvalues in (r + margin, s - margin) with margin 2% of
    the gap width; all N d eigenvalues come from one banded Hermitian
    eigensolve (``eigvals_banded``, kd = 2d - 1).  Candidates within
    ``cluster_tol`` of each other form a cluster, whose eigenvectors come
    from block inverse iteration on the band LU of J_N - (mean + i tau),
    tau = 1e-10 max(||J_N||, 1), followed by Rayleigh-Ritz.  The iteration
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
    dist(theta, spec J_2N) because J_2N is Hermitian.  The eigensolve takes
    O((N d)^2 d) time, each cluster O(N d^3) more; memory is O(N d^2) and no
    dense matrix is built.
    """
    seq = op.sequence
    if seq is None:
        raise ParameterError("eigenpairs_in_gap needs a sequence-backed truncation")
    n, d = op.n_blocks, op.dim
    margin = margin_frac * gap.width
    lo, hi = gap.r + margin, gap.s - margin
    vals = eigvals_banded(_hermitian_band(op), lower=True, check_finite=False)
    candidates = np.nonzero((vals > lo) & (vals < hi))[0]
    if candidates.size == 0:
        return []
    # group candidates into near-degenerate clusters
    clusters, current = [], [int(candidates[0])]
    for idx in candidates[1:]:
        if vals[idx] - vals[current[-1]] <= cluster_tol:
            current.append(int(idx))
        else:
            clusters.append(current)
            current = [int(idx)]
    clusters.append(current)
    norm_scale = max(float(np.max(np.abs(vals))), 1.0)
    # block (N + 1, N) of the 2N section
    a_cut = seq.blocks(n, n + 1)[0][0].conj().T
    results = []
    for cluster in clusters:
        mean_val = float(np.mean(vals[cluster]))
        shift = complex(mean_val, _SHIFT_IMAG_REL * norm_scale)
        U, JU = _ritz_basis(op, shift, len(cluster), _inverse_steps(vals, cluster, shift))
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
