"""Banded Green solve and banded gap eigen-search against the dense oracle.

``green_blocks`` factors the J_N - zeta of several zetas as one stacked LAPACK
band LU (``green_block`` is its one-zeta case) and ``eigenpairs_in_gap``
works from the same band storage and band LU; neither builds the
(N d) x (N d) matrix, which only the tests' oracle ``dense.dense`` does.
No numpy.linalg call sees an N x N array on any experiment kind, on the
truncation gap source or in the spectrum and gap commands.  Property
tests draw random Hermitian block operators (and explicit-list sequences
for the eigen-search, which also reads block N + 1) with d = 1..4 and
N = 2..40.  The sigma_min estimate, 22 Arnoldi steps on
the band LU, is checked against the exact distance from zeta to the dense
eigenvalues and against a copy of the 40-step inverse power iteration it
replaced, which it may never exceed.  A real symmetric sequence and its
gauge copy, every A_k times e^{i phi}, whose bands are reduced in real and
in complex arithmetic, give the same gap eigenpairs.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.linalg import hessenberg
from scipy.linalg.lapack import zgbtrf, zgbtrs

from blockjacobi import (ExperimentConfig, GapInterval, GreenTable,
                         ParameterError, SingularityError, TruncatedOperator,
                         assemble_truncation, eigenpairs_in_gap,
                         example2_sequence, explicit_sequence, green_block,
                         green_blocks, verify_eigenvector_bound, with_prefix)
from blockjacobi import run, spectral
from blockjacobi.cli import main as cli_main
from blockjacobi.harness import resolve_gap
from blockjacobi.spectral import (RESIDUAL_TOL, SINGULARITY_TOL, _ARNOLDI_STEPS,
                                  _CLUSTER_TOL, _INVERSE_STEPS, _SEED, _SHIFT_IMAG_REL,
                                  _TINY, _band_storage, _hermitian_band,
                                  _inverse_steps)

from dense import dense

A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(rng, *shape):
    H = gaussian(rng, *shape)
    return 0.5 * (H + np.swapaxes(H, -1, -2).conj())


def seeded_operator(d, n, seed):
    rng = np.random.default_rng(seed)
    b_blocks = hermitian(rng, n, d, d)
    return TruncatedOperator(a_blocks=gaussian(rng, n - 1, d, d), b_blocks=b_blocks)


@st.composite
def hermitian_operators(draw):
    return seeded_operator(draw(st.integers(1, 4)), draw(st.integers(2, 40)),
                           draw(st.integers(0, 2**32 - 1)))


def seeded_real_operator(d, n, seed):
    """A real symmetric operator: real A_k and real symmetric B_k."""
    rng = np.random.default_rng(seed)
    b_blocks = rng.standard_normal((n, d, d))
    b_blocks = 0.5 * (b_blocks + b_blocks.transpose(0, 2, 1))
    return TruncatedOperator(a_blocks=rng.standard_normal((n - 1, d, d)),
                             b_blocks=b_blocks)


@st.composite
def real_operators(draw):
    return seeded_real_operator(draw(st.integers(1, 4)), draw(st.integers(2, 40)),
                                draw(st.integers(0, 2**32 - 1)))


def draw_window(draw, vals):
    """(lo, hi) around the ascending ``vals``: ends drawn from the points
    below, between and above them, so a window holds one or more of them, or
    none when both ends fall into the same gap."""
    points = np.concatenate([[vals[0] - 1.0], 0.5 * (vals[:-1] + vals[1:]),
                             [vals[-1] + 1.0]])
    a = draw(st.integers(0, vals.size))
    if a < vals.size and draw(st.booleans()):       # eigenvalues a..b - 1
        lo, hi = points[a], points[draw(st.integers(a + 1, vals.size))]
    else:                                           # empty: below eigenvalue a
        above = vals[a] if a < vals.size else points[a] + 2.0
        lo, hi = points[a], 0.5 * (points[a] + above)
    assume(lo < hi)
    return float(lo), float(hi)


def hermitian_from_band(band):
    """The Hermitian matrix whose lower triangle the lower band ``band`` holds."""
    size = band.shape[1]
    lower = np.zeros((size, size), dtype=complex)
    for k in range(band.shape[0]):
        j = np.arange(size - k)
        lower[j + k, j] = band[k, j]
    return lower + np.tril(lower, -1).conj().T


def pinned(cases):
    """Decorator: each of ``cases`` as an ``@example`` of a one-argument property test."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


def pinned_windows(vals, pair_vals):
    """The windows every window test pins: an empty one (the middle quarter
    of the lowest gap of ``vals``), one around every value of ``vals``, and
    one around the lower of the two ``pair_vals`` (d = 1, N = 2)."""
    return [(float(0.75 * vals[0] + 0.25 * vals[1]), float(0.25 * vals[0] + 0.75 * vals[1])),
            (float(vals[0] - 1.0), float(vals[-1] + 1.0)),
            (float(pair_vals[0] - 0.5), float(0.5 * (pair_vals[0] + pair_vals[1])))]


@st.composite
def hermitian_sequences(draw):
    """(explicit-list sequence, N): a random prefix, shorter or longer than N,
    then a constant random tail."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prefix = [(gaussian(rng, d, d), hermitian(rng, d, d))
              for _ in range(draw(st.integers(1, 45)))]
    return explicit_sequence(prefix, tail=(gaussian(rng, d, d), hermitian(rng, d, d))), n


#: spectral points off the real axis, where J_N - zeta is never singular
zetas = st.builds(complex, st.floats(-4.0, 4.0),
                  st.floats(0.05, 2.0) | st.floats(-2.0, -0.05))

#: a d = 1, N = 3 operator whose band LU at its lowest eigenvalue has no
#: exact zero pivot
SMALL = seeded_operator(1, 3, 0)
SMALL_EIGS = np.linalg.eigvalsh(dense(SMALL))


def lu_only_sigma_min(op, zeta):
    """The sigma_min iteration before the Arnoldi estimate, for one zeta: 40
    steps of inverse power iteration, each the ``zgbtrs`` pair on the band
    LU.  None on an exact zero pivot or when the iteration breaks down, both
    singular verdicts."""
    kl = 2 * op.dim - 1
    size = op.n_blocks * op.dim
    lu, ipiv, info = zgbtrf(_band_storage(op, zeta), kl, kl)
    if info > 0:
        return None
    rng = np.random.default_rng(_SEED)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    v = v / np.linalg.norm(v)
    safe = math.sqrt(np.finfo(float).max) / math.sqrt(size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(40):
            w, _ = zgbtrs(lu, kl, kl, v, ipiv)
            if not np.all(np.isfinite(w)):
                return None
            w, _ = zgbtrs(lu, kl, kl, w, ipiv, trans=2)
            if not np.max(np.abs(w)) < safe:
                return None
            parts = w.view(float).reshape(1, 1, 2 * size)
            lam = np.sqrt(parts @ parts.transpose(0, 2, 1))
            parts /= lam
            v = w
    if not lam > 0.0:
        return None
    return 1.0 / math.sqrt(lam.item())


def green_or_error(op, zeta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return green_block(op, zeta, [1], [op.n_blocks])
        except SingularityError as err:
            return err


def tridiagonal_with(eigs, seed=0):
    """A d = 1 operator with the given eigenvalues: the Hessenberg
    (tridiagonal) form of Q diag(eigs) Q^H for a seeded unitary Q."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(gaussian(rng, len(eigs), len(eigs)))
    T = hessenberg((Q * np.asarray(eigs)) @ Q.conj().T)
    return TruncatedOperator(a_blocks=np.diag(T, 1).reshape(-1, 1, 1),
                             b_blocks=np.diag(T).real.reshape(-1, 1, 1).astype(complex))


def full_table(op, zeta):
    idx = range(1, op.n_blocks + 1)
    return green_block(op, zeta, idx, idx)


def as_dense(table, n):
    idx = range(1, n + 1)
    return np.block([[table.block(m, j) for j in idx] for m in idx])


@given(hermitian_operators(), zetas)
def test_blocks_match_dense_inverse(op, zeta):
    n = op.n_blocks
    oracle = np.linalg.inv(dense(op) - zeta * np.eye(n * op.dim))
    table = full_table(op, zeta)
    scale = np.linalg.norm(oracle, 2)
    assert np.max(np.abs(as_dense(table, n) - oracle)) <= 1e-10 * scale
    for m in range(1, n + 1):
        for j in range(1, n + 1):
            assert table.norm(m, j) == pytest.approx(
                np.linalg.norm(table.block(m, j), 2), rel=1e-12, abs=1e-300)


@given(hermitian_operators(), zetas)
def test_green_symmetry(op, zeta):
    # G_mj(zeta) = G_jm(conj zeta)^*, block by block
    n = op.n_blocks
    g = as_dense(full_table(op, zeta), n)
    g_conj = as_dense(full_table(op, zeta.conjugate()), n)
    assert np.max(np.abs(g - g_conj.conj().T)) <= 1e-10 * np.linalg.norm(g, 2)


@given(hermitian_operators(), zetas | st.builds(complex, st.floats(-4.0, 4.0)))
@example(SMALL, complex(SMALL_EIGS[0] + 1e-4))
@example(SMALL, complex(SMALL_EIGS[-1] - 1e-4))
# 1.5e-6 above the lowest eigenvalue, where a dense SVD of J_N - zeta, whose
# own error is about eps ||M|| / sigma relative, reads 3.5e-10 too high
@example(SMALL, complex(SMALL_EIGS[0] + 1.5e-6))
def test_sigma_min_is_an_upper_estimate(op, zeta):
    # J_N - zeta is normal, so its smallest singular value is exactly the
    # distance from zeta to the eigenvalues, each accurate to eps ||J_N||
    true_sigma = np.min(np.abs(np.linalg.eigvalsh(dense(op)) - zeta))
    assume(true_sigma > 1e-6)
    table = green_block(op, zeta, [1], [1])
    assert table.sigma_min >= (1.0 - 1e-10) * true_sigma


@given(hermitian_operators(), zetas)
def test_norm_upper_matches_dense_formula(op, zeta):
    M = dense(op) - zeta * np.eye(op.n_blocks * op.dim)
    upper = min(np.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)),
                np.linalg.norm(M, "fro"))
    table = green_block(op, zeta, [1], [1])
    assert table.condition * table.sigma_min == pytest.approx(upper, rel=1e-12)


@given(hermitian_operators(), st.integers(0, 10**6))
@example(SMALL, 0)      # the lowest eigenvalue
@example(SMALL, 2)      # the highest eigenvalue
def test_eigenvalue_raises_singularity_without_warning(op, pick):
    vals = np.linalg.eigvalsh(dense(op))
    zeta = float(vals[pick % vals.size])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularityError):
            green_block(op, zeta, [1], [op.n_blocks])


@st.composite
def operators_and_zetas(draw):
    """(operator, zeta): off-axis zetas, and zetas on or next to an
    eigenvalue, inside and around the 1e-8 singularity tolerance."""
    op = draw(hermitian_operators())
    vals = np.linalg.eigvalsh(dense(op))
    near = st.builds(lambda lam, offset: complex(lam + offset),
                     st.sampled_from(vals.tolist()),
                     st.sampled_from([0.0, 5e-9, -5e-9, 2e-8, -2e-8, 1e-5, -1e-5]))
    return op, draw(zetas | near)


@given(operators_and_zetas())
# N d below the step count: the Krylov space runs out and the estimate is
# the distance, where the old iteration gave 1.1967502439 against 1.1958768798
@example((seeded_operator(1, 2, 0), 1j))
@example((seeded_operator(4, 4, 7), complex(0.5, 0.25)))
# a flat cluster of nearest eigenvalues, where 20 steps gave 3.0e-5 above the
# old value and 22 give 1.5e-4 below it
@example((seeded_operator(4, 30, 2178140154), complex(3.320685844140404, -1.981542338430843)))
def test_sigma_min_matches_lu_only_iteration(case):
    # the verdict of the 40-step LU-only power iteration, and a value never
    # above it; off the real axis with N d <= 22, the dense distance itself
    op, zeta = case
    ref = lu_only_sigma_min(op, zeta)
    got = green_or_error(op, zeta)
    ref_singular = ref is None or ref <= SINGULARITY_TOL
    assert isinstance(got, SingularityError) == ref_singular
    if ref_singular:
        return
    assert got.sigma_min <= ref * (1.0 + 1e-12)
    if op.n_blocks * op.dim <= _ARNOLDI_STEPS and zeta.imag != 0.0:
        dist = np.min(np.abs(np.linalg.eigvalsh(dense(op)) - zeta))
        assert got.sigma_min == pytest.approx(dist, rel=1e-12)


def test_lowest_eigenvalue_of_small_raises_singularity():
    # no exact zero pivot, so the sigma_min estimate alone gives the verdict
    zeta = float(SMALL_EIGS[0])
    kl = 2 * SMALL.dim - 1
    assert zgbtrf(_band_storage(SMALL, zeta), kl, kl)[2] == 0
    message = str(green_or_error(SMALL, zeta))
    match = re.fullmatch(
        rf"zeta = {re.escape(str(complex(zeta)))} is within (\S+) of the truncated "
        rf"spectrum \(tolerance {SINGULARITY_TOL:.0e}\)", message)
    assert match, message
    assert match[1] == f"{float(match[1]):.3e}"
    assert float(match[1]) <= SINGULARITY_TOL


def test_sigma_min_of_a_near_eigenvalue_pair():
    # eigenvalues c + 5e-9 and c + 3e-8, then c + 2e-8 and c + 3e-8: both
    # pairs lie within sqrt(eps) ||J - c|| of c; the 22-step Arnoldi
    # estimate on the band LU must still give the singular verdict for the
    # first pair and the dense distance for the second
    c = 0.25
    spread = np.linspace(-2.0, 2.0, 24)
    singular = tridiagonal_with(np.r_[spread, c + 5e-9, c + 3e-8])
    assert isinstance(green_or_error(singular, c), SingularityError)
    op = tridiagonal_with(np.r_[spread, c + 2e-8, c + 3e-8])
    vals = np.linalg.eigvalsh(dense(op))
    dist = np.min(np.abs(vals - c))
    assert 1.9e-8 < dist < math.sqrt(np.finfo(float).eps) * np.max(np.abs(vals - c))
    table = green_or_error(op, c)
    assert isinstance(table, GreenTable)
    assert table.sigma_min == pytest.approx(dist, rel=1e-6)


@given(hermitian_operators(), st.data())
def test_stacked_solve_matches_dense_and_single_solves(op, data):
    # complex zetas, real zetas clear of the spectrum, a duplicate and one
    # zeta on a dense eigenvalue, all factored as one stack
    n, size = op.n_blocks, op.n_blocks * op.dim
    J = dense(op)
    vals = np.linalg.eigvalsh(J)
    reals = st.floats(-4.0, 4.0).filter(lambda x: np.min(np.abs(vals - x)) > 1e-3)
    stack = data.draw(st.lists(zetas | reals.map(complex), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        stack.append(data.draw(st.sampled_from(stack)))
    on_eig = None
    if data.draw(st.booleans()):
        on_eig = data.draw(st.integers(0, len(stack)))
        stack.insert(on_eig, complex(vals[data.draw(st.integers(0, size - 1))]))
    idx = range(1, n + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tables = green_blocks(op, stack, idx, idx)
    assert len(tables) == len(stack)
    for k, (zeta, table) in enumerate(zip(stack, tables)):
        if k == on_eig:
            assert isinstance(table, SingularityError)
            assert str(table).startswith(f"zeta = {zeta} ")
            with pytest.raises(SingularityError):
                green_block(op, zeta, [1], [1])
            continue
        assert isinstance(table, GreenTable) and table.zeta == zeta
        oracle = np.linalg.inv(J - zeta * np.eye(size))
        scale = np.linalg.norm(oracle, 2)
        assert np.max(np.abs(as_dense(table, n) - oracle)) <= 1e-10 * scale
        single = full_table(op, zeta)
        assert np.max(np.abs(table.stack - single.stack)) <= 1e-14 * np.max(np.abs(single.stack))
        assert np.max(np.abs(table.norm_stack - single.norm_stack)) <= (
            1e-14 * np.max(single.norm_stack))
        assert table.sigma_min == pytest.approx(single.sigma_min, rel=1e-14)
        assert table.condition == pytest.approx(single.condition, rel=1e-14)


@pytest.mark.parametrize("n, factorizations", [
    (600, 5),    # zeta = 0 overflows: the four zetas are re-solved one at a time
    (1200, 2),   # zeta = 0 is an exact zero pivot: the other three are refactored
])
def test_stacked_solve_isolates_a_singular_segment(n, factorizations):
    op = assemble_truncation(example2_sequence(3.0), n)
    stack = [0.5, 0.0, 0.3 + 0.2j, -0.4]
    rows = range(1, 51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tables = green_blocks(op, stack, rows, [1])
        with pytest.raises(SingularityError) as single_error:
            green_block(op, 0.0, rows, [1])
        singles = [green_block(op, zeta, rows, [1]) for zeta in (0.5, 0.3 + 0.2j, -0.4)]
    assert tables.factorizations == factorizations
    assert isinstance(tables[1], SingularityError)
    assert str(tables[1]) == str(single_error.value)
    for table, single in zip(tables[:1] + tables[2:], singles):
        assert np.array_equal(table.stack, single.stack)
        assert np.array_equal(table.norm_stack, single.norm_stack)
        assert table.sigma_min == pytest.approx(single.sigma_min, rel=1e-14)


#: imaginary parts at, inside and just beyond the 1e-8 from the real axis
#: within which ``health=False`` still estimates sigma_min
NEAR_REAL = (0.0, 1e-12, -5e-9, SINGULARITY_TOL, -SINGULARITY_TOL, 2e-8, -3e-8, 1e-6)


def assert_same_but_health(stack, full, lean):
    """``lean`` (health=False) has the blocks, norms, verdicts and error
    strings of ``full`` bit for bit; sigma_min and condition only within
    1e-8 of the real axis, nan off it."""
    assert lean.factorizations == full.factorizations
    assert len(lean) == len(full) == len(stack)
    for zeta, a, b in zip(stack, full, lean):
        assert type(a) is type(b)
        if isinstance(a, SingularityError):
            assert str(a) == str(b)
            continue
        assert b.zeta == a.zeta
        assert b.stack.tobytes() == a.stack.tobytes()
        assert b.norm_stack.tobytes() == a.norm_stack.tobytes()
        if abs(zeta.imag) <= SINGULARITY_TOL:
            assert (b.sigma_min, b.condition, b.ill_conditioned) == (
                a.sigma_min, a.condition, a.ill_conditioned)
        else:
            assert math.isnan(b.sigma_min) and math.isnan(b.condition)
            assert b.ill_conditioned is False


@given(hermitian_operators(), st.data())
def test_health_off_changes_only_off_axis_estimates(op, data):
    # off-axis, near-real and on-eigenvalue zetas, and duplicates, in one stack
    vals = np.linalg.eigvalsh(dense(op))
    near_real = st.builds(complex, st.floats(-4.0, 4.0) | st.sampled_from(vals.tolist()),
                          st.sampled_from(NEAR_REAL))
    stack = data.draw(st.lists(zetas | near_real, min_size=1, max_size=4))
    if data.draw(st.booleans()):
        stack.append(data.draw(st.sampled_from(stack)))
    idx = range(1, op.n_blocks + 1)
    assert_same_but_health(stack, green_blocks(op, stack, idx, idx),
                           green_blocks(op, stack, idx, idx, health=False))


@pytest.mark.parametrize("n", [600, 1200])
def test_health_off_isolates_a_singular_segment_alike(n):
    # the zero pivot and the overflow fallback of the stack above, with the
    # off-axis zeta first in the order given and last in the stack solved
    op = assemble_truncation(example2_sequence(3.0), n)
    stack = [0.3 + 0.2j, 0.5, 0.0, -0.4]
    rows = range(1, 51)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_but_health(stack, green_blocks(op, stack, rows, [1]),
                               green_blocks(op, stack, rows, [1], health=False))


@pytest.mark.parametrize("n", [600, 1200])
def test_sigma_min_of_equidistant_eigenvalues(n):
    # example 2, x = 3: zeta = 0.5 lies 0.5 from the zero-energy pair and
    # 0.5 from the band edge at 1, which the 40-step power iteration could
    # not tell apart (0.5010529 at N = 600, 0.5015012 at N = 1200)
    op = assemble_truncation(example2_sequence(3.0), n)
    equidistant, off_axis = green_blocks(op, [0.5, 0.3 + 0.2j], [1], [1])
    assert equidistant.sigma_min == pytest.approx(0.5, rel=1e-12)
    assert off_axis.sigma_min == pytest.approx(0.360555127546399, rel=1e-12)


def test_sigma_min_when_the_krylov_space_runs_out():
    # 60 columns but two distinct eigenvalues: after two steps the residual
    # is rounding noise, which Gram-Schmidt cannot make orthogonal; taken as
    # a new direction it drove the estimate to 0.028 at zeta = 0.2
    op = TruncatedOperator(a_blocks=np.zeros((29, 2, 2), dtype=complex),
                           b_blocks=np.tile(np.diag([0.7, -0.3]).astype(complex), (30, 1, 1)))
    stack = [0.2, complex(0.7, 0.5), 1.5]
    tables = green_blocks(op, stack, [1], [1])
    for zeta, table in zip(stack, tables):
        dist = min(abs(0.7 - zeta), abs(-0.3 - zeta))
        assert table.sigma_min == pytest.approx(dist, rel=1e-12)


def test_stack_shapes_validated():
    with pytest.raises(ParameterError):
        TruncatedOperator(a_blocks=np.zeros((3, 2, 2)), b_blocks=np.zeros((3, 2, 2)))
    with pytest.raises(ParameterError):
        TruncatedOperator(a_blocks=np.zeros((2, 2, 2)), b_blocks=np.zeros((3, 2, 1)))


def test_scale_far_beyond_dense_memory():
    # the dense section would take (40000)^2 complex entries = 25.6 GB
    seq = example2_sequence(3.0)
    rows = range(1, 51)
    big = green_block(assemble_truncation(seq, 20_000), 0.5, rows, [1])
    ref = green_block(assemble_truncation(seq, 600), 0.5, rows, [1])
    got = np.array([big.norm(m, 1) for m in rows])
    want = np.array([ref.norm(m, 1) for m in rows])
    assert np.all(np.abs(got - want) <= 1e-12 * want)


# ---------------------------------------------------------------------------
# banded gap eigen-search

@given(hermitian_operators())
def test_hermitian_band_is_the_lower_triangle(op):
    # the lower rows of the LU band storage at zeta = 0, which
    # eigenpairs_in_gap and truncated_spectrum reduce (kd = 2d - 1)
    ab = _hermitian_band(op)
    assert ab.shape == (2 * op.dim, op.n_blocks * op.dim)
    assert np.array_equal(np.tril(hermitian_from_band(ab)), np.tril(dense(op)))


@given(hermitian_sequences())
def test_eigenpairs_match_dense_oracle(case):
    # with the artifact filters opened every eigenpair of J_N comes back
    seq, n = case
    op = assemble_truncation(seq, n)
    J = dense(op)
    vals, vecs = np.linalg.eigh(J)
    norm_j = float(np.max(np.abs(vals)))
    scale = max(norm_j, 1.0)
    reach = 1.1 * scale + 1.0   # the 2% margin window covers the spectrum
    pairs = eigenpairs_in_gap(op, GapInterval(-reach, reach),
                              drift_tol=math.inf, embed_tol=math.inf)
    thetas = np.array([p.zeta for p in pairs])
    assert thetas.shape == vals.shape
    assert np.max(np.abs(thetas - vals)) <= 1e-10 * scale
    vals_2n = np.linalg.eigvalsh(dense(assemble_truncation(seq, 2 * n)))
    others = np.abs(vals[:, None] - vals[None, :]) + np.diag(np.full(vals.size, np.inf))
    for p, v, sep in zip(pairs, vecs.T, np.min(others, axis=1)):
        u = p.blocks.ravel()
        assert np.linalg.norm(J @ u - p.zeta * u) <= RESIDUAL_TOL * norm_j
        assert p.drift >= np.min(np.abs(vals_2n - p.zeta)) - 1e-12 * scale
        if sep >= 1e-4 * scale:
            ref = np.linalg.norm(v.reshape(n, -1), axis=1)
            assert np.max(np.abs(p.block_norms - ref)) <= 1e-8 * ref.max()


def gauge_pair(d, n, seed, length, phi):
    """(real symmetric sequence, its gauge copy, N): a random real prefix of
    ``length`` blocks, then a constant real tail; the copy has every A_k
    times e^{i phi}.  U = diag(e^{i k phi} I) gives U^* J U = the copy's
    section at every N, so both have the same eigenvalues and eigenvector
    block norms, but only the copy's band has imaginary parts."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(length + 1):
        b = rng.standard_normal((d, d))
        blocks.append((rng.standard_normal((d, d)), 0.5 * (b + b.T)))

    def times(z):
        return explicit_sequence([(z * a, b) for a, b in blocks[:-1]],
                                 tail=(z * blocks[-1][0], blocks[-1][1]))
    return times(1.0), times(np.exp(1j * phi)), n


@st.composite
def gauge_cases(draw):
    """(sequence, gauge copy, N, lo, hi), the window drawn by ``draw_window``."""
    seq, gauged, n = gauge_pair(draw(st.integers(1, 4)), draw(st.integers(2, 40)),
                                draw(st.integers(0, 2**32 - 1)),
                                draw(st.integers(1, 45)), draw(st.floats(0.1, 3.0)))
    vals = np.linalg.eigvalsh(dense(assemble_truncation(seq, n)))
    return (seq, gauged, n, *draw_window(draw, vals))


def gauge_pins():
    """Pinned gauge cases: an empty window and one around every eigenvalue
    (d = 1, N = 3), one around the lower eigenvalue of d = 1, N = 2."""
    small, pair = gauge_pair(1, 3, 0, 4, 1.0), gauge_pair(1, 2, 0, 1, 1.0)

    def eigs(case):
        return np.linalg.eigvalsh(dense(assemble_truncation(case[0], case[2])))
    return [(*case, lo, hi) for case, (lo, hi)
            in zip((small, small, pair), pinned_windows(eigs(small), eigs(pair)))]


@pinned(gauge_pins())
@given(gauge_cases())
def test_gauge_copy_gives_the_same_eigenpairs(case):
    # the real band is reduced in real arithmetic, the copy's in complex
    seq, gauged, n, lo, hi = case
    op, op_gauged = assemble_truncation(seq, n), assemble_truncation(gauged, n)
    assert not np.any(_band_storage(op, 0.0).imag)
    assert np.any(_band_storage(op_gauged, 0.0).imag)
    vals = np.linalg.eigvalsh(dense(op))
    scale = max(float(np.max(np.abs(vals))), 1.0)
    assume(np.min(np.abs(vals - lo)) > 1e-12 * scale
           and np.min(np.abs(vals - hi)) > 1e-12 * scale)
    # the gap whose 2% margin window is (lo, hi), with the filters opened
    width = (hi - lo) / (1.0 - 2.0 * spectral._MARGIN_FRAC)
    gap = GapInterval(lo - spectral._MARGIN_FRAC * width, hi + spectral._MARGIN_FRAC * width)
    pairs = eigenpairs_in_gap(op, gap, drift_tol=math.inf, embed_tol=math.inf)
    twins = eigenpairs_in_gap(op_gauged, gap, drift_tol=math.inf, embed_tol=math.inf)
    assert len(pairs) == len(twins) == np.count_nonzero((vals > lo) & (vals < hi))
    for p, q in zip(pairs, twins):
        assert abs(p.zeta - q.zeta) <= 1e-12 * scale
        # block norms of an eigenvector are unique only for a simple eigenvalue
        if np.partition(np.abs(vals - p.zeta), 1)[1] >= 1e-4 * scale:
            peak = float(np.max(p.block_norms))
            assert np.max(np.abs(p.block_norms - q.block_norms)) <= 1e-10 * peak


def refuse_dense_linalg(monkeypatch, n):
    """Make every function of ``numpy.linalg`` raise on an array argument
    whose last two dimensions are both at least ``n``."""
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if isinstance(fn, type):
            continue

        def guard(*args, _fn=fn, _name=name, **kwargs):
            for arg in (*args, *kwargs.values()):
                if isinstance(arg, np.ndarray) and arg.ndim >= 2 and min(arg.shape[-2:]) >= n:
                    raise AssertionError(f"numpy.linalg.{_name} on a {arg.shape} array")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, guard)


def test_eigenvector_path_builds_no_dense_matrix(monkeypatch, tmp_path):
    # no numpy.linalg call sees an N x N array (N = 200, N d = 400) on any
    # experiment kind, on the truncation gap source or in the spectrum and
    # gap commands; the library has no dense builder at all
    assert not hasattr(TruncatedOperator, "to_dense")
    refuse_dense_linalg(monkeypatch, 200)
    with pytest.raises(AssertionError, match=r"numpy.linalg.eigvalsh on a \(200, 200\) array"):
        np.linalg.eigvalsh(np.eye(200))
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"}, zetas=(0.5,),
                           n_blocks=200, experiments=("eigenvector",))
    [res] = verify_eigenvector_bound(cfg).experiments
    assert res.passed is True and res.details["stable_partner_found"]
    assert len(eigenpairs_in_gap(assemble_truncation(seq, 200),
                                 GapInterval(-1.0, 1.0))) == 1
    every_kind = ExperimentConfig(
        operator=seq, gap={"source": "truncation", "tol": 0.5}, zetas=(0.5, 0.3 + 0.2j),
        variants=("continuous", "discrete", "simplified", "commuting"), n_blocks=200,
        experiments=("green", "eigenvector", "commuting", "edge"),
        edge={"x": 3.0, "eps_list": [1e-3, 1e-2], "n_blocks": 200})
    report, _ = run(every_kind)
    assert report.meta["counters"]["eigen_searches"] >= 2
    assert {re.split("[:-]", r.name)[0] for r in report.experiments} == {
        "green", "eigenvector", "commuting", "edge"}
    for command in ("spectrum", "gap"):
        out = tmp_path / f"{command}.json"
        assert cli_main([command, "--operator", "example2:x=3", "--source", "truncation",
                         "--n", "200", "--out", str(out)]) == 0
    assert len(json.loads((tmp_path / "spectrum.json").read_text())["eigenvalues"]) == 400
    assert json.loads((tmp_path / "gap.json").read_text())["gaps"]


def test_eigenpair_far_beyond_dense_scale():
    # the bound state of B_1 = 0.5 I at N = 1000 (a 2000 x 2000 section,
    # embedded into 4000 x 4000) equals the one at N = 200
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    gap = GapInterval(-1.0, 1.0)
    big = eigenpairs_in_gap(assemble_truncation(seq, 1000), gap)
    ref = eigenpairs_in_gap(assemble_truncation(seq, 200), gap)
    assert len(big) == len(ref) == 1
    assert abs(big[0].zeta - ref[0].zeta) <= 1e-12
    got, want = big[0].block_norms[:40], ref[0].block_norms[:40]
    assert np.all(np.abs(got - want) <= 1e-10 * want)


def full_spectrum_steps(vals, cluster, shift):
    """The step rule before the window search: min_out read from every
    eigenvalue of J_N outside the cluster."""
    dist = np.abs(vals - shift)
    rho = np.max(dist[cluster]) / np.min(np.delete(dist, cluster), initial=math.inf)
    if rho == 0.0:
        return 1
    if not rho < 1.0:
        return _INVERSE_STEPS
    return min(_INVERSE_STEPS, 1 + math.ceil(math.log(_TINY) / math.log(rho)))


def window_clusters(vals, lo, hi):
    """(first index, clusters) of the eigenvalues in (lo, hi), grouped as
    eigenpairs_in_gap groups them; indices into ``vals``."""
    inside = np.nonzero((vals > lo) & (vals < hi))[0]
    clusters = []
    for idx in inside:
        if clusters and vals[idx] - vals[clusters[-1][-1]] <= _CLUSTER_TOL:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return (int(inside[0]) if inside.size else 0), clusters


@given(hermitian_operators(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_window_step_bound_never_gives_fewer_steps(op, a, b):
    # the window bound replaces the outside eigenvalues by the window's ends,
    # which are nearer the shift, so rho and the step count can only grow
    vals = np.linalg.eigvalsh(dense(op))
    span = vals[-1] - vals[0] + 2.0
    lo = vals[0] - 1.0 + span * min(a, b)
    hi = vals[0] - 1.0 + span * max(a, b)
    assume(lo < hi)
    tau = _SHIFT_IMAG_REL * max(float(np.max(np.abs(vals))), 1.0)
    first, clusters = window_clusters(vals, lo, hi)
    window = vals[(vals > lo) & (vals < hi)]
    for cluster in clusters:
        shift = complex(np.mean(vals[cluster]), tau)
        local = [i - first for i in cluster]
        assert (_inverse_steps(window, local, shift, lo, hi)
                >= full_spectrum_steps(vals, cluster, shift))


@pytest.mark.parametrize("n", [200, 400])
def test_eigvec_operator_keeps_its_step_counts(monkeypatch, n):
    # the benchmark's eigenvector operator, in its symbol gap, at its N and
    # 2N sections: the window bound gives the full-spectrum step counts
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    gap = resolve_gap(ExperimentConfig(operator=seq, zetas=(0.5,), n_blocks=200), seq)
    op = assemble_truncation(seq, n)
    calls = []

    def record(vals, cluster, shift, lo, hi):
        steps = _inverse_steps(vals, cluster, shift, lo, hi)
        calls.append((cluster, shift, lo, hi, steps))
        return steps

    monkeypatch.setattr(spectral, "_inverse_steps", record)
    assert len(eigenpairs_in_gap(op, gap)) == 1
    vals = np.linalg.eigvalsh(dense(op))
    assert calls
    for cluster, shift, lo, hi, steps in calls:
        first, _ = window_clusters(vals, lo, hi)
        assert steps == full_spectrum_steps(vals, [first + i for i in cluster], shift)
