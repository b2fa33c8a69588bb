"""Banded Green solve and banded gap eigen-search against the dense oracle.

``green_block`` factors J_N - zeta in LAPACK band storage and
``eigenpairs_in_gap`` works from the same band storage and band LU; neither
builds the (N d) x (N d) matrix.  ``TruncatedOperator.to_dense`` exists for
the oracle here.  Property tests draw random Hermitian block operators (and
explicit-list sequences for the eigen-search, which also reads block N + 1)
with d = 1..4 and N = 2..40.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from blockjacobi import (ExperimentConfig, GapInterval, ParameterError,
                         SingularityError, TruncatedOperator,
                         assemble_truncation, eigenpairs_in_gap,
                         example2_sequence, explicit_sequence, green_block,
                         verify_eigenvector_bound, with_prefix)
from blockjacobi.spectral import RESIDUAL_TOL, _band_storage

A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(rng, *shape):
    H = gaussian(rng, *shape)
    return 0.5 * (H + np.swapaxes(H, -1, -2).conj())


@st.composite
def hermitian_operators(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b_blocks = hermitian(rng, n, d, d)
    return TruncatedOperator(a_blocks=gaussian(rng, n - 1, d, d), b_blocks=b_blocks)


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


def full_table(op, zeta):
    idx = range(1, op.n_blocks + 1)
    return green_block(op, zeta, idx, idx)


def as_dense(table, n):
    idx = range(1, n + 1)
    return np.block([[table.block(m, j) for j in idx] for m in idx])


@given(hermitian_operators(), zetas)
def test_blocks_match_dense_inverse(op, zeta):
    n = op.n_blocks
    oracle = np.linalg.inv(op.to_dense() - zeta * np.eye(n * op.dim))
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
def test_sigma_min_is_an_upper_estimate(op, zeta):
    M = op.to_dense() - zeta * np.eye(op.n_blocks * op.dim)
    true_sigma = np.linalg.svd(M, compute_uv=False)[-1]
    assume(true_sigma > 1e-6)
    table = green_block(op, zeta, [1], [1])
    assert table.sigma_min >= (1.0 - 1e-10) * true_sigma


@given(hermitian_operators(), zetas)
def test_norm_upper_matches_dense_formula(op, zeta):
    M = op.to_dense() - zeta * np.eye(op.n_blocks * op.dim)
    dense = min(np.sqrt(np.linalg.norm(M, 1) * np.linalg.norm(M, np.inf)),
                np.linalg.norm(M, "fro"))
    table = green_block(op, zeta, [1], [1])
    assert table.condition * table.sigma_min == pytest.approx(dense, rel=1e-12)


@given(hermitian_operators(), st.integers(0, 10**6))
def test_eigenvalue_raises_singularity_without_warning(op, pick):
    vals = np.linalg.eigvalsh(op.to_dense())
    zeta = float(vals[pick % vals.size])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularityError):
            green_block(op, zeta, [1], [op.n_blocks])


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
    # eigenpairs_in_gap hands to eigvals_banded (lower=True, kd = 2d - 1)
    kl = 2 * op.dim - 1
    ab = _band_storage(op, 0.0)[2 * kl:]
    size = op.n_blocks * op.dim
    assert ab.shape == (2 * op.dim, size)
    lower = np.zeros((size, size), dtype=complex)
    for k in range(ab.shape[0]):
        j = np.arange(size - k)
        lower[j + k, j] = ab[k, j]
    assert np.array_equal(lower, np.tril(op.to_dense()))


@given(hermitian_sequences())
def test_eigenpairs_match_dense_oracle(case):
    # with the artifact filters opened every eigenpair of J_N comes back
    seq, n = case
    op = assemble_truncation(seq, n)
    J = op.to_dense()
    vals, vecs = np.linalg.eigh(J)
    norm_j = float(np.max(np.abs(vals)))
    scale = max(norm_j, 1.0)
    reach = 1.1 * scale + 1.0   # the 2% margin window covers the spectrum
    pairs = eigenpairs_in_gap(op, GapInterval(-reach, reach),
                              drift_tol=math.inf, embed_tol=math.inf)
    thetas = np.array([p.zeta for p in pairs])
    assert thetas.shape == vals.shape
    assert np.max(np.abs(thetas - vals)) <= 1e-10 * scale
    vals_2n = np.linalg.eigvalsh(assemble_truncation(seq, 2 * n).to_dense())
    others = np.abs(vals[:, None] - vals[None, :]) + np.diag(np.full(vals.size, np.inf))
    for p, v, sep in zip(pairs, vecs.T, np.min(others, axis=1)):
        u = p.blocks.ravel()
        assert np.linalg.norm(J @ u - p.zeta * u) <= RESIDUAL_TOL * norm_j
        assert p.drift >= np.min(np.abs(vals_2n - p.zeta)) - 1e-12 * scale
        if sep >= 1e-4 * scale:
            ref = np.linalg.norm(v.reshape(n, -1), axis=1)
            assert np.max(np.abs(p.block_norms - ref)) <= 1e-8 * ref.max()


def test_eigenvector_path_builds_no_dense_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dense section built on the eigenvector path")

    monkeypatch.setattr(TruncatedOperator, "to_dense", refuse)
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    cfg = ExperimentConfig(operator=seq, gap={"source": "symbol"}, zetas=(0.5,),
                           n_blocks=200, experiments=("eigenvector",))
    [res] = verify_eigenvector_bound(cfg).experiments
    assert res.passed is True and res.details["stable_partner_found"]
    assert len(eigenpairs_in_gap(assemble_truncation(seq, 200),
                                 GapInterval(-1.0, 1.0))) == 1


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
