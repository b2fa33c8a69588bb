"""Banded Green solve against the dense oracle.

``green_block`` factors J_N - zeta in LAPACK band storage and never builds
the (N d) x (N d) matrix; ``TruncatedOperator.to_dense`` exists for the
oracle here.  Property tests draw random Hermitian block operators with
d = 1..4 and N = 2..40.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from blockjacobi import (ParameterError, SingularityError, TruncatedOperator,
                         assemble_truncation, example2_sequence, green_block)


@st.composite
def hermitian_operators(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    H = gaussian(n, d, d)
    b_blocks = 0.5 * (H + H.conj().transpose(0, 2, 1))
    return TruncatedOperator(a_blocks=gaussian(n - 1, d, d), b_blocks=b_blocks)


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
