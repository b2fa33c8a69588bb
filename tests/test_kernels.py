"""The closed-form 2 x 2 kernels of ``spectral`` against LAPACK.

``_eigvalsh`` (symbol tables and the gap-edge zoom) and ``_block_norms``
(Green block norms, the commuting C_emp) replace one LAPACK call per 2 x 2
matrix by a closed form.  Blocks are drawn at every binary scale from
2^-1070 (subnormal) to 2^1020, zero, rank-one and nearly degenerate ones
included.  Both kernels must agree with numpy within 8 eps of the scale.
Below the normal range, results on both sides are rounded to the
subnormal grid, whose spacing exceeds eps times the norm there, so the bound
carries a floor of a few subnormal spacings.  Other sizes go to numpy
unchanged, and a non-finite block gives nan without a warning (the suite
runs with warnings as errors).
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from blockjacobi.spectral import _block_norms, _eigvalsh

EPS = np.finfo(float).eps
#: the smallest subnormal, the spacing of the grid below the normal range
SUBNORMAL = np.nextafter(0.0, 1.0)
ULPS = 8

unit = st.floats(-1.0, 1.0, allow_nan=False)
entries = st.tuples(*[unit] * 8)        # real and imaginary parts of a 2 x 2 block


def _complex(parts) -> np.ndarray:
    p = np.array(parts).reshape(2, 2, 2)
    return p[0] + 1j * p[1]


@st.composite
def blocks(draw):
    """One 2 x 2 block: random, zero, rank-one or nearly a multiple of a
    unitary (two nearly equal singular values and, once made Hermitian,
    two nearly equal eigenvalues)."""
    kind = draw(st.sampled_from(("random", "zero", "rank-one", "near-degenerate")))
    if kind == "zero":
        return np.zeros((2, 2), dtype=complex)
    x = _complex(draw(entries))
    if kind == "rank-one":
        return np.outer(x[0], x[1].conj())
    if kind == "near-degenerate":
        q = np.linalg.qr(x + 2.0 * np.eye(2))[0]
        split = draw(st.sampled_from((0.0, 1e-15, 1e-8)))
        return draw(unit) * q + split * _complex(draw(entries))
    return x


#: a stack of blocks, all scaled by one power of two (exactly, by ldexp)
stacks = st.tuples(st.lists(blocks(), min_size=1, max_size=6),
                   st.integers(-1070, 1020)).map(
    lambda drawn: np.ldexp(np.real(drawn[0]), drawn[1])
    + 1j * np.ldexp(np.imag(drawn[0]), drawn[1]))


@given(stacks)
@example(np.zeros((1, 2, 2), dtype=complex))
@example(np.full((1, 2, 2), 2.0 ** -1074 + 0j))
def test_eigvalsh_2x2_matches_lapack(x):
    h = x + x.conj().transpose(0, 2, 1)
    ref = np.linalg.eigvalsh(h)
    got = _eigvalsh(h)
    norm = np.max(np.abs(ref), axis=-1, keepdims=True)        # ||H||_2
    assert np.all(np.abs(got - ref) <= ULPS * EPS * norm + 4 * SUBNORMAL)
    assert np.all(got[:, 0] <= got[:, 1])


@given(stacks)
@example(np.zeros((2, 2, 2), dtype=complex))
def test_block_norms_2x2_match_lapack(x):
    ref = np.linalg.norm(x, 2, axis=(-2, -1))
    got = _block_norms(x)
    assert np.all(np.abs(got - ref) <= ULPS * EPS * ref + 4 * SUBNORMAL)
    assert np.all(got[ref == 0.0] == 0.0)
    zero = np.all(x == 0.0, axis=(-2, -1))
    assert np.all(got[zero] == 0.0)


def test_block_norms_take_real_and_strided_stacks():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 2, 5, 2))        # (.., r, j, c) as in green_blocks
    view = x.transpose(0, 1, 3, 2, 4)
    assert np.allclose(_block_norms(view), np.linalg.norm(view, 2, axis=(-2, -1)),
                       rtol=ULPS * EPS, atol=0.0)


@pytest.mark.parametrize("d", [1, 3])
def test_kernels_are_numpy_for_other_sizes(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((7, d, d)) + 1j * rng.standard_normal((7, d, d))
    h = x + x.conj().transpose(0, 2, 1)
    assert np.array_equal(_eigvalsh(h), np.linalg.eigvalsh(h))
    assert np.array_equal(_block_norms(x), np.linalg.norm(x, 2, axis=(-2, -1)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (1, 1)])
def test_non_finite_block_norm_is_nan_without_warning(bad, entry):
    x = np.ones((3, 2, 2), dtype=complex)
    x[1][entry] = bad
    norms = _block_norms(x)
    assert np.isnan(norms[1]) and np.all(norms[[0, 2]] == 2.0)


@pytest.mark.parametrize("bad, entry", [(np.inf, (0, 0)), (-np.inf, (1, 1)),
                                        (np.nan, (0, 0)), (np.inf, (1, 0)),
                                        (np.nan, (1, 0)), (complex(0.0, np.inf), (1, 0))])
def test_non_finite_hermitian_eigenvalues_are_nan_without_warning(bad, entry):
    h = np.ones((3, 2, 2), dtype=complex)
    h[1][entry] = bad
    h[1][entry[::-1]] = np.conj(bad)         # still Hermitian
    vals = _eigvalsh(h)
    assert np.all(np.isnan(vals[1]))
    assert np.array_equal(vals[[0, 2]], [[0.0, 2.0], [0.0, 2.0]])


def test_values_past_the_float_range_are_inf_as_in_lapack():
    h = np.array([[[1e308, 1e308], [1e308, 1e308]],
                  [[1e308, 0.0], [0.0, -1e308]]], dtype=complex)
    assert np.array_equal(_eigvalsh(h), np.linalg.eigvalsh(h))
    assert np.array_equal(_block_norms(h), np.linalg.norm(h, 2, axis=(-2, -1)))
