"""Envelope construction: cumulative profiles, operator and discrete variants."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blockjacobi import (DecayRate, DomainError,
                         PreconditionError, commuting_check, constant_sequence,
                         cumulative_phi, cumulative_reciprocal, custom_sequence,
                         discrete_envelope, example2_sequence,
                         example3_sequence, explicit_sequence,
                         operator_envelope, scalar_envelope)


def rate(gamma):
    return DecayRate(gamma=gamma, branch="small-imaginary", variant="continuous")


def diag_seq(a, b):
    return custom_sequence(
        lambda n: (np.diag([a(n), b(n)]).astype(complex), np.zeros((2, 2))), 2)


# ---------------------------------------------------------------------------
# cumulative profiles

def test_cumulative_phi_constant():
    seq = constant_sequence(np.array([[4.0]]), np.array([[0.0]]))
    prof = cumulative_phi(seq, 1.0, 10)
    assert prof.window_sum(1, 11) == pytest.approx(10.0 / 4.0, rel=1e-12)


def test_cumulative_phi_example2_norm():
    # ||A||^2 = 5.5 + sqrt(29.25) ~ 10.908327, so each term is 1/3.302776
    prof = cumulative_phi(example2_sequence(3.0), 1.0, 5)
    norm_sq = 5.5 + math.sqrt(29.25)
    assert norm_sq == pytest.approx(10.908327, abs=1e-6)
    assert prof.terms[0] == pytest.approx(1.0 / math.sqrt(norm_sq), rel=1e-12)
    assert prof.terms[0] == pytest.approx(0.302775, abs=1e-6)


def test_cumulative_phi_example3_growth():
    # prefix sums grow like 4 n^(1/4): integral comparison oracle
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    p = 10 ** 5
    prof = cumulative_phi(seq, 1.0, p)
    ratio = prof.prefix[p] / (4.0 * p ** 0.25)
    assert 0.9 < ratio < 1.01


def test_scalar_envelope_values():
    seq = constant_sequence(np.array([[1.0 / 0.3]]), np.array([[0.0]]))
    prof = cumulative_phi(seq, 0.1, 10)
    assert scalar_envelope(rate(0.5), prof, 1, 11) == pytest.approx(
        math.exp(-1.5), rel=1e-12)
    assert scalar_envelope(rate(0.5), prof, 1, 11) == pytest.approx(0.223130, abs=1e-6)
    assert scalar_envelope(rate(0.5), prof, 4, 4) == 1.0


def test_scalar_envelope_symmetry():
    seq = example3_sequence(x=0.3, alpha=0.6, c1=0.0, c2=1.0)
    prof = cumulative_phi(seq, 1.0, 30)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, j = rng.integers(1, 31, size=2)
        assert scalar_envelope(rate(0.4), prof, int(m), int(j)) == pytest.approx(
            scalar_envelope(rate(0.4), prof, int(j), int(m)), rel=1e-14)


def test_scalar_envelope_monotone_in_distance():
    prof = cumulative_phi(example2_sequence(3.0), 1.0, 40)
    vals = [scalar_envelope(rate(0.3), prof, 1, j) for j in range(1, 41)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cumulative_reciprocal():
    seq = example2_sequence(3.0)
    prof = cumulative_reciprocal(seq, 10)
    assert prof.delta == 0.0
    assert prof.terms[0] == pytest.approx(1.0 / np.linalg.norm(seq.a(1), 2), rel=1e-12)
    zero_seq = constant_sequence(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(DomainError):
        cumulative_reciprocal(zero_seq, 3)


def test_profile_bounded_difference_from_reciprocals():
    # sum phi_delta - sum 1/||A_k|| stabilizes once ||A_k|| has passed delta
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    p = 10 ** 5
    nrm = seq.norms(p)
    capped = cumulative_phi(seq, 2.0, p, norms=nrm)
    raw = cumulative_reciprocal(seq, p, norms=nrm)
    diff = capped.prefix - raw.prefix
    last_capped = int(np.nonzero(nrm <= 2.0)[0][-1]) + 1
    tail = diff[last_capped:]
    assert np.max(tail) - np.min(tail) <= 1e-6


# ---------------------------------------------------------------------------
# operator envelope

def test_operator_envelope_diagonal():
    a, b, gamma, L = 5.0, 8.0, 0.4, 7
    seq = diag_seq(lambda n: a, lambda n: b)
    E = operator_envelope(rate(gamma), seq, 1.0, 1, L + 1)
    expected = np.diag([math.exp(gamma * L / a), math.exp(gamma * L / b)])
    assert np.allclose(E, expected, rtol=1e-12)


def test_operator_envelope_scalar_multiple_of_identity():
    seq = constant_sequence(3.0 * np.eye(2), np.zeros((2, 2)))
    prof = cumulative_phi(seq, 1.0, 10)
    E = operator_envelope(rate(0.3), seq, 1.0, 2, 9)
    scalar = scalar_envelope(rate(0.3), prof, 2, 9)
    assert np.allclose(E, (1.0 / scalar) * np.eye(2), rtol=1e-12)


def test_operator_envelope_d1_reduction():
    seq = custom_sequence(lambda n: (np.array([[n + 2.0]]), np.array([[0.0]])), 1)
    prof = cumulative_phi(seq, 1.0, 20)
    E = operator_envelope(rate(0.25), seq, 1.0, 3, 15)
    assert E[0, 0].real == pytest.approx(
        1.0 / scalar_envelope(rate(0.25), prof, 3, 15), rel=1e-12)


def test_operator_envelope_empty_window_is_identity():
    seq = example2_sequence(1.0)
    assert np.allclose(operator_envelope(rate(0.5), seq, 1.0, 4, 4), np.eye(2))


# ---------------------------------------------------------------------------
# commuting check

def test_commuting_check_diagonal():
    ok, worst = commuting_check(diag_seq(lambda n: n + 1.0, lambda n: 2.0 * n), 10)
    assert ok and worst == 0.0


def test_commuting_check_example2():
    # A A^* - A^* A = [[9, 0], [0, -9]] for x = 3
    A = np.array([[1, 3], [0, 1]], dtype=complex)
    comm = A @ A.conj().T - A.conj().T @ A
    assert np.allclose(comm, np.diag([9.0, -9.0]))
    ok, worst = commuting_check(example2_sequence(3.0), 5)
    assert not ok
    assert worst == pytest.approx(9.0, rel=1e-12)


def test_commuting_check_scalar_multiples_of_normal():
    H = np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    seq = custom_sequence(lambda n: (float(n) * H, np.zeros((2, 2))), 2)
    ok, worst = commuting_check(seq, 6)
    assert ok and worst <= 1e-10


def pairwise_commutator(seq, upto):
    A, B = seq.blocks(1, upto + 1)
    ops = [X for k in range(upto) for X in (A[k], B[k], A[k].conj().T)]
    return max((np.linalg.norm(X @ Y - Y @ X, 2)
                for i, X in enumerate(ops) for Y in ops[i + 1:]), default=0.0)


@given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_commuting_check_matches_pairwise_loop(d, upto, seed, diagonal):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((upto, d, d)) + 1j * rng.standard_normal((upto, d, d))
    H = rng.standard_normal((upto, d, d))
    B = H + H.transpose(0, 2, 1)
    if diagonal:   # commuting family: the maximum is 0 up to rounding
        A, B = A * np.eye(d), B * np.eye(d)
    seq = explicit_sequence(list(zip(A, B)))
    worst = pairwise_commutator(seq, upto)
    ok, got = commuting_check(seq, upto)
    assert got == pytest.approx(worst, rel=1e-12, abs=1e-15)
    assert ok == (got <= 1e-10)


@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**32 - 1), st.booleans())
def test_commuting_check_basis_bound_against_pairwise(d, upto, seed, commuting):
    # simultaneously diagonalizable families (A_k = U diag U^*, B_k = U diag U^*,
    # one random unitary U) pass through the basis bound, which must cover
    # the pairwise maximum; random families fail with the exact maximum
    rng = np.random.default_rng(seed)
    if commuting:
        U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        a = rng.standard_normal((upto, d)) + 1j * rng.standard_normal((upto, d))
        A = (U * a[:, None, :]) @ U.conj().T
        B = (U * rng.standard_normal((upto, 1, d))) @ U.conj().T
        B = 0.5 * (B + B.conj().transpose(0, 2, 1))
    else:
        A = rng.standard_normal((upto, d, d)) + 1j * rng.standard_normal((upto, d, d))
        H = rng.standard_normal((upto, d, d))
        B = H + H.transpose(0, 2, 1)
    seq = explicit_sequence(list(zip(A, B)))
    worst = pairwise_commutator(seq, upto)
    ok, got = commuting_check(seq, upto)
    assert ok == (worst <= 1e-10)
    if ok:
        assert worst <= got <= 1e-10
    else:
        assert got == pytest.approx(worst, rel=1e-12)


# ---------------------------------------------------------------------------
# discrete envelope

def test_discrete_envelope_constant():
    seq = constant_sequence(np.array([[4.0]]), np.array([[0.0]]))
    prod = discrete_envelope(rate(0.5), seq, 1, 11)
    assert prod.value == pytest.approx(0.875 ** 10, rel=1e-12)
    assert prod.value == pytest.approx(0.263076, abs=1e-6)
    assert prod.n0 == 1


def test_discrete_envelope_precondition():
    seq = constant_sequence(np.array([[4.0]]), np.array([[0.0]]))
    with pytest.raises(PreconditionError):
        discrete_envelope(rate(4.0), seq, 1, 11)


def test_discrete_envelope_n0_reporting():
    norms = [0.1, 0.2, 5.0, 6.0, 7.0, 8.0]
    seq = custom_sequence(
        lambda n: (np.array([[norms[n - 1]]]), np.array([[0.0]])), 1)
    prod = discrete_envelope(rate(1.0), seq, 1, 6)
    assert prod.n0 == 3
    assert prod.value == pytest.approx((1 - 1 / 5.0) * (1 - 1 / 6.0) * (1 - 1 / 7.0),
                                       rel=1e-12)


def test_discrete_not_weaker_than_exponential():
    # prod (1 - u_k) <= exp(-sum u_k) whenever every factor is in (0, 1)
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    nrm = seq.norms(60)
    g = 0.5
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, j = sorted(rng.integers(1, 61, size=2))
        if m == j:
            continue
        prod = discrete_envelope(rate(g), seq, int(m), int(j), norms=nrm)
        window = nrm[max(m, prod.n0) - 1: j - 1]
        assert prod.value <= math.exp(-g * float(np.sum(1.0 / window))) + 1e-15


def test_discrete_envelope_empty_window():
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    prod = discrete_envelope(rate(0.2), seq, 3, 3)
    assert prod.value == 1.0


def test_discrete_exponent_dominates_continuous_on_growing_family():
    # with the same (delta, eps, eta, zeta) and every gamma/||A_k|| < 1, the
    # product-form exponent is at least the capped-reciprocal exponent
    from blockjacobi import (BoundParams, GapInterval, gamma_continuous,
                             gamma_discrete)
    seq = example3_sequence(x=0.0, alpha=0.75, c1=0.0, c2=1.0)
    gap = GapInterval(-1.0, 1.0)
    params = BoundParams(1.0, 0.25, 0.5)
    nrm = seq.norms(200)
    for zeta in (0.0, 0.5):
        rate_c = gamma_continuous(params, gap, zeta)
        rate_d = gamma_discrete(params, gap, zeta)
        assert np.all(rate_d.gamma < nrm)
        prof = cumulative_phi(seq, params.delta, 200, norms=nrm)
        cont_exp = rate_c.gamma * prof.window_sum(1, 201)
        prod = discrete_envelope(rate_d, seq, 1, 201, norms=nrm)
        disc_exp = -math.log(prod.value)
        assert disc_exp >= cont_exp


# ---------------------------------------------------------------------------
# broadcast envelopes against per-window oracles

@st.composite
def windows(draw, top):
    """(m, j) broadcasting to a grid of windows within blocks 1..top + 1.

    The grid always holds an m = j window and, for top >= 2, a window with
    m > j whose lower end is above 1.
    """
    idx = st.integers(1, top + 1)
    ms = draw(st.lists(idx, min_size=1, max_size=6))
    js = draw(st.lists(idx, min_size=1, max_size=6))
    k = draw(idx)
    ms, js = ms + [k, top + 1], js + [k, min(2, top + 1)]
    return np.array(ms)[:, None], np.array(js)[None, :]


@st.composite
def norm_windows(draw):
    top = draw(st.integers(1, 40))
    norms = np.array(draw(st.lists(st.just(0.0) | st.floats(0.0, 8.0),
                                   min_size=top, max_size=top)))
    return norms, draw(windows(top))


gammas = st.floats(0.05, 2.0)


def pairs(m, j):
    mm, jj = np.broadcast_arrays(m, j)
    return list(zip(mm.ravel().tolist(), jj.ravel().tolist()))


@given(norm_windows(), gammas, st.floats(0.1, 3.0))
def test_scalar_envelope_broadcast_matches_window_sums(data, gamma, delta):
    norms, (m, j) = data
    prof = cumulative_phi(None, delta, len(norms), norms=norms)
    env = scalar_envelope(rate(gamma), prof, m, j)
    oracle = [math.exp(-gamma * sum(1.0 / max(delta, norms[k - 1])
                                    for k in range(min(a, b), max(a, b))))
              for a, b in pairs(m, j)]
    assert env.shape == (m.size, j.size)
    assert np.allclose(env.ravel(), oracle, rtol=1e-12, atol=0.0)


def discrete_oracle(gamma, norms, m, j):
    """(n0, value) of one window, or None when no valid n0 exists."""
    lo, hi = min(m, j), max(m, j)
    horizon = max(hi - 1, 1)
    with np.errstate(over="ignore"):
        ratios = [gamma / x if x > 0 else math.inf for x in norms[:horizon]]
    bad = [k for k in range(1, horizon + 1) if ratios[k - 1] >= 1.0]
    n0 = bad[-1] + 1 if bad else 1
    if n0 > horizon:
        return None
    return n0, np.prod([1.0 - ratios[k - 1] for k in range(max(lo, n0), hi)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(norm_windows(), gammas)
def test_discrete_envelope_broadcast_matches_products(data, gamma):
    norms, (m, j) = data
    oracle = [discrete_oracle(gamma, norms, a, b) for a, b in pairs(m, j)]
    if any(o is None for o in oracle):
        with pytest.raises(PreconditionError):
            discrete_envelope(rate(gamma), None, m, j, norms=norms)
        return
    prod = discrete_envelope(rate(gamma), None, m, j, norms=norms)
    assert prod.value.shape == prod.n0.shape == (m.size, j.size)
    assert prod.n0.ravel().tolist() == [o[0] for o in oracle]
    assert np.allclose(prod.value.ravel(), [o[1] for o in oracle],
                       rtol=1e-12, atol=0.0)


@st.composite
def block_windows(draw):
    d = draw(st.integers(1, 3))
    top = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = rng.uniform(0.1, 4.0, size=(top, 1, 1))
    A = scale * (rng.standard_normal((top, d, d)) + 1j * rng.standard_normal((top, d, d)))
    seq = explicit_sequence([(a, np.zeros((d, d))) for a in A])
    return seq, A, draw(windows(top - 1 if top > 1 else 1))


def hermitian_exp(S, gamma):
    vals, vecs = np.linalg.eigh(S)
    return (vecs * np.exp(gamma * vals)) @ vecs.conj().T


@given(block_windows(), st.floats(0.05, 1.0), st.floats(0.5, 3.0))
def test_operator_envelope_broadcast_matches_sequential_sums(data, gamma, delta):
    seq, A, (m, j) = data
    d = seq.dim
    E = operator_envelope(rate(gamma), seq, delta, m, j)
    assert E.shape == (m.size, j.size, d, d)
    for (a, b), got in zip(pairs(m, j), E.reshape(-1, d, d)):
        S = np.zeros((d, d), dtype=complex)
        for k in range(min(a, b), max(a, b)):
            vals, U = np.linalg.eigh(A[k - 1].conj().T @ A[k - 1])
            s = np.sqrt(np.clip(vals, 0.0, None))
            S += (U / np.maximum(delta, s)) @ U.conj().T
        want = hermitian_exp(S, gamma)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(want, 2)
