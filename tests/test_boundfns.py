"""Bound functions: forward maps, inverses, decay rates, delta optimization.

Oracles: scipy.special.lambertw for the transcendental inverses
(x e^x = t  <=>  x = W(t), and x^2 e^x = t  <=>  x = 2 W(sqrt(t)/2)),
scipy.optimize.brentq root-finding for the rational inverses, and a
per-delta scalar loop for the grid search of ``best_delta``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq
from scipy.special import lambertw

from blockjacobi import (BoundParams, ConvergenceError, DomainError,
                         GapInterval, ParameterError, best_delta, branch_for,
                         gamma_continuous, gamma_discrete, gamma_simplified,
                         inv_psi, inv_psi_d, inv_psi_tilde, inv_psi_tilde_d,
                         phi_delta, psi, psi_d, psi_tilde, psi_tilde_d, w)
from blockjacobi import boundfns
from blockjacobi.boundfns import LARGE_IMAGINARY, SMALL_IMAGINARY


def oracle_inv_psi_tilde(t):
    return float(lambertw(t).real)


def oracle_inv_psi(t):
    return 2.0 * float(lambertw(math.sqrt(t) / 2.0).real)


INVERSES = (inv_psi, inv_psi_tilde, inv_psi_d, inv_psi_tilde_d)

#: t drawn log-uniform over [1e-300, 1e300]
log10_t = st.floats(-300.0, 300.0)


# ---------------------------------------------------------------------------
# forward maps

def test_psi_values():
    assert psi(1.0) == pytest.approx(math.e, rel=1e-14)
    assert psi_tilde(1.0) == pytest.approx(math.e, rel=1e-14)
    assert psi(0.5) == pytest.approx(0.25 * math.exp(0.5), rel=1e-14)
    assert psi(0.5) == pytest.approx(0.412180, abs=1e-6)


def test_psi_domain_errors():
    for fn in (psi, psi_tilde):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-1.0)
    for fn in (psi_d, psi_tilde_d):
        with pytest.raises(DomainError):
            fn(1.0)
        with pytest.raises(DomainError):
            fn(0.0)


def test_phi_delta_branches():
    assert phi_delta(1.0, 0.5) == 1.0
    assert phi_delta(1.0, 2.0) == 0.5
    # continuity at the knee: both branches give the same value
    assert phi_delta(2.0, 2.0) == 0.5
    assert phi_delta(2.0, 2.0 - 1e-15) == pytest.approx(0.5, rel=1e-12)


def test_phi_delta_properties():
    delta = 0.7
    xs = np.linspace(0.0, 10.0, 200)
    vals = [phi_delta(delta, x) for x in xs]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))  # nonincreasing
    assert all(v <= 1.0 / delta + 1e-15 for v in vals)
    for x in xs[xs >= delta]:
        assert phi_delta(delta, float(x)) == 1.0 / x
    with pytest.raises(DomainError):
        phi_delta(0.0, 1.0)
    with pytest.raises(DomainError):
        phi_delta(1.0, -0.1)


def test_w_values():
    assert w(GapInterval(-1, 1), 0.0) == pytest.approx(1.0, rel=1e-15)
    assert w(GapInterval(1, 5), 3.0) == pytest.approx(2.0, rel=1e-15)
    # series cross-check near the edge: w(-1 + e) = sqrt(e (2 - e)) ~ sqrt(2 e)
    for eps in (1e-4, 1e-6):
        exact = math.sqrt(eps * (2.0 - eps))
        assert w(GapInterval(-1, 1), -1.0 + eps) == pytest.approx(exact, rel=1e-12)
        assert w(GapInterval(-1, 1), -1.0 + eps) == pytest.approx(
            math.sqrt(2.0 * eps), rel=1e-3)
    for bad in (-1.0, 1.0, 2.0):
        with pytest.raises(DomainError):
            w(GapInterval(-1, 1), bad)


def test_gap_interval_validation():
    with pytest.raises(ParameterError):
        GapInterval(1.0, 1.0)
    with pytest.raises(ParameterError):
        GapInterval(2.0, 1.0)


# ---------------------------------------------------------------------------
# inverses

def test_inv_psi_tilde_against_lambertw():
    assert inv_psi_tilde(math.e) == pytest.approx(1.0, rel=1e-12)
    assert inv_psi_tilde(0.25) == pytest.approx(oracle_inv_psi_tilde(0.25), rel=1e-12)
    assert inv_psi_tilde(0.25) == pytest.approx(0.203888, abs=1e-6)
    for t in np.logspace(-12, 6, 60):
        assert inv_psi_tilde(float(t)) == pytest.approx(oracle_inv_psi_tilde(t), rel=1e-11)


def test_inv_psi_against_lambertw():
    assert inv_psi(math.e) == pytest.approx(1.0, rel=1e-12)
    for t in np.logspace(-12, 6, 60):
        assert inv_psi(float(t)) == pytest.approx(oracle_inv_psi(t), rel=1e-11)


def test_inverse_round_trips():
    for t in np.logspace(-12, 6, 80):
        t = float(t)
        assert abs(psi(inv_psi(t)) - t) <= 1e-10 * max(1.0, t)
        assert abs(psi_tilde(inv_psi_tilde(t)) - t) <= 1e-10 * max(1.0, t)
    with pytest.raises(DomainError):
        inv_psi(0.0)
    with pytest.raises(DomainError):
        inv_psi_tilde(-1.0)


@given(log10_t)
def test_w0_inverses_match_lambertw_over_the_full_domain(e):
    t = 10.0 ** e
    assert inv_psi_tilde(t) == pytest.approx(oracle_inv_psi_tilde(t), rel=1e-13)
    assert inv_psi(t) == pytest.approx(oracle_inv_psi(t), rel=1e-13)


@given(log10_t)
def test_w0_inverse_round_trips_in_log_form(e):
    # psi(x) overflows for x > ~700, so compare logarithms: the error bound is
    # the one a relative 1e-13 in x induces, plus rounding of log t
    t = 10.0 ** e
    log_t = math.log(t)
    x = inv_psi(t)
    assert abs(2.0 * math.log(x) + x - log_t) <= 1e-13 * (2.0 + x + abs(log_t))
    x = inv_psi_tilde(t)
    assert abs(math.log(x) + x - log_t) <= 1e-13 * (1.0 + x + abs(log_t))


@given(st.lists(log10_t, min_size=1, max_size=20))
def test_inverses_on_arrays_equal_scalar_calls(exps):
    t = 10.0 ** np.array(exps)
    for inv in INVERSES:
        values = inv(t)
        assert isinstance(values, np.ndarray) and values.shape == t.shape
        assert np.array_equal(values, [inv(float(v)) for v in t])
        assert isinstance(inv(float(t[0])), float)


@given(log10_t)
def test_rational_inverses_stay_in_unit_interval(e):
    # the roots approach 1 like 1 - 1/t and 1 - 1/(2t); beyond t ~ 1e16 the
    # nearest float is 1.0 itself
    t = 10.0 ** e
    for inv in (inv_psi_d, inv_psi_tilde_d):
        x = inv(t)
        assert 0.0 < x <= 1.0
        if t <= 1e15:
            assert x < 1.0


def test_inverse_domain_errors():
    for inv in INVERSES:
        for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                inv(bad)
        with pytest.raises(DomainError):
            inv(np.array([1.0, 0.0]))


def test_lambert_w0_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(boundfns, "_W0_STEPS", 1)
    with pytest.raises(ConvergenceError):
        inv_psi_tilde(10.0)


def test_discrete_inverses_against_brentq():
    assert inv_psi_d(0.0625) == pytest.approx(
        brentq(lambda x: psi_d(x) - 0.0625, 1e-12, 1 - 1e-12, xtol=1e-15), rel=1e-12)
    assert inv_psi_d(0.0625) == pytest.approx(0.220696, abs=1e-6)
    assert inv_psi_tilde_d(0.25) == pytest.approx(
        brentq(lambda x: psi_tilde_d(x) - 0.25, 1e-12, 1 - 1e-12, xtol=1e-15), rel=1e-12)
    assert inv_psi_tilde_d(0.25) == pytest.approx(1.25 - math.sqrt(1.0625), rel=1e-12)
    for t in np.logspace(-10, 4, 50):
        t = float(t)
        assert abs(psi_d(inv_psi_d(t)) - t) <= 1e-10 * max(1.0, t)
        assert abs(psi_tilde_d(inv_psi_tilde_d(t)) - t) <= 1e-10 * max(1.0, t)
        assert 0.0 < inv_psi_d(t) < 1.0
        assert 0.0 < inv_psi_tilde_d(t) < 1.0


def test_monotonicity():
    xs = np.linspace(1e-6, 0.999, 400)
    for fn in (psi_d, psi_tilde_d):
        vals = [fn(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    xs = np.linspace(1e-6, 30.0, 400)
    for fn in (psi, psi_tilde):
        vals = [fn(float(x)) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_rational_beats_transcendental_for_psi_tilde():
    # larger inverse means a larger decay rate from the same argument
    for t in np.logspace(-10, 0, 100):
        t = float(t)
        assert inv_psi_tilde_d(t) > inv_psi_tilde(t)


def test_psi_pair_comparison_goes_the_other_way():
    # psi_d(x) = x^2 (1 + x + x^2 + ...) dominates psi(x) = x^2 (1 + x + x^2/2 + ...)
    # on (0, 1), so its inverse is the smaller one; only the psi_tilde pair
    # gives the rational variant an advantage.
    for t in np.logspace(-10, 0, 100):
        t = float(t)
        assert inv_psi_d(t) < inv_psi(t)


def test_taylor_agreement_of_psi_and_psi_d():
    # first two expansion terms coincide: both are x^2 (1 + x) + O(x^4)
    for x in (1e-2, 1e-3, 1e-4):
        lead = x * x * (1.0 + x)
        assert abs(psi(x) - lead) <= 2.0 * x**4
        assert abs(psi_d(x) - lead) <= 2.0 * x**4


# ---------------------------------------------------------------------------
# decay rates

GAP = GapInterval(-1.0, 1.0)
P0 = BoundParams(1.0, 0.25, 0.5)


def test_gamma_continuous_small_branch():
    rate = gamma_continuous(P0, GAP, 0.0)
    assert rate.branch == SMALL_IMAGINARY
    expected = min(oracle_inv_psi(0.0625), oracle_inv_psi_tilde(0.25))
    assert rate.gamma == pytest.approx(expected, rel=1e-11)
    assert rate.gamma == pytest.approx(0.203888, abs=1e-6)
    assert oracle_inv_psi(0.0625) == pytest.approx(0.223560, abs=1e-6)


def test_gamma_continuous_large_branch():
    rate = gamma_continuous(P0, GAP, 0.5j)
    assert rate.branch == LARGE_IMAGINARY
    assert rate.gamma == pytest.approx(oracle_inv_psi_tilde(0.03125), rel=1e-11)
    assert rate.gamma == pytest.approx(0.03032, abs=1e-5)


def test_gamma_vanishes_at_gap_edges():
    values = [gamma_continuous(P0, GAP, z).gamma
              for z in (0.0, 0.5, 0.9, 0.99, 0.999)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-1
    with pytest.raises(DomainError):
        gamma_continuous(P0, GAP, 1.0)
    with pytest.raises(DomainError):
        gamma_continuous(P0, GAP, 1.5 + 0.1j)


def test_gamma_discrete_values():
    rate = gamma_discrete(P0, GAP, 0.0)
    assert rate.gamma == pytest.approx(min(0.220696, 0.219224), abs=1e-6)
    assert rate.gamma > gamma_continuous(P0, GAP, 0.0).gamma
    rate_im = gamma_discrete(P0, GAP, 0.5j)
    assert rate_im.gamma == pytest.approx(1.03125 - math.sqrt(1.0 + 0.03125**2), rel=1e-12)
    assert rate_im.gamma == pytest.approx(0.030762, abs=1e-6)


def test_branch_is_variant_independent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(-0.99, 0.99), rng.uniform(-1.0, 1.0))
        assert gamma_discrete(P0, GAP, z).branch == gamma_continuous(P0, GAP, z).branch
        assert branch_for(GAP, z, P0.epsilon) == gamma_continuous(P0, GAP, z).branch


def test_gamma_simplified_values():
    assert gamma_simplified(GAP, 0.0, 0.01).gamma == pytest.approx(0.49, rel=1e-8)
    assert gamma_simplified(GapInterval(1, 5), 3.0, 0.1).gamma == pytest.approx(0.8, rel=1e-8)
    rate = gamma_simplified(GAP, 1.0j, 0.1)
    assert rate.branch == LARGE_IMAGINARY
    assert rate.gamma == pytest.approx(0.025, rel=1e-8)
    with pytest.raises(ParameterError):
        gamma_simplified(GAP, 0.0, 0.6)


def test_gamma_positive_everywhere_in_gap():
    rng = np.random.default_rng(11)
    for _ in range(100):
        params = BoundParams(10.0 ** rng.uniform(-2, 3),
                             rng.uniform(0.01, 0.49), rng.uniform(0.01, 0.99))
        z = complex(rng.uniform(-0.999, 0.999), rng.uniform(-2, 2))
        for fn in (gamma_continuous, gamma_discrete):
            assert fn(params, GAP, z).gamma > 0.0


def test_gamma_delta_limit():
    # gamma(delta) is nondecreasing in delta and converges to w (1 - 2 eps)/2
    zeta = 0.3
    limit = w(GAP, zeta) * (1.0 - 2.0 * P0.epsilon) / 2.0
    prev = -math.inf
    for delta in np.logspace(-2, 6, 40):
        g = gamma_continuous(BoundParams(float(delta), 0.25, 0.5), GAP, zeta).gamma
        assert g >= prev - 1e-14
        prev = g
    assert prev <= limit
    assert prev == pytest.approx(limit, rel=1e-5)
    # simplified rate with eps' slightly above eps lower-bounds the supremum
    assert gamma_simplified(GAP, zeta, 0.2501).gamma <= limit


# ---------------------------------------------------------------------------
# delta optimization

def test_best_delta_constant_large_norms():
    # no capping within the grid: exponent approaches count * w (1/2 - eps) / a
    a, count, zeta = 1.0e6, 20, 0.0
    delta, exponent = best_delta(P0, GAP, zeta, [a] * count)
    limit = count * w(GAP, zeta) * (0.5 - P0.epsilon) / a
    assert exponent == pytest.approx(limit, rel=1e-4)
    assert delta == pytest.approx(1.0e4, rel=1e-12)  # top of the default grid


def test_best_delta_single_sample():
    delta, exponent = best_delta(P0, GAP, 0.0, [1.0])
    # brute-force the same objective as an independent check
    best = -math.inf
    for d in np.logspace(-2, 4, 121):
        g = gamma_continuous(BoundParams(float(d), 0.25, 0.5), GAP, 0.0).gamma
        best = max(best, g * phi_delta(float(d), 1.0))
    assert math.isfinite(exponent)
    assert exponent == pytest.approx(best, rel=1e-12)


def test_best_delta_deep_window_matches_simplified():
    # on a window where every ||A_k|| is large, the optimized exponent comes
    # within 2% of the simplified-rate exponent with eps' = 0.01
    norms = np.array([(k ** 0.75 + (0.0 if k % 2 == 1 else 1.0))
                      for k in range(2000, 2200)])
    template = BoundParams(1.0, 0.01, 0.5)
    delta, exponent = best_delta(template, GAP, 0.0, norms)
    simplified = gamma_simplified(GAP, 0.0, 0.01).gamma * float(np.sum(1.0 / norms))
    assert math.isfinite(delta)
    assert exponent == pytest.approx(simplified, rel=0.02)


def test_best_delta_tie_break_and_validation():
    with pytest.raises(ParameterError):
        best_delta(P0, GAP, 0.0, [])
    with pytest.raises(ParameterError):
        best_delta(P0, GAP, 0.0, [1.0], variant="simplified")


def oracle_gamma(variant, gap, zeta, delta, eps, eta):
    """gamma from the oracle inverses, one delta at a time."""
    if variant == "continuous":
        inv_sq, inv_lin = oracle_inv_psi, oracle_inv_psi_tilde
    else:
        def inv_sq(t):
            return 2.0 * t / (t + math.sqrt(t * t + 4.0 * t))

        def inv_lin(t):
            return 2.0 * t / ((1.0 + t) + math.sqrt(1.0 + t * t))
    wx = w(gap, zeta.real)
    if abs(zeta.imag) <= wx * eps / 2.0:
        return min(delta * inv_sq(wx * wx * eps / (2.0 * delta * gap.width)),
                   delta * inv_lin(wx * (1.0 - 2.0 * eps) / (2.0 * delta)))
    return delta * inv_lin(wx * eps * (1.0 - eta) / (4.0 * delta))


def brute_best_delta(variant, gap, zeta, norms, deltas, eps, eta):
    """The grid search as a scalar loop: first strict maximum wins."""
    best_d, best_exp = float(deltas[0]), -math.inf
    for d in deltas:
        exponent = (oracle_gamma(variant, gap, zeta, float(d), eps, eta)
                    * float(np.sum(1.0 / np.maximum(d, norms))))
        if exponent > best_exp:
            best_d, best_exp = float(d), exponent
    return best_d, best_exp


@given(variant=st.sampled_from(["continuous", "discrete"]),
       imag=st.sampled_from([0.0, 0.25, 2.0]),    # in units of w(Re zeta) eps
       x=st.floats(-0.95, 0.95),
       eps=st.floats(0.01, 0.49), eta=st.floats(0.01, 0.99),
       # delta = 10^(k/100): distinct grid points differ by at least 2.3%, so
       # a tie is exact (a repeated delta) and rounding cannot reorder it
       grid=st.one_of(st.none(), st.lists(st.integers(-200, 400), min_size=1, max_size=30)),
       log10_norms=st.lists(st.floats(-3.0, 5.0), min_size=1, max_size=40),
       picks=st.lists(st.integers(0, 120), max_size=10),
       repeats=st.integers(0, 5))
def test_best_delta_matches_scalar_loop(variant, imag, x, eps, eta, grid,
                                        log10_norms, picks, repeats):
    gap = GapInterval(-1.0, 1.0)
    zeta = complex(x, imag * w(gap, x) * eps)
    deltas = (np.logspace(-2.0, 4.0, 121) if grid is None
              else 10.0 ** (np.array(grid) / 100.0))
    norms = 10.0 ** np.array(log10_norms)
    # norms equal to grid points, and repeated norms
    norms = np.concatenate([norms, deltas[np.array(picks, dtype=int) % len(deltas)],
                            norms[:repeats]])
    got = best_delta(BoundParams(1.0, eps, eta), gap, zeta, norms, variant,
                     deltas=None if grid is None else deltas)
    want = brute_best_delta(variant, gap, zeta, norms, deltas, eps, eta)
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-12)


def test_best_delta_rejects_nonpositive_grid():
    for deltas in ([1.0, 0.0], [-1.0], [2.0, math.nan]):
        with pytest.raises(ParameterError, match="delta must be > 0"):
            best_delta(P0, GAP, 0.0, [1.0], deltas=deltas)
    with pytest.raises(ParameterError):
        best_delta(P0, GAP, 0.0, [1.0], deltas=[])


def test_best_delta_ties_go_to_the_first_listed_delta():
    # a repeated delta is an exact tie; exponents that are not finite are
    # never chosen, and all-NaN norms leave the first delta with -inf
    assert best_delta(P0, GAP, 0.0, [1.0], deltas=[0.5, 0.5]) == best_delta(
        P0, GAP, 0.0, [1.0], deltas=[0.5])
    assert best_delta(P0, GAP, 0.0, [math.nan], deltas=[0.5, 2.0]) == (0.5, -math.inf)

