"""Spectra, symbol bands, gap detection, Green blocks, gap eigenpairs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blockjacobi import (ConvergenceError, GapInterval, ParameterError, SingularityError,
                         SpectrumEstimate, assemble_truncation, band_edges,
                         constant_sequence, custom_sequence, detect_gap,
                         eigenpairs_in_gap, example1_sequence,
                         example2_sequence, explicit_sequence, green_block,
                         period2_symbol_blocks, symbol_spectrum,
                         truncated_spectrum, with_prefix)
from blockjacobi import spectral
from blockjacobi.spectral import tail_symbol_spectrum

from dense import dense

A2 = np.array([[1.0, 3.0], [0.0, 1.0]], dtype=complex)
SRC = Path(__file__).resolve().parents[1] / "src"


def diag_scalar_seq(values):
    return custom_sequence(
        lambda n: (np.zeros((1, 1)), np.array([[float(values(n))]])), 1)


# ---------------------------------------------------------------------------
# truncated spectra

def test_spectrum_diagonal():
    op = assemble_truncation(diag_scalar_seq(lambda n: n), 3)
    est = truncated_spectrum(op)
    assert np.allclose(est.samples, [1.0, 2.0, 3.0], atol=1e-12)


def test_spectrum_free_jacobi_closed_form():
    seq = constant_sequence(np.array([[1.0]]), np.array([[0.0]]))
    n = 40
    est = truncated_spectrum(assemble_truncation(seq, n))
    oracle = np.sort(2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.allclose(est.samples, oracle, atol=1e-10)


def test_spectrum_example1_plus_minus_lambda():
    # decoupled 2x2 summands give eigenvalues +-lambda_n plus a zero cluster
    seq = example1_sequence(lambda_rule={"kind": "power"}, eps_rule={"kind": "zero"})
    n = 30
    est = truncated_spectrum(assemble_truncation(seq, n))
    lam = np.arange(1, n)
    oracle = np.sort(np.concatenate([lam, -lam, [0.0, 0.0]]))
    assert np.allclose(est.samples, oracle, atol=1e-10)


#: example 2 (x = 3) at N = 20: ||J|| = 5 (to 2%) and a near-zero pair at +-8.3e-9
FAULT_OP = assemble_truncation(example2_sequence(3.0), 20)
FAULT_VALS = np.linalg.eigvalsh(dense(FAULT_OP))
NEAREST_ZERO = int(np.argmin(np.abs(FAULT_VALS)))
#: 2e-8 ||J||: twice the tolerance of the trace identity
STEP = 2e-8 * float(np.max(np.abs(FAULT_VALS)))


def moved(i, step):
    """Eigenvalue ``i`` moved by ``step``."""
    def corrupt(vals):
        vals = vals.copy()
        vals[i] += step
        return vals
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda v: np.delete(v, NEAREST_ZERO), r"^eigensolver returned 39 values",
                 id="drop-nearest-zero"),
    pytest.param(lambda v: np.delete(v, -1), r"^eigensolver returned 39 values",
                 id="drop-highest"),
    pytest.param(lambda v: np.insert(v, NEAREST_ZERO, v[NEAREST_ZERO]),
                 r"^eigensolver returned 41 values", id="duplicate-nearest-zero"),
    pytest.param(lambda v: np.insert(v, 0, v[0]), r"^eigensolver returned 41 values",
                 id="duplicate-lowest"),
    pytest.param(moved(NEAREST_ZERO, STEP), r"^eigenvalues miss the trace identity",
                 id="move-nearest-zero-up"),
    pytest.param(moved(NEAREST_ZERO, -STEP), r"^eigenvalues miss the trace identity",
                 id="move-nearest-zero-down"),
    pytest.param(moved(-1, STEP), r"^eigenvalues miss the trace identity", id="move-highest"),
    pytest.param(moved(0, -STEP), r"^eigenvalues miss the trace identity", id="move-lowest"),
    pytest.param(lambda v: np.where(np.arange(v.size) == 3, math.nan, v),
                 r"^eigensolver returned 40 values \(39 finite\)", id="nan")])
def test_truncated_spectrum_rejects_a_faulty_tridiagonal_result(monkeypatch, corrupt, message):
    true = spectral.eigvals_all
    monkeypatch.setattr(spectral, "eigvals_all", lambda band: corrupt(true(band)))
    with pytest.raises(ConvergenceError, match=message):
        truncated_spectrum(FAULT_OP)


def test_frobenius_identity_alone_misses_a_move_near_zero():
    # why the trace is checked too: moving the eigenvalue nearest 0 by
    # 2e-8 ||J|| changes sum lambda^2 by far less than 1e-8 ||J||^2
    vals = FAULT_VALS
    assert np.count_nonzero(np.abs(vals) <= 1e-8) == 2 and np.max(np.abs(vals)) >= 1.0
    for step in (STEP, -STEP):
        change = np.sum(moved(NEAREST_ZERO, step)(vals) ** 2) - np.sum(vals ** 2)
        assert abs(change) <= 1e-12 * np.max(np.abs(vals)) ** 2


# ---------------------------------------------------------------------------
# symbol spectra

def test_symbol_example2_bands():
    est = symbol_spectrum(A2, np.zeros((2, 2)), 256)
    thetas = 2.0 * math.pi * np.arange(256) / 256
    oracle = np.sort(np.concatenate([2 * np.cos(thetas) + 3, 2 * np.cos(thetas) - 3]))
    assert np.allclose(est.samples, oracle, atol=1e-10)
    assert est.samples[0] == pytest.approx(-5.0, abs=1e-12)
    assert est.samples[-1] == pytest.approx(5.0, abs=1e-12)


def test_symbol_eigenvalue_table_feeds_gap_refinement():
    est = symbol_spectrum(A2, np.diag([0.3, -0.2]), 512)
    table = est.symbol_eigvals
    assert table.shape == (512, 2) and not table.flags.writeable
    thetas = 2.0 * math.pi * np.arange(512) / 512
    z = np.exp(1j * thetas)[:, None, None]
    symbols = z * A2 + np.conj(z) * A2.conj().T + np.diag([0.3, -0.2])
    # the table is the 2 x 2 kernel's, theta by theta; its agreement with
    # LAPACK is checked in test_kernels.py
    per_theta = np.array([spectral._eigvalsh(h) for h in symbols])
    assert np.array_equal(table, per_theta)
    assert np.array_equal(est.samples, np.sort(table.ravel()))
    # the coarse bracket is read from the table: rolling it by a quarter
    # period moves the bracket off the true extremum and changes the endpoints
    gaps = detect_gap(est, 0.2)
    shifted = SpectrumEstimate(method="symbol", samples=est.samples, size=est.size,
                               symbol=est.symbol,
                               symbol_eigvals=np.roll(table, 128, axis=0))
    assert [(g.r, g.s) for g in detect_gap(shifted, 0.2)] != [(g.r, g.s) for g in gaps]


def test_symbol_estimate_without_table_computes_it():
    est = symbol_spectrum(A2, np.diag([0.3, -0.2]), 512)
    bare = SpectrumEstimate(method="symbol", samples=est.samples, size=est.size,
                            symbol=est.symbol)
    assert np.array_equal(bare.symbol_eigvals, est.symbol_eigvals)
    assert not bare.symbol_eigvals.flags.writeable
    assert [(g.r, g.s) for g in detect_gap(bare, 0.2)] == \
        [(g.r, g.s) for g in detect_gap(est, 0.2)]
    assert np.array_equal(band_edges(bare, 0.2), band_edges(est, 0.2))


def test_symbol_no_gap_and_point_cases():
    est = symbol_spectrum(np.eye(2), np.zeros((2, 2)), 128)
    assert est.samples[0] == pytest.approx(-2.0, abs=1e-12)
    assert detect_gap(est, 0.2) == []
    est_pt = symbol_spectrum(np.zeros((2, 2)), 1.5 * np.eye(2), 64)
    assert np.allclose(est_pt.samples, 1.5)


def test_symbol_requires_hermitian_b():
    with pytest.raises(ParameterError):
        symbol_spectrum(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 64)


def test_detect_gap_example2():
    est = symbol_spectrum(A2, np.zeros((2, 2)), 4096)
    gaps = detect_gap(est, 0.2)
    assert len(gaps) == 1
    assert gaps[0].r == pytest.approx(-1.0, abs=1e-9)
    assert gaps[0].s == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_gap_tolerance_must_be_finite_and_positive(tol):
    # a tolerance of 0 or below counts every pair of neighbouring samples as
    # a gap, nan none, and inf asks for no gap at all
    est = symbol_spectrum(A2, np.zeros((2, 2)), 256)
    for find in (detect_gap, spectral.band_edges):
        with pytest.raises(ParameterError, match=r"^gap tolerance tol must be a finite "
                                                 r"positive number"):
            find(est, tol)


def test_detect_gap_sorted_and_synthetic():
    est = SpectrumEstimate(method="truncation",
                           samples=np.array([0.0, 5.0]), size=2)
    gaps = detect_gap(est, 1.0)
    assert len(gaps) == 1 and (gaps[0].r, gaps[0].s) == (0.0, 5.0)
    est2 = SpectrumEstimate(method="truncation",
                            samples=np.array([0.0, 0.5, 3.0, 3.2, 10.0]), size=5)
    gaps2 = detect_gap(est2, 1.0)
    assert [(g.r, g.s) for g in gaps2] == [(3.2, 10.0), (0.5, 3.0)]


def test_band_edges_example2():
    est = symbol_spectrum(A2, np.zeros((2, 2)), 1024)
    edges = band_edges(est, 0.2)
    assert np.allclose(edges, [-5.0, -1.0, 1.0, 5.0], atol=1e-9)


def test_period2_symbol_dimer_chain():
    # alternating scalar couplings a, b: bands +-[|a-b|, a+b]
    big_a, big_b = period2_symbol_blocks([[1.0]], [[3.0]], [[0.0]], [[0.0]])
    est = symbol_spectrum(big_a, big_b, 1024)
    gaps = detect_gap(est, 0.5)
    assert gaps[0].r == pytest.approx(-2.0, abs=1e-9)
    assert gaps[0].s == pytest.approx(2.0, abs=1e-9)
    edges = band_edges(est, 0.5)
    assert np.allclose(edges, [-4.0, -2.0, 2.0, 4.0], atol=1e-9)


def test_tail_symbol_rejects_a_slowly_growing_tail():
    # consecutive A_n differ by 1e-5 on a diagonal near 3: inside np.allclose's
    # default relative tolerance, yet the tail is neither constant nor periodic
    seq = custom_sequence(lambda n: ((3.0 + 1e-5 * n) * np.eye(2) + np.diag([0.0, 0.1]),
                                     np.zeros((2, 2))), 2)
    with pytest.raises(ParameterError, match="constant or 2-periodic blocks"):
        tail_symbol_spectrum(seq)


def golden_extremum(f, a, b, sign):
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


def golden_level(est, level, side):
    """The refinement ``detect_gap`` replaced: golden-section search on one
    symbol matrix per theta, inside the bracket of the coarse table."""
    A, B = est.symbol

    def nearest(vals):
        if side == "below":
            return np.max(np.where(vals <= level, vals, -math.inf), axis=-1)
        return np.min(np.where(vals >= level, vals, math.inf), axis=-1)

    def f(theta):
        z = complex(math.cos(theta), math.sin(theta))
        return float(nearest(np.linalg.eigvalsh(z * A + z.conjugate() * A.conj().T + B)))

    coarse = nearest(est.symbol_eigvals)
    k = int(np.argmax(coarse)) if side == "below" else int(np.argmin(coarse))
    h = 2.0 * math.pi / est.size
    _, val = golden_extremum(f, k * h - h, k * h + h, 1.0 if side == "below" else -1.0)
    return val


def golden_gaps_and_edges(est, tol):
    gaps = []
    for i in np.nonzero(np.diff(est.samples) > tol)[0]:
        mid = 0.5 * (est.samples[i] + est.samples[i + 1])
        gaps.append((golden_level(est, mid, "below"), golden_level(est, mid, "above")))
    gaps.sort(key=lambda g: g[1] - g[0], reverse=True)
    edges = [e for g in gaps for e in g]
    edges += [golden_level(est, -math.inf, "above"), golden_level(est, math.inf, "below")]
    return gaps, sorted(edges)


def oracle_symbols():
    """(name, A, B, grid size): example 2, the dimer fold, random symbols."""
    for x in (2.5, 3.0, 3.5, 4.0):
        yield (f"example2 x={x}", np.array([[1.0, x], [0.0, 1.0]]), np.zeros((2, 2)), 2048)
    yield ("dimer", *period2_symbol_blocks(1, 3, 0, 0), 2048)
    rng = np.random.default_rng(20261018)
    for i in range(104):
        d = 1 + i % 4
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        A *= rng.uniform(0.1, 1.0)          # narrow bands open gaps
        yield (f"random {i}", A, H + H.conj().T, 512)


def test_zoomed_edges_match_golden_section_oracle():
    gapped = 0
    for name, A, B, grid in oracle_symbols():
        est = symbol_spectrum(A, B, grid)
        gaps, edges = golden_gaps_and_edges(est, 0.2)
        got = detect_gap(est, 0.2)
        assert len(got) == len(gaps), name
        gapped += bool(gaps)
        for g, (r, s) in zip(got, gaps):
            assert abs(g.r - r) <= 1e-13 * max(1.0, abs(r)), name
            assert abs(g.s - s) <= 1e-13 * max(1.0, abs(s)), name
        got_edges = band_edges(est, 0.2)
        assert len(got_edges) == len(edges), name
        for e, ref in zip(got_edges, edges):
            assert abs(e - ref) <= 1e-13 * max(1.0, abs(ref)), name
    assert gapped >= 50         # the random symbols exercise gap edges too


# ---------------------------------------------------------------------------
# Green blocks

def test_green_decoupled_diagonal_blocks():
    rng = np.random.default_rng(17)
    bs = []
    for _ in range(6):
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        bs.append(0.5 * (H + H.conj().T))
    seq = explicit_sequence([(np.zeros((2, 2)), b) for b in bs])
    op = assemble_truncation(seq, 6)
    zeta = 0.3 + 0.7j
    table = green_block(op, zeta, range(1, 7), range(1, 7))
    for m in range(1, 7):
        for j in range(1, 7):
            if m == j:
                oracle = np.linalg.inv(bs[m - 1] - zeta * np.eye(2))
                assert np.allclose(table.block(m, j), oracle, atol=1e-10)
            else:
                assert table.norm(m, j) <= 1e-12


def test_green_example1_band_structure():
    seq = example1_sequence(lambda_rule={"kind": "power"}, eps_rule={"kind": "zero"})
    op = assemble_truncation(seq, 40)
    table = green_block(op, 0.5 + 0.5j, range(1, 41), [5])
    for m in range(1, 41):
        if abs(m - 5) >= 2:
            assert table.norm(m, 5) <= 1e-12


def test_green_symmetry_random_triples():
    # ||G_mj(zeta)|| == ||G_jm(conj zeta)|| on 100 random triples
    from blockjacobi import example3_sequence
    rng = np.random.default_rng(23)
    families = [example2_sequence(3.0),
                example3_sequence(x=0.5, alpha=0.75, c1=0.0, c2=1.0),
                example1_sequence(lambda_rule={"kind": "power"},
                                  eps_rule={"kind": "power", "scale": 0.5,
                                            "exponent": -1.0})]
    n = 40
    for seq in families:
        op = assemble_truncation(seq, n)
        for _ in range(34):
            m, j = (int(v) for v in rng.integers(1, n + 1, size=2))
            zeta = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.2, 1.5))
            t1 = green_block(op, zeta, [m], [j])
            t2 = green_block(op, zeta.conjugate(), [j], [m])
            assert abs(t1.norm(m, j) - t2.norm(j, m)) <= 1e-8


def test_green_resolvent_identity_against_dense_inverse():
    seq = example2_sequence(3.0)
    n = 12
    op = assemble_truncation(seq, n)
    z1, z2 = 0.4 + 0.3j, -0.2 + 0.6j
    eye = np.eye(2 * n)
    r1o = np.linalg.inv(dense(op) - z1 * eye)
    r2o = np.linalg.inv(dense(op) - z2 * eye)
    idx = range(1, n + 1)
    t1 = green_block(op, z1, idx, idx)
    t2 = green_block(op, z2, idx, idx)
    g1 = np.block([[t1.block(m, j) for j in idx] for m in idx])
    g2 = np.block([[t2.block(m, j) for j in idx] for m in idx])
    assert np.max(np.abs(g1 - r1o)) <= 1e-10
    assert np.max(np.abs(g1 - g2 - (z1 - z2) * (r1o @ r2o))) <= 1e-8


def test_green_singularity_error():
    op = assemble_truncation(diag_scalar_seq(lambda n: n), 5)
    with pytest.raises(SingularityError):
        green_block(op, 2.0, [1], [1])
    with pytest.raises(SingularityError):
        green_block(op, 2.0 + 1e-12j, [1], [1])


def test_green_ill_conditioned_flag():
    op = assemble_truncation(diag_scalar_seq(lambda n: n * 1e5), 5)
    table = green_block(op, 3e5 + 3e-8, [1, 3], [1])
    assert table.ill_conditioned
    clean = green_block(op, 3.5e5, [1], [1])
    assert not clean.ill_conditioned


def test_green_index_validation():
    op = assemble_truncation(example2_sequence(3.0), 10)
    with pytest.raises(ParameterError):
        green_block(op, 0.5, [0], [1])
    with pytest.raises(ParameterError):
        green_block(op, 0.5, [1], [11])


# ---------------------------------------------------------------------------
# eigenpairs in a gap

GAP = GapInterval(-1.0, 1.0)


def left_mass(pair):
    un = pair.block_norms
    half = len(un) // 2
    return float(np.sum(un[:half] ** 2))


def test_eigenpairs_unperturbed_finds_zero_energy_surface_state():
    # the half-line x=3 operator has a genuine eigenvalue at 0: odd blocks
    # follow powers of the contracting eigendirection of -A^{-1}A^*
    op = assemble_truncation(example2_sequence(3.0), 200)
    pairs = eigenpairs_in_gap(op, GAP)
    assert len(pairs) == 1
    p = pairs[0]
    assert abs(p.zeta) <= 1e-8
    assert p.residual <= 1e-8
    assert left_mass(p) > 0.99
    # analytic eigenvector: u_{2j+1} = mu_s^j v, u_even = 0
    mu_s = (7.0 - math.sqrt(45.0)) / 2.0
    v = np.array([1.0, -(8.0 - mu_s) / 3.0])
    v /= np.linalg.norm(v)
    direction = p.blocks[0] / np.linalg.norm(p.blocks[0])
    assert abs(abs(direction.conj() @ v) - 1.0) <= 1e-8
    ratio = np.linalg.norm(p.blocks[2]) / np.linalg.norm(p.blocks[0])
    assert ratio == pytest.approx(mu_s, rel=1e-8)


def test_eigenpairs_far_edge_artifact_rejected():
    # with B_1 = 1.5 I the surface state leaves the gap; the only in-gap
    # eigenvalue of the section is the far-boundary Dirichlet artifact,
    # which the embedding filter rejects
    seq = with_prefix(example2_sequence(3.0), [(A2, 1.5 * np.eye(2))])
    op = assemble_truncation(seq, 200)
    assert eigenpairs_in_gap(op, GAP) == []


def test_eigenpairs_perturbed_matches_brute_force():
    seq = with_prefix(example2_sequence(3.0), [(A2, 0.5 * np.eye(2))])
    pairs = eigenpairs_in_gap(assemble_truncation(seq, 200), GAP)
    assert len(pairs) == 1
    p = pairs[0]
    # brute-force oracle: left-localized gap eigenvalues of the dense sections
    found = {}
    for n in (200, 400):
        vals, vecs = np.linalg.eigh(dense(assemble_truncation(seq, n)))
        for i in np.nonzero((vals > -0.98) & (vals < 0.98))[0]:
            u = vecs[:, i]
            if np.sum(np.abs(u[: n]) ** 2) > 0.9:  # first half of the blocks
                found[n] = vals[i]
    assert 200 in found and 400 in found
    assert abs(found[200] - found[400]) < 1e-6
    assert p.zeta == pytest.approx(found[200], abs=1e-8)
    assert p.drift < 1e-6


def test_eigenpairs_empty_window():
    # eigenvalues k = 1..6; the window (2.116, 2.884) after the 2% margin
    # contains none of them
    op = assemble_truncation(diag_scalar_seq(lambda n: n), 6)
    assert eigenpairs_in_gap(op, GapInterval(2.1, 2.9)) == []


def test_eigenpairs_genuine_diagonal_eigenvalue_found():
    # an isolated eigenvalue of a diagonal operator is genuinely there and
    # survives the embedding filter
    seq = explicit_sequence(
        [(np.zeros((1, 1)), np.array([[float(b)]])) for b in (0.0, 2.0, 4.0, 4.5)],
        tail=(np.zeros((1, 1)), np.array([[5.0]])))
    op = assemble_truncation(seq, 12)
    pairs = eigenpairs_in_gap(op, GapInterval(1.0, 3.0))
    assert len(pairs) == 1
    assert pairs[0].zeta == pytest.approx(2.0, abs=1e-10)


def test_eigenpairs_requires_sequence():
    from blockjacobi import TruncatedOperator
    op = TruncatedOperator(a_blocks=np.zeros((3, 1, 1), dtype=complex),
                           b_blocks=np.ones((4, 1, 1), dtype=complex), sequence=None)
    with pytest.raises(ParameterError):
        eigenpairs_in_gap(op, GapInterval(-1, 1))


# ---------------------------------------------------------------------------
# start vectors of the Lanczos and inverse iterations

@pytest.mark.parametrize("dtype", [float, complex])
def test_start_block_is_a_fixed_full_rank_block_in_the_unit_interval(dtype):
    first = spectral._start_block(40, 8, dtype)
    assert first.shape == (40, 8) and first.dtype == np.dtype(dtype)
    assert np.array_equal(first, spectral._start_block(40, 8, dtype))
    parts = first.view(float)
    assert np.all(parts >= -1.0) and np.all(parts < 1.0)
    assert len(np.unique(parts)) == parts.size
    for k in range(1, 9):
        block = spectral._start_block(40, k, dtype)
        assert np.linalg.matrix_rank(block) == k
    if dtype is complex:
        assert not np.any(first.real == first.imag)
        assert np.linalg.matrix_rank(np.hstack([first.real, first.imag])) == 16


#: one small config of each experiment kind and a truncated spectrum, then
#: the modules loaded; run in a fresh interpreter, since the test process
#: imports numpy.random itself
LIBRARY_PATHS = """
import json, sys
import numpy as np
import blockjacobi as bj
from blockjacobi import _lapack
diagonal = {"dim": 2, "family": "constant",
            "params": {"A": np.diag([0.5, 0.5]).tolist(), "B": np.diag([3.0, -3.0]).tolist()}}
bound = {"dim": 2, "family": "example2", "params": {"x": 3.0},
         "prefix": [{"A": [[1.0, 3.0], [0.0, 1.0]], "B": np.diag([0.5, 0.5]).tolist()}]}
configs = [
    {"operator": bound, "zetas": [[0.5, 0.0], [0.3, 0.2]], "n_blocks": 40,
     "variants": ["continuous", "discrete"], "experiments": ["green", "eigenvector"]},
    {"operator": diagonal, "zetas": [[0.5, 0.0]], "n_blocks": 40, "variants": ["commuting"],
     "experiments": ["commuting"]},
    {"experiments": ["edge"], "edge": {"x": 3.0, "eps_list": [5e-3, 1e-2], "n_blocks": 60}},
]
passed = []
for data in configs:
    report, _ = bj.run(bj.ExperimentConfig.from_json(data), out_dir=sys.argv[1])
    passed += [r.passed for r in report.experiments]
bj.truncated_spectrum(bj.assemble_truncation(bj.example2_sequence(3.0), 40))
print(json.dumps({"passed": passed, "library": _lapack.LIBRARY,
                  "numpy.random": "numpy.random" in sys.modules}))
"""


def test_no_library_path_imports_numpy_random(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", LIBRARY_PATHS, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert len(result["passed"]) == 7      # 4 green, 1 eigenvector, 1 commuting, 1 edge
    if result["library"] is None:
        pytest.skip("scipy's LAPACK, the fallback band routines, imports numpy.random itself")
    assert result["numpy.random"] is False
