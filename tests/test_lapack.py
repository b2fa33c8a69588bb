"""The band LAPACK wrappers of ``blockjacobi._lapack`` against scipy's.

``_lapack.Lapack`` binds ``dgbtrf``, ``zgbtrf``, ``dgbtrs``, ``zgbtrs``,
``dpbtrf``, ``zpbtrf``, ``zhbtrd``, ``dsbtrd``, ``dstebz`` and ``dsterf``
from a ``Library``:
numpy's bundled ILP64 OpenBLAS (int64 integers, hidden string lengths) or
the LP64 C pointers of scipy's ``cython_lapack`` capsules.  Every binding
test runs the one set of wrappers on both libraries, in a loop over
``BINDINGS`` (numpy's is left out only where this numpy bundles none), so
each hypothesis draw is checked on both.  They must give the results of
scipy's Python wrappers, bit for bit, on the bands the library builds: the
stacked J_N - zeta bands of ``_band_storage`` and their lower Hermitian
halves, for random Hermitian block operators with d = 1..4, N = 2..40 and
one to three stacked zetas, and the real bands of real symmetric operators
at real shifts.  The band LU entries ``lu_factor`` and ``band_solver`` work
in place and pick ``dgbtr*`` or ``zgbtr*`` by the band's type; they must
equal scipy's ``dgbtrf``/``zgbtrf`` and ``dgbtrs``/``zgbtrs`` (trans 0).
The wrappers' pivots are LAPACK's 1-based ones, scipy's are 0-based.
The band Cholesky ``cholesky_factor``, in place, ``dpbtrf`` or ``zpbtrf``
(upper) by the band's type, must equal scipy's wrappers bit for bit, info
included, on the stacked normal bands (J_N - x)^2 - s^2 I of
``spectral._normal_band``, with shifts at eigenvalues where it fails.
``eigvals_window`` (one band reduction, then ``dstebz`` bisection for a
window and the two extreme eigenvalues) must equal three calls of scipy's
``dsbevx`` on real bands and ``zhbevx`` on complex ones, which run the same
routines, and the dense ``eigvalsh`` to 1e-12 max(||J||, 1), on windows
placed around drawn eigenvalues, empty ones included.  Real symmetric
operators take one real reduction; a real band with one imaginary entry
below the diagonal, however small, takes one complex reduction, and the
scipy reference (``_zhbevx_window``) its three ``zhbevx`` calls.
``eigvals_all`` (one band reduction, then ``dsterf``) must equal scipy's
``dsbevd`` or ``zhbevd``, and ``truncated_spectrum`` on either binding the
dense ``eigvalsh`` to 1e-12 max(||J||, 1).  Bands scaled far below or above
1 give the scaled eigenvalues.  ``band_solver``, bound once to its operands,
repeats ``zgbtrs`` call for call, and takes only a writeable F-contiguous
right-hand side of its factor's type; ``lu_factor`` only a writeable
F-contiguous float64 or complex128 band.  Failures raise ConvergenceError
(info > 0) or ValueError (illegal argument).
"""

import _ctypes
import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.linalg import lapack as scipy_lapack

from blockjacobi import (ConvergenceError, TruncatedOperator, _lapack, assemble_truncation,
                         example2_sequence, spectral, truncated_spectrum)
from blockjacobi.spectral import _band_storage, _hermitian_band

from dense import dense

from test_banded import (SMALL, draw_window, hermitian_from_band, hermitian_operators,
                         pinned, pinned_windows, real_operators, seeded_operator,
                         seeded_real_operator, zetas)

#: the wrappers on numpy's bundled library, where this numpy has one, and on scipy's
BINDINGS = ([] if _lapack._LIB is None else [_lapack.Lapack(_lapack.numpy_library(_lapack._LIB))]
            + [_lapack.Lapack(_lapack.scipy_library())])
SRC = Path(__file__).resolve().parents[1] / "src"


def rhs(size, columns, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((size, columns)) + 1j * rng.standard_normal((size, columns))


def match_scipy_lu(ab, kl, b, factor, solve):
    """``lu_factor`` and ``band_solver`` of every binding on copies of the
    band ``ab`` and of ``b`` (several columns, and one as a vector) equal
    scipy's ``factor`` and ``solve`` bit for bit; False, and nothing checked,
    when scipy finds an exact zero pivot."""
    lu_ref, ipiv_ref, info_ref = factor(ab, kl, kl)
    if info_ref != 0:
        return False
    for lapack in BINDINGS:
        lu = ab.copy(order="F")
        ipiv, info = lapack.lu_factor(lu, kl)
        assert info == 0
        assert np.array_equal(lu, lu_ref)
        assert np.array_equal(ipiv - 1, ipiv_ref)
        for right in (b, b[:, 0]):
            x = right.copy(order="F")
            assert lapack.band_solver(lu, kl, x, ipiv)() == 0
            x_ref, _ = solve(lu_ref, kl, kl, right, ipiv_ref)
            assert np.array_equal(x, x_ref)
    return True


@given(hermitian_operators(), st.lists(zetas, min_size=1, max_size=3))
def test_band_lu_and_solves_match_scipy(op, stack):
    ab = _band_storage(op, stack)
    assert ab.dtype == np.complex128
    assert match_scipy_lu(ab, 2 * op.dim - 1, rhs(ab.shape[1], 3),
                          scipy_lapack.zgbtrf, scipy_lapack.zgbtrs)


@given(real_operators(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3))
def test_real_band_lu_and_solves_match_scipy(op, stack):
    # real shifts keep the band of a real symmetric operator real
    ab = _band_storage(op, stack)
    assert ab.dtype == np.float64
    assume(match_scipy_lu(ab, 2 * op.dim - 1, rhs(ab.shape[1], 3).real.copy(),
                          scipy_lapack.dgbtrf, scipy_lapack.dgbtrs))


def with_imaginary(band, k, j, part):
    """A complex copy of ``band`` with ``part`` added to the imaginary part of
    entry (k, j), which lies below the diagonal (k >= 1)."""
    band = band.astype(complex)
    band[k, j] += 1j * part
    return band


def band_window(draw, band):
    return (band, *draw_window(draw, np.linalg.eigvalsh(hermitian_from_band(band))))


@st.composite
def windows(draw, operators=hermitian_operators()):
    """(lower band, lo, hi), the window drawn by ``draw_window``."""
    return band_window(draw, _hermitian_band(draw(operators)))


@st.composite
def windows_with_one_imaginary_entry(draw):
    """(lower band, lo, hi) of a real symmetric operator whose band has one
    entry below the diagonal made complex, by a part from 1e-300 to 0.5."""
    band = _hermitian_band(draw(real_operators()))
    k = draw(st.integers(1, band.shape[0] - 1))
    j = draw(st.integers(0, band.shape[1] - k - 1))
    part = draw(st.sampled_from([1e-300, 1e-16, 1e-8, 0.5])) * draw(st.sampled_from([1, -1]))
    return band_window(draw, with_imaginary(band, k, j, part))


def pins(small, pair):
    """The pinned (band, lo, hi) cases: an empty window and one around every
    eigenvalue of ``small``, one around the lower eigenvalue of ``pair``
    (d = 1, N = 2)."""
    def eigs(band):
        return np.linalg.eigvalsh(hermitian_from_band(band))
    return [(band, lo, hi) for band, (lo, hi)
            in zip((small, small, pair), pinned_windows(eigs(small), eigs(pair)))]


SMALL_REAL, PAIR_REAL = seeded_real_operator(1, 3, 0), seeded_real_operator(1, 2, 0)
COMPLEX_PINS = pins(_hermitian_band(SMALL), _hermitian_band(seeded_operator(1, 2, 0)))
REAL_PINS = pins(_hermitian_band(SMALL_REAL), _hermitian_band(PAIR_REAL))
#: an O(1) imaginary part, and one of 1e-300 that no tolerance may take for 0
IMAGINARY_PINS = pins(with_imaginary(_hermitian_band(SMALL_REAL), 1, 0, 0.5),
                      with_imaginary(_hermitian_band(PAIR_REAL), 1, 0, 1e-300))


@contextlib.contextmanager
def reductions(owner, attrs):
    """Names of the band reductions (the ``attrs`` of ``owner``, stripped of
    underscores) run inside the block."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        for attr in attrs:
            def spy(*args, _run=getattr(owner, attr), _name=attr.strip("_"), **kwargs):
                calls.append(_name)
                return _run(*args, **kwargs)
            patch.setattr(owner, attr, spy)
        yield calls


def _zhbevx_window(band, lo, hi):
    """``eigvals_window`` from scipy's Python wrappers, the reference of the
    wrappers: three ``dsbevx`` calls on a real band, three ``zhbevx`` calls on
    any other, each of which reduces the band again."""
    real = not np.any(np.imag(band))
    name = "dsbevx" if real else "zhbevx"

    def bisect(kind, index):      # kind 1: (lo, hi]; 2: eigenvalue ``index``
        w, _, m, _, info = getattr(scipy_lapack, name)(
            np.real(band) if real else band, lo, hi, index, index, compute_v=0,
            range=kind, lower=1, overwrite_ab=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of {name}")
        if info > 0:
            raise ConvergenceError(f"{name} did not converge (LAPACK info = {info})")
        return w[:m]

    return np.sort(bisect(1, 1)), float(bisect(2, 1)[0]), float(bisect(2, band.shape[1])[0])


def match_scipy(window, band, lo, hi):
    kept = band.copy()
    w, lowest, highest = window(band, lo, hi)
    w_ref, lowest_ref, highest_ref = _zhbevx_window(band, lo, hi)
    assert np.array_equal(w, w_ref)
    assert lowest == lowest_ref and highest == highest_ref
    assert np.array_equal(band, kept)               # the input is not overwritten


def match_dense(window, band, lo, hi):
    vals = np.linalg.eigvalsh(hermitian_from_band(band))
    tol = 1e-12 * max(float(np.max(np.abs(vals))), 1.0)
    # the ends sit half a gap from the spectrum; keep them clear of rounding
    assume(np.min(np.abs(vals - lo)) > tol and np.min(np.abs(vals - hi)) > tol)
    w, lowest, highest = window(band, lo, hi)
    inside = vals[(vals > lo) & (vals <= hi)]
    assert w.shape == inside.shape
    assert np.all(np.abs(w - inside) <= tol)
    assert abs(lowest - vals[0]) <= tol and abs(highest - vals[-1]) <= tol


def match_with_one_reduction(match, reduction, case):
    """``match`` on the eigvals_window of every binding, each running
    ``reduction`` once."""
    for lapack in BINDINGS:
        with reductions(lapack, ("_dsbtrd", "_zhbtrd")) as calls:
            match(lapack.eigvals_window, *case)
        assert calls == [reduction]


@pinned(COMPLEX_PINS)
@given(windows())
def test_window_eigenvalues_match_scipy_zhbevx(case):
    match_with_one_reduction(match_scipy, "zhbtrd", case)


@pinned(COMPLEX_PINS)
@given(windows())
def test_window_eigenvalues_match_dense_oracle(case):
    match_with_one_reduction(match_dense, "zhbtrd", case)


@pinned(REAL_PINS)
@given(windows(real_operators()))
def test_real_window_eigenvalues_match_scipy_dsbevx(case):
    match_with_one_reduction(match_scipy, "dsbtrd", case)


@pinned(REAL_PINS)
@given(windows(real_operators()))
def test_real_window_eigenvalues_match_dense_oracle(case):
    match_with_one_reduction(match_dense, "dsbtrd", case)


@pytest.mark.parametrize("window", [_lapack.eigvals_window, _zhbevx_window])
@pinned(IMAGINARY_PINS)
@given(windows_with_one_imaginary_entry())
def test_one_imaginary_entry_takes_the_complex_path(window, case):
    # the wrappers on every binding, and their scipy reference
    if window is _zhbevx_window:
        with reductions(scipy_lapack, ("dsbevx", "zhbevx")) as calls:
            match_dense(window, *case)
        assert calls == ["zhbevx"] * 3
    else:
        match_with_one_reduction(match_dense, "zhbtrd", case)


def test_tiny_and_huge_bands_give_the_scaled_eigenvalues():
    # The window and all eigenvalues.  Unscaled, dstebz takes every
    # eigenvalue of a band near 2^-540 for 0 and does not converge on one
    # near 2^1000.  The dense-oracle tests cannot see the first: their floor
    # of 1e-12 max(||J||, 1) is absolute for a tiny band, so any answer near
    # 0 passes.
    for lapack in BINDINGS:
        for band, lo, hi in COMPLEX_PINS + REAL_PINS:
            w, lowest, highest = lapack.eigvals_window(band, lo, hi)
            every = lapack.eigvals_all(band)
            norm = max(abs(lowest), abs(highest))
            for scale in (2.0 ** -540, 2.0 ** 1000):
                ws, lowest_s, highest_s = lapack.eigvals_window(band * scale, lo * scale,
                                                                hi * scale)
                tol = 1e-13 * norm * scale
                assert ws.shape == w.shape
                assert np.all(np.abs(ws - w * scale) <= tol)
                assert np.all(np.abs(lapack.eigvals_all(band * scale) - every * scale) <= tol)
                assert abs(lowest_s - lowest * scale) <= tol
                assert abs(highest_s - highest * scale) <= tol


def overwrite_in_place(ab, b, factor, solve):
    """``lu_factor`` overwrites the F-ordered band ``ab`` with scipy's
    ``factor`` of it, and a solve overwrites ``b`` with scipy's ``solve``;
    a band it cannot overwrite in place is rejected, not copied."""
    lu_ref, ipiv_ref, _ = factor(ab, 1, 1)
    x_ref, _ = solve(lu_ref, 1, 1, b, ipiv_ref)
    for lapack in BINDINGS:
        lu, x = ab.copy(order="F"), b.copy()
        ipiv, _ = lapack.lu_factor(lu, 1)
        assert np.array_equal(lu, lu_ref)
        assert lapack.band_solver(lu, 1, x, ipiv)() == 0
        assert np.array_equal(x, x_ref)
        readonly = ab.copy(order="F")
        readonly.flags.writeable = False
        for band in (np.ascontiguousarray(ab), readonly, ab.astype(np.complex64),
                     ab.real.astype(np.float32)):
            with pytest.raises(ValueError, match="^band must be a writeable F-contiguous "
                                                 "float64 or complex128 array$"):
                lapack.lu_factor(band, 1)


def test_overwrite_works_in_place_on_fortran_complex_input():
    overwrite_in_place(_band_storage(SMALL, 0.5j), rhs(3, 1)[:, 0],
                       scipy_lapack.zgbtrf, scipy_lapack.zgbtrs)


def test_overwrite_works_in_place_on_fortran_real_input():
    overwrite_in_place(_band_storage(SMALL_REAL, 0.5), rhs(3, 1)[:, 0].real.copy(),
                       scipy_lapack.dgbtrf, scipy_lapack.dgbtrs)


def test_band_solver_solves_in_place_on_every_call():
    # solving twice in place is two calls of zgbtrs
    ab = _band_storage(seeded_operator(2, 6, 1), [0.5j, -0.3 + 0.1j])
    lu_ref, ipiv_ref, _ = scipy_lapack.zgbtrf(ab, 3, 3)
    b = np.asfortranarray(rhs(ab.shape[1], 2))
    once, _ = scipy_lapack.zgbtrs(lu_ref, 3, 3, b, ipiv_ref)
    twice, _ = scipy_lapack.zgbtrs(lu_ref, 3, 3, once, ipiv_ref)
    for lapack in BINDINGS:
        lu = ab.copy(order="F")
        ipiv, _ = lapack.lu_factor(lu, 3)
        x = b.copy(order="F")
        solve = lapack.band_solver(lu, 3, x, ipiv)
        assert solve() == 0 and np.array_equal(x, once)
        assert solve() == 0 and np.array_equal(x, twice)


def test_band_solver_rejects_a_right_hand_side_it_cannot_overwrite():
    for lapack in BINDINGS:
        lu = _band_storage(SMALL, 0.5j)
        ipiv, _ = lapack.lu_factor(lu, 1)
        readonly = np.asfortranarray(rhs(3, 2))
        readonly.flags.writeable = False
        for b in (np.ascontiguousarray(rhs(3, 2)), rhs(3, 2).real.copy(order="F"), readonly):
            with pytest.raises(ValueError, match="writeable F-contiguous complex128"):
                lapack.band_solver(lu, 1, b, ipiv)
        with pytest.raises(ValueError, match="do not match"):
            lapack.band_solver(lu, 1, np.asfortranarray(rhs(4, 1)), ipiv)
        # a factor of a type no band LU routine takes, and a complex
        # right-hand side for a real factor
        with pytest.raises(ValueError, match="do not match"):
            lapack.band_solver(lu.astype(np.complex64), 1, np.asfortranarray(rhs(3, 2)), ipiv)
        real_lu = _band_storage(SMALL_REAL, 0.5)
        real_ipiv, _ = lapack.lu_factor(real_lu, 1)
        with pytest.raises(ValueError, match="writeable F-contiguous float64"):
            lapack.band_solver(real_lu, 1, np.asfortranarray(rhs(3, 2)), real_ipiv)


def test_binding_rejects_illegal_arguments_and_mismatched_operands():
    for lapack in BINDINGS:
        for ab in (_band_storage(SMALL, 0.5j), _band_storage(SMALL_REAL, 0.5)):   # kl = 1, 4 x 3
            name = "zgbtrf" if ab.dtype == np.complex128 else "dgbtrf"
            with pytest.raises(ValueError, match=f"^illegal value in argument 6 of {name}$"):
                lapack.lu_factor(ab, 2)             # needs ldab >= 7
        lu = _band_storage(SMALL, 0.5j)
        ipiv, _ = lapack.lu_factor(lu, 1)
        other = np.int32 if ipiv.dtype == np.int64 else np.int64     # the other library's
        for b, pivots in ((rhs(4, 1)[:, 0], ipiv), (rhs(3, 1)[:, 0], ipiv.astype(other))):
            with pytest.raises(ValueError, match="do not match"):
                lapack.band_solver(lu, 1, b, pivots)


@st.composite
def normal_bands(draw):
    """The stacked normal band of ``_normal_band`` for a random Hermitian
    operator, real or complex, and one to three real shifts, some at its
    dense eigenvalues, where the factorization fails."""
    op = draw(st.one_of(hermitian_operators(), real_operators()))
    at = st.sampled_from(np.linalg.eigvalsh(dense(op)).tolist())
    shifts = draw(st.lists(at | st.floats(-4.0, 4.0), min_size=1, max_size=3))
    return spectral._normal_band(op, shifts)[0]


@given(normal_bands())
def test_band_cholesky_matches_scipy(band):
    # dpbtrf on a real band, zpbtrf on a complex one, upper, in place
    factor = scipy_lapack.zpbtrf if np.iscomplexobj(band) else scipy_lapack.dpbtrf
    ref, info_ref = factor(band)
    for lapack in BINDINGS:
        ab = band.copy(order="F")
        assert lapack.cholesky_factor(ab) == info_ref
        assert np.array_equal(ab, ref)
        readonly = band.copy(order="F")
        readonly.flags.writeable = False
        for bad in (np.ascontiguousarray(band), readonly, band.astype(np.complex64)):
            with pytest.raises(ValueError, match="^band must be a writeable F-contiguous "
                                                 "float64 or complex128 array$"):
                lapack.cholesky_factor(bad)


def test_zero_pivot_reports_the_same_info():
    # J_N - 3 of a diagonal operator has an exact zero pivot in column 4
    diagonal = TruncatedOperator(a_blocks=np.zeros((5, 1, 1), dtype=complex),
                                 b_blocks=np.arange(6.0).reshape(6, 1, 1).astype(complex))
    # (its blocks are complex with zero imaginary parts: a real band, and
    # the complex band of the complex shift 3 + 0j)
    for ab in (_band_storage(diagonal, 3.0), _band_storage(diagonal, 3.0 + 0j)):
        assert scipy_lapack.zgbtrf(ab, 1, 1)[2] == 4
        for lapack in BINDINGS:
            assert lapack.lu_factor(ab.copy(order="F"), 1)[1] == 4


def test_bisection_failure_is_a_convergence_error(monkeypatch):
    # dstebz reporting info = 3 (not all of eigenvalues IL:IU were found)
    for lapack in BINDINGS:
        integer = np.ctypeslib.as_ctypes_type(lapack.integer)

        def fail(*args):
            integer.from_address(args[17]).value = 3            # info
        monkeypatch.setattr(lapack, "_dstebz", fail)
        with pytest.raises(ConvergenceError,
                           match=r"^dstebz did not converge \(LAPACK info = 3\)$"):
            lapack.eigvals_window(_hermitian_band(SMALL), -10.0, 10.0)


@pytest.mark.parametrize("window", [_lapack.eigvals_window, _zhbevx_window])
def test_empty_interval_is_an_illegal_argument(window):
    # hi <= lo: argument VU of dstebz (5) in the wrappers on every binding,
    # of zhbevx (11) in their scipy reference
    if window is _zhbevx_window:
        with pytest.raises(ValueError, match=r"^illegal value in argument 11 of zhbevx$"):
            window(_hermitian_band(SMALL), 1.0, 1.0)
    else:
        for lapack in BINDINGS:
            with pytest.raises(ValueError, match=r"^illegal value in argument 5 of dstebz$"):
                lapack.eigvals_window(_hermitian_band(SMALL), 1.0, 1.0)


# ---------------------------------------------------------------------------
# all eigenvalues: eigvals_all and the truncated spectrum

def scipy_all_eigenvalues(band):
    """``eigvals_all`` from scipy's Python wrappers: ``dsbevd`` on a real
    band, ``zhbevd`` on any other, which reduce the band and run ``dsterf``;
    their ``overwrite_ab`` defaults to 1, which reduces an F-ordered band in
    place."""
    if not np.any(np.imag(band)):
        return scipy_lapack.dsbevd(np.real(band), compute_v=0, lower=1, overwrite_ab=0)[0]
    return scipy_lapack.zhbevd(band, compute_v=0, lower=1, overwrite_ab=0)[0]


@pinned(case[0] for case in COMPLEX_PINS + REAL_PINS + IMAGINARY_PINS)
@given(st.one_of(hermitian_operators(), real_operators()).map(_hermitian_band))
def test_all_eigenvalues_match_scipy_with_one_reduction(band):
    kept = band.copy()
    reduction = "zhbtrd" if np.any(band.imag) else "dsbtrd"
    for lapack in BINDINGS:
        with reductions(lapack, ("_dsbtrd", "_zhbtrd")) as calls:
            w = lapack.eigvals_all(band)
        assert calls == [reduction]
        assert np.array_equal(w, scipy_all_eigenvalues(band))
        assert np.array_equal(band, kept)


def scaled(op, factor):
    return TruncatedOperator(a_blocks=factor * op.a_blocks, b_blocks=factor * op.b_blocks)


#: the zero operator; bands scaled far below and far above 1, complex and
#: real; example 2 (x = 3) at N = 20, whose near-zero pair is +-8.3e-9
SPECTRUM_PINS = [
    TruncatedOperator(a_blocks=np.zeros((4, 2, 2), dtype=complex),
                      b_blocks=np.zeros((5, 2, 2), dtype=complex)),
    scaled(seeded_operator(2, 6, 0), 2.0 ** -540), scaled(seeded_operator(2, 6, 0), 1e300),
    scaled(seeded_real_operator(3, 5, 1), 2.0 ** -540),
    scaled(seeded_real_operator(3, 5, 1), 1e300),
    assemble_truncation(example2_sequence(3.0), 20)]


@pinned(SPECTRUM_PINS)
@given(st.one_of(hermitian_operators(), real_operators()))
def test_truncated_spectrum_matches_dense_oracle(op):
    vals = np.linalg.eigvalsh(dense(op))
    tol = 1e-12 * max(float(np.max(np.abs(vals))), 1.0)
    for lapack in BINDINGS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "eigvals_all", lapack.eigvals_all)
            est = truncated_spectrum(op)
        assert est.method == "truncation" and est.size == op.n_blocks
        assert est.samples.shape == vals.shape
        assert np.all(np.abs(est.samples - vals) <= tol)


def test_tridiagonal_solver_failure_is_a_convergence_error(monkeypatch):
    # dsterf reporting info = 2 (two off-diagonal entries did not reach zero)
    for lapack in BINDINGS:
        integer = np.ctypeslib.as_ctypes_type(lapack.integer)

        def fail(*args):
            integer.from_address(args[3]).value = 2              # info
        monkeypatch.setattr(lapack, "_dsterf", fail)
        with pytest.raises(ConvergenceError,
                           match=r"^dsterf did not converge \(LAPACK info = 2\)$"):
            lapack.eigvals_all(_hermitian_band(SMALL))


# ---------------------------------------------------------------------------
# selection of the runtime

def openblas_config(name="scipy-openblas",
                    config="OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH Haswell"):
    return {"Build Dependencies": {"lapack": {"name": name,
                                              "openblas configuration": config}}}


@pytest.mark.parametrize("layout", ["numpy.libs", "dylibs"])
def test_selection_finds_the_bundled_ilp64_library(tmp_path, layout):
    numpy_dir = tmp_path / "numpy"
    folder = tmp_path / "numpy.libs" if layout == "numpy.libs" else numpy_dir / ".dylibs"
    folder.mkdir(parents=True)
    numpy_dir.mkdir(exist_ok=True)
    name = ("libscipy_openblas64_-0123abcd.so" if layout == "numpy.libs"
            else "libscipy_openblas64_.dylib")
    (folder / "libgfortran-5.so").touch()
    (folder / name).touch()
    assert _lapack.bundled_openblas(openblas_config(), str(numpy_dir)) == str(folder / name)


@pytest.mark.parametrize("config", [
    {},
    openblas_config(name="accelerate", config=""),
    openblas_config(name="mkl-sdl", config=""),
    openblas_config(config="OpenBLAS 0.3.31  DYNAMIC_ARCH Haswell"),   # LP64
])
def test_selection_falls_back_to_scipy(tmp_path, config):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-0123abcd.so").touch()
    assert _lapack.bundled_openblas(config, str(tmp_path / "numpy")) is None


def test_selection_needs_the_library_file_and_its_exports(tmp_path):
    (tmp_path / "numpy").mkdir()
    assert _lapack.bundled_openblas(openblas_config(), str(tmp_path / "numpy")) is None
    assert _lapack._load(None) is None
    assert _lapack._load(str(tmp_path / "missing.so")) is None
    # a loadable library that neither exports nor links the prefixed LAPACK
    assert _lapack._load(_ctypes.__file__) is None


def test_selection_reads_this_numpy():
    found = _lapack.bundled_openblas(np.show_config(mode="dicts"),
                                     os.path.dirname(np.__file__))
    if _lapack.LIBRARY is not None:
        assert _lapack.LIBRARY == found
        assert "USE64BITINT" in _lapack.openblas_config()
        assert _lapack._BOUND.integer == np.int64
    else:
        assert _lapack.openblas_config() is None
        assert _lapack._BOUND.integer == np.intc


ONE_RUNTIME = """
import json, sys
import numpy as np
import blockjacobi as bj
from blockjacobi import _lapack
seq = bj.example2_sequence(3.0)
cfg = bj.ExperimentConfig(operator=seq, gap={"source": "symbol"}, zetas=(0.5,),
                          delta=1.0, n_blocks=40)
report = bj.verify_green_bound(cfg)
bound = bj.with_prefix(seq, [(seq.a(1), 0.5 * np.eye(2))])
pairs = bj.eigenpairs_in_gap(bj.assemble_truncation(bound, 60), bj.GapInterval(-1.0, 1.0))
print(json.dumps({"passed": [r.passed for r in report.experiments],
                  "pairs": len(pairs), "theta": [p.zeta for p in pairs],
                  "library": _lapack.LIBRARY,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

#: run before ONE_RUNTIME: numpy's build then names no OpenBLAS, as on Accelerate
NO_OPENBLAS = """
import numpy
numpy.show_config = lambda mode=None: {"Build Dependencies": {"lapack": {"name": "accelerate"}}}
"""


def one_runtime(prelude=""):
    """The result of ONE_RUNTIME, after ``prelude``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", prelude + ONE_RUNTIME], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_default_path_runs_one_openblas_and_no_scipy():
    # numpy's complex matmul and the band solves share numpy's OpenBLAS, so
    # the slowdown two OpenBLAS copies cause after a complex matmul cannot
    # occur; checked without timing, in a fresh interpreter
    found = _lapack.bundled_openblas(np.show_config(mode="dicts"),
                                     os.path.dirname(np.__file__))
    if found is None:
        pytest.skip("this numpy bundles no ILP64 scipy-openblas; the routines come from scipy")
    result = one_runtime()
    assert result["passed"] and all(result["passed"])
    assert result["pairs"] == 1
    assert result["library"] == found
    assert result["scipy"] == []


def test_fallback_path_runs_scipy_capsules_with_the_same_results():
    # the selection end to end on a numpy build without the bundled library
    result, default = one_runtime(NO_OPENBLAS), one_runtime()
    assert result["library"] is None
    assert "scipy.linalg.cython_lapack" in result["scipy"]
    assert result["passed"] and all(result["passed"])
    assert result["pairs"] == 1
    assert abs(result["theta"][0] - default["theta"][0]) <= 1e-12
