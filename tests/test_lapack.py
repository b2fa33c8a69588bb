"""The band LAPACK binding of ``blockjacobi._lapack`` against scipy's wrappers.

On numpy builds that bundle the ILP64 scipy-openblas library, ``_lapack``
binds ``zgbtrf``, ``zgbtrs``, ``zhbtrd``, ``dsbtrd`` and ``dstebz`` from it
with ctypes; elsewhere its names come from scipy.  Either way they must give
the results of ``scipy.linalg.lapack``, bit for bit, on the bands the library
builds: the stacked J_N - zeta bands of ``_band_storage`` and their lower
Hermitian halves, for random Hermitian block operators with d = 1..4,
N = 2..40 and one to three stacked zetas.  The binding's pivots are LAPACK's
1-based ones, scipy's are 0-based.  ``eigvals_window`` (one band reduction,
then ``dstebz`` bisection for a window and the two extreme eigenvalues) must
equal three calls of scipy's ``dsbevx`` on real bands and ``zhbevx`` on
complex ones, which run the same routines, and the dense ``eigvalsh`` to
1e-12 max(||J||, 1), on windows placed around drawn eigenvalues, empty ones
included.  Real symmetric operators take the real reduction on both paths;
a real band with one imaginary entry below the diagonal, however small,
takes the complex one.  Failures of either path raise ConvergenceError
(info > 0) or ValueError (illegal argument).
"""

import _ctypes
import contextlib
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.linalg import lapack as scipy_lapack

from blockjacobi import ConvergenceError, TruncatedOperator, _lapack
from blockjacobi.spectral import _band_storage

from test_banded import (SMALL, draw_window, hermitian_from_band, hermitian_operators,
                         pinned, pinned_windows, real_operators, seeded_operator,
                         seeded_real_operator, zetas)

#: base of the pivots ``_lapack.zgbtrf`` returns
PIVOT_BASE = 0 if _lapack.LIBRARY is None else 1
SRC = Path(__file__).resolve().parents[1] / "src"


def both(name, *args, **kwargs):
    """``name`` called with the same arguments from ``_lapack`` and from scipy."""
    return (getattr(_lapack, name)(*args, **kwargs),
            getattr(scipy_lapack, name)(*args, **kwargs))


def rhs(size, columns, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((size, columns)) + 1j * rng.standard_normal((size, columns))


@given(hermitian_operators(), st.lists(zetas, min_size=1, max_size=3))
def test_band_lu_and_solves_match_scipy(op, stack):
    kl = 2 * op.dim - 1
    (lu, ipiv, info), (lu_ref, ipiv_ref, info_ref) = both(
        "zgbtrf", _band_storage(op, stack), kl, kl)
    assert info == info_ref == 0
    assert np.array_equal(lu, lu_ref)
    assert np.array_equal(ipiv - PIVOT_BASE, ipiv_ref)
    b = rhs(lu.shape[1], 3)
    for trans in (0, 1, 2):
        for right in (b, b[:, 0]):
            x, info = _lapack.zgbtrs(lu, kl, kl, right, ipiv, trans=trans)
            x_ref, _ = scipy_lapack.zgbtrs(lu_ref, kl, kl, right, ipiv_ref, trans=trans)
            assert info == 0
            assert np.array_equal(x, x_ref)


def lower_band(op):
    """Rows 2 kl.. of the LU band storage: the lower Hermitian band."""
    return _band_storage(op, 0.0)[2 * (2 * op.dim - 1):]


def with_imaginary(band, k, j, part):
    """A copy of ``band`` with ``part`` added to the imaginary part of entry
    (k, j), which lies below the diagonal (k >= 1)."""
    band = band.copy()
    band[k, j] += 1j * part
    return band


def band_window(draw, band):
    return (band, *draw_window(draw, np.linalg.eigvalsh(hermitian_from_band(band))))


@st.composite
def windows(draw, operators=hermitian_operators()):
    """(lower band, lo, hi), the window drawn by ``draw_window``."""
    return band_window(draw, lower_band(draw(operators)))


@st.composite
def windows_with_one_imaginary_entry(draw):
    """(lower band, lo, hi) of a real symmetric operator whose band has one
    entry below the diagonal made complex, by a part from 1e-300 to 0.5."""
    band = lower_band(draw(real_operators()))
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
COMPLEX_PINS = pins(lower_band(SMALL), lower_band(seeded_operator(1, 2, 0)))
REAL_PINS = pins(lower_band(SMALL_REAL), lower_band(PAIR_REAL))
#: an O(1) imaginary part, and one of 1e-300 that no tolerance may take for 0
IMAGINARY_PINS = pins(with_imaginary(lower_band(SMALL_REAL), 1, 0, 0.5),
                      with_imaginary(lower_band(PAIR_REAL), 1, 0, 1e-300))
REAL_REDUCTIONS = {"dsbtrd", "dsbevx"}
COMPLEX_REDUCTIONS = {"zhbtrd", "zhbevx"}


@contextlib.contextmanager
def reductions():
    """Names of the band reductions run inside the block: ``dsbtrd`` and
    ``zhbtrd`` of the ctypes path, ``dsbevx`` and ``zhbevx`` of scipy's."""
    calls = []
    targets = [(scipy_lapack, "dsbevx"), (scipy_lapack, "zhbevx")]
    if _lapack.LIBRARY is not None:
        targets += [(_lapack, "_DSBTRD"), (_lapack, "_ZHBTRD")]
    with pytest.MonkeyPatch.context() as patch:
        for owner, attr in targets:
            def spy(*args, _run=getattr(owner, attr), _name=attr.strip("_").lower(),
                    **kwargs):
                calls.append(_name)
                return _run(*args, **kwargs)
            patch.setattr(owner, attr, spy)
        yield calls


def match_scipy(band, lo, hi):
    # the reference is the scipy path: three dsbevx or zhbevx calls
    kept = band.copy()
    w, lowest, highest = _lapack.eigvals_window(band, lo, hi)
    w_ref, lowest_ref, highest_ref = _lapack._zhbevx_window(band, lo, hi)
    assert np.array_equal(w, w_ref)
    assert lowest == lowest_ref and highest == highest_ref
    assert np.array_equal(band, kept)               # the input is not overwritten


def match_dense(band, lo, hi, window=_lapack.eigvals_window):
    vals = np.linalg.eigvalsh(hermitian_from_band(band))
    tol = 1e-12 * max(float(np.max(np.abs(vals))), 1.0)
    # the ends sit half a gap from the spectrum; keep them clear of rounding
    assume(np.min(np.abs(vals - lo)) > tol and np.min(np.abs(vals - hi)) > tol)
    w, lowest, highest = window(band, lo, hi)
    inside = vals[(vals > lo) & (vals <= hi)]
    assert w.shape == inside.shape
    assert np.all(np.abs(w - inside) <= tol)
    assert abs(lowest - vals[0]) <= tol and abs(highest - vals[-1]) <= tol


@pinned(COMPLEX_PINS)
@given(windows())
def test_window_eigenvalues_match_scipy_zhbevx(case):
    match_scipy(*case)


@pinned(COMPLEX_PINS)
@given(windows())
def test_window_eigenvalues_match_dense_oracle(case):
    match_dense(*case)


@pinned(REAL_PINS)
@given(windows(real_operators()))
def test_real_window_eigenvalues_match_scipy_dsbevx(case):
    with reductions() as calls:
        match_scipy(*case)
    assert calls and set(calls) <= REAL_REDUCTIONS


@pinned(REAL_PINS)
@given(windows(real_operators()))
def test_real_window_eigenvalues_match_dense_oracle(case):
    with reductions() as calls:
        match_dense(*case)
    assert calls and set(calls) <= REAL_REDUCTIONS


@pytest.mark.parametrize("window", [_lapack.eigvals_window, _lapack._zhbevx_window])
@pinned(IMAGINARY_PINS)
@given(windows_with_one_imaginary_entry())
def test_one_imaginary_entry_takes_the_complex_path(window, case):
    with reductions() as calls:
        match_dense(*case, window)
    assert calls and set(calls) <= COMPLEX_REDUCTIONS


def test_overwrite_works_in_place_on_fortran_complex_input():
    ab = _band_storage(SMALL, 0.5j)
    lu, ipiv, _ = _lapack.zgbtrf(ab, 1, 1, overwrite_ab=1)
    assert lu is ab
    b = rhs(ab.shape[1], 1)[:, 0]
    x, _ = _lapack.zgbtrs(lu, 1, 1, b, ipiv, overwrite_b=1)
    assert x is b
    kept = b.copy()
    _lapack.zgbtrs(lu, 1, 1, b, ipiv)
    assert np.array_equal(b, kept)


@pytest.mark.skipif(_lapack.LIBRARY is None, reason="checks of the ctypes binding")
def test_binding_rejects_illegal_arguments_and_mismatched_operands():
    ab = _band_storage(SMALL, 0.5j)                 # kl = ku = 1, 4 x 3
    with pytest.raises(ValueError, match="^illegal value in argument 6 of zgbtrf$"):
        _lapack.zgbtrf(ab, 2, 2)                    # needs ldab >= 7
    lu, ipiv, _ = _lapack.zgbtrf(ab, 1, 1)
    for b, pivots in ((rhs(4, 1)[:, 0], ipiv), (rhs(3, 1)[:, 0], ipiv.astype(np.int32))):
        with pytest.raises(ValueError, match="do not match"):
            _lapack.zgbtrs(lu, 1, 1, b, pivots)


def test_zero_pivot_reports_the_same_info():
    # J_N - 3 of a diagonal operator has an exact zero pivot in column 4
    diagonal = TruncatedOperator(a_blocks=np.zeros((5, 1, 1), dtype=complex),
                                 b_blocks=np.arange(6.0).reshape(6, 1, 1).astype(complex))
    (_, _, info), (_, _, info_ref) = both("zgbtrf", _band_storage(diagonal, 3.0), 1, 1)
    assert info == info_ref == 4


@pytest.mark.skipif(_lapack.LIBRARY is None, reason="checks of the ctypes binding")
def test_bisection_failure_is_a_convergence_error(monkeypatch):
    # dstebz reporting info = 3 (not all of eigenvalues IL:IU were found)
    def fail(*args):
        ctypes.c_int64.from_address(args[17]).value = 3         # info
    monkeypatch.setattr(_lapack, "_DSTEBZ", fail)
    with pytest.raises(ConvergenceError, match=r"^dstebz did not converge \(LAPACK info = 3\)$"):
        _lapack.eigvals_window(lower_band(SMALL), -10.0, 10.0)


def test_zhbevx_failure_is_a_convergence_error(monkeypatch):
    # the scipy path, on every build: zhbevx reporting info = 3
    def fail(ab, vl, vu, il, iu, **kwargs):
        return np.zeros(ab.shape[1]), np.zeros((1, 1), dtype=complex), 0, np.zeros(1), 3
    monkeypatch.setattr(scipy_lapack, "zhbevx", fail)
    with pytest.raises(ConvergenceError, match=r"^zhbevx did not converge \(LAPACK info = 3\)$"):
        _lapack._zhbevx_window(lower_band(SMALL), -10.0, 10.0)


@pytest.mark.parametrize("window", [_lapack.eigvals_window, _lapack._zhbevx_window])
def test_empty_interval_is_an_illegal_argument(window):
    # hi <= lo: argument VU of dstebz (5), of zhbevx (11)
    with pytest.raises(ValueError, match=r"^illegal value in argument (5 of dstebz|11 of zhbevx)$"):
        window(lower_band(SMALL), 1.0, 1.0)


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
    else:
        assert _lapack.openblas_config() is None


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
                  "pairs": len(pairs), "library": _lapack.LIBRARY,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_default_path_runs_one_openblas_and_no_scipy():
    # numpy's complex matmul and the band solves share numpy's OpenBLAS, so
    # the slowdown two OpenBLAS copies cause after a complex matmul cannot
    # occur; checked without timing, in a fresh interpreter
    found = _lapack.bundled_openblas(np.show_config(mode="dicts"),
                                     os.path.dirname(np.__file__))
    if found is None:
        pytest.skip("this numpy bundles no ILP64 scipy-openblas; the routines come from scipy")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", ONE_RUNTIME], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["passed"] and all(result["passed"])
    assert result["pairs"] == 1
    assert result["library"] == found
    assert result["scipy"] == []
