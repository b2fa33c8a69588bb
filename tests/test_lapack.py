"""The band LAPACK binding of ``blockjacobi._lapack`` against scipy's wrappers.

On numpy builds that bundle the ILP64 scipy-openblas library, ``_lapack``
binds ``zgbtrf``, ``zgbtrs`` and ``zhbevd`` from it with ctypes; elsewhere
its names are scipy's own.  Either way they must give the results of
``scipy.linalg.lapack``, bit for bit, on the bands the library builds: the
stacked J_N - zeta bands of ``_band_storage`` and their Hermitian halves,
for random Hermitian block operators with d = 1..4, N = 2..40 and one to
three stacked zetas.  The binding's pivots are LAPACK's 1-based ones,
scipy's are 0-based.
"""

import _ctypes
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import LinAlgError, eigvals_banded
from scipy.linalg import lapack as scipy_lapack

from blockjacobi import ConvergenceError, TruncatedOperator, _lapack
from blockjacobi.spectral import _band_storage

from test_banded import SMALL, hermitian_operators, zetas

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


@given(hermitian_operators())
def test_band_eigenvalues_match_scipy(op):
    kl = 2 * op.dim - 1
    ab = _band_storage(op, 0.0)
    # rows 2 kl.. hold the lower Hermitian band, rows kl..2 kl the upper one
    for band, lower in ((ab[2 * kl:], True), (ab[kl:2 * kl + 1], False)):
        vals = _lapack.eigvals_banded(band, lower=lower)
        assert np.array_equal(vals, eigvals_banded(band, lower=lower))


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


def test_eigenvalue_failure_is_a_convergence_error(monkeypatch):
    # zhbevd reporting info = 3 (its tridiagonal QR did not converge)
    if _lapack.LIBRARY is None:
        def fail(*args, **kwargs):
            raise LinAlgError("hbevd did not converge (LAPACK info=3)")
        monkeypatch.setattr(_lapack, "_eigvals_banded", fail)
    else:
        def fail(*args):
            ctypes.c_int64.from_address(args[15]).value = 3     # info
        monkeypatch.setattr(_lapack, "_ZHBEVD", fail)
    with pytest.raises(ConvergenceError, match="zhbevd did not converge"):
        _lapack.eigvals_banded(_band_storage(SMALL, 0.0)[2:], lower=True)


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
