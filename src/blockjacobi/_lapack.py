"""The band LAPACK routines of :mod:`blockjacobi.spectral`, from numpy's own OpenBLAS.

Numpy wheels bundle an ILP64 OpenBLAS (``libscipy_openblas64_``, in
``numpy.libs/`` next to the package on Linux and Windows, in
``numpy/.dylibs/`` on macOS) that exports all of LAPACK under names like
``scipy_zgbtrf_64_``.  When numpy's build names that library, this module
binds the five routines ``spectral`` needs from it with ctypes, so
``import blockjacobi`` imports no scipy module and one OpenBLAS runtime
serves both numpy's matmul and the band solves.  On every other numpy build
(Accelerate, MKL, conda) the same names come from scipy.  The choice depends
only on numpy's build and is made once, at import.

The names take these arguments:

``zgbtrf(ab, kl, ku, overwrite_ab=0) -> (lu, ipiv, info)``
    band LU with partial pivoting, m = n = ab.shape[1] (scipy's wrapper);
``zgbtrs(ab, kl, ku, b, ipiv, trans=0, overwrite_b=0) -> (x, info)``
    solve with that LU (trans 0, 1, 2: A, A^T, A^H; scipy's wrapper);
``eigvals_window(a_band, lo, hi) -> (w, lowest, highest)``
    the ascending eigenvalues in (lo, hi] and the two extreme eigenvalues
    of the Hermitian band whose lower triangle ``a_band`` holds in LAPACK's
    lower band layout (row i - j, column j for entry (i, j)).

``ipiv`` is opaque and only handed back to ``zgbtrs``: the binding keeps
LAPACK's 1-based int64 pivots where scipy returns 0-based int32 ones.

``eigvals_window`` reduces the band to real symmetric tridiagonal form once
(no vectors), in O(n^2 kd) time, then runs bisection on it (``dstebz`` with
abstol 0) three times: for the eigenvalues in (lo, hi], for eigenvalue 1 and
for eigenvalue n.  A band none of whose entries has a nonzero imaginary part
is reduced in real arithmetic (``dsbtrd`` on its real part), at about half
the cost of the complex reduction (``zhbtrd``) that every other band takes;
the choice reads only the band's entries.  Bisection costs O(n) per Sturm
count, so each wanted eigenvalue costs O(n) times the number of halvings to
full accuracy, and the rest of the spectrum costs nothing.  The scipy path
makes three ``dsbevx`` calls on a real band and three ``zhbevx`` calls on
any other, which run the same two routines with the same arguments and give
the same values bit for bit, at three reductions instead of one; they also
rescale a band whose largest entry lies outside about [1e-146, 1e76], which
the bound path does not.  Info > 0 raises ConvergenceError and info < 0 (an
illegal argument, such as hi <= lo) ValueError on both paths.

The binding follows the ILP64 gfortran ABI: every integer, pivots included,
is an int64 passed by address, and every character argument carries a
hidden ``size_t`` length after the last regular argument.  Arrays are
passed as raw addresses, and an ``overwrite_*`` input that already is a
writeable F-contiguous complex128 array is used in place.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from .errors import ConvergenceError

_STEM = "libscipy_openblas64_"
_SUFFIXES = (".so", ".dylib", ".dll")


def bundled_openblas(config: dict, numpy_dir: str) -> str | None:
    """Path of the ILP64 scipy-openblas library numpy was built with, or None.

    ``config`` is ``numpy.show_config(mode="dicts")`` and ``numpy_dir`` the
    numpy package directory.  The build must name ``scipy-openblas`` as its
    LAPACK with ``USE64BITINT`` in its configuration, and the library file
    must sit in ``numpy.libs/`` beside the package or in its ``.dylibs/``.
    """
    lapack = config.get("Build Dependencies", {}).get("lapack", {})
    if (lapack.get("name") != "scipy-openblas"
            or "USE64BITINT" not in lapack.get("openblas configuration", "")):
        return None
    for folder in (os.path.join(os.path.dirname(numpy_dir), "numpy.libs"),
                   os.path.join(numpy_dir, ".dylibs")):
        try:
            names = sorted(os.listdir(folder))
        except OSError:
            continue
        for name in names:
            if name.startswith(_STEM) and name.endswith(_SUFFIXES):
                return os.path.join(folder, name)
    return None


def _load(path: str | None):
    """The library at ``path`` if it exports the prefixed ILP64 LAPACK, else None."""
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    return lib if hasattr(lib, "scipy_zgbtrf_64_") else None


def _numpy_config() -> dict:
    try:
        return np.show_config(mode="dicts")
    except TypeError:       # numpy < 1.25 has no dicts mode
        return {}


_LIB = _load(bundled_openblas(_numpy_config(), os.path.dirname(np.__file__)))
#: file of the bound library, or None when the routines come from scipy
LIBRARY = None if _LIB is None else _LIB._name


def openblas_config() -> str | None:
    """``openblas_get_config`` of the bound library, None on the scipy path."""
    if _LIB is None:
        return None
    get = _LIB.scipy_openblas_get_config64_
    get.restype = ctypes.c_char_p
    return get().decode()


def _bind(name: str, chars: int, pointers: int):
    """Routine ``name`` of the bound library: ``chars`` leading character
    arguments, ``pointers`` addresses, then one hidden length per character."""
    fn = getattr(_LIB, f"scipy_{name}_64_")
    fn.argtypes = ([ctypes.c_char_p] * chars + [ctypes.c_void_p] * pointers
                   + [ctypes.c_size_t] * chars)
    fn.restype = None
    return fn


def _address(a: np.ndarray) -> int:
    """Data address of a writeable F-contiguous array, read through the
    buffer of its C-contiguous transpose: a third of the cost of
    ``a.ctypes.data``, which builds a ctypes helper object per call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a.T))


def _fortran(a, overwrite) -> np.ndarray:
    """``a`` itself when ``overwrite`` and it is a writeable F-contiguous
    complex128 array, else an F-ordered complex128 copy."""
    if (overwrite and isinstance(a, np.ndarray) and a.dtype == np.complex128
            and a.flags.f_contiguous and a.flags.writeable):
        return a
    return np.array(a, dtype=np.complex128, order="F")


def _info(ints: np.ndarray, name: str) -> int:
    """LAPACK's ``info``, the last entry of ``ints``; raises ValueError on an
    illegal argument (info < 0), as scipy's wrappers do."""
    info = int(ints[-1])
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    return info


def _check_solve(ab: np.ndarray, b: np.ndarray, ipiv: np.ndarray) -> None:
    """Reject operands LAPACK would read or write out of bounds."""
    n = ab.shape[1]
    if (ab.dtype != np.complex128 or b.shape[0] != n
            or ipiv.dtype != np.int64 or ipiv.shape != (n,)):
        raise ValueError("band factor, pivots and right-hand side do not match")


def _real_band(a_band) -> np.ndarray | None:
    """The band's real part when no entry has a nonzero imaginary part, else None."""
    a = np.asarray(a_band)
    if np.iscomplexobj(a):
        if np.any(a.imag):
            return None
        a = a.real
    return a


def _zhbevx_window(a_band, lo, hi):
    """``eigvals_window`` through scipy's ``dsbevx`` (real bands) or
    ``zhbevx``: three calls, each of which reduces the band again."""
    from scipy.linalg import lapack

    real = _real_band(a_band)
    name = "zhbevx" if real is None else "dsbevx"
    band = a_band if real is None else real

    def bisect(kind, index):      # kind 1: (lo, hi]; 2: eigenvalue ``index``
        w, _, m, _, info = getattr(lapack, name)(
            band, lo, hi, index, index, compute_v=0, range=kind, lower=1,
            overwrite_ab=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of {name}")
        if info > 0:
            raise ConvergenceError(f"{name} did not converge (LAPACK info = {info})")
        return w[:m]

    n = np.shape(a_band)[1]
    return (np.sort(bisect(1, 1)), float(bisect(2, 1)[0]),
            float(bisect(2, n)[0]))


if _LIB is not None:
    _ZGBTRF = _bind("zgbtrf", 0, 8)
    _ZGBTRS = _bind("zgbtrs", 1, 10)
    _ZHBTRD = _bind("zhbtrd", 2, 10)
    _DSBTRD = _bind("dsbtrd", 2, 10)
    _DSTEBZ = _bind("dstebz", 2, 16)
    _TRANS = (b"N", b"T", b"C")

    def zgbtrf(ab, kl, ku, overwrite_ab=0):
        ab = _fortran(ab, overwrite_ab)
        ldab, n = ab.shape
        ipiv = np.empty(n, dtype=np.int64)
        # m, n, kl, ku, ldab, info
        ints = np.array([n, n, kl, ku, ldab, 0], dtype=np.int64)
        p = _address(ints)
        _ZGBTRF(p, p + 8, p + 16, p + 24, _address(ab), p + 32,
                _address(ipiv), p + 40)
        return ab, ipiv, _info(ints, "zgbtrf")

    def zgbtrs(ab, kl, ku, b, ipiv, trans=0, overwrite_b=0):
        b = _fortran(b, overwrite_b)
        _check_solve(ab, b, ipiv)
        ldab, n = ab.shape
        # n, kl, ku, nrhs, ldab, ldb, info
        ints = np.array([n, kl, ku, b.shape[1] if b.ndim == 2 else 1, ldab,
                         max(n, 1), 0], dtype=np.int64)
        p = _address(ints)
        _ZGBTRS(_TRANS[trans], p, p + 8, p + 16, p + 24, _address(ab),
                p + 32, _address(ipiv), _address(b), p + 40, p + 48, 1)
        return b, _info(ints, "zgbtrs")

    def _dstebz(kind, diag, off, lo, hi, index):
        """Bisection on the tridiagonal (diag, off): kind b"V" gives the
        eigenvalues in (lo, hi], kind b"I" eigenvalue ``index``."""
        n = diag.size
        w = np.empty(n)
        blocks = np.empty(2 * n, dtype=np.int64)      # IBLOCK, ISPLIT
        work = np.empty(4 * n)
        iwork = np.empty(3 * n, dtype=np.int64)
        reals = np.array([lo, hi, 0.0])                # vl, vu, abstol
        # n, il, iu, m, nsplit, info
        ints = np.array([n, index, index, 0, 0, 0], dtype=np.int64)
        p, r, b = _address(ints), _address(reals), _address(blocks)
        _DSTEBZ(kind, b"E", p, r, r + 8, p + 8, p + 16, r + 16, _address(diag),
                _address(off), p + 24, p + 32, _address(w), b, b + 8 * n,
                _address(work), _address(iwork), p + 40, 1, 1)
        info = _info(ints, "dstebz")
        if info > 0:
            raise ConvergenceError(f"dstebz did not converge (LAPACK info = {info})")
        return w[:ints[3]]

    def eigvals_window(a_band, lo, hi):
        real = _real_band(a_band)
        # the reduction overwrites its input: always a copy
        if real is None:
            ab, reduce, name = _fortran(a_band, False), _ZHBTRD, "zhbtrd"
        else:
            ab, reduce, name = np.array(real, dtype=float, order="F"), _DSBTRD, "dsbtrd"
        ldab, n = ab.shape
        diag, off = np.empty(n), np.empty(max(n - 1, 1))
        q = np.empty(1, dtype=ab.dtype)                # not referenced
        work = np.empty(max(n, 1), dtype=ab.dtype)
        # n, kd, ldab, ldq, info
        ints = np.array([n, ldab - 1, ldab, 1, 0], dtype=np.int64)
        p = _address(ints)
        reduce(b"N", b"L", p, p + 8, _address(ab), p + 16, _address(diag),
               _address(off), _address(q), p + 24, _address(work), p + 32, 1, 1)
        _info(ints, name)                              # no info > 0
        return (np.sort(_dstebz(b"V", diag, off, lo, hi, 1)),
                float(_dstebz(b"I", diag, off, lo, hi, 1)[0]),
                float(_dstebz(b"I", diag, off, lo, hi, n)[0]))
else:
    from scipy.linalg.lapack import zgbtrf, zgbtrs  # noqa: F401

    eigvals_window = _zhbevx_window
