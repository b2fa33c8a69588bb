"""The band LAPACK routines of :mod:`blockjacobi.spectral`, bound with ctypes.

One set of wrappers (:class:`Lapack`) calls ``dgbtrf``, ``zgbtrf``,
``dgbtrs``, ``zgbtrs``, ``dpbtrf``, ``zpbtrf``, ``zhbtrd``, ``dsbtrd``,
``dstebz`` and ``dsterf`` from either of two libraries:

* numpy's bundled ILP64 OpenBLAS (``libscipy_openblas64_`` in ``numpy.libs/``
  beside the package, or in ``numpy/.dylibs/``), exporting names like
  ``scipy_zgbtrf_64_``: int64 integers, and gfortran's hidden ``size_t``
  length after the last argument for each character argument;
* the C pointers in the ``__pyx_capi__`` capsules of scipy's
  ``scipy.linalg.cython_lapack``: C ``int`` integers, no hidden lengths.

numpy's is bound whenever numpy's build names it, so ``import blockjacobi``
imports no scipy module and one OpenBLAS serves numpy and the band solves;
scipy's on every other numpy build (Accelerate, MKL, conda).  The choice
depends only on numpy's build and is made once, at import.

The band LU has two entries, each in place on writeable F-contiguous
arrays, in ``dgbtr*`` or ``zgbtr*`` by their type, float64 or complex128,
on a band with kl = ku: ``lu_factor(ab, kl) -> (ipiv, info)`` overwrites
``ab``, in LAPACK general band storage, with its LU factors (``ipiv``:
LAPACK's 1-based pivots in the library's integer type; info > 0: the first
exact zero pivot), and ``band_solver(lu, kl, b, ipiv)`` binds the solve
once to a right-hand side ``b`` of the factor's type: each call of the
result overwrites ``b`` with the solution and returns ``info``.  The band
Cholesky ``cholesky_factor(ab) -> info``, ``dpbtrf`` or ``zpbtrf`` by the
type of ``ab``, likewise in place, overwrites the upper Hermitian band ``ab``
(LAPACK's upper band layout, kd = ab.shape[0] - 1: row kd + i - j, column j
for entry (i, j), i <= j) with its Cholesky factor; info > 0 names the
first column whose leading minor is not positive definite, where the
factorization stopped.

The Hermitian band eigenvalue routines take the lower triangle of the band
in ``a_band``, in LAPACK's lower band layout (row i - j, column j for entry
(i, j)), and run two steps in order.  The first reduces a copy of the band
to real symmetric tridiagonal form (``dsbtrd`` when no entry has a nonzero
imaginary part, ``zhbtrd`` otherwise); like ``dsbevx`` and ``zhbevx``, it
first scales a band whose largest entry lies outside about [1e-146, 1e76],
here by a power of two, so window ends and results scale exactly.  The
second solves the tridiagonal problem:

* ``eigvals_window(a_band, lo, hi) -> (w, lowest, highest)``: the ascending
  eigenvalues in (lo, hi] and the two extreme eigenvalues, by bisection
  (``dstebz``, abstol 0) for the window and for eigenvalues 1 and n;
* ``eigvals_all(a_band) -> w``: all n eigenvalues, ascending, by the
  root-free QL/QR iteration of ``dsterf``.

An illegal argument (info < 0, such as hi <= lo) raises ValueError, and
``dstebz`` or ``dsterf`` info > 0 ConvergenceError.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, NamedTuple

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


class Library(NamedTuple):
    """How to call one LAPACK build: ``address(name)`` is the entry point of
    routine ``name``, ``integer`` the dtype of every integer argument, pivots
    included, and ``hidden_lengths`` whether each character argument carries
    a ``size_t`` length after the last regular argument."""

    address: Callable[[str], int]
    integer: type
    hidden_lengths: bool


def numpy_library(lib: ctypes.CDLL) -> Library:
    """numpy's bundled ILP64 scipy-openblas, loaded as ``lib``."""
    def address(name):
        return ctypes.cast(getattr(lib, f"scipy_{name}_64_"), ctypes.c_void_p).value
    return Library(address, np.int64, True)


def scipy_library() -> Library:
    """The LP64 LAPACK behind scipy's ``cython_lapack`` capsules."""
    from scipy.linalg.cython_lapack import __pyx_capi__ as capsules

    api, capsule = ctypes.pythonapi, ctypes.py_object
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, capsule)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, capsule, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))

    def address(name):
        return get_pointer(capsules[name], get_name(capsules[name]))
    return Library(address, np.intc, False)


def _address(a: np.ndarray) -> int:
    """Data address of a writeable F-contiguous array, read through the
    buffer of its C-contiguous transpose: a third of the cost of
    ``a.ctypes.data``, which builds a ctypes helper object per call."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a.T))


def _info(ints: np.ndarray, name: str) -> int:
    """LAPACK's ``info``, the last entry of ``ints``; raises ValueError on an
    illegal argument (info < 0), as scipy's wrappers do."""
    info = int(ints[-1])
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    return info


_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps
#: bands whose largest entry lies outside [_RMIN, _RMAX] are scaled, as in dsbevx
_RMIN, _RMAX = np.sqrt(_TINY / _EPS), min(np.sqrt(_EPS / _TINY), _TINY ** -0.25)
#: LAPACK's prefix of each element type the band LU routines take
_PREFIX = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}


class Lapack:
    """``lu_factor``, ``band_solver``, ``cholesky_factor``, ``eigvals_window``
    and ``eigvals_all`` on one :class:`Library`."""

    def __init__(self, library: Library):
        self.integer = library.integer

        def bind(name, chars, pointers):
            """Routine ``name``: ``chars`` character arguments, then ``pointers``
            addresses; appends the hidden lengths."""
            lengths = (1,) * chars if library.hidden_lengths else ()
            fn = ctypes.CFUNCTYPE(None, *[ctypes.c_char_p] * chars,
                                  *[ctypes.c_void_p] * pointers,
                                  *[ctypes.c_size_t] * len(lengths))(library.address(name))
            return (lambda *args: fn(*args, *lengths)) if lengths else fn

        # the band LU and its solves, keyed by LAPACK's type prefix
        self._gbtrf = {p: bind(f"{p}gbtrf", 0, 8) for p in "dz"}
        self._gbtrs = {p: bind(f"{p}gbtrs", 1, 10) for p in "dz"}
        self._pbtrf = {p: bind(f"{p}pbtrf", 1, 5) for p in "dz"}
        self._zhbtrd = bind("zhbtrd", 2, 10)
        self._dsbtrd = bind("dsbtrd", 2, 10)
        self._dstebz = bind("dstebz", 2, 16)
        self._dsterf = bind("dsterf", 0, 4)

    def lu_factor(self, ab: np.ndarray, kl: int) -> tuple[np.ndarray, int]:
        """``dgbtrf`` or ``zgbtrf``, by the type of ``ab``, in place: (ipiv, info)."""
        if not (ab.dtype in _PREFIX and ab.flags.f_contiguous and ab.flags.writeable):
            raise ValueError("band must be a writeable F-contiguous float64 or complex128 array")
        prefix, (ldab, n) = _PREFIX[ab.dtype], ab.shape
        ipiv = np.empty(n, dtype=self.integer)
        # m, n, kl, ku, ldab, info
        ints = np.array([n, n, kl, kl, ldab, 0], dtype=self.integer)
        p, s = _address(ints), ints.itemsize
        self._gbtrf[prefix](p, p + s, p + 2 * s, p + 3 * s, _address(ab), p + 4 * s,
                            _address(ipiv), p + 5 * s)
        return ipiv, _info(ints, f"{prefix}gbtrf")

    def cholesky_factor(self, ab: np.ndarray) -> int:
        """``dpbtrf`` or ``zpbtrf`` (upper), by the type of ``ab``, in place: info."""
        if not (ab.dtype in _PREFIX and ab.flags.f_contiguous and ab.flags.writeable):
            raise ValueError("band must be a writeable F-contiguous float64 or complex128 array")
        prefix, (ldab, n) = _PREFIX[ab.dtype], ab.shape
        # n, kd, ldab, info
        ints = np.array([n, ldab - 1, ldab, 0], dtype=self.integer)
        p, s = _address(ints), ints.itemsize
        self._pbtrf[prefix](b"U", p, p + s, _address(ab), p + 2 * s, p + 3 * s)
        return _info(ints, f"{prefix}pbtrf")

    def band_solver(self, lu: np.ndarray, kl: int, b: np.ndarray,
                    ipiv: np.ndarray) -> Callable[[], int]:
        """``dgbtrs`` or ``zgbtrs`` bound to its operands, by the type of the
        factor ``lu`` (float64 or complex128): each call of the result
        overwrites ``b``, a writeable F-contiguous array of the factor's type,
        with the solution for the right-hand side it holds, and returns
        ``info`` (ValueError on info < 0).  The operands are checked and their
        addresses taken once, here, so a loop of solves pays one LAPACK call
        per step."""
        ldab, n = lu.shape
        # reject operands LAPACK would read or write out of bounds
        if (lu.dtype not in _PREFIX or b.shape[0] != n
                or ipiv.dtype != self.integer or ipiv.shape != (n,)):
            raise ValueError("band factor, pivots and right-hand side do not match")
        if not (b.dtype == lu.dtype and b.flags.f_contiguous and b.flags.writeable):
            raise ValueError(f"right-hand side must be a writeable F-contiguous {lu.dtype} array")
        # n, kl, ku, nrhs, ldab, ldb, info
        ints = np.array([n, kl, kl, b.shape[1] if b.ndim == 2 else 1, ldab,
                         max(n, 1), 0], dtype=self.integer)
        p, s = _address(ints), ints.itemsize
        args = (b"N", p, p + s, p + 2 * s, p + 3 * s, _address(lu),
                p + 4 * s, _address(ipiv), _address(b), p + 5 * s, p + 6 * s)
        prefix = _PREFIX[lu.dtype]
        gbtrs, name = self._gbtrs[prefix], f"{prefix}gbtrs"

        def solve() -> int:
            gbtrs(*args)
            return _info(ints, name)
        solve.operands = (lu, b, ipiv)          # the addressed arrays live as long as solve
        return solve

    def _bisect(self, kind, diag, off, lo, hi, index):
        """``dstebz`` on the tridiagonal (diag, off): kind b"V" gives the
        eigenvalues in (lo, hi], kind b"I" eigenvalue ``index``."""
        n = diag.size
        w, work = np.empty(n), np.empty(4 * n)
        iblock, isplit = np.empty(n, self.integer), np.empty(n, self.integer)
        iwork = np.empty(3 * n, self.integer)
        reals = np.array([lo, hi, 0.0])                # vl, vu, abstol
        # n, il, iu, m, nsplit, info
        ints = np.array([n, index, index, 0, 0, 0], dtype=self.integer)
        p, s, r = _address(ints), ints.itemsize, _address(reals)
        self._dstebz(kind, b"E", p, r, r + 8, p + s, p + 2 * s, r + 16, _address(diag),
                     _address(off), p + 3 * s, p + 4 * s, _address(w), _address(iblock),
                     _address(isplit), _address(work), _address(iwork), p + 5 * s)
        info = _info(ints, "dstebz")
        if info > 0:
            raise ConvergenceError(f"dstebz did not converge (LAPACK info = {info})")
        return w[:ints[3]]

    def _tridiagonal(self, a_band):
        """(diag, off, scale): the tridiagonal form of 2^scale times the band,
        reduced on a copy; scale is 0 unless the band's largest entry lies
        outside [_RMIN, _RMAX]."""
        a = np.asarray(a_band)
        # the reduction overwrites its input: always a copy
        if np.iscomplexobj(a) and np.any(a.imag):
            ab, reduce, name = np.array(a, dtype=complex, order="F"), self._zhbtrd, "zhbtrd"
        else:
            ab, reduce, name = np.array(a.real, dtype=float, order="F"), self._dsbtrd, "dsbtrd"
        parts = ab.T.view(float)                       # real and imaginary parts
        top = abs(parts).max()
        scale = -int(np.frexp(top)[1]) if 0 < top < _RMIN or top > _RMAX else 0
        if scale:
            np.ldexp(parts, scale, out=parts)
        ldab, n = ab.shape
        diag, off = np.empty(n), np.empty(max(n - 1, 1))
        q = np.empty(1, dtype=ab.dtype)                # not referenced
        work = np.empty(max(n, 1), dtype=ab.dtype)
        # n, kd, ldab, ldq, info
        ints = np.array([n, ldab - 1, ldab, 1, 0], dtype=self.integer)
        p, s = _address(ints), ints.itemsize
        reduce(b"N", b"L", p, p + s, _address(ab), p + 2 * s, _address(diag), _address(off),
               _address(q), p + 3 * s, _address(work), p + 4 * s)
        _info(ints, name)                              # no info > 0
        return diag, off, scale

    def eigvals_window(self, a_band, lo, hi):
        diag, off, scale = self._tridiagonal(a_band)
        if scale:
            lo, hi = np.ldexp((lo, hi), scale)
        inside, lowest, highest = (self._bisect(kind, diag, off, lo, hi, index)
                                   for kind, index in ((b"V", 1), (b"I", 1), (b"I", diag.size)))
        return (np.ldexp(np.sort(inside), -scale), float(np.ldexp(lowest[0], -scale)),
                float(np.ldexp(highest[0], -scale)))

    def eigvals_all(self, a_band):
        diag, off, scale = self._tridiagonal(a_band)
        # n, info
        ints = np.array([diag.size, 0], dtype=self.integer)
        p, s = _address(ints), ints.itemsize
        self._dsterf(p, _address(diag), _address(off), p + s)
        info = _info(ints, "dsterf")
        if info > 0:
            raise ConvergenceError(f"dsterf did not converge (LAPACK info = {info})")
        return np.ldexp(diag, -scale)


_BOUND = Lapack(scipy_library() if _LIB is None else numpy_library(_LIB))
lu_factor, band_solver = _BOUND.lu_factor, _BOUND.band_solver
cholesky_factor = _BOUND.cholesky_factor
eigvals_window, eigvals_all = _BOUND.eigvals_window, _BOUND.eigvals_all
