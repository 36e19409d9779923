"""Symmetric eigensolvers that release the GIL, and the OpenBLAS thread pin.

scipy's f2py wrappers of ``dsyevr`` (``scipy.linalg.eigh``) and ``dstemr``
(``eigh_tridiagonal``) hold the GIL while LAPACK runs, so threads that
decompose different matrices run one at a time. ``syevr`` and ``stemr``
call the same LAPACK routines with the same arguments and workspace sizes,
reached through the function pointers ``scipy.linalg.cython_lapack``
exports. They are called through ``ctypes``, which releases the GIL for the
length of a foreign call, and return the bits of ``eigh(a)`` and
``eigh_tridiagonal(d, e, lapack_driver="stemr")``.

``single_blas_thread`` pins every loaded OpenBLAS to one thread while a
thread pool runs, so the pool's threads are the only compute threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cython_lapack

_CHAR = ctypes.c_char_p
_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)

_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _routine(name: str, argtypes):
    """The cython_lapack routine ``name`` as a ctypes function (which drops the GIL when called)."""
    capsule = cython_lapack.__pyx_capi__[name]
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(capsule, _capsule_name(capsule)))


# jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz,
# work, lwork, iwork, liwork, info
_dsyevr = _routine(
    "dsyevr",
    [_CHAR, _CHAR, _CHAR, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE,
     _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT, _INT, _INT],
)
# jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz, tryrac,
# work, lwork, iwork, liwork, info
_dstemr = _routine(
    "dstemr",
    [_CHAR, _CHAR, _INT, _DOUBLE, _DOUBLE, _DOUBLE, _DOUBLE, _INT, _INT, _INT, _DOUBLE,
     _DOUBLE, _INT, _INT, _INT, _INT, _DOUBLE, _INT, _INT, _INT, _INT],
)


def _doubles(array: np.ndarray):
    return array.ctypes.data_as(_DOUBLE)


def _ints(array: np.ndarray):
    return array.ctypes.data_as(_INT)


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _check_info(info: ctypes.c_int, routine: str):
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of {routine}")
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (info = {info.value})")


def _query_then_solve(call):
    """Run ``call(work, lwork, iwork, liwork)`` as a workspace query, then with the sizes it returned.

    scipy sizes the workspaces by the same query, and the blocked reduction
    inside dsyevr picks its block size from ``lwork``, so the bits depend on it.
    """
    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    call(work, -1, iwork, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.intc), liwork)


def syevr(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of symmetric ``a``: the bits of ``scipy.linalg.eigh(a)``.

    Reads the lower triangle, like ``eigh``. Raises ValueError on non-finite
    input and LinAlgError if LAPACK fails.
    """
    a = np.array(np.asarray_chkfinite(a, dtype=np.float64), order="F")  # dsyevr overwrites it
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    w = np.empty(n)
    z = np.empty((n, n), order="F")
    isuppz = np.empty(2 * n, dtype=np.intc)
    bound, tolerance = ctypes.c_double(0.0), ctypes.c_double(0.0)
    found, info = ctypes.c_int(0), ctypes.c_int(0)

    def call(work, lwork, iwork, liwork):
        _dsyevr(
            b"V", b"A", b"L", _int(n), _doubles(a), _int(max(n, 1)),
            ctypes.byref(bound), ctypes.byref(bound), _int(1), _int(n), ctypes.byref(tolerance),
            ctypes.byref(found), _doubles(w), _doubles(z), _int(max(n, 1)), _ints(isuppz),
            _doubles(work), _int(lwork), _ints(iwork), _int(liwork), ctypes.byref(info),
        )
        _check_info(info, "dsyevr")

    _query_then_solve(call)
    return w, z


def stemr(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    The bits of ``scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")``.
    Raises ValueError on non-finite or mis-sized input and LinAlgError if
    LAPACK fails.
    """
    d = np.array(np.asarray_chkfinite(d, dtype=np.float64))  # dstemr overwrites d and e
    e_in = np.asarray_chkfinite(e, dtype=np.float64)
    if d.ndim != 1 or e_in.ndim != 1 or d.size != e_in.size + 1:
        raise ValueError(f"need 1-d d and e with len(d) = len(e) + 1, got {d.shape} and {e_in.shape}")
    n = d.size
    e = np.zeros(n)  # dstemr wants n entries; the last is workspace
    e[:-1] = e_in
    w = np.empty(n)
    z = np.empty((n, n), order="F")
    isuppz = np.empty(2 * n, dtype=np.intc)
    bound = ctypes.c_double(0.0)
    found, info = ctypes.c_int(0), ctypes.c_int(0)

    def call(work, lwork, iwork, liwork):
        _dstemr(
            b"V", b"A", _int(n), _doubles(d), _doubles(e), ctypes.byref(bound), ctypes.byref(bound),
            _int(1), _int(n), ctypes.byref(found), _doubles(w), _doubles(z), _int(n), _int(n),
            _ints(isuppz), _int(1), _doubles(work), _int(lwork), _ints(iwork), _int(liwork),
            ctypes.byref(info),
        )
        _check_info(info, "dstemr")

    _query_then_solve(call)
    return w[: found.value], z[:, : found.value]


@dataclass(frozen=True)
class OpenBLAS:
    """One OpenBLAS build mapped into this process, with its thread-count controls."""

    name: str  # file name of the shared library
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _thread_controls(path: str) -> OpenBLAS | None:
    try:
        library = ctypes.CDLL(path)
    except OSError:  # e.g. a mapped file deleted since
        return None
    # scipy's build exports scipy_openblas_*, numpy's 64-bit-int build the
    # same names with a 64_ suffix; a plain OpenBLAS exports openblas_*.
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return OpenBLAS(Path(path).name, get, set_)
    return None


@functools.cache
def loaded_openblas() -> tuple[OpenBLAS, ...]:
    """Every OpenBLAS mapped into this process (by ``/proc/self/maps``), sorted by file name.

    numpy and scipy each bring their own copy, and both are loaded once
    ``oscent`` is imported, so the answer is computed once. Empty where the
    process map cannot be read or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = {Path(entry[5].strip()) for entry in fields if len(entry) == 6}
    libraries = sorted((path for path in paths if "openblas" in path.name.lower()), key=lambda path: path.name)
    found = (_thread_controls(str(path)) for path in libraries)
    return tuple(lib for lib in found if lib is not None)


@contextlib.contextmanager
def single_blas_thread():
    """Pin every loaded OpenBLAS to one thread inside the block; restore each count on exit, also on error.

    The thread counts are process-wide. Yields the file names of the pinned
    libraries, empty when none was found (then nothing is pinned).
    """
    libraries = loaded_openblas()
    saved = [lib.get_threads() for lib in libraries]
    try:
        for lib in libraries:
            lib.set_threads(1)
        yield [lib.name for lib in libraries]
    finally:
        for lib, count in zip(libraries, saved):
            lib.set_threads(count)
