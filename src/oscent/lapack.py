"""LAPACK solvers that release the GIL, and the OpenBLAS thread pin.

``syevr``, ``stemr``, ``potrf`` and ``potrs`` call LAPACK's ``dsyevr``,
``dstemr``, ``dpotrf`` and ``dpotrs`` through ``ctypes``, which releases
the GIL for the length of a foreign call, so threads that work on different
matrices do not queue on it (scipy's f2py wrappers hold it for much of each
call). They pass the arguments and workspace sizes scipy's wrappers pass,
and return the bits of ``scipy.linalg.eigh(a)``,
``eigh_tridiagonal(d, e, lapack_driver="stemr")``, ``cho_factor(a)[0]`` and
``cho_solve((c, False), b)`` computed by the same LAPACK.

The routines come from the OpenBLAS numpy has already loaded. numpy's
wheels bundle scipy-openblas64, which exports them with 64-bit integers as
``scipy_dsyevr_64_``, ``scipy_dstemr_64_``, ``scipy_dpotrf_64_`` and
``scipy_dpotrs_64_``. The library is found in ``/proc/self/maps`` by those
symbols, so the choice does not depend on what else the process has
imported: scipy's own OpenBLAS (32-bit integers, ``scipy_dsyevr_``) may be
mapped too. On the builds tested (numpy's OpenBLAS 0.3.31, scipy's 0.3.30)
the two give the same bits.

Where no mapped library exports those names (numpy on MKL, Accelerate or a
distribution's BLAS, or a platform without ``/proc``), the routines are the
function pointers ``scipy.linalg.cython_lapack`` exports. That extension
module is loaded from its file in scipy's ``linalg`` directory, registered
under its own name only while it initializes, so
``scipy/linalg/__init__.py`` (and the array-API, f2py and testing machinery
it imports) never runs; a later import of ``scipy.linalg.cython_lapack``
gets the same module object and binds it on ``scipy.linalg``.

``lapack_versions`` names the bound library for a run's manifest.
``single_blas_thread`` pins the OpenBLAS libraries mapped when the routines
were bound, the ones a thread pool computes with, to one thread while the
pool runs, so the pool's threads are the only compute threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Arguments of each routine, every one passed by address:
_ARITY = {
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
    # isuppz, work, lwork, iwork, liwork, info
    "dsyevr": 21,
    # jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz,
    # tryrac, work, lwork, iwork, liwork, info
    "dstemr": 21,
    # uplo, n, a, lda, info
    "dpotrf": 5,
    # uplo, n, nrhs, a, lda, b, ldb, info
    "dpotrs": 8,
}


@dataclass(frozen=True)
class _Binding:
    """The four LAPACK routines as ctypes functions, the library they come from, and the OpenBLAS mapped then."""

    library: str  # what computes: a shared library's file name, or scipy's cython_lapack
    integer: type  # ctypes type of LAPACK's INTEGER, for scalars and integer arrays alike
    routines: dict[str, Callable]  # name -> ctypes function, by _ARITY's names
    openblas: tuple[str, ...]  # the OpenBLAS files mapped when the routines were bound
    scipy: str | None = None  # scipy's version where the routines are scipy's


def _function(address: int, name: str) -> Callable:
    """The routine ``name`` at ``address`` as a ctypes function (which drops the GIL when called).

    Every argument is a raw address, scalars included (LAPACK takes them by
    reference): converting a plain int is the cheapest foreign argument.
    """
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * _ARITY[name])(address)


def _openblas_paths() -> tuple[str, ...]:
    """Every OpenBLAS file mapped into this process now (by ``/proc/self/maps``), sorted by file name.

    Empty where the process map cannot be read.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {Path(line.split(maxsplit=5)[-1].strip()) for line in maps if "openblas" in line.lower()}
    except OSError:
        return ()
    libraries = sorted((path for path in paths if "openblas" in path.name.lower()), key=lambda path: path.name)
    return tuple(str(path) for path in libraries)


def _numpy_binding(paths) -> _Binding | None:
    """The routines of the first library among ``paths`` (the OpenBLAS mapped now) that exports them as ``scipy_<name>_64_``, or None."""
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:  # e.g. a mapped file deleted since
            continue
        symbols = {name: getattr(library, f"scipy_{name}_64_", None) for name in _ARITY}
        if all(symbols.values()):
            addresses = {name: ctypes.cast(symbol, ctypes.c_void_p).value for name, symbol in symbols.items()}
            routines = {name: _function(address, name) for name, address in addresses.items()}
            return _Binding(Path(path).name, ctypes.c_int64, routines, tuple(paths))
    return None


@functools.cache
def _load_cython_lapack():
    """``scipy.linalg.cython_lapack``, loaded from its file without running ``scipy.linalg``'s package init."""
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    directories = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    files = [Path(d, "cython_lapack" + suffix) for d in directories for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((file for file in files if file.is_file()), None)
    if path is None:
        raise ImportError(f"no {name} extension module in {list(directories)}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]  # so a later import reuses this module and binds it on scipy.linalg
    return module


# Indexing makes private function objects: typing them leaves ctypes.pythonapi's alone.
_capsule_name, _capsule_pointer = ctypes.pythonapi["PyCapsule_GetName"], ctypes.pythonapi["PyCapsule_GetPointer"]
_capsule_name.argtypes, _capsule_name.restype = [ctypes.py_object], ctypes.c_char_p
_capsule_pointer.argtypes, _capsule_pointer.restype = [ctypes.py_object, ctypes.c_char_p], ctypes.c_void_p


def _cython_binding() -> _Binding:
    """The routines ``scipy.linalg.cython_lapack`` exports, with 32-bit integers."""
    import scipy

    capsules = _load_cython_lapack().__pyx_capi__
    routines = {
        name: _function(_capsule_pointer(capsules[name], _capsule_name(capsules[name])), name) for name in _ARITY
    }
    # read after the load, which maps scipy's OpenBLAS where scipy bundles one
    return _Binding("scipy.linalg.cython_lapack", ctypes.c_int, routines, _openblas_paths(), scipy.__version__)


_lapack = _numpy_binding(_openblas_paths()) or _cython_binding()


def lapack_versions() -> dict[str, str]:
    """What computes the solvers' outputs, for a run manifest.

    ``lapack`` is the bound library's file name; ``scipy`` is scipy's
    version, present only where the routines are scipy's ``cython_lapack``.
    """
    versions = {"lapack": _lapack.library}
    if _lapack.scipy is not None:
        versions["scipy"] = _lapack.scipy
    return versions


def _scalars(ctype, *values):
    """``values`` side by side in one ctypes array of ``ctype``, and the address of each.

    The addresses are valid only while the array is alive, so callers hold it.
    """
    block = (ctype * len(values))(*values)
    base, size = ctypes.addressof(block), ctypes.sizeof(ctype)
    return block, [base + size * k for k in range(len(values))]


# vl, vu and abstol: read-only inputs, so every call can share one zero
_ZERO = ctypes.c_double(0.0)
_ZERO_AT = ctypes.addressof(_ZERO)


def _check_info(info, routine: str):
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} failed (info = {info})")


def _call(routine: str, *arguments):
    """Call the bound ``routine`` with ``arguments`` (addresses) and an ``info`` of its own, then check ``info``."""
    info = _lapack.integer(0)
    _lapack.routines[routine](*arguments, ctypes.addressof(info))
    _check_info(info.value, routine)


def _call_with_workspace(routine: str, *arguments):
    """Call ``routine`` (dsyevr or dstemr), whose ``arguments`` stop before ``work``, with the workspace it asks for.

    A workspace query (``lwork = liwork = -1``) comes first, the one scipy's
    wrappers make on every call. The blocked reduction inside dsyevr picks
    its block size from ``lwork``, so the bits depend on the sizes queried.
    """
    work, iwork = np.empty(1), np.empty(1, dtype=_lapack.integer)
    sizes, (lwork, liwork) = _scalars(_lapack.integer, -1, -1)
    _call(routine, *arguments, work.ctypes.data, lwork, iwork.ctypes.data, liwork)
    sizes[:] = int(work[0]), int(iwork[0])
    work, iwork = np.empty(sizes[0]), np.empty(sizes[1], dtype=_lapack.integer)
    _call(routine, *arguments, work.ctypes.data, lwork, iwork.ctypes.data, liwork)


def _square(a: np.ndarray, routine: str):
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{routine} expects a square matrix, got shape {a.shape}")


def _overwritable(a, overwrite_a: bool) -> np.ndarray:
    """``a`` as a finite float64 Fortran-ordered array for LAPACK to overwrite.

    ``a`` itself when ``overwrite_a`` is set and it already is one, and
    writeable; a copy otherwise. Raises ValueError on non-finite input.
    """
    a = np.asarray_chkfinite(a, dtype=np.float64)
    if overwrite_a and a.flags.f_contiguous and a.flags.writeable:
        return a
    return np.array(a, order="F")


def syevr(a, overwrite_a=False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of symmetric ``a``: the bits of ``scipy.linalg.eigh(a)``.

    Reads the lower triangle, like ``eigh``. Raises ValueError on non-finite
    input and LinAlgError if LAPACK fails. With ``overwrite_a``, as in
    ``eigh``, dsyevr may work in ``a`` and destroy it: it does when ``a`` is
    a writeable Fortran-ordered float64 array, which saves one n x n copy;
    any other ``a`` is copied, as by default.
    """
    a = _overwritable(a, overwrite_a)
    _square(a, "syevr")
    n = a.shape[0]
    w = np.empty(n)
    z = np.empty((n, n), order="F")
    isuppz = np.empty(2 * n, dtype=_lapack.integer)
    block, (n_, ld, first, last, found) = _scalars(_lapack.integer, n, max(n, 1), 1, n, 0)
    _call_with_workspace(
        "dsyevr", b"V", b"A", b"L", n_, a.ctypes.data, ld, _ZERO_AT, _ZERO_AT, first, last, _ZERO_AT,
        found, w.ctypes.data, z.ctypes.data, ld, isuppz.ctypes.data,
    )
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
    isuppz = np.empty(2 * n, dtype=_lapack.integer)
    ints, (n_, first, last, found, ldz, nzc, tryrac) = _scalars(_lapack.integer, n, 1, n, 0, n, n, 1)
    _call_with_workspace(
        "dstemr", b"V", b"A", n_, d.ctypes.data, e.ctypes.data, _ZERO_AT, _ZERO_AT, first, last, found,
        w.ctypes.data, z.ctypes.data, ldz, nzc, isuppz.ctypes.data, tryrac,
    )
    m = int(ints[3])
    return w[:m], z[:, :m]


def potrf(a, overwrite_a=False) -> np.ndarray:
    """Upper Cholesky factor u (a = u^T u) of symmetric positive-definite ``a``: the bits of ``scipy.linalg.cho_factor(a)[0]``.

    Reads the upper triangle and, like ``cho_factor``, leaves the input's
    strict lower triangle in place; Fortran order. Raises ValueError on
    non-finite or non-square input and LinAlgError unless ``a`` is
    positive definite. With ``overwrite_a``, as in ``cho_factor``, the
    factor is written into ``a`` and returned when ``a`` is a writeable
    Fortran-ordered float64 array (``a`` is then destroyed, also when the
    factorization fails); any other ``a`` is copied, as by default.
    """
    c = _overwritable(a, overwrite_a)
    _square(c, "potrf")
    n = c.shape[0]
    ints, (n_, ld, info) = _scalars(_lapack.integer, n, max(n, 1), 0)
    _lapack.routines["dpotrf"](b"U", n_, c.ctypes.data, ld, info)
    if ints[-1] > 0:  # scipy's wording
        raise np.linalg.LinAlgError(f"{ints[-1]}-th leading minor of the array is not positive definite")
    _check_info(ints[-1], "dpotrf")
    return c


def potrs(c, b) -> np.ndarray:
    """Solve a x = b from the upper Cholesky factor ``c`` of ``potrf(a)``: the bits of ``cho_solve((c, False), b)``.

    ``b`` is a vector or a matrix of right-hand sides; ``x`` has its shape,
    in Fortran order. Raises ValueError on non-finite or mis-sized input.
    """
    c = np.asfortranarray(np.asarray_chkfinite(c, dtype=np.float64))
    x = np.array(np.asarray_chkfinite(b, dtype=np.float64), order="F")  # dpotrs overwrites it
    _square(c, "potrs")
    if x.ndim not in (1, 2) or x.shape[0] != c.shape[0]:
        raise ValueError(f"right-hand side of shape {x.shape} does not fit a factor of shape {c.shape}")
    n = c.shape[0]
    block, (n_, nrhs, ld) = _scalars(_lapack.integer, n, 1 if x.ndim == 1 else x.shape[1], max(n, 1))
    _call("dpotrs", b"U", n_, nrhs, c.ctypes.data, ld, x.ctypes.data, ld)
    return x


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


def bound_openblas() -> tuple[OpenBLAS, ...]:
    """The OpenBLAS libraries mapped when the LAPACK routines were bound, sorted by file name: those a pool computes with.

    A pool's workers call only numpy, whose BLAS is mapped before the
    binding, and the routines (numpy's OpenBLAS, or scipy's, which loading
    ``cython_lapack`` maps). Empty where the process map could not be read.
    """
    return _controls_of(_lapack.openblas)


@functools.cache
def _controls_of(paths: tuple[str, ...]) -> tuple[OpenBLAS, ...]:
    found = (_thread_controls(path) for path in paths)
    return tuple(lib for lib in found if lib is not None)


# The thread counts are process-wide, so overlapping pins share one.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved: list[tuple[OpenBLAS, int]] = []


@contextlib.contextmanager
def single_blas_thread():
    """Pin the bound OpenBLAS libraries to one thread inside the block; restore their counts on exit, also on error.

    Blocks may overlap, in one thread or several: the first to enter saves
    the counts and the last to exit restores them. Yields the file names of
    the pinned libraries, empty when there are none (then nothing is pinned).
    """
    global _pin_depth, _pin_saved
    libraries = bound_openblas()
    with _pin_lock:
        if not _pin_depth:
            _pin_saved = [(lib, lib.get_threads()) for lib in libraries]
            for lib in libraries:
                lib.set_threads(1)
        _pin_depth += 1
    try:
        yield [lib.name for lib in libraries]
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if not _pin_depth:
                for lib, count in _pin_saved:
                    lib.set_threads(count)
