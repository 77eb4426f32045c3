"""BLAS thread pools: read them back, pin them to one thread, restore them.

The dense problems of the production path are small (256x256 at cutoff 4),
where a multi-threaded BLAS spends more time waking and spin-waiting its
threads than computing, and OpenBLAS's LU rounds differently at different
thread counts.  So each solver entry point of ``lindblad`` runs inside
``single_threaded()``, used as a decorator, and so does each CLI command;
``pool_map`` runs every task at one thread, serial or pooled.  A library
solve thus gives the CLI's bits whatever the caller's thread count, and
leaves that count as it found it.  ``single_threaded`` is re-entrant and
safe for threads: the first block to enter pins, nested and concurrent
blocks only count themselves, and the last to leave restores the counts
the first one found.  Setting any of ``BLAS_ENV`` turns the pin off
everywhere.

The libraries are found once per process (``_blas_libraries``), through
threadpoolctl when it imports.  Without it, the ``*_set_num_threads``
entry points of every OpenBLAS mapped into the process are called through
ctypes; the libraries are found in ``/proc/self/maps``, so on systems
without it nothing is pinned and ``single_threaded`` reports ``"none"``.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS builds export their thread API under these prefixes and suffixes
_SYMBOL_PREFIXES = ("openblas", "scipy_openblas")
_SYMBOL_SUFFIXES = ("", "64_")
# scipy's LAPACK extension: once it is loaded, scipy's OpenBLAS is mapped beside numpy's
_SCIPY_LAPACK = "scipy.linalg._flapack"

# The thread counts are process-wide, so the pin's state is too: the number
# of open single_threaded blocks and the restore of the first one's pin.
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore = None
_libraries: dict | None = None   # the kept discovery of ``_blas_libraries``


def env_pinned() -> bool:
    """True when the user set the BLAS thread count through the environment."""
    return any(v in os.environ for v in BLAS_ENV)


def _openblas_entry_points() -> dict:
    """{library file name: (get_num_threads, set_num_threads)} of each mapped OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in (f"{prefix}_%s_num_threads{suffix}"
                     for prefix in _SYMBOL_PREFIXES for suffix in _SYMBOL_SUFFIXES):
            getter = getattr(lib, name % "get", None)
            setter = getattr(lib, name % "set", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                out[os.path.basename(path)] = (getter, setter)
                break
    return out


def _blas_libraries() -> dict:
    """{library file name: (get_num_threads, set_num_threads)} of every loaded BLAS.

    From threadpoolctl's controllers when it imports, else
    ``_openblas_entry_points``.  A discovery reads the process's mapped
    libraries (about 0.6 ms without threadpoolctl), so the first one made
    after scipy's LAPACK is loaded is kept for the process; an earlier one,
    such as a pool worker's pin before it imports numpy, is not, so that
    the worker still finds both libraries later.
    """
    global _libraries
    if _libraries is not None:
        return _libraries
    try:
        import threadpoolctl
    except ImportError:
        found = _openblas_entry_points()
    else:
        found = {os.path.basename(lib.filepath): (lib.get_num_threads, lib.set_num_threads)
                 for lib in threadpoolctl.ThreadpoolController().select(
                     user_api="blas").lib_controllers}
    if _SCIPY_LAPACK in sys.modules:
        _libraries = found
    return found


def thread_counts() -> dict[str, int]:
    """Thread count currently in effect, by loaded BLAS library file name."""
    return {name: int(get()) for name, (get, _) in _blas_libraries().items()}


def _pin_to_one_thread():
    """Set every loaded BLAS to one thread.

    Returns a callable that restores the previous counts, or None when no
    library could be controlled.
    """
    libraries = _blas_libraries()
    if not libraries:
        return None
    previous = [(set_threads, get()) for get, set_threads in libraries.values()]
    for set_threads, _ in previous:
        set_threads(1)

    def restore():
        for set_threads, count in previous:
            set_threads(count)

    return restore


@contextmanager
def single_threaded():
    """Limit every loaded BLAS to one thread inside the block, then restore it.

    Also a decorator (``@single_threaded()``).  Re-entrant and safe for
    threads: only the outermost block in the process reads BLAS_ENV and
    pins, and the last one to leave restores, so a nested block costs a
    few microseconds.
    Yields who set the thread counts in effect: ``"env"`` when one of
    BLAS_ENV is set (nothing is changed), ``"cli"`` when the outermost
    block pinned the libraries, ``"none"`` when it found no library to pin.
    """
    global _pin_depth, _pin_restore
    with _pin_lock:
        if _pin_depth == 0 and env_pinned():
            pinned_by = "env"
        else:
            if _pin_depth == 0:
                _pin_restore = _pin_to_one_thread()
            _pin_depth += 1
            pinned_by = "none" if _pin_restore is None else "cli"
    try:
        yield pinned_by
    finally:
        if pinned_by != "env":
            with _pin_lock:
                _pin_depth -= 1
                if _pin_depth == 0 and _pin_restore is not None:
                    _pin_restore()
                    _pin_restore = None


def pin_worker():
    """Process-pool initializer: one BLAS thread per worker, unless BLAS_ENV is set."""
    if not env_pinned():
        _pin_to_one_thread()


def pool_map(fn, items, workers: int) -> list:
    """``[fn(x) for x in items]`` with BLAS at one thread, pooled when it pays.

    Serial inside ``single_threaded()`` when ``workers <= 1`` or there are
    fewer than 4 items; else ``min(workers, len(items))`` processes started
    with ``pin_worker`` take chunks of ``len(items) // (4 * workers)`` items.
    Results keep order.
    """
    items = list(items)
    if workers <= 1 or len(items) < 4:
        with single_threaded():
            return [fn(x) for x in items]
    # a fork-started pool launches all max_workers processes at once, used or not
    with ProcessPoolExecutor(max_workers=min(workers, len(items)), initializer=pin_worker) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))
