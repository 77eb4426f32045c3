"""BLAS thread pools: read them back, pin them to one thread, restore them.

The dense problems of the production path are small (256x256 at cutoff 4),
where a multi-threaded BLAS spends more time waking and spin-waiting its
threads than computing, and OpenBLAS's LU rounds differently at different
thread counts.  So the CLI runs each command inside ``single_threaded()``
and ``pool_map`` runs every task at one thread, serial or pooled; other
library calls leave BLAS as they find it.  Setting any of ``BLAS_ENV`` turns
the pin off everywhere.  The thread counts are process-wide, so two threads
of one process must not run pinned blocks at the same time.

threadpoolctl is used when it imports.  Without it, the
``*_set_num_threads`` entry points of every OpenBLAS mapped into the
process are called through ctypes; the libraries are found in
``/proc/self/maps``, so on systems without it nothing is pinned and
``single_threaded`` reports ``"none"``.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# OpenBLAS builds export their thread API under these prefixes and suffixes
_SYMBOL_PREFIXES = ("openblas", "scipy_openblas")
_SYMBOL_SUFFIXES = ("", "64_")


def env_pinned() -> bool:
    """True when the user set the BLAS thread count through the environment."""
    return any(v in os.environ for v in BLAS_ENV)


def _threadpoolctl():
    try:
        import threadpoolctl
    except ImportError:
        return None
    return threadpoolctl


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


def thread_counts() -> dict[str, int]:
    """Thread count currently in effect, by loaded BLAS library file name."""
    tpc = _threadpoolctl()
    if tpc is not None:
        return {os.path.basename(info["filepath"]): int(info["num_threads"])
                for info in tpc.threadpool_info() if info["user_api"] == "blas"}
    return {name: int(get()) for name, (get, _) in _openblas_entry_points().items()}


def _pin_to_one_thread():
    """Set every loaded BLAS to one thread.

    Returns a callable that restores the previous counts, or None when no
    library could be controlled.
    """
    tpc = _threadpoolctl()
    if tpc is not None:
        return tpc.threadpool_limits(limits=1, user_api="blas").restore_original_limits
    entry_points = _openblas_entry_points()
    if not entry_points:
        return None
    previous = [(set_threads, get()) for get, set_threads in entry_points.values()]
    for set_threads, _ in previous:
        set_threads(1)

    def restore():
        for set_threads, count in previous:
            set_threads(count)

    return restore


@contextmanager
def single_threaded():
    """Limit every loaded BLAS to one thread inside the block, then restore it.

    Yields who set the thread counts in effect: ``"env"`` when one of
    BLAS_ENV is set (nothing is changed), ``"cli"`` when this block pinned
    the libraries, ``"none"`` when it found no library to pin.
    """
    if env_pinned():
        yield "env"
        return
    restore = _pin_to_one_thread()
    try:
        yield "none" if restore is None else "cli"
    finally:
        if restore is not None:
            restore()


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
