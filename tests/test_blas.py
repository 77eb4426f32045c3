import json
import os
import subprocess
import sys
import threading
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import blockadesim
import blockadesim.lindblad as lindblad_mod
from blockadesim import blas
from blockadesim.cli import main
from blockadesim.lindblad import (Liouvillian, SystemParams, build_liouvillian,
                                  displaced_solution, g2_gradient, stacked_solutions,
                                  steady_state, two_time_correlations)

MHz = 2e6 * np.pi


@pytest.fixture
def unpinned_env(monkeypatch):
    for var in blas.BLAS_ENV:
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def caller_at_two_threads(unpinned_env):
    """Every loaded BLAS at 2 threads, as a multi-threaded caller runs it;
    yields those counts and restores the previous ones after the test."""
    libraries = blas._blas_libraries()
    if not libraries:
        pytest.skip("no controllable BLAS library loaded")
    original = {name: get() for name, (get, _) in libraries.items()}
    try:
        for _, set_threads in libraries.values():
            set_threads(2)
        yield blas.thread_counts()
    finally:
        for name, count in original.items():
            libraries[name][1](count)


def sample_params(delta_mhz=0.0, eta_mhz=8.0):
    # the g2(tau) regression-oracle conditions
    return SystemParams.from_mode_rates(delta_mhz * MHz, delta_mhz * MHz, 25.1 * MHz, 0.25 * MHz,
                                        eta_mhz * MHz, 0.0, 10.35 * MHz, 7.0 * MHz, 1.4e-3, 0.0)


def test_cli_pins_every_openblas_in_fresh_interpreter(tmp_path):
    src = str(Path(blockadesim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in blas.BLAS_ENV}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-m", "blockadesim.cli", "device", "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    manifest = json.loads((tmp_path / "device_manifest.json").read_text())
    threads = manifest["blas"]["threads"]
    assert threads, "no BLAS library reported"
    assert all(n == 1 for name, n in threads.items() if "openblas" in name.lower())
    assert manifest["blas"]["pinned_by"] == "cli"


def test_cli_leaves_caller_blas_threads_as_found(tmp_path, caller_at_two_threads):
    # a caller running multi-threaded BLAS gets it back after the command
    assert main(["device", "--out", str(tmp_path)]) == 0
    assert blas.thread_counts() == caller_at_two_threads
    manifest = json.loads((tmp_path / "device_manifest.json").read_text())
    assert all(n == 1 for n in manifest["blas"]["threads"].values())


def test_env_override_is_reported_and_warned(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(blas, "thread_counts", lambda: {"libopenblas.so": 2})
    assert main(["device", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "device_manifest.json").read_text())
    assert manifest["blas"] == {"threads": {"libopenblas.so": 2}, "pinned_by": "env"}
    assert any(r.levelname == "WARNING" and "multi-threaded" in r.message
               for r in caplog.records)


def _worker_thread_counts(_):
    return blas.thread_counts()


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_workers_run_single_threaded_blas(unpinned_env, workers):
    if not blas.thread_counts():
        pytest.skip("no controllable BLAS library loaded")
    for counts in blas.pool_map(_worker_thread_counts, range(4), workers):
        assert counts and all(n == 1 for n in counts.values())


@pytest.mark.parametrize("workers, n_items", [(1, 8), (2, 3)])
def test_pool_map_runs_serially_without_a_pool(monkeypatch, workers, n_items):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(blas, "ProcessPoolExecutor", no_pool)
    assert blas.pool_map(lambda x: x * x, range(n_items), workers) == [
        x * x for x in range(n_items)]


def test_pool_map_opens_at_most_one_process_per_item(monkeypatch):
    # a fork-started ProcessPoolExecutor launches all max_workers processes at once
    opened = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            opened.append((self.max_workers, chunksize))
            return map(fn, items)

    monkeypatch.setattr(blas, "ProcessPoolExecutor", RecordingPool)
    assert blas.pool_map(abs, range(-2, 2), 64) == [2, 1, 0, 1]
    assert blas.pool_map(abs, range(40), 4) == list(range(40))
    assert opened == [(4, 1), (4, 2)]


def test_threadpoolctl_is_used_when_it_imports(monkeypatch, unpinned_env):
    # its libraries are discovered once, at the first pin, not at every one
    calls = []

    class Library:
        def __init__(self, filepath, user_api):
            self.filepath, self.user_api, self.threads = filepath, user_api, 3

        def get_num_threads(self):
            return self.threads

        def set_num_threads(self, n):
            calls.append(n)
            self.threads = n

    libraries = [Library("/lib/libopenblas.so", "blas"), Library("/lib/libgomp.so", "openmp")]

    class ThreadpoolController:
        def __init__(self):
            calls.append("scan")

        def select(self, user_api):
            return types.SimpleNamespace(
                lib_controllers=[lib for lib in libraries if lib.user_api == user_api])

    monkeypatch.setitem(sys.modules, "threadpoolctl",
                        types.SimpleNamespace(ThreadpoolController=ThreadpoolController))
    monkeypatch.setattr(blas, "_libraries", None)
    for _ in range(3):
        with blas.single_threaded() as pinned_by:
            assert pinned_by == "cli"
            assert blas.thread_counts() == {"libopenblas.so": 1}
        assert blas.thread_counts() == {"libopenblas.so": 3}
    assert calls == ["scan", 1, 3, 1, 3, 1, 3]
    assert libraries[1].threads == 3


def test_openblas_discovery_is_kept_once_scipy_lapack_is_loaded(monkeypatch):
    scans = []
    real = blas._openblas_entry_points

    def counting():
        scans.append(None)
        return real()

    monkeypatch.setattr(blas, "_openblas_entry_points", counting)
    monkeypatch.setattr(blas, "_libraries", None)
    if not blas._blas_libraries():
        pytest.skip("no controllable BLAS library loaded")
    for _ in range(3):
        with blas.single_threaded():
            blas.thread_counts()
    assert len(scans) == 1
    # before scipy's LAPACK is loaded, only numpy's OpenBLAS may be mapped:
    # a pool worker pinning that early finds scipy's on a later discovery
    monkeypatch.setattr(blas, "_libraries", None)
    monkeypatch.delitem(sys.modules, blas._SCIPY_LAPACK)
    blas._blas_libraries()
    blas._blas_libraries()
    assert len(scans) == 3 and blas._libraries is None


def _entry_point_calls():
    """The five solver entry points, each a (name, call) pair; a call returns
    bytes, or dataclasses of floats, that compare equal only bit for bit."""
    p = sample_params(9.0)
    sol = displaced_solution(p)
    # the same Liouvillian without its factorization, which g2_gradient then makes
    unfactored = replace(sol, liouvillian=Liouvillian(sol.liouvillian.dims, sol.liouvillian.terms))
    sol_6 = displaced_solution(p, cutoffs=(6, 6))

    def correlators():
        corr = two_time_correlations(sol_6.liouvillian, sol_6.rho, np.linspace(0.0, 120e-9, 241))
        return np.concatenate([corr.n_tau, corr.s_tau, corr.s_tau_alt]).tobytes()

    return [
        ("displaced_solution", lambda: displaced_solution(p).rho.data.tobytes()),
        ("stacked_solutions", lambda: stacked_solutions(p, [(0.0, 0.0), (9 * MHz, 9 * MHz)])),
        ("steady_state", lambda: steady_state(build_liouvillian(p, cutoffs=(6, 6))).data.tobytes()),
        ("two_time_correlations", correlators),
        ("g2_gradient", lambda: g2_gradient(p, unfactored).tobytes()),
    ]


def test_solver_entry_points_pin_blas_and_restore_the_caller(monkeypatch, caller_at_two_threads):
    seen = []

    def recording(real):
        def wrapper(*args, **kwargs):
            seen.append(blas.thread_counts())
            return real(*args, **kwargs)
        return wrapper

    calls = _entry_point_calls()
    monkeypatch.setattr(lindblad_mod, "dgetrf", recording(lindblad_mod.dgetrf))
    monkeypatch.setattr(lindblad_mod, "_propagate", recording(lindblad_mod._propagate))
    monkeypatch.setattr(np.linalg, "eig", recording(np.linalg.eig))
    for name, call in calls:
        seen.clear()
        call()
        assert seen and all(set(counts.values()) == {1} for counts in seen), name
        assert blas.thread_counts() == caller_at_two_threads, name


def test_solver_entry_points_give_the_pinned_bits(caller_at_two_threads):
    for name, call in _entry_point_calls():
        unpinned_caller = call()
        with blas.single_threaded():
            pinned = call()
        assert unpinned_caller == pinned, name
        assert blas.thread_counts() == caller_at_two_threads


def test_concurrent_solves_share_one_pin(monkeypatch, caller_at_two_threads):
    # two threads inside steady_state at once: the first to leave must not
    # restore the caller's count while the second is still solving.  They
    # meet in the post-solve checks, after each has solved its own L
    both_inside = threading.Barrier(2, timeout=60)
    first_entered, first_done = threading.Event(), threading.Event()
    real = lindblad_mod._steady_states
    inside, errors = [], []

    def steady_states(*args):
        name = threading.current_thread().name
        if name == "first":
            first_entered.set()
        both_inside.wait()
        inside.append(blas.thread_counts())
        if name == "second":
            assert first_done.wait(timeout=60)
            inside.append(blas.thread_counts())
        return real(*args)

    monkeypatch.setattr(lindblad_mod, "_steady_states", steady_states)

    def solve(delta_mhz):
        try:
            if threading.current_thread().name == "second":   # enters the pin second
                assert first_entered.wait(timeout=60)
            steady_state(build_liouvillian(sample_params(delta_mhz)))
        except Exception as exc:   # reported by the main thread
            errors.append(exc)
        finally:
            if threading.current_thread().name == "first":
                first_done.set()

    threads = [threading.Thread(target=solve, args=(delta,), name=name)
               for delta, name in ((0.0, "first"), (9.0, "second"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert len(inside) == 3 and all(set(counts.values()) == {1} for counts in inside)
    assert blas.thread_counts() == caller_at_two_threads


def test_two_threads_factor_two_liouvillians_at_once(monkeypatch):
    # each thread waits inside its own LU factorization for the other; a lock
    # shared by every Liouvillian around the factorization (Python 3.11's
    # cached_property) would keep the second out until the barrier breaks
    both_factoring = threading.Barrier(2, timeout=10)
    real = lindblad_mod.dgetrf

    def dgetrf(*args, **kwargs):
        both_factoring.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(lindblad_mod, "dgetrf", dgetrf)
    errors = []

    def solve(delta_mhz):
        try:
            steady_state(build_liouvillian(sample_params(delta_mhz)))
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=solve, args=(delta,)) for delta in (0.0, 9.0)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and errors == []


def test_two_threads_build_two_csr_superoperators_at_once(monkeypatch):
    # as for the factorization: each thread waits inside its own CSR build
    # for the other, which a lock shared by every Liouvillian would prevent
    both_building = threading.Barrier(2, timeout=5)
    real = lindblad_mod.csr_array

    def csr_array(*args, **kwargs):
        both_building.wait()
        return real(*args, **kwargs)

    liouvillians = [build_liouvillian(sample_params(delta_mhz)) for delta_mhz in (0.0, 9.0)]
    monkeypatch.setattr(lindblad_mod, "csr_array", csr_array)
    errors = []

    def build(L):
        try:
            L.superoperator()
        except Exception as exc:   # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(L,)) for L in liouvillians]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    assert all(L.superoperator() is L.superoperator() for L in liouvillians)


def test_pin_depth_survives_many_threads(caller_at_two_threads):
    # more threads than cores entering and leaving pins with a short switch
    # interval: a lost update of the depth would restore the caller's count
    # inside a block or leave it pinned after the last one
    bad, switch = [], sys.getswitchinterval()

    def churn():
        for _ in range(4000):
            with blas.single_threaded():
                with blas.single_threaded():
                    if set(blas.thread_counts().values()) != {1}:
                        bad.append(blas.thread_counts())

    threads = [threading.Thread(target=churn) for _ in range(16)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == [] and blas._pin_depth == 0
    assert blas.thread_counts() == caller_at_two_threads


def test_g2_tau_correlators_do_not_depend_on_blas_threads(caller_at_two_threads):
    # the g2(tau) regression-oracle conditions, cutoff 6: called at the
    # caller's 2 threads, the solve and the correlators pin BLAS themselves
    # and give the bits of the same calls inside an explicit pin
    tau = np.linspace(0.0, 120e-9, 241)
    for delta in (0.0, 7.0, 9.0, 11.0):
        p = sample_params(delta)
        sol = displaced_solution(p, cutoffs=(6, 6))
        free = two_time_correlations(sol.liouvillian, sol.rho, tau)
        assert blas.thread_counts() == caller_at_two_threads
        with blas.single_threaded() as pinned_by:
            assert pinned_by == "cli"
            pinned_sol = displaced_solution(p, cutoffs=(6, 6))
            pinned = two_time_correlations(pinned_sol.liouvillian, pinned_sol.rho, tau)
        assert np.array_equal(sol.rho.data, pinned_sol.rho.data), delta
        for a, b in ((free.n_tau, pinned.n_tau), (free.s_tau, pinned.s_tau),
                     (free.s_tau_alt, pinned.s_tau_alt)):
            assert np.array_equal(a, b), delta
