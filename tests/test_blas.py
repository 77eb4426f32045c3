import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import blockadesim
from blockadesim import blas
from blockadesim.cli import main
from blockadesim.lindblad import SystemParams, displaced_solution, two_time_correlations

MHz = 2e6 * np.pi


@pytest.fixture
def unpinned_env(monkeypatch):
    for var in blas.BLAS_ENV:
        monkeypatch.delenv(var, raising=False)


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


def test_cli_leaves_caller_blas_threads_as_found(tmp_path, unpinned_env):
    entry_points = blas._openblas_entry_points()
    original = {name: get() for name, (get, _) in entry_points.items()}
    try:
        # a caller running multi-threaded BLAS gets it back after the command
        for _, set_threads in entry_points.values():
            set_threads(2)
        before = blas.thread_counts()
        assert main(["device", "--out", str(tmp_path)]) == 0
        assert blas.thread_counts() == before
        manifest = json.loads((tmp_path / "device_manifest.json").read_text())
        assert all(n == 1 for n in manifest["blas"]["threads"].values())
    finally:
        for name, count in original.items():
            entry_points[name][1](count)


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
    calls = []

    class threadpool_limits:
        def __init__(self, limits, user_api):
            calls.append((limits, user_api))

        def restore_original_limits(self):
            calls.append("restored")

    stub = types.SimpleNamespace(
        threadpool_info=lambda: [{"user_api": "blas", "num_threads": 3,
                                  "filepath": "/lib/libopenblas.so"},
                                 {"user_api": "openmp", "num_threads": 3,
                                  "filepath": "/lib/libgomp.so"}],
        threadpool_limits=threadpool_limits)
    monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
    assert blas.thread_counts() == {"libopenblas.so": 3}
    with blas.single_threaded() as pinned_by:
        assert pinned_by == "cli"
        assert calls == [(1, "blas")]
    assert calls == [(1, "blas"), "restored"]


def test_g2_tau_correlators_do_not_depend_on_blas_threads(unpinned_env):
    # the g2(tau) regression-oracle conditions, cutoff 6
    entry_points = blas._openblas_entry_points()
    if not entry_points:
        pytest.skip("no controllable BLAS library loaded")
    original = {name: get() for name, (get, _) in entry_points.items()}
    tau = np.linspace(0.0, 120e-9, 241)
    try:
        for _, set_threads in entry_points.values():
            set_threads(2)
        for delta in (0.0, 7.0, 9.0, 11.0):
            p = SystemParams.from_mode_rates(delta * MHz, delta * MHz, 25.1 * MHz, 0.25 * MHz,
                                             8 * MHz, 0.0, 10.35 * MHz, 7.0 * MHz, 1.4e-3, 0.0)
            sol = displaced_solution(p, cutoffs=(6, 6))
            with blas.single_threaded() as pinned_by:
                assert pinned_by == "cli"
                one = two_time_correlations(sol.liouvillian, sol.rho, tau)
            assert all(n == 2 for n in blas.thread_counts().values())
            two = two_time_correlations(sol.liouvillian, sol.rho, tau)
            for a, b in ((one.n_tau, two.n_tau), (one.s_tau, two.s_tau),
                         (one.s_tau_alt, two.s_tau_alt)):
                assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max(), delta
    finally:
        for name, count in original.items():
            entry_points[name][1](count)
