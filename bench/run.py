"""blockadesim benchmark: time to a checked answer for the paper's three kinds of job.

Run from the repository root:

    python3 bench/run.py                         # all workloads, tracing off, summary
    python3 bench/run.py --workload envelope --seed 1 --seconds 20 --trace 0

Each sample runs in a fresh child interpreter (``bench/child.py``) with
``PYTHONPATH=src`` and with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` removed, so the program's own BLAS pinning policy
is what gets measured.  Workloads are defined in ``bench/workloads.py``.

With ``--trace 0`` a run reports the end-to-end metrics:

    setup_s      median over several children of import blockadesim.cli
                 through the packaged config loaded by config.load_config
    wall_s       median over repeats of the workload body, tracing off;
                 a run repeats for --seconds and at least 3 times, unless a
                 single repeat takes longer than --seconds
    peak_rss_mb  median over repeats of the child's peak resident set size
                 (getrusage SELF)

Failures are counted in ``attempted``/``failed`` of the result line and
printed as failed_frac with its denominator; at a healthy commit it is 0,
so it is not a bounded metric.  With ``--trace 1`` a run makes one
untraced and one traced sample and reports the per-layer metrics of
``bench/tracer.py`` (PER_LAYER lists each one with the end-to-end metric
and workload it should move), including the traced spans' coverage of
wall_s and the tracing overhead.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the line before it ("detail: {...}") records the machine, the
parent's BLAS environment, the generated inputs, every sample and each
failed check.  Outputs go to a temporary directory under ``.bench_tmp/``,
removed at exit.

Why the CLI default ``--workers 2`` is not a workload yet: on a 2-core
machine with BLAS unpinned (threadpoolctl not installed), 2 pool workers x
2 OpenBLAS threads oversubscribe the cores; ``envelope`` took 45-70 s
over 7 runs and ``map`` 45-52 s over 2 runs, against 26.5 s and 28.5 s at
``--workers 1``.  A pool workload is to be added once that is fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ONLY_SAMPLES = 3   # extra set-up-only children per untraced run
MIN_SAMPLES = 3          # bodies per untraced run, unless one body outlasts --seconds
RUN_BUDGET_S = 170.0     # a run never starts a sample it cannot finish within this


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
            "parent_env": {k: os.environ.get(k) for k in BLAS_ENV}}


class Sampler:
    """Runs child interpreters for one benchmark run inside a deadline."""

    def __init__(self, workload: str, inputs: dict, tmp: Path):
        self.workload, self.inputs, self.tmp = workload, inputs, tmp
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0

    def sample(self, body: bool = True, trace: bool = False) -> dict | None:
        """One child; None when it crashed or timed out (its stderr is forwarded)."""
        self.count += 1
        run_dir = self.tmp / f"sample{self.count}"
        run_dir.mkdir()
        request = {"src": str(SRC), "trace": trace, "inputs": self.inputs,
                   "workload": self.workload if body else None,
                   "out_dir": str(run_dir / "out"),
                   "trace_path": str(run_dir / "trace.json")}
        (run_dir / "request.json").write_text(json.dumps(request))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(run_dir / "request.json"),
                 str(run_dir / "result.json")],
                cwd=run_dir, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"bench: {self.workload} sample {self.count} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"bench: {self.workload} sample {self.count} exited {proc.returncode}:\n"
                  f"{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads((run_dir / "result.json").read_text())
        if trace:
            result["trace"] = json.loads((run_dir / "trace.json").read_text())
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: returns the result line plus its detail record."""
    inputs = workloads.make_inputs(workload, seed)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_tmp"))
    try:
        sampler = Sampler(workload, inputs, tmp)
        if trace:
            plain = sampler.sample()
            bodies = [plain, sampler.sample(trace=True)]
            setups = []
        else:
            setups = [sampler.sample(body=False) for _ in range(SETUP_ONLY_SAMPLES)]
            bodies, started = [], time.monotonic()
            while True:
                last = time.monotonic()
                bodies.append(sampler.sample())
                took = time.monotonic() - last
                elapsed = time.monotonic() - started
                if (elapsed >= seconds and (len(bodies) >= MIN_SAMPLES or took >= seconds)
                        or sampler.time_left() < 1.5 * took):
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    done = [b for b in bodies if b is not None]
    checks = [c for b in done for c in b["checks"]]
    attempted = workloads.OPS[workload] * len(bodies)
    failed = sum(not c["ok"] for c in checks) + workloads.OPS[workload] * (len(bodies) - len(done))
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": inputs, "machine": machine(),
        "blas_threads": done[0]["blas_threads"] if done else None,
        "threadpoolctl": done[0]["threadpoolctl"] if done else None,
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "failed_checks": [c for c in checks if not c["ok"]],
        "samples": {"setup_s": [s["setup_s"] for s in setups + done if s is not None],
                    "wall_s": [b["wall_s"] for b in done],
                    "peak_rss_mb": [b["peak_rss_mb"] for b in done]},
    }
    if trace:
        if plain is None or len(done) < 2:
            raise RuntimeError(f"{workload}: the untraced or traced sample failed")
        metrics, detail["percentiles"], detail["absent"] = tracer.layer_metrics(
            done[1]["trace"], done[1]["wall_s"], done[0]["wall_s"])
    else:
        if not done:
            raise RuntimeError(f"{workload}: every sample failed")
        samples = detail["samples"]
        metrics = {"setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
                   "wall_s": {"value": statistics.median(samples["wall_s"]), "unit": "s"},
                   "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]),
                                   "unit": "MB"}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "detail": detail}


def summary_line(workload: str, run: dict) -> str:
    parts = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in run["result"]["metrics"].items()]
    d = run["detail"]
    parts.append(f"failed_frac {d['failed_frac']:g} ({d['failed']}/{d['attempted']} operations)")
    return f"{workload}: " + ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.OPS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure repeats of the workload body for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blockadesim" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2

    names = sorted(workloads.OPS) if args.workload == "all" else [args.workload]
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(summary_line(name, runs[name]), flush=True)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for run in runs.values():
        print("detail: " + json.dumps(run["detail"]))
    if len(names) == 1:
        print(json.dumps(runs[names[0]]["result"]))
    else:
        print(json.dumps({name: run["result"] for name, run in runs.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
