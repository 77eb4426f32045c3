"""One benchmark sample in a fresh interpreter.

    python3 bench/child.py REQUEST.json RESULT.json

Times set-up (``import blockadesim.cli`` through the packaged default
config loaded by ``config.load_config``), then, unless the request asks
for set-up only, runs one workload body, optionally traced, checks its
outputs and writes a JSON result.  Nothing from numpy or scipy may be
imported before the set-up timer starts.
"""

import importlib.util
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def main(request_path: str, result_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    early = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
    if early:
        print(f"child: {early} imported before the set-up timer", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import blockadesim.cli as cli
    tracer = None
    if req["trace"]:
        tracer = Tracer()
        tracer.install()
    cli.load_config(cli.default_config_path())
    setup_s = time.perf_counter() - t0

    src = Path(req["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"child: blockadesim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}

    if req["workload"] is not None:
        import workloads
        out_dir = Path(req["out_dir"])
        start = time.perf_counter_ns()
        outputs = workloads.run(req["workload"], req["inputs"], out_dir)
        end = time.perf_counter_ns()
        if tracer is not None:
            tracer.dump(req["trace_path"], (start, end))
        result.update(
            wall_s=(end - start) / 1e9,
            checks=workloads.check(req["workload"], req["inputs"], outputs, out_dir),
            blas_threads=blas_threads(),
            threadpoolctl=importlib.util.find_spec("threadpoolctl") is not None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
