"""The benchmark's view of the package: every traced target exists and the
envelope, oracle and measure workloads still pass their checks, with the
spans their per-layer metrics read.

bench/ is only read here; each workload runs in a fresh interpreter with
PYTHONPATH=src:bench, as bench/child.py runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
import blockadesim.cli
import workloads
from tracer import Tracer

workload = sys.argv[2]
tracer = Tracer()
tracer.install()
inputs = workloads.make_inputs(workload, 101)
out = Path(sys.argv[1])
outputs = workloads.run(workload, inputs, out)
print(json.dumps({"absent": tracer.absent,
                  "checks": workloads.check(workload, inputs, outputs, out),
                  "spans": sorted({span[0] for span in tracer.spans})}))
"""

SPANS = {
    # the cutoff-4 point, layer by layer, in the optimizer (the seed comes
    # from lindblad.linearized_g2, which the tracer does not wrap)
    "envelope": {"lindblad.build_liouvillian", "lindblad.steady_state_dense",
                 "lindblad.observables", "sweep.nelder_mead"},
    # both steady-state paths
    "oracle": {"lindblad.steady_state_dense", "lindblad.steady_state_sparse"},
    # the traced extras of estimate_moments read RawTraceSet.X_r, Y_r and packet_size;
    # three measurement.synth_traces metrics read the synthesis span
    "measure": {"measurement.synth_traces", "measurement.estimate_moments",
                "measurement.packet_statistics", "gaussian.g2prime_from_fourth_moments"},
}


@pytest.mark.parametrize("workload", sorted(SPANS))
def test_workload_under_the_tracer(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), workload], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["absent"] == []
    assert result["checks"] and all(c["ok"] for c in result["checks"]), result["checks"]
    assert SPANS[workload] <= set(result["spans"])
