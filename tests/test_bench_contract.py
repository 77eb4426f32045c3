"""The benchmark's view of the package: every traced target exists and the
oracle workload still passes its checks, through both steady-state paths.

bench/ is only read here; the workload runs in a fresh interpreter with
PYTHONPATH=src:bench, as bench/child.py runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
import blockadesim.cli
import workloads
from tracer import Tracer

tracer = Tracer()
tracer.install()
inputs = workloads.make_inputs("oracle", 101)
out = Path(sys.argv[1])
outputs = workloads.run("oracle", inputs, out)
print(json.dumps({"absent": tracer.absent,
                  "checks": workloads.check("oracle", inputs, outputs, out),
                  "spans": sorted({span[0] for span in tracer.spans})}))
"""


def test_oracle_workload_under_the_tracer(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["absent"] == []
    assert result["checks"] and all(c["ok"] for c in result["checks"]), result["checks"]
    assert {"lindblad.steady_state_dense", "lindblad.steady_state_sparse"} <= set(result["spans"])
