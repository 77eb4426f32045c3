"""The benchmark's three workloads: inputs from a seed, the timed body, output checks.

envelope  CLI ``envelope`` on the packaged reference device (cutoff 4, six
          eta values, ``--workers 1``); the seed does not change its inputs.
measure   CLI ``measure-demo`` on the packaged config, ``--seed`` = the
          benchmark seed (25 on/off packet pairs of 10^6 samples).
oracle    library calls: two undisplaced cutoff-10 steady states at detunings
          the seed picks from acceptance criterion 11, each checked against
          the displaced cutoff-4 answer, plus one cutoff-6 displaced solve
          with a 241-point g2(tau) at a seed-picked detuning of the g2(tau)
          regression-oracle test, checked against stored reference values.

Checks never abort: each operation is counted as attempted and, when its
output is missing, non-finite or outside tolerance, as failed.  A CLI exit
code other than 0 fails every operation of that run.

The package is imported inside the functions, so this module loads without
it (the benchmark must fail cleanly where the package source is missing).
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

MHZ = 2.0 * math.pi * 1e6

# acceptance criterion 7: envelope bottom window
ENVELOPE_G2_BOTTOM = (0.25, 0.5)
ENVELOPE_N_TOT_BOTTOM = (3e-3, 3e-1)
ENVELOPE_ETAS = 6
# acceptance criterion 10: every pull of measure-demo within 5 sigma
PULL_LIMIT = 5.0
PULLS = ("alpha_re", "alpha_im", "n", "s_re", "s_im", "g2")
# acceptance criterion 11: displaced cutoff 4 vs undisplaced cutoff 10 within 1%
ORACLE_DETUNINGS_MHZ = (-13.0, -10.0, -7.0, -1.0, 8.0)
ORACLE_ETA_MHZ = 15.0
ORACLE_POINTS = 2
ORACLE_REL_TOL = 0.01
# g2(tau) regression-oracle conditions (tests/test_gaussian.py)
G2TAU_DETUNINGS_MHZ = (0.0, 7.0, 9.0, 11.0)
G2TAU_ETA_MHZ = 8.0
G2TAU_CUTOFF = 6
G2TAU_TAU = (0.0, 120e-9, 241)
REFERENCE_FILE = Path(__file__).with_name("g2tau_reference.json")

# operations checked per run, by workload
OPS = {"envelope": ENVELOPE_ETAS + 1, "measure": len(PULLS), "oracle": ORACLE_POINTS + 1}


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs the program receives; the same seed gives the same inputs."""
    if workload == "envelope":
        return {"argv": ["envelope", "--workers", "1"]}
    if workload == "measure":
        return {"argv": ["measure-demo", "--workers", "1", "--seed", str(seed)]}
    if workload == "oracle":
        rng = random.Random(seed)
        return {"oracle_delta_mhz": sorted(rng.sample(ORACLE_DETUNINGS_MHZ, ORACLE_POINTS)),
                "g2tau_delta_mhz": rng.choice(G2TAU_DETUNINGS_MHZ)}
    raise ValueError(f"unknown workload {workload!r}")


def _params(delta: float, eta: float):
    from blockadesim.lindblad import SystemParams
    # the acceptance suite's sample parameters (J, U, kappa_a, kappa_b, n_th_a)
    return SystemParams.from_mode_rates(delta, delta, 25.1 * MHZ, 0.25 * MHZ, eta, 0.0,
                                        10.35 * MHZ, 7.0 * MHZ, 1.4e-3, 0.0)


def oracle_point(delta_mhz: float) -> dict:
    """n_tot and g2' from the displaced cutoff-4 and the undisplaced cutoff-10 solves."""
    import numpy as np
    from blockadesim import hilbert, lindblad
    p = _params(delta_mhz * MHZ, ORACLE_ETA_MHZ * MHZ)
    disp = lindblad.displaced_solution(p, cutoffs=(4, 4)).obs
    rho = lindblad.steady_state(lindblad.build_liouvillian(p, cutoffs=(10, 10))).data
    a_op, _ = hilbert.two_mode_annihilators(10, 10)
    A = a_op.data
    Ad = A.conj().T
    n_tot = float(np.trace(Ad @ A @ rho).real)
    g2p = float(np.trace(Ad @ Ad @ A @ A @ rho).real) / n_tot**2
    return {"n_tot_c4": disp.n_tot, "g2_prime_c4": disp.g2_prime,
            "n_tot_c10": n_tot, "g2_prime_c10": g2p}


def g2tau_curve(delta_mhz: float) -> list[float]:
    """Gaussian g2(tau) from a cutoff-6 displaced solve and the regression theorem."""
    import numpy as np
    from blockadesim import gaussian, lindblad
    p = _params(delta_mhz * MHZ, G2TAU_ETA_MHZ * MHZ)
    sol = lindblad.displaced_solution(p, cutoffs=(G2TAU_CUTOFF, G2TAU_CUTOFF))
    corr = lindblad.two_time_correlations(sol.liouvillian, sol.rho, np.linspace(*G2TAU_TAU))
    return [float(v) for v in gaussian.g2_tau(sol.mean_field.alpha, corr)]


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # recorded as a failed operation, never aborts the run
        return {"error": f"{type(exc).__name__}: {exc}"}


def run(workload: str, inputs: dict, out_dir: Path) -> dict:
    """The timed body.  Returns what the checks need; files go to out_dir."""
    if workload in ("envelope", "measure"):
        from blockadesim import cli
        return {"exit": cli.main(inputs["argv"] + ["--out", str(out_dir)])}
    return {"oracle": {str(d): _guarded(oracle_point, d) for d in inputs["oracle_delta_mhz"]},
            "g2tau": _guarded(g2tau_curve, inputs["g2tau_delta_mhz"])}


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _relative(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference) if reference else math.inf


def check(workload: str, inputs: dict, outputs: dict, out_dir: Path) -> list[dict]:
    """One entry {op, ok, detail} per operation; len() == OPS[workload]."""
    if workload == "envelope":
        return _check_envelope(outputs, out_dir)
    if workload == "measure":
        return _check_measure(outputs, out_dir)
    return _check_oracle(inputs, outputs)


def _all_failed(workload: str, detail: str) -> list[dict]:
    return [{"op": f"{workload}[{k}]", "ok": False, "detail": detail}
            for k in range(OPS[workload])]


def _check_envelope(outputs: dict, out_dir: Path) -> list[dict]:
    path = out_dir / "envelope.csv"
    if outputs["exit"] != 0 or not path.exists():
        return _all_failed("envelope", f"exit code {outputs['exit']}")
    with open(path, newline="") as fh:
        rows = [(float(r["eta_a_rad_per_s"]), float(r["n_tot"]), float(r["g2_min"]))
                for r in csv.DictReader(fh)]
    results = []
    for k in range(ENVELOPE_ETAS):
        if k < len(rows):
            eta, n_tot, g2 = rows[k]
            results.append({"op": f"envelope eta={eta / MHZ:g}MHz", "ok": _finite(g2, n_tot),
                            "detail": f"g2_min={g2!r} n_tot={n_tot!r}"})
        else:
            results.append({"op": f"envelope row {k}", "ok": False, "detail": "row missing"})
    finite = [r for r in rows if _finite(r[1], r[2])]
    if finite:
        _, n_tot, g2 = min(finite, key=lambda r: r[2])
        ok = (ENVELOPE_G2_BOTTOM[0] <= g2 <= ENVELOPE_G2_BOTTOM[1]
              and ENVELOPE_N_TOT_BOTTOM[0] <= n_tot <= ENVELOPE_N_TOT_BOTTOM[1])
        detail = f"bottom g2_min={g2:.4f} at n_tot={n_tot:.3e}"
    else:
        ok, detail = False, "no finite row"
    results.append({"op": "envelope bottom", "ok": ok, "detail": detail})
    return results


def _check_measure(outputs: dict, out_dir: Path) -> list[dict]:
    path = out_dir / "measure_demo_report.json"
    if outputs["exit"] != 0 or not path.exists():
        return _all_failed("measure", f"exit code {outputs['exit']}")
    pulls = json.loads(path.read_text())["pulls"]
    return [{"op": f"pull {name}",
             "ok": _finite(pulls.get(name)) and abs(pulls[name]) < PULL_LIMIT,
             "detail": f"{pulls.get(name)!r} sigma"} for name in PULLS]


def _check_oracle(inputs: dict, outputs: dict) -> list[dict]:
    results = []
    for delta, got in outputs["oracle"].items():
        if "error" in got:
            results.append({"op": f"oracle {delta}MHz", "ok": False, "detail": got["error"]})
            continue
        dev = max(_relative(got["n_tot_c4"], got["n_tot_c10"]),
                  _relative(got["g2_prime_c4"], got["g2_prime_c10"]))
        results.append({"op": f"oracle {delta}MHz", "ok": _finite(dev) and dev < ORACLE_REL_TOL,
                        "detail": f"worst relative deviation {dev:.3e}"})
    reference = json.loads(REFERENCE_FILE.read_text())
    delta = inputs["g2tau_delta_mhz"]
    curve = outputs["g2tau"]
    ref = reference["curves"][repr(float(delta))]
    if isinstance(curve, dict):
        ok, detail = False, curve["error"]
    elif len(curve) != len(ref) or not _finite(*curve):
        ok, detail = False, f"{len(curve)} samples, finite={_finite(*curve)}"
    else:
        err = max(abs(a - b) for a, b in zip(curve, ref))
        ok, detail = err <= reference["abs_tol"], f"max |g2 - reference| {err:.3e}"
    results.append({"op": f"g2tau {delta}MHz", "ok": ok, "detail": detail})
    return results
