"""Regenerate g2tau_reference.json, the stored g2(tau) curves the oracle workload checks.

Run from the repository root:  PYTHONPATH=src python3 bench/make_reference.py

Only regenerate when a change is meant to move the g2(tau) curves, and
record the old and new values in CHANGES.md.
"""

import json

import workloads

ABS_TOL = 1e-6   # on g2(tau), which is of order 1


def main():
    curves = {repr(float(d)): workloads.g2tau_curve(d) for d in workloads.G2TAU_DETUNINGS_MHZ}
    payload = {"abs_tol": ABS_TOL, "cutoff": workloads.G2TAU_CUTOFF,
               "eta_mhz": workloads.G2TAU_ETA_MHZ, "tau_s": list(workloads.G2TAU_TAU),
               "curves": curves}
    workloads.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
