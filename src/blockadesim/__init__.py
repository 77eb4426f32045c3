"""Coupled Kerr-resonator photon blockade toolkit.

Subpackages: device (circuit-level parameters), hilbert (truncated Fock
operators as dense arrays), lindblad (master equation and correlators), gaussian (g2 from
Gaussian parameters), measurement (synthetic quadrature pipeline), sweep
(scans and optimization), cli/config (front end).
"""

__version__ = "0.1.0"
