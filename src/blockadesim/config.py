"""Configuration loading: sectioned key-value text with explicit units.

Every dimensioned quantity must carry a unit suffix ("25.1 MHz_over_2pi",
"337 pH", "20 dB @ 4 K"); loading fails with a line-numbered message when
a unit is missing or has the wrong dimension.  Angular frequencies use the
*_over_2pi suffixes (the stored value is 2*pi times the printed number);
attenuations in dB convert to power factors 10^(-dB/10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import (HBAR, CouplingMatrix, ThermalChain, bose_einstein, port_rates,
                     zero_smallest_elements)

# unit token -> (kind, scale to SI)
ANGULAR = {
    "rad_per_s": 1.0,
    "Hz_over_2pi": 2.0 * math.pi,
    "kHz_over_2pi": 2.0 * math.pi * 1e3,
    "MHz_over_2pi": 2.0 * math.pi * 1e6,
    "GHz_over_2pi": 2.0 * math.pi * 1e9,
}
INDUCTANCE = {"H": 1.0, "mH": 1e-3, "uH": 1e-6, "nH": 1e-9, "pH": 1e-12}
CAPACITANCE = {"F": 1.0, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12, "fF": 1e-15}
TEMPERATURE = {"K": 1.0, "mK": 1e-3}
TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
DIMENSIONLESS = {"dimensionless": 1.0}
COUNT = {"count": 1.0}

KIND_UNITS = {
    "angular": ANGULAR,
    "inductance": INDUCTANCE,
    "capacitance": CAPACITANCE,
    "temperature": TEMPERATURE,
    "time": TIME,
    "dimensionless": DIMENSIONLESS,
    "count": COUNT,
    "power_dbm": {"dBm": 1.0},
}


class ConfigError(ValueError):
    """Configuration file problem, with file/line context in the message."""


@dataclass(frozen=True)
class Quantity:
    """A parsed numeric value (or list) with its source location."""

    values: tuple[float, ...]
    unit: str
    line: int

    @property
    def value(self) -> float:
        if len(self.values) != 1:
            raise ConfigError(f"line {self.line}: expected a scalar, got {len(self.values)} values")
        return self.values[0]


def _parse_number_list(tokens: list[str], line: int):
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            return None
    return tuple(values)


def parse_config_text(text: str, name: str = "<config>") -> dict[str, dict[str, Quantity | str]]:
    """Parse the sectioned key-value format into {section: {key: Quantity | str}}."""
    sections: dict[str, dict[str, Quantity | str]] = {}
    current: dict[str, Quantity | str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"{name} line {lineno}: empty section name")
            current = sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{name} line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{name} line {lineno}: key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{name} line {lineno}: empty key or value")
        tokens = value.split()
        numbers = _parse_number_list(tokens[:-1], lineno) if len(tokens) >= 2 else None
        if numbers is not None and len(tokens) >= 2:
            current[key] = Quantity(numbers, tokens[-1], lineno)
        else:
            current[key] = value
    return sections


def _require_quantity(sections, section: str, key: str, kind: str,
                      default: float | None = None, name: str = "<config>") -> float:
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if default is not None:
            return default
        raise ConfigError(f"{name}: missing required key '{key}' in [{section}]")
    return _convert(entry, kind, section, key, name)


def _convert(entry, kind: str, section: str, key: str, name: str) -> float:
    if not isinstance(entry, Quantity):
        raise ConfigError(f"{name}: [{section}] {key} = {entry!r} has no unit suffix; "
                          f"expected a {kind} unit")
    units = KIND_UNITS[kind]
    if entry.unit not in units:
        raise ConfigError(
            f"{name} line {entry.line}: [{section}] {key}: unit '{entry.unit}' is not a "
            f"{kind} unit (expected one of {sorted(units)})")
    return entry.value * units[entry.unit]


def _convert_list(entry, kind: str, section: str, key: str, name: str) -> tuple[float, ...]:
    if not isinstance(entry, Quantity):
        raise ConfigError(f"{name}: [{section}] {key} has no unit suffix")
    units = KIND_UNITS[kind]
    if entry.unit not in units:
        raise ConfigError(
            f"{name} line {entry.line}: [{section}] {key}: unit '{entry.unit}' is not a "
            f"{kind} unit (expected one of {sorted(units)})")
    return tuple(v * units[entry.unit] for v in entry.values)


def _parse_chain(text: str, lineno_hint: str, name: str) -> tuple[tuple[float, float], ...]:
    """Stages like '20 dB @ 4 K | 20 dB @ 0.8 K'."""
    stages = []
    for part in text.split("|"):
        part = part.strip()
        if "@" not in part:
            raise ConfigError(f"{name}: {lineno_hint}: chain stage '{part}' needs 'dB @ temperature'")
        att_txt, temp_txt = (s.strip() for s in part.split("@", 1))
        att_tokens = att_txt.split()
        temp_tokens = temp_txt.split()
        if len(att_tokens) != 2 or att_tokens[1] != "dB":
            raise ConfigError(f"{name}: {lineno_hint}: attenuation '{att_txt}' must be '<value> dB'")
        if len(temp_tokens) != 2 or temp_tokens[1] not in TEMPERATURE:
            raise ConfigError(f"{name}: {lineno_hint}: temperature '{temp_txt}' must carry K or mK")
        d = 10.0 ** (-float(att_tokens[0]) / 10.0)
        t = float(temp_tokens[0]) * TEMPERATURE[temp_tokens[1]]
        stages.append((d, t))
    return tuple(stages)


@dataclass(frozen=True)
class DeviceConfig:
    L: float
    L_s0: float
    omega_a: float
    flux_ratio: float
    omega_0: float
    B: np.ndarray
    simplify_B: bool
    kappa_a: float
    kappa_b: float
    port_chains: dict[int, ThermalChain]
    n_th_ports_fixed: dict[int, float]
    n_th_box: float
    flux_grid: tuple[float, float, int]


@dataclass(frozen=True)
class SystemConfig:
    J: float
    U: float
    eta_a: float
    eta_b: float


@dataclass(frozen=True)
class MeasurementConfig:
    n_h: float
    G_X: float
    G_Y: float
    epsilon: float
    packet_size: int
    n_packets: int
    n_th: float
    truth_alpha: complex
    truth_n: float
    truth_s: complex


@dataclass(frozen=True)
class SweepConfig:
    delta_a_start: float
    delta_a_stop: float
    delta_a_points: int
    delta_diff_start: float
    delta_diff_stop: float
    delta_diff_points: int
    eta_values: tuple[float, ...]
    eta_fit_target: float | None
    tau_stop: float
    tau_points: int
    g2tau_detunings: tuple[float, ...]
    g2tau_eta: float | None
    cutoff: int


@dataclass(frozen=True)
class RunConfig:
    device: DeviceConfig
    system: SystemConfig
    measurement: MeasurementConfig
    sweep: SweepConfig
    source: str


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text, str(path))


def parse_run_config(text: str, name: str = "<config>") -> RunConfig:
    sec = parse_config_text(text, name)

    def q(section, key, kind, default=None):
        return _require_quantity(sec, section, key, kind, default, name)

    dev_sec = sec.get("device", {})
    omega_a = q("device", "omega_a", "angular")
    omega_0 = q("device", "omega_0", "angular", default=omega_a)
    b_rows = []
    for row_key in ("B_row1", "B_row2"):
        entry = dev_sec.get(row_key)
        if entry is None:
            raise ConfigError(f"{name}: missing '{row_key}' in [device]")
        row = _convert_list(entry, "dimensionless", "device", row_key, name)
        if len(row) != 4:
            raise ConfigError(f"{name} line {entry.line}: {row_key} needs 4 entries, got {len(row)}")
        b_rows.append(row)

    port_chains = {}
    n_th_fixed = {}
    for port in range(1, 5):
        chain_key = f"port{port}_chain"
        source_key = f"port{port}_source"
        fixed_key = f"n_th_port{port}"
        if chain_key in dev_sec:
            chain_entry = dev_sec[chain_key]
            chain_text = chain_entry if isinstance(chain_entry, str) else " ".join(
                [*map(str, chain_entry.values), chain_entry.unit])
            stages = _parse_chain(chain_text, f"[device] {chain_key}", name)
            source_entry = dev_sec.get(source_key)
            if source_entry is None:
                raise ConfigError(f"{name}: [{chain_key}] given without {source_key}")
            if isinstance(source_entry, Quantity) and source_entry.unit in TEMPERATURE:
                n0 = bose_einstein(omega_0, source_entry.value * TEMPERATURE[source_entry.unit])
            else:
                n0 = _convert(source_entry, "dimensionless", "device", source_key, name)
            port_chains[port] = ThermalChain(stages, n0)
        elif fixed_key in dev_sec:
            n_th_fixed[port] = q("device", fixed_key, "dimensionless")
        else:
            n_th_fixed[port] = 0.0

    simplify = str(dev_sec.get("simplify_B", "yes")).strip().lower() in ("yes", "true", "1")

    flux_entry = dev_sec.get("flux_grid")
    if flux_entry is None:
        flux_grid = (0.0, 0.49, 99)
    else:
        vals = _convert_list(flux_entry, "dimensionless", "device", "flux_grid", name)
        if len(vals) != 3:
            raise ConfigError(f"{name} line {flux_entry.line}: flux_grid needs 'start stop points'")
        flux_grid = (vals[0], vals[1], int(vals[2]))

    device = DeviceConfig(
        L=q("device", "L", "inductance"),
        L_s0=q("device", "L_s0", "inductance"),
        omega_a=omega_a,
        flux_ratio=q("device", "flux_ratio", "dimensionless"),
        omega_0=omega_0,
        B=np.array(b_rows, dtype=float),
        simplify_B=simplify,
        kappa_a=q("device", "kappa_a", "angular"),
        kappa_b=q("device", "kappa_b", "angular"),
        port_chains=port_chains,
        n_th_ports_fixed=n_th_fixed,
        n_th_box=q("device", "n_th_box", "dimensionless", default=0.0),
        flux_grid=flux_grid,
    )

    eta_entry = sec.get("system", {}).get("eta_a")
    if isinstance(eta_entry, Quantity) and eta_entry.unit == "dBm":
        # incident power through the port-1 chain: |eta|^2 = gamma_1 P / (hbar omega_0);
        # the absolute calibration is approximate, fits usually rescale eta anyway
        b_eff = zero_smallest_elements(device.B) if device.simplify_B else device.B
        gamma1 = port_rates(CouplingMatrix(b_eff, device.omega_0))[0].gamma
        power = 1e-3 * 10.0 ** (eta_entry.value / 10.0)
        eta_a = math.sqrt(gamma1 * power / (HBAR * device.omega_0))
    else:
        eta_a = q("system", "eta_a", "angular")

    system = SystemConfig(
        J=q("system", "J", "angular"),
        U=q("system", "U", "angular"),
        eta_a=eta_a,
        eta_b=q("system", "eta_b", "angular", default=0.0),
    )

    meas_sec = sec.get("measurement", {})
    measurement = MeasurementConfig(
        n_h=q("measurement", "n_h", "dimensionless", default=12.5),
        G_X=q("measurement", "G_X", "dimensionless", default=1.0),
        G_Y=q("measurement", "G_Y", "dimensionless", default=1.0),
        epsilon=q("measurement", "epsilon", "dimensionless", default=0.0),
        packet_size=int(q("measurement", "packet_size", "count", default=1_000_000)),
        n_packets=int(q("measurement", "n_packets", "count", default=25)),
        n_th=q("measurement", "n_th", "dimensionless", default=7.8e-4),
        truth_alpha=complex(q("measurement", "truth_alpha_re", "dimensionless", default=0.1),
                            q("measurement", "truth_alpha_im", "dimensionless", default=0.0)),
        truth_n=q("measurement", "truth_n", "dimensionless", default=1e-3),
        truth_s=complex(q("measurement", "truth_s_re", "dimensionless", default=0.0),
                        q("measurement", "truth_s_im", "dimensionless", default=0.0)),
    )

    sweep_sec = sec.get("sweep", {})
    eta_entry = sweep_sec.get("eta_values")
    if eta_entry is None:
        eta_values = ()
    else:
        eta_values = _convert_list(eta_entry, "angular", "sweep", "eta_values", name)

    g2tau_entry = sweep_sec.get("g2tau_detunings")
    if g2tau_entry is None:
        g2tau_detunings = ()
    else:
        g2tau_detunings = _convert_list(g2tau_entry, "angular", "sweep", "g2tau_detunings", name)

    sweep = SweepConfig(
        delta_a_start=q("sweep", "delta_a_start", "angular", default=-2 * math.pi * 20e6),
        delta_a_stop=q("sweep", "delta_a_stop", "angular", default=2 * math.pi * 20e6),
        delta_a_points=int(q("sweep", "delta_a_points", "count", default=81)),
        delta_diff_start=q("sweep", "delta_diff_start", "angular", default=-2 * math.pi * 6e6),
        delta_diff_stop=q("sweep", "delta_diff_stop", "angular", default=2 * math.pi * 6e6),
        delta_diff_points=int(q("sweep", "delta_diff_points", "count", default=13)),
        eta_values=eta_values,
        eta_fit_target=(q("sweep", "eta_fit_target", "dimensionless")
                        if "eta_fit_target" in sweep_sec else None),
        tau_stop=q("sweep", "tau_stop", "time", default=200e-9),
        tau_points=int(q("sweep", "tau_points", "count", default=401)),
        g2tau_detunings=g2tau_detunings,
        g2tau_eta=(q("sweep", "g2tau_eta", "angular")
                   if "g2tau_eta" in sweep_sec else None),
        cutoff=int(q("sweep", "cutoff", "count", default=4)),
    )

    return RunConfig(device=device, system=system, measurement=measurement,
                     sweep=sweep, source=name)
