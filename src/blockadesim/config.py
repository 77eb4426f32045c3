"""Configuration loading: sectioned key-value text with explicit units.

Every dimensioned quantity must carry a unit suffix ("25.1 MHz_over_2pi",
"337 pH", "20 dB @ 4 K"); loading fails with a line-numbered message when
a unit is missing or has the wrong dimension.  Angular frequencies use the
*_over_2pi suffixes (the stored value is 2*pi times the printed number);
attenuations in dB convert to power factors 10^(-dB/10).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import (HBAR, CouplingMatrix, ThermalChain, bose_einstein, port_rates,
                     zero_smallest_elements)

log = logging.getLogger(__name__)

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

# the accepted spellings of a yes/no value, compared lower-cased
BOOLEANS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


class ConfigError(ValueError):
    """Configuration file problem, with file/line context in the message."""


@dataclass(frozen=True)
class Entry:
    """The value text of one 'key = value' line and its line number."""

    text: str
    line: int


def parse_config_text(text: str, name: str = "<config>") -> dict[str, dict[str, Entry]]:
    """Parse the sectioned key-value format into {section: {key: Entry}}.

    A key given twice in one section is an error.
    """
    sections: dict[str, dict[str, Entry]] = {}
    current: dict[str, Entry] | None = None
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
        if key in current:
            raise ConfigError(f"{name} line {lineno}: [{section}] {key} is already given "
                              f"on line {current[key].line}")
        current[key] = Entry(value, lineno)
    return sections


def _parse_chain(text: str, where: str) -> tuple[tuple[float, float], ...]:
    """Stages like '20 dB @ 4 K | 20 dB @ 0.8 K'; where prefixes the error messages."""
    stages = []
    for part in text.split("|"):
        part = part.strip()
        if "@" not in part:
            raise ConfigError(f"{where}: chain stage '{part}' needs 'dB @ temperature'")
        att_txt, temp_txt = (s.strip() for s in part.split("@", 1))
        att_tokens = att_txt.split()
        temp_tokens = temp_txt.split()
        if len(att_tokens) != 2 or att_tokens[1] != "dB":
            raise ConfigError(f"{where}: attenuation '{att_txt}' must be '<value> dB'")
        if len(temp_tokens) != 2 or temp_tokens[1] not in TEMPERATURE:
            raise ConfigError(f"{where}: temperature '{temp_txt}' must carry K or mK")
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
    """Build the run configuration; a key that is never read is logged as a WARNING."""
    sec = parse_config_text(text, name)
    unread = {(section, key): e for section, keys in sec.items() for key, e in keys.items()}

    def lookup(section, key) -> Entry | None:
        unread.pop((section, key), None)
        return sec.get(section, {}).get(key)

    def values(section, key, kind, default=None, count=None) -> tuple[float, ...]:
        """The SI values of 'key = <numbers> <unit>', unit-checked against kind."""
        entry = lookup(section, key)
        if entry is None:
            if default is not None:
                return default
            raise ConfigError(f"{name}: missing required key '{key}' in [{section}]")
        units = KIND_UNITS[kind]
        where = f"{name} line {entry.line}: [{section}] {key}"
        *tokens, unit = entry.text.split()
        try:
            numbers = [float(tok) for tok in tokens]
        except ValueError:
            numbers = []
        if not numbers:
            raise ConfigError(f"{where} = {entry.text!r} is not numbers with a unit suffix; "
                              f"expected a {kind} unit (one of {sorted(units)})")
        if unit not in units:
            raise ConfigError(f"{where}: unit '{unit}' is not a {kind} unit "
                              f"(expected one of {sorted(units)})")
        if count is not None and len(numbers) != count:
            raise ConfigError(f"{where} needs {count} value(s), got {len(numbers)}")
        return tuple(v * units[unit] for v in numbers)

    def q(section, key, kind, default=None) -> float:
        return values(section, key, kind, None if default is None else (default,), count=1)[0]

    def unit_of(section, key) -> str | None:
        entry = lookup(section, key)
        return None if entry is None else entry.text.split()[-1]

    omega_a = q("device", "omega_a", "angular")
    omega_0 = q("device", "omega_0", "angular", default=omega_a)

    port_chains = {}
    n_th_fixed = {}
    for port in range(1, 5):
        chain_key = f"port{port}_chain"
        source_key = f"port{port}_source"
        fixed_key = f"n_th_port{port}"
        chain_entry = lookup("device", chain_key)
        if chain_entry is not None:
            stages = _parse_chain(chain_entry.text,
                                  f"{name} line {chain_entry.line}: [device] {chain_key}")
            if lookup("device", source_key) is None:
                raise ConfigError(f"{name}: [{chain_key}] given without {source_key}")
            if unit_of("device", source_key) in TEMPERATURE:
                n0 = bose_einstein(omega_0, q("device", source_key, "temperature"))
            else:
                n0 = q("device", source_key, "dimensionless")
            port_chains[port] = ThermalChain(stages, n0)
        elif lookup("device", fixed_key) is not None:
            n_th_fixed[port] = q("device", fixed_key, "dimensionless")
        else:
            n_th_fixed[port] = 0.0

    simplify_entry = lookup("device", "simplify_B") or Entry("yes", 0)
    if simplify_entry.text.lower() not in BOOLEANS:
        raise ConfigError(f"{name} line {simplify_entry.line}: [device] simplify_B = "
                          f"{simplify_entry.text!r} is not one of yes/no/true/false/1/0")

    flux_start, flux_stop, flux_points = values("device", "flux_grid", "dimensionless",
                                                default=(0.0, 0.49, 99), count=3)

    device = DeviceConfig(
        L=q("device", "L", "inductance"),
        L_s0=q("device", "L_s0", "inductance"),
        omega_a=omega_a,
        flux_ratio=q("device", "flux_ratio", "dimensionless"),
        omega_0=omega_0,
        B=np.array([values("device", row, "dimensionless", count=4)
                    for row in ("B_row1", "B_row2")]),
        simplify_B=BOOLEANS[simplify_entry.text.lower()],
        kappa_a=q("device", "kappa_a", "angular"),
        kappa_b=q("device", "kappa_b", "angular"),
        port_chains=port_chains,
        n_th_ports_fixed=n_th_fixed,
        n_th_box=q("device", "n_th_box", "dimensionless", default=0.0),
        flux_grid=(flux_start, flux_stop, int(flux_points)),
    )

    if unit_of("system", "eta_a") == "dBm":
        # incident power through the port-1 chain: |eta|^2 = gamma_1 P / (hbar omega_0);
        # the absolute calibration is approximate, fits usually rescale eta anyway
        b_eff = zero_smallest_elements(device.B) if device.simplify_B else device.B
        gamma1 = port_rates(CouplingMatrix(b_eff, device.omega_0))[0].gamma
        power = 1e-3 * 10.0 ** (q("system", "eta_a", "power_dbm") / 10.0)
        eta_a = math.sqrt(gamma1 * power / (HBAR * device.omega_0))
    else:
        eta_a = q("system", "eta_a", "angular")

    system = SystemConfig(
        J=q("system", "J", "angular"),
        U=q("system", "U", "angular"),
        eta_a=eta_a,
        eta_b=q("system", "eta_b", "angular", default=0.0),
    )

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

    sweep = SweepConfig(
        delta_a_start=q("sweep", "delta_a_start", "angular", default=-2 * math.pi * 20e6),
        delta_a_stop=q("sweep", "delta_a_stop", "angular", default=2 * math.pi * 20e6),
        delta_a_points=int(q("sweep", "delta_a_points", "count", default=81)),
        delta_diff_start=q("sweep", "delta_diff_start", "angular", default=-2 * math.pi * 6e6),
        delta_diff_stop=q("sweep", "delta_diff_stop", "angular", default=2 * math.pi * 6e6),
        delta_diff_points=int(q("sweep", "delta_diff_points", "count", default=13)),
        eta_values=values("sweep", "eta_values", "angular", default=()),
        eta_fit_target=(q("sweep", "eta_fit_target", "dimensionless")
                        if lookup("sweep", "eta_fit_target") is not None else None),
        tau_stop=q("sweep", "tau_stop", "time", default=200e-9),
        tau_points=int(q("sweep", "tau_points", "count", default=401)),
        g2tau_detunings=values("sweep", "g2tau_detunings", "angular", default=()),
        g2tau_eta=(q("sweep", "g2tau_eta", "angular")
                   if lookup("sweep", "g2tau_eta") is not None else None),
        cutoff=int(q("sweep", "cutoff", "count", default=4)),
    )

    for (section, key), entry in unread.items():
        log.warning("%s line %d: [%s] %s is not a known key and is ignored",
                    name, entry.line, section, key)
    return RunConfig(device=device, system=system, measurement=measurement,
                     sweep=sweep, source=name)
