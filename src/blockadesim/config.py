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
                     squid_inductance, zero_smallest_elements)
from .gaussian import GaussianState
from .measurement import CalibrationConstants

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
TEMPERATURE = {"K": 1.0, "mK": 1e-3}
TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
DIMENSIONLESS = {"dimensionless": 1.0}
COUNT = {"count": 1.0}

KIND_UNITS = {
    "angular": ANGULAR,
    "inductance": INDUCTANCE,
    "temperature": TEMPERATURE,
    "time": TIME,
    "dimensionless": DIMENSIONLESS,
    "count": COUNT,
    "power_dbm": {"dBm": 1.0},
}

# the accepted spellings of a yes/no value, compared lower-cased
BOOLEANS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}
# each flux point is checked at load and written as a row by `device`; the
# packaged grid has 941
FLUX_GRID_MAX_POINTS = 10_000


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


def _parse_chain(text: str) -> tuple[tuple[float, float], ...]:
    """Stages like '20 dB @ 4 K | 20 dB @ 0.8 K'; a malformed stage is a ValueError."""
    stages = []
    for part in text.split("|"):
        att, temp = (side.split() for side in part.partition("@")[::2])
        if len(att) != 2 or att[1] != "dB" or len(temp) != 2 or temp[1] not in TEMPERATURE:
            raise ValueError(f"chain stage '{part.strip()}' must be '<x> dB @ <T> K' (or mK)")
        db, kelvin = float(att[0]), float(temp[0]) * TEMPERATURE[temp[1]]
        if not (math.isfinite(db) and math.isfinite(kelvin)):
            raise ValueError(f"chain stage '{part.strip()}' must have finite numbers")
        stages.append((10.0 ** (-db / 10.0), kelvin))
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

    @property
    def coupling(self) -> CouplingMatrix:
        """The coupling matrix the model uses: B, with its four smallest
        entries zeroed unless simplify_B is off."""
        return CouplingMatrix(zero_smallest_elements(self.B) if self.simplify_B else self.B,
                              self.omega_0)


@dataclass(frozen=True)
class SystemConfig:
    J: float
    U: float
    eta_a: float
    eta_b: float


@dataclass(frozen=True)
class MeasurementConfig:
    cal: CalibrationConstants
    truth: GaussianState
    packet_size: int
    n_packets: int
    n_th: float


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

    def values(section, key, kind, default=None, count=None, rule=None) -> tuple[float, ...]:
        """The SI values of 'key = <numbers> <unit>', unit-checked against kind, each
        finite and, with a rule (ok, text), ok(*values); else 'must be <text>' at the line."""
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
        si = tuple(v * units[unit] for v in numbers)
        finite = all(map(math.isfinite, si))
        if not finite or (rule is not None and not rule[0](*si)):
            must = rule[1] if finite else "finite"
            raise ConfigError(f"{where} = {entry.text!r} must be {must}")
        return si

    def q(section, key, kind, default=None, rule=None) -> float:
        return values(section, key, kind, None if default is None else (default,), 1, rule)[0]

    def library_call(section, keys, fn, *args):
        """fn(*args); its ValueError or OverflowError is a ConfigError at the given keys."""
        try:
            return fn(*args)
        except (ValueError, OverflowError) as exc:  # the defaults are valid, so a key is given
            # an OverflowError's own text is errno's "Numerical result out of range"
            reason = (exc if isinstance(exc, ValueError)
                      else "must be small enough in magnitude that it converts to a finite number")
            given = [key for key in keys if key in sec.get(section, {})]
            lines = ", ".join(str(sec[section][key].line) for key in given)
            raise ConfigError(f"{name} line{'s' * (len(given) > 1)} {lines}: [{section}] "
                              f"{', '.join(given)}: {reason}") from None

    def whole(minimum):
        return lambda v: float(v).is_integer() and v >= minimum

    def positive_count(section, key, default, minimum=1) -> int:
        return int(q(section, key, "count", default,
                     (whole(minimum), f"a whole number of at least {minimum}")))

    nonnegative = (lambda v: v >= 0, ">= 0")
    positive = (lambda v: v > 0, "> 0")

    def optional(section, key, kind, rule=None) -> float | None:
        return None if lookup(section, key) is None else q(section, key, kind, rule=rule)

    def unit_of(section, key) -> str | None:
        entry = lookup(section, key)
        return None if entry is None else entry.text.split()[-1]

    omega_a = q("device", "omega_a", "angular", rule=positive)
    omega_0 = q("device", "omega_0", "angular", omega_a, positive)
    L_s0 = q("device", "L_s0", "inductance", rule=positive)

    port_chains = {}
    n_th_fixed = {}
    for port in range(1, 5):
        chain_key = f"port{port}_chain"
        source_key = f"port{port}_source"
        chain_entry = lookup("device", chain_key)
        if chain_entry is not None:
            temperature = unit_of("device", source_key) in TEMPERATURE
            source = q("device", source_key, "temperature" if temperature else "dimensionless")
            port_chains[port] = library_call("device", (chain_key, source_key), lambda: (
                ThermalChain(_parse_chain(chain_entry.text),
                             bose_einstein(omega_0, source) if temperature else source)))
        else:
            n_th_fixed[port] = q("device", f"n_th_port{port}", "dimensionless", 0.0, nonnegative)

    simplify_entry = lookup("device", "simplify_B") or Entry("yes", 0)
    if simplify_entry.text.lower() not in BOOLEANS:
        raise ConfigError(f"{name} line {simplify_entry.line}: [device] simplify_B = "
                          f"{simplify_entry.text!r} is not one of yes/no/true/false/1/0")

    flux_ratio = q("device", "flux_ratio", "dimensionless")
    library_call("device", ("flux_ratio",), squid_inductance, flux_ratio, L_s0)
    flux_start, flux_stop, flux_points = values(
        "device", "flux_grid", "dimensionless", (0.0, 0.49, 99), 3,
        (lambda start, stop, points: whole(0)(points) and points <= FLUX_GRID_MAX_POINTS,
         f"start, stop and a whole point count from 0 to {FLUX_GRID_MAX_POINTS}"))
    grid = np.linspace(flux_start, flux_stop, int(flux_points)).tolist()
    library_call("device", ("flux_grid",), lambda: [squid_inductance(phi, L_s0) for phi in grid])

    device = DeviceConfig(
        L=q("device", "L", "inductance", rule=positive),
        L_s0=L_s0,
        omega_a=omega_a,
        flux_ratio=flux_ratio,
        omega_0=omega_0,
        B=np.array([values("device", row, "dimensionless", count=4)
                    for row in ("B_row1", "B_row2")]),
        simplify_B=BOOLEANS[simplify_entry.text.lower()],
        kappa_a=q("device", "kappa_a", "angular", rule=positive),
        kappa_b=q("device", "kappa_b", "angular", rule=positive),
        port_chains=port_chains,
        n_th_ports_fixed=n_th_fixed,
        n_th_box=q("device", "n_th_box", "dimensionless", 0.0, nonnegative),
        flux_grid=(flux_start, flux_stop, int(flux_points)),
    )

    def eta_from_dbm(dbm):
        # incident power through the port-1 chain: |eta|^2 = gamma_1 P / (hbar omega_0);
        # the absolute calibration is approximate, fits usually rescale eta anyway
        power = 1e-3 * 10.0 ** (dbm / 10.0)
        # Python floats, so an overflow is a silent inf rather than numpy's RuntimeWarning
        gamma = float(port_rates(device.coupling)[0].gamma)
        eta = math.sqrt(gamma * power / (HBAR * device.omega_0))
        if not math.isfinite(eta):
            raise OverflowError
        return eta

    system = SystemConfig(
        J=q("system", "J", "angular"),
        U=q("system", "U", "angular"),
        eta_a=library_call("system", ("eta_a",), eta_from_dbm, q("system", "eta_a", "power_dbm"))
        if unit_of("system", "eta_a") == "dBm" else q("system", "eta_a", "angular"),
        eta_b=q("system", "eta_b", "angular", default=0.0),
    )

    cal_keys = ("G_X", "G_Y", "epsilon", "n_h")
    truth_keys = ("truth_alpha_re", "truth_alpha_im", "truth_n", "truth_s_re", "truth_s_im")
    measurement = MeasurementConfig(
        cal=library_call("measurement", cal_keys, CalibrationConstants,
                    *(q("measurement", key, "dimensionless", default)
                      for key, default in zip(cal_keys, (1.0, 1.0, 0.0, 12.5)))),
        truth=library_call("measurement", truth_keys, GaussianState(
            complex(q("measurement", "truth_alpha_re", "dimensionless", default=0.1),
                    q("measurement", "truth_alpha_im", "dimensionless", default=0.0)),
            q("measurement", "truth_n", "dimensionless", default=1e-3),
            complex(q("measurement", "truth_s_re", "dimensionless", default=0.0),
                    q("measurement", "truth_s_im", "dimensionless", default=0.0))
        ).assert_physical),
        packet_size=positive_count("measurement", "packet_size", default=1_000_000),
        n_packets=positive_count("measurement", "n_packets", default=25),
        n_th=q("measurement", "n_th", "dimensionless", 7.8e-4, nonnegative),
    )

    sweep = SweepConfig(
        delta_a_start=q("sweep", "delta_a_start", "angular", default=-2 * math.pi * 20e6),
        delta_a_stop=q("sweep", "delta_a_stop", "angular", default=2 * math.pi * 20e6),
        # an empty sweep is valid: g2-sweep then writes the header alone
        delta_a_points=positive_count("sweep", "delta_a_points", default=81, minimum=0),
        delta_diff_start=q("sweep", "delta_diff_start", "angular", default=-2 * math.pi * 6e6),
        delta_diff_stop=q("sweep", "delta_diff_stop", "angular", default=2 * math.pi * 6e6),
        delta_diff_points=positive_count("sweep", "delta_diff_points", default=13),
        eta_values=values("sweep", "eta_values", "angular", default=()),
        eta_fit_target=optional("sweep", "eta_fit_target", "dimensionless", positive),
        tau_stop=q("sweep", "tau_stop", "time", 200e-9, positive),
        # dominant_period needs at least 8 samples
        tau_points=positive_count("sweep", "tau_points", default=401, minimum=8),
        g2tau_detunings=values("sweep", "g2tau_detunings", "angular", default=()),
        g2tau_eta=optional("sweep", "g2tau_eta", "angular"),
        cutoff=positive_count("sweep", "cutoff", default=4, minimum=2),
    )

    for (section, key), entry in unread.items():
        log.warning("%s line %d: [%s] %s is not a known key and is ignored",
                    name, entry.line, section, key)
    return RunConfig(device=device, system=system, measurement=measurement,
                     sweep=sweep, source=name)
