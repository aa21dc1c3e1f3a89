"""Device configuration: YAML ingestion, validation, unit conversion.

Files carry linear frequencies in MHz and times in ns, and so do the
``*_MHz`` and ``*_ns`` fields; callers convert with MHZ (to rad/s) and
NS (to s), as QubitConfig.floquet_params() does.  Validation errors
name the offending field by its path (e.g. ``scenario.dt_ns``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .floquet import FloquetParams

__all__ = [
    "ConfigError",
    "QubitConfig",
    "WignerGridConfig",
    "ScenarioConfig",
    "DeviceConfig",
    "load_config",
    "MHZ",
    "NS",
]

MHZ = 2.0 * math.pi * 1e6  # linear MHz -> angular rad/s
NS = 1e-9


class ConfigError(ValueError):
    """Invalid configuration; message names the field path."""


@dataclass(frozen=True)
class QubitConfig:
    name: str
    xi_MHz: float
    eps_MHz: float
    nu_MHz: float
    delta_MHz: float = 0.0
    K_MHz: float = 0.0

    def floquet_params(self) -> FloquetParams:
        keys = ("xi", "eps", "nu", "delta", "K")
        return FloquetParams(**{k: getattr(self, f"{k}_MHz") * MHZ for k in keys}, name=self.name)


@dataclass(frozen=True)
class WignerGridConfig:
    re_min: float = -1.5
    re_max: float = 4.5
    re_points: int = 121
    im_min: float = -2.5
    im_max: float = 2.5
    im_points: int = 101

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.re_min, self.re_max, self.re_points),
            np.linspace(self.im_min, self.im_max, self.im_points),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    alpha: float = 3.3
    n_qubits: int = 1
    t_max_ns: float = 80.0
    dt_ns: float = 0.2
    wigner_grid: WignerGridConfig = field(default_factory=WignerGridConfig)


@dataclass(frozen=True)
class DeviceConfig:
    omega_s_MHz: float
    cutoff: int
    qubits: tuple[QubitConfig, ...]
    scenario: ScenarioConfig
    ancilla_xi_MHz: float = 19.8


def _need(mapping, key, path, kind):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = mapping[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
        if key.endswith("_MHz") and not math.isfinite(value * MHZ):
            raise ConfigError(f"{path}.{key}: {value!r} MHz is past the float range in rad/s")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


_KINDS = {"float": float, "int": int, "str": str}


def _fields(cls, mapping, path) -> dict:
    """Constructor arguments for the scalar fields of dataclass `cls`.

    Each is read from `mapping` and checked against the field's type.
    A field with a default is passed only when the mapping holds it, so
    the dataclass keeps the one copy of every default.
    """
    return {
        f.name: _need(mapping, f.name, path, _KINDS[f.type])
        for f in dataclasses.fields(cls)
        if f.type in _KINDS and (f.name in mapping or f.default is dataclasses.MISSING)
    }


def parse_config(data: dict) -> DeviceConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root: expected a mapping")
    res = data.get("resonator")
    if not isinstance(res, dict):
        raise ConfigError("resonator: missing required section")
    omega_s = _need(res, "omega_s_MHz", "resonator", float)
    cutoff = _need(res, "cutoff", "resonator", int)
    if cutoff < 2:
        raise ConfigError("resonator.cutoff: must be at least 2")

    raw_qubits = data.get("qubits")
    if not isinstance(raw_qubits, list) or not raw_qubits:
        raise ConfigError("qubits: expected a nonempty list")
    qubits = []
    for i, q in enumerate(raw_qubits):
        path = f"qubits[{i}]"
        if not isinstance(q, dict):
            raise ConfigError(f"{path}: expected a mapping")
        qc = QubitConfig(**_fields(QubitConfig, q, path))
        if qc.nu_MHz <= 0:
            raise ConfigError(f"{path}.nu_MHz: must be positive")
        qubits.append(qc)

    sc = data.get("scenario", {})
    if not isinstance(sc, dict):
        raise ConfigError("scenario: expected a mapping")
    wg_raw = sc.get("wigner_grid", {})
    if not isinstance(wg_raw, dict):
        raise ConfigError("scenario.wigner_grid: expected a mapping")
    wg = WignerGridConfig(**_fields(WignerGridConfig, wg_raw, "scenario.wigner_grid"))
    if wg.re_points < 1 or wg.im_points < 1:
        raise ConfigError("scenario.wigner_grid: point counts must be positive")
    for axis in ("re", "im"):
        lo, hi, points = (getattr(wg, f"{axis}_{end}") for end in ("min", "max", "points"))
        if points > 1 and lo >= hi:
            raise ConfigError(f"scenario.wigner_grid: {axis}_min {lo!r} >= {axis}_max {hi!r}")
    scenario = ScenarioConfig(wigner_grid=wg, **_fields(ScenarioConfig, sc, "scenario"))
    # <n> = alpha^2; a float ** 2 past the range raises, a product gives inf
    if not math.isfinite(scenario.alpha * scenario.alpha):
        raise ConfigError(f"scenario.alpha: {scenario.alpha!r} squared is past the float range")
    if scenario.dt_ns <= 0:
        raise ConfigError("scenario.dt_ns: must be positive")
    if scenario.t_max_ns <= 0:
        raise ConfigError("scenario.t_max_ns: must be positive")
    if not 1 <= scenario.n_qubits <= len(qubits):
        raise ConfigError(
            f"scenario.n_qubits: must be between 1 and the {len(qubits)} configured qubits"
        )

    anc = data.get("ancilla")
    if anc is not None and not isinstance(anc, dict):
        raise ConfigError("ancilla: expected a mapping")
    ancilla = {}
    if anc and "xi_MHz" in anc:
        ancilla["ancilla_xi_MHz"] = _need(anc, "xi_MHz", "ancilla", float)

    cfg = DeviceConfig(omega_s, cutoff, tuple(qubits), scenario, **ancilla)
    if cfg.ancilla_xi_MHz <= 0:
        raise ConfigError("ancilla.xi_MHz: must be positive")
    return cfg


def load_config(path: str) -> DeviceConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        raise ConfigError(f"config file: {exc}") from exc
    try:
        # libyaml's loader when PyYAML was built with it (about ten times
        # faster on device.yaml); the same safe constructors either way
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config root: not valid YAML ({exc})") from exc
    return parse_config(data)
