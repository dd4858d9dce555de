"""Strict JSON run configuration.

Unknown keys are fatal: a typo in a rate name must never silently fall back
to a default.  Each section maps onto the corresponding model dataclasses;
commands pull only the sections they need and complain about missing ones
by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .dynamics import (
    TOL_FLOOR,
    DecayRates,
    DephasingModel,
    PulseDrive,
    default_t_span,
    omega0_for_area,
)


class ConfigError(ValueError):
    """Invalid or unknown configuration content; message names the key."""


def _check_keys(section: str, data: dict, allowed: set[str],
                required: set[str] = frozenset()) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be an object")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {', '.join(unknown)}")
    missing = sorted(required - set(data))
    if missing:
        raise ConfigError(f"missing key(s) in '{section}': {', '.join(missing)}")


def _value(name: str, v, minimum=None, maximum=None) -> float:
    """A finite number within [minimum, maximum]; ``name`` is the full key."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{name}' must be a number, got {v!r}")
    if not math.isfinite(v):
        raise ConfigError(f"'{name}' must be finite, got {v}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"'{name}' must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"'{name}' must be <= {maximum}, got {v}")
    return float(v)


def _number(section: str, data: dict, key: str, default=None,
            minimum=None, maximum=None, allow_none=False):
    if key not in data or data[key] is None:
        if default is None and not allow_none:
            raise ConfigError(f"'{section}.{key}' is required")
        return default
    return _value(f"{section}.{key}", data[key], minimum, maximum)


def _integer(name: str, v, minimum=None, maximum=None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{name}' must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"'{name}' must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"'{name}' must be <= {maximum}, got {v}")
    return v


def _grid(section: str, spec: Any, min_points: int = 1) -> np.ndarray:
    """Either an explicit list of at least ``min_points`` or
    {start, stop, num}; strictly increasing and >= 0."""
    if isinstance(spec, list):
        if len(spec) < min_points:
            raise ConfigError(
                f"'{section}' needs at least {min_points} point(s)")
        grid = np.array([_value(f"{section}[{i}]", v, minimum=0.0)
                         for i, v in enumerate(spec)])
    elif isinstance(spec, dict):
        _check_keys(section, spec, {"start", "stop", "num"},
                    {"start", "stop", "num"})
        num = _integer(f"{section}.num", spec["num"], minimum=2)
        grid = np.linspace(_number(section, spec, "start", minimum=0.0),
                           _number(section, spec, "stop", minimum=0.0), num)
    else:
        raise ConfigError(
            f"'{section}' must be a list or a start/stop/num object")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"'{section}' must be strictly increasing")
    return grid


@dataclass
class DotConfig:
    gamma_x: float = 0.002
    gamma_b: float = 0.004
    delta_x: float = 0.5
    delta_b: float = 0.0

    @classmethod
    def parse(cls, data: dict) -> "DotConfig":
        _check_keys("dot", data, {"gamma_x", "gamma_b", "delta_x", "delta_b"})
        return cls(
            gamma_x=_number("dot", data, "gamma_x", cls.gamma_x, minimum=0.0),
            gamma_b=_number("dot", data, "gamma_b", cls.gamma_b, minimum=0.0),
            delta_x=_number("dot", data, "delta_x", cls.delta_x),
            delta_b=_number("dot", data, "delta_b", cls.delta_b))

    def decay(self) -> DecayRates:
        return DecayRates(gamma_b=self.gamma_b, gamma_x=self.gamma_x)


@dataclass
class PulseConfig:
    sigma: float
    t0: float = 0.0
    area: float | None = None
    omega0: float | None = None

    @classmethod
    def parse(cls, data: dict) -> "PulseConfig":
        _check_keys("pulse", data, {"sigma", "t0", "area", "omega0"}, {"sigma"})
        cfg = cls(
            sigma=_number("pulse", data, "sigma", minimum=1e-12),
            t0=_number("pulse", data, "t0", 0.0),
            area=_number("pulse", data, "area", minimum=0.0, allow_none=True),
            omega0=_number("pulse", data, "omega0", minimum=0.0,
                           allow_none=True))
        if cfg.area is not None and cfg.omega0 is not None:
            raise ConfigError("'pulse' must set either 'area' or 'omega0', not both")
        return cfg

    def drive(self, dot: DotConfig) -> PulseDrive:
        if self.omega0 is not None:
            omega0 = self.omega0
        elif self.area is not None:
            omega0 = omega0_for_area(self.area, self.sigma)
        else:
            raise ConfigError("'pulse' needs 'area' or 'omega0' for this command")
        return PulseDrive(omega0=omega0, sigma=self.sigma, t0=self.t0,
                          delta_x=dot.delta_x, delta_b=dot.delta_b)


def parse_dephasing(data: dict, section: str = "dephasing") -> DephasingModel:
    _check_keys(section, data, {"gamma_bg", "gamma_i0", "n_p"})
    return DephasingModel(
        gamma_bg=_number(section, data, "gamma_bg", 0.0, minimum=0.0),
        gamma_i0=_number(section, data, "gamma_i0", 0.0, minimum=0.0),
        n_p=_integer(f"{section}.n_p", data.get("n_p", 2), minimum=0))


@dataclass
class TimebinConfig:
    phi_p: float = 0.0
    epsilon: float = 0.0
    pairing_weight: float = 4.0
    v_coh: float | None = None  # None: calibrate from the pulse dynamics

    @classmethod
    def parse(cls, data: dict) -> "TimebinConfig":
        _check_keys("timebin", data,
                    {"phi_p", "epsilon", "pairing_weight", "v_coh"})
        return cls(
            phi_p=_number("timebin", data, "phi_p", 0.0),
            epsilon=_number("timebin", data, "epsilon", 0.0, minimum=0.0,
                            maximum=1.0),
            pairing_weight=_number("timebin", data, "pairing_weight", 4.0,
                                   minimum=1e-12),
            v_coh=_number("timebin", data, "v_coh", minimum=0.0, maximum=1.0,
                          allow_none=True))


@dataclass
class TomographyConfig:
    n_mean: float = 1e5
    seed: int = 1
    n_seeds: int = 1

    @classmethod
    def parse(cls, data: dict) -> "TomographyConfig":
        _check_keys("tomography", data, {"n_mean", "seed", "n_seeds"})
        return cls(n_mean=_number("tomography", data, "n_mean", 1e5,
                                  minimum=1e-9),
                   seed=_integer("tomography.seed", data.get("seed", 1)),
                   n_seeds=_integer("tomography.n_seeds",
                                    data.get("n_seeds", 1), minimum=1))


@dataclass
class SweepConfig:
    areas: np.ndarray | None = None
    energies: np.ndarray | None = None
    sigmas: list[float] = field(default_factory=list)
    models: list[DephasingModel] = field(default_factory=list)
    fit_n_p: int | None = None
    fit_target_ratio: float | None = None

    @classmethod
    def parse(cls, data: dict) -> "SweepConfig":
        _check_keys("sweep", data,
                    {"areas", "energies", "sigmas", "models", "fit"})
        cfg = cls()
        if "areas" in data:
            cfg.areas = _grid("sweep.areas", data["areas"], min_points=2)
        if "energies" in data:
            cfg.energies = _grid("sweep.energies", data["energies"])
        if "sigmas" in data:
            if not isinstance(data["sigmas"], list) or not data["sigmas"]:
                raise ConfigError("'sweep.sigmas' must be a non-empty list")
            cfg.sigmas = [_value(f"sweep.sigmas[{i}]", s, minimum=1e-12)
                          for i, s in enumerate(data["sigmas"])]
        if "models" in data:
            if not isinstance(data["models"], list) or not data["models"]:
                raise ConfigError("'sweep.models' must be a non-empty list")
            cfg.models = [parse_dephasing(m, f"sweep.models[{i}]")
                          for i, m in enumerate(data["models"])]
        if "fit" in data:
            _check_keys("sweep.fit", data["fit"], {"n_p", "target_ratio"},
                        {"n_p", "target_ratio"})
            cfg.fit_n_p = _integer("sweep.fit.n_p", data["fit"]["n_p"],
                                   minimum=0, maximum=4)
            cfg.fit_target_ratio = _number("sweep.fit", data["fit"],
                                           "target_ratio")
            if cfg.fit_target_ratio <= 1.0:
                raise ConfigError("'sweep.fit.target_ratio' must exceed 1, "
                                  f"got {cfg.fit_target_ratio}")
        return cfg


@dataclass
class NumericsConfig:
    tol: float = 1e-8
    t_span: tuple[float, float] | None = None
    max_step: float | None = None

    @classmethod
    def parse(cls, data: dict) -> "NumericsConfig":
        _check_keys("numerics", data, {"tol", "t_span", "max_step"})
        span = data.get("t_span")
        if span is not None:
            if not isinstance(span, list) or len(span) != 2:
                raise ConfigError("'numerics.t_span' must be [t0, t1] with t1 > t0")
            span = tuple(_value(f"numerics.t_span[{i}]", t)
                         for i, t in enumerate(span))
            if span[1] <= span[0]:
                raise ConfigError("'numerics.t_span' must be [t0, t1] with t1 > t0")
        return cls(tol=_number("numerics", data, "tol", 1e-8,
                               minimum=TOL_FLOOR, maximum=1e-3),
                   t_span=span,
                   max_step=_number("numerics", data, "max_step",
                                    minimum=1e-12, allow_none=True))


_SECTIONS = {"dot", "pulse", "dephasing", "timebin", "tomography", "sweep",
             "numerics"}


def _check_resolution(key: str, sigma: float, t0: float,
                      rates: list[tuple[str, float]]) -> None:
    """Floats near a pulse, spacing(|t0| + 5 sigma), must be at most 1e-3 of
    its time scale tau: sigma, or 1/rate for the fastest of ``rates``
    ((key, rate) pairs) when that is shorter.  Raise ConfigError naming
    ``key``, or 'pulse.t0' when 5 sigma alone is resolved, and the key
    that sets tau when it is not sigma."""
    rate_key, rate = max(rates, key=lambda kr: kr[1])
    by_rate = sigma * rate > 1.0
    tau = 1.0 / rate if by_rate else sigma
    spacing = np.spacing(abs(t0) + 5.0 * sigma)
    if not spacing <= 1e-3 * tau:  # NaN when 5 sigma overflows
        if np.spacing(5.0 * sigma) <= 1e-3 * tau:
            key = "pulse.t0"
        scale = f", set by '{rate_key}'" if by_rate else ""
        raise ConfigError(
            f"'{key}': floats near the pulse are {spacing:.3g} ps apart, "
            f"over 1e-3 of its time scale {tau:.3g} ps{scale}")


@dataclass
class RunConfig:
    raw: dict
    dot: DotConfig
    pulse: PulseConfig | None
    dephasing: DephasingModel | None
    timebin: TimebinConfig
    tomography: TomographyConfig
    sweep: SweepConfig
    numerics: NumericsConfig

    @classmethod
    def parse(cls, data: dict) -> "RunConfig":
        _check_keys("<root>", data, _SECTIONS)
        cfg = cls(
            raw=data,
            dot=DotConfig.parse(data.get("dot", {})),
            pulse=PulseConfig.parse(data["pulse"]) if "pulse" in data else None,
            dephasing=(parse_dephasing(data["dephasing"])
                       if "dephasing" in data else None),
            timebin=TimebinConfig.parse(data.get("timebin", {})),
            tomography=TomographyConfig.parse(data.get("tomography", {})),
            sweep=SweepConfig.parse(data.get("sweep", {})),
            numerics=NumericsConfig.parse(data.get("numerics", {})))
        # Every rate and detuning, with its key; a dephasing model counts
        # with its zero-drive rate.
        rates = [(f"dot.{k}", abs(getattr(cfg.dot, k)))
                 for k in ("gamma_x", "gamma_b", "delta_x", "delta_b")]
        models = [("dephasing", cfg.dephasing)] if cfg.dephasing else []
        models += [(f"sweep.models[{i}]", m)
                   for i, m in enumerate(cfg.sweep.models)]
        with np.errstate(over="ignore"):
            rates += [(f"{k}.gamma_bg" if m.n_p else
                       f"{k}.gamma_bg + {k}.gamma_i0", float(m.rate(0.0)))
                      for k, m in models]
        pulses = [(f"sweep.sigmas[{i}]", sigma, 0.0)
                  for i, sigma in enumerate(cfg.sweep.sigmas)]
        if cfg.pulse is not None:
            pulses.insert(0, ("pulse.sigma", cfg.pulse.sigma, cfg.pulse.t0))
        for key, sigma, t0 in pulses:
            _check_resolution(key, sigma, t0, rates)
        return cfg

    def require(self, *sections: str) -> None:
        for s in sections:
            if s not in self.raw:
                raise ConfigError(f"command requires config section '{s}'")

    def t_span(self, drive: PulseDrive) -> tuple[float, float]:
        """'numerics.t_span', or the default span of the pulse and its decay."""
        if self.numerics.t_span is not None:
            return self.numerics.t_span
        if self.dot.gamma_x <= 0:
            raise ConfigError(
                "'numerics.t_span' is required when 'dot.gamma_x' is 0")
        return default_t_span(drive, self.dot.decay())

    def resolved(self) -> dict:
        """Canonical JSON-ready form embedded in every output header."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return RunConfig.parse(data)
