"""Strict JSON run configuration.

Unknown keys are fatal: a typo in a rate name must never silently fall back
to a default.  The rates of ``dot`` build a ``DecayRates``, ``dephasing``
and each ``sweep.models[i]`` a ``DephasingModel``, ``timebin`` a
``TimeBinModelParams``; these, and ``sweeps.check_fit_target`` for
``sweep.fit``, check the ranges, and their ValueError becomes a ConfigError
naming the key.  What no model holds at parse time keeps its bounds here:
``pulse``, ``sweep.sigmas``, the grids, ``tomography`` and ``numerics``.
Commands pull only the sections they need and complain about missing ones
by name.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .dynamics import (
    PULSE_HALF_WIDTH,
    TOL_FLOOR,
    DecayRates,
    DephasingModel,
    PulseDrive,
    default_t_span,
    omega0_for_area,
)
from .sweeps import check_fit_target
from .timebin import TimeBinModelParams


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
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer literal past the float range
        raise ConfigError(f"'{name}' must be finite, got an integer too "
                          f"large for a float") from None
    if not finite:
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


def _integer(name: str, v, minimum=None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{name}' must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"'{name}' must be >= {minimum}, got {v}")
    return v


@contextlib.contextmanager
def _naming(section: str):
    """A ValueError starting with a field name, as 'section.field'."""
    try:
        yield
    except ValueError as exc:
        name, _, need = str(exc).partition(" ")
        raise ConfigError(f"'{section}.{name}' {need}") from exc


def _model(section: str, data: dict, cls):
    """The dataclass ``cls`` built from section ``data``, whose keys are its
    init fields; a key absent, or null where the default is a float, takes
    the default."""
    params = [f for f in fields(cls) if f.init]
    _check_keys(section, data, {f.name for f in params})
    values = {f.name: _integer(f"{section}.{f.name}",
                               data.get(f.name, f.default))
              if isinstance(f.default, int) else
              _number(section, data, f.name, f.default) for f in params}
    with _naming(section):
        return cls(**values)


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
    decay: DecayRates = field(init=False)  # built from the two rates

    def __post_init__(self):
        self.decay = DecayRates(gamma_b=self.gamma_b, gamma_x=self.gamma_x)


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


# numpy's Poisson sampler refuses a mean above ~9.2e18.
MAX_N_MEAN = 1e18


@dataclass
class TomographyConfig:
    n_mean: float = 1e5
    seed: int = 1
    n_seeds: int = 1

    @classmethod
    def parse(cls, data: dict) -> "TomographyConfig":
        _check_keys("tomography", data, {"n_mean", "seed", "n_seeds"})
        return cls(n_mean=_number("tomography", data, "n_mean", 1e5,
                                  minimum=1e-9, maximum=MAX_N_MEAN),
                   seed=_integer("tomography.seed", data.get("seed", 1),
                                 minimum=0),
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
            # ratio writes the curve of each sigma to ratio_sigma{sigma:g}.csv
            labels = [f"{s:g}" for s in cfg.sigmas]
            for i, label in enumerate(labels):
                j = labels.index(label)
                if j < i:
                    raise ConfigError(
                        f"'sweep.sigmas[{i}]' = {cfg.sigmas[i]!r} prints as "
                        f"{label}, as 'sweep.sigmas[{j}]' does: their ratio "
                        f"curves would share one file")
        if "models" in data:
            if not isinstance(data["models"], list) or not data["models"]:
                raise ConfigError("'sweep.models' must be a non-empty list")
            cfg.models = [_model(f"sweep.models[{i}]", m, DephasingModel)
                          for i, m in enumerate(data["models"])]
        if "fit" in data:
            _check_keys("sweep.fit", data["fit"], {"n_p", "target_ratio"},
                        {"n_p", "target_ratio"})
            cfg.fit_n_p = _integer("sweep.fit.n_p", data["fit"]["n_p"])
            cfg.fit_target_ratio = _number("sweep.fit", data["fit"],
                                           "target_ratio")
            with _naming("sweep.fit"):
                check_fit_target(cfg.fit_n_p, cfg.fit_target_ratio)
        return cfg


@dataclass
class NumericsConfig:
    tol: float = 1e-8
    t_span: tuple[float, float] | None = None

    @classmethod
    def parse(cls, data: dict) -> "NumericsConfig":
        _check_keys("numerics", data, {"tol", "t_span"})
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
                   t_span=span)


_SECTIONS = {"dot", "pulse", "dephasing", "timebin", "tomography", "sweep",
             "numerics"}


def _check_resolution(key: str, sigma: float, t0: float,
                      rates: list[tuple[str, float]]) -> None:
    """Floats near a pulse, spacing(|t0| + w sigma), w = PULSE_HALF_WIDTH,
    must be at most 1e-3 of its time scale tau: sigma, or 1/rate for the
    fastest of ``rates`` ((key, rate) pairs) when that is shorter.  Raise
    ConfigError naming ``key``, or 'pulse.t0' when w sigma alone is
    resolved, and the key that sets tau when it is not sigma."""
    rate_key, rate = max(rates, key=lambda kr: kr[1])
    by_rate = sigma * rate > 1.0
    tau = 1.0 / rate if by_rate else sigma
    spacing = np.spacing(abs(t0) + PULSE_HALF_WIDTH * sigma)
    if not spacing <= 1e-3 * tau:  # NaN when w sigma overflows
        if np.spacing(PULSE_HALF_WIDTH * sigma) <= 1e-3 * tau:
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
    timebin: TimeBinModelParams
    calibrate_v_coh: bool  # timebin.v_coh absent or null: from the pulse
    tomography: TomographyConfig
    sweep: SweepConfig
    numerics: NumericsConfig

    @classmethod
    def parse(cls, data: dict) -> "RunConfig":
        _check_keys("<root>", data, _SECTIONS)
        cfg = cls(
            raw=data,
            dot=_model("dot", data.get("dot", {}), DotConfig),
            pulse=PulseConfig.parse(data["pulse"]) if "pulse" in data else None,
            dephasing=(_model("dephasing", data["dephasing"], DephasingModel)
                       if "dephasing" in data else None),
            timebin=_model("timebin", data.get("timebin", {}),
                           TimeBinModelParams),
            calibrate_v_coh=data.get("timebin", {}).get("v_coh") is None,
            tomography=TomographyConfig.parse(data.get("tomography", {})),
            sweep=SweepConfig.parse(data.get("sweep", {})),
            numerics=NumericsConfig.parse(data.get("numerics", {})))
        # Every rate and detuning, with its key; a dephasing model counts
        # with its zero-drive rate.
        dot = cfg.dot
        rates = [("dot.gamma_x", dot.decay.gamma_x),
                 ("dot.gamma_b", dot.decay.gamma_b),
                 ("dot.delta_x", abs(dot.delta_x)),
                 ("dot.delta_b", abs(dot.delta_b))]
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
        if self.dot.decay.gamma_x <= 0:
            raise ConfigError(
                "'numerics.t_span' is required when 'dot.gamma_x' is 0")
        return default_t_span(drive, self.dot.decay)

    def resolved(self) -> dict:
        """Canonical JSON-ready form embedded in every output header."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


def _json_int(text: str):
    """A JSON integer literal as an int, or as a float (+-inf) past Python's
    limit on the digits of an integer string, so that the value checks
    name its key."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a JSON object")
    return RunConfig.parse(data)
