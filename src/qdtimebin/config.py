"""Strict JSON run configuration.

Unknown keys are fatal: a typo in a rate name must never silently fall back
to a default.  A key set to null counts as absent.  Every section is one
dataclass, built by ``_model``, whose fields name its keys and declare each
bound once: in field ``metadata``, or in ``__post_init__``, whose
ValueError becomes a ConfigError naming the key.
``dot`` builds a ``DecayRates``, ``dephasing`` and each ``sweep.models[i]``
a ``DephasingModel``, ``timebin`` a ``TimeBinModelParams``, and
``sweeps.check_fit_target`` checks ``sweep.fit``; a list is read by its
field's parse function.  Commands pull only the sections they need and
complain about missing ones by name.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

import numpy as np

from .dynamics import (
    PULSE_HALF_WIDTH,
    TOL_CEILING,
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


def _integer(name: str, v, minimum=None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{name}' must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"'{name}' must be >= {minimum}, got {v}")
    return v


@contextlib.contextmanager
def _naming(section: str):
    """A ValueError starting with a field name, as 'section.field'; a
    ConfigError names its key already and passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        name, _, need = str(exc).partition(" ")
        raise ConfigError(f"'{section}.{name}' {need}") from exc


def _model(section: str, data: dict, cls):
    """The dataclass ``cls`` built from section ``data``, an object whose
    keys are its init fields, read in order.  A key set to null is absent.
    A field without a default is a required key; an absent key takes its
    field's default.  An int field takes an integer, any other a number
    within the "minimum" and "maximum" of its ``metadata``, unless that
    holds a "parse"(key, value) function, which reads the value."""
    params = [f for f in fields(cls) if f.init]
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if v is not None}
    _check_keys(section, data, {f.name for f in params},
                {f.name for f in params
                 if f.default is MISSING and f.default_factory is MISSING})
    values = {}
    for f in (f for f in params if f.name in data):
        key, v = f"{section}.{f.name}", data[f.name]
        if "parse" in f.metadata:
            values[f.name] = f.metadata["parse"](key, v)
        elif isinstance(f.default, int) or f.type in ("int", int):
            values[f.name] = _integer(key, v, **f.metadata)
        else:
            values[f.name] = _value(key, v, **f.metadata)
    with _naming(section):
        return cls(**values)


@dataclass
class _Linspace:  # a grid's {start, stop, num}
    num: int = field(metadata={"minimum": 2})
    start: float = field(metadata={"minimum": 0.0})
    stop: float = field(metadata={"minimum": 0.0})


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
        span = _model(section, spec, _Linspace)
        grid = np.linspace(span.start, span.stop, span.num)
    else:
        raise ConfigError(
            f"'{section}' must be a list or a start/stop/num object")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"'{section}' must be strictly increasing")
    return grid


def _items(key: str, spec: Any) -> list:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"'{key}' must be a non-empty list")
    return spec


def _sigmas(key: str, spec: Any) -> list[float]:
    sigmas = [_value(f"{key}[{i}]", s, minimum=1e-12)
              for i, s in enumerate(_items(key, spec))]
    # ratio writes the curve of each sigma to ratio_sigma{sigma:g}.csv
    labels = [f"{s:g}" for s in sigmas]
    for i, label in enumerate(labels):
        j = labels.index(label)
        if j < i:
            raise ConfigError(
                f"'{key}[{i}]' = {sigmas[i]!r} prints as {label}, as "
                f"'{key}[{j}]' does: their ratio curves would share one file")
    return sigmas


def _models(key: str, spec: Any) -> list[DephasingModel]:
    return [_model(f"{key}[{i}]", m, DephasingModel)
            for i, m in enumerate(_items(key, spec))]


def _t_span(key: str, spec: Any) -> tuple[float, float]:
    if isinstance(spec, list) and len(spec) == 2:
        span = tuple(_value(f"{key}[{i}]", t) for i, t in enumerate(spec))
        if span[0] < span[1]:
            return span
    raise ConfigError(f"'{key}' must be [t0, t1] with t1 > t0")


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
    sigma: float = field(metadata={"minimum": 1e-12})
    t0: float = 0.0
    area: float | None = field(default=None, metadata={"minimum": 0.0})
    omega0: float | None = field(default=None, metadata={"minimum": 0.0})

    def __post_init__(self):
        if self.area is not None and self.omega0 is not None:
            raise ConfigError("'pulse' must set either 'area' or 'omega0', not both")

    def drive(self, dot: DotConfig) -> PulseDrive:
        if self.omega0 is not None:
            omega0 = self.omega0
        elif self.area is not None:
            omega0 = omega0_for_area(self.area, self.sigma)
        else:
            raise ConfigError("'pulse' needs 'area' or 'omega0' for this command")
        return PulseDrive(omega0=omega0, sigma=self.sigma, t0=self.t0,
                          delta_x=dot.delta_x, delta_b=dot.delta_b)


@dataclass
class TomographyConfig:
    # numpy's Poisson sampler refuses a mean above ~9.2e18
    n_mean: float = field(default=1e5, metadata={"minimum": 1e-9,
                                                 "maximum": 1e18})
    seed: int = field(default=1, metadata={"minimum": 0})
    n_seeds: int = field(default=1, metadata={"minimum": 1})


@dataclass
class FitConfig:
    """'sweep.fit': the first-cycle max/min ratio ``fit-dephasing`` fits
    gamma_i0 to, at intensity exponent n_p."""
    n_p: int
    target_ratio: float

    def __post_init__(self):
        check_fit_target(self.n_p, self.target_ratio)


@dataclass
class SweepConfig:
    areas: np.ndarray | None = field(default=None, metadata={
        "parse": lambda key, spec: _grid(key, spec, min_points=2)})
    energies: np.ndarray | None = field(default=None,
                                        metadata={"parse": _grid})
    sigmas: list[float] = field(default_factory=list,
                                metadata={"parse": _sigmas})
    models: list[DephasingModel] = field(default_factory=list,
                                         metadata={"parse": _models})
    fit: FitConfig | None = field(default=None, metadata={
        "parse": lambda key, spec: _model(key, spec, FitConfig)})


@dataclass
class NumericsConfig:
    t_span: tuple[float, float] | None = field(default=None,
                                               metadata={"parse": _t_span})
    tol: float = field(default=1e-8, metadata={"minimum": TOL_FLOOR,
                                               "maximum": TOL_CEILING})


# The dataclass of each section; RunConfig's defaults stand for one absent.
_SECTIONS = {"dot": DotConfig, "pulse": PulseConfig,
             "dephasing": DephasingModel, "timebin": TimeBinModelParams,
             "tomography": TomographyConfig, "sweep": SweepConfig,
             "numerics": NumericsConfig}


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
    calibrate_v_coh: bool  # timebin.v_coh absent or null: from the pulse
    dot: DotConfig = field(default_factory=DotConfig)
    pulse: PulseConfig | None = None
    dephasing: DephasingModel | None = None
    timebin: TimeBinModelParams = field(default_factory=TimeBinModelParams)
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)

    @classmethod
    def parse(cls, data: dict) -> "RunConfig":
        _check_keys("<root>", data, set(_SECTIONS))
        sections = {name: _model(name, data[name], model)
                    for name, model in _SECTIONS.items() if name in data}
        v_coh = data.get("timebin", {}).get("v_coh")
        cfg = cls(raw=data, calibrate_v_coh=v_coh is None, **sections)
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
        if self.dot.decay.gamma_x <= 0:
            raise ConfigError(
                "'numerics.t_span' is required when 'dot.gamma_x' is 0")
        return default_t_span(drive, self.dot.decay)

    def resolved(self) -> dict:
        """Canonical JSON-ready form embedded in every output header."""
        return json.loads(json.dumps(self.raw, sort_keys=True))


class _TooLarge(float):
    """A JSON integer literal past Python's limit on the digits of an
    integer string: +-inf, which the value checks refuse, naming its key,
    and which prints as what the config holds."""

    def __repr__(self):
        return "an integer too large for a float"

    __str__ = __repr__


def _json_int(text: str):
    """A JSON integer literal as an int, or past Python's limit on the
    digits of an integer string as a ``_TooLarge``."""
    try:
        return int(text)
    except ValueError:
        return _TooLarge(text)


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
