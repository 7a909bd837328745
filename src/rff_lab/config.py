"""The experiment's records and their flat key-value configuration files.

`ModelParams`, `Method` and `ExperimentConfig` live here (`ChannelParams` in
`channel`), so a config is parsed, checked and rendered without numpy.  The
format is one ``dotted.key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Every key has a default (`default_config`),
so a file only needs the keys it overrides.  Lists are comma-separated.
The keys are the fields of `ModelParams` (``model.*``), `ChannelParams`
(``channel.*``) and `ExperimentConfig` (``experiment.*``), in declaration
order; a field whose type has no codec here is a TypeError at import.
`render_config` emits the complete key set, and
``parse_config(render_config(cfg)) == cfg`` holds exactly.

Example::

    model.mu_u = 1.0
    channel.sigma_h = 0.15
    experiment.methods = raw,rc
    experiment.snr_db_grid = 0,20,40
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, get_type_hints

from .channel import ChannelParams, ChannelScenario, require_at_least, require_finite

__all__ = ["ConfigError", "parse_config", "render_config", "CONFIG_KEYS"]

#: SNR grid (dB) of the default sweep.
DEFAULT_SNR_GRID_DB = (0.0, 10.0, 20.0, 25.0, 30.0, 35.0, 40.0)


@dataclass(frozen=True)
class ModelParams:
    """Constants and distribution parameters of the signal model."""

    x: float
    f_ra: float
    f_ta: float
    f_ru: float
    f_tu_l: float
    eta: float
    mu_u: float
    sigma_u: float
    mu_s: float
    sigma_s: float
    sigma_n: float
    r_l: int
    r_s: int
    channel: ChannelParams

    def __post_init__(self) -> None:
        require_finite(self)
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        # per-sample normalization needs K = r_l, r_s >= 2
        bounds = {"r_l": 2, "r_s": 2, "sigma_u": 0, "sigma_s": 0, "sigma_n": 0}
        for name, least in bounds.items():
            require_at_least(name, getattr(self, name), least)
        if self.r_s > self.r_l:
            raise ValueError(f"r_s ({self.r_s}) must be <= r_l ({self.r_l})")
        for name, value in (("gamma", self.gamma()), ("beta", self.beta())):
            if value == 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and nonzero, got {value}")

    def gamma(self) -> float:
        """Denominator scale of the SL ratio: ``f_ra * f_tu_l * x``."""
        return self.f_ra * self.f_tu_l * self.x

    def beta(self) -> float:
        """Denominator scale of the CR/PC/RC ratios: ``f_ru * f_ta * x``."""
        return self.f_ru * self.f_ta * self.x

    def snr_reference_amplitude(self) -> float:
        """Nominal received amplitude of the RAW baseline, ``f_ra*mu_u*mu_h*x``."""
        return self.f_ra * self.mu_u * self.channel.mu_h * self.x

    def sigma_n_for_snr(self, snr_db: float) -> float:
        """Noise std such that the RAW baseline's SNR equals ``snr_db``."""
        s = abs(self.snr_reference_amplitude())
        if s == 0.0:
            raise ValueError("SNR mapping undefined: reference amplitude is 0")
        try:
            return s * 10.0 ** (-snr_db / 20.0)
        except OverflowError:
            raise ValueError(f"snr_db={snr_db} is out of range: its noise std overflows") from None

    def with_snr(self, snr_db: float) -> "ModelParams":
        """Copy of the parameters with ``sigma_n`` set from the SNR mapping."""
        return replace(self, sigma_n=self.sigma_n_for_snr(snr_db))


class Method(enum.Enum):
    """The five feature extraction methods."""

    RAW = "raw"
    SL = "sl"
    CR = "cr"
    PC = "pc"
    RC = "rc"

    def subcarriers(self, params: ModelParams) -> int:
        """Feature dimension: SL uses the short preamble's subcarriers."""
        return params.r_s if self is Method.SL else params.r_l


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of a sweep."""

    params: ModelParams
    n_devices: int
    n_train: int
    n_test: int
    n_trials: int
    master_seed: int
    scenarios: tuple[ChannelScenario, ...]
    methods: tuple[Method, ...]
    snr_db_grid: tuple[float, ...]

    def __post_init__(self) -> None:
        require_finite(self)
        # the silhouette and the LDA need 2 devices and 2 samples per device and phase
        bounds = {"n_devices": 2, "n_train": 2, "n_test": 2, "n_trials": 1, "master_seed": 0}
        for name, least in bounds.items():
            require_at_least(name, getattr(self, name), least)
        for name in ("scenarios", "methods", "snr_db_grid"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if name != "snr_db_grid" and len(set(values)) != len(values):
                raise ValueError(f"{name} contains duplicates")
        if len({_snr_stream_key(v) for v in self.snr_db_grid}) != len(self.snr_db_grid):
            raise ValueError(
                "snr_db_grid contains duplicates or points under 0.0005 dB apart, "
                "which would share every random stream"
            )
        for snr_db in self.snr_db_grid:
            self.params.sigma_n_for_snr(snr_db)  # raises where the noise std cannot be set


def default_config() -> ExperimentConfig:
    """Reference configuration: the standard parameter set and full grid."""
    channel = ChannelParams(mu_h=1.0, sigma_h=0.15, mu_h_non=1.0, sigma_h_non=0.2)
    params = ModelParams(
        x=1.0,
        f_ra=1.0,
        f_ta=1.0,
        f_ru=1.0,
        f_tu_l=1.0,
        eta=2.0,
        r_l=52,
        r_s=12,
        mu_u=1.0,
        sigma_u=0.1,
        mu_s=1.0,
        sigma_s=0.08,
        sigma_n=0.1,
        channel=channel,
    )
    return ExperimentConfig(
        params=params,
        scenarios=tuple(ChannelScenario),
        methods=tuple(Method),
        snr_db_grid=DEFAULT_SNR_GRID_DB,
        n_devices=10,
        n_train=100,
        n_test=100,
        n_trials=200,
        master_seed=42,
    )


def _snr_stream_key(snr_db: float) -> int:
    """The SNR's part of a stream seed: millidecibels, rounded, modulo 2**64.

    `SeedSequence` rejects a negative part, so a negative SNR seeds as its
    two's-complement word pair: -10 dB is ``2**64 - 10000``.
    """
    try:
        return int(round(snr_db * 1000.0)) & 0xFFFFFFFFFFFFFFFF
    except OverflowError:
        raise ValueError(f"snr_db={snr_db} is out of range: its millidecibels overflow") from None


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(item) for item in items)


def _enum_list(enum_cls) -> tuple[Callable[[str], tuple], Callable[[tuple], str]]:
    """(parse, render) of a comma-separated list of ``enum_cls`` members."""
    valid = ", ".join(member.value for member in enum_cls)

    def parse(text: str) -> tuple:
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise ValueError(f"expected a comma-separated list from: {valid}")
        try:
            return tuple(enum_cls(item) for item in items)
        except ValueError:
            raise ValueError(f"expected values from: {valid}; got {text!r}") from None

    return parse, lambda members: ",".join(member.value for member in members)


#: each config section and the record whose fields are its keys
_RECORDS = {"model": ModelParams, "channel": ChannelParams, "experiment": ExperimentConfig}

#: field type -> (parse, render)
_CODECS = {
    float: (float, repr),
    int: (int, repr),
    tuple[float, ...]: (_parse_float_list, lambda v: ",".join(repr(float(x)) for x in v)),
    tuple[ChannelScenario, ...]: _enum_list(ChannelScenario),
    tuple[Method, ...]: _enum_list(Method),
}


def _config_keys() -> dict[str, tuple[str, str, Callable[[str], object], Callable]]:
    keys = {}
    for section, record in _RECORDS.items():
        for attribute, hint in get_type_hints(record).items():
            if hint in _RECORDS.values():
                continue  # another section's record
            if hint not in _CODECS:
                raise TypeError(f"{record.__name__}.{attribute}: no config codec for {hint}")
            keys[f"{section}.{attribute}"] = (section, attribute, *_CODECS[hint])
    return keys


#: key -> (section, attribute, parse, render)
CONFIG_KEYS = _config_keys()


def parse_config(text: str) -> ExperimentConfig:
    """Build an `ExperimentConfig` from file text (defaults fill gaps).

    Raises `ConfigError` naming the offending line for unknown keys, bad
    syntax, bad values, and duplicates, or describing the constraint for
    values that fail validation.
    """
    overrides: dict[str, object] = {}
    seen_lines: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen_lines:
            raise ConfigError(
                f"line {line_no}: duplicate key {key!r} (first set on line "
                f"{seen_lines[key]})"
            )
        seen_lines[key] = line_no
        _, _, parse, _ = CONFIG_KEYS[key]
        try:
            overrides[key] = parse(value_text)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key!r}: {exc}") from None

    base = default_config()
    by_section: dict[str, dict[str, object]] = {section: {} for section in _RECORDS}
    for key, value in overrides.items():
        section, attribute, _, _ = CONFIG_KEYS[key]
        by_section[section][attribute] = value

    try:
        channel = replace(base.params.channel, **by_section["channel"])
        params = replace(base.params, channel=channel, **by_section["model"])
        return replace(base, params=params, **by_section["experiment"])
    except ValueError as exc:
        raise ConfigError(f"configuration invalid: {exc}") from None


def render_config(cfg: ExperimentConfig) -> str:
    """Complete config text for ``cfg``; parsing it back reproduces ``cfg``."""
    sections = {
        "model": "# Signal model constants and fingerprint distributions",
        "channel": "# CSI distribution parameters (train and shifted-test)",
        "experiment": "# Sweep layout and Monte-Carlo sizes",
    }
    records = {"model": cfg.params, "channel": cfg.params.channel, "experiment": cfg}
    lines: list[str] = []
    for section, header in sections.items():
        lines.append(header)
        for key, (key_section, attribute, _, render) in CONFIG_KEYS.items():
            if key_section == section:
                lines.append(f"{key} = {render(getattr(records[section], attribute))}")
        lines.append("")
    return "\n".join(lines)
