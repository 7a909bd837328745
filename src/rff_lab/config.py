"""Flat key-value experiment configuration files.

The format is one ``dotted.key = value`` pair per line; blank lines and lines
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

from dataclasses import replace
from typing import Callable, get_type_hints

from .channel import ChannelParams, ChannelScenario
from .experiments import ExperimentConfig, default_config
from .signal_model import Method, ModelParams

__all__ = ["ConfigError", "parse_config", "render_config", "CONFIG_KEYS"]


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
