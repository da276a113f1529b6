"""Plain-text run configuration: bracketed sections of key=value lines.

A run is described by three sections. [scenario] names the initial
data (a constant unit vector per side, or a named analytic field),
[study] carries the experiment knobs mirroring StudyConfig plus the
eps list, [run] the single-eps settings, the sampling seed, and the
output directory. Every key has a default, so an empty file (or no
file at all) describes the headline jump experiment.

Each key is parsed once, by its entry in one parser table (a study
knob reads as the type of its StudyConfig field). The hash renders the
parsed values, so two files spelling the same number differently
("0.1" vs "1e-1") produce the same hash, and the hash identifies the
effective configuration including overrides.

Bad values are refused here, once, with a message naming the key:
every number must be finite, run.epsilon positive, each side's vector
nonzero, a named field known, and the study knobs pass StudyConfig's
range checks.

Contains:
- RunConfig / load_config: parse, merge defaults and overrides, build
- apply_overrides: section.key=value patches from the command line
- config_hash: short stable digest recorded in every output artifact
- default_config_text: the reference file, generated from the defaults
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, fields as dc_fields
from typing import Optional

from .errors import ConfigError
from .expansion import StudyConfig
from .fields import NAMED_FIELDS, MagnetizationField, constant_per_side, \
    named_field

_SCENARIO_DEFAULTS = {
    "name": "headline",
    "data": "constant",
    "value_minus": "0.6 0.8 0.0",
    "value_plus": "-0.6 0.8 0.0",
    "field": "swirl",
}
_STUDY_DEFAULTS = {"epsilons": "0.1 0.05 0.025 0.0125"}
_STUDY_DEFAULTS.update(
    (f.name, repr(getattr(StudyConfig(), f.name)))
    for f in dc_fields(StudyConfig))
_RUN_DEFAULTS = {"epsilon": "0.1", "seed": "0", "out": "runs"}
_SECTIONS = {
    "scenario": _SCENARIO_DEFAULTS,
    "study": _STUDY_DEFAULTS,
    "run": _RUN_DEFAULTS,
}


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one invocation.

    items holds the canonicalized (section, key, value) triples the
    configuration hash is computed from; out is the output directory
    before any command-line or environment override.
    """

    scenario: str
    data: MagnetizationField
    epsilons: tuple
    study: StudyConfig
    epsilon: float
    seed: int
    out: str
    items: tuple


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key} must be finite, got {raw!r}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{section}.{key} must be an integer, got {raw!r}") from None


def _parse_floats(section: str, key: str, raw: str) -> tuple:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"{section}.{key} must list numbers, got {raw!r}")
    return tuple(_parse_float(section, key, p) for p in parts)


def _parse_vec3(section: str, key: str, raw: str) -> tuple:
    vals = _parse_floats(section, key, raw)
    if len(vals) != 3:
        raise ConfigError(
            f"{section}.{key} must be three numbers, got {raw!r}")
    # constant_per_side divides by the length, the root of this sum
    if not sum(v * v for v in vals):
        raise ConfigError(f"{section}.{key} must be nonzero, got {raw!r}")
    return vals


def _parse_text(section: str, key: str, raw: str) -> str:
    return raw.strip()


def _parse_field(section: str, key: str, raw: str) -> str:
    name = raw.strip()
    if name not in NAMED_FIELDS:
        raise ConfigError(f"unknown named field {name!r} in {section}.{key}; "
                          f"known: {sorted(NAMED_FIELDS)}")
    return name


# the parser of every key that is not free text; a study knob reads as the
# type of its StudyConfig field
_PARSERS = {
    ("scenario", "value_minus"): _parse_vec3,
    ("scenario", "value_plus"): _parse_vec3,
    ("scenario", "field"): _parse_field,
    ("study", "epsilons"): _parse_floats,
    ("run", "epsilon"): _parse_float,
    ("run", "seed"): _parse_int,
}
_PARSERS.update(
    (("study", f.name),
     _parse_int if isinstance(getattr(StudyConfig(), f.name), int)
     else _parse_float)
    for f in dc_fields(StudyConfig))


def _canonical(value) -> str:
    """Value rendering used for hashing: numbers via repr, text as-is."""
    if isinstance(value, tuple):
        return " ".join(repr(v) for v in value)
    if isinstance(value, str):
        return value
    return repr(value)


def _read_file(path: str) -> dict:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",),
        comment_prefixes=("#", ";"), inline_comment_prefixes=("#", ";"))
    # keys are case-sensitive here (T vs t); do not lowercase them
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}") from None
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"config unreadable: {exc}") from None
    out: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]")
            out.setdefault(section, {})[key] = value
    return out


def apply_overrides(merged: dict, overrides) -> dict:
    """Patch section.key=value (or bare key=value) onto a config dict.

    The sections' key sets are disjoint, so a bare key has one home."""
    out = {s: dict(kv) for s, kv in merged.items()}
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(
                f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if "." in key:
            section, _, key = key.partition(".")
            if section not in _SECTIONS or key not in _SECTIONS[section]:
                raise ConfigError(f"unknown override target {item!r}")
        else:
            homes = [s for s, keys in _SECTIONS.items() if key in keys]
            if not homes:
                raise ConfigError(f"unknown override key {key!r}")
            section = homes[0]
        out[section][key] = value
    return out


def _build(merged: dict) -> RunConfig:
    # every key parsed once, in the order the hash lists them
    value = {(section, key): _PARSERS.get((section, key), _parse_text)(
                 section, key, merged[section][key])
             for section in sorted(_SECTIONS)
             for key in sorted(_SECTIONS[section])}

    kind = value["scenario", "data"]
    if kind == "constant":
        data = constant_per_side(value["scenario", "value_minus"],
                                 value["scenario", "value_plus"])
    elif kind == "named":
        data = named_field(value["scenario", "field"])
    else:
        raise ConfigError(
            f"scenario.data must be 'constant' or 'named', got {kind!r}")

    study = StudyConfig(**{f.name: value["study", f.name]
                           for f in dc_fields(StudyConfig)})
    epsilon = value["run", "epsilon"]
    if epsilon <= 0.0:
        raise ConfigError(f"run.epsilon must be positive, got {epsilon!r}")

    return RunConfig(
        scenario=value["scenario", "name"],
        data=data,
        epsilons=value["study", "epsilons"],
        study=study,
        epsilon=epsilon,
        seed=value["run", "seed"],
        out=value["run", "out"],
        items=tuple((section, key, _canonical(v))
                    for (section, key), v in value.items()),
    )


def load_config(path: Optional[str] = None,
                overrides=None) -> RunConfig:
    """Read a config file (or the built-in defaults) and apply overrides."""
    merged = {s: dict(kv) for s, kv in _SECTIONS.items()}
    if path is not None:
        for section, kv in _read_file(path).items():
            merged[section].update(kv)
    merged = apply_overrides(merged, overrides)
    return _build(merged)


def config_hash(cfg: RunConfig) -> str:
    """First 12 hex digits of the canonical key=value digest."""
    text = "\n".join(f"{s}.{k}={v}" for s, k, v in cfg.items)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def default_config_text() -> str:
    """The reference configuration file, one section per block."""
    lines = []
    for section in ("scenario", "study", "run"):
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}"
                     for key, value in _SECTIONS[section].items())
        lines.append("")
    return "\n".join(lines)
