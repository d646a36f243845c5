"""Strict config resolution: YAML file -> env -> ``key=value`` overrides.

This module only merges the layers and rejects unknown keys.  The schema is
:class:`~eiprecode.linksim.SimConfig`: its field annotations give every
type rule and its construction every range rule.  A malformed value raises
:class:`ConfigError` naming the offending field, which the CLI maps to exit
code 2.
"""

from __future__ import annotations

import os
from dataclasses import fields
from pathlib import Path

import yaml

from .linksim import SimConfig, cast_field

__all__ = ["ConfigError", "parse_config", "parse_set_item", "ENV_SEED", "ENV_THREADS"]

ENV_SEED = "EIPRECODE_SEED"
ENV_THREADS = "EIPRECODE_THREADS"

# libyaml's safe loader where PyYAML has it: the same values and the same
# error types as the pure-Python SafeLoader, at a fraction of the cost
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid configuration input; the message names the field."""


# keys consumed by the experiment driver rather than SimConfig
_EXTRAS = {"bins": int}


def parse_set_item(item: str) -> tuple:
    """Split one ``--set key=value`` item; the value parses as a YAML scalar."""
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, _, raw = item.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    try:
        value = yaml.load(raw, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config field {key!r}: unparseable value {raw!r}") from exc
    return key, value


def _load_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a key-value mapping")
    return data


def _env_overrides(env) -> dict:
    env = os.environ if env is None else env
    out = {}
    for key, name in (("seed", ENV_SEED), ("threads", ENV_THREADS)):
        raw = env.get(name)
        if raw is None or raw == "":
            continue
        try:
            out[key] = int(raw)
        except ValueError:
            raise ConfigError(f"environment variable {name}: expected an integer, got {raw!r}")
    return out


def parse_config(path=None, overrides=(), env=None):
    """Resolve a SimConfig plus driver extras from all input layers.

    Precedence, lowest to highest: built-in defaults, config file, environment
    (seed/threads only), then the ``key=value`` ``overrides`` in order, so a
    later item beats an earlier one.  The CLI passes its ``--set`` items and
    then one item per named flag, so a flag beats ``--set``.
    """
    data = {}
    if path is not None:
        data.update(_load_file(path))
    data.update(_env_overrides(env))
    for item in overrides:
        key, value = parse_set_item(item)
        data[key] = value

    names = {f.name for f in fields(SimConfig)}
    for key in data:
        if key not in names and key not in _EXTRAS:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        extras = {k: cast_field(k, t, data.pop(k)) for k, t in _EXTRAS.items() if k in data}
        cfg = SimConfig(**data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, extras
