"""Strict config resolution: YAML file -> env -> --set pairs -> named flags.

Every key is checked against the experiment schema; unknown keys and
malformed values raise :class:`ConfigError` naming the offending field, which
the CLI maps to exit code 2.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import yaml

from .linksim import SimConfig

__all__ = ["ConfigError", "parse_config", "parse_set_item", "ENV_SEED", "ENV_THREADS"]

ENV_SEED = "EIPRECODE_SEED"
ENV_THREADS = "EIPRECODE_THREADS"

class ConfigError(ValueError):
    """Invalid configuration input; the message names the field."""


def _fail(key, value, expected):
    raise ConfigError(f"config field {key!r}: expected {expected}, got {value!r}")


def _coerce_int(key, v, allow_none=False):
    if v is None and allow_none:
        return None
    if _coerce_float(key, v, "an integer") != int(v):
        _fail(key, v, "an integer")
    return int(v)


def _coerce_float(key, v, expected="a finite number"):
    # NaN, +/-inf and ints past the float range fail the bound
    if isinstance(v, bool) or not (isinstance(v, (int, float)) and abs(v) <= sys.float_info.max):
        _fail(key, v, expected)
    return float(v)


def _coerce_float_list(key, v):
    items = v if isinstance(v, (list, tuple)) else [v]
    return tuple(_coerce_float(key, x) for x in items)


def _coerce_int_list(key, v):
    items = v if isinstance(v, (list, tuple)) else [v]
    return tuple(_coerce_int(key, x) for x in items)


def _coerce_str(key, v):
    if not isinstance(v, str):
        _fail(key, v, "a string")
    return v


def _coerce_bits(key, v):
    if v is None or (isinstance(v, str) and v.lower() == "bypass"):
        return None
    return _coerce_int(key, v)


_COERCERS = {
    "users": _coerce_int,
    "antennas": _coerce_int,
    "eta": _coerce_float_list,
    "corruption_mode": _coerce_str,
    "c": _coerce_float,
    "precoder": _coerce_str,
    "csi": _coerce_str,
    "bits": _coerce_bits,
    "modulation": _coerce_str,
    "snr_db": _coerce_float_list,
    "trials": _coerce_int,
    "symbols_per_trial": _coerce_int,
    "seed": _coerce_int,
    "threads": _coerce_int,
    "min_errors": _coerce_int,
    "max_bits": _coerce_int,
    "estimator_order": lambda k, v: _coerce_int(k, v, allow_none=True),
    "theory_mode": _coerce_str,
    "antennas_grid": lambda k, v: None if v is None else _coerce_int_list(k, v),
}

# keys consumed by the experiment driver rather than SimConfig
_EXTRA_COERCERS = {"bins": _coerce_int}


def parse_set_item(item: str) -> tuple:
    """Split one ``--set key=value`` item; the value parses as a YAML scalar."""
    if "=" not in item:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    key, _, raw = item.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set expects key=value, got {item!r}")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config field {key!r}: unparseable value {raw!r}") from exc
    return key, value


def _load_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
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


def parse_config(path=None, overrides=(), env=None, flags=None):
    """Resolve a SimConfig plus driver extras from all input layers.

    Precedence, lowest to highest: built-in defaults, config file, environment
    (seed/threads only), ``--set`` pairs, named CLI flags.
    """
    data = {}
    if path is not None:
        data.update(_load_file(path))
    data.update(_env_overrides(env))
    for item in overrides:
        key, value = parse_set_item(item)
        data[key] = value
    for key, value in (flags or {}).items():
        if value is not None:
            data[key] = value

    extras = {}
    kwargs = {}
    for key, value in data.items():
        if key in _EXTRA_COERCERS:
            extras[key] = _EXTRA_COERCERS[key](key, value)
        elif key in _COERCERS:
            kwargs[key] = _COERCERS[key](key, value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        cfg = SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, extras
