"""Configuration: loading from YAML, and the one rule (`require`) by which
every config class checks each number setting when it is built."""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
import typing

from . import geometry


class ConfigError(ValueError):
    """A configuration value is invalid."""


def require(value, what, low=None, *, integer=False, strict=False):
    """`value` if it is an int when `integer`, else a finite real number
    (numpy scalars too), never a bool, and at least `low` (above it when
    `strict`); ConfigError naming `what` otherwise."""
    if integer:
        valid, kind = type(value) is int, "an int"
    else:
        # exact for an int, so a huge one fails; float32 would overflow the bound
        valid = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                 and (abs(value) <= sys.float_info.max
                      if isinstance(value, numbers.Integral)
                      else math.isfinite(value)))
        kind = "a finite number"
    if low is not None:
        valid = valid and (value > low if strict else value >= low)
        kind += f" {'>' if strict else '>='} {low}"
    if not valid:
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value


def require_pose(value, what) -> geometry.Pose:
    """The pose that `value` serializes as [qw qx qy qz tx ty tz], or
    ConfigError naming `what`."""
    try:
        pose = geometry.from_quat_trans(value)
        if pose.translation.shape != (3,):
            raise ValueError("a batch of poses")
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{what} must be 7 finite numbers [qw qx qy qz tx "
                          f"ty tz] with a nonzero quaternion, got {value!r}"
                          ) from err
    return pose


def from_mapping(cls, data):
    """Build dataclass `cls` from a mapping of its fields, as read from YAML:
    dataclass and `list[Dataclass]` fields from nested mappings and tuples
    from lists; each dataclass checks its own values.  ConfigError for an
    unknown key at any level or a bad value."""
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be a mapping, got {data!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    try:
        for name, value in data.items():
            hint = hints.get(name)   # an unknown name fails in cls(**kwargs)
            item = typing.get_args(hint)[0] if typing.get_origin(hint) is list else None
            if dataclasses.is_dataclass(hint):
                value = from_mapping(hint, value)
            elif dataclasses.is_dataclass(item):
                value = [from_mapping(item, v) for v in value]
            elif hint is tuple:
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)
    except (TypeError, ValueError) as err:   # nested ConfigErrors gain a prefix
        raise ConfigError(f"bad {cls.__name__}: {err}") from err


def read_yaml_mapping(path) -> dict:
    """The top-level mapping of a YAML file, or ConfigError.  PyYAML loads
    here, on the first call, so only a command that reads YAML pays for it."""
    import yaml

    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    return data
