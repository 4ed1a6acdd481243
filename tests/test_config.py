"""One rule for every number setting: `config.require`, through each config
class that holds numbers."""

import re

import numpy as np
import pytest

from tactrack.config import ConfigError
from tactrack.episodes import NoiseSpec, TrajectorySpec
from tactrack.factors import OptimizerParams
from tactrack.harness import SuiteConfig
from tactrack.render import GelConfig
from tactrack.shapes import Box, Pyramid, Sphere
from tactrack.tracker import TrackerConfig


def _int(build, past):
    return build, True, past


def _float(build, past=None):
    return build, False, past


# The name each setting's error gives -> (build the owner with the setting
# at a value, whether it is an int, a value just past its bound or None).
SETTINGS = {
    "gel width": _int(lambda v: GelConfig(width=v), 3),
    "gel height": _int(lambda v: GelConfig(height=v), 3),
    "gel extent_x": _float(lambda v: GelConfig(extent_x=v), 0.0),
    "gel extent_y": _float(lambda v: GelConfig(extent_y=v), 0.0),
    "gel max_indent": _float(lambda v: GelConfig(max_indent=v), 0.0),
    "trajectory steps": _int(lambda v: TrajectorySpec(steps=v), 2),
    "trajectory indent": _float(lambda v: TrajectorySpec(indent=v), 0.0),
    "trajectory length": _float(lambda v: TrajectorySpec(length=v), -0.5),
    "trajectory direction_deg": _float(
        lambda v: TrajectorySpec(direction_deg=v)),
    "trajectory arc_radius": _float(lambda v: TrajectorySpec(arc_radius=v),
                                    0.0),
    "trajectory arc_angle_deg": _float(
        lambda v: TrajectorySpec(arc_angle_deg=v)),
    "trajectory spin_deg": _float(lambda v: TrajectorySpec(spin_deg=v)),
    "trajectory dt": _float(lambda v: TrajectorySpec(dt=v), 0.0),
    **{f"noise {name}": _float(lambda v, name=name: NoiseSpec(**{name: v}),
                               -0.5)
       for name in ("normal_sigma", "eff_sigma_rot", "eff_sigma_trans",
                    "vis_sigma_rot", "vis_sigma_trans")},
    "optimizer max_iterations": _int(
        lambda v: OptimizerParams(max_iterations=v), -1),
    "optimizer cost_tolerance": _float(
        lambda v: OptimizerParams(cost_tolerance=v), -0.5),
    **{f"{name}[{i}]": _float(
        lambda v, name=name, i=i: TrackerConfig(
            **{name: (v, 1.0) if i == 0 else (1.0, v)}), 0.0)
       for name in ("sigma_eff", "sigma_vis", "sigma_vel") for i in (0, 1)},
    "episodes_per_object": _int(
        lambda v: SuiteConfig(episodes_per_object=v), 0),
    "master_seed": _int(lambda v: SuiteConfig(master_seed=v), -1),
    "sphere radius": _float(lambda v: Sphere(radius=v), 0.0),
    "box half_extents": _float(lambda v: Box(half_extents=(1.0, v, 1.0)), 0.0),
    "pyramid base_half_length": _float(
        lambda v: Pyramid(base_half_length=v), 0.0),
    "pyramid height": _float(lambda v: Pyramid(height=v), 0.0),
}

BAD = {"bool": True, "string": "1.0", "null": None, "nan": float("nan"),
       "inf": float("inf"), "float32_inf": np.float32("inf"),
       "float32_nan": np.float32("nan")}


def _cases():
    for what, (build, integer, past) in SETTINGS.items():
        # An int too large for a float is no finite number.
        bad = dict(BAD, **({"float": 2.0} if integer else {"huge": 10**400}),
                   **({} if past is None else {"past_bound": past}))
        if what == "trajectory direction_deg":
            del bad["null"]   # null asks for a seeded random direction
        for label, value in bad.items():
            yield pytest.param(build, what, value, id=f"{what}-{label}")


@pytest.mark.parametrize("build, what, value", _cases())
def test_bad_value_names_the_setting(build, what, value):
    with pytest.raises(ConfigError, match=re.escape(f"{what} must be")):
        build(value)


@pytest.mark.parametrize("what", SETTINGS)
def test_good_value_passes(what):
    # An int setting takes an int; a float setting a numpy scalar too.
    build, integer, _ = SETTINGS[what]
    if integer:
        build(4)
    else:
        build(np.float64(4.0))
        build(np.int64(4))
        build(np.float32(4.0))
