"""Tactile simulator: SDF shapes, depth rendering, normal images, episodes."""

import dataclasses
import itertools
import json
import os
import re

import numpy as np
import pytest

from tactrack import geometry, imageio
from tactrack.config import ConfigError
from tactrack.episodes import (POSE_KINDS, EpisodeGenerationError, NoiseSpec,
                               TrajectorySpec, _lowest_hit, find_contact_base,
                               generate_episode, load_episode, render_slide,
                               save_episode)
from tactrack.geometry import Pose
from tactrack.harness import default_suite_config
from tactrack.render import (DepthImage, GelConfig, _trace_lower_envelope,
                             contact_touches_border, depth_to_normals,
                             perturb_normals, render_depth)
from tactrack.shapes import (PROJECTION_TOLERANCE, Box, Pyramid, ShapeSDF,
                             Sphere, shape_from_descriptor)
from tactrack.tracker import (GT_SAMPLE_COUNT, GT_SAMPLE_RADIUS_SCALE,
                              GT_SAMPLE_SEED)

from .conftest import matrix


def centered_sphere(radius=6.35, indent=1.0):
    """Sphere positioned so its lowest point dips `indent` below the gel."""
    return Sphere(radius=radius,
                  offset=Pose(np.eye(3), np.array([0, 0, radius - indent])))


def _reference_sdf(shape, points):
    """The SDF with the row reductions along axis 1 (`np.linalg.norm`,
    `np.max`) that the shapes now compute column by column."""
    local = geometry.inverse(shape.offset).transform_points(points)
    if isinstance(shape, Sphere):
        return np.linalg.norm(local, axis=1) - shape.radius
    if isinstance(shape, Box):
        q = np.abs(local) - np.asarray(shape.half_extents, dtype=float)
        return (np.linalg.norm(np.maximum(q, 0.0), axis=1)
                + np.minimum(np.max(q, axis=1), 0.0))
    return shape._sdf_local(local)


def _reference_projection(shape, points, iters=12, eps=1e-5):
    """`ShapeSDF.project_to_surface` over `_reference_sdf`, with its
    gradient norm along axis 1."""
    pts = points.copy()
    for _ in range(iters):
        d = _reference_sdf(shape, pts)
        if np.abs(d).max(initial=0.0) < PROJECTION_TOLERANCE:
            break
        g = np.empty_like(pts)
        for axis in range(3):
            step = np.zeros(3)
            step[axis] = eps
            g[:, axis] = (_reference_sdf(shape, pts + step)
                          - _reference_sdf(shape, pts - step)) / (2 * eps)
        norm = np.linalg.norm(g, axis=1, keepdims=True)
        norm[norm < 1e-12] = 1.0
        pts -= d[:, None] * g / norm
    return pts


def _probe_points(shape, size, seed=0):
    """Points inside, outside and on the surface of a shape about `size`
    (mm) across, its local origin and, for a box, its face centres, edge
    midpoints and corners."""
    rng = np.random.default_rng(seed)
    local = [rng.uniform(-size, size, size=(500, 3)), np.zeros((1, 3))]
    if isinstance(shape, Box):
        signs = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
        local.append(signs * np.asarray(shape.half_extents))
    points = shape.offset.transform_points(np.concatenate(local))
    return np.concatenate([points, shape.project_to_surface(points[:100])])


class TestShapes:
    @pytest.mark.parametrize("shape, size", [
        (Sphere(radius=6.35), 12.0),
        (Sphere(radius=2.0, offset=geometry.exp(
            np.array([0.3, -0.2, 0.1, 1.0, 2.0, 5.35]))), 4.0),
        (Box(half_extents=(1.0, 2.0, 3.0)), 6.0),
        (shape_from_descriptor(default_suite_config().objects[1].shape), 18.0),
        (Pyramid(), 44.0),
    ], ids=["sphere", "sphere_offset", "box", "tilted_cube", "pyramid"])
    def test_same_bits_as_axis_reductions(self, shape, size):
        points = _probe_points(shape, size)
        assert shape.sdf(points).tobytes() == \
            _reference_sdf(shape, points).tobytes()
        assert shape.project_to_surface(points).tobytes() == \
            _reference_projection(shape, points).tobytes()

    @pytest.mark.parametrize("index", [0, 1, 2],
                             ids=["sphere", "cube", "pyramid"])
    def test_projection_converges_below_tolerance(self, index):
        # Samples of a ball around the lowest surface point, drawn as
        # gtpatch draws its target, all end within the tolerance, so
        # stopping there loses nothing against a fixed iteration count.
        shape = shape_from_descriptor(
            default_suite_config().objects[index].shape)
        center = shape.project_to_surface(np.array([[0.0, 0.0, -30.0]]))[0]
        gel = GelConfig()
        radius = GT_SAMPLE_RADIUS_SCALE * max(gel.extent_x, gel.extent_y) / 2
        rng = np.random.default_rng(GT_SAMPLE_SEED)
        raw = rng.normal(size=(GT_SAMPLE_COUNT, 3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        raw *= radius * rng.uniform(0, 1, size=(GT_SAMPLE_COUNT, 1)) ** (1 / 3)
        projected = shape.project_to_surface(center + raw)
        assert np.abs(shape.sdf(projected)).max() < PROJECTION_TOLERANCE

    def test_sphere_sdf_signs(self):
        s = Sphere(radius=2.0)
        d = s.sdf(np.array([[0, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float))
        np.testing.assert_allclose(d, [-2.0, 0.0, 1.0], atol=1e-12)

    def test_box_sdf_exact_outside(self):
        b = Box(half_extents=(1.0, 1.0, 1.0))
        d = b.sdf(np.array([[2.0, 0, 0], [2.0, 2.0, 0]]))
        np.testing.assert_allclose(d, [1.0, np.sqrt(2.0)], atol=1e-12)

    def test_pyramid_apex_on_surface(self):
        p = Pyramid()
        apex = np.array([[0.0, 0.0, -p.height / 2.0]])
        assert abs(p.sdf(apex)[0]) < 1e-9

    def test_descriptor_roundtrip(self):
        shapes = [Sphere(radius=3.0), Box(half_extents=(1.0, 2.0, 3.0)),
                  Pyramid(base_half_length=10.0, height=5.0)]
        for s in shapes:
            clone = shape_from_descriptor(s.descriptor())
            pts = np.random.default_rng(0).normal(scale=5.0, size=(50, 3))
            np.testing.assert_allclose(clone.sdf(pts), s.sdf(pts), atol=1e-9)

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(ValueError):
            shape_from_descriptor({"type": "torus"})

    @pytest.mark.parametrize("desc", [
        {"type": "sphere", "radius": -1.0},
        {"type": "sphere", "radius": float("nan")},
        {"type": "box", "half_extents": [1.0, 0.0, 1.0]},
        {"type": "box", "half_extents": [1.0, 1.0]},
        {"type": "pyramid", "base_half_length": 10.0, "height": float("inf")},
        {"type": "pyramid", "base_half_length": 0.0, "height": 5.0},
    ])
    def test_bad_geometry_rejected(self, desc):
        with pytest.raises(ValueError):
            shape_from_descriptor(desc)

    @pytest.mark.parametrize("build, desc, field", [
        (lambda v: Sphere(radius=v), {"type": "sphere"}, "radius"),
        (lambda v: Box(half_extents=(1.0, v, 1.0)), {"type": "box"},
         "half_extents"),
        (lambda v: Pyramid(base_half_length=v),
         {"type": "pyramid", "height": 5.0}, "base_half_length"),
        (lambda v: Pyramid(height=v),
         {"type": "pyramid", "base_half_length": 10.0}, "height"),
    ], ids=["radius", "half_extents", "base_half_length", "height"])
    @pytest.mark.parametrize("bad", [True, False, "6.35"])
    def test_mistyped_size_rejected(self, build, desc, field, bad):
        # float() would take a bool or a numeric string; neither is a size.
        value = [1.0, bad, 1.0] if field == "half_extents" else bad
        for make in (lambda: shape_from_descriptor({**desc, field: value}),
                     lambda: build(bad)):
            with pytest.raises(ConfigError, match=f"{field} must be a finite "
                                                  "number > 0"):
                make()


class TestGelConfig:
    @pytest.mark.parametrize("overrides", [
        {"extent_x": float("nan")}, {"extent_y": float("inf")},
        {"extent_x": 0.0}, {"extent_y": -1.0}])
    def test_bad_extent_rejected(self, overrides):
        with pytest.raises(ValueError):
            GelConfig(**overrides)

    # An int field takes only an int, and a float field no bool.
    @pytest.mark.parametrize("name, value", [
        ("width", 64.5), ("height", True), ("extent_x", True),
        ("extent_y", True), ("max_indent", True)])
    def test_mistyped_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            GelConfig(**{name: value})

    # One read-only grid per gel geometry, with meshgrid's bytes.
    @pytest.mark.parametrize("gel", [GelConfig(), GelConfig(
        width=5, height=7, extent_x=3.0, extent_y=11.0)])
    def test_pixel_centers_shared_and_read_only(self, gel):
        x = (np.arange(gel.width) + 0.5) * gel.pitch_x - gel.extent_x / 2.0
        y = (np.arange(gel.height) + 0.5) * gel.pitch_y - gel.extent_y / 2.0
        xs, ys = gel.pixel_centers()
        for got, want in zip((xs, ys), np.meshgrid(x, y)):
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert not got.flags.writeable
        again = dataclasses.replace(gel).pixel_centers()
        assert again[0] is xs and again[1] is ys


class TestRenderDepth:
    def test_no_contact_empty_mask(self, gel):
        shape = Sphere(radius=2.0, offset=Pose(np.eye(3), np.array([0, 0, 30.0])))
        depth = render_depth(shape, Pose.identity(), Pose.identity(), gel)
        assert not depth.mask.any()
        assert (depth.values == 0).all()

    def test_sphere_cap_matches_analytic(self, gel):
        r, d = 6.35, 1.0
        depth = render_depth(centered_sphere(r, d), Pose.identity(),
                             Pose.identity(), gel)
        xs, ys = gel.pixel_centers()
        rho = np.hypot(xs, ys)
        inside = rho <= np.sqrt(2 * r * d - d**2) - 2 * gel.pitch_x
        expected = np.clip(d - (r - np.sqrt(np.maximum(r**2 - rho**2, 0.0))),
                           0.0, None)
        assert depth.mask[inside].all()
        assert np.abs(depth.values[inside] - expected[inside]).max() < 1e-3

    def test_flat_box_face_constant_depth(self, gel):
        d = 0.8
        box = Box(half_extents=(5.0, 5.0, 5.0),
                  offset=Pose(np.eye(3), np.array([0, 0, 5.0 - d])))
        depth = render_depth(box, Pose.identity(), Pose.identity(), gel)
        vals = depth.values[depth.mask]
        assert len(vals) > 0
        np.testing.assert_allclose(vals, d, atol=1e-3)


def _full_grid_trace(shape, object_from_sensor, xs, ys, z_start, z_range,
                     tol=1e-5, max_iters=200, retire_at_range=False):
    """Reference sphere trace of one pose that masks every ray of the grid
    on every iteration.  A ray is evaluated once more after its travel
    reaches z_range, as in `_lowest_hit`, which must match it; with
    `retire_at_range` it retires unevaluated there, as in
    `_trace_lower_envelope`, which must then match it bit for bit."""
    n = xs.size
    pts_sensor = np.column_stack([xs.ravel(), ys.ravel(), np.full(n, z_start)])
    rot = object_from_sensor.rotation
    step_dir = rot[:, 2]
    pts = pts_sensor @ rot.T + object_from_sensor.translation
    t = np.zeros(n)
    d = shape.sdf(pts)

    def in_range():
        return (t + d if retire_at_range else t) < z_range

    hit = d <= tol
    active = ~hit & in_range()
    for _ in range(max_iters):
        if not active.any():
            break
        adv = d[active]
        t[active] += adv
        pts[active] += adv[:, None] * step_dir
        d[active] = shape.sdf(pts[active])
        newly_hit = active & (d <= tol)
        hit |= newly_hit
        active &= ~newly_hit & in_range()
    z_surf = np.where(hit, z_start + t, np.nan)
    return hit.reshape(xs.shape), z_surf.reshape(xs.shape)


def _per_frame_depth(shape, sensor, gel):
    """`render_depth` of one sensor pose (object at the origin) as it was
    before the trace retired rays at z_range: every ray is evaluated once
    more past the range, and a hit there clamps to depth 0."""
    xs, ys = gel.pixel_centers()
    z_range = gel.max_indent + 0.1
    hit, z_surf = _full_grid_trace(shape, sensor, xs, ys, -z_range, z_range)
    depth = np.where(hit, np.clip(-z_surf, 0.0, gel.max_indent), 0.0)
    mask = depth > 0.0
    depth[~mask] = 0.0
    return depth, mask, hit & (z_surf >= 0.0)


class _SplitFloor(ShapeSDF):
    """The floor z = -5 for x < 0 and z = `right` for x >= 0.  The distance
    bounds `left(d)` and `right_bound(d)`, each <= d, set the steps rays
    take from z = -60, and so which ray starts closest to the surface."""

    def __init__(self, right, left, right_bound):
        super().__init__()
        self.right, self.left, self.right_bound = right, left, right_bound

    def _sdf_local(self, points):
        z = points[:, 2]
        return np.where(points[:, 0] < 0, self.left(-5.0 - z),
                        self.right_bound(self.right - z))


def _exact(d):
    return d


def _capped(d):
    return np.minimum(d, 30.0)


DEFAULT_SHAPES = {obj.name: shape_from_descriptor(obj.shape)
                  for obj in default_suite_config().objects}


def _tilted(shape_cls, twist, **kwargs):
    return shape_cls(offset=geometry.exp(np.array(twist, dtype=float)), **kwargs)


def _lifted_cube(low=59.9):
    """The default cube, lifted until its lowest corner is at z = `low`."""
    cube = DEFAULT_SHAPES["cube"]
    corners = np.array(list(itertools.product((-9.0, 9.0), repeat=3)))
    lift = low - cube.offset.transform_points(corners)[:, 2].min()
    return Box(half_extents=cube.half_extents,
               offset=Pose(cube.offset.rotation,
                           cube.offset.translation + [0.0, 0.0, lift]))


class TestTraceLowerEnvelope:
    @pytest.mark.parametrize("name, twist, z_range, max_iters", [
        ("sphere", [0.0, 0.0, 0.0, 0.3, -0.2, 0.0], 1.6, 200),
        ("cube", [0.05, -0.1, 0.2, 0.5, 0.4, 0.0], 1.6, 200),
        ("pyramid", [0.1, 0.2, 0.0, -0.4, 0.3, 0.0], 1.6, 200),
        ("sphere", [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0.5, 200),   # range exits
        ("sphere", [0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 1.6, 3),     # iteration cap
    ])
    def test_matches_full_grid_reference(self, gel, name, twist, z_range,
                                         max_iters):
        shape = DEFAULT_SHAPES[name]
        sensor = geometry.compose(geometry.exp(np.array(twist)),
                                  find_contact_base(shape, gel, 1.25))
        xs, ys = gel.pixel_centers()
        args = (shape, sensor, xs, ys, -1.6, z_range)
        hit, z_surf = _trace_lower_envelope(*args, max_iters=max_iters)
        ref_hit, ref_z = _full_grid_trace(*args, max_iters=max_iters,
                                          retire_at_range=True)
        assert hit.any() and not hit.all()
        np.testing.assert_array_equal(hit, ref_hit)
        assert z_surf.tobytes() == ref_z.tobytes()

    @pytest.mark.parametrize("name", sorted(DEFAULT_SHAPES))
    def test_batch_matches_each_pose_alone(self, gel, name):
        # The contact pose under three twists, and one 5 mm off the object.
        shape = DEFAULT_SHAPES[name]
        base = find_contact_base(shape, gel, 1.25)
        twists = [[0.0] * 6, [0.05, -0.1, 0.2, 0.5, 0.4, 0.0],
                  [0.1, 0.2, 0.0, -0.4, 0.3, 0.0], [0.0] * 5 + [-5.0]]
        poses = [geometry.compose(geometry.exp(np.array(tw)), base)
                 for tw in twists]
        batch = Pose.stack(poses)
        xs, ys = gel.pixel_centers()
        hits, z_surfs = _trace_lower_envelope(shape, batch, xs, ys, -1.6, 1.6)
        depths = render_depth(shape, Pose.identity(), batch, gel)
        assert hits.shape == z_surfs.shape == (4,) + xs.shape
        assert depths.values.shape == depths.mask.shape == (4,) + xs.shape
        for k, pose in enumerate(poses):
            hit, z_surf = _trace_lower_envelope(shape, pose, xs, ys, -1.6, 1.6)
            depth = render_depth(shape, Pose.identity(), pose, gel)
            assert hit.shape == depth.values.shape == xs.shape
            np.testing.assert_array_equal(hits[k], hit)
            assert z_surfs[k].tobytes() == z_surf.tobytes()
            assert depths.values[k].tobytes() == depth.values.tobytes()
            np.testing.assert_array_equal(depths.mask[k], depth.mask)
        assert depths.mask[:3].any(axis=(1, 2)).all()
        assert not hits[3].any() and not depths.mask[3].any()

    def test_rays_past_range_onto_a_flat_face(self, gel):
        # An axis-aligned box face pressed 0.8 mm into part of the gel, then
        # lifted 0.05 mm and 0.3 mm above the gel plane.  Under the lifted
        # face each ray's first step takes it past z_range, exactly onto
        # the face.  Evaluated there, as before, it hits; the hit clamps to
        # depth 0, so retiring the ray unevaluated keeps every depth.
        box = Box(half_extents=(5.0, 5.0, 5.0),
                  offset=Pose(np.eye(3), np.array([0.0, 0.0, 5.0])))
        poses = [Pose(np.eye(3), np.array([dx, 0.0, dz]))
                 for dx, dz in ((-6.0, 0.8), (0.0, -0.05), (2.0, -0.3))]
        xs, ys = gel.pixel_centers()
        hits, z_surfs = _trace_lower_envelope(box, Pose.stack(poses), xs, ys,
                                              -1.6, 1.6)
        depths = render_depth(box, Pose.identity(), Pose.stack(poses), gel)
        past = []
        for k, pose in enumerate(poses):
            ref_hit, ref_z = _full_grid_trace(box, pose, xs, ys, -1.6, 1.6,
                                              retire_at_range=True)
            np.testing.assert_array_equal(hits[k], ref_hit)
            assert z_surfs[k].tobytes() == ref_z.tobytes()
            depth, mask, past_range = _per_frame_depth(box, pose, gel)
            assert not hits[k][past_range].any()
            assert depths.values[k].tobytes() == depth.tobytes()
            np.testing.assert_array_equal(depths.mask[k], mask)
            past.append(int(past_range.sum()))
        assert past[0] == 0 and min(past[1:]) > 500
        assert depths.mask[0].any() and not depths.mask[0].all()
        assert not depths.mask[1:].any()


class TestContactBase:
    """find_contact_base stops at the lowest hit; it must pick the same ray
    and height as a full-grid trace followed by nanargmin."""

    @staticmethod
    def _reference(shape, gel, indent):
        xs = np.linspace(-gel.extent_x / 2, gel.extent_x / 2, 129)
        ys = np.linspace(-gel.extent_y / 2, gel.extent_y / 2, 129)
        gx, gy = np.meshgrid(xs, ys)
        hit, z_surf = _full_grid_trace(shape, Pose.identity(), gx, gy,
                                       z_start=-60.0, z_range=120.0)
        heights = np.where(hit, z_surf, np.inf)
        i, j = np.unravel_index(np.nanargmin(heights), z_surf.shape)
        ties = int((heights == heights[i, j]).sum())
        return np.array([gx[i, j], gy[i, j], z_surf[i, j] + indent]), ties

    @pytest.mark.parametrize("shape, gel, indent", [
        (DEFAULT_SHAPES["sphere"], GelConfig(), 1.25),
        (DEFAULT_SHAPES["cube"], GelConfig(), 1.25),
        (DEFAULT_SHAPES["pyramid"], GelConfig(), 1.25),
        (DEFAULT_SHAPES["pyramid"], GelConfig(), 1.0),
        (_tilted(Sphere, [0, 0, 0, 2.3, -1.7, 4.0], radius=5.0), GelConfig(), 1.0),
        (_tilted(Box, [0.4, -0.7, 0.2, -1.5, 2.5, 0.0],
                 half_extents=(4.0, 6.0, 3.0)), GelConfig(), 1.25),
        (_tilted(Pyramid, [0.3, 0.1, 0.5, 3.0, -2.0, 1.0],
                 base_half_length=12.0, height=8.0), GelConfig(), 1.0),
        (DEFAULT_SHAPES["cube"], GelConfig(width=40, height=70, extent_x=14.0,
                                           extent_y=26.0), 1.0),
        (_tilted(Pyramid, [0.2, -0.3, 0.0, 1.0, 4.0, 0.0]),
         GelConfig(width=40, height=70, extent_x=14.0, extent_y=26.0), 1.25),
        # Flat bottom face: hundreds of rays tie, the first row-major wins.
        (Box(half_extents=(5.0, 5.0, 5.0)), GelConfig(), 1.0),
        # The ray marched first, on the right, ties with the left rays, one
        # step apart: the first row-major ray wins.
        (_SplitFloor(-5.0, _exact, _capped), GelConfig(), 1.0),
        # A hit 0.2 um below the first ray's: the search must keep marching
        # the rays that may still reach below the best hit so far.
        (_SplitFloor(-5.0002, _capped, _exact), GelConfig(), 1.0),
        # The lowest point 0.1 mm short of the 120 mm search range.
        (_lifted_cube(), GelConfig(), 1.0),
    ], ids=["sphere", "cube", "pyramid", "pyramid-indent1", "offset-sphere",
            "tilted-box", "tilted-pyramid", "cube-tall-gel",
            "tilted-pyramid-tall-gel", "flat-box", "split-floor-tie",
            "split-floor-lower-late", "high-cube"])
    def test_matches_full_trace(self, shape, gel, indent):
        base = find_contact_base(shape, gel, indent)
        expected, _ = self._reference(shape, gel, indent)
        assert base.rotation.tobytes() == np.eye(3).tobytes()
        assert base.translation.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape, first", [
        (Box(half_extents=(5.0, 5.0, 5.0)), [-5.0, -5.0]),
        (_SplitFloor(-5.0, _exact, _capped), [-10.0, -10.0]),
    ], ids=["flat-box", "split-floor"])
    def test_tie_cases_tie(self, gel, shape, first):
        # The tie cases above decide between hundreds of rays at one height.
        expected, ties = self._reference(shape, gel, 1.0)
        assert ties > 100
        np.testing.assert_array_equal(expected, first + [-4.0])

    @pytest.mark.parametrize("name, max_iters", [
        ("sphere", 0), ("sphere", 1), ("pyramid", 7), ("pyramid", 8),
        ("cube", 8), ("cube", 9), ("cube", 11), ("cube", 12)])
    def test_iteration_cap(self, name, max_iters):
        # The lowest hit appears, or moves, at these caps.
        shape = DEFAULT_SHAPES[name]
        xs = np.linspace(-10.0, 10.0, 129)
        gx, gy = np.meshgrid(xs, xs)
        hit, z_surf = _full_grid_trace(shape, Pose.identity(), gx, gy, -60.0,
                                       120.0, max_iters=max_iters)
        heights = np.where(hit, z_surf, np.inf).ravel()
        expected = (int(np.nanargmin(heights)), heights.min()) if hit.any() else None
        assert _lowest_hit(shape, gx, gy, -60.0, 120.0,
                           max_iters=max_iters) == expected

    def test_no_surface_in_window(self, gel):
        far = Sphere(radius=2.0, offset=Pose(np.eye(3), np.array([50.0, 0, 0])))
        with pytest.raises(EpisodeGenerationError):
            find_contact_base(far, gel, 1.0)


class TestDepthToNormals:
    def test_zero_depth_unit_z(self, gel):
        depth = DepthImage(values=np.zeros((gel.height, gel.width)),
                           mask=np.zeros((gel.height, gel.width), dtype=bool))
        normals = depth_to_normals(depth, gel)
        np.testing.assert_allclose(normals.values[..., 2], 1.0, atol=1e-12)

    def test_planar_ramp_constant_normal(self, gel):
        a = 0.2
        xs, _ = gel.pixel_centers()
        depth = DepthImage(values=a * xs, mask=np.ones_like(xs, dtype=bool))
        normals = depth_to_normals(depth, gel)
        expected = np.array([a, 0.0, 1.0])
        expected /= np.linalg.norm(expected)
        interior = normals.values[1:-1, 1:-1]
        np.testing.assert_allclose(interior, np.broadcast_to(expected, interior.shape),
                                   atol=1e-9)

    def test_sphere_cap_normals_match_analytic(self, gel):
        r, d = 6.35, 1.0
        shape = centered_sphere(r, d)
        depth = render_depth(shape, Pose.identity(), Pose.identity(), gel)
        normals = depth_to_normals(depth, gel)
        xs, ys = gel.pixel_centers()
        rho = np.hypot(xs, ys)
        # Stay away from the cap rim where the depth kinks.
        core = depth.mask & (rho < 0.7 * np.sqrt(2 * r * d - d**2))
        pts = np.dstack([xs, ys, -depth.values])[core]
        center = np.array([0.0, 0.0, r - d])
        expected = center - pts
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        dots = np.einsum("ij,ij->i", normals.values[core], expected)
        assert np.degrees(np.arccos(np.clip(dots, -1, 1))).max() < 1.0

    def test_masked_normals_point_up(self, gel):
        depth = render_depth(centered_sphere(), Pose.identity(),
                             Pose.identity(), gel)
        normals = depth_to_normals(depth, gel)
        assert (normals.values[normals.mask][:, 2] > 0).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("gel", [
        GelConfig(), GelConfig(width=60, height=50, extent_x=17.0,
                               extent_y=13.0)], ids=["default", "odd_pitch"])
    def test_matches_whole_array_formula(self, gel, dtype):
        # The in-place channels give the bits and dtype of the plain form,
        # also for a pitch that float32 cannot hold.
        depth = render_depth(centered_sphere(), Pose.identity(),
                             Pose.identity(), gel)
        z = depth.values.astype(dtype)
        zy, zx = np.gradient(z, gel.pitch_y, gel.pitch_x)
        norm = np.sqrt(zx * zx + zy * zy + 1.0)
        expected = np.dstack([zx / norm, zy / norm, 1.0 / norm])
        normals = depth_to_normals(DepthImage(z, depth.mask), gel)
        assert normals.values.dtype == expected.dtype == dtype
        assert normals.values.tobytes() == expected.tobytes()

    def test_stack_equals_each_frame(self, gel):
        depth = sphere_depth_stack(gel)
        stack = depth_to_normals(depth, gel)
        assert stack.values.shape == depth.values.shape + (3,)
        for i in range(len(depth.values)):
            alone = depth_to_normals(
                DepthImage(depth.values[i], depth.mask[i]), gel)
            assert stack.values[i].tobytes() == alone.values.tobytes()
            np.testing.assert_array_equal(stack.mask[i], alone.mask)


def sphere_depth_stack(gel):
    """Depth of a sphere pressed at three sensor poses, the last of them
    off the object, so its frame has an empty mask."""
    slides = [Pose(np.eye(3), np.array(offset))
              for offset in ([0.0, 0.0, 0.0], [1.5, -0.5, 0.2], [30.0, 0, 0])]
    depth = render_depth(centered_sphere(), Pose.identity(),
                         Pose.stack(slides), gel)
    assert [m.any() for m in depth.mask] == [True, True, False]
    return depth


def perturbed_reference(normals, sigma, seed):
    """One image's perturbed values, computed as a copy with whole-array
    products, as `perturb_normals` did one image at a time."""
    out = normals.values.copy()
    if sigma == 0 or not normals.mask.any():
        return out
    rng = np.random.default_rng(seed)
    n = out[normals.mask]
    angles = np.abs(rng.normal(0.0, sigma, size=len(n)))
    phis = rng.uniform(0.0, 2.0 * np.pi, size=len(n))
    ref = np.zeros_like(n)
    ref[np.arange(len(n)), np.argmin(np.abs(n), axis=1)] = 1.0
    u = np.cross(n, ref)
    u /= np.linalg.norm(u, axis=1)[:, None]
    v = np.cross(n, u)
    axis = np.cos(phis)[:, None] * u + np.sin(phis)[:, None] * v
    rotated = (n * np.cos(angles)[:, None]
               + np.cross(axis, n) * np.sin(angles)[:, None])
    out[normals.mask] = rotated / np.linalg.norm(rotated, axis=1)[:, None]
    return out


class TestPerturbNormals:
    def _normals(self, gel):
        depth = render_depth(centered_sphere(), Pose.identity(),
                             Pose.identity(), gel)
        return depth_to_normals(depth, gel)

    def test_zero_sigma_identity(self, gel):
        normals = self._normals(gel)
        before = normals.values.copy()
        out = perturb_normals(normals, 0.0, seed=3)
        assert out is normals
        assert out.values.tobytes() == before.tobytes()

    def test_deterministic(self, gel):
        normals = self._normals(gel)
        a = perturb_normals(self._normals(gel), 0.05, seed=3)
        b = perturb_normals(normals, 0.05, seed=3)
        assert b is normals
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, self._normals(gel).values)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_stack_equals_each_frame(self, gel, sigma):
        # Frame i draws from its own seed over its own masked pixels, so a
        # stack, its empty frame included, perturbs as its frames alone.
        depth = sphere_depth_stack(gel)
        stack = depth_to_normals(depth, gel)
        frames = [depth_to_normals(DepthImage(d, m), gel)
                  for d, m in zip(depth.values, depth.mask)]
        # Python and numpy ints seed alike.
        seeds = [11, np.int64(12), 13]
        out = perturb_normals(stack, sigma, seeds)
        assert out is stack
        for i, frame in enumerate(frames):
            reference = perturbed_reference(frame, sigma, int(seeds[i]))
            alone = perturb_normals(frame, sigma, seed=int(seeds[i]))
            assert out.values[i].tobytes() == alone.values.tobytes() \
                == reference.tobytes()
            np.testing.assert_array_equal(out.mask[i], alone.mask)
        assert out.values[2].tobytes() == frames[2].values.tobytes()

    @pytest.mark.parametrize("seeds", [[1], [1, 2], [1, 2, 3, 4], 5])
    def test_seed_per_frame_required(self, gel, seeds):
        stack = depth_to_normals(sphere_depth_stack(gel), gel)
        with pytest.raises(ValueError, match="one seed per frame"):
            perturb_normals(stack, 0.05, seeds)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, gel, sigma):
        # NaN fails both the sign and the zero test, and would turn every
        # masked normal into NaN.
        with pytest.raises(ValueError, match="finite"):
            perturb_normals(self._normals(gel), sigma, seed=0)

    def test_half_normal_mean_angle(self):
        n = 10_000
        values = np.tile([0.0, 0.0, 1.0], (1, n, 1)).reshape(1, n, 3)
        from tactrack.render import NormalImage
        image = NormalImage(values=values.astype(float),
                            mask=np.ones((1, n), dtype=bool))
        sigma = 0.05
        out = perturb_normals(image, sigma, seed=7)
        dots = np.clip(out.values[0, :, 2], -1, 1)
        mean_angle = np.arccos(dots).mean()
        expected = np.sqrt(2.0 / np.pi) * sigma
        assert abs(mean_angle - expected) < 0.2 * expected

    def test_negative_sigma_rejected(self, gel):
        with pytest.raises(ValueError):
            perturb_normals(self._normals(gel), -0.1, seed=0)


class TestContactBorder:
    def test_empty_mask(self):
        assert not contact_touches_border(np.zeros((8, 8), dtype=bool))

    def test_interior_contact(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[3:5, 3:5] = True
        assert not contact_touches_border(mask)

    def test_edge_contact(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 4] = True
        assert contact_touches_border(mask)


class TestEpisodes:
    def test_stationary_zero_noise(self, gel):
        traj = TrajectorySpec(kind="linear", steps=3, indent=1.0, length=0.0)
        noise = NoiseSpec(normal_sigma=0.0, eff_sigma_rot=0.0,
                          eff_sigma_trans=0.0, vis_sigma_rot=0.0,
                          vis_sigma_trans=0.0)
        ep = generate_episode(Sphere(radius=6.35), traj, gel, noise, seed=0)
        assert len(ep.frames) == 3
        first = ep.frames[0]
        for fr in ep.frames:
            np.testing.assert_allclose(matrix(fr.eff_pose),
                                       matrix(first.eff_pose), atol=1e-12)
            np.testing.assert_allclose(matrix(fr.eff_measured),
                                       matrix(fr.eff_pose), atol=1e-12)
            np.testing.assert_array_equal(fr.normals.values,
                                          first.normals.values)
        np.testing.assert_allclose(matrix(ep.vision_prior),
                                   np.eye(4), atol=1e-12)

    def test_slide_moves_contact_centroid(self, gel):
        traj = TrajectorySpec(kind="linear", steps=20, indent=1.0, length=6.0)
        ep = generate_episode(Sphere(radius=6.35), traj, gel,
                              NoiseSpec(normal_sigma=0.0), seed=1)
        # The world-fixed contact drifts opposite the sensor slide in image
        # coordinates, monotonically.
        centroids = [np.argwhere(fr.normals.mask)[:, 1].mean()
                     for fr in ep.frames]
        diffs = np.diff(centroids)
        assert (diffs <= 1e-9).all() and centroids[0] - centroids[-1] > 3.0

    def test_relative_motions_compose_to_final(self, gel):
        traj = TrajectorySpec(kind="arc", steps=8, indent=1.0)
        ep = generate_episode(Sphere(radius=6.35), traj, gel, NoiseSpec(), seed=2)
        acc = ep.frames[0].eff_pose
        for prev, curr in zip(ep.frames, ep.frames[1:]):
            rel = geometry.compose(geometry.inverse(prev.eff_pose),
                                   curr.eff_pose)
            acc = geometry.compose(acc, rel)
        np.testing.assert_allclose(matrix(acc),
                                   matrix(ep.frames[-1].eff_pose), atol=1e-9)

    def test_masked_normals_heightfield(self, gel):
        ep = generate_episode(Pyramid(), TrajectorySpec(steps=4, indent=1.0),
                              gel, NoiseSpec(), seed=3)
        for fr in ep.frames:
            assert (fr.normals.values[fr.normals.mask][:, 2] > 0).all()

    def test_save_load_deterministic(self, gel, tmp_path):
        traj = TrajectorySpec(steps=4, indent=1.0, length=1.0)
        for run in ("a", "b"):
            ep = generate_episode(Sphere(radius=6.35), traj, gel,
                                  NoiseSpec(), seed=5)
            save_episode(ep, tmp_path / run)
        files_a = sorted(os.listdir(tmp_path / "a"))
        assert files_a == sorted(os.listdir(tmp_path / "b"))
        for name in files_a:
            with open(tmp_path / "a" / name, "rb") as fa, \
                 open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name
        loaded = load_episode(tmp_path / "a")
        assert len(loaded.frames) == len(ep.frames)
        np.testing.assert_allclose(matrix(loaded.vision_prior),
                                   matrix(ep.vision_prior), atol=1e-6)

    # Each stack is misshapen for the episode's 4 frames of 64 x 64.
    @pytest.mark.parametrize("name, shape", [
        pytest.param("mask.pgm", (4 * 64 - 32, 64), id="small_mask"),
        pytest.param("normals.pfm", (4 * 64, 64), id="one_channel_normals"),
        pytest.param("normals.pfm", (4 * 64, 32, 3), id="narrow_normals"),
        pytest.param("depth.pfm", (4 * 64, 65), id="wide_depth"),
    ])
    def test_load_rejects_a_misshapen_image(self, gel, tmp_path, name, shape):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=4, indent=1.0, length=1.0),
                              gel, NoiseSpec(), seed=5)
        assert len(ep.frames) == 4
        save_episode(ep, tmp_path)
        if name == "mask.pgm":
            imageio.write_pgm_mask(tmp_path / name, np.ones(shape, dtype=bool))
        else:
            imageio.write_pfm(tmp_path / name, np.ones(shape))
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / name))):
            load_episode(tmp_path)

    def test_contact_break_aborts(self, gel):
        # Sliding far off a small sphere loses contact for good.
        shape = Sphere(radius=2.0)
        with pytest.raises(EpisodeGenerationError,
                           match="consecutive steps at step 9$"):
            generate_episode(shape,
                             TrajectorySpec(steps=10, indent=0.5, length=15.0),
                             gel, NoiseSpec(), seed=0)

    def test_border_steps_dropped(self, gel):
        # An 8 mm slide carries the sphere's contact onto the image border
        # for its last three steps; only those are dropped, and every kept
        # frame holds the depth of its own pose rendered alone.
        shape = Sphere(radius=6.35)
        traj = TrajectorySpec(steps=12, indent=1.25, length=8.0)
        ep = generate_episode(shape, traj, gel, NoiseSpec(), seed=4)
        assert ep.dropped_steps == [9, 10, 11]
        kept = [round(fr.timestamp / traj.dt) for fr in ep.frames]
        assert kept == list(range(9))
        base = find_contact_base(shape, gel, traj.indent)
        for k in range(traj.steps):
            slide = Pose(np.eye(3), [8.0 * k / 11, 0.0, 0.0])
            depth = render_depth(shape, Pose.identity(),
                                 geometry.compose(slide, base), gel)
            assert contact_touches_border(depth.mask) == (k >= 9)
            if k < 9:
                assert ep.frames[k].depth_gt.values.tobytes() == \
                    depth.values.tobytes()

    def test_shared_slide_is_read_only_and_changes_nothing(self, gel):
        # A slide with dropped border steps serves two seeds' episodes:
        # each equals its episode generated alone, and the slide's arrays,
        # read-only, keep their values.
        shape = Sphere(radius=6.35)
        traj = TrajectorySpec(steps=12, indent=1.25, length=8.0)
        slide = render_slide(shape, traj, gel,
                             find_contact_base(shape, gel, traj.indent), 0.0)
        assert (slide.kept, slide.dropped) == (tuple(range(9)), (9, 10, 11))
        arrays = (slide.effs.rotation, slide.effs.translation,
                  slide.depths.values, slide.depths.mask,
                  slide.normals.values, slide.normals.mask)
        before = [a.copy() for a in arrays]
        assert not any(a.flags.writeable for a in arrays)
        for seed in (4, 5):
            shared = generate_episode(shape, traj, gel, NoiseSpec(), seed,
                                      slide=lambda direction: slide)
            alone = generate_episode(shape, traj, gel, NoiseSpec(), seed)
            assert shared.dropped_steps == alone.dropped_steps == [9, 10, 11]
            for a, b in zip(shared.frames, alone.frames):
                for x, y in ((a.normals.values, b.normals.values),
                             (a.depth_gt.values, b.depth_gt.values),
                             (a.eff_measured.translation,
                              b.eff_measured.translation)):
                    assert x.flags.writeable
                    assert x.tobytes() == y.tobytes()
        for a, b in zip(arrays, before):
            assert a.tobytes() == b.tobytes()

    def test_save_load_round_trip_is_bit_exact(self, gel, tmp_path):
        # The 8 mm slide drops steps 9-11, so the stack holds frames 0-8.
        # Every loaded frame is its rows of each stack and holds the float32
        # values of the generated frame; saving what was loaded writes the
        # same images again.
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=12, indent=1.25, length=8.0),
                              gel, NoiseSpec(), seed=4)
        assert ep.dropped_steps == [9, 10, 11]
        save_episode(ep, tmp_path / "a")
        assert sorted(os.listdir(tmp_path / "a")) == [
            "depth.pfm", "episode.json", "mask.pgm", "normals.pfm"]
        loaded = load_episode(tmp_path / "a")
        assert len(loaded.frames) == len(ep.frames) == 9
        assert loaded.dropped_steps == [9, 10, 11]
        for got, want in zip(loaded.frames, ep.frames):
            for image, reference in [(got.normals, want.normals),
                                     (got.depth_gt, want.depth_gt)]:
                assert image.values.dtype == np.float32
                assert image.values.tobytes() == \
                    reference.values.astype(np.float32).tobytes()
                assert image.mask.dtype == bool
                assert image.mask.tobytes() == want.normals.mask.tobytes()
        save_episode(loaded, tmp_path / "b")
        for name in ("depth.pfm", "mask.pgm", "normals.pfm"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_loaded_poses_parse_as_each_frame(self, gel, tmp_path):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(kind="arc", steps=6, indent=1.0),
                              gel, NoiseSpec(), seed=6)
        save_episode(ep, tmp_path)
        meta = json.loads((tmp_path / "episode.json").read_text())
        loaded = load_episode(tmp_path)
        for frame, values in zip(loaded.frames, meta["frames"]):
            for kind in POSE_KINDS:
                want = geometry.from_quat_trans(values[kind])
                got = getattr(frame, kind)
                assert got.rotation.tobytes() == want.rotation.tobytes()
                assert got.translation.tobytes() == want.translation.tobytes()

    @pytest.mark.parametrize("frames, value", [
        ([2], [0] * 7), ([2], [1, 0, 0]), ([2], "pose"), ([2], None),
        ([2], [[1, 0, 0, 0, 0, 0, 0]]), ([2, 3], [[1, 0, 0, 0, 0, 0, 0]]),
        ([0, 1, 2, 3], [[1, 0, 0, 0, 0, 0, 0]]), ([2, 3], 1)],
        ids=["zero", "short", "text", "null", "nested", "two_nested",
             "all_nested", "numbers"])
    def test_load_names_the_first_bad_pose(self, gel, tmp_path, frames, value):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=4, indent=1.0, length=1.0),
                              gel, NoiseSpec(), seed=5)
        save_episode(ep, tmp_path)
        meta = json.loads((tmp_path / "episode.json").read_text())
        for i in frames:
            meta["frames"][i]["eff_pose"] = value
        (tmp_path / "episode.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigError, match=re.escape(
                f"episode frame {frames[0]} eff_pose must be 7 finite")):
            load_episode(tmp_path)

    @pytest.mark.parametrize("where, edited", [
        ("episode frame 0",
         lambda meta: {**meta, "frames": [1] + meta["frames"][1:]}),
        ("episode frame 2", lambda meta: {
            **meta, "frames": meta["frames"][:2] + [None]
            + meta["frames"][3:]}),
        ("episode", lambda meta: meta["frames"])],
        ids=["int_frame", "null_frame", "list_episode"])
    def test_load_rejects_an_entry_that_is_not_a_mapping(self, gel, tmp_path,
                                                        where, edited):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=4, indent=1.0, length=1.0),
                              gel, NoiseSpec(), seed=5)
        save_episode(ep, tmp_path)
        meta = json.loads((tmp_path / "episode.json").read_text())
        (tmp_path / "episode.json").write_text(json.dumps(edited(meta)))
        with pytest.raises(ConfigError, match=re.escape(
                f"{where} must be a mapping, got ")):
            load_episode(tmp_path)

    def test_depth_is_optional_per_episode(self, gel, tmp_path):
        ep = generate_episode(Sphere(radius=6.35),
                              TrajectorySpec(steps=4, indent=1.0, length=1.0),
                              gel, NoiseSpec(), seed=5)
        for frame in ep.frames:
            frame.depth_gt = None
        save_episode(ep, tmp_path)
        assert not (tmp_path / "depth.pfm").exists()
        assert all(fr.depth_gt is None for fr in load_episode(tmp_path).frames)
        ep.frames[0].depth_gt = DepthImage(values=np.zeros((64, 64)),
                                           mask=ep.frames[0].normals.mask)
        with pytest.raises(ValueError, match="every frame or none"):
            save_episode(ep, tmp_path / "mixed")
        assert not (tmp_path / "mixed").exists()

    def test_too_few_steps_rejected(self):
        # The spec itself refuses, so no episode can be asked for.
        with pytest.raises(ValueError, match="steps"):
            TrajectorySpec(steps=2, indent=1.0)

    @pytest.mark.parametrize("name, value", [
        ("steps", 3.5), ("indent", True), ("length", True),
        ("direction_deg", True), ("arc_radius", True),
        ("arc_angle_deg", True), ("spin_deg", True), ("dt", True)])
    def test_mistyped_trajectory_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrajectorySpec(**{name: value})

    @pytest.mark.parametrize("name", [
        "normal_sigma", "eff_sigma_rot", "eff_sigma_trans", "vis_sigma_rot",
        "vis_sigma_trans"])
    def test_bool_noise_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            NoiseSpec(**{name: True})
