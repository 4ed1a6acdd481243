"""Poisson depth integration and point cloud unprojection."""

import numpy as np
import pytest

from tactrack.geometry import Pose
from tactrack.reconstruct import (GradientField, depth_to_pointcloud, dst2,
                                  idst2, normals_to_gradients, poisson_solve,
                                  reconstruct_cloud)
from tactrack.render import (DepthImage, GelConfig, NormalImage,
                             depth_to_normals, render_depth)
from tactrack.shapes import Sphere

from .test_render import centered_sphere


class TestNormalsToGradients:
    def test_flat_gel_zero_gradients(self):
        values = np.zeros((8, 8, 3))
        values[..., 2] = 1.0
        grad = normals_to_gradients(NormalImage(values, np.zeros((8, 8), bool)))
        assert (grad.p == 0).all() and (grad.q == 0).all()

    def test_algebraic_inversion(self):
        a = 0.3
        n = np.array([-a, 0.0, 1.0])
        n /= np.linalg.norm(n)
        values = np.tile(n, (8, 8, 1))
        mask = np.ones((8, 8), bool)
        grad = normals_to_gradients(NormalImage(values, mask))
        np.testing.assert_allclose(grad.p, -a, atol=1e-12)
        np.testing.assert_allclose(grad.q, 0.0, atol=1e-12)

    def test_grazing_normals_clamped(self):
        values = np.tile([0.5, 0.0, 0.01], (4, 4, 1)).astype(float)
        grad = normals_to_gradients(NormalImage(values, np.ones((4, 4), bool)))
        np.testing.assert_allclose(grad.p, 0.5 / 0.05, atol=1e-12)


class TestDst:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 16))
        np.testing.assert_allclose(idst2(dst2(x)), x, atol=1e-10)

    def test_single_mode_isolated(self):
        m = n = 12
        k, l = 3, 5
        u = np.arange(1, m + 1)[:, None]
        v = np.arange(1, n + 1)[None, :]
        field = np.sin(np.pi * k * u / (m + 1)) * np.sin(np.pi * l * v / (n + 1))
        coeffs = dst2(field)
        peak = abs(coeffs[k - 1, l - 1])
        others = np.abs(coeffs).sum() - peak
        assert peak > 1.0
        assert others < 1e-8 * peak

    def test_zero_maps_to_zero(self):
        assert (dst2(np.zeros((4, 4))) == 0).all()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            dst2(np.zeros((1, 5)))


class TestPoissonSolve:
    def test_zero_gradients_zero_depth(self):
        grad = GradientField(p=np.zeros((16, 16)), q=np.zeros((16, 16)),
                             mask=np.zeros((16, 16), bool))
        depth = poisson_solve(grad, pixel_pitch=0.5)
        np.testing.assert_allclose(depth.values, 0.0, atol=1e-10)

    def test_spherical_cap_rmse(self, gel):
        r, d = 6.35, 1.0
        depth_gt = render_depth(centered_sphere(r, d), Pose.identity(),
                                Pose.identity(), gel)
        normals = depth_to_normals(depth_gt, gel)
        grad = normals_to_gradients(normals)
        depth = poisson_solve(grad, gel.pitch_x)
        err = depth.values[depth_gt.mask] - depth_gt.values[depth_gt.mask]
        rmse = np.sqrt(np.mean(err**2))
        assert rmse < 0.02 * d

    def test_planar_ramp_slope(self):
        # A hip-roof imprint: four planar ramp faces meeting at a ridge,
        # falling continuously to zero at the contact rim so the gradient
        # field is integrable.
        a = 0.15
        h = 0.3
        shape = (48, 48)
        ys, xs = np.mgrid[0:shape[0], 0:shape[1]].astype(float) * h
        x0, x1 = 8 * h, 40 * h
        y0, y1 = 8 * h, 40 * h
        z_true = np.maximum(0.0, a * np.minimum.reduce(
            [xs - x0, x1 - xs, ys - y0, y1 - ys]))
        q, p = np.gradient(z_true, h, h)
        mask = z_true > 0
        grad = GradientField(p=p, q=q, mask=mask)
        depth = poisson_solve(grad, pixel_pitch=h)
        # Plane-fit the interior of the +x-facing ramp face.
        face = (xs - x0 + 2 * h < np.minimum.reduce(
            [x1 - xs, ys - y0, y1 - ys])) & (xs - x0 > 2 * h)
        A = np.column_stack([xs[face], ys[face], np.ones(face.sum())])
        coef, *_ = np.linalg.lstsq(A, depth.values[face], rcond=None)
        assert abs(coef[0] - a) < 0.01 * abs(a)

    def test_solution_satisfies_poisson_equation(self, gel):
        depth_gt = render_depth(centered_sphere(), Pose.identity(),
                                Pose.identity(), gel)
        grad = normals_to_gradients(depth_to_normals(depth_gt, gel))
        h = gel.pitch_x
        depth = poisson_solve(grad, h)
        z = depth.values
        lap = (z[1:-1, :-2] + z[1:-1, 2:] + z[:-2, 1:-1] + z[2:, 1:-1]
               - 4.0 * z[1:-1, 1:-1]) / h**2
        div = (np.gradient(grad.p, h, axis=1)
               + np.gradient(grad.q, h, axis=0))[1:-1, 1:-1]
        assert np.linalg.norm(lap - div) < 1e-8 * np.linalg.norm(div)

    @pytest.mark.parametrize("pitch", [0.5, (0.03, 0.04)])
    def test_same_bits_as_full_gradient_divergence(self, pitch):
        # The solve takes the divergence on the interior only; as first
        # written it took np.gradient over the whole image and cut the
        # border off, the same arithmetic on the interior.
        rng = np.random.default_rng(5)
        p, q = rng.normal(size=(2, 20, 27))
        mask = rng.uniform(size=(20, 27)) < 0.5
        depth = poisson_solve(GradientField(p=p, q=q, mask=mask), pitch)
        hx, hy = np.broadcast_to(pitch, 2)
        rhs = (np.gradient(p, hx, axis=1)
               + np.gradient(q, hy, axis=0))[1:-1, 1:-1]
        m, n = rhs.shape
        u, v = np.arange(1, m + 1), np.arange(1, n + 1)
        eig = ((2.0 * np.cos(np.pi * u / (m + 1)) - 2.0)[:, None]
               * (hx / hy)**2
               + (2.0 * np.cos(np.pi * v / (n + 1)) - 2.0)[None, :]) / hx**2
        z = np.zeros_like(p)
        z[1:-1, 1:-1] = idst2(dst2(rhs) / eig)
        z += -z[~mask].mean()
        np.testing.assert_array_equal(depth.values, z)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3)])
    def test_under_4x4_rejected(self, shape):
        # A 3-pixel side leaves a 1-pixel interior, too small for the DST.
        grad = GradientField(p=np.zeros(shape), q=np.zeros(shape),
                             mask=np.zeros(shape, bool))
        with pytest.raises(ValueError, match="at least 4x4 pixels"):
            poisson_solve(grad, 0.5)
        poisson_solve(GradientField(p=np.zeros((4, 4)), q=np.zeros((4, 4)),
                                    mask=np.zeros((4, 4), bool)), 0.5)

    def test_non_finite_rejected(self):
        p = np.zeros((8, 8))
        p[4, 4] = np.nan
        grad = GradientField(p=p, q=np.zeros((8, 8)), mask=np.ones((8, 8), bool))
        with pytest.raises(ValueError):
            poisson_solve(grad, 0.5)


class TestDepthToPointcloud:
    def test_single_center_pixel(self):
        gel = GelConfig(width=4, height=4, extent_x=4.0, extent_y=4.0)
        values = np.zeros((4, 4))
        mask = np.zeros((4, 4), bool)
        # Pixel centers sit at +-0.5 and +-1.5; there is no exact center
        # pixel on an even grid, so use (row 2, col 2) at (+0.5, +0.5).
        values[2, 2] = 0.7
        mask[2, 2] = True
        normals = np.zeros((4, 4, 3))
        normals[..., 2] = 1.0
        cloud = depth_to_pointcloud(DepthImage(values, mask),
                                    NormalImage(normals, mask), gel)
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [0.5, 0.5, -0.7],
                                   atol=1e-12)

    def test_flat_patch_coplanar(self, gel):
        values = np.full((gel.height, gel.width), 0.5)
        mask = np.zeros((gel.height, gel.width), bool)
        mask[20:40, 20:40] = True
        normals = np.zeros((gel.height, gel.width, 3))
        normals[..., 2] = 1.0
        cloud = depth_to_pointcloud(DepthImage(values, mask),
                                    NormalImage(normals, mask), gel)
        assert len(cloud) == mask.sum()
        np.testing.assert_allclose(cloud.points[:, 2], -0.5, atol=1e-9)

    def test_dimension_mismatch_rejected(self, gel):
        values = np.zeros((8, 8))
        mask = np.zeros((8, 8), bool)
        normals = np.zeros((16, 16, 3))
        with pytest.raises(ValueError):
            depth_to_pointcloud(DepthImage(values, mask),
                                NormalImage(normals, np.zeros((16, 16), bool)),
                                gel)


class TestReconstructCloud:
    def test_roundtrip_depth_recovery(self, gel):
        depth_gt = render_depth(centered_sphere(), Pose.identity(),
                                Pose.identity(), gel)
        normals = depth_to_normals(depth_gt, gel)
        depth, cloud = reconstruct_cloud(normals, gel)
        assert len(cloud) == depth_gt.mask.sum()
        err = depth.values[depth_gt.mask] - depth_gt.values[depth_gt.mask]
        assert np.sqrt(np.mean(err**2)) < 0.02 * depth_gt.values.max()

    @pytest.mark.parametrize("extent_x, extent_y", [(20.0, 10.0), (10.0, 20.0)])
    def test_anisotropic_pitch_depth_recovery(self, extent_x, extent_y):
        gel = GelConfig(extent_x=extent_x, extent_y=extent_y)
        depth_gt = render_depth(centered_sphere(), Pose.identity(),
                                Pose.identity(), gel)
        depth, _ = reconstruct_cloud(depth_to_normals(depth_gt, gel), gel)
        err = depth.values[depth_gt.mask] - depth_gt.values[depth_gt.mask]
        assert np.sqrt(np.mean(err**2)) < 0.03

    def test_empty_mask_empty_cloud(self, gel):
        values = np.zeros((gel.height, gel.width, 3))
        values[..., 2] = 1.0
        normals = NormalImage(values, np.zeros((gel.height, gel.width), bool))
        _, cloud = reconstruct_cloud(normals, gel)
        assert len(cloud) == 0
