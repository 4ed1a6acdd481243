"""Local patch map: fusion of keyframe sensor clouds into an object-frame
cloud, downsampled on a voxel grid to one centroid and one mean normal per
occupied voxel of `VOXEL_SIZE`.  The tracker fuses all its keyframes in one
call, at the final pose estimates; the map is an output, not a registration
target."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .reconstruct import PointCloud

VOXEL_SIZE = 0.3   # mm


def _voxel_downsample(points, normals, voxel: float):
    # Voxels are numbered in x, then y, then z order of their integer keys,
    # and each voxel's sums add its points in input order.
    keys = np.floor(points / voxel).astype(np.int64)
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    m = int(starts.sum())
    counts = np.bincount(inverse, minlength=m)
    centroids = np.column_stack([np.bincount(inverse, points[:, k], m)
                                 for k in range(3)])
    mean_normals = np.column_stack([np.bincount(inverse, normals[:, k], m)
                                    for k in range(3)])
    centroids /= counts[:, None]
    norms = np.linalg.norm(mean_normals, axis=1, keepdims=True)
    norms[norms < 1e-9] = 1.0
    mean_normals /= norms
    return centroids, mean_normals


@dataclass
class PatchMap:
    """Fused object-frame cloud of keyframes."""

    cloud: PointCloud = None

    def __post_init__(self):
        if self.cloud is None:
            self.cloud = PointCloud(points=np.zeros((0, 3)),
                                    normals=np.zeros((0, 3)), frame="object")

    def is_empty(self) -> bool:
        return len(self.cloud) == 0


def fuse_keyframe(keyframes: list[tuple[PointCloud, Pose]]) -> PatchMap:
    """Transform the sensor-frame cloud of each (cloud, object_from_sensor)
    pair of `keyframes` into the object frame and voxel-downsample them in
    one pass (centroid per voxel, normals averaged and renormalized): the
    patch is the plain voxel mean of all keyframe points."""
    points, normals = [np.zeros((0, 3))], [np.zeros((0, 3))]
    for cloud, object_from_sensor in keyframes:
        if cloud.frame != "sensor":
            raise ValueError(f"expected a sensor-frame cloud, got {cloud.frame!r}")
        moved = cloud.transformed(object_from_sensor, frame="object")
        points.append(moved.points)
        normals.append(moved.normals)
    points, normals = _voxel_downsample(np.vstack(points), np.vstack(normals),
                                        VOXEL_SIZE)
    return PatchMap(cloud=PointCloud(points=points, normals=normals,
                                     frame="object"))
