"""
Camera geometry round-trips
===========================

The geometric core of the pipeline: projecting 3D points through calibrated
cameras, recovering a camera from a projection matrix, resecting a camera
pose from point correspondences, and triangulating a 3D point back out of
two views. Each operation is demonstrated as a round-trip against values we
control exactly.
"""

import numpy as np

from mousetrack3d import geometry

rng = np.random.default_rng(0)

# -- projection through a known camera ------------------------------------------

K = np.array([[1500.0, 0.0, 640.0],
              [0.0, 1500.0, 512.0],
              [0.0, 0.0, 1.0]])
pose = geometry.RigidTransform(
    geometry.rodrigues_to_matrix(np.array([0.1, -0.2, 0.3])),
    np.array([10.0, -5.0, 800.0]))
cam = geometry.CameraModel(K, pose)

X = np.array([25.0, -40.0, 60.0])
px = geometry.project(cam, X)
print(f"point {X} projects to pixel ({px[0]:.2f}, {px[1]:.2f})")

# -- decompose a projection matrix back into K, R, t ------------------------------

P = cam.projection_matrix() * -3.7      # arbitrary homogeneous scale
rec = geometry.decompose_projection(P)
print("\ndecomposition of a scaled projection matrix:")
print(f"  calibration recovered to {np.abs(rec.calibration - K).max():.2e}")
print(f"  rotation recovered to "
      f"{np.abs(rec.pose_global.rotation - pose.rotation).max():.2e}")

# -- resection: pose from 3D-2D correspondences ----------------------------------

points = [(Xi, geometry.project(cam, Xi))
          for Xi in rng.normal(scale=80, size=(10, 3)) + [0, 0, 100]]
resected, rms = geometry.resect(points)
print(f"\nresection from 10 noiseless correspondences: "
      f"reprojection RMS {rms:.2e} px")

# -- triangulation from two views --------------------------------------------------

R90 = geometry.rodrigues_to_matrix(np.array([0.0, np.pi / 2, 0.0]))
cam_b = geometry.CameraModel(K, geometry.RigidTransform(
    R90, np.array([0.0, 0.0, 900.0])))
cam_a = geometry.CameraModel(K, geometry.RigidTransform(
    np.eye(3), np.array([0.0, 0.0, 900.0])))
target = np.array([12.0, 34.0, -8.0])
# one point seen by both cameras: pixels (points, cameras, 2), visibility
pixels = np.array([[geometry.project(cam_a, target),
                    geometry.project(cam_b, target)]])
rec, ok = geometry.triangulate_batch([cam_a, cam_b], pixels,
                                     np.ones((1, 2), bool))
print(f"\ntriangulated {target} back to within "
      f"{np.abs(rec[0] - target).max():.2e} mm (accepted: {bool(ok[0])})")

# -- rodrigues algebra --------------------------------------------------------------

r = np.array([0.0, 0.0, np.pi / 2])
v = geometry.rodrigues_to_matrix(r) @ np.array([1.0, 0.0, 0.0])
print(f"\nquarter turn about z maps x-axis to {np.round(v, 12)}")
roundtrip = geometry.matrix_to_rodrigues(geometry.rodrigues_to_matrix(
    np.array([0.7, -0.4, 1.1])))
print(f"rodrigues round-trip error "
      f"{np.abs(roundtrip - [0.7, -0.4, 1.1]).max():.2e}")
