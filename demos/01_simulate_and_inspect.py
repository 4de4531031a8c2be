"""
Simulating a mouse run and inspecting the raw material
======================================================

A ground-truth scene: the model mouse walks a Brownian path on the table
plane while three calibrated cameras watch from above, the side, and the
front. Every body part is projected into every camera with pixel noise and
random dropout, which is exactly the kind of incomplete 2D material the
solver later has to work from.
"""

import os

import numpy as np

from mousetrack3d import mouse_model, simulator

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# -- the body model -----------------------------------------------------------

print("rigid body parts (model frame, mm):")
for pid, (name, xyz) in enumerate(zip(mouse_model.PART_NAMES, mouse_model.COORDS)):
    print(f"  {pid}  {name:16s} {xyz}")

# -- a scene with noise and occlusion ------------------------------------------

config = simulator.SceneConfig(
    cameras=simulator.default_cameras(),
    seed=7,
    n_epochs=300,
    step_sigma_mm=1.5,
    noise_sigma_px=0.5,
    occlusion=simulator.OcclusionConfig(random_dropout_rate=0.3),
)
dataset = simulator.simulate(config)

counts = dataset.visible.sum(axis=2)           # (epochs, cameras)
deficient = (counts < 3).all(axis=1)
print(f"\n{dataset.n_epochs} epochs, {len(dataset.cameras)} cameras")
print(f"observations kept: {dataset.visible.sum()} of "
      f"{dataset.visible.size} candidates")
print(f"mean visible parts per camera view: {counts.mean():.2f}")
print(f"epochs with < 3 visible parts in every camera: "
      f"{deficient.sum()} ({100 * deficient.mean():.1f}%)")
print("these epochs cannot be posed from a single frame alone.")

# -- gait deformation on top of the rigid body ---------------------------------

amp = np.abs(dataset.deform_offsets[:, :, 1]).max()
print(f"\npeak paw stride offset in this run: {amp:.1f} mm")
print("paw offsets at epochs 0..9 (left front paw, model-frame Y, mm):")
print(np.round(dataset.deform_offsets[:10, mouse_model.LEFT_FRONT_PAW, 1], 2))

# -- persist for the other demos ------------------------------------------------

path = os.path.join(OUT, "demo_dataset.json")
simulator.export_dataset(dataset, path)
print(f"\ndataset written to {path}")
