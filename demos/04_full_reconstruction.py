"""
Completing a broken track: the full bundle adjustment
=====================================================

The headline capability: under heavy dropout, most epochs cannot be posed
from their own frame, yet the global adjustment -- reprojection
residuals in all cameras plus the cubic motion-track smoothness constraint
-- recovers a complete, accurate 6-DoF trajectory. We compare the per-frame
baseline against the full solve and write the plot artifacts.
"""

import os

import numpy as np

from mousetrack3d import adjustment, evaluation, simulator

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

# -- a hard scene: 75% random dropout ----------------------------------------------

config = simulator.SceneConfig(
    cameras=simulator.default_cameras(), seed=11, n_epochs=150,
    step_sigma_mm=0.5, noise_sigma_px=0.5, deformation_enabled=False,
    occlusion=simulator.OcclusionConfig(random_dropout_rate=0.75))
dataset = simulator.simulate(config)

# the per-frame rule of `adjustment.initialize` (and of the report's input
# completeness): a pose needs >= 3 parts that >= 2 cameras see
deficient = (dataset.visible.sum(axis=1) >= 2).sum(axis=1) < 3
print(f"{dataset.n_epochs} epochs; {deficient.sum()} "
      f"({100 * deficient.mean():.0f}%) are per-frame unsolvable")

# -- per-frame baseline ----------------------------------------------------------------

init = adjustment.initialize(dataset)
local = sum(f == "local" for f in init.solved_from)
print(f"\nper-frame baseline poses {local} epochs, "
      f"interpolates the remaining {dataset.n_epochs - local}")

# -- global adjustment -------------------------------------------------------------------

track, report = adjustment.solve_dataset(
    dataset,
    stochastic=adjustment.StochasticConfig(smoothness_weight=0.1))
print(f"\nbundle adjustment: {report.status} after {report.iterations} "
      f"iterations, cost {report.initial_cost:.4g} -> {report.final_cost:.4g}")
print(f"reprojection RMS {report.reprojection_rms_px:.3f} px, "
      f"smoothness RMS {report.smoothness_rms_mm:.3f} mm")

# -- against ground truth ----------------------------------------------------------------

result = evaluation.evaluate(track, dataset)
errs = result.position_error_mm
print(f"\nposition RMSE, all epochs:        "
      f"{np.sqrt((errs ** 2).mean()):.2f} mm")
print(f"position RMSE, observed epochs:   "
      f"{np.sqrt((errs[~deficient] ** 2).mean()):.2f} mm")
print(f"position RMSE, deficient epochs:  "
      f"{np.sqrt((errs[deficient] ** 2).mean()):.2f} mm")
print(f"completeness: {result.completeness_input:.2f} (input) -> "
      f"{result.completeness_output:.2f} (output)")

# -- artifacts -----------------------------------------------------------------------------

written = evaluation.plot(track, dataset, OUT)
adjustment.save_track(track, os.path.join(OUT, "demo_track.json"))
print("\nwrote:")
for path in written + [os.path.join(OUT, "demo_track.json")]:
    print(f"  {path}")
