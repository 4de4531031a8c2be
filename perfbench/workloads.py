"""The benchmark's workloads: which scenes are simulated and how each is solved.

Every workload solves a fixed set of recordings taken from the acceptance
criteria. The scenes are fixed, not drawn from the workload seed, because
the number of Levenberg-Marquardt iterations is erratic across statistically
identical scenes: criterion-9 scenes (T=500, 20% dropout) with seeds 0-8
take 5 to 94 iterations. A run fits only a few such solves, so seed-drawn
scenes would make a run's timing swing by more than any bound the
benchmark may set. The workload seed orders the recordings within a
pass instead. The fixed sets keep the scenes that end at the iteration cap
(criterion-5 seed 3), so that defect stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mousetrack3d import simulator
from mousetrack3d.adjustment import StochasticConfig


@dataclass(frozen=True)
class Workload:
    """Scenes to simulate and the solve applied to each recording."""

    name: str
    recordings: tuple               # (label, SceneConfig), solved every pass
    mode: str = "rigid"             # solve_dataset mode
    stochastic: StochasticConfig = StochasticConfig()
    training: tuple = ()            # (label, SceneConfig) the LSTM trains on
    train_epochs: int = 0

    def ordered(self, seed):
        """Recordings in the pass order the workload seed gives."""
        order = np.random.default_rng(seed).permutation(len(self.recordings))
        return [self.recordings[j] for j in order]


def _scene(**kw):
    return simulator.SceneConfig(cameras=simulator.default_cameras(), **kw)


def _rigid_long(smoke):
    # criterion 9: one long, lightly occluded recording; stresses the LM core
    # at scale (Jacobian, assembly, linear solve) and dataset IO
    T = 40 if smoke else 500
    scene = _scene(seed=0, n_epochs=T, noise_sigma_px=0.5,
                   occlusion=simulator.OcclusionConfig(random_dropout_rate=0.2))
    return Workload("rigid-long", (("c9-seed0", scene),))


def _occluded_batch(smoke):
    # criterion 5: short recordings with 75% dropout, where ~30% of epochs
    # cannot be posed locally; iteration counts range from 8 to the cap
    T, seeds = (30, (0, 1)) if smoke else (100, (0, 1, 2, 3))
    recs = tuple(
        (f"c5-seed{s}",
         _scene(seed=s, n_epochs=T, step_sigma_mm=0.5, noise_sigma_px=0.5,
                deformation_enabled=False,
                occlusion=simulator.OcclusionConfig(random_dropout_rate=0.75)))
        for s in seeds)
    return Workload("occluded-batch", recs,
                    stochastic=StochasticConfig(smoothness_weight=0.1))


def _deformed_gait(smoke):
    # criterion 6: train the deformation LSTM once, then solve gait
    # recordings in deformed mode (offset prediction alternating with LM)
    T_train, T, seeds, epochs = ((40, 30, (0,), 2) if smoke
                                 else (300, 120, (0, 1, 2), 200))

    def gait(seed, n):
        return _scene(seed=seed, n_epochs=n, step_sigma_mm=1.5,
                      noise_sigma_px=0.5)

    return Workload(
        "deformed-gait",
        tuple((f"c6-seed{s}", gait(s, T)) for s in seeds),
        mode="deformed",
        training=tuple((f"c6-train{s}", gait(s, T_train)) for s in (100, 101)),
        train_epochs=epochs)


_BUILDERS = {"rigid-long": _rigid_long, "occluded-batch": _occluded_batch,
             "deformed-gait": _deformed_gait}


def build(name, smoke=False) -> Workload:
    """The named workload, at full size or at the tiny smoke-test size."""
    return _BUILDERS[name](smoke)
