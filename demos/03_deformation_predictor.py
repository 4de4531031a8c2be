"""
Learning the gait: the body-part deformation predictor
======================================================

The pace gait moves the paws in a regular pattern, so the deformation of the
masked mid-epoch can be predicted from the surrounding epochs. This demo
trains the recurrent sequence model on simulated gait data and compares its
prediction error against the rigid baseline that simply assumes no
deformation.
"""

from mousetrack3d import deform_predictor, simulator


def gait_dataset(seed, n_epochs=300):
    return simulator.simulate(simulator.SceneConfig(
        cameras=simulator.default_cameras(), seed=seed, n_epochs=n_epochs,
        step_sigma_mm=1.5, noise_sigma_px=0.5))


# -- training material -----------------------------------------------------------

train_sets = [gait_dataset(100), gait_dataset(101)]
held_out = gait_dataset(102)
print(f"training on {sum(d.n_epochs for d in train_sets)} epochs "
      f"of simulated gait, holding out an unseen run")

# -- tokenization: what the model actually sees ------------------------------------

# every window of a recording at once: (windows, 2n+1 epochs, 8 parts, xyz)
# model-frame offsets from the rigid model, 0 where masked; window w is
# centred at epoch w + n
n = deform_predictor.WINDOW
offsets, masked, _ = deform_predictor.training_windows([train_sets[0]])
window = masked[10 - n]
print(f"\ntoken window: {window.size} tokens over "
      f"{len(window)} epochs x 8 parts; "
      f"{int(window.sum())} masked (the mid epoch plus dropouts)")

# -- train -------------------------------------------------------------------------

model, losses = deform_predictor.train(train_sets, epochs=200, seed=0)
print(f"\nloss curve: {losses[0]:.4f} -> {losses[-1]:.4f} "
      f"over {len(losses)} training epochs")
print(f"offsets enter and leave the network in units of "
      f"{model.offset_scale:.2f} mm (the training targets' spread)")

# -- held-out evaluation -------------------------------------------------------------

mse, baseline = deform_predictor.evaluate_mse(model, [held_out])
print(f"\nheld-out masked-part MSE: {mse:.3f} mm^2 per coordinate")
print(f"rigid baseline (assume zero offsets): {baseline:.3f} mm^2")
print(f"improvement factor: {baseline / mse:.2f}x")

# -- a single prediction, part by part ------------------------------------------------

t = 23   # mid-swing (cycle length 10, so phase 0.3)
offsets, masked, _ = deform_predictor.training_windows([held_out])
w = slice(t - n, t - n + 1)   # the window centred at t
pred_offsets = model.predict(offsets[w], masked[w])[0]
true_offsets = held_out.deform_offsets[t]
print(f"\nmid-epoch offset prediction at t={t} (model-frame Y, mm):")
for i in range(8):
    print(f"  part {i}: predicted {pred_offsets[i, 1]:7.2f}   "
          f"true {true_offsets[i, 1]:7.2f}")
