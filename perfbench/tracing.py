"""Spans around the library's public calls, recorded from outside.

`Tracer.installed()` replaces each function in `TRACED` by a wrapper that
records one span per call: (name, start, end, parent span index, recording
id). Spans are kept in memory and written out by the caller at the end of a
run. The library itself is not changed: its modules look these names up at
call time, so the wrappers also see the calls the library makes internally.

`mouse_model` and `track_constraint` run only inside `simulator.simulate`
and `adjustment.Problem`, and `cli` only parses arguments, so none of them
gets spans of its own.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from mousetrack3d import adjustment, deform_predictor, geometry, simulator

# (object holding the function, attribute, span name); the span name's first
# component is the layer
TRACED = (
    (simulator, "simulate", "simulator.simulate"),
    (simulator, "export_dataset", "simulator.export_dataset"),
    (simulator, "import_dataset", "simulator.import_dataset"),
    (geometry, "triangulate_linear", "geometry.triangulate_linear"),
    (geometry, "rotation_point_jacobians", "geometry.rotation_point_jacobians"),
    (adjustment, "initialize", "adjustment.initialize"),
    (adjustment, "build_problem", "adjustment.build_problem"),
    (adjustment, "predict_offsets", "adjustment.predict_offsets"),
    (adjustment, "solve", "adjustment.solve"),
    (adjustment.Problem, "jacobian", "adjustment.Problem.jacobian"),
    (adjustment.Problem, "residuals", "adjustment.Problem.residuals"),
    (adjustment, "save_track", "adjustment.save_track"),
    (deform_predictor, "train", "deform_predictor.train"),
    (deform_predictor, "training_windows", "deform_predictor.training_windows"),
    (deform_predictor.SequenceModel, "forward",
     "deform_predictor.SequenceModel.forward"),
    (deform_predictor.SequenceModel, "backward",
     "deform_predictor.SequenceModel.backward"),
)


class Tracer:
    """In-memory span recorder plus the counters read from call results."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, recording]
        self.recording = None      # "<phase>:<unit>[:<label>]"
        self.counters = defaultdict(float)   # (phase, key) -> total
        self._stack = []
        self._costs = []           # residual costs seen in the current solve

    @property
    def phase(self):
        return self.recording.split(":", 1)[0]

    def _count(self, key, value):
        self.counters[self.phase, key] += value

    # -- observers of call results ---------------------------------------

    def _after_initialize(self, args, track):
        self._count("local_epochs", track.solved_from.count("local"))
        self._count("epochs", track.n_epochs)

    def _before_solve(self, args):
        self._costs = []

    def _after_residuals(self, args, r):
        self._costs.append(float(r @ r))

    def _after_solve(self, args, result):
        # solve evaluates the start cost, then one cost per trial step, and
        # accepts a trial exactly when it lowers the best cost so far
        report = result[1]
        best, accepted = self._costs[0], 0
        for c in self._costs[1:]:
            if c < best:
                best, accepted = c, accepted + 1
        self._count("trial_steps", len(self._costs) - 1)
        self._count("accepted_steps", accepted)
        self._count("iterations", report.iterations)
        self._count("not_converged", not report.converged)

    def _after_training_windows(self, args, result):
        self._count("training_windows", len(result[0]))

    def _after_train(self, args, result):
        self._count("train_epochs", len(result[1]))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.recording]
            if after:
                after(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every function in TRACED while the block runs."""
        saved = []
        try:
            for owner, attr, name in TRACED:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                hook = name.rsplit(".", 1)[1]
                setattr(owner, attr, self._wrap(
                    fn, name, getattr(self, f"_before_{hook}", None),
                    getattr(self, f"_after_{hook}", None)))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- summaries -------------------------------------------------------

    def root_seconds(self, recording_prefix):
        """Time covered by outermost spans of recordings with this prefix."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[3] < 0 and s[4].startswith(recording_prefix))

    def per_unit(self, units):
        """Per-name and per-layer totals, each phase divided by its units.

        units maps a phase ("setup", "train", "pass") to how many times it
        ran traced; a metric is then the cost of one setup plus one training
        plus one pass. Returns ({name: {calls, total_s, self_s}},
        {layer: {calls, total_s, self_s}}, {counter: value}).
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        # raw sums per phase first, so exact counts stay exact after division
        raw = defaultdict(float)      # (phase, "name"|"layer", key, field)
        for idx, (name, start, end, parent, rec) in enumerate(self.spans):
            phase = rec.split(":", 1)[0]
            dur = end - start
            layer = name.split(".", 1)[0]
            for kind, key in (("name", name), ("layer", layer)):
                raw[phase, kind, key, "calls"] += 1
                raw[phase, kind, key, "total_s"] += dur
                raw[phase, kind, key, "self_s"] += dur - child[idx]
            # a layer's total counts only spans not nested in the same layer
            if parent >= 0 and self.spans[parent][0].split(".", 1)[0] == layer:
                raw[phase, "layer", layer, "total_s"] -= dur
        out = {"name": defaultdict(lambda: defaultdict(float)),
               "layer": defaultdict(lambda: defaultdict(float))}
        for (phase, kind, key, field), value in raw.items():
            out[kind][key][field] += value / units[phase]
        counters = defaultdict(float)
        for (phase, key), value in self.counters.items():
            counters[key] += value / units[phase]
        return out["name"], out["layer"], counters
