"""Spans recorded from outside the program, around the calls into each layer.

Tracing patches each public function at the name its caller looks it up by
(for example ``traypick.experiment.plan``, which ``run_trial`` calls), so
nothing under ``src/`` carries tracing code and an untraced run executes the
program unmodified. Spans are kept in memory and written out at the end.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

# (module whose global the caller looks up, attribute, span name). A span
# name is "<layer>.<call>"; the benchmark's own per-op span is "harness.op".
PATCH_POINTS = [
    ("traypick.experiment", "run_trial", "experiment.trial"),
    ("traypick.experiment", "write_records", "experiment.write_records"),
    ("traypick.experiment", "generate_scene", "scenegen.generate"),
    ("traypick.scenegen", "generate_scene", "scenegen.generate"),
    ("traypick.scenegen", "drop_piece", "scenegen.drop_piece"),
    ("traypick.scenegen", "recompose", "scenegen.recompose"),
    ("traypick.graspsim", "recompose", "scenegen.recompose"),
    ("traypick.scenegen", "save_scene", "scenegen.save_scene"),
    ("traypick.scenegen", "load_scene", "scenegen.load_scene"),
    ("traypick.experiment", "render_depth", "perception.render_depth"),
    ("traypick.experiment", "render_masks", "perception.render_masks"),
    ("traypick.perception", "render_masks", "perception.render_masks"),
    ("traypick.experiment", "corrupt_masks", "perception.corrupt"),
    ("traypick.perception", "corrupt_masks", "perception.corrupt"),
    ("traypick.perception", "agreement", "perception.agreement"),
    ("traypick.perception", "save_masks", "perception.save_masks"),
    ("traypick.perception", "load_masks", "perception.load_masks"),
    ("traypick.experiment", "plan", "planner.plan"),
    ("traypick.planner", "fit_ellipse", "planner.fit_ellipse"),
    ("traypick.planner", "derive_grasp", "planner.derive_grasp"),
    ("traypick.planner", "filter_grasps", "planner.filter_grasps"),
    ("traypick.experiment", "execute_grasp", "graspsim.execute"),
    ("traypick.graspsim", "insert_fingers", "graspsim.insert_fingers"),
    ("traypick.graspsim", "close_and_lift", "graspsim.close_and_lift"),
]

# Counts taken at the same boundaries as the spans: span name ->
# f(positional args, result) -> {counter: increment}.
COUNTERS = {
    "perception.render_masks": lambda a, r: {"masks": len(r.masks)},
    "perception.corrupt": lambda a, r: {
        "corrupt_in": len(a[0].masks),
        "corrupt_out": len(r.masks),
    },
    "perception.agreement": lambda a, r: {
        "agreement_pairs": len(a[0].masks) * len(a[1].masks)
    },
    "planner.plan": lambda a, r: {
        "fit_errors": len(r.skipped),
        "plans": 1,
        "no_target": int(r.target is None),
    },
    "planner.filter_grasps": lambda a, r: {"candidates": len(a[0]), "retained": len(r)},
    "graspsim.execute": lambda a, r: {"picked": len(r.picked)},
}


class Tracer:
    """In-memory span recorder. A span is [name, start, end, parent, op, ok];
    spans of one op share its index, and parent is the index of the
    enclosing span (-1 at top level)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, True])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = ok
        self._stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(idx, ok)
            if count is not None:
                for key, inc in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + inc
            return result

        return traced

    def run_op(self, op: int, fn, *args):
        """Run one op inside a top-level "harness.op" span."""
        self.op = op
        idx = self._open("harness.op")
        ok = False
        try:
            result = fn(*args)
            ok = True
        finally:
            self._close(idx, ok)
            self.op = -1
        return result

    def install(self) -> None:
        for module_name, attr, span_name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, ok) in enumerate(self.spans):
                f.write(json.dumps([i, parent, op, name, start, end, ok]) + "\n")
            f.write(json.dumps({"counts": self.counts}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the part of it covered by its child spans.

    Calls are single-threaded and nested, so children never overlap and the
    covered part is the sum of their durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _ok in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


LAYERS = ("scenegen", "perception", "planner", "graspsim", "experiment", "harness")


def layer_metrics(tracer: Tracer, n_ops: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of a traced run.

    ``_ms``/``_us`` values are medians per call of the span's full duration
    (0 when the layer made no such call); ``busy_frac`` is the layer's
    self time over the wall time of all top-level spans, so the layers'
    fractions sum to 1.
    """
    spans = tracer.spans
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    busy = dict.fromkeys(LAYERS, 0.0)
    top_wall = 0.0
    drop_ok = 0
    # execute span time minus its nested scenegen.recompose
    exec_minus_recompose: dict[int, float] = {}
    for i, (name, start, end, parent, _op, ok) in enumerate(spans):
        d = end - start
        durations.setdefault(name, []).append(d)
        selfs.setdefault(name, []).append(own[i])
        busy[name.split(".", 1)[0]] += own[i]
        if parent < 0:
            top_wall += d
        if name == "scenegen.drop_piece" and ok:
            drop_ok += 1
        if name == "graspsim.execute":
            exec_minus_recompose[i] = d
        elif name == "scenegen.recompose" and parent in exec_minus_recompose:
            exec_minus_recompose[parent] -= d

    c = tracer.counts
    ops = max(n_ops, 1)

    def ms(name: str) -> float:
        return _median(durations.get(name, [])) * 1e3

    def us(name: str) -> float:
        return _median(durations.get(name, [])) * 1e6

    def calls(name: str) -> int:
        return len(durations.get(name, []))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "scenegen.generate_ms": ms("scenegen.generate"),
        "scenegen.drop_piece_us": us("scenegen.drop_piece"),
        "scenegen.drop_accept_frac": ratio(drop_ok, calls("scenegen.drop_piece")),
        "scenegen.recompose_ms": ms("scenegen.recompose"),
        "scenegen.recompose_calls_per_op": calls("scenegen.recompose") / ops,
        "scenegen.save_scene_ms": ms("scenegen.save_scene"),
        "scenegen.load_scene_ms": ms("scenegen.load_scene"),
        "perception.render_depth_ms": ms("perception.render_depth"),
        "perception.render_masks_ms": ms("perception.render_masks"),
        "perception.masks_per_op": c.get("masks", 0) / ops,
        "perception.corrupt_ms": ms("perception.corrupt"),
        "perception.corrupt_keep_frac": ratio(c.get("corrupt_out", 0), c.get("corrupt_in", 0)),
        "perception.agreement_ms": ms("perception.agreement"),
        "perception.agreement_pairs_per_op": c.get("agreement_pairs", 0) / ops,
        "perception.save_masks_ms": ms("perception.save_masks"),
        "perception.load_masks_ms": ms("perception.load_masks"),
        "perception.bytes_written_per_op": bytes_written / ops,
        "planner.plan_ms": ms("planner.plan"),
        "planner.fit_ellipse_us": us("planner.fit_ellipse"),
        "planner.fit_ellipse_calls_per_op": calls("planner.fit_ellipse") / ops,
        "planner.derive_grasp_us": us("planner.derive_grasp"),
        "planner.filter_grasps_ms": ms("planner.filter_grasps"),
        "planner.retained_frac": ratio(c.get("retained", 0), c.get("candidates", 0)),
        "planner.fit_errors_per_op": c.get("fit_errors", 0) / ops,
        "planner.no_target_frac": ratio(c.get("no_target", 0), c.get("plans", 0)),
        "graspsim.execute_self_ms": _median(list(exec_minus_recompose.values())) * 1e3,
        "graspsim.insert_fingers_ms": ms("graspsim.insert_fingers"),
        "graspsim.close_and_lift_ms": ms("graspsim.close_and_lift"),
        "graspsim.picked_per_op": c.get("picked", 0) / ops,
        "experiment.trial_self_ms": _median(selfs.get("experiment.trial", [])) * 1e3,
        "experiment.write_records_ms": ms("experiment.write_records"),
    }
    for layer in LAYERS:
        m[f"{layer}.busy_frac"] = ratio(busy[layer], top_wall)
    return m
