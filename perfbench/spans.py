"""In-memory spans for the traced run, recorded around the program's layers.

A traced run rebinds public functions of the program's modules to wrappers
that record a span (name, start, end, parent) per call. The rebinding targets
the names the calling modules imported, so ``hieract.learning.kmeans`` is
wrapped where ``initialize`` looks it up. Spans stay in memory and are written
out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# (module whose global is rebound, attribute, span name). A function reached
# through two modules' globals is wrapped in both under one span name.
TARGETS = (
    ("hieract.cli", "parse_skeleton", "skeleton.parse"),
    ("hieract.descriptors", "raw_motion_vectors", "descriptors.motion"),
    ("hieract.descriptors", "fit_pca", "descriptors.pca_fit"),
    ("hieract.descriptors", "build_descriptors", "descriptors.build"),
    ("hieract.learning", "kmeans", "dictionaries.kmeans"),
    ("hieract.dictionaries", "kmeans", "dictionaries.kmeans"),
    ("hieract.learning", "assign_labels", "dictionaries.assign_labels"),
    ("hieract.learning", "build_actionlets", "dictionaries.actionlets"),
    ("hieract.cli", "initialize", "learning.initialize"),
    ("hieract.learning", "solve_p1", "learning.p1"),
    ("hieract.cli", "train", "learning.train"),
    ("hieract.learning", "cutting_plane", "learning.cutting_plane"),
    ("hieract.learning", "primal_objective", "learning.primal_objective"),
    ("hieract.learning", "impute_latents", "learning.impute"),
    ("hieract.learning", "loss_augmented_infer_many", "inference.loss_aug"),
    ("hieract.learning", "complete_latent", "inference.complete_latent"),
    ("hieract.cli", "infer", "inference.infer"),
    ("hieract.learning", "feature_map", "energy.feature_map"),
    ("hieract.inference", "energy_total", "energy.energy_total"),
    ("hieract.learning", "energy_total", "energy.energy_total"),
    ("hieract.cli", "load_model", "energy.model_load"),
    ("hieract.cli", "save_model", "energy.model_save"),
    ("hieract.energy", "save_model", "energy.model_save"),
    ("hieract.cli", "plant_synthetic", "evaluation.plant"),
    ("hieract.cli", "pooled_pr", "evaluation.pooled_pr"),
)


def _count_work(counts: Counter, name: str, args, result) -> None:
    """Counters read from a wrapped call's arguments or result."""
    if name == "learning.p1":
        # each alternation appends a b-step and a mu-step value
        counts["p1_alternations"] += sum((len(t) - 1) // 2
                                         for t in result.objective_trace)
    elif name == "learning.cutting_plane":
        counts["cp_iterations"] += result[1].iterations
    elif name == "inference.loss_aug":
        counts["loss_aug_videos"] += len(args[0])
    elif name == "inference.infer":
        x, params = args[0], args[1]
        d = params.dims
        kk = params.num_poselet_states
        counts["infer_frames"] += x.shape[0]
        counts["infer_cells"] += (d.Y * d.R * x.shape[0] * kk * d.A
                                  * (kk + d.A))


class Tracer:
    """Span recorder; ``enabled`` False makes every method a no-op.
    ``clock`` gives the span times (``speed.Meter.clock`` leaves out the
    time the meter spends sampling)."""

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, _ = self.spans[index]
            self.spans[index] = (name, start, self.clock(), parent)
            self.counts[name] += 1

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            _count_work(self.counts, name, args, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every target to a span-recording wrapper."""
        if not self.enabled:
            return
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def totals(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        return total, self_time

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# per-layer metric -> (span name, "total" | "self")
_TIMES = {
    "cli.synth_s": ("cli.synth", "total"),
    "cli.features_s": ("cli.features", "total"),
    "cli.init_s": ("cli.init-assignments", "total"),
    "cli.train_s": ("cli.train", "total"),
    "cli.train_self_s": ("cli.train", "self"),
    "cli.annotate_s": ("cli.annotate", "total"),
    "cli.annotate_self_s": ("cli.annotate", "self"),
    "cli.infer_s": ("cli.infer", "total"),
    "cli.infer_self_s": ("cli.infer", "self"),
    "cli.eval_s": ("cli.eval", "total"),
    "skeleton.parse_s": ("skeleton.parse", "total"),
    "descriptors.motion_s": ("descriptors.motion", "total"),
    "descriptors.pca_fit_s": ("descriptors.pca_fit", "total"),
    "descriptors.build_s": ("descriptors.build", "total"),
    "dictionaries.kmeans_s": ("dictionaries.kmeans", "total"),
    "dictionaries.assign_labels_s": ("dictionaries.assign_labels", "total"),
    "dictionaries.actionlets_s": ("dictionaries.actionlets", "total"),
    "learning.initialize_s": ("learning.initialize", "total"),
    "learning.p1_s": ("learning.p1", "total"),
    "learning.train_s": ("learning.train", "total"),
    "learning.cutting_plane_s": ("learning.cutting_plane", "total"),
    "learning.cutting_plane_self_s": ("learning.cutting_plane", "self"),
    "learning.primal_objective_s": ("learning.primal_objective", "total"),
    "learning.impute_s": ("learning.impute", "total"),
    "inference.loss_aug_s": ("inference.loss_aug", "total"),
    "inference.complete_latent_s": ("inference.complete_latent", "total"),
    "inference.infer_s": ("inference.infer", "total"),
    "energy.feature_map_s": ("energy.feature_map", "total"),
    "energy.energy_total_s": ("energy.energy_total", "total"),
    "energy.model_load_s": ("energy.model_load", "total"),
    "energy.model_save_s": ("energy.model_save", "total"),
    "evaluation.plant_s": ("evaluation.plant", "total"),
    "evaluation.pooled_pr_s": ("evaluation.pooled_pr", "total"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, traced_fit_s: float,
                  scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-round means of span times and work counts, keyed by metric.
    Span times are multiplied by ``scale`` (reference over measured machine
    speed, see ``speed``)."""
    total, self_time = tracer.totals()
    for times in (total, self_time):
        for name in times:
            times[name] *= scale
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for metric, (name, kind) in _TIMES.items():
        value = total[name] if kind == "total" else self_time[name]
        out[metric] = (value / rounds, "s")

    def count(metric: str, value: float) -> None:
        out[metric] = (value / rounds, "count")

    count("dictionaries.kmeans_calls", counts["dictionaries.kmeans"])
    count("learning.p1_alternations", counts["p1_alternations"])
    count("learning.cp_iterations", counts["cp_iterations"])
    count("learning.oracle_passes", counts["inference.loss_aug"])
    count("inference.infer_calls", counts["inference.infer"])
    count("energy.feature_map_calls", counts["energy.feature_map"])
    count("trace.spans", len(tracer.spans))
    out["learning.cp_iteration_ms"] = (
        1e3 * _ratio(total["learning.cutting_plane"],
                     counts["cp_iterations"]), "ms")
    out["inference.loss_aug_ms_per_video"] = (
        1e3 * _ratio(total["inference.loss_aug"],
                     counts["loss_aug_videos"]), "ms")
    out["inference.infer_ms_per_frame"] = (
        1e3 * _ratio(total["inference.infer"], counts["infer_frames"]), "ms")
    out["inference.cells_per_s"] = (
        _ratio(counts["infer_cells"], total["inference.infer"]), "cells/s")
    out["trace.fit_s"] = (traced_fit_s, "s")
    return out
