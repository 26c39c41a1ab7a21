"""Span recording from outside the program, and the per-layer metrics.

`Recorder.installed()` replaces functions of the ``gcum`` modules with
wrappers that record one span per call: name, start, end, parent span and
run id.  The replacement is made in every ``gcum`` module namespace that
holds the function, so calls through ``from .x import f`` bindings are
seen as well, and everything is put back on exit.  ``src/gcum`` itself
is never edited.

Spans stay in memory until `write_csv`.  A span's self time is its
duration minus the durations of its direct children; a layer's self time
is the sum over its spans.  The small tape operations of ``diffcore``
(add, matmul, ...) are not spanned, because a span each would cost more
than the operation: their forward time is part of the calling layer's
self time, and ``diffcore`` itself is seen through ``Graph.backward`` and
a count of Tensor constructions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ("cli", "synthdata", "trainer", "diffcore", "gla",
          "encoders", "grce", "mvs", "losses", "evaluation")

# Private helpers spanned for the I/O metrics.
_PRIVATE = {"cli._load_data", "cli._load_checkpoint_state", "cli._write_json"}
# Class methods spanned in addition to module functions.
_METHODS = {"diffcore.Graph.backward": ("diffcore", "Graph", "backward")}

# Calls that may start a new timing segment in an untraced run: each
# training step, each featurized eval view and each ranked query.
SEGMENT_MARKS = ("trainer.sgd_step", "grce.group_forward", "evaluation.rank_gallery")
# Spanned in an untraced run: the phases it reports, and the marks.
PHASES = ("trainer.train_stage1", "trainer.train_stage2", "evaluation.evaluate") + SEGMENT_MARKS

_NAME = 0
_START = 1
_END = 2
_PARENT = 3
_RUN = 4
_TENSORS_START = 5
_TENSORS_END = 6


def _module_functions():
    """(span name, function) for every function the full trace spans."""
    for layer in LAYERS:
        mod = importlib.import_module(f"gcum.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            public = not attr.startswith("_") or name in _PRIVATE
            if layer == "diffcore" or not public:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield name, obj


class Recorder:
    """Spans and counters for one process; install with `installed()`."""

    def __init__(self, only: tuple[str, ...] | None = None, before=None):
        """Span every function, or those named in ``only``; ``before`` maps
        span names to callables run with the call's arguments first."""
        self.only = only
        self.before = before or {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = ""
        self.tensors = 0
        self.member_rows = 0
        self.distinct_rows: set[bytes] = set()
        self.visual_calls = 0
        self.distinct_visuals: set[tuple] = set()
        self.masks_sampled = 0
        self.mask_members = 0
        self.mask_retained = 0
        self.evaluations: list[tuple[int, int]] = []   # (span index, test views)

    # recording -----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, self.tensors, 0]
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                before(*args, **kwargs)
            span[_START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                span[_TENSORS_END] = self.tensors
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _on_encode_members(self, appearances, *args, **kwargs):
        rows = appearances.values
        self.member_rows += rows.shape[0]
        self.distinct_rows.update(row.tobytes() for row in rows)

    def _on_group_visual(self, appearances, identity_ids, state, mask=None, **kwargs):
        self.visual_calls += 1
        bits = None if mask is None else mask.bits
        self.distinct_visuals.add((appearances.values.tobytes(), bits))

    def _on_mask(self, mask):
        self.masks_sampled += 1
        self.mask_members += len(mask)
        self.mask_retained += mask.retained

    def _on_evaluate(self, state, samples, *args, **kwargs):
        self.evaluations.append((self._stack[-1], len(samples)))

    def evaluations_since(self, since: int) -> list[tuple[int, float, float]]:
        """(test views, start, end) of each ``evaluate`` span from index ``since`` on."""
        return [(views, self.spans[i][_START], self.spans[i][_END])
                for i, views in self.evaluations if i >= since]

    @contextmanager
    def installed(self):
        """Swap the wrappers in; restore every original attribute on exit."""
        from gcum import diffcore

        hooks = {
            "encoders.encode_members": (self._on_encode_members, None),
            "grce.group_visual_from_matrix": (self._on_group_visual, None),
            "mvs.sample_mask": (None, self._on_mask),
            "evaluation.evaluate": (self._on_evaluate, None),
        }
        hooks.update((name, (fn, None)) for name, fn in self.before.items())
        wrappers = {}
        for name, fn in _module_functions():
            if self.only is None or name in self.only:
                wrappers[id(fn)] = self._wrap(name, fn, *hooks.get(name, (None, None)))
        restore = []
        for layer in LAYERS:
            mod = importlib.import_module(f"gcum.{layer}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        if self.only is None:
            for name, (layer, cls_name, attr) in _METHODS.items():
                cls = getattr(importlib.import_module(f"gcum.{layer}"), cls_name)
                restore.append((cls, attr, getattr(cls, attr)))
                setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
            tensor_init = diffcore.Tensor.__init__

            def counting_init(tensor, *args, **kwargs):
                self.tensors += 1
                tensor_init(tensor, *args, **kwargs)

            restore.append((diffcore.Tensor, "__init__", tensor_init))
            diffcore.Tensor.__init__ = counting_init
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    # reading -------------------------------------------------------------

    def total(self, names) -> float:
        """Seconds inside spans named in ``names``, outermost spans only."""
        names = set(names)
        out = 0.0
        for span in self.spans:
            if span[_NAME] in names and not self._has_ancestor(span, names):
                out += span[_END] - span[_START]
        return out

    def _has_ancestor(self, span, names) -> bool:
        parent = span[_PARENT]
        while parent >= 0:
            up = self.spans[parent]
            if up[_NAME] in names:
                return True
            parent = up[_PARENT]
        return False

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[_NAME] == name)

    def self_times(self) -> list[float]:
        own = [span[_END] - span[_START] for span in self.spans]
        for span in self.spans:
            if span[_PARENT] >= 0:
                own[span[_PARENT]] -= span[_END] - span[_START]
        return own

    def step_seconds(self) -> list[float]:
        """Training step durations: from the previous step's end (or the
        stage's start) to the end of this step's ``sgd_step`` span."""
        last_end = {}
        steps = []
        for i, span in enumerate(self.spans):
            if span[_NAME] in ("trainer.train_stage1", "trainer.train_stage2"):
                last_end[i] = span[_START]
            elif span[_NAME] == "trainer.sgd_step" and span[_PARENT] in last_end:
                steps.append(span[_END] - last_end[span[_PARENT]])
                last_end[span[_PARENT]] = span[_END]
        return steps

    def tensors_inside(self, names) -> int:
        names = set(names)
        return sum(span[_TENSORS_END] - span[_TENSORS_START] for span in self.spans
                   if span[_NAME] in names and not self._has_ancestor(span, names))

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,run\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[_NAME]},{s[_START]!r},{s[_END]!r},{s[_PARENT]},{s[_RUN]}\n")


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    steps = rec.step_seconds()
    train = ("trainer.train_stage1", "trainer.train_stage2")
    if steps:
        tensors_per_unit = rec.tensors_inside(train) / len(steps)
    else:
        views = sum(n for _, n in rec.evaluations)
        tensors_per_unit = rec.tensors_inside(["evaluation.evaluate"]) / max(1, views)
    own = rec.self_times()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    name_self: dict[str, float] = {}
    for span, t in zip(rec.spans, own):
        layer_self[span[_NAME].split(".", 1)[0]] += t
        name_self[span[_NAME]] = name_self.get(span[_NAME], 0.0) + t

    m = {
        "diffcore.backward_s": (rec.total(["diffcore.Graph.backward"]), "s"),
        "diffcore.tensors_per_step": (tensors_per_unit, "count"),
        "gla.stage1_loss_self_s": (name_self.get("gla.stage1_batch_loss", 0.0), "s"),
        "gla.text_features_s": (rec.total(["gla.member_text_feature", "gla.group_text_feature",
                                           "gla.class_text_features"]), "s"),
        "gla.text_feature_calls": (rec.count("gla.member_text_feature")
                                   + rec.count("gla.group_text_feature"), "count"),
        "encoders.encode_text_s": (rec.total(["encoders.encode_text"]), "s"),
        "encoders.encode_text_calls": (rec.count("encoders.encode_text"), "count"),
        "encoders.encode_members_s": (rec.total(["encoders.encode_members"]), "s"),
        "encoders.group_blocks_s": (rec.total(["encoders.encode_group_prefix",
                                               "encoders.encode_group_suffix"]), "s"),
        "encoders.member_rows": (rec.member_rows, "count"),
        "encoders.member_rows_distinct_ratio": (
            len(rec.distinct_rows) / rec.member_rows if rec.member_rows else 0.0, "ratio"),
        "grce.group_visual_s": (rec.total(["grce.group_visual", "grce.group_visual_from_matrix"]), "s"),
        "grce.group_visual_calls": (rec.visual_calls, "count"),
        "grce.group_visual_distinct_ratio": (
            len(rec.distinct_visuals) / rec.visual_calls if rec.visual_calls else 0.0, "ratio"),
        "grce.refine_s": (rec.total(["grce.refine"]), "s"),
        "losses.stage2_loss_self_s": (name_self.get("losses.stage2_batch_loss", 0.0), "s"),
        "losses.triplet_s": (rec.total(["losses.triplet_loss"]), "s"),
        "mvs.masks_sampled": (rec.masks_sampled, "count"),
        "mvs.retained_frac": (
            rec.mask_retained / rec.mask_members if rec.mask_members else 0.0, "ratio"),
        "mvs.apply_s": (rec.total(["mvs.apply_mvs"]), "s"),
        "trainer.steps": (len(steps), "count"),
        "trainer.step_ms_p50": (1e3 * _percentile(steps, 0.50), "ms"),
        "trainer.step_ms_p95": (1e3 * _percentile(steps, 0.95), "ms"),
        "trainer.sgd_step_s": (rec.total(["trainer.sgd_step"]), "s"),
        "trainer.stage1_s": (rec.total(["trainer.train_stage1"]), "s"),
        "trainer.stage2_s": (rec.total(["trainer.train_stage2"]), "s"),
        "evaluation.extract_features_s": (rec.total(["evaluation.extract_features"]), "s"),
        "evaluation.rank_s": (rec.total(["evaluation.rank_gallery"]), "s"),
        "evaluation.rank_calls": (rec.count("evaluation.rank_gallery"), "count"),
        "evaluation.stage1_trainings": (rec.count("trainer.train_stage1"), "count"),
        "synthdata.generate_s": (rec.total(["synthdata.generate_dataset"]), "s"),
        "cli.dataset_io_s": (rec.total(["synthdata.load_dataset", "synthdata.dataset_to_doc",
                                        "cli._write_json"]), "s"),
        "cli.checkpoint_io_s": (rec.total(["encoders.save_checkpoint",
                                           "encoders.state_from_checkpoint"]), "s"),
        "trace.spans": (len(rec.spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m
