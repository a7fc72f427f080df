"""Spans around the calls into bandgauge's modules, recorded from outside.

The tracer replaces a public function at every module attribute its callers
look it up by (``pipeline`` does ``from .freq import sobel_hfm``, so the name
that matters there is ``bandgauge.pipeline.sobel_hfm``).  Each call becomes a
span ``[name, start, end, parent, op, count]``; spans stay in memory until
the run ends.  ``count`` carries what the call did (bytes decoded, solver
sweeps, patches classified, ...), read from its arguments and result at the
same boundary.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import time

NAME, START, END, PARENT, OP, COUNT = range(6)


def _load_image_bytes(args, kwargs, out):
    return out.width * out.height * out.channels


def _pws_count(args, kwargs, out):
    from bandgauge.freq import PwsConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", PwsConfig())
    sweeps = len(out.energy_trace) - 1
    return {"sweeps": sweeps, "cap_hit": int(sweeps >= cfg.max_iters)}


def forward_gmacs(params, batch: int) -> float:
    """Multiply-accumulates of one forward pass, from the layer shapes."""
    side, in_ch, macs = params.patch_size, 1, 0
    for out_ch in params.widths:
        side = (side - 1) // 2 + 1  # 3x3, stride 2, pad 1
        macs += side * side * out_ch * in_ch * 9
        in_ch = out_ch
    macs *= 2  # two branches of one shape
    macs += params.feature_dim * params.fc_width + params.fc_width
    return batch * macs / 1e9


def _forward_count(args, kwargs, out):
    return {"patches": len(out), "gmacs": forward_gmacs(args[0], len(out))}


def _dataset_patches(args, kwargs, out):
    return len(out.train) + len(out.val) + len(out.test)


def _train_epochs(args, kwargs, out):
    return args[1].epochs


def _ratings(args, kwargs, out):
    return sum(len(rs.scores) for rs in args[0])


# (span name, lookup names, count probe).  Every lookup name a caller in the
# measured paths uses is listed, so each call is seen exactly once.
STAGES = (
    ("imgcore.load_image", ("imgcore.load_image",), _load_image_bytes),
    ("imgcore.to_luma", ("pipeline.to_luma", "datagen.to_luma"), None),
    ("imgcore.tile", ("pipeline.tile", "datagen.tile"), None),
    ("freq.sobel_hfm", ("pipeline.sobel_hfm", "datagen.sobel_hfm"), None),
    ("freq.pws_lfm", ("pipeline.pws_lfm", "datagen.pws_lfm"), _pws_count),
    ("sfmask.spatial_frequency", ("pipeline.spatial_frequency", "sfmask.spatial_frequency"), None),
    ("sfmask.grid_stats", ("pipeline.grid_stats",), None),
    ("sfmask.mask_weights", ("pipeline.mask_weights",), None),
    ("scoring.banding_map", ("pipeline.banding_map",), None),
    ("scoring.pool_score", ("pipeline.pool_score",), None),
    ("pipeline.score_image", ("pipeline.score_image",), None),
    ("classifier.forward_batch", ("pipeline.forward_batch", "classifier.forward_batch"), _forward_count),
    ("classifier.load_params", ("classifier.load_params",), None),
    ("classifier.train", ("classifier.train",), _train_epochs),
    ("datagen.make_dataset", ("datagen.make_dataset",), _dataset_patches),
    ("evalharness.fit_logistic5", ("evalharness.fit_logistic5",), None),
    ("evalharness.plcc_rmse", ("evalharness.plcc_rmse",), None),
    ("evalharness.srcc", ("evalharness.srcc",), None),
    ("evalharness.krcc", ("evalharness.krcc",), None),
    ("evalharness.roc_pr", ("evalharness.roc_pr",), None),
    ("evalharness.threshold_search", ("evalharness.threshold_search",), None),
    ("subjective.mos_pipeline", ("subjective.mos_pipeline",), _ratings),
)

OP_SPAN = "op"


class Tracer:
    """Collects spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if probe is not None:
                rec[COUNT] = probe(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, lookups, probe in STAGES:
            first = lookups[0].split(".")
            fn = getattr(importlib.import_module(f"bandgauge.{first[0]}"), first[1])
            traced = self._wrap(name, fn, probe)
            for lookup in lookups:
                mod_name, attr = lookup.split(".")
                mod = importlib.import_module(f"bandgauge.{mod_name}")
                if getattr(mod, attr) is not fn:
                    raise RuntimeError(f"{lookup} is not the function {name} names")
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def open_op(self, op_id):
        """Start the root span of one op; returns its index for close_op."""
        self.op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, op_id, None])
        return self._stack[-1]

    def close_op(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()
        self.op = None

    def dump(self, path):
        """One JSON object per span, in start order."""
        keys = ("name", "start", "end", "parent", "op", "count")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the part its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans, traced_ops: int, traced_rate: float, plain_rate: float) -> dict:
    """The per-layer metrics, per op of the traced rounds.

    ``.s`` is inclusive time per op, ``.self_s`` excludes child spans, and
    ``.calls`` counts calls per op.  ``trace.coverage`` is the summed self
    time of all stage spans over the summed duration of the op spans.
    """
    setup = [s for s in spans if s[OP] == "setup"]
    total, own, calls, counts = {}, {}, {}, {}
    for s, own_s in zip(spans, self_times(spans)):
        if s[OP] in (None, "setup"):
            continue
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        own[name] = own.get(name, 0.0) + own_s
        calls[name] = calls.get(name, 0) + 1
        if isinstance(s[COUNT], dict):
            for k, v in s[COUNT].items():
                counts[name, k] = counts.get((name, k), 0) + v
        elif s[COUNT] is not None:
            counts[name, "n"] = counts.get((name, "n"), 0) + s[COUNT]
    def per_op(v):
        return v / traced_ops

    def t(name):
        return total.get(name, 0.0)

    op_time = t(OP_SPAN)
    stage_self = sum(v for k, v in own.items() if k != OP_SPAN)
    load_s = t("imgcore.load_image")
    sweeps = counts.get(("freq.pws_lfm", "sweeps"), 0)
    epochs = counts.get(("classifier.train", "n"), 0)
    m = {
        "imgcore.load_image.s": (per_op(load_s), "s/op"),
        "imgcore.load_image.mb_per_s": (
            counts.get(("imgcore.load_image", "n"), 0) / 1e6 / load_s if load_s else 0.0,
            "MB/s",
        ),
        "imgcore.to_luma.s": (per_op(t("imgcore.to_luma")), "s/op"),
        "imgcore.tile.s": (per_op(t("imgcore.tile")), "s/op"),
        "freq.sobel_hfm.s": (per_op(t("freq.sobel_hfm")), "s/op"),
        "freq.sobel_hfm.calls": (per_op(calls.get("freq.sobel_hfm", 0)), "calls/op"),
        "sfmask.spatial_frequency.calls": (
            per_op(calls.get("sfmask.spatial_frequency", 0)), "calls/op"
        ),
        "sfmask.grid_stats.s": (per_op(t("sfmask.grid_stats")), "s/op"),
        "sfmask.mask_weights.s": (per_op(t("sfmask.mask_weights")), "s/op"),
        "scoring.banding_map.s": (per_op(t("scoring.banding_map")), "s/op"),
        "scoring.pool_score.s": (per_op(t("scoring.pool_score")), "s/op"),
        "pipeline.score_image.self_s": (per_op(own.get("pipeline.score_image", 0.0)), "s/op"),
        "freq.pws_lfm.s": (per_op(t("freq.pws_lfm")), "s/op"),
        "freq.pws_lfm.calls": (per_op(calls.get("freq.pws_lfm", 0)), "calls/op"),
        "freq.pws_lfm.sweeps": (per_op(sweeps), "sweeps/op"),
        "freq.pws_lfm.ms_per_sweep": (1e3 * t("freq.pws_lfm") / sweeps if sweeps else 0.0, "ms"),
        "freq.pws_lfm.cap_hits": (per_op(counts.get(("freq.pws_lfm", "cap_hit"), 0)), "calls/op"),
        "classifier.forward_batch.s": (per_op(t("classifier.forward_batch")), "s/op"),
        "classifier.forward_batch.patches": (
            per_op(counts.get(("classifier.forward_batch", "patches"), 0)), "patches/op"
        ),
        "classifier.forward_batch.gmacs": (
            per_op(counts.get(("classifier.forward_batch", "gmacs"), 0.0)), "GMAC/op"
        ),
        "classifier.load_params.s": (
            sum(s[END] - s[START] for s in setup if s[NAME] == "classifier.load_params"), "s"
        ),
        "classifier.train.s_per_epoch": (t("classifier.train") / epochs if epochs else 0.0, "s"),
        "datagen.make_dataset.s": (per_op(t("datagen.make_dataset")), "s/op"),
        "datagen.make_dataset.patches": (
            per_op(counts.get(("datagen.make_dataset", "n"), 0)), "patches/op"
        ),
        "evalharness.fit_logistic5.s": (per_op(t("evalharness.fit_logistic5")), "s/op"),
        "evalharness.fit_logistic5.calls": (
            per_op(calls.get("evalharness.fit_logistic5", 0)), "calls/op"
        ),
        "evalharness.roc_pr.s": (per_op(t("evalharness.roc_pr")), "s/op"),
        "evalharness.threshold_search.s": (per_op(t("evalharness.threshold_search")), "s/op"),
        "subjective.mos_pipeline.s": (per_op(t("subjective.mos_pipeline")), "s/op"),
        "subjective.mos_pipeline.ratings": (
            per_op(counts.get(("subjective.mos_pipeline", "n"), 0)), "ratings/op"
        ),
        "trace.coverage": (stage_self / op_time if op_time else 0.0, "ratio"),
        "trace.overhead_pct": (100.0 * (plain_rate / traced_rate - 1.0), "%"),
    }
    return m
