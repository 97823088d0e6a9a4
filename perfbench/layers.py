"""Per-layer instrumentation: which spectemp functions the traced run wraps,
and how the spans reduce to the per-layer metrics.

The layers are the package's modules. Times are inclusive seconds per
pass (per set-up for the set-up layers ``model_core.init_state`` and
``dataio.make_windows``); counts are per pass or per training step. A layer
that a workload does not run reports 0.
"""

from __future__ import annotations

from spectemp import (autodiff, dataio, frequency_temporal, model_core,
                      spectral_graph, temporal_wl, training)

from tracer import count_within, reduce_spans

__all__ = ["PER_LAYER", "install", "layer_metrics"]

AUTODIFF_GROUPS = {
    "autodiff.time_mix": ("time_mix",),
    "autodiff.mode_filter": ("mode_filter",),
    "autodiff.attention": ("node_scores", "node_apply", "softmax_last"),
    "autodiff.elementwise": ("add", "sub", "mul", "neg", "relu"),
}

# (name, unit, better); BENCHMARK.json lists the same metrics in this order.
PER_LAYER = [
    ("autodiff.graph_mix.s", "s", "lower"),
    ("autodiff.graph_mix.calls", "count", "lower"),
    ("autodiff.graph_mix.gflops", "GFLOP/s", "higher"),
    ("autodiff.time_mix.s", "s", "lower"),
    ("autodiff.time_mix.calls", "count", "lower"),
    ("autodiff.mode_filter.s", "s", "lower"),
    ("autodiff.mode_filter.calls", "count", "lower"),
    ("autodiff.attention.s", "s", "lower"),
    ("autodiff.attention.calls", "count", "lower"),
    ("autodiff.elementwise.s", "s", "lower"),
    ("autodiff.elementwise.calls", "count", "lower"),
    ("autodiff.nodes_per_step", "count", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("model_core.forward.s", "s", "lower"),
    ("model_core.forward.calls", "count", "lower"),
    ("model_core.init_state.s", "s", "lower"),
    ("training.gradients.s", "s", "lower"),
    ("training.forward_tape.s", "s", "lower"),
    ("training.optimizer_step.s", "s", "lower"),
    ("training.evaluate.s", "s", "lower"),
    ("dataio.make_windows.s", "s", "lower"),
    ("dataio.window_bytes", "bytes", "lower"),
    ("frequency_temporal.moving_average_matrix.calls_per_step", "count", "lower"),
    ("frequency_temporal.dft.pow2.s", "s", "lower"),
    ("frequency_temporal.dft.other.s", "s", "lower"),
    ("frequency_temporal.idft.s", "s", "lower"),
    ("frequency_temporal.column_sampling_check.s", "s", "lower"),
] + [(f"spectral_graph.graph_conv.{basis}.s", "s", "lower")
     for basis in spectral_graph.BASES] + [
    ("spectral_graph.eigendecompose.s", "s", "lower"),
    ("spectral_graph.spectral_oracle_conv.s", "s", "lower"),
    ("spectral_graph.graph_conv.max_rel_err", "ratio", "lower"),
    ("temporal_wl.refine_step.s", "s", "lower"),
    ("temporal_wl.refine_step.calls", "count", "lower"),
    ("temporal_wl.refine_cells_per_s", "cells/s", "higher"),
    ("temporal_wl.init_colors.s", "s", "lower"),
    ("temporal_wl.rounds", "count", "lower"),
    ("temporal_wl.palette_size", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _graph_mix_flops(args, kwargs, result):
    b, n, t, d = args[1].shape
    return {"flops": 2 * n * n * b * t * d}


def _dft_name(args, kwargs):
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    n = args[0].shape[axis]
    kind = "pow2" if n > 1 and n & (n - 1) == 0 else "other"
    return f"frequency_temporal.dft.{kind}"


def install(tracer, patches) -> None:
    """Wrap every traced function; ``patches`` restores them."""
    span = tracer.wrapper
    patches.function(autodiff, "graph_mix", span("autodiff.graph_mix", after=_graph_mix_flops))
    for label, names in AUTODIFF_GROUPS.items():
        for name in names:
            patches.function(autodiff, name, span(label))
    patches.method(autodiff.Tensor, "backward", span("autodiff.backward"))
    patches.method(autodiff.Tensor, "__init__",
                   tracer.counting("autodiff.tensors", inside="training.gradients"))
    for name in ("forward", "init_state"):
        patches.function(model_core, name, span(f"model_core.{name}"))
    for name in ("train", "gradients", "optimizer_step", "evaluate"):
        patches.function(training, name, span(f"training.{name}"))
    patches.function(dataio, "make_windows", span("dataio.make_windows"))
    patches.function(frequency_temporal, "moving_average_matrix",
                     span("frequency_temporal.moving_average_matrix"))
    patches.function(frequency_temporal, "dft", span(_dft_name))
    for name in ("idft", "column_sampling_check"):
        patches.function(frequency_temporal, name, span(f"frequency_temporal.{name}"))
    patches.function(spectral_graph, "graph_conv",
                     span(lambda args, kwargs: f"spectral_graph.graph_conv.{args[0].basis}"))
    for name in ("eigendecompose", "spectral_oracle_conv"):
        patches.function(spectral_graph, name, span(f"spectral_graph.{name}"))

    def refine_after(args, kwargs, result):
        tracer.scratch["palette"] = len(result.palette)
        return {"cells": int(result.colors.size)}

    def wl_test_after(args, kwargs, result):
        return {"palette": tracer.scratch.pop("palette", 0)}

    patches.function(temporal_wl, "init_colors", span("temporal_wl.init_colors"))
    patches.function(temporal_wl, "refine_step", span("temporal_wl.refine_step",
                                                      after=refine_after))
    patches.function(temporal_wl, "wl_test", span("temporal_wl.wl_test",
                                                  after=wl_test_after))


def layer_metrics(tracer, passes: int, setups: int, extra: dict) -> dict:
    """Per-layer metrics of one traced segment.

    ``extra`` supplies what the workload measured itself: window_bytes,
    max_rel_err, rounds (per pass) and overhead_pct.
    """
    spans = tracer.spans
    reduced = reduce_spans(spans)

    def seconds(name, per=passes):
        return reduced.get(name, {}).get("inclusive_s", 0.0) / per

    def calls(name):
        return reduced.get(name, {}).get("calls", 0) / passes

    def attr_sum(name, key):
        return sum(tracer.attrs.get(i, {}).get(key, 0)
                   for i, span in enumerate(spans) if span[0] == name)

    steps = reduced.get("training.gradients", {}).get("calls", 0)
    values = {
        "autodiff.graph_mix.s": seconds("autodiff.graph_mix"),
        "autodiff.graph_mix.calls": calls("autodiff.graph_mix"),
        "autodiff.graph_mix.gflops": (attr_sum("autodiff.graph_mix", "flops") / 1e9
                                      / seconds("autodiff.graph_mix", 1)
                                      if "autodiff.graph_mix" in reduced else 0.0),
        "autodiff.nodes_per_step": tracer.counters["autodiff.tensors"] / steps if steps else 0,
        "autodiff.backward.s": seconds("autodiff.backward"),
        "model_core.forward.s": seconds("model_core.forward"),
        "model_core.forward.calls": calls("model_core.forward"),
        "model_core.init_state.s": seconds("model_core.init_state", setups),
        "training.gradients.s": seconds("training.gradients"),
        "training.forward_tape.s": (seconds("training.gradients")
                                    - seconds("autodiff.backward")),
        "training.optimizer_step.s": seconds("training.optimizer_step"),
        "training.evaluate.s": seconds("training.evaluate"),
        "dataio.make_windows.s": seconds("dataio.make_windows", setups),
        "dataio.window_bytes": extra.get("window_bytes", 0),
        "frequency_temporal.moving_average_matrix.calls_per_step": (
            count_within(spans, "frequency_temporal.moving_average_matrix",
                         "training.gradients") / steps if steps else 0),
        "frequency_temporal.dft.pow2.s": seconds("frequency_temporal.dft.pow2"),
        "frequency_temporal.dft.other.s": seconds("frequency_temporal.dft.other"),
        "frequency_temporal.idft.s": seconds("frequency_temporal.idft"),
        "frequency_temporal.column_sampling_check.s":
            seconds("frequency_temporal.column_sampling_check"),
        "spectral_graph.eigendecompose.s": seconds("spectral_graph.eigendecompose"),
        "spectral_graph.spectral_oracle_conv.s": seconds("spectral_graph.spectral_oracle_conv"),
        "spectral_graph.graph_conv.max_rel_err": extra.get("max_rel_err", 0.0),
        "temporal_wl.refine_step.s": seconds("temporal_wl.refine_step"),
        "temporal_wl.refine_step.calls": calls("temporal_wl.refine_step"),
        "temporal_wl.refine_cells_per_s": (attr_sum("temporal_wl.refine_step", "cells")
                                           / seconds("temporal_wl.refine_step", 1)
                                           if "temporal_wl.refine_step" in reduced else 0.0),
        "temporal_wl.init_colors.s": seconds("temporal_wl.init_colors"),
        "temporal_wl.rounds": extra.get("rounds", 0),
        "temporal_wl.palette_size": attr_sum("temporal_wl.wl_test", "palette") / passes,
        "trace.overhead_pct": extra["overhead_pct"],
    }
    for label in AUTODIFF_GROUPS:
        values[f"{label}.s"] = seconds(label)
        values[f"{label}.calls"] = calls(label)
    for basis in spectral_graph.BASES:
        values[f"spectral_graph.graph_conv.{basis}.s"] = seconds(
            f"spectral_graph.graph_conv.{basis}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
