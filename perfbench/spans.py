"""In-memory spans around calls into the afc layers, and the per-layer
metrics derived from them.

A span records (name, start, end, parent, frame id) plus the operation kind
and round it ran in. Spans stay in memory until the run ends; ``dump`` writes
them out. Nothing inside ``afc`` is changed: the benchmark wraps the public
functions as a caller sees them (its own calls, and the names the harness
module binds).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Span recorder; while ``enabled`` is false, spans cost one branch and
    record nothing (the warm-up runs that way)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.enabled = True
        self.op = "setup"
        self.round = -1
        self.frame = -1

    def new_frame(self) -> None:
        self.frame += 1

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "round": self.round,
            "frame": self.frame,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result(span, args, result)`` may annotate it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def decode_attrs(rec: dict, args: tuple, result) -> None:
    """Iterations and enumerated configurations of one BP decode."""
    graph = args[0]
    degree = int(np.max(np.diff(graph.indptr))) if graph.m else 0
    rec["iterations"] = int(result.iterations)
    rec["configs"] = int(graph.m) * (1 << degree) * int(result.iterations)


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


# (metric, unit, span name, how the spans reduce to one number)
PER_LAYER = (
    ("decoder.bp_decode_joint_ms", "ms", "decoder.bp_decode_joint", "mean_ms"),
    ("decoder.iter_ms", "ms", "decoder.bp_decode_joint", "ms_per_iteration"),
    ("decoder.iters_per_frame", "count", "decoder.bp_decode_joint", "iterations_per_call"),
    ("decoder.cfgs_per_s", "cfg/s", "decoder.bp_decode_joint", "configs_per_s"),
    ("decoder.bp_decode_ms", "ms", "decoder.bp_decode", "mean_ms"),
    ("precoder.tanh_rule_ms", "ms", "precoder.tanh_rule_messages", "mean_ms"),
    ("precoder.ldpc_generate_s", "s", "precoder.ldpc_generate", "mean_s"),
    ("precoder.ldpc_encode_ms", "ms", "precoder.ldpc_encode", "mean_ms"),
    ("precoder.ldpc_decode_ms", "ms", "precoder.ldpc_decode", "mean_ms"),
    ("core.build_graph_ms", "ms", "core.build_graph", "mean_ms"),
    ("core.encode_ms", "ms", "core.encode", "mean_ms"),
    ("channel.transmit_ms", "ms", "channel.transmit", "mean_ms"),
    ("harness.self_ms", "ms", "harness.run_ber_sweep", "self_ms_per_frame"),
    ("analysis.check_nonzero_condition_ms", "ms", "analysis.check_nonzero_condition", "mean_ms"),
    ("analysis.ambiguity_recursion_ms", "ms", "analysis.ambiguity_recursion", "mean_ms"),
    ("analysis.gaussian_fit_check_ms", "ms", "analysis.gaussian_fit_check", "mean_ms"),
    ("analysis.shaping_samples_per_s", "1/s", "analysis.gaussian_fit_check", "samples_per_s"),
)

DECODER_SPANS = ("decoder.bp_decode", "decoder.bp_decode_joint")


def per_layer_metrics(spans: list[dict], op_priority: tuple[str, ...], prefix_rounds: int) -> dict:
    """Per-layer metrics of one traced run.

    Each metric reads the spans of the first operation kind in
    ``op_priority`` that entered the layer: the workload's own operations
    first, then its set-up, then its control operations. Iteration counts
    use only rounds below ``prefix_rounds``, which every run completes, so
    they repeat exactly at a fixed seed.
    """
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def chosen(name: str) -> list[dict]:
        for op in op_priority:
            sel = [s for s in spans if s["name"] == name and s["op"] == op]
            if sel:
                return sel
        raise ValueError(f"no span named {name} in a traced run")

    out = {}
    for metric, unit, name, how in PER_LAYER:
        sel = chosen(name)
        total = sum(_duration(s) for s in sel)
        if how == "mean_ms":
            value = 1e3 * total / len(sel)
        elif how == "mean_s":
            value = total / len(sel)
        elif how == "ms_per_iteration":
            value = 1e3 * total / sum(s["iterations"] for s in sel)
        elif how == "iterations_per_call":
            head = [s for s in sel if s["round"] < prefix_rounds]
            value = sum(s["iterations"] for s in head) / len(head)
        elif how == "configs_per_s":
            value = sum(s["configs"] for s in sel) / total
        elif how == "samples_per_s":
            value = sum(s["samples"] for s in sel) / total
        elif how == "self_ms_per_frame":
            self_s = 0.0
            frames = 0
            for s in sel:
                kids = children.get(s["id"], [])
                self_s += _duration(s) - sum(_duration(c) for c in kids)
                frames += sum(1 for c in kids if c["name"] in DECODER_SPANS)
            value = 1e3 * self_s / frames
        else:
            raise ValueError(how)
        out[metric] = {"value": value, "unit": unit}
    return out
