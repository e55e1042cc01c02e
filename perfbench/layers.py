"""Per-layer numbers from the spans and counters of traced ops."""

from __future__ import annotations

import json
from collections import defaultdict

from catalog import LAYERS, PER_LAYER, SCALAR_COUNTERS
from tracer import self_times

__all__ = ["LayerStats"]

KEYED = ["factalg.corestrict", "factalg.tensor_concat", "factalg.equivariant_act"]
COEQ = "factalg.check_coequalizer_chain"


class LayerStats:
    """Totals over traced ops; ``metrics`` turns them into per-op figures."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.ops = 0
        self.op_seconds = 0.0
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.hit_ratios = []
        self.pairs = 0
        self.coeq_corestrict = 0
        self.kept = []

    def add_op(self, spans, counts, distinct, pairs):
        root = spans[0]
        if root[0] != "op" or root[3] != -1:
            raise ValueError("the first span of a traced op must be its root span")
        self.ops += 1
        self.op_seconds += root[2] - root[1]
        in_coeq = []
        for span, own in zip(spans, self_times(spans)):
            name, parent = span[0], span[3]
            self.self_seconds[name] += own
            self.calls[name] += 1
            inside = parent >= 0 and (in_coeq[parent] or spans[parent][0] == COEQ)
            in_coeq.append(inside)
            if inside and name == "factalg.corestrict":
                self.coeq_corestrict += 1
        for key, value in counts.items():
            self.counts[key] += value
        calls = counts.get("jetalg.reduce_monomial", 0)
        if calls:
            self.hit_ratios.append(1 - distinct["jetalg.reduce_monomial"] / calls)
        self.pairs += pairs
        if sum(map(len, self.kept)) + len(spans) <= self.span_cap:
            self.kept.append(spans)

    def _share(self, seconds):
        return 100.0 * seconds / self.op_seconds

    def metrics(self, micro: dict, untraced_seconds: float, scale: float) -> dict:
        """Per-op figures; ``scale`` turns raw span seconds into calibrated
        seconds, comparable with ``untraced_seconds``."""
        n = self.ops
        out = {}
        for metric, *_ in PER_LAYER:
            span, kind = metric.rsplit(".", 1)
            if kind == "self_share" and span in LAYERS:
                own = sum(v for k, v in self.self_seconds.items() if k.startswith(span + "."))
                out[metric] = self._share(own)
            elif kind == "self_share":
                out[metric] = self._share(self.self_seconds.get(span, 0.0))
            elif kind == "calls":
                out[metric] = self.calls.get(span, 0) / n

        # Counted, not spanned: set after the per-span rows above.
        scalar_calls = {name: self.counts.get(name, 0) for name in SCALAR_COUNTERS.values()}
        out["scalars.calls"] = sum(scalar_calls.values()) / n
        # Estimated scalar time: call counts times the microbenchmark cost of
        # one call.  __pow__ is left out because its multiplications are
        # counted as multiplications.
        est_us = (
            scalar_calls["scalars.mul"] * micro["scalars.mul_us"]
            + (scalar_calls["scalars.add"] + scalar_calls["scalars.sub"]
               + scalar_calls["scalars.neg"]) * micro["scalars.add_us"]
            + scalar_calls["scalars.div"] * micro["scalars.div_us"]
        )
        out["scalars.est_share"] = 100.0 * est_us * 1e-6 / untraced_seconds

        out["jetalg.reduce_monomial.hit_ratio"] = (
            sum(self.hit_ratios) / len(self.hit_ratios) if self.hit_ratios else 0.0
        )
        sections = sum(self.calls.get(k, 0) for k in KEYED)
        keys = sum(self.counts.get(k + ".keys", 0) for k in KEYED)
        out["factalg.section_keys"] = keys / sections if sections else 0.0
        out["factalg.coeq_corestrict.calls"] = self.coeq_corestrict / n
        inserts = self.calls.get("reconstruct.insert", 0)
        out["reconstruct.insert_per_pair"] = inserts / self.pairs if self.pairs else 0.0
        out["numcx.eval_points"] = (
            self.counts.get("numcx.series_function.eval.points", 0) / n
        )
        out["trace.op_ms"] = 1e3 * self.op_seconds * scale / n
        out["trace.overhead_ratio"] = self.op_seconds * scale / untraced_seconds
        return out

    def write_spans(self, path):
        """Write the kept spans (whole ops, at most ``span_cap`` spans) as JSON
        lines; return the path and how many were written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.kept:
                base = spans[0][1]
                for index, (name, start, end, parent, op) in enumerate(spans):
                    fh.write(json.dumps({
                        "op": op, "index": index, "name": name, "parent": parent,
                        "start_us": round((start - base) * 1e6, 3),
                        "end_us": round((end - base) * 1e6, 3),
                    }) + "\n")
                written += len(spans)
        self.kept.clear()
        return {"path": str(path.relative_to(path.parent.parent)), "spans": written}
