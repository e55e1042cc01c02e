"""What the benchmark measures: end-to-end metrics, per-layer metrics and
the functions the traced run wraps.

Every per-layer metric names the end-to-end metric and workload it should
move, written down before any optimisation is measured against it.  The
traced run prints this mapping beside its numbers.
"""

from __future__ import annotations

from tracer import Target

WORKLOADS = {
    "sections": (
        "fact check: check_pfa_axioms(samples=1) on free x, W=6; exact complex "
        "Fraction/Scalar work in factalg and diskgeom; bypasses the reducer, "
        "reconstruct and numcx"
    ),
    "roundtrip": (
        "reconstruct roundtrip: eta_roundtrip_check(nmax=6) on a 4-presentation "
        "family; jetalg reads (multiply, derive), kernels, reconstruct.insert; "
        "bypasses factalg and numcx"
    ),
    "elimination": (
        "fresh presentation per op (2-3 gens, W=8-10, quadratic relations), dims, "
        "coeq radii 1,2,4 at W=5; jetalg build and exact ranks; bypasses "
        "reconstruct and numcx"
    ),
    "contour": (
        "num laurent + num swap on balanced-weight states (128 nodes); numpy "
        "quadrature in numcx, vertex_op, insert; bypasses factalg, diskgeom "
        "and the reducer"
    ),
}

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_SECTIONS_FIRST = "ops_per_s on sections, then elimination and roundtrip; not contour"

# name, unit, better, what it should move
PER_LAYER = [
    ("scalars.mul_us", "us", "lower", _SECTIONS_FIRST),
    ("scalars.add_us", "us", "lower", _SECTIONS_FIRST),
    ("scalars.div_us", "us", "lower", _SECTIONS_FIRST),
    ("scalars.calls", "count", "lower", _SECTIONS_FIRST),
    ("scalars.est_share", "%", "lower", _SECTIONS_FIRST),
    ("kernels.lc_mul_4x4_us", "us", "lower", "ops_per_s on roundtrip"),
    ("kernels.lc_mul_10x10_us", "us", "lower", "ops_per_s on roundtrip"),
    ("kernels.lc_mul_25x25_us", "us", "lower", "ops_per_s on roundtrip"),
    ("kernels.lc_derive_25_us", "us", "lower", "ops_per_s on roundtrip"),
    ("kernels.lc_mul.calls", "count", "lower", "ops_per_s on roundtrip"),
    ("kernels.self_share", "%", "lower", "ops_per_s on roundtrip"),
    ("vertex.mode_table_ms", "ms", "lower", "ops_per_s on roundtrip and contour"),
    ("jetalg.self_share", "%", "lower", "ops_per_s on elimination and roundtrip"),
    ("jetalg.build.self_share", "%", "lower", "ops_per_s on elimination; setup_s elsewhere"),
    ("jetalg.normal_form.self_share", "%", "lower", "ops_per_s on roundtrip"),
    ("jetalg.multiply.self_share", "%", "lower", "ops_per_s on roundtrip"),
    ("jetalg.derive.self_share", "%", "lower", "ops_per_s on roundtrip"),
    ("jetalg.reduce_monomial.hit_ratio", "ratio", "higher", "ops_per_s on sections"),
    ("vertex.self_share", "%", "lower", "ops_per_s on roundtrip and contour"),
    ("vertex.vertex_op.calls", "count", "lower", "ops_per_s on roundtrip and contour"),
    ("vertex.vertex_op.self_share", "%", "lower", "ops_per_s on roundtrip and contour"),
    ("vertex.completion_translation.calls", "count", "lower",
     "ops_per_s on sections (equivariant_act) and roundtrip (point 0 in insert)"),
    ("vertex.completion_translation.self_share", "%", "lower",
     "ops_per_s on sections (equivariant_act) and roundtrip (point 0 in insert)"),
    ("diskgeom.self_share", "%", "lower", "ops_per_s on sections"),
    ("factalg.self_share", "%", "lower", "ops_per_s on sections and elimination"),
    ("factalg.corestrict.self_share", "%", "lower", "ops_per_s on sections"),
    ("factalg.tensor_concat.self_share", "%", "lower", "ops_per_s on sections"),
    ("factalg.equivariant_act.self_share", "%", "lower", "ops_per_s on sections"),
    ("factalg.section_keys", "count", "lower", "ops_per_s on sections"),
    ("factalg.check_coequalizer_chain.self_share", "%", "lower", "ops_per_s on elimination"),
    ("factalg.exact_rank.self_share", "%", "lower", "ops_per_s on elimination"),
    ("factalg.coeq_corestrict.calls", "count", "lower", "ops_per_s on elimination"),
    ("reconstruct.self_share", "%", "lower", "ops_per_s on roundtrip and contour"),
    ("reconstruct.insert.calls", "count", "lower", "ops_per_s on roundtrip and contour"),
    ("reconstruct.insert.self_share", "%", "lower", "ops_per_s on roundtrip and contour"),
    ("reconstruct.insert_per_pair", "calls/pair", "lower", "ops_per_s on roundtrip"),
    ("numcx.cauchy_coeff.calls", "count", "lower", "ops_per_s on contour"),
    ("numcx.self_share", "%", "lower", "ops_per_s on contour"),
    ("numcx.eval_points", "count", "lower", "ops_per_s on contour"),
    ("op.self_share", "%", "lower", "none: code outside every wrapped function"),
    ("cli.import_ms", "ms", "lower", "setup_s on sections, roundtrip and elimination; not contour"),
    ("cli.numpy_import_ms", "ms", "lower", "setup_s, as the numpy part of cli.import_ms"),
    ("trace.op_ms", "ms", "lower", "ops_per_s; multiply a self_share by it for ms per op"),
    ("trace.overhead_ratio", "ratio", "lower", "none: cost of tracing itself"),
]

# Self-share rows are sums of span self times: per layer over every span
# whose name starts with "<layer>.", per function over that span name.
LAYERS = ["kernels", "jetalg", "vertex", "diskgeom", "factalg", "reconstruct", "numcx"]

PACKAGE = "jetfact"
# Kernel backends call their own helpers; those calls stay in the span.
SKIP_MODULES = ("jetfact._kernels.",)

SCALAR_COUNTERS = {
    "__add__": "scalars.add",
    "__sub__": "scalars.sub",
    "__neg__": "scalars.neg",
    "__mul__": "scalars.mul",
    "__truediv__": "scalars.div",
    "__pow__": "scalars.pow",
}

TARGETS = [
    Target("jetfact.scalars", f"Scalar.{attr}", name, "count")
    for attr, name in SCALAR_COUNTERS.items()
] + [
    Target("jetfact._kernels", "lc_mul", "kernels.lc_mul"),
    Target("jetfact._kernels", "lc_derive", "kernels.lc_derive"),
    Target("jetfact._kernels", "lc_add", "kernels.lc_add"),
    Target("jetfact._kernels", "lc_scale", "kernels.lc_scale"),
    Target("jetfact._kernels", "mono_mul", "kernels.mono_mul", "count"),
    Target("jetfact.jetalg", "AlgebraPresentation.__init__", "jetalg.build"),
    Target("jetfact.jetalg", "AlgebraPresentation.normal_form", "jetalg.normal_form"),
    Target("jetfact.jetalg", "AlgebraPresentation.multiply", "jetalg.multiply"),
    Target("jetfact.jetalg", "AlgebraPresentation.derive", "jetalg.derive"),
    Target("jetfact.jetalg", "AlgebraPresentation.reduce_monomial",
           "jetalg.reduce_monomial", "distinct"),
    Target("jetfact.vertex", "vertex_op", "vertex.vertex_op"),
    Target("jetfact.vertex", "completion_translation", "vertex.completion_translation"),
    Target("jetfact.vertex", "completion_rotation", "vertex.completion_rotation"),
    Target("jetfact.diskgeom", "act", "diskgeom.act"),
    Target("jetfact.diskgeom", "decompose", "diskgeom.decompose"),
    Target("jetfact.diskgeom", "connected_components", "diskgeom.connected_components"),
    Target("jetfact.diskgeom", "BasisElement.__init__", "diskgeom.basis_element"),
    Target("jetfact.factalg", "corestrict", "factalg.corestrict", "keys"),
    Target("jetfact.factalg", "tensor_concat", "factalg.tensor_concat", "keys"),
    Target("jetfact.factalg", "equivariant_act", "factalg.equivariant_act", "keys"),
    Target("jetfact.factalg", "check_pfa_axioms", "factalg.check_pfa_axioms"),
    Target("jetfact.factalg", "check_coequalizer_chain", "factalg.check_coequalizer_chain"),
    Target("jetfact.factalg", "_exact_rank", "factalg.exact_rank"),
    Target("jetfact.reconstruct", "insert", "reconstruct.insert"),
    Target("jetfact.reconstruct", "eta_roundtrip_check", "reconstruct.eta_roundtrip_check"),
    Target("jetfact.numcx", "mode_agreement_check", "numcx.mode_agreement_check"),
    Target("jetfact.numcx", "residue_swap_check", "numcx.residue_swap_check"),
    Target("jetfact.numcx", "cauchy_coeff", "numcx.cauchy_coeff"),
    Target("jetfact.numcx", "series_function", "numcx.series_function", "evaluator"),
    Target("jetfact.numcx", "ContourFunction.eval_many", "numcx.eval_many"),
    Target("jetfact.numcx", "element_vector", "numcx.element_vector"),
]

# The program runs on one thread and has no queues or locks, so no layer
# ever waits for another; the traced run has no "time waited" figure.
NO_WAIT_NOTE = (
    "single-threaded, no queues: no layer has a time-waited figure, so none "
    "is reported"
)
