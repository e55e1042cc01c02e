"""Mutation smoke tests: each named mutant is patched in at a module global
of the section, jet, insertion or numeric layer, or written into a table of
a fresh presentation, and the harness that covers it must report a failure
(not pass, and not crash)."""

import json
from math import factorial

import pytest

from jetfact import factalg, jetalg, numcx, reconstruct, vertex
from jetfact._kernels import lc_scale
from jetfact.cli import run
from jetfact.jetalg import AlgebraHom, AlgebraPresentation
from jetfact.factalg import check_adjunction, check_coequalizer_chain, check_pfa_axioms
from jetfact.reconstruct import eta_roundtrip_check
from jetfact.scalars import Scalar
from jetfact.vertex import ModeTable, VertexAlgebra, check_vertex_axioms


def failing(report) -> set:
    return {c["name"] for c in report["checks"] if c["status"] != "pass"}


def first_mode_counterexample(report):
    return next(c for c in report["checks"] if c["name"] == "modes")["detail"][
        "first_counterexample"
    ]


def test_negated_corestriction_fails_both_harnesses(monkeypatch, free_x):
    corestrict = factalg.corestrict
    monkeypatch.setattr(
        factalg, "corestrict", lambda s, M, *args: corestrict(s, M, *args).scale(Scalar(-1))
    )
    assert failing(check_pfa_axioms(free_x, samples=5, seed=0))
    # Every image comes back negated, so no weight maps onto the top disk.
    report = check_coequalizer_chain(free_x, [1, 2, 4], wmax=4)
    assert failing(report) == {f"weight_{delta}" for delta in range(5)}


def test_group_product_dropping_a_factor_fails(monkeypatch, free_x):
    # The last index of each group is dropped, so a corestriction between
    # single disks returns the unit: outside the weight-delta basis for
    # delta > 0, which the gluing check must report as a failure.
    group_product = factalg._group_product
    monkeypatch.setattr(
        factalg,
        "_group_product",
        lambda P, key, index_lists: group_product(P, key, [g[:-1] for g in index_lists]),
    )
    report = check_pfa_axioms(free_x, samples=5, seed=0)
    assert {"functoriality_chain", "associativity", "equivariance_multiplication"} <= failing(
        report
    )
    report = check_coequalizer_chain(free_x, [1, 2, 4], wmax=4)
    assert failing(report) == {f"weight_{delta}" for delta in range(1, 5)}


@pytest.mark.parametrize(
    "gens, relations", [("x", []), ("xyz", ["x*y", "y*z"])], ids=["free x", "x,y,z | xy; yz"]
)
def test_corestriction_dropping_a_term_fails_the_gluing_check(monkeypatch, gens, relations):
    # A pushed section loses its last term once it has two or more, so the
    # gluing check's blocks come back one image short at every weight of
    # dimension two or more; the weights of dimension one are untouched.
    corestrict = factalg.corestrict

    def dropping(s, M):
        out = corestrict(s, M)
        if len(out.terms) < 2:
            return out
        return factalg.TensorSection._make(out.L, out.P, out.terms[:-1])

    monkeypatch.setattr(factalg, "corestrict", dropping)
    P = AlgebraPresentation(list(gens), relations, 5)
    report = check_coequalizer_chain(P, [1, 2, 4])
    assert failing(report) == {f"weight_{d}" for d, dim in enumerate(P.dims()) if dim >= 2}


def test_identity_rotation_fails_equivariance_compose(monkeypatch, free_x):
    # The flow keeps its translation and ignores the rotation q.
    flow = AlgebraPresentation.flow
    monkeypatch.setattr(AlgebraPresentation, "flow", lambda P, q, z: flow(P, 1, z))
    assert "equivariance_compose" in failing(check_pfa_axioms(free_x, samples=5, seed=0))


def test_doubled_factorial_fails_three_harnesses(monkeypatch):
    # The translation tower of jetalg feeds vertex_op and
    # completion_translation; reconstruct keeps its own factorial, so the
    # modes, the reconstructed modes and the translation flow all go wrong.
    # Towers are memoised per presentation: build fresh ones under the mutant.
    monkeypatch.setattr(jetalg, "factorial", lambda n: factorial(n) * (2 if n >= 2 else 1))
    vx = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    assert "translation" in failing(check_vertex_axioms(vx, samples=20, seed=0))
    vx = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    assert "modes" in failing(eta_roundtrip_check(vx))
    free_x = AlgebraPresentation(["x"], [], 6)
    assert {"equivariance_compose", "equivariance_multiplication"} <= failing(
        check_pfa_axioms(free_x, samples=5, seed=0)
    )


@pytest.mark.parametrize(
    "lowest, expected",
    [(2, {"modes"}), (1, {"translation", "modes"})],
    ids=["n >= 2", "n >= 1"],
)
def test_doubled_insertion_factorial_fails_the_roundtrip(monkeypatch, lowest, expected):
    # reconstruct's own T^k m / k! is memoised per VertexAlgebra: build a
    # fresh one under the mutant.  Only k = 1 feeds the translation check.
    monkeypatch.setattr(
        reconstruct, "factorial", lambda n: factorial(n) * (2 if n >= lowest else 1)
    )
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    assert failing(eta_roundtrip_check(V)) == expected


def test_doubled_placed_state_fails_the_roundtrip_modes(monkeypatch):
    place = reconstruct._place
    monkeypatch.setattr(
        reconstruct,
        "_place",
        lambda series, point, state, V: place(series, point, state.scale(Scalar(2)), V),
    )
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    assert failing(eta_roundtrip_check(V)) == {"modes"}


# The presentations of the roundtrip benchmark workload.
ROUNDTRIP_FAMILY = [
    (["x"], [], 6),
    (["x"], [], 5),
    (["x"], ["x*x"], 6),
    (["x", "y"], ["x*y"], 4),
]
ROUNDTRIP_IDS = ["free x W=6", "free x W=5", "x | x*x W=6", "x,y | x*y W=4"]


@pytest.mark.parametrize("gens, rels, W", ROUNDTRIP_FAMILY, ids=ROUNDTRIP_IDS)
def test_field_skipping_at_the_bound_fails_axioms_and_roundtrip(monkeypatch, gens, rels, W):
    # Off by one on the native side: the field also skips a tower term whose
    # lowest weight plus b's equals W, so products of weight W go missing.
    # The roundtrip's block skip reads the field's own low, which the
    # mutant leaves alone, so the pairs it loses are still compared.
    within = vertex._terms_within
    monkeypatch.setattr(vertex, "_terms_within", lambda tower, room: within(tower, room - 1))
    V = VertexAlgebra(AlgebraPresentation(gens, rels, W))
    assert {"vacuum_left", "vacuum_right", "translation"} <= failing(
        check_vertex_axioms(V, samples=20, seed=0)
    )
    report = eta_roundtrip_check(V)
    assert failing(report) == {"modes"}
    # The first pair lost: the vacuum times the first state of weight W.
    assert first_mode_counterexample(report) == {"a": "1", "b": f"x{W - 1}"}


@pytest.mark.parametrize("gens, rels, W", ROUNDTRIP_FAMILY, ids=ROUNDTRIP_IDS)
def test_series_skipping_at_the_bound_fails_the_roundtrip_modes(monkeypatch, gens, rels, W):
    # The same off-by-one on the reconstructed side: the series rows whose
    # lowest weight plus b's equals W are not placed, and a block they
    # leave empty is still compared, since the field's low meets it.
    within = reconstruct._rows_within
    monkeypatch.setattr(reconstruct, "_rows_within", lambda rows, room: within(rows, room - 1))
    V = VertexAlgebra(AlgebraPresentation(gens, rels, W))
    report = eta_roundtrip_check(V)
    assert failing(report) == {"modes"}
    # The vacuum's only row is lost in the block of weight W; the field's
    # bound, low 0, still has that block compared.
    assert first_mode_counterexample(report) == {"a": "1", "b": f"x{W - 1}"}


@pytest.mark.parametrize(
    "gens, rels", [(["x"], []), (["x", "y"], ["x*y"])], ids=["free x", "x,y | x*y"]
)
def test_doubled_translation_fails_only_translation_is_jet(monkeypatch, gens, rels):
    # T -> 2T is a vertex algebra too, but not the jet algebra's.  The
    # derivative table is memoised: build the presentation under the mutant.
    lc_derive = jetalg.lc_derive
    monkeypatch.setattr(
        jetalg, "lc_derive", lambda data, wmax: lc_scale(lc_derive(data, wmax), Scalar(2))
    )
    V = VertexAlgebra(AlgebraPresentation(gens, rels, 6))
    assert failing(check_vertex_axioms(V, samples=20, seed=0)) == {"translation_is_jet"}


X0 = (("x", 0),)


@pytest.mark.parametrize(
    "table, key, row",
    [
        ("_products", (X0, X0), {(("x", 0), ("x", 0)): Scalar(2)}),
        ("_derivatives", X0, {(("x", 1),): Scalar(2)}),
    ],
    ids=["product x0*x0", "derivative x0"],
)
def test_corrupted_table_entry_fails_translation(table, key, row):
    P = AlgebraPresentation(["x"], [], 6)
    if table == "_products":
        P._products.setdefault(key[0], {})[key[1]] = row
    else:
        P._derivatives[key] = row
    assert "translation" in failing(check_vertex_axioms(VertexAlgebra(P), samples=20, seed=0))


@pytest.mark.parametrize(
    "gens, rels", [(["x"], []), (["x", "y"], ["x*y"])], ids=["free x", "x,y | x*y"]
)
def test_concat_without_the_disk_reorder_fails_symmetry(monkeypatch, gens, rels):
    # Factors stay in s-then-t order while the disks of the union are
    # sorted, so s (x) t and t (x) s put their factors on different disks.
    def unordered_concat(s, t):
        terms = [(c1 * c2, f1 + f2) for c1, f1 in s.terms for c2, f2 in t.terms]
        return factalg.TensorSection._make(s.L.union(t.L), s.P, terms)

    monkeypatch.setattr(factalg, "tensor_concat", unordered_concat)
    P = AlgebraPresentation(gens, rels, 6)
    assert "symmetry" in failing(check_pfa_axioms(P, samples=5, seed=0))


def test_rescaled_variable_image_fails_extract_after_wrap(monkeypatch, free_x):
    # The extracted morphism sends x0 to twice the image it should have.
    theta = factalg.adjunction_theta

    def rescaled(phi):
        f = theta(phi)
        images = dict(f.variable_items())
        images[("x", 0)] = images[("x", 0)].scale(Scalar(2))
        return AlgebraHom(f.source, f.target, images)

    monkeypatch.setattr(factalg, "adjunction_theta", rescaled)
    report = check_adjunction(free_x, samples=5, seed=0)
    assert "extract_after_wrap" in failing(report)
    entry = next(c for c in report["checks"] if c["name"] == "extract_after_wrap")
    assert ("x", 0) in entry["detail"]["first_counterexample"]["variables"]


def test_doubled_modes_fail_the_swap_mode_sums(monkeypatch, tmp_path):
    # Both exact binomial mode sums read the doubled modes; the two numeric
    # contour orders do not.
    field_tables = numcx.field_tables

    def doubled(V):
        tables = field_tables(V)

        def table_fn(a, b):
            table = tables(a, b)
            return ModeTable({n: e.scale(Scalar(2)) for n, e in table.items()}, table.wmax)

        return table_fn

    monkeypatch.setattr(numcx, "field_tables", doubled)
    out = tmp_path / "swap.json"
    assert run(["num", "swap", "--samples", "5", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    for name in ("matches_mode_sum_first_order", "matches_mode_sum_second_order"):
        assert name in failing(report)
        entry = next(c for c in report["checks"] if c["name"] == name)
        assert {"a", "b", "c", "m", "n", "N"} <= entry["detail"]["first_counterexample"].keys()


def test_every_failure_names_a_counterexample(monkeypatch, free_x):
    # Negated corestriction and action break the unit law and the
    # equivariance checks; each failure must carry its counterexample.
    corestrict, act = factalg.corestrict, factalg.equivariant_act
    monkeypatch.setattr(factalg, "corestrict", lambda s, M: corestrict(s, M).scale(Scalar(-1)))
    monkeypatch.setattr(factalg, "equivariant_act", lambda g, s: act(g, s).scale(Scalar(-1)))
    report = check_pfa_axioms(free_x, samples=2, seed=0, corrupt=True)
    assert {"unit", "equivariance_identity", "equivariance_unit"} <= failing(report)
    for c in report["checks"]:
        if c["status"] == "fail":
            assert c["detail"]["first_counterexample"] is not None, c["name"]
