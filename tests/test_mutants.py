"""Mutation smoke tests: each named mutant is patched in at a module global
of the section or vertex layer, and the harness that covers it must report
a failure (not pass, and not crash)."""

from math import factorial

from jetfact import factalg, vertex
from jetfact.factalg import check_coequalizer_chain, check_pfa_axioms
from jetfact.reconstruct import eta_roundtrip_check
from jetfact.scalars import Scalar
from jetfact.vertex import check_vertex_axioms


def failing(report) -> set:
    return {c["name"] for c in report["checks"] if c["status"] != "pass"}


def test_negated_corestriction_fails_both_harnesses(monkeypatch, free_x):
    corestrict = factalg.corestrict
    monkeypatch.setattr(
        factalg, "corestrict", lambda s, M, *args: corestrict(s, M, *args).scale(Scalar(-1))
    )
    assert failing(check_pfa_axioms(free_x, samples=5, seed=0))
    assert failing(check_coequalizer_chain(free_x, [1, 2, 4], wmax=4))


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


def test_identity_rotation_fails_equivariance_compose(monkeypatch, free_x):
    monkeypatch.setattr(factalg, "completion_rotation", lambda q, elem, V: elem)
    assert "equivariance_compose" in failing(check_pfa_axioms(free_x, samples=5, seed=0))


def test_doubled_factorial_fails_three_harnesses(monkeypatch, free_x, vx):
    # vertex_op and completion_translation share the factorial: the modes,
    # the reconstructed modes and the translation flow all go wrong.
    monkeypatch.setattr(vertex, "factorial", lambda n: factorial(n) * (2 if n >= 2 else 1))
    assert "translation" in failing(check_vertex_axioms(vx, samples=20, seed=0))
    assert "modes" in failing(eta_roundtrip_check(vx))
    assert {"equivariance_compose", "equivariance_multiplication"} <= failing(
        check_pfa_axioms(free_x, samples=5, seed=0)
    )
