"""A basis state's translation rows are the memoised rows themselves.

A basis state is one monomial whose coefficient is the shared ONE.  The
presentation's translation_tower and reconstruct's _expansion_terms hand
out the rows that they memoise per monomial (the presentation's _towers,
V.insertion_terms) for such a state, uncopied; every other state gets
fresh rows summed by lc_add_scaled.  The two memos stay separate objects
with no row in common, so the roundtrip still compares two independent
towers, and handing rows out must leave both memos as fresh ones.
"""

import pytest

import jetfact.jetalg as jetalg
import jetfact.reconstruct as reconstruct
from jetfact._kernels import lc_add_scaled
from jetfact.grading import GradedElement
from jetfact.jetalg import AlgebraPresentation
from jetfact.reconstruct import eta_roundtrip_check, insert
from jetfact.reports import all_pass
from jetfact.scalars import ONE, Scalar
from jetfact.vertex import VertexAlgebra

# perfbench's roundtrip family (perfbench/workloads.py Roundtrip.FAMILY).
ROUNDTRIP_FAMILY = [
    (["x"], [], 6),
    (["x"], [], 5),
    (["x"], ["x*x"], 6),
    (["x", "y"], ["x*y"], 4),
]
FAMILY_IDS = ["free x W=6", "free x W=5", "x | x*x W=6", "x,y | x*y W=4"]


@pytest.fixture(params=[[], ["x*x"]], ids=["free x", "x | x*x"])
def fresh_v(request):
    return VertexAlgebra(AlgebraPresentation(["x"], request.param, 6))


def _basis_states(P):
    return [GradedElement._make({m: ONE}, P.wmax) for m in P.basis_monomials()]


def _reference_rows(a, rows_of):
    """[a.data] then sum_m c * rows_of(m)[k] for k = 0, 1, ..., summed by
    lc_add_scaled, trailing zero rows dropped."""
    towers = [(c, rows_of(m)) for m, c in a.data.items()]
    rows = [a.data]
    for k in range(max(len(t) for _, t in towers)):
        row = {}
        for c, t in towers:
            if k < len(t):
                lc_add_scaled(row, c, t[k])
        rows.append(row)
    while rows and not rows[-1]:
        rows.pop()
    return rows


def test_basis_state_rows_are_the_memoised_rows(fresh_v):
    V = fresh_v
    P = V.presentation
    states = _basis_states(P)
    for a in states:
        (m,) = a.data
        tower = P.translation_tower(a)
        assert tower[0] is a
        assert len(tower) == 1 + len(P._towers[m])
        assert all(t.data is row for t, row in zip(tower[1:], P._towers[m]))
        terms = reconstruct._expansion_terms(a, V)
        assert terms[0] is a.data
        assert len(terms) == 1 + len(V.insertion_terms[m])
        assert all(t is row for t, row in zip(terms[1:], V.insertion_terms[m]))
        # The returned lists are new: the memos' own lists are not handed out.
        assert terms[1:] is not V.insertion_terms[m]
    assert sum(map(len, P._towers.values())) > len(states)


def test_warm_basis_rows_sum_nothing(fresh_v, monkeypatch):
    V = fresh_v
    P = V.presentation
    states = _basis_states(P)
    def rows_of(a):
        return [t.data for t in P.translation_tower(a)], reconstruct._expansion_terms(a, V)

    cold = [rows_of(a) for a in states]
    calls = []
    for module in (jetalg, reconstruct):
        add = module.lc_add_scaled
        monkeypatch.setattr(
            module,
            "lc_add_scaled",
            lambda out, c, row, add=add: calls.append(c) or add(out, c, row),
        )
    assert [rows_of(a) for a in states] == cold
    assert calls == []


@pytest.mark.parametrize(
    "text, coefficient",
    [("x", Scalar(1)), ("x", Scalar(3, 2)), ("x + d(x)", None), ("3*x + d^2(x)", None)],
    ids=["coefficient 1, not ONE", "coefficient 3/2", "two monomials", "two, one of them ONE"],
)
def test_other_states_get_fresh_summed_rows(fresh_v, text, coefficient):
    V = fresh_v
    P = V.presentation
    a = P.parse(text)
    if coefficient is not None:
        ((m, _),) = a.data.items()
        a = GradedElement._make({m: coefficient}, P.wmax)
    else:
        assert len(a.data) == 2
    tower = [t.data for t in P.translation_tower(a)]
    terms = reconstruct._expansion_terms(a, V)
    assert tower == _reference_rows(a, P._monomial_tower)
    assert terms == _reference_rows(a, V.insertion_terms.__getitem__)
    assert len(tower) > 1 and tower == terms
    memo_rows = [row for m in a.data for row in P._towers[m] + V.insertion_terms[m]]
    for row in tower[1:] + terms[1:]:
        assert all(row is not memo for memo in memo_rows)


def test_insert_reads_no_presentation_tower(fresh_v):
    # Independence: the series is built by reconstruct's own translate loop,
    # not from the towers that Field reads.
    V = fresh_v
    P = V.presentation
    for a in _basis_states(P):
        insert(["z"], [a], V)
        insert(["z", "w"], [a, a], V)
    assert V.insertion_terms
    assert P._towers == {}


@pytest.mark.parametrize("gens, rels, W", ROUNDTRIP_FAMILY, ids=FAMILY_IDS)
def test_roundtrip_leaves_both_memos_as_fresh_ones(gens, rels, W):
    P = AlgebraPresentation(gens, rels, W)
    V = VertexAlgebra(P)
    for _ in range(2):
        assert all_pass(eta_roundtrip_check(V)["checks"])
    basis = set(P.basis_monomials())
    assert set(P._towers) >= basis
    assert set(V.insertion_terms) == basis

    fresh_P = AlgebraPresentation(gens, rels, W)
    fresh_V = VertexAlgebra(fresh_P)
    assert P._towers == {m: fresh_P._monomial_tower(m) for m in P._towers}
    assert V.insertion_terms == {
        m: reconstruct._monomial_terms(m, fresh_V) for m in V.insertion_terms
    }
    assert V.insertion_terms is not P._towers
    for m, terms in V.insertion_terms.items():
        tower_rows = {id(row) for row in P._towers[m]}
        assert not any(id(row) in tower_rows for row in terms)
