from fractions import Fraction

import pytest

from jetfact._kernels import lc_scale
from jetfact.grading import GradedElement
from jetfact.jetalg import AlgebraPresentation
from jetfact.reports import all_pass
from jetfact.reconstruct import (
    InsertionSeries,
    eta_roundtrip_check,
    insert,
    insert_via_disks,
    mode_of,
    modes_of,
    translation_of,
    vacuum_of,
)
from jetfact.sampling import Sampler
from jetfact.scalars import ONE, Scalar
from jetfact.vertex import (
    Field,
    VertexAlgebra,
    completion_rotation,
    completion_translation,
    vertex_op,
)


@pytest.fixture(scope="module")
def v4():
    return VertexAlgebra(AlgebraPresentation(["x"], [], 4))


def test_one_point_series(v4):
    P = v4.presentation
    x = P.gen("x")
    series = insert(["z"], [x], v4)
    assert series.coefficient((0,)) == x
    assert series.coefficient((1,)) == P.gen("x", 1)
    assert series.coefficient((2,)) == P.gen("x", 2).scale(Scalar(Fraction(1, 2)))
    assert series.coefficient((3,)) == P.gen("x", 3).scale(Scalar(Fraction(1, 6)))
    assert not series.coefficient((4,))


def test_two_point_series(v4):
    P = v4.presentation
    x = P.gen("x")
    series = insert(["z", Scalar(0)], [x, x], v4)
    xx = P.multiply(x, x)
    assert series.coefficient((0,)) == xx
    assert series.coefficient((1,)) == GradedElement({(("x", 1), ("x", 0)): 1}, 4)
    assert series.coefficient((2,)) == GradedElement(
        {(("x", 2), ("x", 0)): Scalar(Fraction(1, 2))}, 4
    )
    assert not series.coefficient((3,))  # weight 5 exceeds the bound


def test_empty_insertion(v4):
    series = insert([], [], v4)
    assert series.variables == ()
    assert series.coefficient(()) == v4.vacuum()


def test_insert_validation(v4):
    x = v4.presentation.gen("x")
    with pytest.raises(ValueError):
        insert([Scalar(1), Scalar(1)], [x, x], v4)
    with pytest.raises(ValueError):
        insert(["z", "z"], [x, x], v4)
    with pytest.raises(ValueError):
        insert(["z"], [x, x], v4)
    # Symbolic and exact points may collide in value: symbols are formal.
    insert(["z", Scalar(0), Scalar(1)], [x, x, x], v4)


ZERO = GradedElement.zero(6)
ZERO5 = GradedElement.zero(5)  # truncation bound 5 on a W=6 presentation
Y = GradedElement.generator("y", 0, 6)  # undeclared on free x


@pytest.mark.parametrize(
    "call",
    [
        lambda V: insert(["z"], [ZERO5], V),
        lambda V: insert(["z", Scalar(0)], [ZERO, Y], V),
        lambda V: modes_of(ZERO, Y, V),
        lambda V: mode_of(ZERO, Y, -1, V),
        lambda V: insert(["z"], [Y], V),
        lambda V: insert([Scalar(0)], [ZERO5], V),
        lambda V: mode_of(Y, Y, 0, V),
        lambda V: mode_of(ZERO5, ZERO, 0, V),
        lambda V: mode_of(ZERO, ZERO5, 3, V),
    ],
    ids=[
        "z: 0@5",
        "z, 0: 0, y",
        "modes_of 0, y",
        "mode_of 0, y",
        "z: y",
        "0: 0@5",
        "mode_of y, y, 0",
        "mode_of 0@5, 0, 0",
        "mode_of 0, 0@5, 3",
    ],
)
def test_insert_checks_every_state(vx, call):
    with pytest.raises(ValueError):
        call(vx)


def test_vacuum_of(v4):
    vac = vacuum_of(v4)
    assert vac == v4.vacuum()
    assert vac.weight() == 0
    assert completion_translation(Scalar(Fraction(2, 3)), vac, v4) == vac


def test_translation_of(v4):
    P = v4.presentation
    x = P.gen("x")
    assert translation_of(x, v4) == P.gen("x", 1)
    assert not translation_of(vacuum_of(v4), v4)
    xx = P.multiply(x, x)
    assert translation_of(xx, v4) == GradedElement({(("x", 1), ("x", 0)): 2}, 4)


def test_mode_of_examples(v4):
    P = v4.presentation
    x = P.gen("x")
    assert mode_of(x, x, -1, v4) == P.multiply(x, x)
    assert not mode_of(x, x, 0, v4)
    assert not mode_of(x, x, 5, v4)
    assert mode_of(vacuum_of(v4), x, -1, v4) == x


def test_modes_match_vertex_op(v4):
    s = Sampler(3)
    P = v4.presentation
    for _ in range(20):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        assert modes_of(a, b, v4) == vertex_op(a, b, v4)


def test_translation_mode_identity(v4):
    # T(a_(n) b) = -n a_(n-1) b + a_(n) (T b), through the series route.
    s = Sampler(7)
    P = v4.presentation
    for _ in range(15):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        for n in range(-4, 0):
            lhs = v4.translate(mode_of(a, b, n, v4))
            rhs = mode_of(a, b, n - 1, v4).scale(Scalar(-n)) + mode_of(
                a, v4.translate(b), n, v4
            )
            assert lhs == rhs


def test_two_point_factorization(v4):
    # The two-point series is the one-point series times the still state.
    s = Sampler(11)
    P = v4.presentation
    for _ in range(15):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        two = insert(["z", Scalar(0)], [a, b], v4)
        one = insert(["z"], [a], v4)
        one_scaled = InsertionSeries(
            one.variables, {e: P.multiply(c, b) for e, c in one.coeffs.items()}, one.wmax
        )
        assert two == one_scaled


def test_rotation_covariance(v4):
    # Applying the rotation flow to the series equals substituting q z and
    # scaling by q to the total input weight.
    s = Sampler(13)
    P = v4.presentation
    for _ in range(10):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        q = s.unit_scalar()
        series = insert(["z", "w"], [a, b], v4)
        rotated = {e: completion_rotation(q, c, v4) for e, c in series.coeffs.items()}
        substituted = {
            e: c.scale(q ** (sum(e) + a.weight() + b.weight()))
            for e, c in series.coeffs.items()
        }
        assert rotated == substituted


def test_weight_degree_bound(v4):
    # In weight d the series is polynomial of total degree <= d - sum of
    # the input weights: the computable form of holomorphy.
    s = Sampler(17)
    P = v4.presentation
    for _ in range(10):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        series = insert(["z", "w"], [a, b], v4)
        base = a.weight() + b.weight()
        for exps, elem in series.coeffs.items():
            for delta in elem.weights():
                assert sum(exps) <= delta - base


def test_all_exact_points_collapse_to_element(v4):
    P = v4.presentation
    x = P.gen("x")
    z1 = Scalar(Fraction(1, 3))
    series = insert([z1, Scalar(0)], [x, x], v4)
    assert series.variables == ()
    direct = insert(["z", Scalar(0)], [x, x], v4).evaluate_exact({"z": z1})
    assert series.coefficient(()) == direct
    assert direct == P.multiply(completion_translation(z1, x, v4), x)


def test_disk_route_matches_series(v4):
    s = Sampler(19)
    P = v4.presentation
    pts_pool = [Scalar(0), Scalar(1), Scalar(Fraction(1, 2)), Scalar(0, 1), Scalar(2, 1)]
    for _ in range(10):
        k = s.rng.randint(1, 3)
        pts = s.rng.sample(pts_pool, k)
        elems = [s.homogeneous_element(P, max_terms=1) for _ in range(k)]
        names = [f"z{i}" for i in range(k)]
        series = insert(names, elems, v4)
        direct = series.evaluate_exact(dict(zip(names, pts)))
        slow = insert_via_disks(pts, elems, v4)
        assert direct == slow


def test_eta_roundtrip(v4):
    report = eta_roundtrip_check(v4, nmax=6)
    assert all_pass(report["checks"])


def test_eta_roundtrip_quotient():
    V = VertexAlgebra(AlgebraPresentation(["x", "y"], ["x*y"], 4))
    report = eta_roundtrip_check(V, nmax=4)
    assert all_pass(report["checks"])


@pytest.mark.parametrize(
    "gens, rels", [(["x"], []), (["x", "y"], ["x*y"])], ids=["free x", "x,y | x*y"]
)
def test_two_point_series_is_one_point_series_times_b(gens, rels):
    # The roundtrip harness builds each two-point series at (z, 0) as the
    # one-point series of a times b; this is that identity, read through
    # the public API on every basis pair and every power of z.  The exact
    # point 0 adds no variable, so z^k is the key (k,) in both series.
    V = VertexAlgebra(AlgebraPresentation(gens, rels, 4))
    P = V.presentation
    basis = [
        GradedElement({m: 1}, P.wmax)
        for delta in range(P.wmax + 1)
        for m in P.weight_basis(delta)
    ]
    for a in basis:
        one = insert(["z"], [a], V)
        for b in basis:
            two = insert(["z", 0], [a, b], V)
            assert two.variables == ("z",)
            for k in range(P.wmax + 1):
                assert two.coefficient((k,)) == P.multiply(one.coefficient((k,)), b)


def test_eta_roundtrip_catches_a_wrong_mode(v4, monkeypatch):
    import jetfact.reconstruct as reconstruct

    x = v4.presentation.gen("x")

    class Perturbed:
        """The field of a with its (x, x) mode a_(-1) b doubled; low is
        forwarded, so the block skip reads the true bound."""

        def __init__(self, a, V):
            self.a = a
            self.field = Field(a, V)
            self.low = self.field.low

        def rows(self, b):
            rows = self.field.rows(b)
            if self.a == x and b == x:
                rows[-1] = lc_scale(rows[-1], Scalar(2))
            return rows

    monkeypatch.setattr(reconstruct, "Field", Perturbed)
    report = eta_roundtrip_check(v4, nmax=6)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status == {"vacuum": "pass", "translation": "pass", "modes": "fail"}
    modes = report["checks"][-1]
    assert modes["detail"]["first_counterexample"] == {"a": str(x), "b": str(x)}


def test_eta_roundtrip_reads_the_field_bound_from_the_field(v4, monkeypatch):
    # A field that claims to meet every weight (low 0) and gives a spurious
    # mode wherever its true rows are empty: the blocks that the series
    # leaves empty must still be compared, since the field's bound says
    # they can meet.
    import jetfact.reconstruct as reconstruct

    class Spurious:
        def __init__(self, a, V):
            self.field = Field(a, V)
            self.low = 0

        def rows(self, b):
            return self.field.rows(b) or {-1: b.data}

    monkeypatch.setattr(reconstruct, "Field", Spurious)
    status = {c["name"]: c["status"] for c in eta_roundtrip_check(v4)["checks"]}
    assert status == {"vacuum": "pass", "translation": "pass", "modes": "fail"}


def test_eta_roundtrip_reads_the_series_bound_from_the_series(v4, monkeypatch):
    # The same on the reconstructed side: where no series row can meet b,
    # a spurious unit row is picked; the field's bound says nothing meets
    # there, and the block must still be compared.
    import jetfact.reconstruct as reconstruct

    within = reconstruct._rows_within
    monkeypatch.setattr(
        reconstruct,
        "_rows_within",
        lambda rows, room: within(rows, room) or {(9,): GradedElement.one(4).data},
    )
    status = {c["name"]: c["status"] for c in eta_roundtrip_check(v4)["checks"]}
    assert status == {"vacuum": "pass", "translation": "pass", "modes": "fail"}


def test_eta_roundtrip_builds_each_tower_once(vx, monkeypatch):
    P = vx.presentation
    calls = []
    tower = AlgebraPresentation.translation_tower

    def counted(self, a):
        calls.append(a)
        return tower(self, a)

    monkeypatch.setattr(AlgebraPresentation, "translation_tower", counted)
    report = eta_roundtrip_check(vx, nmax=6)
    assert all_pass(report["checks"])
    size = sum(len(P.weight_basis(d)) for d in range(P.wmax + 1))
    assert size == 30
    assert report["checks"][-1]["detail"]["pairs"] == size * size
    assert len(calls) == size


def test_warm_insert_of_a_basis_state_makes_no_multiplication(vx, monkeypatch):
    # A basis state's one coefficient and every value of free x's vacuum
    # row are the shared ONE: once the memos are warm, the expansion and
    # the products by the vacuum row multiply nothing.
    P = vx.presentation
    basis = [GradedElement._make({m: ONE}, P.wmax) for m in P.basis_monomials()]
    assert len(basis) == 30
    cold = [insert(["z"], [a], vx) for a in basis]
    calls = []
    mul = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__", lambda s, o: calls.append(o) or mul(s, o))
    assert [insert(["z"], [a], vx) for a in basis] == cold
    assert calls == []


def test_eta_roundtrip_skips_products_that_truncation_kills(vx, monkeypatch):
    # README case: only 139 of the 900 basis pairs have a nonzero mode, and
    # a term and a state whose lowest weights sum past W reach no product.
    calls = []
    product = AlgebraPresentation.product_rows

    def counted(self, a, b):
        calls.append(1)
        return product(self, a, b)

    monkeypatch.setattr(AlgebraPresentation, "product_rows", counted)
    report = eta_roundtrip_check(vx, nmax=6)
    assert all_pass(report["checks"])
    assert report["checks"][-1]["detail"]["pairs"] == 900
    assert len(calls) == 541


@pytest.mark.parametrize(
    "gens, rels, W, pairs, placed",
    [
        (["x"], [], 6, 900, 139),
        (["x"], [], 5, 361, 74),
        (["x"], ["x*x"], 6, 121, 42),
        (["x", "y"], ["x*y"], 4, 676, 115),
    ],
    ids=["free x W=6", "free x W=5", "x | x*x W=6", "x,y | x*y W=4"],
)
def test_eta_roundtrip_compares_only_blocks_that_can_meet(
    monkeypatch, gens, rels, W, pairs, placed
):
    # The roundtrip benchmark family: every pair is counted, but a (state,
    # weight) block that both sides' bounds leave empty reaches no _place.
    import jetfact.reconstruct as reconstruct

    calls = []
    place = reconstruct._place

    def counted(*args):
        calls.append(1)
        return place(*args)

    monkeypatch.setattr(reconstruct, "_place", counted)
    report = eta_roundtrip_check(VertexAlgebra(AlgebraPresentation(gens, rels, W)))
    assert all_pass(report["checks"])
    assert report["checks"][-1]["detail"]["pairs"] == pairs
    assert len(calls) == placed


def test_reconstructed_structure_satisfies_axioms(v4):
    from jetfact.vertex import check_vertex_axioms

    report = check_vertex_axioms(
        v4,
        samples=25,
        seed=5,
        table_fn=lambda a, b: modes_of(a, b, v4),
        vacuum=vacuum_of(v4),
    )
    assert all_pass(report["checks"])


def test_series_equality_and_arity():
    with pytest.raises(ValueError):
        InsertionSeries(("z",), {(0, 0): GradedElement.one(4)}, 4)
