from fractions import Fraction
from math import factorial

import pytest

from jetfact._kernels import lc_mul, mono_weight
from jetfact.grading import GradedElement
from jetfact.jetalg import AlgebraPresentation
from jetfact.reports import all_pass
from jetfact.sampling import Sampler
from jetfact.scalars import I, Scalar
from jetfact.vertex import (
    Field,
    ModeTable,
    VertexAlgebra,
    check_vertex_axioms,
    completion_rotation,
    completion_translation,
    locality_sides,
    translation_identity_failures,
    vertex_op,
)


def test_vertex_op_examples(vx, free_x):
    x = free_x.gen("x")
    table = vertex_op(x, x, vx)
    assert table[-1] == free_x.multiply(x, x)
    assert table[-2] == GradedElement({(("x", 1), ("x", 0)): 1}, 6)
    assert not table[0] and not table[3]
    # Against the vacuum the modes are plain translations over factorials.
    vac = vx.vacuum()
    tv = vertex_op(x, vac, vx)
    assert tv[-1] == x
    for n in range(2, 6):
        assert tv[-n] == free_x.gen("x", n - 1).scale(Scalar(Fraction(1, factorial(n - 1))))


def test_mode_weight_grading(vx):
    s = Sampler(2)
    for _ in range(30):
        a = s.homogeneous_element(vx.presentation)
        b = s.homogeneous_element(vx.presentation)
        for n, elem in vertex_op(a, b, vx).items():
            assert elem.weight() == a.weight() + b.weight() - n - 1


def test_completion_rotation(vx, free_x):
    x = free_x.gen("x")
    xx = free_x.multiply(x, x)
    assert completion_rotation(Scalar(1), xx, vx) == xx
    assert completion_rotation(I, xx, vx) == xx.scale(Scalar(-1))
    q = Scalar(Fraction(3, 5), Fraction(4, 5))
    assert completion_rotation(q, x, vx) == x.scale(q)
    with pytest.raises(ValueError):
        completion_rotation(Scalar(2), x, vx)


def test_completion_translation_series():
    from jetfact.jetalg import AlgebraPresentation

    P = AlgebraPresentation(["x"], [], 3)
    V = VertexAlgebra(P)
    x = P.gen("x")
    z = Scalar(Fraction(1, 2))
    out = completion_translation(z, x, V)
    expected = (
        x
        + P.gen("x", 1).scale(z)
        + P.gen("x", 2).scale(z * z / Scalar(2))
    )
    assert out == expected
    assert completion_translation(Scalar(0), x, V) == x
    assert completion_translation(z, V.vacuum(), V) == V.vacuum()


def test_completion_translation_is_algebra_morphism(vxy):
    s = Sampler(13)
    for _ in range(15):
        a = s.element(vxy.presentation)
        b = s.element(vxy.presentation)
        z = s.scalar()
        lhs = completion_translation(z, vxy.presentation.multiply(a, b), vxy)
        rhs = vxy.presentation.multiply(
            completion_translation(z, a, vxy), completion_translation(z, b, vxy)
        )
        assert lhs == rhs


def test_rotation_is_algebra_morphism(vxy):
    s = Sampler(29)
    for _ in range(15):
        a = s.element(vxy.presentation)
        b = s.element(vxy.presentation)
        q = s.unit_scalar()
        lhs = completion_rotation(q, vxy.presentation.multiply(a, b), vxy)
        rhs = vxy.presentation.multiply(
            completion_rotation(q, a, vxy), completion_rotation(q, b, vxy)
        )
        assert lhs == rhs


def test_semidirect_composition_law(vx):
    s = Sampler(31)
    for _ in range(15):
        a = s.element(vx.presentation)
        q1, q2 = s.unit_scalar(), s.unit_scalar()
        z1, z2 = s.scalar(), s.scalar()

        def flow(z, q, e):
            return completion_translation(z, completion_rotation(q, e, vx), vx)

        lhs = flow(z1, q1, flow(z2, q2, a))
        rhs = flow(z1 + q1 * z2, q1 * q2, a)
        assert lhs == rhs


def test_skew_symmetry(vx):
    # Y(a, z) b equals e^{zT} Y(b, -z) a coefficient by coefficient.
    s = Sampler(37)
    P = vx.presentation
    for _ in range(15):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        ab = vertex_op(a, b, vx)
        ba = vertex_op(b, a, vx)
        for p in range(0, P.wmax + 1):
            # z^p coefficient of e^{zT} Y(b, -z) a.
            rhs = P.zero()
            for k in range(0, p + 1):
                term = ba[-(p - k) - 1].scale(Scalar((-1) ** (p - k)))
                rhs = rhs + vx.translate(term, times=k).scale(
                    Scalar(Fraction(1, factorial(k)))
                )
            assert ab[-p - 1] == rhs


def test_locality_binomial_identity(vx):
    s = Sampler(41)
    P = vx.presentation
    table = lambda a, b: vertex_op(a, b, vx)
    for _ in range(10):
        a, b, c = (s.homogeneous_element(P) for _ in range(3))
        for N in (0, 1, 2):
            lhs, rhs = locality_sides(a, b, c, -1, -1, N, vx, table)
            assert lhs == rhs
    # The N = 0 case is commutative associativity itself.
    a, b, c = (s.homogeneous_element(P) for _ in range(3))
    assert P.multiply(a, P.multiply(b, c)) == P.multiply(b, P.multiply(a, c))


def test_axiom_suite_passes(vx, vxy):
    for algebra in (vx, vxy):
        report = check_vertex_axioms(algebra, samples=40, seed=0)
        assert all_pass(report["checks"])


def test_axiom_suite_zero_samples(vx):
    report = check_vertex_axioms(vx, samples=0)
    assert all_pass(report["checks"])


def test_axiom_suite_builds_one_field_per_state(vxy, monkeypatch):
    # The default tables read one field per state for the whole call, so
    # each distinct state's translation tower is summed once.
    calls = []
    tower = AlgebraPresentation.translation_tower

    def counted(self, a):
        calls.append(a)
        return tower(self, a)

    monkeypatch.setattr(AlgebraPresentation, "translation_tower", counted)
    report = check_vertex_axioms(vxy, samples=40, seed=0)
    assert all_pass(report["checks"])
    assert calls and len(calls) == len(set(calls))


def test_corrupted_mode_table_fails_translation(vx, free_x):
    x = free_x.gen("x")
    table = vertex_op(x, x, vx)
    corrupted = ModeTable(
        {n: (e.scale(Scalar(2)) if n == -2 else e) for n, e in table.items()}, 6
    )
    tb = vertex_op(x, vx.translate(x), vx)
    assert translation_identity_failures(corrupted, vx, tb)
    assert not translation_identity_failures(table, vx, tb)


def test_axiom_suite_reads_the_given_table_fn(vx):
    # Doubling every a_(-2) b breaks [T, Y(a, z)] = d/dz Y(a, z); the
    # translation check must see it through table_fn.
    def perturbed(a, b):
        table = vertex_op(a, b, vx)
        return ModeTable(
            {n: (e.scale(Scalar(2)) if n == -2 else e) for n, e in table.items()},
            table.wmax,
        )

    report = check_vertex_axioms(vx, samples=10, seed=0, table_fn=perturbed)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["translation"] == "fail"
    assert status["vacuum_left"] == status["vacuum_right"] == "pass"
    assert status["mode_weights"] == "pass"
    translation = next(c for c in report["checks"] if c["name"] == "translation")
    assert translation["detail"]["first_counterexample"]["bad_n"]


X = GradedElement.generator("x", 0, 6)
Y = GradedElement.generator("y", 0, 6)  # undeclared on free x


@pytest.mark.parametrize(
    "a, b",
    [
        (GradedElement.zero(6), Y),
        (GradedElement.zero(6), GradedElement.generator("x", 0, 5)),
        (X, Y),
        (Y, X),
        (GradedElement.generator("x", 0, 5), X),
    ],
    ids=["0, y", "0, x@5", "x, y", "y, x", "x@5, x"],
)
def test_vertex_op_checks_both_arguments(vx, a, b):
    with pytest.raises(ValueError):
        vertex_op(a, b, vx)
    # The per-state form checks a once, when the field is built, and b on
    # every call, also when a is zero.
    if a.wmax == vx.wmax and a.generators() <= {"x"}:
        y_a = Field(a, vx)
        for _ in range(2):
            with pytest.raises(ValueError):
                y_a(b)
    else:
        with pytest.raises(ValueError):
            Field(a, vx)


# The presentations of the roundtrip benchmark: (generators, relations, W).
ROUNDTRIP_FAMILY = [
    (["x"], [], 6),
    (["x"], [], 5),
    (["x"], ["x*x"], 6),
    (["x", "y"], ["x*y"], 4),
]


@pytest.mark.parametrize(
    "gens, relations, wmax", ROUNDTRIP_FAMILY, ids=["x-6", "x-5", "x|xx-6", "xy|xy-4"]
)
def test_vertex_ops_against_derivatives_over_factorials(gens, relations, wmax):
    # The oracle builds T^n a / n! by repeated derive and an exact 1/n!,
    # not through the presentation's translation tower.
    P = AlgebraPresentation(gens, relations, wmax)
    V = VertexAlgebra(P)
    basis = [
        GradedElement({m: 1}, wmax)
        for delta in range(wmax + 1)
        for m in P.weight_basis(delta)
    ]
    for a in basis:
        terms = [
            P.derive(a, times=n).scale(Scalar(Fraction(1, factorial(n))))
            for n in range(wmax + 1)
        ]
        y_a = Field(a, V)
        for b in basis:
            expected = ModeTable(
                {-n - 1: P.multiply(t, b) for n, t in enumerate(terms)}, wmax
            )
            assert y_a(b) == expected, (str(a), str(b))


@pytest.mark.parametrize(
    "gens, relations, wmax",
    [(["x"], [], 6), (["x", "y"], ["x*y"], 5), (["x", "y"], ["y - x*x"], 6)],
    ids=["x-6", "xy|xy-5", "xy|y-xx-6"],
)
def test_field_weight_bound_is_exact(gens, relations, wmax):
    # The field skips a tower term when its lowest weight plus b's exceeds
    # W.  The oracle multiplies every term by b with the bare kernel and
    # reduces, skipping no term and reading no table, so it checks the
    # bound itself, not its agreement with the series' bound.
    # y - x*x is not homogeneous: a product's normal form can weigh less
    # than its factors, which the bound, read before reduction, must allow.
    P = AlgebraPresentation(gens, relations, wmax)
    V = VertexAlgebra(P)
    basis = [
        GradedElement({m: 1}, wmax)
        for delta in range(wmax + 1)
        for m in P.weight_basis(delta)
    ]
    for a in basis:
        tower = P.translation_tower(a)
        y_a = Field(a, V)
        # low is the least lowest weight of the tower: no state of lowest
        # weight above W - low meets the field.
        assert y_a.low == min(min(map(mono_weight, t.data)) for t in tower)
        for b in basis:
            expected = ModeTable(
                {
                    -n - 1: GradedElement._make(
                        P._echelon.reduce(lc_mul(term.data, b.data, wmax)), wmax
                    )
                    for n, term in enumerate(tower)
                },
                wmax,
            )
            assert y_a(b) == expected, (str(a), str(b))
            rows = y_a.rows(b)
            assert rows == {n: e.data for n, e in expected.modes.items()}
            assert all(rows.values())
            if y_a.low + b.weight() > wmax:
                assert not rows
    zero = Field(V.zero(), V)
    assert zero.low == wmax + 1
    assert zero.rows(basis[0]) == {}


def test_report_structure(vx):
    report = check_vertex_axioms(vx, samples=3, seed=1)
    names = {c["name"] for c in report["checks"]}
    assert {"vacuum_left", "vacuum_right", "translation", "locality_N0"} <= names
    for c in report["checks"]:
        assert c["status"] in ("pass", "fail")
        assert "detail" in c


@pytest.mark.parametrize(
    "gens, relations, wmax", ROUNDTRIP_FAMILY, ids=["x-6", "x-5", "x|xx-6", "xy|xy-4"]
)
def test_completion_flow_against_derivatives_over_factorials(gens, relations, wmax):
    # The oracle rotates each monomial by q to its weight, then sums
    # z^k / k! T^k by repeated derive and math.factorial, with no tower.
    P = AlgebraPresentation(gens, relations, wmax)
    V = VertexAlgebra(P)
    basis = [
        GradedElement({m: 1}, wmax)
        for delta in range(wmax + 1)
        for m in P.weight_basis(delta)
    ]
    for q in (Scalar(1), I, Scalar(Fraction(3, 5), Fraction(4, 5))):
        for z in (Scalar(0), Scalar(Fraction(2, 3)), Scalar(1, Fraction(-1, 2))):
            flow = V.presentation.flow(q, z)
            for a in basis:
                r = GradedElement({m: c * q ** mono_weight(m) for m, c in a.data.items()}, wmax)
                expected = P.zero()
                for k in range(wmax + 1):
                    coeff = z**k * Scalar(Fraction(1, factorial(k)))
                    expected = expected + P.derive(r, times=k).scale(coeff)
                assert flow(a) == expected, (str(q), str(z), str(a))


def test_completion_flow_checks_q_once_and_each_state(vx):
    with pytest.raises(ValueError):
        vx.presentation.flow(Scalar(2), Scalar(1))
    flow = vx.presentation.flow(I, Scalar(1))
    for foreign in (GradedElement.generator("y", 0, 6), GradedElement.generator("x", 0, 5)):
        with pytest.raises(ValueError):
            flow(foreign)
