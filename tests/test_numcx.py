import itertools
import tracemalloc

import numpy as np
import pytest

from jetfact.jetalg import AlgebraPresentation
from jetfact.numcx import (
    Circle,
    ContourFunction,
    Curve,
    Line,
    QuadratureError,
    _circle_nodes,
    _locality_weight,
    _unit_circle,
    cauchy_coeff,
    coefficient_tensor,
    contour_integral,
    double_residue,
    element_vector,
    laurent_coeffs,
    max_norm,
    mode_agreement_check,
    residue_swap_check,
    series_function,
)
from jetfact.reconstruct import insert
from jetfact.reports import all_pass
from jetfact.sampling import Sampler
from jetfact.scalars import Scalar
from jetfact.vertex import VertexAlgebra


@pytest.fixture(scope="module")
def v5():
    return VertexAlgebra(AlgebraPresentation(["x"], [], 5))


# -- contour integrals ---------------------------------------------------------


def test_monomial_orthogonality():
    for n in range(-5, 6):
        f = ContourFunction(lambda zs, n=n: zs[:, None] ** n, excluded=[0] if n < 0 else ())
        val = contour_integral(f, Curve.circle(0, 1.0), nodes=64) / (2j * np.pi)
        expect = 1.0 if n == -1 else 0.0
        assert abs(val[0] - expect) < 1e-12


def test_closed_curve_of_primitive_vanishes():
    # A function with a primitive integrates to zero over a closed curve.
    f = ContourFunction(lambda zs: np.stack([zs**2, np.cos(zs)], axis=-1))
    square = Curve.polygon([0, 1, 1 + 1j, 1j])
    assert max_norm(contour_integral(f, square)) < 1e-10


def test_goursat_triangle():
    f = ContourFunction(lambda zs: np.stack([zs**3 + 2 * zs, zs**2 - 1], axis=-1))
    tri = Curve.polygon([0, 2, 1 + 1j])
    assert max_norm(contour_integral(f, tri)) < 1e-10


def test_open_path_matches_primitive_difference():
    f = ContourFunction(lambda zs: zs[:, None] ** 2)
    path = Curve([Line(0, 1 + 1j)])
    val = contour_integral(f, path)
    expect = (1 + 1j) ** 3 / 3
    assert abs(val[0] - expect) < 1e-10


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve([Line(0, 1), Line(2, 3)])
    with pytest.raises(ValueError):
        Circle(0, -1.0)
    with pytest.raises(ValueError):
        contour_integral(ContourFunction(lambda zs: zs[:, None]), Curve([]))


def test_node_on_excluded_point_rejected():
    f = ContourFunction(lambda zs: 1 / (zs[:, None] - 1), excluded=[1.0])
    with pytest.raises(ValueError):
        contour_integral(f, Curve.circle(0, 1.0), nodes=64)  # node at z = 1


def test_contour_functions_must_return_one_row_per_point():
    # On an array of points a scalar-style fn returns (1, points), which
    # would broadcast against the (points,) node weights into a wrong sum.
    f = ContourFunction(lambda zs: np.array([zs**2]))
    refusal = r"must map 16 points to \(16, dim\) rows, got shape \(1, 16\)"
    with pytest.raises(ValueError, match=refusal):
        cauchy_coeff(f, 0, 2, 1.0, 16)
    with pytest.raises(ValueError, match=refusal):
        laurent_coeffs(f, 0, [2], 1.0, 16)
    with pytest.raises(ValueError, match=refusal):
        contour_integral(f, Curve.circle(0, 1.0), nodes=16)
    with pytest.raises(ValueError, match=r"got shape \(16,\)"):
        contour_integral(ContourFunction(lambda zs: zs**2), Curve.circle(0, 1.0), nodes=16)


def test_circle_integral_is_the_cauchy_average_off_the_origin():
    # 1/((z - p)(z - q)) with p inside the circle and q outside has the
    # residue 1/(p - q) inside; exp has none.
    center, radius, p, q = 1 - 0.5j, 0.7, 1.2 - 0.4j, 3 + 1j
    f = ContourFunction(lambda zs: np.stack([1 / ((zs - p) * (zs - q)), np.exp(zs)], axis=-1))
    val = contour_integral(f, Curve.circle(center, radius), nodes=128)
    assert np.array_equal(val, 2j * np.pi * cauchy_coeff(f, center, -1, radius, 128))
    assert max_norm(val - [2j * np.pi / (p - q), 0]) < 1e-12


# -- Laurent coefficients -------------------------------------------------------


def test_cauchy_coeff_polynomial():
    f = ContourFunction(lambda zs: 3 + 2 * zs[:, None] ** 2)
    assert abs(cauchy_coeff(f, 0, 2, 1.0, 64)[0] - 2) < 1e-12
    assert abs(cauchy_coeff(f, 0, 0, 1.0, 64)[0] - 3) < 1e-12
    assert abs(cauchy_coeff(f, 0, 1, 1.0, 64)[0]) < 1e-12


def test_cauchy_coeff_recovers_all_polynomial_coefficients():
    coeffs = np.array([1.0, -2.5, 0.0, 3.25, 0.5])
    f = ContourFunction(lambda zs: sum(c * zs[:, None] ** k for k, c in enumerate(coeffs)))
    for k, c in enumerate(coeffs):
        got = cauchy_coeff(f, 0, k, 1.0, 128)[0]
        assert abs(got - c) < 1e-10


def test_cauchy_coeff_partial_fractions():
    # 1/(z(z-2)) = -1/(2z) + 1/(2(z-2)): residue -1/2 at the origin.
    f = ContourFunction(lambda zs: 1 / (zs * (zs - 2))[:, None], excluded=[0, 2])
    assert abs(cauchy_coeff(f, 0, -1, 1.0, 128)[0] + 0.5) < 1e-10
    # One trapezoid sum: cauchy_coeff is laurent_coeffs at one n, bit for bit.
    for n in (-3, -1, 2, 130):
        one = laurent_coeffs(f, 0, [n], 1.0, 128)[0]
        assert np.array_equal(cauchy_coeff(f, 0, n, 1.0, 128), one)


@pytest.mark.parametrize(
    "nodes, radius, refusal",
    [
        pytest.param(0, 1.0, "at least one trapezoid node", id="0"),
        pytest.param(-4, 1.0, "at least one trapezoid node", id="-4"),
        *(
            pytest.param(16, r, "positive finite number", id=f"radius {r}")
            for r in (0.0, -1.0, np.nan, np.inf)
        ),
    ],
)
def test_trapezoid_routines_refuse_fewer_than_one_node(nodes, radius, refusal):
    # Without the node check, z^2 read a nan (0 nodes) or 0 (-4 nodes) for
    # its coefficient 1, and a circle integral on 0 nodes divided by zero.
    # Without the radius check, radius 0 read a nan (laurent_coeffs,
    # double_residue) or divided by zero (cauchy_coeff), and a nan radius
    # read a nan.
    f = ContourFunction(lambda zs: zs[:, None] ** 2)
    with pytest.raises(ValueError, match=refusal):
        cauchy_coeff(f, 0, 2, radius, nodes)
    with pytest.raises(ValueError, match=refusal):
        laurent_coeffs(f, 0, [2], radius, nodes)
    with pytest.raises(ValueError, match=refusal):
        contour_integral(f, Curve.circle(0, radius), nodes=nodes)
    C = np.ones((3, 3, 1), dtype=complex)
    with pytest.raises(ValueError, match=refusal):
        double_residue(C, {(-2, -2): 1}, radius, 0.5, nodes)


def test_circle_nodes_are_shared_read_only_per_node_count():
    for nodes in (1, 7, 128):
        fresh = np.exp(1j * (2 * np.pi * np.arange(nodes) / nodes))
        for radius in (0.5, 1.5, 0.5):
            z = _circle_nodes(radius, nodes)
            assert np.array_equal(z, radius * fresh)
            roots = _unit_circle(nodes)
            assert np.array_equal(roots, fresh)
            with pytest.raises(ValueError):
                roots[0] = 1.0
        # The checks still run on every call, also for a node count seen.
        with pytest.raises(ValueError, match="positive finite number"):
            _circle_nodes(0.0, nodes)
    # One array of roots per node count, whatever the radius.
    hits = _unit_circle.cache_info().hits
    _circle_nodes(1.0, 128)
    _circle_nodes(2.0, 128)
    assert _unit_circle.cache_info().hits == hits + 2
    assert _unit_circle(128) is _unit_circle(128)


def test_element_vector_converts_the_dense_coordinates_bit_for_bit():
    P = AlgebraPresentation(["x", "y"], ["x*y"], 5)
    basis = P.basis_monomials()
    s = Sampler(53)
    for elem in [P.zero(), P.unit()] + [s.element(P) for _ in range(20)]:
        nf = P.normal_form(elem).data
        dense = np.array([complex(nf.get(m, Scalar(0))) for m in basis], dtype=complex)
        got = element_vector(elem, P)
        assert got.dtype == dense.dtype and got.shape == dense.shape
        assert got.tobytes() == dense.tobytes()


def test_cauchy_coeff_radius_independence():
    f = ContourFunction(
        lambda zs: np.stack([1 / (zs * (zs - 2)), zs**2], axis=-1), excluded=[0, 2]
    )
    for n in (-1, 0, 1, 2):
        a = cauchy_coeff(f, 0, n, 0.5, 128)
        b = cauchy_coeff(f, 0, n, 1.5, 128)
        assert max_norm(a - b) < 1e-9


def test_trapezoid_exactness_on_laurent_polynomials():
    # Exponent range well below the node count: error at rounding level.
    f = ContourFunction(
        lambda zs: (5 * zs**-7 + zs**-1 - 3 + 2 * zs**9)[:, None], excluded=[0]
    )
    val = contour_integral(f, Curve.circle(0, 1.0), nodes=64) / (2j * np.pi)
    assert abs(val[0] - 1.0) < 1e-12


# -- numeric against symbolic -----------------------------------------------------


def test_series_function_matches_exact_evaluation(v5):
    P = v5.presentation
    s = Sampler(23)
    for _ in range(5):
        a = s.homogeneous_element(P)
        b = s.homogeneous_element(P)
        series = insert(["z", Scalar(0)], [a, b], v5)
        fn = series_function(series, P)
        for zval in (0.3 + 0.1j, -0.7j, 1.2):
            numeric = fn(np.array(zval))
            exact = element_vector(
                series.evaluate_exact({"z": _to_scalar(zval)}), P
            )
            assert max_norm(numeric - exact) < 1e-12


def _to_scalar(z):
    from fractions import Fraction

    return Scalar(Fraction(z.real if isinstance(z, complex) else z).limit_denominator(10**6),
                  Fraction(z.imag if isinstance(z, complex) else 0).limit_denominator(10**6))


def test_mode_agreement(v5):
    s = Sampler(29)
    P = v5.presentation
    for _ in range(5):
        da, db, _ = s.weight_triple(P.wmax)
        a, b = (s.homogeneous_element(P, delta=d) for d in (da, db))
        assert insert(["z", Scalar(0)], [a, b], v5).coeffs
        report = mode_agreement_check(a, b, v5, nmax=6, nodes=128, tolerance=1e-9)
        assert all_pass(report["checks"])


def test_mode_agreement_converts_each_coefficient_once(vx, monkeypatch):
    # One coordinate read per series coefficient, and no basis list: the
    # tensor reads the dimension alone.
    s = Sampler(37)
    P = vx.presentation
    pairs = [
        (s.homogeneous_element(P, delta=2), s.homogeneous_element(P, delta=2))
        for _ in range(20)
    ]
    coefficients = sum(len(insert(["z", Scalar(0)], ab, vx).coeffs) for ab in pairs)
    assert coefficients
    calls = {"coordinates": 0, "basis_monomials": 0}
    for name in calls:
        method = getattr(AlgebraPresentation, name)

        def counted(*args, name=name, method=method):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(AlgebraPresentation, name, counted)
    for a, b in pairs:
        assert all_pass(mode_agreement_check(a, b, vx)["checks"])
    assert calls == {"coordinates": coefficients, "basis_monomials": 0}


def test_residue_swap_check_builds_no_basis_list(v5, monkeypatch):
    # The tensor and both exact sides read the dimension without a list.
    calls = []
    method = AlgebraPresentation.basis_monomials
    monkeypatch.setattr(
        AlgebraPresentation, "basis_monomials", lambda P: calls.append(P) or method(P)
    )
    s = Sampler(47)
    P = v5.presentation
    for _ in range(3):
        a, b, c = (s.homogeneous_element(P, delta=d) for d in s.weight_triple(P.wmax))
        assert all_pass(residue_swap_check(a, b, c, -1, -1, 1, v5)["checks"])
    assert calls == []


@pytest.mark.parametrize("N", [0, 1, 2])
def test_residue_swap_check_builds_one_tower_per_state(vx, N, monkeypatch):
    # a = c = x and b = T x: the exact sides read the fields of x and T x,
    # each built once, however many pairs their mode sums read.
    towers = []
    method = AlgebraPresentation.translation_tower
    monkeypatch.setattr(
        AlgebraPresentation, "translation_tower", lambda P, a: towers.append(a) or method(P, a)
    )
    P = vx.presentation
    x = P.parse("x")
    result = residue_swap_check(x, P.derive(x), x, -1, -1, N, vx)
    assert all_pass(result["checks"])
    assert len(towers) == 2


def test_coefficient_tensor_rows_are_element_vectors(v5):
    P = v5.presentation
    s = Sampler(43)
    for weights in ((1, 1, 0), (2, 1, 1), (0, 0, 3)):
        a, b, c = (s.homogeneous_element(P, delta=d) for d in weights)
        series = insert(["z", "w", Scalar(0)], [a, b, c], v5)
        C = coefficient_tensor(series, P)
        assert C.shape == (series.total_degree() + 1,) * 2 + (len(P.basis_monomials()),)
        for exps in itertools.product(range(len(C)), repeat=2):
            expect = element_vector(series.coefficient(exps), P)
            assert C[exps].tobytes() == expect.tobytes()


def test_residue_swap_orders_and_mode_sums(v5):
    s = Sampler(31)
    P = v5.presentation
    for _ in range(5):
        weights = s.weight_triple(P.wmax)
        a, b, c = (s.homogeneous_element(P, delta=d) for d in weights)
        assert insert(["z", "w", Scalar(0)], [a, b, c], v5).coeffs
        for N in (0, 1, 2):
            report = residue_swap_check(a, b, c, -1, -1, N, v5)
            assert all_pass(report["checks"])
            assert report["exact_sides_equal"]


def test_residue_swap_commutative_case_is_product(v5):
    # With N = 0 and m = n = -1 both mode sums are the plain triple product,
    # so the passing numeric checks pin both contour orders to it.
    from jetfact.vertex import locality_sides, vertex_op

    P = v5.presentation
    x = P.gen("x")
    report = residue_swap_check(x, x, x, -1, -1, 0, v5)
    assert all_pass(report["checks"])
    lhs, rhs = locality_sides(x, x, x, -1, -1, 0, v5, lambda a, b: vertex_op(a, b, v5))
    triple = P.product([x, x, x])
    assert lhs == triple and rhs == triple


def test_residue_swap_negative_control(v5, monkeypatch):
    # One coefficient off by 1e-3: both contour orders read the same wrong
    # value, so they still agree with each other but with neither mode sum.
    import jetfact.numcx as numcx

    x = v5.presentation.gen("x")
    exact = numcx.coefficient_tensor

    def perturbed(series, P):
        C = exact(series, P)
        C[0, 0, 0] += 1e-3  # z^0 w^0, read by the residue at m = n = -1, N = 0
        return C

    monkeypatch.setattr(numcx, "coefficient_tensor", perturbed)
    report = residue_swap_check(x, x, x, -1, -1, 0, v5)
    assert {c["name"]: c["status"] for c in report["checks"]} == {
        "iterated_orders_agree": "pass",
        "matches_mode_sum_first_order": "fail",
        "matches_mode_sum_second_order": "fail",
    }
    assert report["exact_sides_equal"]


def _grid_double_residue(fn, r_z, r_w, nodes):
    # Reference: the trapezoid double sum over the full node grid, with the
    # series evaluated at every grid point, as a function of the weight.
    # Each coordinate's grid is summed as one contiguous row, which numpy
    # sums pairwise: a sum down the grid axes adds row by row and errs by
    # 1.8e-12 at 128 nodes against the exact residue.
    theta = 2 * np.pi * np.arange(nodes) / nodes
    Z = (r_z * np.exp(1j * theta))[:, None]
    W = (r_w * np.exp(1j * theta))[None, :]
    vals = np.moveaxis(fn(*np.broadcast_arrays(Z, W)), -1, 0)

    def residue(weight):
        integrand = np.ascontiguousarray(weight(Z, W) * Z * W * vals)
        return integrand.reshape(len(vals), -1).sum(axis=1) / (nodes * nodes)

    return residue


@pytest.mark.parametrize("nodes", [32, 128])
def test_double_residue_matches_the_grid_sum(v5, nodes):
    # The grid sum weighs every node pair by its own lambda, so it checks
    # the binomial expansion of the weight, signs included, as well as the
    # factored sum.
    P = v5.presentation
    s = Sampler(37)
    read = 0
    for weights in ((1, 1, 0), (1, 1, 1), (2, 1, 0), (1, 0, 1)):
        a, b, c = (s.homogeneous_element(P, delta=d) for d in weights)
        series = insert(["z", "w", Scalar(0)], [a, b, c], v5)
        fn = series_function(series, P)
        C = coefficient_tensor(series, P)
        for r_z, r_w in ((1.5, 0.5), (0.5, 1.5)):
            grid_sum = _grid_double_residue(fn, r_z, r_w, nodes)
            for m, n, N in itertools.product((-1, -2, -3), (-1, -2, -3), range(4)):
                reference = grid_sum(lambda Z, W: Z**m * W**n * (Z - W) ** N)
                got = double_residue(C, _locality_weight(m, n, N), r_z, r_w, nodes)
                assert max_norm(got - reference) < 1e-12
                read += max_norm(reference) > 1e-3
    assert read > 144  # more than half of the 288 residues are nonzero


def test_double_residue_forms_no_node_grid(v5):
    # One 512 x 512 complex grid is 4 MiB; the factored sum stays far below.
    P = v5.presentation
    x = P.gen("x")
    C = coefficient_tensor(insert(["z", "w", Scalar(0)], [x, x, x], v5), P)
    weight = _locality_weight(-2, -1, 3)
    double_residue(C, weight, 1.5, 0.5, 512)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        double_residue(C, weight, 1.5, 0.5, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 512 * 16 / 8


def test_laurent_coeffs_match_cauchy_coeff(v5):
    # Every coefficient mode_agreement_check reads at nmax = 6.
    P = v5.presentation
    s = Sampler(41)
    ks = [-n - 1 for n in range(-6, 7)]
    for weights in ((1, 0), (1, 1), (2, 1), (1, 3), (0, 2)):
        a, b = (s.homogeneous_element(P, delta=d) for d in weights)
        series = insert(["z", Scalar(0)], [a, b], v5)
        f = ContourFunction(series_function(series, P))
        for nodes in (32, 128):
            got = laurent_coeffs(f, 0, ks, 0.75, nodes)
            for k, row in zip(ks, got):
                assert max_norm(row - cauchy_coeff(f, 0, k, 0.75, nodes)) < 1e-12


def test_mode_agreement_refuses_aliasing_node_counts(v5):
    # x(z) x(0) has z-exponents 0..3, and nmax = 6 reads z^-7 .. z^5, so
    # 10 nodes fold z^3 onto z^-7 and 11 nodes are the least that do not.
    P = v5.presentation
    x = P.gen("x")
    with pytest.raises(ValueError, match=r"10 nodes alias .* need at least 11 nodes"):
        mode_agreement_check(x, x, v5, nmax=6, nodes=10)
    assert all_pass(mode_agreement_check(x, x, v5, nmax=6, nodes=11)["checks"])
    series = insert(["z", Scalar(0)], [x, x], v5)
    f = ContourFunction(series_function(series, P))
    aliased = laurent_coeffs(f, 0, [-7], 0.75, 10)[0]
    assert max_norm(aliased - element_vector(series.coefficient((-7,)), P)) > 1e-3


def test_residue_swap_refuses_aliasing_node_counts(v5):
    # z^-1 w^-1 (z - w)^2 z w times a series of degree 2 holds z^4 w^0.
    x = v5.presentation.gen("x")
    with pytest.raises(ValueError, match=r"need at least 5 nodes"):
        residue_swap_check(x, x, x, -1, -1, 2, v5, nodes=4)
    assert all_pass(residue_swap_check(x, x, x, -1, -1, 2, v5, nodes=5)["checks"])
    with pytest.raises(ValueError, match="non-negative"):
        residue_swap_check(x, x, x, -1, -1, -1, v5)


def test_unconverged_line_quadrature_raises():
    # The midpoint rule on z**-1/2 from 0 errs by O(n**-1/2), so no two
    # estimates up to 2**21 nodes agree to 1e-12.
    f = ContourFunction(lambda zs: 1 / np.sqrt(zs)[:, None])
    with pytest.raises(QuadratureError, match=r"2097152 nodes, last difference") as exc:
        contour_integral(f, Curve([Line(0, 1)]))
    assert not isinstance(exc.value, ValueError)


def test_line_quadrature_meets_its_tolerance_on_a_quartic():
    # Plain midpoint refinement stops short of 1e-12 here at 2**21 nodes.
    f = ContourFunction(lambda zs: (zs**4 - zs)[:, None])
    val = contour_integral(f, Curve([Line(0, 2)]))
    assert abs(val[0] - (2**5 / 5 - 2)) < 1e-12
