import numpy as np
import pytest

from jetfact.jetalg import AlgebraPresentation
from jetfact.numcx import (
    Circle,
    ContourFunction,
    Curve,
    Line,
    QuadratureError,
    cauchy_coeff,
    classify_singularity,
    coefficient_tensor,
    contour_integral,
    double_residue,
    element_vector,
    laurent_coeffs,
    max_norm,
    mode_agreement_check,
    residue_swap_check,
    riemann_integral,
    riemann_integral_tagged,
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


# -- real-interval quadrature ---------------------------------------------------


def test_riemann_integral_polynomial():
    f = ContourFunction(lambda t: np.array([t, t * t]))
    val = riemann_integral(f, (0.0, 1.0), 256)
    assert abs(val[0] - 0.5) < 1e-12  # midpoint exact on linears
    assert abs(val[1] - 1 / 3) < 1e-5
    finer = riemann_integral(f, (0.0, 1.0), 512)
    assert abs(finer[1] - 1 / 3) < abs(val[1] - 1 / 3)  # error decreases


def test_riemann_integral_zero_and_oscillation():
    zero = riemann_integral(ContourFunction(lambda t: np.array([0.0])), (0.0, 1.0), 16)
    assert max_norm(zero) == 0.0
    osc = riemann_integral(
        ContourFunction(lambda t: np.array([np.exp(1j * t)])), (0.0, 2 * np.pi), 256
    )
    assert max_norm(osc) < 1e-10


def test_riemann_integral_validation():
    f = ContourFunction(lambda t: np.array([t]))
    with pytest.raises(ValueError):
        riemann_integral(f, (0.0, 1.0), 0)


def test_tagged_partition_validation_mode():
    rng = np.random.default_rng(0)
    f = ContourFunction(lambda t: np.array([np.cos(float(t.real))]))
    reference = riemann_integral(f, (0.0, 1.0), 4096)
    for _ in range(5):
        cuts = np.sort(rng.uniform(0, 1, 200))
        xs = np.concatenate([[0.0], cuts, [1.0]])
        tags = xs[:-1] + rng.uniform(0, 1, len(xs) - 1) * np.diff(xs)
        val = riemann_integral_tagged(f, (0.0, 1.0), xs, tags)
        assert max_norm(val - reference) < 5e-3
    with pytest.raises(ValueError):
        riemann_integral_tagged(f, (0.0, 1.0), [0.0, 0.5], [0.6])
    with pytest.raises(ValueError):
        riemann_integral_tagged(f, (0.0, 1.0), [0.0, 0.5, 0.4, 1.0], [0.1, 0.45, 0.7])


# -- contour integrals ---------------------------------------------------------


def test_monomial_orthogonality():
    for n in range(-5, 6):
        f = ContourFunction(lambda z, n=n: np.array([z**n]), excluded=[0] if n < 0 else ())
        val = contour_integral(f, Curve.circle(0, 1.0), nodes=64) / (2j * np.pi)
        expect = 1.0 if n == -1 else 0.0
        assert abs(val[0] - expect) < 1e-12


def test_closed_curve_of_primitive_vanishes():
    # A function with a primitive integrates to zero over a closed curve.
    f = ContourFunction(lambda zs: np.stack([zs**2, np.cos(zs)], axis=-1), vectorized=True)
    square = Curve.polygon([0, 1, 1 + 1j, 1j])
    assert max_norm(contour_integral(f, square)) < 1e-10


def test_goursat_triangle():
    f = ContourFunction(
        lambda zs: np.stack([zs**3 + 2 * zs, zs**2 - 1], axis=-1), vectorized=True
    )
    tri = Curve.polygon([0, 2, 1 + 1j])
    assert max_norm(contour_integral(f, tri)) < 1e-10


def test_open_path_matches_primitive_difference():
    f = ContourFunction(lambda zs: zs[..., None] ** 2, vectorized=True)
    path = Curve([Line(0, 1 + 1j)])
    val = contour_integral(f, path)
    expect = (1 + 1j) ** 3 / 3
    assert abs(val[0] - expect) < 1e-10


def test_reversed_circle_negates_the_integral():
    f = ContourFunction(lambda z: np.array([1 / z]), excluded=[0])
    fwd = contour_integral(f, Curve([Circle(0, 1.0, 1)]), nodes=64)
    rev = contour_integral(f, Curve([Circle(0, 1.0, -1)]), nodes=64)
    assert max_norm(fwd + rev) < 1e-12
    assert abs(fwd[0] - 2j * np.pi) < 1e-12


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve([Line(0, 1), Line(2, 3)])
    with pytest.raises(ValueError):
        Circle(0, -1.0)
    with pytest.raises(ValueError):
        contour_integral(ContourFunction(lambda z: np.array([z])), Curve([]))


def test_node_on_excluded_point_rejected():
    f = ContourFunction(lambda z: np.array([1 / (z - 1)]), excluded=[1.0])
    with pytest.raises(ValueError):
        contour_integral(f, Curve.circle(0, 1.0), nodes=64)  # node at z = 1


# -- Laurent coefficients -------------------------------------------------------


def test_cauchy_coeff_polynomial():
    f = ContourFunction(lambda z: np.array([3 + 2 * z**2]))
    assert abs(cauchy_coeff(f, 0, 2, 1.0, 64)[0] - 2) < 1e-12
    assert abs(cauchy_coeff(f, 0, 0, 1.0, 64)[0] - 3) < 1e-12
    assert abs(cauchy_coeff(f, 0, 1, 1.0, 64)[0]) < 1e-12


def test_cauchy_coeff_recovers_all_polynomial_coefficients():
    coeffs = np.array([1.0, -2.5, 0.0, 3.25, 0.5])
    f = ContourFunction(
        lambda z: np.array([sum(c * z**k for k, c in enumerate(coeffs))])
    )
    for k, c in enumerate(coeffs):
        got = cauchy_coeff(f, 0, k, 1.0, 128)[0]
        assert abs(got - c) < 1e-10


def test_cauchy_coeff_partial_fractions():
    # 1/(z(z-2)) = -1/(2z) + 1/(2(z-2)): residue -1/2 at the origin.
    f = ContourFunction(lambda z: np.array([1 / (z * (z - 2))]), excluded=[0, 2])
    assert abs(cauchy_coeff(f, 0, -1, 1.0, 128)[0] + 0.5) < 1e-10


def test_declared_annulus_enforced():
    from jetfact.numcx import Annulus

    f = ContourFunction(
        lambda z: np.array([1 / (z * (z - 2))]),
        excluded=[0, 2],
        domain=Annulus(0j, 0.0, 2.0),
    )
    assert abs(cauchy_coeff(f, 0, -1, 1.0, 128)[0] + 0.5) < 1e-10
    with pytest.raises(ValueError):
        cauchy_coeff(f, 0, -1, 3.0, 128)  # outside the annulus
    with pytest.raises(ValueError):
        laurent_coeffs(f, 0, [-1], 3.0, 128)
    with pytest.raises(ValueError):
        contour_integral(f, Curve.circle(0, 2.5), nodes=64)
    with pytest.raises(ValueError):
        Annulus(0j, 2.0, 1.0)


@pytest.mark.parametrize("nodes", [0, -4])
def test_trapezoid_routines_refuse_fewer_than_one_node(nodes):
    # Without the check, z^2 read a nan (0 nodes) or 0 (-4 nodes) for its
    # coefficient 1, and a circle integral on 0 nodes divided by zero.
    f = ContourFunction(lambda z: z[:, None] ** 2, vectorized=True)
    with pytest.raises(ValueError, match="at least one trapezoid node"):
        cauchy_coeff(f, 0, 2, 1.0, nodes)
    with pytest.raises(ValueError, match="at least one trapezoid node"):
        laurent_coeffs(f, 0, [2], 1.0, nodes)
    with pytest.raises(ValueError, match="at least one trapezoid node"):
        contour_integral(f, Curve.circle(0, 1.0), nodes=nodes)
    C = np.ones((3, 3, 1), dtype=complex)
    with pytest.raises(ValueError, match="at least one trapezoid node"):
        double_residue(C, lambda z, w: z**-2 * w**-2, 1.5, 0.5, nodes)


def test_cauchy_coeff_radius_independence():
    f = ContourFunction(lambda z: np.array([1 / (z * (z - 2)), z**2]), excluded=[0, 2])
    for n in (-1, 0, 1, 2):
        a = cauchy_coeff(f, 0, n, 0.5, 128)
        b = cauchy_coeff(f, 0, n, 1.5, 128)
        assert max_norm(a - b) < 1e-9


def test_trapezoid_exactness_on_laurent_polynomials():
    # Exponent range well below the node count: error at rounding level.
    f = ContourFunction(
        lambda z: np.array([5 * z**-7 + z**-1 - 3 + 2 * z**9]), excluded=[0]
    )
    val = contour_integral(f, Curve.circle(0, 1.0), nodes=64) / (2j * np.pi)
    assert abs(val[0] - 1.0) < 1e-12


# -- singularity classification ---------------------------------------------------


def test_classify_removable():
    f = ContourFunction(lambda z: np.array([np.sin(z) / z if z != 0 else 1.0]), excluded=[0])
    rep = classify_singularity(f, 0)
    assert rep.kind == "removable" and rep.order == 0


def test_classify_pole_order_two():
    f = ContourFunction(lambda z: np.array([z**-2]), excluded=[0])
    rep = classify_singularity(f, 0)
    assert rep.kind == "pole" and rep.order == 2
    assert max_norm(rep.residue) < 1e-10


def test_classify_simple_pole_with_residue():
    f = ContourFunction(lambda z: np.array([1 / (z * (z - 2))]), excluded=[0, 2])
    rep = classify_singularity(f, 0)
    assert rep.kind == "pole" and rep.order == 1
    assert abs(rep.residue[0] + 0.5) < 1e-9


def test_classify_essential_within_window():
    f = ContourFunction(lambda z: np.array([np.exp(1 / z)]), excluded=[0])
    rep = classify_singularity(f, 0)
    assert rep.kind == "essential"
    assert "window" in str(rep)


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


def test_residue_swap_negative_control(v5):
    # A spurious pole on the diagonal makes the two orders disagree.
    P = v5.presentation
    x = P.gen("x")
    C = coefficient_tensor(insert(["z", "w", Scalar(0)], [x, x, x], v5), P)

    def bad(Z, W):
        return Z**-1 * W**-1 / (Z - W)  # not holomorphic across the diagonal

    gap = max_norm(double_residue(C, bad, 1.5, 0.5, 64) - double_residue(C, bad, 0.5, 1.5, 64))
    assert gap > 1e-3


def _grid_double_residue(fn, weight, r_z, r_w, nodes):
    # Reference: the trapezoid double sum over the full node grid, with the
    # series evaluated at every grid point.
    theta = 2 * np.pi * np.arange(nodes) / nodes
    Z = (r_z * np.exp(1j * theta))[:, None]
    W = (r_w * np.exp(1j * theta))[None, :]
    vals = fn(np.broadcast_to(Z, (nodes, nodes)), np.broadcast_to(W, (nodes, nodes)))
    integrand = (weight(Z, W) * Z * W)[..., None] * vals
    return integrand.sum(axis=(0, 1)) / (nodes * nodes)


@pytest.mark.parametrize("nodes", [32, 128])
def test_double_residue_matches_the_grid_sum(v5, nodes):
    P = v5.presentation
    s = Sampler(37)
    # State weights and exponents chosen so that each residue reads a
    # nonzero coefficient z^e1 w^e2 of the series with e1 != e2.
    cases = [
        ((1, 1, 0), -3, -1, 0),
        ((1, 1, 1), -1, -3, 0),
        ((2, 1, 0), -3, -2, 1),
        ((1, 0, 1), -2, -3, 2),
    ]
    for weights, m, n, N in cases:
        a, b, c = (s.homogeneous_element(P, delta=d) for d in weights)
        series = insert(["z", "w", Scalar(0)], [a, b, c], v5)
        fn = series_function(series, P)
        C = coefficient_tensor(series, P)

        def weight(Z, W):
            return Z**m * W**n * (Z - W) ** N

        for r_z, r_w in ((1.5, 0.5), (0.5, 1.5)):
            reference = _grid_double_residue(fn, weight, r_z, r_w, nodes)
            got = double_residue(C, weight, r_z, r_w, nodes)
            assert max_norm(got - reference) < 1e-12


def test_laurent_coeffs_match_cauchy_coeff(v5):
    # Every coefficient mode_agreement_check reads at nmax = 6.
    P = v5.presentation
    s = Sampler(41)
    ks = [-n - 1 for n in range(-6, 7)]
    for weights in ((1, 0), (1, 1), (2, 1), (1, 3), (0, 2)):
        a, b = (s.homogeneous_element(P, delta=d) for d in weights)
        series = insert(["z", Scalar(0)], [a, b], v5)
        f = ContourFunction(series_function(series, P), vectorized=True)
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
    f = ContourFunction(series_function(series, P), vectorized=True)
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


def test_residue_swap_validation(v5):
    P = v5.presentation
    x = P.gen("x")
    with pytest.raises(ValueError):
        residue_swap_check(x, x, x, -1, -1, 0, v5, inner_radius=2.0, outer_radius=1.0)


def test_unconverged_line_quadrature_raises():
    # The midpoint rule on z**-1/2 from 0 errs by O(n**-1/2), so no two
    # estimates up to 2**21 nodes agree to 1e-12.
    f = ContourFunction(lambda zs: 1 / np.sqrt(zs)[..., None], vectorized=True)
    with pytest.raises(QuadratureError, match=r"2097152 nodes, last difference") as exc:
        contour_integral(f, Curve([Line(0, 1)]))
    assert not isinstance(exc.value, ValueError)


def test_line_quadrature_meets_its_tolerance_on_a_quartic():
    # Plain midpoint refinement stops short of 1e-12 here at 2**21 nodes.
    f = ContourFunction(lambda zs: (zs**4 - zs)[..., None], vectorized=True)
    val = contour_integral(f, Curve([Line(0, 2)]))
    assert abs(val[0] - (2**5 / 5 - 2)) < 1e-12
