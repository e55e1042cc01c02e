"""Floating-point contour calculus for vector-valued functions.

Values live in a fixed finite-dimensional coordinate space (the weight
truncation of the graded algebra in a fixed monomial basis); the working
seminorm is the max-norm over coordinates.  A contour function maps an
array of points to a (points, dim) array, one row of coordinates per
point.  One helper checks the radius and the node count and builds the
uniform-angle trapezoid nodes of a circle; laurent_coeffs (every
coefficient from one FFT of the samples) and the double residues read
it, cauchy_coeff is laurent_coeffs at one n, and a circle integral is
2 pi i times cauchy_coeff at n = -1.  The trapezoid rule is spectrally
exact for the trigonometric-polynomial integrands this system produces.
Line segments refine a midpoint rule dyadically with one Richardson step
and raise QuadratureError when it does not settle.  The two-variable
residues of the locality check take their weight as a Laurent polynomial
in (z, w); each of its terms is a z part times a w part, so the trapezoid
double sum factors into one node average per circle and term, and no
array over the node grid is formed.  On a finite node set exponents that differ by a
multiple of the node count alias onto each other, so both numeric checks
compute the smallest node count from which their series reads no other
exponent and refuse fewer nodes with an AliasingError that carries it.

numpy is imported on the first numeric call, not with this module: the
module global np is a stand-in until then.  So the exact commands of the
CLI, which imports this module for its num commands, run without loading
numpy; perfbench reads this module from the CLI's import graph.
"""

from __future__ import annotations

from functools import cache
from math import comb, gcd, inf, pi

from .errors import InputError
from .jetalg import AlgebraPresentation
from .reports import check_entry
from .scalars import Scalar
from .vertex import VertexAlgebra, field_tables, locality_sides
from .reconstruct import InsertionSeries, insert

__all__ = [
    "Circle",
    "Line",
    "Curve",
    "ContourFunction",
    "element_vector",
    "series_function",
    "contour_integral",
    "cauchy_coeff",
    "laurent_coeffs",
    "coefficient_tensor",
    "double_residue",
    "mode_agreement_check",
    "residue_swap_check",
    "max_norm",
    "QuadratureError",
    "AliasingError",
    "SWAP_CHECKS",
    "EXACT_SIDES",
]


class _DeferredNumpy:
    """Stands in for numpy until the first numeric call reads an attribute;
    that read imports numpy and rebinds the module global np to it, so
    every later read is numpy's own attribute."""

    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _DeferredNumpy()


class QuadratureError(ArithmeticError):
    """A quadrature rule did not reach its tolerance within its node budget.

    An ArithmeticError, not a ValueError: the input was well formed, the
    integral just could not be trusted to the requested accuracy.
    """


class AliasingError(InputError):
    """Too few trapezoid nodes; need is the least count that aliases nothing."""

    def __init__(self, message: str, need: int):
        super().__init__(message)
        self.need = need


def _check_radius(radius: float):
    # Chained comparisons are False for nan, so nan is refused too.
    if not 0 < radius < inf:
        raise ValueError(f"circle radius must be a positive finite number, got {radius}")


def max_norm(v) -> float:
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


class Circle:
    def __init__(self, center: complex, radius: float):
        _check_radius(radius)
        self.center = center
        self.radius = radius
        self.start = self.end = center + radius


class Line:
    def __init__(self, start: complex, end: complex):
        self.start = start
        self.end = end


class Curve:
    """Piecewise path: circles and line segments with matching endpoints."""

    def __init__(self, segments):
        self.segments = tuple(segments)
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.end - b.start) > 1e-12:
                raise ValueError("consecutive segments do not share endpoints")

    @classmethod
    def circle(cls, center, radius) -> "Curve":
        return cls([Circle(complex(center), float(radius))])

    @classmethod
    def polygon(cls, vertices) -> "Curve":
        vertices = [complex(v) for v in vertices]
        segs = [
            Line(vertices[i], vertices[(i + 1) % len(vertices)])
            for i in range(len(vertices))
        ]
        return cls(segs)


class ContourFunction:
    """Evaluation procedure from the plane to the coordinate space.

    fn maps a one-dimensional array of points to a (points, dim) array,
    one row of coordinates per point.  excluded lists points where
    evaluation is undefined; quadrature nodes are checked against it.
    """

    def __init__(self, fn, excluded=()):
        self._fn = fn
        self.excluded = tuple(complex(e) for e in excluded)

    def eval_many(self, zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        for e in self.excluded:
            if np.any(np.abs(zs - e) < 1e-12):
                raise ValueError(f"quadrature node hits excluded point {e}")
        values = np.asarray(self._fn(zs), dtype=complex)
        # A (dim, points) array would broadcast into a wrong integral.
        if values.ndim != 2 or len(values) != len(zs):
            raise ValueError(
                f"contour function must map {len(zs)} points to ({len(zs)}, dim) "
                f"rows, got shape {values.shape}"
            )
        return values


def element_vector(elem, P: AlgebraPresentation) -> np.ndarray:
    """Float coordinates of an exact element over the full monomial basis;
    only the nonzero ones are converted."""
    vec = np.zeros(P.dimension(), dtype=complex)
    for i, c in P.coordinates(elem).items():
        vec[i] = complex(c)
    return vec


def series_function(series: InsertionSeries, P: AlgebraPresentation, tensor=None):
    """Numeric evaluator of an insertion series at complex variable values.

    Returns fn(*points) -> coordinate array, broadcasting over numpy
    inputs.  Coefficients are converted to coordinates once, here or by
    the caller: tensor, when given, is the series' coefficient_tensor and
    its entries are used as they are.
    """
    if tensor is None:
        tensor = coefficient_tensor(series, P)
    coeff_vectors = {exps: tensor[exps] for exps in series.coeffs}
    dim = tensor.shape[-1]

    def fn(*points):
        points = [np.asarray(p, dtype=complex) for p in points]
        if len(points) != len(series.variables):
            raise ValueError("wrong number of point arguments")
        shape = np.broadcast(*points).shape if points else ()
        out = np.zeros(shape + (dim,), dtype=complex)
        for exps, vec in coeff_vectors.items():
            mono = np.ones(shape, dtype=complex)
            for p, e in zip(points, exps):
                if e:
                    mono = mono * p**e
            out += mono[..., None] * vec
        return out

    return fn


def coefficient_tensor(series: InsertionSeries, P: AlgebraPresentation) -> np.ndarray:
    """Coordinates of every coefficient of a series in one array.

    C[e_1, ..., e_k, :] is the coefficient of the monomial with exponents
    e_1..e_k; every exponent axis runs over 0..total_degree.
    """
    shape = (series.total_degree() + 1,) * len(series.variables)
    C = np.zeros(shape + (P.dimension(),), dtype=complex)
    for exps, elem in series.coeffs.items():
        row = C[exps]
        for i, c in P.coordinates(elem).items():
            row[i] = complex(c)
    return C


def _refuse_aliasing(nodes: int, offsets, what: str):
    """Raise AliasingError unless the trapezoid rule on this many nodes per
    circle reads the wanted coefficient alone.

    Each offset is the difference between an exponent vector the integrand
    holds and the one a sum reads.  The node average over a circle in each
    variable picks the offset up exactly when the node count divides every
    entry, i.e. divides their gcd, so the least node count from which
    nothing aliases is one more than the largest gcd of an offset.
    """
    need = 1 + max((gcd(*p) for p in offsets), default=0)
    if nodes < need:
        raise AliasingError(f"{nodes} nodes alias {what}: need at least {need} nodes", need)


# -- quadrature ----------------------------------------------------------------


def _circle_nodes(radius: float, nodes: int):
    """The trapezoid nodes of the positively oriented circle |z| = radius,
    after checking the node count and the radius."""
    if nodes < 1:
        raise ValueError(f"need at least one trapezoid node, got {nodes}")
    _check_radius(radius)
    return radius * _unit_circle(nodes)


@cache
def _unit_circle(nodes: int):
    """The unit roots at the angles 2 pi k / nodes, read-only."""
    roots = np.exp(1j * (2 * pi * np.arange(nodes) / nodes))
    roots.flags.writeable = False
    return roots


def _midpoint(f: ContourFunction, z0, z1, n: int) -> np.ndarray:
    """Midpoint rule on n equal cells for the integral of f dz from z0 to z1."""
    step = (z1 - z0) / n
    return f.eval_many(z0 + (np.arange(n) + 0.5) * step).sum(axis=0) * step


def _integrate_line(f: ContourFunction, seg: Line, nodes: int) -> np.ndarray:
    # The midpoint error is an even series in the step, so one Richardson
    # step removes its step**2 term; successive extrapolated values then
    # differ by about 15 times the error of the later one.
    tol = 1e-12
    n = max(nodes, 8)
    coarse, mid = _midpoint(f, seg.start, seg.end, n), _midpoint(f, seg.start, seg.end, 2 * n)
    n *= 2
    prev = (4.0 * mid - coarse) / 3.0
    while True:
        n *= 2
        fine = _midpoint(f, seg.start, seg.end, n)
        cur = (4.0 * fine - mid) / 3.0
        diff = max_norm(cur - prev) / 15.0
        if diff <= tol:
            return cur
        if n >= (1 << 21):
            raise QuadratureError(
                f"line quadrature from {seg.start} to {seg.end} did not converge: "
                f"{n} nodes, last difference {diff:.3e} > tolerance {tol:.3e}"
            )
        mid, prev = fine, cur


def contour_integral(f: ContourFunction, curve: Curve, nodes: int = 128) -> np.ndarray:
    """Integral over a piecewise curve: trapezoid on circles (exact for
    trigonometric polynomials up to the node count), refined and
    Richardson-extrapolated midpoint on line segments.  Raises
    QuadratureError when a line segment has not converged to 1e-12
    after 2**21 nodes."""
    total = None
    for seg in curve.segments:
        if isinstance(seg, Circle):
            # dz = i (z - center) dtheta: the trapezoid sum is 2 pi i times
            # the node average of f (z - center), the coefficient of n = -1.
            part = 2j * pi * cauchy_coeff(f, seg.center, -1, seg.radius, nodes)
        elif isinstance(seg, Line):
            part = _integrate_line(f, seg, nodes)
        else:
            raise TypeError(f"unknown segment type {type(seg).__name__}")
        total = part if total is None else total + part
    if total is None:
        raise ValueError("curve has no segments")
    return total


def cauchy_coeff(f: ContourFunction, center, n: int, radius, nodes: int = 128) -> np.ndarray:
    """The n-th Laurent coefficient estimate on a circle of the given radius.

    Computes 1/(2 pi i) times the integral of f(z) / (z - center)^(n + 1)
    over the positively oriented circle; simplified to a plain average in
    the angle, the trapezoid rule is exact for polynomial sections with
    enough nodes.  It is laurent_coeffs at the one n.
    """
    return laurent_coeffs(f, center, [n], radius, nodes)[0]


def laurent_coeffs(f: ContourFunction, center, ns, radius, nodes: int = 128) -> np.ndarray:
    """The Laurent coefficient estimates of cauchy_coeff for every n in ns.

    Samples the circle once; the trapezoid sums of all coefficients are
    one discrete Fourier transform of the samples, read at n mod nodes and
    scaled by radius^-n.  Row i of the result belongs to ns[i].
    """
    radius = float(radius)
    z = _circle_nodes(radius, nodes)
    values = f.eval_many(complex(center) + z)
    ns = np.asarray(ns, dtype=int)
    spectrum = np.fft.fft(values, axis=0)[ns % nodes] / nodes
    return spectrum * (radius ** -ns.astype(float))[:, None]


def double_residue(
    coeffs: np.ndarray, weight: dict, r_z: float, r_w: float, nodes: int
) -> np.ndarray:
    """Res_z Res_w of weight(z, w) * F(z, w) on the circles |z| = r_z and
    |w| = r_w, by the trapezoid rule with the given node count per circle.

    F is the polynomial sum of coeffs[e1, e2, :] z^e1 w^e2, and weight is
    the Laurent polynomial {(p, q): c} summing c z^p w^q.  Each term of
    z w weight F is a z part times a w part, so its double node average is
    the product of one node average per circle: Vz^T z^(p+1) and
    Vw^T w^(q+1), with Vz, Vw the node Vandermonde matrices.  Their outer
    products, weighted by c and summed, contract with coeffs: the
    trapezoid double sum reassociated, with no array over the node grid.
    The sum is exact for Laurent polynomials that alias nothing at this
    node count; which radius is larger decides the expansion region.
    """
    z = _circle_nodes(r_z, nodes)
    w = _circle_nodes(r_w, nodes)
    shifts = np.array(list(weight), dtype=int).reshape(-1, 2) + 1
    c = np.array(list(weight.values()), dtype=complex)
    Az = np.vander(z, coeffs.shape[0], increasing=True).T @ z[:, None] ** shifts[:, 0]
    Aw = np.vander(w, coeffs.shape[1], increasing=True).T @ w[:, None] ** shifts[:, 1]
    return np.tensordot((Az * c) @ Aw.T, coeffs, axes=2) / (nodes * nodes)


def mode_agreement_check(
    a,
    b,
    V: VertexAlgebra,
    nmax: int = 6,
    nodes: int = 128,
    tolerance: float = 1e-9,
) -> dict:
    """Laurent coefficients of the numeric two-point insertion against the
    exact modes, for |n| <= nmax, in the max-norm.

    The series is sampled once on the circle |z| = 0.75 and every mode is
    read from one FFT of the samples (laurent_coeffs); the exact modes are
    read from one coefficient_tensor of the series, which the numeric
    evaluator shares, so each coefficient is converted once.  Raises
    AliasingError when the node count is below the smallest one from
    which no exponent of the series aliases onto a mode that is read.
    """
    P = V.presentation
    series = insert(["z", Scalar(0)], [a, b], V)
    ns = range(-nmax, nmax + 1)
    powers = [-n - 1 for n in ns]
    _refuse_aliasing(
        nodes,
        ((e - k,) for (e,) in series.coeffs for k in powers),
        f"the modes |n| <= {nmax} of a series of degree {series.total_degree()}",
    )
    C = coefficient_tensor(series, P)
    f = ContourFunction(series_function(series, P, C))
    numeric = laurent_coeffs(f, 0.0, powers, 0.75, nodes)
    # The series has no pole, so modes n >= 0 (k < 0) read zero from it,
    # and so do the powers above its degree.
    ks = np.array(powers)
    held = (0 <= ks) & (ks < len(C))
    exact = np.zeros_like(numeric)
    exact[held] = C[ks[held]]
    worst = max_norm(numeric - exact)
    checks = [
        check_entry(
            "numeric_symbolic_modes",
            worst <= tolerance,
            {"worst_gap": worst, "tolerance": tolerance, "nmax": nmax},
        )
    ]
    return {"checks": checks}


def _locality_weight(m: int, n: int, N: int) -> dict:
    """z^m w^n (z - w)^N as the Laurent polynomial {(p, q): coefficient},
    by the binomial theorem: C(N, i) (-1)^(N-i) at (m + i, n + N - i)."""
    return {(m + i, n + N - i): comb(N, i) * (-1) ** (N - i) for i in range(N + 1)}


# The numeric checks of residue_swap_check, in report order, and the key
# of its result that says whether the two exact mode sums are equal.
SWAP_CHECKS = (
    "iterated_orders_agree",
    "matches_mode_sum_first_order",
    "matches_mode_sum_second_order",
)
EXACT_SIDES = "exact_sides_equal"


def residue_swap_check(
    a,
    b,
    c,
    m: int,
    n: int,
    N: int,
    V: VertexAlgebra,
    nodes: int = 64,
    tolerance: float = 1e-8,
) -> dict:
    """Compare both iterated contour orders of the weighted three-point
    insertion against the exact binomial mode sums.

    The integrand is z^m w^n (z - w)^N times the series of states placed
    at (z, w, 0), on circles of radius 0.5 and 1.5.  Taking the w-contour
    inside the z-contour matches the mode sum with the first state
    outermost; swapping the radii matches the other association.  Both
    numeric values and both exact sums must agree within the tolerance in
    the max-norm.  The weight is expanded once by the binomial theorem
    (_locality_weight); the aliasing guard reads its exponents, and
    double_residue integrates it term by term in each contour order
    against the stacked series coefficients.  The exact sums read their
    modes through check_vertex_axioms' table maker, vertex.field_tables.
    Raises ValueError when N is negative, and AliasingError when the node
    count is below the smallest one from which no monomial of the
    integrand aliases onto the residue.
    """
    if N < 0:
        raise ValueError("locality order N must be non-negative")
    P = V.presentation
    series = insert(["z", "w", Scalar(0)], [a, b, c], V)
    weight = _locality_weight(m, n, N)
    # The residue reads z^-1 w^-1 of weight(z, w) F(z, w).
    _refuse_aliasing(
        nodes,
        ((p + 1 + e1, q + 1 + e2) for e1, e2 in series.coeffs for p, q in weight),
        f"the residue at m={m}, n={n}, N={N} of a series of degree "
        f"{series.total_degree()}",
    )
    C = coefficient_tensor(series, P)
    order_w_inner = double_residue(C, weight, 1.5, 0.5, nodes)
    order_z_inner = double_residue(C, weight, 0.5, 1.5, nodes)

    lhs, rhs = locality_sides(a, b, c, m, n, N, V, field_tables(V))
    differences = (
        order_w_inner - order_z_inner,
        order_w_inner - element_vector(lhs, P),
        order_z_inner - element_vector(rhs, P),
    )
    checks = []
    for name, difference in zip(SWAP_CHECKS, differences):
        gap = max_norm(difference)
        detail = {"max_gap": gap, "tolerance": tolerance}
        checks.append(check_entry(name, gap <= tolerance, detail))
    return {"checks": checks, EXACT_SIDES: lhs == rhs}
