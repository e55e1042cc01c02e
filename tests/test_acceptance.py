"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; exact checks compare Gaussian-rational
values for equality, numeric checks use the stated max-norm bounds.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction

import numpy as np

from jetfact.diskgeom import Disk
from jetfact.factalg import (
    adjunction_theta,
    adjunction_theta_prime,
    check_coequalizer_chain,
    check_pfa_axioms,
    mu_l_via_placement,
)
from jetfact.grading import GradedElement
from jetfact.jetalg import AlgebraHom, AlgebraPresentation, lift_hom
from jetfact.numcx import (
    ContourFunction,
    Curve,
    cauchy_coeff,
    contour_integral,
    max_norm,
    mode_agreement_check,
    residue_swap_check,
    series_function,
)
from jetfact.reconstruct import eta_roundtrip_check, insert, translation_of
from jetfact.reports import all_pass
from jetfact.sampling import Sampler
from jetfact.scalars import Scalar
from jetfact.vertex import VertexAlgebra, check_vertex_axioms
from test_jetalg import brute_force_partitions


def verdict(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"acceptance criterion {number} failed: {text}"


def test_acceptance_01_jet_dimensions():
    t0 = time.perf_counter()
    P = AlgebraPresentation(["x"], [], 12)
    dims = P.dims()
    oracle = [brute_force_partitions(d) for d in range(13)]
    elapsed = time.perf_counter() - t0
    ok = dims == oracle and oracle[12] == 77 and elapsed < 1.0
    verdict(1, ok, f"jet dimensions equal partition numbers up to 12 in {elapsed:.2f}s")


def test_acceptance_02_vertex_axiom_suite():
    t0 = time.perf_counter()
    ok = True
    for gens, rels in [(["x"], []), (["x", "y"], ["x*y"])]:
        V = VertexAlgebra(AlgebraPresentation(gens, rels, 6))
        report = check_vertex_axioms(V, samples=200, seed=0)
        ok = ok and all_pass(report["checks"])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(
        2,
        ok,
        f"vacuum, translation, locality (N=0,1,2) on 200 triples x 2 algebras "
        f"at W=6 in {elapsed:.1f}s",
    )


def test_acceptance_03_prefactorization_axioms():
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    report = check_pfa_axioms(V.presentation, samples=100, seed=0)
    counts = {
        c["name"]: c["detail"]["passed"] for c in report["checks"]
    }
    ok = all_pass(report["checks"]) and all(v == 100 for v in counts.values())
    verdict(3, ok, "structure-map and equivariance axioms on 100 configurations")


def test_acceptance_04_placement_independence():
    P = AlgebraPresentation(["x", "y"], [], 6)
    sampler = Sampler(4)
    failures = 0
    for _ in range(50):
        l = sampler.rng.randint(1, 4)
        elems = [sampler.element(P, max_terms=2) for _ in range(l)]
        direct = P.product(elems)
        for _ in range(2):
            placement = sampler.disjoint_disks(l)
            via = mu_l_via_placement(P, elems, placement, Disk(Scalar(0), 64))
            if via != direct:
                failures += 1
    verdict(
        4,
        failures == 0,
        "multi-fold products agree exactly across independent placements "
        "(l <= 4, 50 samples, 2 placements each)",
    )


def test_acceptance_05_coequalizer_chains():
    P = AlgebraPresentation(["x"], [], 5)
    ok = True
    for length in range(1, 6):
        radii = [Fraction(k + 1) for k in range(length)]
        report = check_coequalizer_chain(P, radii, wmax=5)
        ok = ok and all_pass(report["checks"])
    verdict(5, ok, "gluing cokernels exact on chains of length 1..5 at W=5")


def test_acceptance_06_adjunction_round_trips():
    src = AlgebraPresentation(["x"], [], 5)
    tgt = AlgebraPresentation(["y"], [], 5)
    sampler = Sampler(6)
    from jetfact.factalg import TensorSection
    from jetfact.vertex import completion_rotation

    V_tgt = VertexAlgebra(tgt)
    failures = 0
    for i in range(20):
        hom = lift_hom({"x": sampler.element(tgt, max_terms=2)}, src, tgt)
        if i % 2:
            q = sampler.unit_scalar()
            hom = AlgebraHom(
                src,
                tgt,
                {
                    var: completion_rotation(q, img, V_tgt)
                    for var, img in hom.variable_items()
                },
            )
        phi = adjunction_theta_prime(hom)
        extracted = adjunction_theta(phi)
        ok = all(
            extracted.image_of_variable(*var) == img
            for var, img in hom.variable_items()
        )
        L = sampler.disjoint_disks(2)
        sec = TensorSection.simple(
            L, [sampler.element(src, max_terms=2) for _ in range(2)], src
        )
        ok = ok and adjunction_theta_prime(extracted).apply(sec) == phi.apply(sec)
        failures += 0 if ok else 1
    verdict(6, failures == 0, "both adjunction round trips exact on 20 morphisms")


def test_acceptance_07_reconstruction_round_trip():
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    report = eta_roundtrip_check(V, nmax=6)
    ok = all_pass(report["checks"])
    pairs = next(c for c in report["checks"] if c["name"] == "modes")["detail"]["pairs"]
    verdict(
        7,
        ok and pairs == 30 * 30,
        f"reconstructed vacuum, translation, modes |n|<=6 exact on all "
        f"{pairs} basis pairs at W=6",
    )


def test_acceptance_08_jet_lifting():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    V_tgt = VertexAlgebra(tgt)
    y = tgt.gen("y")
    f0 = tgt.multiply(y, y) + y.scale(Scalar(Fraction(1, 2)))
    hom = lift_hom({"x": f0}, src, tgt)

    def modewise_apply(elem):
        # Independent construction: jet images through series-coefficient
        # translation, monomials through the multi-fold product.
        out = tgt.zero()
        for mono, coeff in elem.data.items():
            factors = []
            for _, order in mono:
                img = f0
                for _ in range(order):
                    img = translation_of(img, V_tgt)
                factors.append(img)
            out = out + tgt.product(factors).scale(coeff)
        return out

    ok = True
    basis = [
        GradedElement._make({m: Scalar(1)}, 6)
        for d in range(7)
        for m in src.weight_basis(d)
    ]
    for e in basis:
        ok = ok and hom.apply(e) == modewise_apply(e)
        ok = ok and hom.apply(src.derive(e)) == tgt.derive(hom.apply(e))
    verdict(
        8,
        ok,
        f"differential lift exists and two constructions agree on all "
        f"{len(basis)} basis elements",
    )


def test_acceptance_09_numeric_symbolic_modes():
    t0 = time.perf_counter()
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    sampler = Sampler(9)
    ok = True
    for _ in range(8):
        a = sampler.homogeneous_element(V.presentation)
        b = sampler.homogeneous_element(V.presentation)
        report = mode_agreement_check(a, b, V, nmax=6, nodes=128, tolerance=1e-9)
        ok = ok and all_pass(report["checks"])
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    verdict(
        9,
        ok,
        f"contour coefficients match exact modes to 1e-9 for |n|<=6 at "
        f"W=6, 128 nodes, in {elapsed:.1f}s",
    )


def test_acceptance_10_residue_swap():
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    sampler = Sampler(10)
    ok = True
    for i in range(20):
        a, b, c = (sampler.homogeneous_element(V.presentation) for _ in range(3))
        m = -sampler.rng.randint(1, 2)
        n = -sampler.rng.randint(1, 2)
        N = i % 3
        report = residue_swap_check(a, b, c, m, n, N, V, tolerance=1e-8)
        ok = ok and all_pass(report["checks"]) and report["exact_sides_equal"]
    verdict(
        10,
        ok,
        "iterated contour orders agree to 1e-8 and match the binomial mode "
        "sums for N<=2 on 20 samples",
    )


def test_acceptance_11_contour_calculus_sanity():
    ok = True
    # Monomial orthogonality at 1e-12.
    for n in range(-5, 6):
        f = ContourFunction(lambda zs, n=n: zs[:, None] ** n, excluded=[0] if n < 0 else ())
        val = contour_integral(f, Curve.circle(0, 1.0), nodes=64) / (2j * np.pi)
        expect = 1.0 if n == -1 else 0.0
        ok = ok and abs(val[0] - expect) < 1e-12

    # Triangle contour of polynomials at 1e-10.
    poly = ContourFunction(lambda zs: np.stack([zs**4 - zs, 3 * zs**2 + 1j], axis=-1))
    tri = Curve.polygon([0, 2, 1 + 1j])
    ok = ok and max_norm(contour_integral(poly, tri)) < 1e-10

    # Laurent radius independence at 1e-9 on an insertion series.
    V = VertexAlgebra(AlgebraPresentation(["x"], [], 6))
    sampler = Sampler(11)
    a = sampler.homogeneous_element(V.presentation)
    b = sampler.homogeneous_element(V.presentation)
    series = insert(["z", Scalar(0)], [a, b], V)
    fn = series_function(series, V.presentation)
    f = ContourFunction(fn)
    for n in range(-3, 4):
        c1 = cauchy_coeff(f, 0.0, n, 0.5, 128)
        c2 = cauchy_coeff(f, 0.0, n, 1.25, 128)
        ok = ok and max_norm(c1 - c2) < 1e-9
    verdict(
        11,
        ok,
        "orthogonality 1e-12, triangle contours 1e-10, radius independence 1e-9",
    )
