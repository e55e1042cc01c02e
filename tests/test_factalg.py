from fractions import Fraction

import pytest

from jetfact.diskgeom import BasisElement, Disk, GroupElement, act
from jetfact.factalg import (
    FAMorphism,
    SupportedOpen,
    TensorSection,
    adjunction_theta,
    adjunction_theta_prime,
    check_coequalizer_chain,
    check_pfa_axioms,
    corestrict,
    equivariant_act,
    evaluate,
    is_weiss_cover,
    mu_l,
    mu_l_via_placement,
    multiply_sections,
    tensor_concat,
)
from jetfact.grading import GradedElement
from jetfact.jetalg import AlgebraPresentation, lift_hom
from jetfact.reports import all_pass
from jetfact.sampling import Sampler
from jetfact.scalars import Scalar
from jetfact.vertex import VertexAlgebra, completion_rotation, completion_translation


def D(c, r):
    return Disk(Scalar.coerce(c), r)


def small_disks(*centers, r=Fraction(1, 4)):
    return BasisElement([D(c, r) for c in centers])


def test_corestrict_grouping(free_x):
    a, b, c = free_x.gen("x"), free_x.gen("x", 1), free_x.gen("x", 2)
    L = small_disks(0, 1, 5)
    M = BasisElement([D(0, 2), D(5, 2)])
    s = TensorSection.simple(L, [a, b, c], free_x)
    out = corestrict(s, M)
    expected = TensorSection.simple(M, [free_x.multiply(a, b), c], free_x)
    assert out == expected


def test_corestrict_identity_and_unit_cases(free_x):
    L = small_disks(0, 3)
    a, b = free_x.gen("x"), free_x.gen("x", 1)
    s = TensorSection.simple(L, [a, b], free_x)
    assert corestrict(s, L) == s
    # Empty source into a disk: the scalar becomes that multiple of the unit.
    M = BasisElement([D(0, 2)])
    c = Scalar(Fraction(5, 3))
    out = corestrict(TensorSection.unit_on_empty(free_x, c), M)
    assert out == TensorSection.simple(M, [free_x.unit()], free_x, c)


def test_corestrict_functoriality(free_x):
    s = Sampler(3)
    for _ in range(10):
        L, M = s.nested_config(2, [2, 2])
        N = BasisElement([D(0, 64)])
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(len(L))], free_x
        )
        assert corestrict(corestrict(sec, M), N) == corestrict(sec, N)


def test_multiply_sections_examples(free_x):
    a, b = free_x.gen("x"), free_x.gen("x", 1)
    s = TensorSection.simple(small_disks(0), [a], free_x)
    t = TensorSection.simple(small_disks(1), [b], free_x)
    N = BasisElement([D(0, 3)])
    out = multiply_sections(s, t, N)
    assert out == TensorSection.simple(N, [free_x.multiply(a, b)], free_x)
    # Multiplying with the unit on the empty set is plain corestriction.
    unit = TensorSection.unit_on_empty(free_x)
    assert multiply_sections(s, unit, N) == corestrict(s, N)
    # Into exactly the union nothing is multiplied.
    U = small_disks(0, 1)
    assert multiply_sections(s, t, U) == TensorSection.simple(U, [a, b], free_x)


def test_tensor_concat_is_bijective_on_simple_tensors(free_x):
    a, b = free_x.gen("x"), free_x.gen("x", 2)
    s = TensorSection.simple(small_disks(0), [a], free_x)
    t = TensorSection.simple(small_disks(1), [b], free_x)
    joint = tensor_concat(s, t)
    # The concatenation of simple tensors recovers both factors.
    ((key, coeff),) = joint.data.items()
    assert coeff == Scalar(1)
    assert GradedElement._make({key[0]: Scalar(1)}, 6) == a
    assert GradedElement._make({key[1]: Scalar(1)}, 6) == b


def test_section_symmetry_normalization(free_x):
    a, b = free_x.gen("x"), free_x.gen("x", 1)
    d0, d1 = D(0, Fraction(1, 4)), D(1, Fraction(1, 4))
    s1 = TensorSection.on_disks([d0, d1], [a, b], free_x)
    s2 = TensorSection.on_disks([d1, d0], [b, a], free_x)
    assert s1 == s2
    s3 = TensorSection.on_disks([d1, d0], [a, b], free_x)
    assert s1 != s3


def test_tensor_compatibility_over_disjoint_targets(free_x):
    s = Sampler(11)
    for _ in range(10):
        L1, M1 = s.nested_config(1, [2])
        shift = GroupElement(Scalar(1), Scalar(300))
        L2, M2 = act(shift, L1), act(shift, M1)
        s1 = TensorSection.simple(
            L1, [s.element(free_x, max_terms=2) for _ in range(len(L1))], free_x
        )
        s2 = TensorSection.simple(
            L2, [s.element(free_x, max_terms=2) for _ in range(len(L2))], free_x
        )
        lhs = corestrict(tensor_concat(s1, s2), M1.union(M2))
        rhs = tensor_concat(corestrict(s1, M1), corestrict(s2, M2))
        assert lhs == rhs


def test_evaluate_single_disk(free_x):
    U = SupportedOpen([[D(0, 2)]])
    ev = evaluate(free_x, U)
    assert ev.region_count == 1
    a = free_x.gen("x")
    s = TensorSection.simple(small_disks(0), [a], free_x)
    assert ev.push(s) == {((("x", 0),),): Scalar(1)}


def test_evaluate_overlapping_region(free_x):
    U = SupportedOpen([[D(0, 2), D(1, 2)]])
    ev = evaluate(free_x, U)
    assert ev.region_count == 1
    a = free_x.gen("x")
    left = ev.push(TensorSection.simple(small_disks(0), [a], free_x))
    right = ev.push(TensorSection.simple(small_disks(1), [a], free_x))
    assert left == right  # both land in the same factor
    # Two disks of the section multiply into the single region factor.
    both = ev.push(TensorSection.simple(small_disks(0, 1), [a, a], free_x))
    assert both == {((("x", 0), ("x", 0)),): Scalar(1)}


def test_evaluate_plane_region(free_x):
    U = SupportedOpen([[Disk(Scalar(0), None)]])
    ev = evaluate(free_x, U)
    assert ev.region_count == 1
    s = TensorSection.simple(small_disks(0, 100), [free_x.gen("x")] * 2, free_x)
    pushed = ev.push(s)
    assert pushed == {((("x", 0), ("x", 0)),): Scalar(1)}


def test_evaluate_errors(free_x):
    U = SupportedOpen([[D(0, 1)]])
    ev = evaluate(free_x, U)
    outside = TensorSection.simple(small_disks(10), [free_x.gen("x")], free_x)
    with pytest.raises(ValueError):
        ev.push(outside)
    with pytest.raises(ValueError):
        SupportedOpen([[D(0, 1), D(5, 1)]])  # disconnected region
    with pytest.raises(ValueError):
        SupportedOpen([[D(0, 1)], [D(1, 1)]])  # overlapping regions
    with pytest.raises(ValueError):
        SupportedOpen([[]])


def test_mu_l_examples(free_x):
    a, b, c = free_x.gen("x"), free_x.gen("x", 1), free_x.gen("x", 2)
    assert mu_l(free_x, [a, b]) == free_x.multiply(a, b)
    assert mu_l(free_x, [a]) == a
    assert mu_l(free_x, [a, b, c]) == mu_l(free_x, [mu_l(free_x, [a, b]), c])


def test_mu_l_placement_independence(free_x):
    s = Sampler(13)
    for _ in range(20):
        l = s.rng.randint(1, 4)
        elems = [s.element(free_x, max_terms=2) for _ in range(l)]
        direct = mu_l(free_x, elems)
        for _ in range(2):
            placement = s.disjoint_disks(l)
            ambient = D(0, 64)
            assert mu_l_via_placement(free_x, elems, placement, ambient) == direct


def test_equivariant_act_examples(vx, free_x):
    x = free_x.gen("x")
    L = small_disks(0)
    s = TensorSection.simple(L, [x], free_x)
    assert equivariant_act(GroupElement.identity(), s, vx) == s

    z = Scalar(Fraction(1, 2))
    moved = equivariant_act(GroupElement(Scalar(1), z), s, vx)
    assert moved.L == BasisElement([D(z, Fraction(1, 4))])
    assert moved.as_element() == completion_translation(z, x, vx)


def test_equivariant_act_composition(vx, free_x):
    s = Sampler(17)
    for _ in range(10):
        L = s.disjoint_disks(2)
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(2)], free_x
        )
        g1, g2 = s.group_element(), s.group_element()
        assert equivariant_act(g1, equivariant_act(g2, sec, vx), vx) == equivariant_act(
            g1.compose(g2), sec, vx
        )


def test_famorphism_naturality(free_x):
    tgt = AlgebraPresentation(["y"], [], 6)
    hom = lift_hom({"x": tgt.multiply(tgt.gen("y"), tgt.gen("y"))}, free_x, tgt)
    phi = FAMorphism(hom)
    s = Sampler(19)
    for _ in range(10):
        L, M = s.nested_config(1, [2])
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(len(L))], free_x
        )
        assert phi.apply(corestrict(sec, M)) == corestrict(phi.apply(sec), M)
        unit = TensorSection.unit_on_empty(free_x, Scalar(3))
        assert phi.apply(unit).as_scalar() == Scalar(3)


def test_famorphism_equivariance_for_graded_differential_maps(free_x):
    # A weight-preserving differential morphism commutes with the action.
    tgt = AlgebraPresentation(["y"], [], 6)
    hom = lift_hom({"x": tgt.gen("y").scale(Scalar(2))}, free_x, tgt)
    phi = FAMorphism(hom)
    V_src = VertexAlgebra(free_x)
    V_tgt = VertexAlgebra(tgt)
    s = Sampler(23)
    for _ in range(10):
        L = s.disjoint_disks(2)
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(2)], free_x
        )
        g = s.group_element()
        assert phi.apply(equivariant_act(g, sec, V_src)) == equivariant_act(
            g, phi.apply(sec), V_tgt
        )


def test_adjunction_unit_is_identity(free_x):
    # Wrapping the identity morphism and extracting gives back the
    # identity on every variable: the unit of the correspondence.
    from jetfact.jetalg import AlgebraHom

    ident = AlgebraHom(
        free_x,
        free_x,
        {("x", m): free_x.gen("x", m) for m in range(free_x.wmax)},
    )
    extracted = adjunction_theta(adjunction_theta_prime(ident))
    for m in range(free_x.wmax):
        assert extracted.image_of_variable("x", m) == free_x.gen("x", m)


def test_adjunction_round_trips(free_x):
    tgt = AlgebraPresentation(["y"], [], 6)
    s = Sampler(29)
    for _ in range(12):
        f0 = {"x": s.element(tgt, max_terms=2)}
        hom = lift_hom(f0, free_x, tgt)
        if s.rng.random() < 0.5:
            # Twist by a completion flow: still an algebra morphism, but no
            # longer differential, exercising the general case.
            V_tgt = VertexAlgebra(tgt)
            q = s.unit_scalar()
            hom = hom.map_images(lambda e: completion_rotation(q, e, V_tgt))
        phi = adjunction_theta_prime(hom)
        extracted = adjunction_theta(phi)
        for var, img in hom.variable_items():
            assert extracted.image_of_variable(*var) == img
        rewrapped = adjunction_theta_prime(extracted)
        L = s.disjoint_disks(2)
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(2)], free_x
        )
        assert rewrapped.apply(sec) == phi.apply(sec)


def test_pfa_axiom_suite(vx):
    report = check_pfa_axioms(vx, samples=10, seed=0)
    assert all_pass(report["checks"])


def test_pfa_axiom_suite_quotient(vxy):
    report = check_pfa_axioms(vxy, samples=6, seed=1)
    assert all_pass(report["checks"])


def test_pfa_negative_control(vx):
    report = check_pfa_axioms(vx, samples=4, seed=0, corrupt=True)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["negative_control"]["status"] == "pass"


def test_pfa_negative_control_quotient(vxy):
    # The broken corestriction keeps one factor of x0 (x) x0; x0*x0 is not
    # a relation of x,y | x*y, so the harness must still tell them apart.
    report = check_pfa_axioms(vxy, samples=2, seed=0, corrupt=True)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["negative_control"]["status"] == "pass"


def test_coequalizer_chain(free_x):
    report = check_coequalizer_chain(free_x, [Fraction(1), Fraction(2)], wmax=4)
    assert all_pass(report["checks"])
    assert len(report["checks"]) == 5
    dims = [c["detail"]["dim"] for c in report["checks"]]
    assert dims == [1, 1, 2, 3, 5]

    single = check_coequalizer_chain(free_x, [Fraction(3)], wmax=3)
    assert all_pass(single["checks"])

    four = check_coequalizer_chain(
        free_x, [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)], wmax=3
    )
    assert all_pass(four["checks"])


def test_coequalizer_chain_validation(free_x):
    with pytest.raises(ValueError):
        check_coequalizer_chain(free_x, [Fraction(2), Fraction(1)])
    with pytest.raises(ValueError):
        check_coequalizer_chain(free_x, [])


def test_weiss_cover_check():
    pts = [Scalar(0), Scalar(1), Scalar(3)]
    # Single elements that each contain all points: a Weiss family for them.
    big = [BasisElement([D(0, 10)]), BasisElement([D(1, 10)])]
    assert is_weiss_cover(big, pts)
    # Two small disks each holding one point: the pair {0, 3} fits in no
    # single element, so the Weiss condition fails.
    small = [BasisElement([D(0, 1)]), BasisElement([D(3, 1)])]
    assert not is_weiss_cover(small, pts)


def test_nested_chain_is_weiss_for_grid_points():
    # The chain family used by the gluing check, including its top disk,
    # passes the finite-point condition on a grid inside the top disk.
    chain = [BasisElement([D(0, Fraction(k))]) for k in (1, 2, 4)]
    grid = [
        Scalar(Fraction(a, 2), Fraction(b, 2))
        for a in range(-5, 6)
        for b in range(-5, 6)
        if Fraction(a, 2) ** 2 + Fraction(b, 2) ** 2 < 16
    ]
    assert is_weiss_cover(chain, grid[:12])
    # Dropping the top disk breaks it: points near the rim pair badly.
    assert not is_weiss_cover(chain[:1], [Scalar(0), Scalar(Fraction(7, 2))])


def test_section_equality_ignores_the_presentation(free_x, quot_x2):
    # Pinned: equality and hashing read L and the terms, not P (see the
    # TensorSection docstring); reports depend on it.
    L = small_disks(0, 1)
    s = TensorSection.simple(L, [free_x.gen("x"), free_x.gen("x", 1)], free_x)
    t = TensorSection.simple(L, [quot_x2.gen("x"), quot_x2.gen("x", 1)], quot_x2)
    assert s.P != t.P
    assert s == t and hash(s) == hash(t)
    assert s != TensorSection.simple(small_disks(0, 2), [free_x.gen("x")] * 2, free_x)
    with pytest.raises(ValueError):
        s + t


# -- canonical input at the TensorSection boundary ---------------------------


def test_section_input_with_reordered_factors_is_one_key(free_x):
    L = small_disks(0)
    x0, x1 = ("x", 0), ("x", 1)
    s = TensorSection(L, free_x, {((x0, x1),): 1})
    assert s == TensorSection(L, free_x, {((x1, x0),): 1})
    assert s.as_element() == free_x.multiply(free_x.gen("x"), free_x.gen("x", 1))
    # Keys that become equal are summed, and a zero sum is dropped.
    assert TensorSection(L, free_x, {((x0, x1),): 1, ((x1, x0),): 2}) == s.scale(3)
    assert not TensorSection(L, free_x, {((x0, x1),): 1, ((x1, x0),): -1})


def test_section_input_in_reversed_order_reduces_in_the_quotient(quot_xy):
    # y0*x0 is x*y, zero in the quotient, whatever order the key gives.
    s = TensorSection(small_disks(0), quot_xy, {((("y", 0), ("x", 0)),): 1})
    assert not corestrict(s, BasisElement([D(0, 2)]))


def test_section_input_with_a_factor_above_the_bound_is_zero():
    P = AlgebraPresentation(["x"], [], 4)
    assert not TensorSection(small_disks(0), P, {((("x", 5),),): 1})
    # One factor above the bound makes the whole tensor zero.
    two = TensorSection(small_disks(0, 1), P, {((("x", 0),), (("x", 5),)): 1})
    assert not two
    assert not corestrict(two, BasisElement([D(0, 4)]))
    # A factor kept under a larger bound is refused, not carried.
    with pytest.raises(ValueError):
        TensorSection.simple(small_disks(0), [GradedElement({(("x", 5),): 1}, 6)], P)


@pytest.mark.parametrize("gens, relations", [("xy", ["x*y"]), ("xyz", ["x*y", "y*z"])])
def test_coequalizer_chain_on_quotients(gens, relations):
    P = AlgebraPresentation(list(gens), relations, 5)
    report = check_coequalizer_chain(P, [1, 2, 4])
    assert all_pass(report["checks"])
    assert len(report["checks"]) == 6
    for check, dim in zip(report["checks"], P.dims()):
        assert check["detail"]["dim"] == dim
        assert check["detail"]["rank"] == 2 * dim
