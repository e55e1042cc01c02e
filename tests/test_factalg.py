from fractions import Fraction
from itertools import product

import pytest

from jetfact import factalg
from jetfact._kernels import mono_mul
from jetfact.diskgeom import BasisElement, Disk, GroupElement, act, contains, decompose
from jetfact.errors import InputError
from jetfact.factalg import (
    FAMorphism,
    SupportedOpen,
    TensorSection,
    _sample_section,
    adjunction_theta,
    adjunction_theta_prime,
    check_adjunction,
    check_coequalizer_chain,
    check_pfa_axioms,
    corestrict,
    equivariant_act,
    evaluate,
    mu_l_via_placement,
    multiply_sections,
    tensor_concat,
)
from jetfact.grading import GradedElement
from jetfact.jetalg import AlgebraHom, AlgebraPresentation, lift_hom
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
    assert len(U) == 1
    a = free_x.gen("x")
    s = TensorSection.simple(small_disks(0), [a], free_x)
    assert evaluate(s, U) == {((("x", 0),),): Scalar(1)}


def test_evaluate_overlapping_region(free_x):
    U = SupportedOpen([[D(0, 2), D(1, 2)]])
    assert len(U) == 1
    a = free_x.gen("x")
    left = evaluate(TensorSection.simple(small_disks(0), [a], free_x), U)
    right = evaluate(TensorSection.simple(small_disks(1), [a], free_x), U)
    assert left == right  # both land in the same factor
    # Two disks of the section multiply into the single region factor.
    both = evaluate(TensorSection.simple(small_disks(0, 1), [a, a], free_x), U)
    assert both == {((("x", 0), ("x", 0)),): Scalar(1)}


def test_evaluate_reduces_in_the_section_presentation(quot_x2):
    # x0 on two disks of one region multiply to x0*x0, zero in x | x*x.
    U = SupportedOpen([[D(0, 2), D(1, 2)]])
    a = quot_x2.gen("x")
    assert evaluate(TensorSection.simple(small_disks(0, 1), [a, a], quot_x2), U) == {}


def test_evaluate_plane_region(free_x):
    U = SupportedOpen([[Disk(Scalar(0), None)]])
    assert len(U) == 1
    s = TensorSection.simple(small_disks(0, 100), [free_x.gen("x")] * 2, free_x)
    assert evaluate(s, U) == {((("x", 0), ("x", 0)),): Scalar(1)}


def test_evaluate_errors(free_x):
    U = SupportedOpen([[D(0, 1)]])
    outside = TensorSection.simple(small_disks(10), [free_x.gen("x")], free_x)
    with pytest.raises(ValueError):
        evaluate(outside, U)
    with pytest.raises(ValueError, match="region is not connected"):
        SupportedOpen([[D(0, 1), D(5, 1)]])
    with pytest.raises(ValueError, match="regions overlap"):
        SupportedOpen([[D(0, 1)], [D(1, 1)]])
    with pytest.raises(ValueError, match="regions overlap"):
        SupportedOpen([[D(0, 1)], [D(5, 1)], [D(1, 1)]])  # only regions 0 and 2
    with pytest.raises(ValueError, match="regions overlap"):
        # The first region is joined only through the second.
        SupportedOpen([[D(0, 1), D(3, 1)], [D(Fraction(3, 2), 1)]])
    with pytest.raises(ValueError):
        SupportedOpen([[]])


def test_mu_l_examples(free_x):
    a, b, c = free_x.gen("x"), free_x.gen("x", 1), free_x.gen("x", 2)
    assert free_x.product([a, b]) == free_x.multiply(a, b)
    assert free_x.product([a]) == a
    assert free_x.product([a, b, c]) == free_x.product([free_x.product([a, b]), c])


def test_mu_l_placement_refuses_a_disk_outside_the_ambient(free_x):
    placement = BasisElement([D(0, 1), D(5, 1)])
    x = free_x.gen("x")
    with pytest.raises(ValueError, match="not covered"):
        mu_l_via_placement(free_x, [x, x], placement, D(0, 2))


def test_mu_l_placement_independence(free_x):
    s = Sampler(13)
    for _ in range(20):
        l = s.rng.randint(1, 4)
        elems = [s.element(free_x, max_terms=2) for _ in range(l)]
        direct = free_x.product(elems)
        for _ in range(2):
            placement = s.disjoint_disks(l)
            ambient = D(0, 64)
            assert mu_l_via_placement(free_x, elems, placement, ambient) == direct


def test_equivariant_act_examples(vx, free_x):
    x = free_x.gen("x")
    L = small_disks(0)
    s = TensorSection.simple(L, [x], free_x)
    assert equivariant_act(GroupElement.identity(), s) == s

    z = Scalar(Fraction(1, 2))
    moved = equivariant_act(GroupElement(Scalar(1), z), s)
    assert moved.L == BasisElement([D(z, Fraction(1, 4))])
    assert moved.as_element() == completion_translation(z, x, vx)


def test_equivariant_act_composition(free_x):
    s = Sampler(17)
    for _ in range(10):
        L = s.disjoint_disks(2)
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(2)], free_x
        )
        g1, g2 = s.group_element(), s.group_element()
        assert equivariant_act(g1, equivariant_act(g2, sec)) == equivariant_act(
            g1.compose(g2), sec
        )


@pytest.mark.parametrize("seed", range(6))
def test_equivariant_act_is_the_per_factor_composition(vxy, seed):
    # One flow per group element against the two flows per factor.
    P = vxy.presentation
    s = Sampler(seed)
    sec = _sample_section(s, s.disjoint_disks(3), P)
    for _ in range(4):
        g = s.group_element()
        order = BasisElement([act(g, d) for d in sec.L]).order

        def per_factor(f):
            return completion_translation(g.t, completion_rotation(g.q, f, vxy), vxy)

        expected = [(c, tuple(per_factor(factors[i]) for i in order)) for c, factors in sec.terms]
        moved = equivariant_act(g, sec)
        assert moved.terms == expected
        assert moved.L == act(g, sec.L)


def test_equivariant_act_moves_factors_by_the_sections_own_flow():
    # On y = x*x the free flow of a normal form is not a normal form: the
    # action must use the flow of the section's presentation.
    P = AlgebraPresentation(["x", "y"], ["y - x*x"], 6)
    V = VertexAlgebra(P)
    s = Sampler(61)
    disk = BasisElement([D(0, Fraction(1, 4))])
    sections = [
        TensorSection.simple(disk, [GradedElement({m: 1}, 6)], P) for m in P.basis_monomials()
    ]
    sections += [_sample_section(s, s.disjoint_disks(2), P) for _ in range(6)]
    moves = [GroupElement(Scalar(1), Scalar(1))] + [s.group_element() for _ in range(3)]
    for g in moves:

        def per_factor(f):
            return completion_translation(g.t, completion_rotation(g.q, f, V), V)

        for sec in sections:
            moved = equivariant_act(g, sec)
            assert all(P.normal_form(f) == f for _, factors in moved.terms for f in factors)
            order = BasisElement([act(g, d) for d in sec.L]).order
            expected = [(c, tuple(per_factor(fs[i]) for i in order)) for c, fs in sec.terms]
            assert moved.terms == expected


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
    s = Sampler(23)
    for _ in range(10):
        L = s.disjoint_disks(2)
        sec = TensorSection.simple(
            L, [s.element(free_x, max_terms=2) for _ in range(2)], free_x
        )
        g = s.group_element()
        assert phi.apply(equivariant_act(g, sec)) == equivariant_act(g, phi.apply(sec))


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
            hom = AlgebraHom(
                free_x,
                tgt,
                {
                    var: completion_rotation(q, img, V_tgt)
                    for var, img in hom.variable_items()
                },
            )
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


def test_check_adjunction_refuses_relations(quot_xy):
    with pytest.raises(InputError, match="x0\\*y0"):
        check_adjunction(quot_xy, samples=1)


@pytest.mark.parametrize("name", ["free_x", "free_xy"])
def test_check_adjunction_passes_both_round_trips(name, request):
    report = check_adjunction(request.getfixturevalue(name), samples=4, seed=3)
    assert report["checks"] == [
        {"name": n, "status": "pass", "detail": {"passed": 4, "samples": 4}}
        for n in ("extract_after_wrap", "wrap_after_extract")
    ]


def test_pfa_axiom_suite(vx):
    report = check_pfa_axioms(vx.presentation, samples=10, seed=0)
    assert all_pass(report["checks"])


def test_pfa_axiom_suite_quotient(vxy):
    report = check_pfa_axioms(vxy.presentation, samples=6, seed=1)
    assert all_pass(report["checks"])


def test_pfa_negative_control(vx):
    report = check_pfa_axioms(vx.presentation, samples=4, seed=0, corrupt=True)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["negative_control"]["status"] == "pass"


def test_pfa_negative_control_quotient(vxy):
    # The broken corestriction keeps one factor of x0 (x) x0; x0*x0 is not
    # a relation of x,y | x*y, so the harness must still tell them apart.
    report = check_pfa_axioms(vxy.presentation, samples=2, seed=0, corrupt=True)
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
    for radii in [[], [0, 1], [2, 1], [1, 1]]:
        with pytest.raises(InputError, match="strictly increasing") as err:
            check_coequalizer_chain(free_x, radii)
        assert str(err.value).endswith(f"got {radii}")


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


def test_section_input_is_read_in_normal_form(quot_xy):
    # The key y0*x0 is zero in the quotient, so the section is 2*x1 alone,
    # and scaling by one and the identity action leave it equal.
    L = small_disks(0)
    s = TensorSection(L, quot_xy, {((("y", 0), ("x", 0)),): 1, ((("x", 1),),): 2})
    assert s == TensorSection(L, quot_xy, {((("x", 1),),): 2})
    assert s == s.scale(1)
    assert equivariant_act(GroupElement.identity(), s) == s
    # A factor given outside normal form is reduced too, so a lone factor
    # that corestriction passes through unmultiplied is still reduced.
    xy = TensorSection.simple(L, [GradedElement({(("x", 0), ("y", 0)): 1}, 6)], quot_xy)
    assert not xy and not corestrict(xy, BasisElement([D(0, 2)]))


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


def test_section_input_with_an_undeclared_generator_is_refused(free_x):
    L = small_disks(0)
    y0 = GradedElement.generator("y", 0, free_x.wmax)
    with pytest.raises(ValueError):
        TensorSection.simple(L, [y0], free_x)
    with pytest.raises(ValueError):
        TensorSection(L, free_x, {((("y", 0),),): 1})
    # A key with one declared and one undeclared factor is refused too.
    with pytest.raises(ValueError):
        TensorSection(L, free_x, {((("x", 0), ("y", 0)),): 1})


@pytest.mark.parametrize("gens, relations", [("xy", ["x*y"]), ("xyz", ["x*y", "y*z"])])
def test_coequalizer_chain_on_quotients(gens, relations):
    P = AlgebraPresentation(list(gens), relations, 5)
    report = check_coequalizer_chain(P, [1, 2, 4])
    assert all_pass(report["checks"])
    assert len(report["checks"]) == 6
    for check, dim in zip(report["checks"], P.dims()):
        assert check["detail"]["dim"] == dim
        assert check["detail"]["rank"] == 2 * dim


@pytest.mark.parametrize(
    "gens, relations", [("x", []), ("xyz", ["x*y", "y*z"])], ids=["free x", "x,y,z | xy; yz"]
)
def test_coequalizer_chain_pushes_each_block_once(monkeypatch, gens, relations):
    # Three radii make 12 block routes per weight: each disk's block into
    # every disk that holds it (6: itself, and the larger disk of each of
    # its pairs, the top disk among them), and each of those on to the
    # top.  Each is one corestriction of the weight's whole block; the
    # onto block of a lower disk is its pair block with the top disk, and
    # the top disk's own block is its onto block, so neither is repeated.
    calls = []

    def counted(s, M):
        calls.append(len(s.terms))
        return corestrict(s, M)

    monkeypatch.setattr(factalg, "corestrict", counted)
    P = AlgebraPresentation(list(gens), relations, 5)
    report = check_coequalizer_chain(P, [1, 2, 4])
    assert all_pass(report["checks"])
    assert len(calls) == 72
    assert sorted(calls) == sorted(d for d in P.dims() for _ in range(12))


# -- the factored structure maps against a key-by-key expansion ---------------
#
# The reference keeps a section as its expanded monomial-tensor data and
# pushes each key forward on its own: the monomials of a group merge by
# mono_mul and reduce by reduce_monomial, and a flow or a morphism moves
# one monomial at a time.


def _ref_expand(data, factors_of) -> dict:
    out = {}
    for key, coeff in data.items():
        for combo in product(*[f.data.items() for f in factors_of(key)]):
            c = coeff
            for _, fc in combo:
                c = c * fc
            k = tuple(m for m, _ in combo)
            out[k] = out.get(k, Scalar(0)) + c
    return {k: c for k, c in out.items() if c}


def _ref_group(P, index_lists):
    def factors_of(key):
        out = []
        for idxs in index_lists:
            merged = ()
            for i in idxs:
                merged = mono_mul(merged, key[i])
            out.append(P.reduce_monomial(merged))
        return out

    return factors_of


def _ref_corestrict(s, M) -> dict:
    return _ref_expand(s.data, _ref_group(s.P, decompose(s.L, M)))


def _ref_concat(s, t) -> dict:
    order = s.L.union(t.L).order
    return {
        tuple(map((k1 + k2).__getitem__, order)): c1 * c2
        for k1, c1 in s.data.items()
        for k2, c2 in t.data.items()
    }


def _ref_act(g, s, V) -> dict:
    order = BasisElement([act(g, d) for d in s.L]).order

    def move(m):
        elem = GradedElement._make({m: Scalar(1)}, s.P.wmax)
        return completion_translation(g.t, completion_rotation(g.q, elem, V), V)

    return _ref_expand(s.data, lambda key: [move(key[i]) for i in order])


def _ref_apply(hom, s) -> dict:
    def image(m):
        return hom.apply(GradedElement._make({m: Scalar(1)}, s.P.wmax))

    return _ref_expand(s.data, lambda key: [image(m) for m in key])


@pytest.mark.parametrize(
    "gens, rels, wmax, target, images",
    [
        (["x"], [], 6, (["u"], []), {"x": "u*u + d(u)"}),
        # x*y maps to 6*x*y, zero in the quotient.
        (["x", "y"], ["x*y"], 5, (["x", "y"], ["x*y"]), {"x": "2*x", "y": "3*y"}),
    ],
    ids=["free x W=6", "x,y | x*y W=5"],
)
def test_factored_maps_match_the_key_by_key_expansion(gens, rels, wmax, target, images):
    P = AlgebraPresentation(gens, rels, wmax)
    V = VertexAlgebra(P)
    tgt = AlgebraPresentation(*target, wmax)
    hom = lift_hom({g: tgt.parse(e) for g, e in images.items()}, P, tgt)
    phi = FAMorphism(hom)
    N = BasisElement([D(0, 64)])
    far = D(1000, 1)
    shift = GroupElement(Scalar(1), Scalar(1000))
    big = N.union(act(shift, N))
    for seed in range(40):
        # The shapes of check_pfa_axioms: one or two outer disks with one or
        # two sample disks each, and two disks for the flow, whose factors
        # come out dense.
        sampler = Sampler(seed)
        counts = [sampler.rng.randint(1, 2) for _ in range(sampler.rng.randint(1, 2))]
        L, M = sampler.nested_config(len(counts), counts)
        s = _sample_section(sampler, L, P)
        t = _sample_section(sampler, act(shift, L), P)
        # Targets with a disk that receives nothing get the unit there.
        for target in (M, N, M.union(BasisElement([far])), BasisElement([far]).union(N)):
            assert corestrict(s, target).data == _ref_corestrict(s, target)
        assert tensor_concat(s, t).data == _ref_concat(s, t)
        assert tensor_concat(t, s).data == _ref_concat(t, s)
        joint = TensorSection(L.union(t.L), P, _ref_concat(s, t))
        assert multiply_sections(s, t, big).data == _ref_corestrict(joint, big)
        assert phi.apply(s).data == _ref_apply(hom, s)
        regions = SupportedOpen([[d] for d in M] + [[far]])
        index_lists = [[i for i, d in enumerate(L) if contains(d, m)] for m in M] + [[]]
        assert evaluate(s, regions) == _ref_expand(s.data, _ref_group(P, index_lists))

        g = sampler.group_element()
        se = _sample_section(sampler, sampler.disjoint_disks(2), P)
        moved = equivariant_act(g, se)
        moved_data = _ref_act(g, se, V)
        assert moved.data == moved_data
        moved_ref = TensorSection(moved.L, P, moved_data)
        gN = act(g, N)
        assert corestrict(moved, gN).data == _ref_corestrict(moved_ref, gN)
        assert phi.apply(moved).data == _ref_apply(hom, moved_ref)


# -- cancellation in factored form ---------------------------------------------


def test_cancelling_terms_give_the_zero_section(quot_xy):
    s = _sample_section(Sampler(5), small_disks(0, 1, 2), quot_xy)
    assert s.terms
    assert not s - s
    assert s - s == TensorSection(s.L, quot_xy, {})
    assert s + s == s.scale(2) and hash(s + s) == hash(s.scale(2))


def test_term_lists_with_equal_expansions_are_equal(free_x):
    L = small_disks(0, 1)
    a, b, c = free_x.gen("x"), free_x.gen("x", 1), free_x.gen("x", 2)
    one = TensorSection.simple(L, [a + b, c], free_x)
    two = TensorSection.simple(L, [a, c], free_x) + TensorSection.simple(L, [b, c], free_x)
    assert len(one.terms) == 1 and len(two.terms) == 2
    assert one == two and hash(one) == hash(two)
    assert one.scale(Scalar(3)) == two + two.scale(Scalar(2))


def test_permuted_terms_are_equal_with_equal_hashes(free_x):
    L = small_disks(0, 1)
    a, b, c = free_x.gen("x"), free_x.gen("x", 1), free_x.gen("x", 2)
    s = TensorSection.simple(L, [a, b], free_x)
    t = TensorSection.simple(L, [c, a], free_x, Scalar(2, 1))
    u = TensorSection.simple(L, [b, c], free_x, Scalar(-1))
    one, two = s + t + u, u + s + t
    assert one.terms != two.terms
    assert one == two and hash(one) == hash(two)
    # s (x) t and t (x) s list the same terms in different orders.
    far = small_disks(10, 11)
    big = BasisElement([D(0, 4), D(10, 4)])
    v = TensorSection.simple(far, [b, c], free_x) + TensorSection.simple(far, [a, a], free_x)
    st, ts = multiply_sections(one, v, big), multiply_sections(v, one, big)
    assert st.terms != ts.terms
    assert st == ts and hash(st) == hash(ts)


def test_same_length_terms_with_one_difference_are_unequal(free_x):
    L = small_disks(0, 1)
    a, b, c = free_x.gen("x"), free_x.gen("x", 1), free_x.gen("x", 2)
    base = TensorSection.simple(L, [a, b], free_x) + TensorSection.simple(L, [c, a], free_x)
    other_factor = TensorSection.simple(L, [a, b], free_x) + TensorSection.simple(
        L, [c, b], free_x
    )
    other_coeff = TensorSection.simple(L, [a, b], free_x) + TensorSection.simple(
        L, [c, a], free_x, Scalar(0, 1)
    )
    for other in (other_factor, other_coeff):
        assert len(other.terms) == len(base.terms)
        assert base != other and other != base
    # Same terms on other disks.
    moved = TensorSection._make(small_disks(0, 2), free_x, list(base.terms))
    assert base != moved


def test_passing_pfa_check_expands_at_most_once_per_sample(free_x, monkeypatch):
    # Sections built from the same terms compare without expanding; the one
    # expansion left reads the scalar of the moved unit section.
    calls = []
    expansion = factalg._expansion

    def counted(terms):
        calls.append(terms)
        return expansion(terms)

    monkeypatch.setattr(factalg, "_expansion", counted)
    report = check_pfa_axioms(free_x, samples=5, seed=0)
    assert all_pass(report["checks"])
    assert len(calls) <= 5
