"""Disk-indexed tensor sections and their structure maps.

A basis open set is a finite disjoint union of disks; the space attached
to it is the tensor power of the coefficient algebra, one factor per disk,
with the empty union carrying the scalars.  A section is a sum of simple
tensors: each term is a coefficient and one normal-form factor per disk,
in the canonical disk order, and every structure map works on the terms.
Corestriction along an inclusion of basis sets multiplies the factors
that land in a common target disk through the product table (a lone
factor passes through, an empty group gives the unit); multiplication for
a disjoint pair concatenates the terms, then corestricts; the union of
the two disk lists checks only the pairs across them.  The isometry group
moves the disks, with no pair re-checked, and builds one
translation-rotation flow e^{tT} q^{L0} per group element, applied to
every factor; the flow is the section presentation's own
(AlgebraPresentation.flow), so no vertex structure is involved.
Equality reads the terms first: two sections on the same disks whose term
lists hold the same (coefficient, factors) terms in any order are equal.
Otherwise it is decided on the expansion over monomial tensors (data),
computed once per section when first read, from prefix products of each
term's factors; hashing and truth always read the expansion.

TensorSection() puts outside keys in canonical form (factors sorted and
read in normal form, keys with a factor above the bound dropped as zero,
equal keys summed) and refuses factors naming a generator outside the
presentation; TensorSection.simple refuses factors that are not elements
of the presentation.  Internal results are wrapped by the trusted
TensorSection._make.  The gluing check pushes each weight as whole
blocks, one section with a term per basis unit, so it makes one
corestriction per (weight, disk pair) route and reads the images term by
term.

evaluate(s, U) gives the value of a section on a more general supported
open (finite unions of connected finite disk unions): each connected
region collapses to a single tensor factor, which is what local constancy
forces, and the factors landing in one region are multiplied in the
section's own presentation.  Membership of a section disk in a region is
decided by containment in a single disk of the region, the decidable
sufficient condition consistent with the rest of the exact geometry.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

from .diskgeom import (
    BasisElement,
    Disk,
    GroupElement,
    act,
    connected_components,
    contains,
    decompose,
)
from .errors import InputError
from .grading import GradedElement, format_monomial, normalize_monomial
from .jetalg import AlgebraHom, AlgebraPresentation, lift_hom
from .reports import SampledChecks, check_entry
from .sampling import Sampler
from .scalars import ONE, Scalar, reduce_row
from ._kernels import lc_add_scaled, mono_weight

__all__ = [
    "TensorSection",
    "SupportedOpen",
    "FAMorphism",
    "corestrict",
    "multiply_sections",
    "tensor_concat",
    "evaluate",
    "mu_l_via_placement",
    "equivariant_act",
    "adjunction_theta",
    "adjunction_theta_prime",
    "check_pfa_axioms",
    "check_adjunction",
    "check_coequalizer_chain",
]


class TensorSection:
    """Element of the tensor power attached to a disjoint union of disks.

    terms is a list of (coeff, factors): a Scalar and a tuple of normal-form
    GradedElements, one per disk of L in canonical disk order; for the
    empty union factors is ().  Outside keys enter with each monomial read
    through P.reduce_monomial, so y0*x0 on x,y | x*y is zero.  data is the
    expansion of the terms, a map from tuples of monomials to nonzero
    scalars.  Equality and hashing read L and the terms, not the
    presentation P: like GradedElement's, they compare the section's terms,
    and every check compares sections of one presentation.  Equality first
    compares the term lists as multisets and reads data only when they
    differ; hashing reads data.  Arithmetic across presentations is still
    refused (see __add__).
    """

    __slots__ = ("L", "P", "terms", "_data")

    def __init__(self, L: BasisElement, P: AlgebraPresentation, data: dict):
        self.L = L
        self.P = P
        gens = set(P.generators)
        clean = {}
        for key, coeff in data.items():
            if len(key) != len(L):
                raise ValueError("tensor key length does not match disk count")
            key = tuple(normalize_monomial(m) for m in key)
            if any(g not in gens for m in key for g, _ in m):
                raise ValueError("tensor key uses undeclared generators")
            # A factor above the bound is zero, and so is its tensor.
            if any(mono_weight(m) > P.wmax for m in key):
                continue
            clean[key] = clean.get(key, Scalar(0)) + Scalar.coerce(coeff)
        self.terms = [(c, tuple(map(P.reduce_monomial, key))) for key, c in clean.items() if c]
        self._data = None

    @classmethod
    def _make(cls, L: BasisElement, P: AlgebraPresentation, terms: list) -> "TensorSection":
        """Wrap terms that are already clean (factor tuples of length
        len(L), each factor a normal form of P) without re-validating."""
        self = object.__new__(cls)
        self.L = L
        self.P = P
        self.terms = terms
        self._data = None
        return self

    @property
    def data(self) -> dict:
        """The canonical expansion over monomial tensors, computed once."""
        if self._data is None:
            self._data = _expansion(self.terms)
        return self._data

    # -- constructors -------------------------------------------------------

    @classmethod
    def simple(cls, L: BasisElement, factors, P, coeff=Scalar(1)) -> "TensorSection":
        """Simple tensor of the normal forms of factors, aligned to the
        canonical disks of L."""
        factors = tuple(map(P.normal_form, factors))
        if len(factors) != len(L):
            raise ValueError("factor count does not match disk count")
        return cls._make(L, P, [(Scalar.coerce(coeff), factors)])

    @classmethod
    def on_disks(cls, disks, factors, P) -> "TensorSection":
        """Simple tensor with factors aligned to the disk list as given.

        The disks are put in canonical order and the factors are permuted
        along with them, so sections built from reordered input normalize
        to the same value.
        """
        L = BasisElement(disks)
        factors = list(factors)
        if len(factors) != len(L):
            raise ValueError("factor count does not match disk count")
        return cls.simple(L, [factors[i] for i in L.order], P)

    @classmethod
    def unit_on_empty(cls, P: AlgebraPresentation, coeff=Scalar(1)) -> "TensorSection":
        return cls(BasisElement(), P, {(): Scalar.coerce(coeff)})

    # -- linear structure -------------------------------------------------------

    def __add__(self, other: "TensorSection") -> "TensorSection":
        if self.L != other.L or self.P != other.P:
            raise ValueError("sections live on different basis opens")
        return TensorSection._make(self.L, self.P, self.terms + other.terms)

    def scale(self, coeff) -> "TensorSection":
        coeff = Scalar.coerce(coeff)
        return TensorSection._make(self.L, self.P, [(coeff * c, f) for c, f in self.terms])

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def __eq__(self, other):
        """Equal disks and equal expansions.  Term lists that hold the same
        terms, in any order, have equal expansions, so they decide without
        expanding; any other pair compares data."""
        if not isinstance(other, TensorSection):
            return NotImplemented
        if self.L != other.L:
            return False
        mine, theirs = self.terms, other.terms
        if len(mine) == len(theirs) and (mine == theirs or Counter(mine) == Counter(theirs)):
            return True
        return self.data == other.data

    def __hash__(self):
        return hash((self.L, frozenset(self.data.items())))

    def __bool__(self):
        return bool(self.data)

    def __repr__(self):
        terms = []
        for key, c in sorted(self.data.items()):
            body = " (x) ".join(format_monomial(m) for m in key) if key else "1"
            terms.append(f"{c}*[{body}]")
        return f"<Section on {len(self.L)} disks: {' + '.join(terms) or '0'}>"

    def as_element(self) -> GradedElement:
        """The underlying algebra element of a single-disk section."""
        if len(self.L) != 1:
            raise ValueError("as_element requires a single-disk section")
        return GradedElement._make({key[0]: c for key, c in self.data.items()}, self.P.wmax)

    def as_scalar(self) -> Scalar:
        """The underlying scalar of a section on the empty set."""
        if len(self.L) != 0:
            raise ValueError("as_scalar requires the empty basis open")
        return self.data.get((), Scalar(0))


def _expansion(terms) -> dict:
    """The sum over terms of the coefficient times the monomial expansion
    of the simple tensor of the factors, zero sums dropped.

    A term's expansion is built factor by factor from prefix products, so
    each partial coefficient is multiplied once; its keys are distinct, and
    it is added with lc_add_scaled.
    """
    data = {}
    for coeff, factors in terms:
        partial = {(): coeff} if coeff else {}
        for f in factors:
            items = f.data.items()
            partial = {key + (m,): c * fc for key, c in partial.items() for m, fc in items}
        lc_add_scaled(data, ONE, partial)
    return data


def _group_product(P, factors, index_lists) -> tuple:
    """Per target slot, the product in P of the factors at the given
    indices, by the product table: a lone factor passes through and an
    empty group gives the unit."""
    out = []
    for idxs in index_lists:
        if not idxs:
            out.append(P.reduce_monomial(()))
            continue
        f = factors[idxs[0]]
        for i in idxs[1:]:
            f = GradedElement._make(P.product_rows(f.data, factors[i].data), P.wmax)
        out.append(f)
    return tuple(out)


def _grouped_terms(s: TensorSection, index_lists) -> list:
    """The terms of s with the factors of each index group multiplied."""
    return [(c, _group_product(s.P, factors, index_lists)) for c, factors in s.terms]


def corestrict(s: TensorSection, M: BasisElement) -> TensorSection:
    """Push a section along an inclusion of basis opens.

    Factors whose disks land in a common disk of M are multiplied; target
    disks containing nothing receive the unit.
    """
    return TensorSection._make(M, s.P, _grouped_terms(s, decompose(s.L, M)))


def tensor_concat(s: TensorSection, t: TensorSection) -> TensorSection:
    """The section s (x) t on the disjoint union of the two basis opens.

    This is the multiplication into exactly the union, which is bijective
    at the basis level; corestrict further to reach a larger open.
    """
    if s.P != t.P:
        raise ValueError("sections over different presentations")
    U = s.L.union(t.L)
    # U.order[j] is the index of U's j-th disk in s.L.disks + t.L.disks.
    terms = [
        (c1 * c2, tuple(map((f1 + f2).__getitem__, U.order)))
        for c1, f1 in s.terms
        for c2, f2 in t.terms
    ]
    return TensorSection._make(U, s.P, terms)


def multiply_sections(s: TensorSection, t: TensorSection, N: BasisElement) -> TensorSection:
    """Structure multiplication: concatenate the disjoint pair, then corestrict."""
    return corestrict(tensor_concat(s, t), N)


class SupportedOpen:
    """Finite list of pairwise disjoint connected regions, each a finite
    union of disks; the shape of open set on which evaluation is defined.
    The regions are valid exactly when they are the overlap components of
    all their disks."""

    def __init__(self, regions):
        regions = tuple(map(tuple, regions))
        if not all(regions):
            raise ValueError("regions must contain at least one disk")
        owner = [j for j, region in enumerate(regions) for _ in region]
        components = connected_components([d for region in regions for d in region])
        if any(owner[i] != owner[c[0]] for c in components for i in c):
            raise ValueError("regions overlap")
        if len(components) > len(regions):
            raise ValueError("region is not connected")
        self.regions = regions

    def __len__(self):
        return len(self.regions)

    def region_of(self, d: Disk):
        """Index of the region containing the disk, or None."""
        for j, region in enumerate(self.regions):
            if any(contains(d, rd) for rd in region):
                return j
        return None

    @classmethod
    def from_json(cls, docs) -> "SupportedOpen":
        return cls([[Disk.from_json(d) for d in region] for region in docs])


def evaluate(s: TensorSection, U: SupportedOpen) -> dict:
    """The value of a basis section on a supported open set, as
    monomial-tensor data.

    Keys are tuples of monomials, one per region of U; the factors landing
    in the same region are multiplied and reduced in s.P.
    """
    index_lists = [[] for _ in range(len(U))]
    for i, d in enumerate(s.L):
        j = U.region_of(d)
        if j is None:
            raise ValueError(f"disk {d} is not inside any region")
        index_lists[j].append(i)
    return _expansion(_grouped_terms(s, index_lists))


def mu_l_via_placement(P, elements, placement: BasisElement, ambient: Disk) -> GradedElement:
    """The multi-fold product computed through a concrete disjoint placement.

    Places the factors on the disks of the placement, corestricts into the
    ambient disk, and reads off the resulting element.  Placement
    independence says this agrees with the placement-free P.product for
    every admissible choice.  The section refuses a wrong element count
    and the corestriction a placement disk outside the ambient disk.
    """
    section = TensorSection.simple(placement, elements, P)
    return corestrict(section, BasisElement([ambient])).as_element()


def equivariant_act(g: GroupElement, s: TensorSection) -> TensorSection:
    """Move a section by an isometry: disks by the point action, factors by
    the translation-rotation flow e^{tT} q^{L0} of the section's own
    presentation, made once for g."""
    newL = act(g, s.L)
    move = s.P.flow(g.q, g.t)
    terms = [(c, tuple(move(factors[i]) for i in newL.order)) for c, factors in s.terms]
    return TensorSection._make(newL, s.P, terms)


class FAMorphism:
    """Factor-wise action of an algebra morphism on sections."""

    def __init__(self, hom: AlgebraHom):
        self.hom = hom

    @property
    def source(self) -> AlgebraPresentation:
        return self.hom.source

    @property
    def target(self) -> AlgebraPresentation:
        return self.hom.target

    def apply(self, s: TensorSection) -> TensorSection:
        if s.P != self.source:
            raise ValueError("section is not over the morphism source")
        terms = [(c, tuple(map(self.hom.apply, factors))) for c, factors in s.terms]
        return TensorSection._make(s.L, self.target, terms)


def adjunction_theta(phi: FAMorphism) -> AlgebraHom:
    """Extract the algebra morphism underlying a morphism of disk structures.

    Evaluates the morphism on single-disk sections of every variable; by
    local constancy the disk does not matter, so a fixed unit disk at the
    origin is used.
    """
    P = phi.source
    disk = BasisElement([Disk(Scalar(0), 1)])
    images = {}
    for gen in P.generators:
        for order in range(P.wmax):
            section = TensorSection.simple(
                disk, [GradedElement.generator(gen, order, P.wmax)], P
            )
            images[(gen, order)] = phi.apply(section).as_element()
    return AlgebraHom(P, phi.target, images)


def adjunction_theta_prime(f: AlgebraHom) -> FAMorphism:
    """Promote an algebra morphism to the factor-wise morphism of sections."""
    return FAMorphism(f)


# -- axiom harness -----------------------------------------------------------


def _sample_section(sampler: Sampler, L: BasisElement, P) -> TensorSection:
    """A sum of two simple tensors with homogeneous single-monomial factors.

    Everything in the section layer is linear by construction, so sparse
    factors lose no generality and keep the expanded key count small.
    """

    def factors():
        return [sampler.homogeneous_element(P, max_terms=1) for _ in range(len(L))]

    return TensorSection.simple(L, factors(), P) + TensorSection.simple(
        L, factors(), P
    )


def check_pfa_axioms(P, samples: int = 30, seed: int = 0, corrupt: bool = False) -> dict:
    """Sampled verification of the structure-map axioms on sections over P.

    Covers precosheaf functoriality, compatibility of multiplication with
    corestriction, symmetry, the associativity square, the unit law, and
    the four equivariance conditions.  With corrupt=True the negative
    control runs a broken corestriction, which keeps only the first
    factor of a group, and reports pass when the harness catches it.
    """
    sampler = Sampler(seed)

    names = [
        "functoriality_chain",
        "functoriality_tensor",
        "symmetry",
        "associativity",
        "unit",
        "equivariance_compose",
        "equivariance_identity",
        "equivariance_multiplication",
        "equivariance_unit",
    ]
    if corrupt:
        names.append("negative_control")
    tally = SampledChecks(names)
    # N holds every sampled configuration; its far translate by shift is
    # disjoint from it, so big holds the products of disjoint pairs.
    N = BasisElement([Disk(Scalar(0), 64)])
    shift = GroupElement(Scalar(1), Scalar(1000))
    big = N.union(act(shift, N))

    for _ in range(samples):
        # Chain L inside M inside N of nested basis opens.
        counts = [sampler.rng.randint(1, 2) for _ in range(sampler.rng.randint(1, 2))]
        L, M = sampler.nested_config(len(counts), counts)
        s = _sample_section(sampler, L, P)

        via_m = corestrict(corestrict(s, M), N)
        direct = corestrict(s, N)
        tally.record(
            "functoriality_chain", via_m == direct, lambda: {"L": repr(L), "M": repr(M)}
        )

        # Tensor compatibility across a far-disjoint pair of targets.
        L2, M2 = act(shift, L), act(shift, M)
        t = _sample_section(sampler, L2, P)
        lhs = corestrict(tensor_concat(s, t), M.union(M2))
        rhs = tensor_concat(corestrict(s, M), corestrict(t, M2))
        tally.record("functoriality_tensor", lhs == rhs, lambda: {"L": repr(L)})

        # Symmetry: reordered construction and reversed multiplication agree.
        disks = list(L)
        factors = [sampler.homogeneous_element(P, max_terms=2) for _ in disks]
        perm = list(range(len(disks)))
        sampler.rng.shuffle(perm)
        direct = TensorSection.on_disks(disks, factors, P)
        permuted = TensorSection.on_disks(
            [disks[i] for i in perm], [factors[i] for i in perm], P
        )
        ok = direct == permuted
        ok = ok and multiply_sections(s, t, big) == multiply_sections(t, s, big)
        tally.record("symmetry", ok, lambda: {"perm": perm})

        # Associativity square on a jittered three-disk template.
        g = sampler.group_element()
        u_disks = [act(g, Disk(Scalar(3 * i), Fraction(1, 3))) for i in range(3)]
        v1 = act(g, Disk(Scalar(Fraction(3, 2)), Fraction(19, 5)))
        v2 = act(g, Disk(Scalar(Fraction(9, 2)), Fraction(19, 5)))
        w = act(g, Disk(Scalar(3), 12))
        s1, s2, s3 = (
            TensorSection.simple(
                BasisElement([d]), [sampler.element(P, max_terms=2)], P
            )
            for d in u_disks
        )
        wbe = BasisElement([w])
        left = multiply_sections(
            multiply_sections(s1, s2, BasisElement([v1])), s3, wbe
        )
        right = multiply_sections(
            s1, multiply_sections(s2, s3, BasisElement([v2])), wbe
        )
        straight = corestrict(tensor_concat(tensor_concat(s1, s2), s3), wbe)
        tally.record(
            "associativity",
            left == right == straight,
            lambda: {"left": repr(left), "right": repr(right)},
        )

        # Unit law.
        c = sampler.nonzero_scalar()
        unit = TensorSection.unit_on_empty(P, c)
        ok = multiply_sections(s, unit, N) == corestrict(s, N).scale(c)
        ok = ok and corestrict(unit, M) == TensorSection.simple(M, [P.unit()] * len(M), P, c)
        tally.record("unit", ok, lambda: {"c": str(c), "M": repr(M)})

        # Equivariance, on a two-disk section: the action works factor by
        # factor and the translation flow densifies elements, so small
        # configurations give full coverage at bounded expansion size.
        g1 = sampler.group_element()
        g2 = sampler.group_element()
        Le = sampler.disjoint_disks(2)
        se = _sample_section(sampler, Le, P)
        seq = equivariant_act(g1, equivariant_act(g2, se))
        tally.record(
            "equivariance_compose",
            seq == equivariant_act(g1.compose(g2), se),
            lambda: {"g1": repr(g1), "g2": repr(g2)},
        )
        ok = equivariant_act(GroupElement.identity(), se) == se
        tally.record("equivariance_identity", ok, lambda: {"section": repr(se)})
        te = _sample_section(sampler, act(shift, Le), P)
        lhs = equivariant_act(g1, multiply_sections(se, te, big))
        rhs = multiply_sections(equivariant_act(g1, se), equivariant_act(g1, te), act(g1, big))
        tally.record(
            "equivariance_multiplication", lhs == rhs, lambda: {"g": repr(g1)}
        )
        ok = equivariant_act(g1, unit).as_scalar() == c
        tally.record("equivariance_unit", ok, lambda: {"g": repr(g1), "c": str(c)})

        if corrupt:
            # Fixed generator factors so the dropped-factor corruption is
            # always visible: the group product differs from a lone factor.
            # The pair's two disks form the one group of wbe; keep factor 0.
            gname = P.generators[0]
            fixed = [
                TensorSection.simple(BasisElement([d]), [P.gen(gname)], P)
                for d in u_disks[:2]
            ]
            pair = tensor_concat(fixed[0], fixed[1])
            broken = TensorSection._make(wbe, P, _grouped_terms(pair, [[0]]))
            ok = broken != corestrict(pair, wbe)
            tally.record("negative_control", ok, lambda: {"pair": repr(pair)})

    return {"checks": tally.entries(samples)}


def check_adjunction(P: AlgebraPresentation, samples: int = 20, seed: int = 0) -> dict:
    """Sampled round trips of theta = adjunction_theta and theta' =
    adjunction_theta_prime on f: P -> C[u] lifted from random generator images
    f0: extract_after_wrap, theta(theta'(f)) = f on every variable;
    wrap_after_extract, theta'(theta(theta'(f))) = theta'(f) on a two-disk section.
    Random images almost never satisfy a relation: P must be free (InputError)."""
    if P.relations:
        raise InputError(f"adjunction needs a presentation without relations, got {P!r}")
    sampler = Sampler(seed)
    target = AlgebraPresentation(["u"], [], P.wmax)
    tally = SampledChecks(["extract_after_wrap", "wrap_after_extract"])
    for _ in range(samples):
        f0 = {g: sampler.element(target, max_terms=2) for g in P.generators}
        phi = adjunction_theta_prime(lift_hom(f0, P, target))
        extracted = adjunction_theta(phi)
        bad = [v for v, img in phi.hom.variable_items() if extracted.image_of_variable(*v) != img]
        tally.record(
            "extract_after_wrap",
            not bad,
            lambda: {"f0": {g: str(e) for g, e in f0.items()}, "variables": bad},
        )
        L = sampler.disjoint_disks(2)
        s = TensorSection.simple(L, [sampler.element(P, max_terms=2) for _ in range(2)], P)
        tally.record(
            "wrap_after_extract",
            adjunction_theta_prime(extracted).apply(s) == phi.apply(s),
            lambda: {"f0": {g: str(e) for g, e in f0.items()}, "section": repr(s)},
        )
    return {"checks": tally.entries(samples)}


# -- coequalizer chains ------------------------------------------------------


def _exact_rank(rows) -> int:
    """Rank of a list of sparse Scalar rows (dicts keyed by column).  The
    rows are left as given: a row that meets no pivot becomes one itself,
    uncopied."""
    pivots = {}
    for row in rows:
        row = reduce_row(row, pivots)
        if row:
            pivots[max(row)] = row
    return len(pivots)


def _block_images(s: TensorSection, d: int):
    """The images of a pushed block of d units, image k read from term k
    of s as c * f; None when s has not d terms."""
    if len(s.terms) != d:
        return None
    return [f if c is ONE else f.scale(c) for c, (f,) in s.terms]


def check_coequalizer_chain(P: AlgebraPresentation, radii, wmax=None) -> dict:
    """Exact gluing check on a nested chain of concentric disks.

    The chain (all disks centered at the origin, radii strictly
    increasing) covers its largest member and every pairwise intersection
    is again a chain disk, so the two arrows from the pairwise
    intersections and the projection to the top disk are computable inside
    the basis.  Per weight component the cokernel of (p - q) must map
    isomorphically onto the value on the top disk; this is verified by
    exact rank computations.  Other radii raise InputError, naming them.

    Each weight is pushed as whole blocks: one section per disk with one
    term (1, (unit,)) per basis unit, corestricted once per target disk,
    its images read term by term.  Block i goes into each disk j >= i and
    from there onto the top: j = i is the route through disk i itself,
    j = n - 1 the block onto the top disk, and j > i the pair (i, j).  A
    pushed block with a different term count fails the weight.
    """
    radii = list(radii)
    if not radii or radii[0] <= 0 or any(a >= b for a, b in zip(radii, radii[1:])):
        shown = ", ".join(map(str, radii))
        raise InputError(f"radii must be positive and strictly increasing, got [{shown}]")
    wmax = P.wmax if wmax is None else wmax
    n = len(radii)
    opens = [BasisElement([Disk(Scalar(0), r)]) for r in radii]
    top = opens[-1]

    checks = []
    for delta in range(wmax + 1):
        basis = P.weight_basis(delta)
        d = len(basis)
        index = {m: k for k, m in enumerate(basis)}
        units = [GradedElement._make({m: ONE}, P.wmax) for m in basis]
        terms = [(ONE, (e,)) for e in units]
        # pushed[i, j]: the images of block i in disk j >= i, and in the
        # top disk by way of disk j.
        pushed = {}
        for i, U in enumerate(opens):
            block = TensorSection._make(U, P, terms)
            for j in range(i, n):
                into = corestrict(block, opens[j])
                pushed[i, j] = _block_images(into, d), _block_images(corestrict(into, top), d)
        maps_ok = True
        for i in range(n):
            onto = pushed[i, n - 1][0]
            # pi is onto: composed with each inclusion it fixes every basis
            # unit, and the route through disk i itself changes nothing.
            maps_ok = maps_ok and onto == units and pushed[i, i][1] == onto
        # Disk i is the intersection of disks i < j, and the pair (j, i)
        # gives the negated row of (i, j): unordered pairs suffice.
        rows = []
        for i, j in combinations(range(n), 2):
            (p, own_top), (q, q_top) = pushed[i, i], pushed[i, j]
            # pi kills (p - q): both routes into the top disk agree.
            if None in (p, q, q_top) or own_top != q_top:
                maps_ok = False
            if p is None or q is None:
                continue
            for pk, qk in zip(p, q):
                # The row of p - q; blocks i and j are disjoint column
                # ranges.  An image outside the weight-delta basis has none.
                try:
                    row = {i * d + index[m]: c for m, c in pk.data.items()}
                    for m, c in qk.data.items():
                        row[j * d + index[m]] = -c
                except KeyError:
                    maps_ok = False
                    continue
                rows.append(row)

        rank = _exact_rank(rows)
        expected = (n - 1) * d
        coker = n * d - rank
        ok = maps_ok and rank == expected and coker == d
        checks.append(
            check_entry(
                f"weight_{delta}",
                ok,
                {"dim": d, "rank": rank, "expected_rank": expected, "cokernel": coker},
            )
        )
    return {"checks": checks}
