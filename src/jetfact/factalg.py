"""Disk-indexed tensor sections and their structure maps.

A basis open set is a finite disjoint union of disks; the space attached
to it is the tensor power of the coefficient algebra, one factor per disk,
with the empty union carrying the scalars.  Sections are stored fully
expanded over monomial tensors in a canonical disk order, so equality is
decidable.  Corestriction along an inclusion of basis sets multiplies the
factors that land in a common target disk; multiplication for a disjoint
pair is concatenation followed by corestriction.  The isometry group acts
on a section by moving the disks and applying the translation-rotation
flow to every factor.

Corestriction, evaluation, the isometry action and algebra morphisms are
one pushforward, _expand, from each monomial-tensor key to a list of
factors.  TensorSection() puts outside keys in canonical form (factors
sorted, keys with a factor above the bound dropped as zero, equal keys
summed) and TensorSection.simple refuses factors of another bound, so
internal results are wrapped by the trusted TensorSection._make.  The
gluing check memoises each corestriction by (value, disk, disk).

Evaluation on more general supported opens (finite unions of connected
finite disk unions) collapses each connected region to a single tensor
factor, which is what local constancy forces.  Membership of a section
disk in a region is decided by containment in a single disk of the
region, the decidable sufficient condition consistent with the rest of
the exact geometry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product as iproduct

from .diskgeom import (
    BasisElement,
    Disk,
    GroupElement,
    act,
    connected_components,
    contains,
    decompose,
    disjoint,
)
from .grading import GradedElement, format_monomial, normalize_monomial
from .jetalg import AlgebraHom, AlgebraPresentation, Echelon
from .reports import SampledChecks, check_entry
from .sampling import Sampler
from .scalars import Scalar
from .vertex import VertexAlgebra, completion_rotation, completion_translation
from ._kernels import lc_add, lc_scale, mono_mul, mono_weight

__all__ = [
    "TensorSection",
    "SupportedOpen",
    "Evaluation",
    "FAMorphism",
    "corestrict",
    "multiply_sections",
    "tensor_concat",
    "evaluate",
    "mu_l",
    "mu_l_via_placement",
    "equivariant_act",
    "adjunction_theta",
    "adjunction_theta_prime",
    "check_pfa_axioms",
    "check_coequalizer_chain",
    "is_weiss_cover",
]


class TensorSection:
    """Element of the tensor power attached to a disjoint union of disks.

    data maps tuples of monomials (one per disk of L, in canonical disk
    order) to nonzero scalars; for the empty union the single key is ().
    Equality and hashing read L and data, not the presentation P: like
    GradedElement's, they compare the section's terms, and every check
    compares sections of one presentation.  Arithmetic across presentations
    is still refused (see __add__).
    """

    __slots__ = ("L", "P", "data")

    def __init__(self, L: BasisElement, P: AlgebraPresentation, data: dict):
        self.L = L
        self.P = P
        clean = {}
        for key, coeff in data.items():
            if len(key) != len(L):
                raise ValueError("tensor key length does not match disk count")
            key = tuple(normalize_monomial(m) for m in key)
            # A factor above the bound is zero, and so is its tensor.
            if any(mono_weight(m) > P.wmax for m in key):
                continue
            clean[key] = clean.get(key, Scalar(0)) + Scalar.coerce(coeff)
        self.data = {key: c for key, c in clean.items() if c}

    @classmethod
    def _make(cls, L: BasisElement, P: AlgebraPresentation, data: dict) -> "TensorSection":
        """Wrap data that is already clean (tuple keys of length len(L),
        nonzero Scalars) without re-validating; for internal results."""
        self = object.__new__(cls)
        self.L = L
        self.P = P
        self.data = data
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def simple(cls, L: BasisElement, factors, P, coeff=Scalar(1)) -> "TensorSection":
        """Simple tensor with factors aligned to the canonical disks of L."""
        factors = list(factors)
        if len(factors) != len(L):
            raise ValueError("factor count does not match disk count")
        if any(f.wmax != P.wmax for f in factors):
            raise ValueError("factor truncation bound does not match the presentation")
        data = {}
        _accumulate_expansion(data, factors, Scalar.coerce(coeff))
        return cls._make(L, P, data)

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
        return TensorSection._make(self.L, self.P, lc_add(self.data, other.data))

    def scale(self, coeff) -> "TensorSection":
        return TensorSection._make(self.L, self.P, lc_scale(self.data, Scalar.coerce(coeff)))

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def __eq__(self, other):
        if not isinstance(other, TensorSection):
            return NotImplemented
        return self.L == other.L and self.data == other.data

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


def _group_product(P, key, index_lists):
    """Per target slot, the reduced product of the monomials at the given
    indices; grouped monomials merge first, so reductions are cached."""
    out = []
    for idxs in index_lists:
        merged = ()
        for i in idxs:
            merged = mono_mul(merged, key[i])
        out.append(P.reduce_monomial(merged))
    return out


def _accumulate_expansion(data: dict, factors, coeff) -> None:
    """Add coeff times the monomial expansion of a simple tensor to data."""
    for combo in iproduct(*[f.data.items() for f in factors]):
        key = tuple(m for m, _ in combo)
        c = coeff
        for _, fc in combo:
            c = c * fc
        if not c:
            continue
        acc = data.get(key)
        nc = c if acc is None else acc + c
        if nc:
            data[key] = nc
        elif acc is not None:
            del data[key]


def _expand(s: TensorSection, factors_of) -> dict:
    """Pushforward of a section's data: the sum over its keys of the
    coefficient times the expansion of the simple tensor factors_of(key)."""
    data = {}
    for key, coeff in s.data.items():
        _accumulate_expansion(data, factors_of(key), coeff)
    return data


def corestrict(s: TensorSection, M: BasisElement) -> TensorSection:
    """Push a section along an inclusion of basis opens.

    Factors whose disks land in a common disk of M are multiplied; target
    disks containing nothing receive the unit.
    """
    index_lists = decompose(s.L, M)
    data = _expand(s, lambda key: _group_product(s.P, key, index_lists))
    return TensorSection._make(M, s.P, data)


def tensor_concat(s: TensorSection, t: TensorSection) -> TensorSection:
    """The section s (x) t on the disjoint union of the two basis opens.

    This is the multiplication into exactly the union, which is bijective
    at the basis level; corestrict further to reach a larger open.
    """
    if s.P != t.P:
        raise ValueError("sections over different presentations")
    U = s.L.union(t.L)
    disk_src = {}
    for i, d in enumerate(s.L):
        disk_src[d] = ("s", i)
    for i, d in enumerate(t.L):
        disk_src[d] = ("t", i)
    slots = [disk_src[d] for d in U]
    # Keys are injective in (k1, k2) and c1 * c2 is never zero: no merging.
    data = {
        tuple(k1[i] if side == "s" else k2[i] for side, i in slots): c1 * c2
        for k1, c1 in s.data.items()
        for k2, c2 in t.data.items()
    }
    return TensorSection._make(U, s.P, data)


def multiply_sections(s: TensorSection, t: TensorSection, N: BasisElement) -> TensorSection:
    """Structure multiplication: concatenate the disjoint pair, then corestrict."""
    return corestrict(tensor_concat(s, t), N)


class SupportedOpen:
    """Finite list of pairwise disjoint connected regions, each a finite
    union of disks; the shape of open set on which evaluation is defined."""

    def __init__(self, regions):
        cleaned = []
        for region in regions:
            disks = tuple(region)
            if not disks:
                raise ValueError("regions must contain at least one disk")
            if len(connected_components(disks)) != 1:
                raise ValueError("region is not connected")
            cleaned.append(disks)
        for i in range(len(cleaned)):
            for j in range(i + 1, len(cleaned)):
                for d1 in cleaned[i]:
                    for d2 in cleaned[j]:
                        if not disjoint(d1, d2):
                            raise ValueError("regions overlap")
        self.regions = tuple(cleaned)

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


class Evaluation:
    """The value on a supported open: one tensor factor per region."""

    def __init__(self, P: AlgebraPresentation, U: SupportedOpen):
        self.P = P
        self.U = U
        self.region_count = len(U)

    def push(self, s: TensorSection) -> dict:
        """Canonical image of a basis section, as monomial-tensor data.

        Keys are tuples of monomials, one per region; factors landing in
        the same region are multiplied.
        """
        index_lists = [[] for _ in range(self.region_count)]
        for i, d in enumerate(s.L):
            j = self.U.region_of(d)
            if j is None:
                raise ValueError(f"disk {d} is not inside any region")
            index_lists[j].append(i)
        return _expand(s, lambda key: _group_product(self.P, key, index_lists))


def evaluate(P: AlgebraPresentation, U: SupportedOpen) -> Evaluation:
    """The value of the disk-basis structure on a supported open set."""
    return Evaluation(P, U)


def mu_l(P: AlgebraPresentation, elements) -> GradedElement:
    """The multi-fold product on the global sections, placement free."""
    return P.product(elements)


def mu_l_via_placement(P, elements, placement: BasisElement, ambient: Disk) -> GradedElement:
    """The same product computed through a concrete disjoint placement.

    Places the factors on the disks of the placement, corestricts into the
    ambient disk, and reads off the resulting element.  Placement
    independence says this agrees with mu_l for every admissible choice.
    """
    elements = list(elements)
    if len(elements) != len(placement):
        raise ValueError("need exactly one element per placement disk")
    section = TensorSection.simple(placement, elements, P)
    target = BasisElement([ambient])
    if not placement.subset_of(target):
        raise ValueError("placement does not sit inside the ambient disk")
    return corestrict(section, target).as_element()


def equivariant_act(g: GroupElement, s: TensorSection, V: VertexAlgebra) -> TensorSection:
    """Move a section by an isometry: disks by the point action, factors by
    the translation-rotation flow e^{tT} q^{L0}."""
    newL = BasisElement([act(g, d) for d in s.L])

    @cache
    def transform(mono):
        elem = GradedElement._make({mono: Scalar(1)}, s.P.wmax)
        return completion_translation(g.t, completion_rotation(g.q, elem, V), V)

    data = _expand(s, lambda key: [transform(key[i]) for i in newL.order])
    return TensorSection._make(newL, s.P, data)


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

        @cache
        def image(mono):
            return self.hom.apply(GradedElement._make({mono: Scalar(1)}, s.P.wmax))

        data = _expand(s, lambda key: [image(m) for m in key])
        return TensorSection._make(s.L, self.target, data)


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


def check_pfa_axioms(algebra, samples: int = 30, seed: int = 0, corrupt: bool = False) -> dict:
    """Sampled verification of the structure-map axioms.

    Covers precosheaf functoriality, compatibility of multiplication with
    corestriction, symmetry, the associativity square, the unit law, and
    the four equivariance conditions.  With corrupt=True the negative
    control runs a broken corestriction, which keeps only the first
    factor of a group, and reports pass when the harness catches it.
    """
    V = algebra if isinstance(algebra, VertexAlgebra) else VertexAlgebra(algebra)
    P = V.presentation
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
        tally.record("unit", ok)

        # Equivariance, on a two-disk section: the action works factor by
        # factor and the translation flow densifies elements, so small
        # configurations give full coverage at bounded expansion size.
        g1 = sampler.group_element()
        g2 = sampler.group_element()
        Le = sampler.disjoint_disks(2)
        se = _sample_section(sampler, Le, P)
        seq = equivariant_act(g1, equivariant_act(g2, se, V), V)
        tally.record(
            "equivariance_compose",
            seq == equivariant_act(g1.compose(g2), se, V),
            lambda: {"g1": repr(g1), "g2": repr(g2)},
        )
        tally.record(
            "equivariance_identity",
            equivariant_act(GroupElement.identity(), se, V) == se,
        )
        te = _sample_section(sampler, act(shift, Le), P)
        lhs = equivariant_act(g1, multiply_sections(se, te, big), V)
        rhs = multiply_sections(
            equivariant_act(g1, se, V),
            equivariant_act(g1, te, V),
            act(g1, big),
        )
        tally.record(
            "equivariance_multiplication", lhs == rhs, lambda: {"g": repr(g1)}
        )
        tally.record(
            "equivariance_unit",
            equivariant_act(g1, unit, V).as_scalar() == c,
        )

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
            broken = _expand(pair, lambda key: _group_product(P, key, [[0]]))
            tally.record("negative_control", broken != corestrict(pair, wbe).data)

    return {"checks": tally.entries(samples), "samples": samples, "seed": seed}


# -- coequalizer chains ------------------------------------------------------


def _exact_rank(rows) -> int:
    """Rank of a list of sparse Scalar rows (dicts keyed by column)."""
    echelon = Echelon()
    return sum(echelon.add(row) for row in rows)


def check_coequalizer_chain(P: AlgebraPresentation, radii, wmax=None) -> dict:
    """Exact gluing check on a nested chain of concentric disks.

    The chain (all disks centered at the origin, radii strictly
    increasing) covers its largest member and every pairwise intersection
    is again a chain disk, so the two arrows from the pairwise
    intersections and the projection to the top disk are computable inside
    the basis.  Per weight component the cokernel of (p - q) must map
    isomorphically onto the value on the top disk; this is verified by
    exact rank computations.
    """
    radii = [r for r in radii]
    if any(radii[i] >= radii[i + 1] for i in range(len(radii) - 1)):
        raise ValueError("radii must be strictly increasing")
    if not radii:
        raise ValueError("need at least one radius")
    wmax = P.wmax if wmax is None else wmax
    n = len(radii)
    opens = [BasisElement([Disk(Scalar(0), r)]) for r in radii]

    @cache
    def push(elem, i, j):
        """The corestriction of elem from disk i into disk j, computed
        through the section machinery; each (elem, i, j) is pushed once."""
        return corestrict(TensorSection.simple(opens[i], [elem], P), opens[j]).as_element()

    checks = []
    for delta in range(wmax + 1):
        basis = P.weight_basis(delta)
        d = len(basis)
        index = {m: k for k, m in enumerate(basis)}
        units = [GradedElement._make({m: Scalar(1)}, P.wmax) for m in basis]
        # pi is onto: composed with each inclusion it fixes every basis monomial.
        maps_ok = all(push(e, i, n - 1) == e for i in range(n) for e in units)
        # Disk i is the intersection of disks i < j, and the pair (j, i)
        # gives the negated row of (i, j): unordered pairs suffice.
        rows = []
        for i, j in combinations(range(n), 2):
            for e in units:
                p, q = push(e, i, i), push(e, i, j)
                # pi kills (p - q): both routes into the top disk agree.
                if push(p, i, n - 1) != push(q, j, n - 1):
                    maps_ok = False
                # The row of p - q; blocks i and j are disjoint column
                # ranges.  An image outside the weight-delta basis has none.
                if not p.data.keys() | q.data.keys() <= index.keys():
                    maps_ok = False
                    continue
                row = {i * d + index[m]: c for m, c in p.data.items()}
                row.update((j * d + index[m], -c) for m, c in q.data.items())
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
    return {"checks": checks, "radii": [str(r) for r in radii], "weights": wmax + 1}


def is_weiss_cover(cover, points) -> bool:
    """Whether every subset of at most three of the points lies in a single
    cover element.  cover is a list of BasisElements; points are exact
    Scalars assumed to lie in the covered set."""

    def inside(p, be: BasisElement) -> bool:
        return any(
            d.is_plane or (p - d.center).abs2() < d.radius * d.radius for d in be
        )

    for k in range(1, 4):
        for subset in combinations(points, k):
            if not any(all(inside(p, be) for p in subset) for be in cover):
                return False
    return True
