"""Exact geometry of open disks in the complex plane.

Disks have Gaussian-rational centers and rational radii (or the infinite
radius standing for the whole plane).  Every predicate compares a squared
distance with a squared radius after cross-multiplying out the
denominators, in integers read from the centers' scalar triples and the
radii's numerators and denominators: no square root is taken, no
`Fraction` is built, and all answers are exact.  Tangent open disks count
as disjoint: open disks that touch share no points.

Rotations are restricted to exact unit scalars (roots of unity in Q(i) and
Pythagorean points such as (3+4i)/5); together with arbitrary exact
translations these generate the isometries available to the equivariance
checkers.
"""

from __future__ import annotations

from math import lcm

from .errors import InputError
from .scalars import Scalar, frac

__all__ = [
    "Disk",
    "BasisElement",
    "GroupElement",
    "compare_distance",
    "contains",
    "disjoint",
    "decompose",
    "act",
    "connected_components",
]


class Disk:
    """Open disk with exact center and exact positive (or infinite) radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center, radius):
        if not isinstance(center, Scalar):
            center = Scalar.coerce(center)
        self.center = center
        if radius is None or radius == "inf":
            self.radius = None
        else:
            radius = frac(radius)
            if radius <= 0:
                raise ValueError("disk radius must be positive")
            self.radius = radius

    @property
    def is_plane(self) -> bool:
        return self.radius is None

    def __eq__(self, other):
        if not isinstance(other, Disk):
            return NotImplemented
        return self.center == other.center and self.radius == other.radius

    def __hash__(self):
        return hash((self.center, self.radius))

    def __repr__(self):
        r = "inf" if self.is_plane else str(self.radius)
        return f"D({self.center}; {r})"

    @classmethod
    def from_json(cls, doc: dict) -> "Disk":
        """The disk {"c": [re, im], "r": r}; r may be "inf".  A document of
        another shape, or a number that does not parse, is an InputError."""
        try:
            (re, im), r = doc["c"], doc["r"]
        except (KeyError, ValueError):
            raise InputError(f'a disk is {{"c": [re, im], "r": r}}, got {doc!r}') from None
        return cls(Scalar(frac(re), frac(im)), None if r == "inf" else frac(r))


def compare_distance(z: Scalar, w: Scalar, num: int, den: int) -> int:
    """An integer with the sign of |z - w|**2 - (num / den)**2, for den > 0.

    With z = (a + b*i) / d and w = (a' + b'*i) / d', the difference z - w
    is (x + y*i) / (d*d') for x = a*d' - a'*d and y = b*d' - b'*d, so the
    sign is that of (x**2 + y**2) * den**2 - num**2 * (d*d')**2.
    """
    a, b, d = z.triple()
    a2, b2, d2 = w.triple()
    x = a * d2 - a2 * d
    y = b * d2 - b2 * d
    dd = d * d2
    return (x * x + y * y) * den * den - num * num * dd * dd


def contains(inner: Disk, outer: Disk) -> bool:
    """Whether inner is a subset of outer, as open point sets."""
    if outer.is_plane:
        return True
    if inner.is_plane:
        return False
    p, q = outer.radius, inner.radius
    pd, qd = p.denominator, q.denominator
    gap = p.numerator * qd - q.numerator * pd
    if gap < 0:
        return False
    return compare_distance(inner.center, outer.center, gap, pd * qd) <= 0


def disjoint(d1: Disk, d2: Disk) -> bool:
    """Whether two open disks have empty intersection."""
    if d1.is_plane or d2.is_plane:
        return False
    p, q = d1.radius, d2.radius
    pd, qd = p.denominator, q.denominator
    total = p.numerator * qd + q.numerator * pd
    return compare_distance(d1.center, d2.center, total, pd * qd) >= 0


def _canonical_order(disks) -> list:
    """The indices of disks sorted by (re, im, is_plane, radius) of each disk.

    The centers are read as integers over one common denominator and the
    finite radii over another, so the keys are integers in the order of
    the rational ones and no Fraction is built.  The sort is stable.
    """
    if len(disks) < 2:
        return list(range(len(disks)))
    triples = [d.center.triple() for d in disks]
    cd = lcm(*(t[2] for t in triples))
    rd = lcm(*(d.radius.denominator for d in disks if d.radius is not None))
    keys = []
    for (a, b, d), disk in zip(triples, disks):
        s, r = cd // d, disk.radius
        radius = 0 if r is None else r.numerator * (rd // r.denominator)
        keys.append((a * s, b * s, r is None, radius))
    return sorted(range(len(disks)), key=keys.__getitem__)


class BasisElement:
    """A finite disjoint union of open disks, in canonical disk order.

    The empty list represents the empty set.  The disks are sorted
    lexicographically by center, then radius, with the plane after the
    finite disks of its center; order[j] is the index, in the input, of the
    j-th canonical disk.  BasisElement(disks) checks every pair of disks
    for disjointness.  union checks only the pairs across its two operands,
    whose own disks are disjoint already, and act checks none: an exact
    isometry keeps disjoint disks disjoint.  Only decompose decides
    inclusion in another basis element.
    """

    __slots__ = ("disks", "order")

    def __init__(self, disks=()):
        self._arrange(disks)
        for i in range(len(self.disks)):
            for j in range(i + 1, len(self.disks)):
                if not disjoint(self.disks[i], self.disks[j]):
                    raise ValueError(
                        f"disks overlap: {self.disks[i]} and {self.disks[j]}"
                    )

    def _arrange(self, disks):
        disks = tuple(disks)
        order = _canonical_order(disks)
        self.disks = tuple(disks[i] for i in order)
        self.order = tuple(order)

    @classmethod
    def _of_disjoint(cls, disks) -> "BasisElement":
        """The basis element of disks already known to be pairwise
        disjoint; no pair is checked."""
        self = object.__new__(cls)
        self._arrange(disks)
        return self

    def __len__(self):
        return len(self.disks)

    def __iter__(self):
        return iter(self.disks)

    def __getitem__(self, i):
        return self.disks[i]

    def __eq__(self, other):
        if not isinstance(other, BasisElement):
            return NotImplemented
        return self.disks == other.disks

    def __hash__(self):
        return hash(self.disks)

    def __repr__(self):
        return f"BasisElement[{', '.join(map(repr, self.disks))}]"

    def union(self, other: "BasisElement") -> "BasisElement":
        """Disjoint union of two disjoint basis elements (closure of the
        basis); only the pairs across the two operands are checked."""
        for d1 in self.disks:
            for d2 in other.disks:
                if not disjoint(d1, d2):
                    raise ValueError(f"disks overlap: {d1} and {d2}")
        return BasisElement._of_disjoint(self.disks + other.disks)

    @classmethod
    def from_json(cls, docs) -> "BasisElement":
        return cls([Disk.from_json(d) for d in docs])


class GroupElement:
    """Isometry z -> q*z + t of the plane, with q an exact unit scalar."""

    __slots__ = ("q", "t")

    def __init__(self, q, t):
        q = Scalar.coerce(q)
        if not q.is_unit():
            raise ValueError(f"rotation part must be a unit scalar, got {q}")
        self.q = q
        self.t = Scalar.coerce(t)

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0)

    def apply(self, z: Scalar) -> Scalar:
        return self.q * z + self.t

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other: (q, t)(q', t') = (q q', q t' + t)."""
        return GroupElement(self.q * other.q, self.q * other.t + self.t)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.q == other.q and self.t == other.t

    def __hash__(self):
        return hash((self.q, self.t))

    def __repr__(self):
        return f"GroupElement(q={self.q}, t={self.t})"


def act(g: GroupElement, obj):
    """Apply an isometry to a Disk or BasisElement; radii are unchanged.

    Nothing of the image is re-checked: obj's radius was checked when obj
    was built, and q is an exact unit, so distances and disjointness are
    kept exactly.  The order of a BasisElement's image is relative to the
    canonical disks of obj.
    """
    if isinstance(obj, Disk):
        moved = object.__new__(Disk)
        moved.center, moved.radius = g.apply(obj.center), obj.radius
        return moved
    if isinstance(obj, BasisElement):
        return BasisElement._of_disjoint([act(g, d) for d in obj.disks])
    raise TypeError(f"cannot act on {type(obj).__name__}")


def decompose(L: BasisElement, M: BasisElement):
    """Partition the disk indices of L by the disk of M containing them.

    Returns one sorted index list per disk of M.  Disjointness of M makes
    the containing disk unique; a disk of L contained in no disk of M is
    an error.
    """
    out = [[] for _ in M.disks]
    for i, d in enumerate(L.disks):
        for j, m in enumerate(M.disks):
            if contains(d, m):
                out[j].append(i)
                break
        else:
            raise ValueError(f"disk {d} of the source is not covered by the target")
    return out


def connected_components(disks):
    """Partition indices into components of the overlap graph."""
    n = len(disks)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if not disjoint(disks[i], disks[j]):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())
