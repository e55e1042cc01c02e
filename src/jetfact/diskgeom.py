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

from fractions import Fraction

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

    def sort_key(self):
        return (
            self.center.re,
            self.center.im,
            self.radius is None,
            self.radius if self.radius is not None else Fraction(0),
        )

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
        re, im = doc["c"]
        r = doc["r"]
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


class BasisElement:
    """A finite disjoint union of open disks, in canonical disk order.

    The empty list represents the empty set.  Construction sorts the disks
    lexicographically by center then radius and verifies pairwise
    disjointness.
    """

    __slots__ = ("disks", "order")

    def __init__(self, disks=()):
        disks = list(disks)
        order = sorted(range(len(disks)), key=lambda i: disks[i].sort_key())
        self.disks = tuple(disks[i] for i in order)
        # order[j] = original index of the j-th canonical disk
        self.order = tuple(order)
        for i in range(len(self.disks)):
            for j in range(i + 1, len(self.disks)):
                if not disjoint(self.disks[i], self.disks[j]):
                    raise ValueError(
                        f"disks overlap: {self.disks[i]} and {self.disks[j]}"
                    )

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
        """Disjoint union of two disjoint basis elements (closure of the basis)."""
        return BasisElement(self.disks + other.disks)

    def subset_of(self, other: "BasisElement") -> bool:
        return all(
            any(contains(d, m) for m in other.disks) for d in self.disks
        )

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
    """Apply an isometry to a Disk or BasisElement; radii are unchanged."""
    if isinstance(obj, Disk):
        return Disk(g.apply(obj.center), obj.radius)
    if isinstance(obj, BasisElement):
        return BasisElement([act(g, d) for d in obj.disks])
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
