"""Seeded samplers for the property and axiom checkers.

All randomness in the package flows through a Sampler built from a single
integer seed, so every report is reproducible.  Disk configurations are
generated on scaled integer lattices with radii small enough that the
required disjointness and containment hold by construction; the exact
predicates re-verify them anyway.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .diskgeom import BasisElement, Disk, GroupElement
from .grading import GradedElement
from .scalars import Scalar

__all__ = ["Sampler", "UNIT_SCALARS"]

UNIT_SCALARS = [
    Scalar(1),
    Scalar(-1),
    Scalar(0, 1),
    Scalar(0, -1),
    Scalar(Fraction(3, 5), Fraction(4, 5)),
    Scalar(Fraction(3, 5), Fraction(-4, 5)),
    Scalar(Fraction(-3, 5), Fraction(4, 5)),
    Scalar(Fraction(5, 13), Fraction(12, 13)),
    Scalar(Fraction(8, 17), Fraction(-15, 17)),
]


class Sampler:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    # -- scalars ----------------------------------------------------------

    def fraction(self, lo: int = -3, hi: int = 3) -> Fraction:
        return Fraction(self.rng.randint(lo, hi), self.rng.choice((1, 1, 2, 3)))

    def nonzero_fraction(self) -> Fraction:
        while True:
            f = self.fraction()
            if f:
                return f

    def scalar(self) -> Scalar:
        re = self.fraction()
        im = self.fraction() if self.rng.random() < 0.25 else 0
        return Scalar(re, im)

    def nonzero_scalar(self) -> Scalar:
        while True:
            s = self.scalar()
            if s:
                return s

    def unit_scalar(self) -> Scalar:
        q = self.rng.choice(UNIT_SCALARS)
        if self.rng.random() < 0.3:
            q = q * self.rng.choice(UNIT_SCALARS)
        return q

    def translation(self) -> Scalar:
        return Scalar(self.fraction(-2, 2), self.fraction(-2, 2))

    # -- algebra elements ----------------------------------------------------

    def homogeneous_element(self, P, delta=None, max_terms: int = 2) -> GradedElement:
        """A nonzero homogeneous element of the given (or a random) weight."""
        deltas = list(range(0, P.wmax + 1))
        self.rng.shuffle(deltas)
        if delta is not None:
            deltas = [delta] + deltas
        for d in deltas:
            basis = P.weight_basis(d)
            if basis:
                picks = self.rng.sample(basis, min(len(basis), self.rng.randint(1, max_terms)))
                data = {m: self.nonzero_scalar() for m in picks}
                return GradedElement._make(data, P.wmax)
        raise ValueError("presentation has no nonzero weight components")

    def weight_triple(self, wmax: int) -> tuple:
        """Three weights that sum to at most wmax, uniform over all such
        triples, so that the product of states of these weights survives
        truncation at wmax."""
        triples = [t for t in product(range(wmax + 1), repeat=3) if sum(t) <= wmax]
        return self.rng.choice(triples)

    def element(self, P, max_terms: int = 3) -> GradedElement:
        out = P.zero()
        for _ in range(self.rng.randint(1, max_terms)):
            out = out + self.homogeneous_element(P, max_terms=1)
        return out

    # -- geometry --------------------------------------------------------------

    def group_element(self) -> GroupElement:
        return GroupElement(self.unit_scalar(), self.translation())

    def lattice_points(self, count: int):
        points = set()
        while len(points) < count:
            points.add((self.rng.randint(-4, 4), self.rng.randint(-4, 4)))
        return sorted(points)

    def disjoint_disks(self, count: int) -> BasisElement:
        """count pairwise disjoint disks of radius 1/3 centered on the unit lattice."""
        pts = self.lattice_points(count)
        return BasisElement([Disk(Scalar(x, y), Fraction(1, 3)) for x, y in pts])

    def nested_config(self, outer_count: int, inner_per_outer):
        """(L, M) with L a union of small disks inside the disks of M.

        inner_per_outer is a list giving how many sub-disks to place in
        each outer disk; outer disks sit on a lattice with spacing 4 and
        radius 1, inner disks on a quarter lattice with radius 1/8.
        """
        pts = self.lattice_points(outer_count)
        outers = [Disk(Scalar(4 * x, 4 * y), Fraction(1)) for x, y in pts]
        inners = []
        for disk, k in zip(outers, inner_per_outer):
            offsets = set()
            while len(offsets) < k:
                offsets.add((self.rng.randint(-2, 2), self.rng.randint(-2, 2)))
            for dx, dy in sorted(offsets):
                c = disk.center + Scalar(Fraction(dx, 4), Fraction(dy, 4))
                inners.append(Disk(c, Fraction(1, 8)))
        return BasisElement(inners), BasisElement(outers)
