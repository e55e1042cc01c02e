"""The sample stream: Sampler draws its scalars as integers, yet every seed
gives the values of drawing each rational part as a Fraction."""

import random
from fractions import Fraction
from itertools import product

import pytest

from jetfact.diskgeom import BasisElement, Disk
from jetfact.sampling import UNIT_SCALARS, Sampler
from jetfact.scalars import Scalar


class FractionSampler:
    """The reference: each part drawn as Fraction(numerator, denominator)
    on a random.Random, the scalar built from the two Fractions."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def fraction(self, lo=-3, hi=3):
        return Fraction(self.rng.randint(lo, hi), self.rng.choice((1, 1, 2, 3)))

    def scalar(self):
        re = self.fraction()
        im = self.fraction() if self.rng.random() < 0.25 else 0
        return Scalar(re, im)

    def nonzero_scalar(self):
        while True:
            s = self.scalar()
            if s:
                return s

    def translation(self):
        return Scalar(self.fraction(-2, 2), self.fraction(-2, 2))

    def group_element(self):
        q = self.rng.choice(UNIT_SCALARS)
        if self.rng.random() < 0.3:
            q = q * self.rng.choice(UNIT_SCALARS)
        return q, self.translation()

    def lattice_points(self, count):
        points = set()
        while len(points) < count:
            points.add((self.rng.randint(-4, 4), self.rng.randint(-4, 4)))
        return sorted(points)

    def nested_config(self, outer_count, inner_per_outer):
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

    def weight_triple(self, wmax):
        triples = [t for t in product(range(wmax + 1), repeat=3) if sum(t) <= wmax]
        return self.rng.choice(triples)


def _disks(L):
    return [(d.center.triple(), d.radius) for d in L]


def test_integer_draws_give_the_fraction_stream():
    for seed in range(200):
        got, ref = Sampler(seed), FractionSampler(seed)
        for _ in range(3):
            assert got.scalar().triple() == ref.scalar().triple()
            assert got.nonzero_scalar().triple() == ref.nonzero_scalar().triple()
            assert got.translation().triple() == ref.translation().triple()
            g = got.group_element()
            q, t = ref.group_element()
            assert (g.q.triple(), g.t.triple()) == (q.triple(), t.triple())
            counts = [ref.rng.randint(1, 2) for _ in range(ref.rng.randint(1, 2))]
            assert counts == [got.rng.randint(1, 2) for _ in range(got.rng.randint(1, 2))]
            L, M = got.nested_config(len(counts), counts)
            L_ref, M_ref = ref.nested_config(len(counts), counts)
            assert _disks(L) == _disks(L_ref) and _disks(M) == _disks(M_ref), seed
            assert L.order == L_ref.order
            for wmax in (0, 3, 6):
                assert got.weight_triple(wmax) == ref.weight_triple(wmax)
        # The two generators end in the same state.
        assert got.rng.random() == ref.rng.random(), seed

