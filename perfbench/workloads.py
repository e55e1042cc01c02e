"""The four seeded workloads.

A workload turns the run seed into an endless sequence of rounds, each a
list of op inputs, and runs one op on one input through jetfact's public
API with the arguments the matching CLI command uses.  Rounds keep the
mix of input shapes the same in every round, so that a run, which always
ends on a whole round, measures the same mix whatever the seed.

``run_op`` returns ``(ok, fields, pairs)``: whether every check of the
op's report passed, the exact fields of the report that go into the run
digest (statuses, pass counts, dims, ranks, pairs; never a float gap),
and the basis pairs the op compared (roundtrip only, else 0).

jetfact functions are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

__all__ = ["WORKLOAD_CLASSES", "derive_seed", "digest"]


def derive_seed(seed: int, label: str) -> int:
    """A 64-bit seed for one workload, stable across processes."""
    h = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_fields(checks, keys=()):
    out = []
    for c in checks:
        detail = c.get("detail") or {}
        out.append([c["name"], c["status"]] + [detail.get(k) for k in keys])
    return out


def _all_pass(checks) -> bool:
    return bool(checks) and all(c["status"] == "pass" for c in checks)


class Workload:
    name = ""
    # The tail percentile reported as op_tail_ms: the highest of 99, 95, 90,
    # 75 and 50 with at least ten ops beyond it in a run of 25 seconds.  It
    # is fixed per workload so that every run reports the same percentile.
    tail_percentile = 95.0
    # The reference unit that calibrates the op's times, and the exponent
    # by which the op's time follows the unit's drifts (see calibrate.py).
    reference = "fraction"
    sensitivity = 0.8

    def __init__(self, jf, seed: int):
        self.jf = jf
        self.rng = random.Random(derive_seed(seed, self.name))

    def setup(self):
        """Build the inputs shared by every op."""

    def rounds(self):
        while True:
            yield self.make_round()

    def make_round(self):
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError


class Sections(Workload):
    """`jetfact fact check`: one structure-axiom sample per op on the README
    presentation (free x, W=6), sharing one presentation across ops."""

    name = "sections"
    sensitivity = 1.0
    round_size = 8

    def setup(self):
        # build_presentation() with no flags: generators ["x"], W=6.
        self.P = self.jf.jetalg.AlgebraPresentation(["x"], [], 6)

    def make_round(self):
        return [self.rng.getrandbits(31) for _ in range(self.round_size)]

    def run_op(self, sample_seed):
        report = self.jf.factalg.check_pfa_axioms(self.P, samples=1, seed=sample_seed)
        checks = report["checks"]
        return _all_pass(checks), _check_fields(checks, ("passed", "samples")), 0


class Roundtrip(Workload):
    """`jetfact reconstruct roundtrip`: every round runs the README case
    twice and each other presentation of the family once, in a seeded
    order.

    With five ops of four sizes per round, the median op is always one of
    the middle size, not a pick between two sizes.
    """

    name = "roundtrip"
    tail_percentile = 50.0  # about 30 ops a run
    FAMILY = [
        (("x",), (), 6),  # the README case
        (("x",), (), 5),
        (("x",), ("x*x",), 6),
        (("x", "y"), ("x*y",), 4),
    ]
    ROUND = [0, 0, 1, 2, 3]

    def setup(self):
        self.presentations = [
            self.jf.jetalg.AlgebraPresentation(list(g), list(r), w)
            for g, r, w in self.FAMILY
        ]

    def make_round(self):
        order = list(self.ROUND)
        self.rng.shuffle(order)
        return [(i, self.rng.getrandbits(31)) for i in order]

    def run_op(self, inp):
        index, seed = inp
        V = self.jf.vertex.VertexAlgebra(self.presentations[index])
        report = self.jf.reconstruct.eta_roundtrip_check(V, nmax=6, seed=seed)
        checks = report["checks"]
        fields = [index, _check_fields(checks, ("basis_size", "checked", "pairs", "nmax"))]
        pairs = next(c["detail"]["pairs"] for c in checks if c["name"] == "modes")
        return _all_pass(checks), fields, pairs


_COEFFS = ["1", "2", "3", "1/2", "2/3", "3/2"]
_NAMES = ["a", "b", "u", "v", "x", "y", "z"]
_RADII = [Fraction(1), Fraction(2), Fraction(4)]
_COEQ_WEIGHT = 5


class Elimination(Workload):
    """Write side of jetalg: every op builds a presentation from nothing
    (echelon reducer included), reads its dims and runs the gluing check.

    Each round has one presentation of every template; the seed picks the
    generator names and the rational coefficients, which leave the shape of
    the elimination, and so its cost, nearly unchanged.  Three templates
    cost about 0.25 s and two about 0.5 s, so the median and the 75th
    percentile fall inside a group of like ops rather than between groups.
    """

    name = "elimination"
    tail_percentile = 75.0  # about 70 ops a run

    def _coeff(self):
        sign = self.rng.choice(["", "-"])
        return sign + self.rng.choice(_COEFFS)

    def _template(self, k):
        x, y, z = self.rng.sample(_NAMES, 3)
        c = self._coeff
        if k == 0:
            return [x, y], [f"{c()}*{x}*{y}"], 10
        if k == 1:
            return [x, y, z], [f"{c()}*{x}*{y}", f"{c()}*{y}*{z}"], 8
        if k == 2:
            return [x, y], [f"{c()}*{x}*{x} + {c()}*{y}*{y}"], 9
        if k == 3:
            return [x, y], [f"{c()}*{x}*d({y}) + {c()}*{y}*d({x})"], 10
        return [x, y, z], [f"{c()}*{x}*{z}", f"{c()}*{y}*{y}"], 8

    def make_round(self):
        order = [0, 1, 2, 3, 4]
        self.rng.shuffle(order)
        return [self._template(k) for k in order]

    def run_op(self, inp):
        gens, relations, wmax = inp
        P = self.jf.jetalg.AlgebraPresentation(gens, relations, wmax)
        dims = P.dims()
        report = self.jf.factalg.check_coequalizer_chain(P, _RADII, wmax=_COEQ_WEIGHT)
        checks = report["checks"]
        keys = ("dim", "rank", "expected_rank", "cokernel")
        fields = [gens, relations, wmax, dims, _check_fields(checks, keys)]
        return _all_pass(checks) and all(d >= 0 for d in dims), fields, 0


class Contour(Workload):
    """`jetfact num laurent` and `jetfact num swap` with their default
    arguments, one of each per op, on free x at W=6.

    The cost of an op is set mostly by the weights of its three states,
    and a few weight triples cost five times the rest.  A round therefore
    holds every triple of a Latin square, (da, db, (da + db) mod (W + 1))
    for all da, db in 0..W, in a seeded order: every round evaluates the
    same mix of series sizes, and the seed picks only the monomials, the
    coefficients and the contour exponents.
    """

    name = "contour"
    reference = "quadrature"
    sensitivity = 0.8

    def setup(self):
        self.P = self.jf.jetalg.AlgebraPresentation(["x"], [], 6)
        self.V = self.jf.vertex.VertexAlgebra(self.P)

    def make_round(self):
        size = self.P.wmax + 1
        triples = [(da, db, (da + db) % size) for da in range(size) for db in range(size)]
        self.rng.shuffle(triples)
        out = []
        for da, db, dc in triples:
            sampler = self.jf.sampling.Sampler(self.rng.getrandbits(31))
            a = sampler.homogeneous_element(self.P, delta=da)
            b = sampler.homogeneous_element(self.P, delta=db)
            c = sampler.homogeneous_element(self.P, delta=dc)
            m = -sampler.rng.randint(1, 2)
            n = -sampler.rng.randint(1, 2)
            N = sampler.rng.randint(0, 2)
            out.append((a, b, c, m, n, N))
        return out

    def run_op(self, inp):
        a, b, c, m, n, N = inp
        numcx = self.jf.numcx
        laurent = numcx.mode_agreement_check(a, b, self.V, nmax=6, nodes=128, tolerance=1e-9)
        swap = numcx.residue_swap_check(
            a, b, c, m, n, N, self.V, nodes=128, tolerance=1e-8
        )
        checks = laurent["checks"] + swap["checks"]
        fields = [
            [str(a), str(b), str(c), m, n, N],
            _check_fields(laurent["checks"], ("nmax", "tolerance")),
            _check_fields(swap["checks"], ("tolerance",)),
            swap["exact_sides_equal"],
        ]
        return _all_pass(checks) and swap["exact_sides_equal"], fields, 0


WORKLOAD_CLASSES = {cls.name: cls for cls in (Sections, Roundtrip, Elimination, Contour)}
