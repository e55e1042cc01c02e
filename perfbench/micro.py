"""Microbenchmarks of the scalar field and the sparse kernels.

This folds in ``benchmarks/bench_kernels.py``: the same ``random_lc``
inputs at its 4x4, 10x10 and 25x25 term sizes, its 25-term derivative and
its 60-pair mode-table row.  Everything runs in this process on whichever
kernel backend jetfact imported (reported as ``KERNEL_BACKEND`` in the
environment block), so no row is labelled with a backend it did not run.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from calibrate import BLOCK_UNITS, calibrate, ref_seconds

__all__ = ["random_lc", "per_call_us", "run_micro"]

LC_SIZES = [(4, 4), (10, 10), (25, 25)]
LC_WMAX = 8
BATCHES = 5
BATCH_SECONDS = 0.04


def random_lc(rng, Scalar, gens, terms, wmax):
    """A linear combination of ``terms`` random monomials (bench_kernels)."""
    out = {}
    while len(out) < terms:
        size = rng.randint(1, 3)
        mono = []
        for _ in range(size):
            g = rng.choice(gens)
            m = rng.randint(0, max(wmax // size - 1, 0))
            mono.append((g, m))
        mono.sort(key=lambda f: (f[0], -f[1]))
        out[tuple(mono)] = Scalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    return out


def per_call_us(fn, calls_per_invocation=1):
    """Median over batches of the calibrated time per call, in microseconds.

    fn runs ``calls_per_invocation`` calls each time it is invoked; a batch
    repeats it for about BATCH_SECONDS.
    """
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= BATCH_SECONDS / 4:
            break
        reps *= 2
    reps *= 4

    before = ref_seconds(BLOCK_UNITS)
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append(time.perf_counter() - t0)
    seconds = calibrate(statistics.median(samples), before, ref_seconds(BLOCK_UNITS))
    return seconds / (reps * calls_per_invocation) * 1e6


def _scalar_pairs(jf, seed):
    """Gaussian rationals as the Sampler draws them, rotated by its units so
    that most are complex, like the scalars of the sections workload."""
    sampler = jf.sampling.Sampler(seed)
    values = [sampler.nonzero_scalar() * sampler.unit_scalar() for _ in range(128)]
    return list(zip(values[::2], values[1::2]))


def run_micro(jf, seed: int) -> dict:
    out = {}
    pairs = _scalar_pairs(jf, seed)
    n = len(pairs)

    def mul():
        for a, b in pairs:
            a * b

    def add():
        for a, b in pairs:
            a + b

    def div():
        for a, b in pairs:
            a / b

    out["scalars.mul_us"] = per_call_us(mul, n)
    out["scalars.add_us"] = per_call_us(add, n)
    out["scalars.div_us"] = per_call_us(div, n)

    kernels = jf.kernels
    Scalar = jf.scalars.Scalar
    rng = random.Random(seed)
    for na, nb in LC_SIZES:
        a = random_lc(rng, Scalar, ["x", "y"], na, LC_WMAX)
        b = random_lc(rng, Scalar, ["x", "y"], nb, LC_WMAX)
        out[f"kernels.lc_mul_{na}x{nb}_us"] = per_call_us(
            lambda a=a, b=b: kernels.lc_mul(a, b, LC_WMAX)
        )
    a = random_lc(rng, Scalar, ["x", "y"], 25, LC_WMAX)
    out["kernels.lc_derive_25_us"] = per_call_us(
        lambda: kernels.lc_derive(a, LC_WMAX)
    )

    # The mode-table row of bench_kernels: 60 vertex_op calls at W=8.
    P = jf.jetalg.AlgebraPresentation(["x", "y"], ["x*y"], 8)
    V = jf.vertex.VertexAlgebra(P)
    sampler = jf.sampling.Sampler(seed)
    elems = [(sampler.element(P), sampler.element(P)) for _ in range(60)]

    def mode_table():
        for x, y in elems:
            jf.vertex.vertex_op(x, y, V)

    out["vertex.mode_table_ms"] = per_call_us(mode_table) / 1e3
    return out
