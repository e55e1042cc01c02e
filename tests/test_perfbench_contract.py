"""The benchmark in perfbench/ reaches into jetfact by module and function
name; these tests fail when a refactor renames or moves what it wraps.
They only import perfbench's modules and change nothing under it."""

import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import catalog
        import child
        import tracer
        import workloads

        yield types.SimpleNamespace(
            catalog=catalog, child=child, tracer=tracer, workloads=workloads
        )
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_trace_target_resolves(perfbench):
    import jetfact.cli  # noqa: F401  (the import graph the traced run sees)

    assert perfbench.catalog.TARGETS
    for target in perfbench.catalog.TARGETS:
        owner, attr = perfbench.tracer._resolve(target.module, target.qualname)
        # The tracer reads a method from the class body, anything else by getattr.
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"{target.module}.{target.qualname}"


def test_child_finds_the_jetfact_modules(perfbench):
    jf = perfbench.child.load_jetfact()
    for name, module in vars(jf).items():
        assert isinstance(module, types.ModuleType), name


def test_negative_control_catches_the_broken_corestriction(perfbench):
    # Every benchmark run fails unless this holds for its seed.
    jf = perfbench.child.load_jetfact()
    for seed in range(5):
        assert perfbench.child.negative_control(jf, seed)


def test_one_op_of_every_workload_passes(perfbench):
    # Each op calls jetfact with the arguments the benchmark passes, so a
    # changed signature fails here and not only in a benchmark run.
    jf = perfbench.child.load_jetfact()
    assert perfbench.workloads.WORKLOAD_CLASSES
    for name, cls in perfbench.workloads.WORKLOAD_CLASSES.items():
        wl = cls(jf, 7)
        wl.setup()
        ok, _, _ = wl.run_op(wl.make_round()[0])
        assert ok, name


# The round-0 digest of every workload at seed 7, as perfbench/child.py
# computes it for a run: the digest of the per-op digests of the first
# round.  A change that moves a digested field (a status, a pass count, a
# dimension, a rank, a basis pair) moves it; to see the new value, print
# round0_digest(perfbench, name, 7) for each workload.
ROUND0_DIGESTS = {
    "sections": "516b78a9f670af0e1860c6a668e4d762717e2a7c66132426daa1885fbbfe6637",
    "roundtrip": "8ff6d18c301977c128caf876678fb76ed63114dd451b50bebf40fe1a24c9158e",
    "elimination": "32c41ab8027f3c279851bba5f74c529bfaf995b8d82a6397584cbb4626d1f693",
    "contour": "56e7c44079ae2034fcad0406a0c529af32fa94fb29f0118193eb3f342a24a523",
}


def round0_digest(perfbench, name, seed):
    digest = perfbench.workloads.digest
    wl = perfbench.workloads.WORKLOAD_CLASSES[name](perfbench.child.load_jetfact(), seed)
    wl.setup()
    return digest([digest(wl.run_op(inp)[1]) for inp in next(wl.rounds())])


@pytest.mark.parametrize("name", sorted(ROUND0_DIGESTS))
def test_round0_digest_is_pinned(perfbench, name):
    assert round0_digest(perfbench, name, 7) == ROUND0_DIGESTS[name]
