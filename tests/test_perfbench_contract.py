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
