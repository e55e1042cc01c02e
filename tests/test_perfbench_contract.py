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

        yield types.SimpleNamespace(catalog=catalog, child=child, tracer=tracer)
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
