"""Every name a jetfact module exports resolves, and every definition in
src/jetfact is reached from a command, a benchmark workload or a kept
entry point."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jetfact

MODULES = ["jetfact"] + [
    f"jetfact.{info.name}" for info in pkgutil.iter_modules(jetfact.__path__)
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jetfact"
PERFBENCH = ROOT / "perfbench"

# Definitions that no command or workload reaches, each with the reason it
# stays.  A kept class keeps its methods, and what a kept definition
# reaches is kept with it.
KEPT = {
    "factalg.evaluate": "local constancy on supported opens, which README names",
    "factalg.SupportedOpen.region_of": "evaluate's regions: local constancy, in README",
    "factalg.mu_l_via_placement": "placement independence (acceptance 04)",
    "diskgeom.BasisElement.subset_of": "the placement check of acceptance 04",
    "jetalg.AlgebraPresentation.product": "the placement-free side of acceptance 04",
    "reconstruct.insert_via_disks": "the disk route of insertion (ROADMAP item 3)",
    "reconstruct.InsertionSeries.evaluate_exact": "the series side of the disk route",
    "scalars.Scalar.abs2": "the disk sizes of the disk route",
    "reconstruct.translation_of": "README's translation read off the series",
    "reconstruct.mode_of": "README's modes read off the series, one at a time",
    "reconstruct.modes_of": "README's modes read off the series; the table_fn that "
    "certifies the reconstructed structure",
    "numcx.contour_integral": "contour calculus sanity (acceptance 11)",
    "numcx.Curve": "the circles and polygons of acceptance 11",
    "numcx._integrate_line": "the line quadrature of acceptance 11's triangle",
    "numcx.QuadratureError": "a line quadrature of acceptance 11 that does not settle",
}

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _definitions():
    """{qualname: node} for the module-level functions and classes of
    src/jetfact and the methods of those classes; qualnames start with
    the module name, as in "jetalg.AlgebraPresentation.product"."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEF):
                defs[f"{path.stem}.{node.name}"] = node
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, _DEF):
                        defs[f"{path.stem}.{node.name}.{sub.name}"] = sub
    return defs


def _references(nodes):
    """The names (ast.Name) and attributes (ast.Attribute) the nodes read.
    A class's methods are definitions of their own and are not entered."""
    names, attrs = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, _DEF):
                continue
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                attrs.add(child.attr)
            stack.append(child)
    return names, attrs


def _reached(defs, roots, names, attrs):
    """Every definition reached from the root definitions and the root
    names and attributes.  A name reaches the module-level definitions of
    that name, an attribute every definition of that name."""
    by_name = {}
    for qualname in defs:
        by_name.setdefault(qualname.rsplit(".", 1)[1], []).append(qualname)
    reached, new = set(), set(roots)
    while True:
        new.update(q for n in names for q in by_name.get(n, ()) if q.count(".") == 1)
        new.update(q for a in attrs for q in by_name.get(a, ()))
        new -= reached
        if not new:
            return reached
        reached |= new
        names, attrs = _references(defs[q] for q in new)
        new = set()


def _roots(defs):
    """Every definition in cli.py, every dunder method, the module-level
    code of src/jetfact, and what perfbench reads: its names, attributes
    and the (module, qualname) of each tracer Target."""
    roots = {
        q
        for q in defs
        if q.startswith("cli.") or (q.count(".") == 2 and q.endswith("__"))
    }
    names, attrs = set(), set()
    for path in sorted(SRC.glob("*.py")):
        code = [n for n in ast.parse(path.read_text()).body if not isinstance(n, _DEF)]
        n, a = _references(code)
        names |= n
        attrs |= a
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        n, a = _references([tree])
        names |= n
        attrs |= a
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Target":
                module, qualname = call.args[:2]
                if isinstance(qualname, ast.Constant):
                    roots.add(f"{module.value.removeprefix('jetfact.')}.{qualname.value}")
    return roots, names, attrs


def test_every_definition_is_reached():
    defs = _definitions()
    roots, names, attrs = _roots(defs)
    from_roots = _reached(defs, roots, names, attrs)
    assert sorted(q for q in KEPT if q not in defs) == []
    # An entry that a command or workload reaches needs no reason to stay.
    assert sorted(q for q in KEPT if q in from_roots) == []
    kept = {q for q in defs if q in KEPT or q.rsplit(".", 1)[0] in KEPT}
    reached = _reached(defs, roots | kept, names, attrs)
    assert sorted(set(defs) - reached) == []
