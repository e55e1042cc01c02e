"""Every name a jetfact module exports resolves, every definition in
src/jetfact is reached from a command, a benchmark workload or a kept
entry point, and the modules import and read only each other's public
names, the section layer nothing of the vertex layer."""

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

# The private attributes that any module may read of another, each with
# the reason.
SHARED_PRIVATE = {
    "GradedElement._make": "the trusted wrapper of _kernels' dict format, which "
    "every layer builds elements with",
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


def _imports():
    """{module: [(imported module, name), ...]} for every from-import of a
    src/jetfact module from within the package; module names are relative
    to the package, as in ("_kernels", "mono_weight")."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        found = out[path.stem] = []
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if module != "jetfact" and not module.startswith("jetfact."):
                    continue
                module = module.removeprefix("jetfact").removeprefix(".")
            found += [(module, alias.name) for alias in node.names]
    return out


def test_modules_import_only_public_names_and_sections_not_the_vertex_layer():
    imports = _imports()
    # The flow e^{zT} q^{L0} is the presentation's: sections need no vertex layer.
    assert [i for i in imports["factalg"] if "vertex" in i] == []
    private = [
        (module, i)
        for module, found in imports.items()
        for i in found
        if i[1].startswith("_") and not i[1].endswith("__")
    ]
    assert private == []


def _private_reads():
    """[(module, line, "X._name")] for every read X._name in src/jetfact
    where X is a plain name other than self or cls and the module does not
    define _name itself: by a def, a __slots__ entry or an attribute
    assignment."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, _DEF):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.Assign) and "__slots__" in [
                getattr(t, "id", None) for t in node.targets
            ]:
                defined.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id not in ("self", "cls")
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and node.attr not in defined
            ):
                out.append((path.stem, node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(out)


def test_modules_read_no_private_attribute_of_another():
    # The import guard above sees only imported names; this one sees a
    # private attribute read off another module's object, as in P._name.
    reads = _private_reads()
    assert [r for r in reads if r[2] not in SHARED_PRIVATE] == []
    # An exception that no module reads any more needs no reason to stay.
    assert sorted(set(SHARED_PRIVATE) - {r[2] for r in reads}) == []
