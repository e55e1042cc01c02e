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
    "jetalg.AlgebraPresentation.basis_monomials": "the monomial of each coordinate that "
    "coordinates() and numcx's vectors index; the commands read only dimension()",
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


def _defined_names(nodes) -> set:
    """The attribute names defined anywhere in the nodes: by a def, a
    __slots__ entry or an attribute assignment."""
    defined = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, _DEF):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and "__slots__" in [
            getattr(t, "id", None) for t in node.targets
        ]:
            defined.update(ast.literal_eval(node.value))
    return defined


def _private_reads(src=SRC):
    """[(module, line, "X._name")] for every read X._name in the modules
    of src (src/jetfact by default) where X is a plain name other than self
    or cls that the module does not own.  A read through a class of those
    modules, Cls._name, is the module's own only if the module defines
    _name on Cls; a read through any other name only if the module defines
    _name anywhere.  Defining is by a def, a __slots__ entry or an
    attribute assignment."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    classes = {
        node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)
    }
    out = []
    for module, tree in trees.items():
        defined = _defined_names([tree])
        on_class = {
            node.name: _defined_names([node])
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id not in ("self", "cls")
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
            ):
                continue
            owner = node.value.id
            own = on_class.get(owner, ()) if owner in classes else defined
            if node.attr not in own:
                out.append((module, node.lineno, f"{owner}.{node.attr}"))
    return sorted(out)


def test_modules_read_no_private_attribute_of_another():
    # The import guard above sees only imported names; this one sees a
    # private attribute read off another module's object, as in P._name.
    reads = _private_reads()
    assert [r for r in reads if r[2] not in SHARED_PRIVATE] == []
    # An exception that no module reads any more needs no reason to stay.
    assert sorted(set(SHARED_PRIVATE) - {r[2] for r in reads}) == []


def test_private_reads_through_a_class_are_keyed_by_the_class(tmp_path):
    # A module that defines _make on its own class may read its own
    # A._make, and _make through a plain instance, but not B._make.
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def _make(self):\n"
        "        return A._make(self), B._make(), obj._make()\n"
    )
    (tmp_path / "b.py").write_text("class B:\n    def _make(self):\n        pass\n")
    assert _private_reads(tmp_path) == [("a", 3, "B._make")]


def test_only_kernels_delete_from_a_dict():
    # Every zero-dropping sum into a kernel dict is _kernels.lc_add_scaled,
    # so a `del x[...]` elsewhere is a sum written out by hand.
    # The echelon's elimination step, scalars.reduce_row, drops zeros with
    # pop, as it works on integer triples and not on a kernel dict.
    found = [
        (path.stem, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "_kernels"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Delete)
        and any(isinstance(t, ast.Subscript) for t in node.targets)
    ]
    assert found == []


def test_only_the_kernel_sums_and_the_free_route_delete_in_kernels():
    # Inside _kernels a `del` is a zero-dropping sum.  lc_add_scaled is the
    # one the tables use; lc_mul and lc_derive keep their own, since the
    # product and derivative tables are checked against them, and a fault
    # in a shared sum would hide on both sides.
    tree = ast.parse((SRC / "_kernels.py").read_text())
    # The top-level statements that hold a del, by name; None is one that
    # has no name.
    deleting = {
        getattr(node, "name", None)
        for node in tree.body
        if any(isinstance(sub, ast.Delete) for sub in ast.walk(node))
    }
    assert deleting == {"lc_add_scaled", "lc_mul", "lc_derive"}
