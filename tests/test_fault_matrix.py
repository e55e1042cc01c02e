"""Which README commands see which fault: a matrix of seeded faults against
the nine README commands, each run in-process at its README parameters.

A fault is seeded into every presentation the command line builds (by
wrapping cli.build_presentation) or patched into the function that holds
it.  Each row asserts the exact set of commands that exit 1, a failed
check; every other command must exit 0.  A command that misses a fault is
a known blind spot, kept here so that a change that closes it (an audit
of the tables, a route to the modes that reads none) shows as a new fail
cell.  The five rows together take a few seconds in-process.
"""

import json
import shlex

import pytest

from jetfact import cli, factalg
from jetfact._kernels import mono_mul
from jetfact.jetalg import AlgebraPresentation
from jetfact.scalars import Scalar

from test_readme import command_lines

X0, X1, Y0 = ("x", 0), ("x", 1), ("y", 0)


def seeded(fault):
    """Patch cli.build_presentation to apply fault(P) to each presentation."""

    def apply(monkeypatch):
        build = cli.build_presentation

        def wrapped(args):
            P, preset = build(args)
            fault(P)
            return P, preset

        monkeypatch.setattr(cli, "build_presentation", wrapped)

    return apply


def wrong_product_entry(P):
    # The (x0, x1) entry of the product table reads 2 x0*x1.
    P._products.setdefault((X0,), {})[(X1,)] = {mono_mul((X0,), (X1,)): Scalar(2)}


def doubled_derivative(P):
    # T x0 reads 2 x1.
    P._derivatives[(X0,)] = {(X1,): Scalar(2)}


def deleted_pivot(P):
    # Of the README presentations only vertex check's x,y | x*y has a y,
    # and the pivot x0*y0 (a missing pivot would exit 3, not 0).
    if "y" in P.generators:
        del P._echelon.pivots[mono_mul((X0,), (Y0,))]


def flow_without_rotation(monkeypatch):
    flow = AlgebraPresentation.flow
    monkeypatch.setattr(AlgebraPresentation, "flow", lambda P, q, z: flow(P, 1, z))


def group_product_dropping_a_factor(monkeypatch):
    group_product = factalg._group_product
    monkeypatch.setattr(
        factalg,
        "_group_product",
        lambda P, factors, index_lists: group_product(P, factors, [g[:-1] for g in index_lists]),
    )


MATRIX = [
    ("product entry", seeded(wrong_product_entry), {"vertex check", "fact check", "num swap"}),
    ("derivative row", seeded(doubled_derivative), {"vertex check", "fact check"}),
    # Blind spot: every harness passes on a reducer that lost a pivot.
    ("deleted pivot", seeded(deleted_pivot), set()),
    ("flow without q", flow_without_rotation, {"fact check"}),
    ("corestrict grouping", group_product_dropping_a_factor, {"fact check", "fact coeq"}),
]


@pytest.mark.parametrize(
    "apply, failing", [row[1:] for row in MATRIX], ids=[row[0] for row in MATRIX]
)
def test_fault_fails_exactly_these_commands(monkeypatch, tmp_path, apply, failing):
    apply(monkeypatch)
    codes = {}
    for line in command_lines():
        argv = shlex.split(line)[1:]
        codes[" ".join(argv[:2])] = cli.run(argv + ["--out", str(tmp_path / "report.json")])
    assert len(codes) == 9
    # A failing cell is a failed check (1), not an internal error (3).
    assert codes == {c: 1 if c in failing else 0 for c in codes}


@pytest.mark.parametrize("modes", [["--n", "-1"], []], ids=["one mode", "all modes"])
def test_vertex_modes_sees_a_wrong_product_entry_that_it_reads(monkeypatch, tmp_path, modes):
    # vertex modes reads each reported mode a second way, through no
    # product table.  x_(-1) d(x) is the product x0*x1, which reads the
    # seeded entry; at README parameters (--b x --n -2) the mode x1*x0
    # does not, so the product-entry row of MATRIX leaves vertex modes out.
    seeded(wrong_product_entry)(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.run(["vertex", "modes", "--a", "x", "--b", "d(x)", *modes, "--out", str(out)]) == 1
    detail = json.loads(out.read_text())["checks"][0]["detail"]
    assert detail.get("mode", detail.get("modes", {}).get("-1")) == "2*x1*x0"
    assert detail["free_product_modes"] == {"-1": "x1*x0"}
