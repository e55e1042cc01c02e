"""Command-line front end.

Subcommands build jet presentations, extract vertex modes, and run the
check suites.  Each handler takes the parsed flags, the presentation and
the preset and returns its check list; run() builds the presentation,
times the handler and emits one JSON report of the form
{command, params, checks: [{name, status, detail}], timing_ms, elapsed_ms,
version, backend, python} to stdout or --out.  A sampling command (one
with --samples) reports each check once through reports.SampledChecks; the
num commands share the sampled loop _sampled.  Exit status is 0 when every
check passes, 1 on check failures, 2 on bad input (an InputError such as
a parse error or a malformed preset or flag, an OSError, or a negative
count) and 3 on any other error, reported as one line on stderr.  All
randomness flows from the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import factorial

from ._kernels import lc_mul
from .diskgeom import BasisElement
from .errors import InputError
from .exprs import free_names
from .factalg import (
    SupportedOpen,
    check_adjunction,
    check_coequalizer_chain,
    check_pfa_axioms,
)
from .grading import GradedElement, format_element, format_monomial
from .jetalg import AlgebraPresentation
from .numcx import AliasingError, mode_agreement_check, residue_swap_check
from .reconstruct import eta_roundtrip_check
from .reports import SampledChecks, all_pass, check_entry, make_report
from .sampling import Sampler
from .scalars import ONE, frac
from .vertex import VertexAlgebra, check_vertex_axioms, vertex_op

PARSE_ERROR = 2
INTERNAL_ERROR = 3


def load_preset(path):
    """The JSON object in the file; anything but an object is bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    return doc


def build_presentation(args):
    """Presentation from flags or preset; flags override the preset's
    presentation document, and generators are inferred from --a/--b when
    neither gives them."""
    preset = load_preset(args.preset) if args.preset else {}
    doc = preset.get("presentation", {})
    doc = load_preset(doc) if isinstance(doc, str) else doc
    if not isinstance(doc, dict):
        raise InputError("preset presentation must be a JSON object or a file path")
    doc = dict(doc)
    if args.gens:
        doc["generators"] = [g.strip() for g in args.gens.split(",") if g.strip()]
    elif not doc.get("generators"):
        exprs = [getattr(args, k) for k in ("a", "b") if hasattr(args, k)]
        inferred = sorted({name for e in exprs for name in free_names(e)})
        doc["generators"] = inferred or ["x"]
    if args.relations is not None:
        doc["relations"] = [r for r in args.relations.split(";") if r.strip()]
    if args.max_weight is not None:
        doc["max_weight"] = args.max_weight
    return AlgebraPresentation.from_json(doc), preset


def cmd_jet_build(args, P, preset) -> list:
    detail = {"generators": list(P.generators), "max_weight": P.wmax}
    if args.dims:
        detail["dims"] = P.dims()
    if args.basis is not None:
        detail["basis"] = [format_monomial(m) for m in P.weight_basis(args.basis)]
    return [check_entry("build", True, detail)]


def _free_product_mode(P, a, b, n):
    """a_(n) b through no product table: the normal form of the free
    product (T^k a / k!) * b for n = -k - 1.  It is zero for n >= 0, and
    for k > W, where T^k a weighs more than W."""
    k = -n - 1
    if not 0 <= k <= P.wmax:
        return P.zero()
    term = P.derive(a, times=k).scale(ONE / factorial(k))
    return P.normal_form(GradedElement._make(lc_mul(term.data, b.data, P.wmax), P.wmax))


def cmd_vertex_modes(args, P, preset) -> list:
    a, b = P.parse(args.a), P.parse(args.b)
    table = vertex_op(a, b, VertexAlgebra(P))
    if args.n is not None:
        ns = [args.n]
        detail = {"n": args.n, "mode": format_element(table[args.n])}
    else:
        # Every mode that can be nonzero, so a mode the table lost shows too.
        ns = sorted(set(range(-P.wmax - 1, 0)) | set(table.indices()))
        detail = {"modes": {str(n): format_element(e) for n, e in table.items()}}
    free = {n: _free_product_mode(P, a, b, n) for n in ns}
    differ = {str(n): format_element(e) for n, e in free.items() if e != table[n]}
    if differ:
        detail["free_product_modes"] = differ
    return [check_entry("mode", not differ, detail)]


def cmd_vertex_check(args, P, preset) -> list:
    V = VertexAlgebra(P)
    return check_vertex_axioms(V, samples=args.samples, seed=args.seed)["checks"]


def cmd_fact_check(args, P, preset) -> list:
    checks = []
    geometry = preset.get("geometry", {})
    entries = preset.get("checks", [{}])
    if not isinstance(geometry, dict):
        raise InputError("preset geometry must be a JSON object")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InputError("preset checks must be a list of JSON objects")
    if len(entries) > 1:
        raise InputError("preset checks must hold at most one entry")
    # Named geometry in the scenario is validated up front: construction
    # enforces positive radii and disjointness for basis elements, and
    # connectivity plus region disjointness for supported opens
    # ({"regions": [[...], ...]}); a violation is a failed check.
    for name, doc in geometry.items():
        try:
            if isinstance(doc, dict) and "regions" in doc:
                U = SupportedOpen.from_json(doc["regions"])
                detail = {"regions": len(U)}
            else:
                detail = {"disks": len(BasisElement.from_json(doc))}
            checks.append(check_entry(f"geometry_{name}", True, detail))
        except (InputError, TypeError) as exc:
            # A disk that does not parse, or a value of the wrong JSON
            # type, is bad input, not a failed check.
            raise InputError(f"preset geometry {name!r} is malformed: {exc}") from None
        except ValueError as exc:
            checks.append(check_entry(f"geometry_{name}", False, {"error": str(exc)}))
    for entry in entries:
        samples = entry.get("samples", args.samples)
        if not isinstance(samples, int) or isinstance(samples, bool) or samples < 0:
            raise InputError(f"preset samples must be a non-negative integer: {samples!r}")
        seed = entry.get("seed", args.seed)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InputError(f"preset seed must be an integer: {seed!r}")
        checks.extend(check_pfa_axioms(P, samples=samples, seed=seed)["checks"])
    return checks


def cmd_fact_coeq(args, P, preset) -> list:
    radii = [frac(r) for r in args.radii.split(",")]
    return check_coequalizer_chain(P, radii)["checks"]


def cmd_fact_adjunction(args, P, preset) -> list:
    return check_adjunction(P, samples=args.samples, seed=args.seed)["checks"]


def cmd_reconstruct_roundtrip(args, P, preset) -> list:
    V = VertexAlgebra(P)
    return eta_roundtrip_check(V)["checks"]


def _sampled(args, names, sample) -> list:
    """The checks names over args.samples samples.  sample(sampler) returns
    one sample's states and check entries; a failing entry's counterexample
    is its detail with the states.  When samples alias, all of them still run
    and the error raised names the most nodes any needs."""
    sampler = Sampler(args.seed)
    tally = SampledChecks(names)
    aliased = []
    for _ in range(args.samples):
        try:
            states, checks = sample(sampler)
        except AliasingError as exc:
            aliased.append(exc)
            continue
        for c in checks:
            tally.record(c["name"], c["status"] == "pass", lambda: {**states, **c["detail"]})
    if aliased:
        raise max(aliased, key=lambda exc: exc.need)
    return tally.entries(args.samples)


def cmd_num_laurent(args, P, preset) -> list:
    V = VertexAlgebra(P)

    def sample(sampler):
        # Two weights of a triple sum to at most W: the product survives.
        da, db, _ = sampler.weight_triple(P.wmax)
        a, b = (sampler.homogeneous_element(P, delta=d) for d in (da, db))
        result = mode_agreement_check(
            a, b, V, nmax=args.nmax, nodes=args.nodes, tolerance=args.tolerance
        )
        return {"a": str(a), "b": str(b)}, result["checks"]

    return _sampled(args, ["numeric_symbolic_modes"], sample)


def cmd_num_swap(args, P, preset) -> list:
    V = VertexAlgebra(P)
    names = [
        "iterated_orders_agree",
        "matches_mode_sum_first_order",
        "matches_mode_sum_second_order",
        "exact_sides_equal",
    ]

    def sample(sampler):
        weights = sampler.weight_triple(P.wmax)
        a, b, c = (sampler.homogeneous_element(P, delta=d) for d in weights)
        m = -sampler.rng.randint(1, 2)
        n = -sampler.rng.randint(1, 2)
        N = sampler.rng.randint(0, args.nmax)
        states = {"a": str(a), "b": str(b), "c": str(c), "m": m, "n": n, "N": N}
        result = residue_swap_check(
            a, b, c, m, n, N, V, nodes=args.nodes, tolerance=args.tolerance
        )
        exact = check_entry("exact_sides_equal", result["exact_sides_equal"], {})
        return states, result["checks"] + [exact]

    return _sampled(args, names, sample)


def vars_of(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def non_negative_int(text: str) -> int:
    """argparse type of --samples, --nmax and --basis: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_common(p):
    p.add_argument("--preset", help="scenario JSON file")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--gens", help="comma-separated generator names")
    p.add_argument("--relations", help="semicolon-separated relation expressions")
    p.add_argument("--max-weight", dest="max_weight", type=int)


def _add_sampling(p, samples: int):
    p.add_argument("--samples", type=non_negative_int, default=samples)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jetfact")
    sub = ap.add_subparsers(dest="group", required=True)

    jet = sub.add_parser("jet").add_subparsers(dest="cmd", required=True)
    b = jet.add_parser("build", help="build a presentation and list dimensions")
    _add_common(b)
    b.add_argument("--dims", action="store_true", help="list weight-space dimensions")
    b.add_argument("--basis", type=non_negative_int, help="list the basis of this weight")
    b.set_defaults(func=cmd_jet_build)

    vx = sub.add_parser("vertex").add_subparsers(dest="cmd", required=True)
    m = vx.add_parser("modes", help="modes of the field of one state on another")
    _add_common(m)
    m.add_argument("--a", required=True)
    m.add_argument("--b", required=True)
    m.add_argument("--n", type=int)
    m.set_defaults(func=cmd_vertex_modes)
    c = vx.add_parser("check", help="vacuum, translation, locality axiom suite")
    _add_common(c)
    _add_sampling(c, 50)
    c.set_defaults(func=cmd_vertex_check)

    fa = sub.add_parser("fact").add_subparsers(dest="cmd", required=True)
    c = fa.add_parser("check", help="structure-map and equivariance axiom suite")
    _add_common(c)
    _add_sampling(c, 30)
    c.set_defaults(func=cmd_fact_check)
    c = fa.add_parser("coeq", help="gluing check on a nested disk chain")
    _add_common(c)
    c.add_argument("--radii", default="1,2,4")
    c.set_defaults(func=cmd_fact_coeq)
    c = fa.add_parser("adjunction", help="round trips of the morphism correspondence")
    _add_common(c)
    _add_sampling(c, 20)
    c.set_defaults(func=cmd_fact_adjunction)

    rc = sub.add_parser("reconstruct").add_subparsers(dest="cmd", required=True)
    c = rc.add_parser("roundtrip", help="reconstructed structure against the source")
    _add_common(c)
    c.set_defaults(func=cmd_reconstruct_roundtrip)

    nm = sub.add_parser("num").add_subparsers(dest="cmd", required=True)
    c = nm.add_parser("laurent", help="numeric Laurent coefficients against exact modes")
    _add_common(c)
    _add_sampling(c, 3)
    c.add_argument("--nmax", type=non_negative_int, default=6)
    c.add_argument("--nodes", type=int, default=128)
    c.add_argument("--tolerance", type=float, default=1e-9)
    c.set_defaults(func=cmd_num_laurent)
    c = nm.add_parser("swap", help="iterated contour orders of the weighted insertion")
    _add_common(c)
    _add_sampling(c, 5)
    c.add_argument("--nmax", type=non_negative_int, default=2)
    c.add_argument("--nodes", type=int, default=128)
    c.add_argument("--tolerance", type=float, default=1e-8)
    c.set_defaults(func=cmd_num_swap)

    return ap


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return PARSE_ERROR if exc.code not in (0,) else 0
    try:
        t0 = time.perf_counter()
        P, preset = build_presentation(args)
        checks = args.func(args, P, preset)
        report = make_report(f"{args.group} {args.cmd}", vars_of(args), checks, t0)
        text = json.dumps(report, indent=2, default=str)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    return 0 if all_pass(checks) else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
