"""Command-line front end.

Subcommands build jet presentations, extract vertex modes, and run the
check suites.  COMMANDS declares each command once (its group, name,
handler, help, default --samples and own flags), and build_parser builds
every subparser from it.  Each handler takes the parsed flags, the
presentation and the preset and returns its check list; run() builds the
presentation, times the handler and emits one JSON report of the form
{command, params, checks: [{name, status, detail}], timing_ms, elapsed_ms,
version, backend, python} to stdout or --out.  A sampling command (one
with --samples) reports each check once through reports.SampledChecks; the
num commands share the sampled loop _sampled.  Exit status is 0 when every
check passes, 1 on check failures, 2 on bad input (an InputError such as
a parse error or a malformed preset or flag, an OSError, a negative
count or a tolerance that is not finite) and 3 on any other error,
reported as one line on stderr.  All randomness flows from the --seed
flag.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import factorial, isfinite

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
from .numcx import (
    EXACT_SIDES,
    SWAP_CHECKS,
    AliasingError,
    mode_agreement_check,
    residue_swap_check,
)
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


def _euler_dims(multiplicity, wmax: int) -> list:
    """The coefficients of prod_{j >= 1} (1 - q^j)^-multiplicity(j) up to
    q^wmax.  Each factor 1 / (1 - q^j) is a running sum."""
    dims = [1] + [0] * wmax
    for j in range(1, wmax + 1):
        for _ in range(multiplicity(j)):
            for n in range(j, wmax + 1):
                dims[n] += dims[n - j]
    return dims


def _closed_form_dims(P):
    """The weight dimensions of P by a closed form, or None when none
    applies.  On k free generators, whose factor g_m weighs m + 1, they
    are prod (1 - q^j)^-k.  On k generators with the relations c d(g), one
    for each generator g, the quotient is the locally constant one, the
    polynomials in the g_0: C(n + k - 1, k - 1) at weight n, which is
    (1 - q)^-k.  On one generator with the one relation c x^k, k = 2, 3,
    4, they count the partitions with no part congruent to 0 or +-k mod
    2k + 1 (Andrews-Gordon; Rogers-Ramanujan for k = 2)."""
    k = len(P.generators)
    if not P.relations:
        return _euler_dims(lambda j: k, P.wmax)
    monos = [mono for rel in P.relations if len(rel.data) == 1 for mono in rel.data]
    if len(monos) == len(P.relations) == k and set(monos) == {((g, 1),) for g in P.generators}:
        return _euler_dims(lambda j: k if j == 1 else 0, P.wmax)
    if len(P.generators) == 1 and len(P.relations) == 1:
        (x,) = P.generators
        rel = P.relations[0].data
        mono = next(iter(rel))
        k = len(mono)
        if len(rel) == 1 and 2 <= k <= 4 and set(mono) == {(x, 0)}:
            return _euler_dims(lambda j: 0 if j % (2 * k + 1) in (0, k, k + 1) else 1, P.wmax)
    return None


def cmd_jet_build(args, P, preset) -> list:
    detail = {"generators": list(P.generators), "max_weight": P.wmax}
    ok = True
    if args.dims:
        detail["dims"] = P.dims()
        closed = _closed_form_dims(P)
        if closed is not None:
            # Counted without the build's monomials, so a basis it lost shows.
            detail["dims_closed_form"] = closed
            ok = detail["dims"] == closed
    if args.basis is not None:
        detail["basis"] = [format_monomial(m) for m in P.weight_basis(args.basis)]
    return [check_entry("build", ok, detail)]


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
        exact = check_entry(EXACT_SIDES, result[EXACT_SIDES], {})
        return states, result["checks"] + [exact]

    return _sampled(args, [*SWAP_CHECKS, EXACT_SIDES], sample)


def vars_of(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def non_negative_int(text: str) -> int:
    """argparse type of --samples, --nmax and --basis: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def finite_float(text: str) -> float:
    """argparse type of --tolerance: a finite float.  A negative one is
    valid and fails every check; nan and +-inf are bad input, not a
    tolerance that fails or passes every check."""
    value = float(text)
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


# The flags of every command: the presentation, the preset and the report.
_COMMON = (
    ("--preset", {"help": "scenario JSON file"}),
    ("--out", {"help": "write the JSON report here instead of stdout"}),
    ("--gens", {"help": "comma-separated generator names"}),
    ("--relations", {"help": "semicolon-separated relation expressions"}),
    ("--max-weight", {"type": int}),
)
_NODES = ("--nodes", {"type": int, "default": 128})

# Every command once: (group, name, handler, help, default --samples, own
# flags), each flag a (name, add_argument keywords) pair.  A command with a
# default --samples takes --samples and --seed after the common flags; one
# with None takes neither.
COMMANDS = (
    ("jet", "build", cmd_jet_build, "build a presentation and list dimensions", None,
     (("--dims", {"action": "store_true", "help": "list weight-space dimensions"}),
      ("--basis", {"type": non_negative_int, "help": "list the basis of this weight"}))),
    ("vertex", "modes", cmd_vertex_modes, "modes of the field of one state on another", None,
     (("--a", {"required": True}), ("--b", {"required": True}), ("--n", {"type": int}))),
    ("vertex", "check", cmd_vertex_check, "vacuum, translation, locality axiom suite", 50, ()),
    ("fact", "check", cmd_fact_check, "structure-map and equivariance axiom suite", 30, ()),
    ("fact", "coeq", cmd_fact_coeq, "gluing check on a nested disk chain", None,
     (("--radii", {"default": "1,2,4"}),)),
    ("fact", "adjunction", cmd_fact_adjunction, "round trips of the morphism correspondence",
     20, ()),
    ("reconstruct", "roundtrip", cmd_reconstruct_roundtrip,
     "reconstructed structure against the source", None, ()),
    ("num", "laurent", cmd_num_laurent, "numeric Laurent coefficients against exact modes", 3,
     (("--nmax", {"type": non_negative_int, "default": 6}), _NODES,
      ("--tolerance", {"type": finite_float, "default": 1e-9}))),
    ("num", "swap", cmd_num_swap, "iterated contour orders of the weighted insertion", 5,
     (("--nmax", {"type": non_negative_int, "default": 2}), _NODES,
      ("--tolerance", {"type": finite_float, "default": 1e-8}))),
)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of COMMANDS, under its group's; the groups
    appear in the order of their first rows."""
    ap = argparse.ArgumentParser(prog="jetfact")
    sub = ap.add_subparsers(dest="group", required=True)
    groups = {}
    for group, name, func, text, samples, flags in COMMANDS:
        if group not in groups:
            groups[group] = sub.add_parser(group).add_subparsers(dest="cmd", required=True)
        p = groups[group].add_parser(name, help=text)
        if samples is not None:
            sampling = ("--samples", {"type": non_negative_int, "default": samples})
            flags = (sampling, ("--seed", {"type": int, "default": 0}), *flags)
        for flag, keywords in (*_COMMON, *flags):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
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
