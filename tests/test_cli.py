import json
import platform

import pytest

import jetfact
from jetfact import cli, factalg
from jetfact.cli import build_parser, run
from jetfact.jetalg import AlgebraPresentation


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_jet_build_dims(tmp_path):
    code, report = run_json(
        ["jet", "build", "--gens", "x", "--max-weight", "6", "--dims"], tmp_path
    )
    assert code == 0
    assert report["command"] == "jet build"
    assert report["checks"][0]["detail"]["dims"] == [1, 1, 2, 3, 5, 7, 11]
    assert report["checks"][0]["detail"]["dims_closed_form"] == [1, 1, 2, 3, 5, 7, 11]


@pytest.mark.parametrize(
    "gens, closed_form",
    [
        ("x", [1, 1, 2, 3, 5, 7, 11]),
        ("x,y", [1, 2, 5, 10, 20, 36, 65]),
        ("x,y,u", [1, 3, 9, 22, 51, 108, 221]),
    ],
)
def test_jet_build_dims_match_the_free_closed_form(gens, closed_form, tmp_path):
    code, report = run_json(
        ["jet", "build", "--gens", gens, "--max-weight", "6", "--dims"], tmp_path
    )
    detail = report["checks"][0]["detail"]
    assert code == 0
    assert detail["dims"] == detail["dims_closed_form"] == closed_form


@pytest.mark.parametrize(
    "relation, closed_form",
    [
        # Rogers-Ramanujan: partitions into parts congruent to +-1 mod 5.
        ("x*x", [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9]),
        # Andrews-Gordon: no part congruent to 0 or +-3 mod 7.
        ("x*x*x", [1, 1, 2, 2, 3, 4, 6, 7, 10, 12, 16, 19, 25]),
    ],
)
def test_jet_build_dims_match_the_andrews_gordon_closed_form(relation, closed_form, tmp_path):
    code, report = run_json(
        ["jet", "build", "--gens", "x", "--relations", relation, "--max-weight", "12", "--dims"],
        tmp_path,
    )
    detail = report["checks"][0]["detail"]
    assert code == 0
    assert detail["dims"] == detail["dims_closed_form"] == closed_form


def test_jet_build_fails_on_a_lost_basis_monomial(tmp_path, monkeypatch):
    weight_basis = AlgebraPresentation.weight_basis

    def dropping(P, delta):
        basis = weight_basis(P, delta)
        return basis[1:] if delta == 3 else basis

    monkeypatch.setattr(AlgebraPresentation, "weight_basis", dropping)
    code, report = run_json(
        ["jet", "build", "--gens", "x", "--max-weight", "6", "--dims"], tmp_path
    )
    assert code == 1
    detail = report["checks"][0]["detail"]
    assert detail["dims"] == [1, 1, 2, 2, 5, 7, 11]
    assert detail["dims_closed_form"] == [1, 1, 2, 3, 5, 7, 11]


def test_jet_build_fails_on_a_deleted_pivot_of_x_squared(tmp_path, monkeypatch):
    # A pivot lost from the saturation of x | x*x leaves one weight a basis
    # monomial too many, which only the closed form can show.
    saturate = AlgebraPresentation._saturate

    def dropping(P):
        saturate(P)
        pivots = P._pivots
        del pivots[next(reversed(pivots))]

    monkeypatch.setattr(AlgebraPresentation, "_saturate", dropping)
    code, report = run_json(
        ["jet", "build", "--gens", "x", "--relations", "x*x", "--max-weight", "8", "--dims"],
        tmp_path,
    )
    detail = report["checks"][0]["detail"]
    assert code == 1
    assert detail["dims"] != detail["dims_closed_form"] == [1, 1, 1, 1, 2, 2, 3, 3, 4]


def test_jet_build_dims_match_the_locally_constant_closed_form(tmp_path):
    # d(x) and d(y) span the locally constant quotient, the polynomials in
    # x and y: C(n + 1, 1) monomials at weight n.
    code, report = run_json(
        ["jet", "build", "--gens", "x,y", "--relations", "d(x);2*d(y)", "--max-weight", "8",
         "--dims"],
        tmp_path,
    )
    detail = report["checks"][0]["detail"]
    assert code == 0
    assert detail["dims"] == detail["dims_closed_form"] == list(range(1, 10))


def test_jet_build_fails_on_a_deleted_pivot_of_the_locally_constant_quotient(
    tmp_path, monkeypatch
):
    saturate = AlgebraPresentation._saturate

    def dropping(P):
        saturate(P)
        pivots = P._pivots
        del pivots[next(reversed(pivots))]

    monkeypatch.setattr(AlgebraPresentation, "_saturate", dropping)
    code, report = run_json(
        ["jet", "build", "--gens", "x,y", "--relations", "d(x);2*d(y)", "--max-weight", "8",
         "--dims"],
        tmp_path,
    )
    detail = report["checks"][0]["detail"]
    assert code == 1
    assert detail["dims"] != detail["dims_closed_form"] == list(range(1, 10))


def test_jet_build_with_relations(tmp_path):
    code, report = run_json(
        ["jet", "build", "--gens", "x,y", "--relations", "x*y", "--max-weight", "6", "--dims"],
        tmp_path,
    )
    assert code == 0
    assert report["checks"][0]["detail"]["dims"] == [1, 2, 4, 7, 12, 19, 30]
    # No closed form applies to a quotient.
    assert "dims_closed_form" not in report["checks"][0]["detail"]


def test_vertex_modes_example(tmp_path):
    code, report = run_json(["vertex", "modes", "--a", "x", "--b", "x", "--n", "-2"], tmp_path)
    assert code == 0
    assert report["checks"][0]["detail"]["mode"] == "x1*x0"


def test_vertex_modes_infers_generators(tmp_path):
    code, report = run_json(
        ["vertex", "modes", "--a", "x*y", "--b", "y", "--n", "-1"], tmp_path
    )
    assert code == 0
    assert "y" in report["checks"][0]["detail"]["mode"]


def test_vertex_check_passes(tmp_path):
    code, report = run_json(
        ["vertex", "check", "--gens", "x", "--max-weight", "5", "--samples", "10"],
        tmp_path,
    )
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_fact_check_zero_samples(tmp_path):
    code, report = run_json(["fact", "check", "--samples", "0"], tmp_path)
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


def test_fact_coeq(tmp_path):
    code, report = run_json(
        ["fact", "coeq", "--gens", "x", "--max-weight", "3", "--radii", "1,2"], tmp_path
    )
    assert code == 0
    assert len(report["checks"]) == 4


def test_fact_adjunction(tmp_path):
    code, report = run_json(
        ["fact", "adjunction", "--gens", "x", "--max-weight", "4", "--samples", "5"],
        tmp_path,
    )
    assert code == 0
    assert [(c["name"], c["detail"]) for c in report["checks"]] == [
        ("extract_after_wrap", {"passed": 5, "samples": 5}),
        ("wrap_after_extract", {"passed": 5, "samples": 5}),
    ]


def test_reconstruct_roundtrip(tmp_path):
    code, report = run_json(
        ["reconstruct", "roundtrip", "--gens", "x", "--max-weight", "4"],
        tmp_path,
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["vacuum", "translation", "modes"]


NUM_CHECKS = {
    "laurent": ["numeric_symbolic_modes"],
    "swap": [
        "iterated_orders_agree",
        "matches_mode_sum_first_order",
        "matches_mode_sum_second_order",
        "exact_sides_equal",
    ],
}


def test_num_laurent(tmp_path):
    code, report = run_json(
        ["num", "laurent", "--gens", "x", "--max-weight", "4", "--samples", "2"],
        tmp_path,
    )
    assert code == 0


def test_num_swap(tmp_path):
    code, report = run_json(
        ["num", "swap", "--gens", "x", "--max-weight", "4", "--samples", "2"], tmp_path
    )
    assert code == 0
    assert [c["name"] for c in report["checks"]] == NUM_CHECKS["swap"]


def test_num_laurent_too_few_nodes_exits_two(tmp_path, capsys):
    # Every sample runs before the error, which names the largest node
    # count any sample needs, so that count serves them all.
    argv = ["num", "laurent", "--samples", "5"]
    for nodes in ("8", "11"):
        assert run(argv + ["--nodes", nodes, "--out", str(tmp_path / "r.json")]) == 2
        assert "need at least 12 nodes" in capsys.readouterr().err
    code, report = run_json(argv + ["--nodes", "12"], tmp_path)
    assert code == 0
    assert all(c["status"] == "pass" for c in report["checks"])


@pytest.mark.parametrize("cmd", ["laurent", "swap"])
def test_num_zero_samples_runs_none(cmd, tmp_path):
    # As vertex check --samples 0 does: every check once, 0 of 0 passed.
    code, report = run_json(
        ["num", cmd, "--gens", "x", "--max-weight", "3", "--samples", "0"], tmp_path
    )
    assert code == 0
    assert report["params"]["samples"] == 0
    assert report["checks"] == [
        {"name": name, "status": "pass", "detail": {"passed": 0, "samples": 0}}
        for name in NUM_CHECKS[cmd]
    ]


SMALL =["--gens", "x", "--max-weight", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["jet", "build", *SMALL, "--dims"],
        ["vertex", "modes", "--a", "x", "--b", "x"],
        ["vertex", "check", *SMALL, "--samples", "2"],
        ["fact", "check", *SMALL, "--samples", "1"],
        ["fact", "coeq", *SMALL, "--radii", "1,2"],
        ["fact", "adjunction", *SMALL, "--samples", "1"],
        ["reconstruct", "roundtrip", *SMALL],
        ["num", "laurent", *SMALL, "--samples", "1", "--nodes", "32"],
        ["num", "swap", *SMALL, "--samples", "1", "--nodes", "32"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_every_subcommand_reports(argv, tmp_path):
    code, report = run_json(argv, tmp_path)
    assert code == 0
    assert report["command"] == " ".join(argv[:2])
    parsed = vars(build_parser().parse_args(argv))
    expected = {
        k: v for k, v in parsed.items() if k not in ("func", "out") and v is not None
    }
    assert report["params"] == expected
    assert report["checks"]
    assert isinstance(report["timing_ms"], int)
    assert isinstance(report["elapsed_ms"], float)
    assert report["elapsed_ms"] > 0
    assert report["version"] == jetfact.__version__
    assert report["backend"] == jetfact.KERNEL_BACKEND
    assert report["python"] == platform.python_version()
    if "--samples" in argv:
        # A sampling command reports each check once, over all its samples;
        # vertex check's translation_is_jet is checked once per presentation.
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))
        samples = int(argv[argv.index("--samples") + 1])
        sampled = [c for c in report["checks"] if c["name"] != "translation_is_jet"]
        assert all(c["detail"]["samples"] == samples for c in sampled)


def test_parse_error_exit_code(capsys):
    assert run(["vertex", "modes", "--a", "x+%", "--b", "x"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["nonsense"]) == 2
    assert run([]) == 2


def test_unknown_generator_is_parse_error():
    assert run(["vertex", "modes", "--a", "q", "--b", "x", "--gens", "x"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fact", "coeq", "--radii", "1,1/0"],
        ["jet", "build", "--gens", "x", "--relations", "x*1/0"],
        ["vertex", "modes", "--a", "1/0*x", "--b", "x"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_zero_denominator_exits_two(argv, capsys):
    assert run(argv) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        [{"presentation": {"generators": ["x"]}}],
        {"presentation": 5},
        {"checks": [5]},
        {"checks": [{"samples": -1}]},
        {"geometry": [{"c": ["0", "0"], "r": "1"}]},
        {"presentation": {"generators": 5}},
        {"checks": [{"seed": [1]}]},
        {"geometry": {"g": 5}},
        {"checks": [{}, {}]},
        {"checks": [{"samples": True}]},
        {"checks": [{"seed": False}]},
        {"geometry": {"L": [{"c": ["a", "0"], "r": "1"}]}},
        {"geometry": {"L": [{"c": ["0", "0"], "r": "1/0"}]}},
        {"geometry": {"L": [{"c": ["0", "0"]}]}},
        {"geometry": {"L": [{"c": ["0"], "r": "1"}]}},
        {"geometry": {"U": {"regions": [[{"c": ["0", "0"], "r": "x"}]]}}},
        {"geometry": {"L": [{"c": [True, 0], "r": True}]}},
    ],
    ids=[
        "top-level list",
        "presentation number",
        "checks of numbers",
        "negative samples",
        "geometry list",
        "generators number",
        "seed list",
        "geometry entry number",
        "two checks entries",
        "boolean samples",
        "boolean seed",
        "disk center not a number",
        "disk radius 1/0",
        "disk without radius",
        "disk center of one number",
        "region disk radius not a number",
        "disk of booleans",
    ],
)
def test_malformed_preset_exits_two(doc, tmp_path, capsys):
    preset = tmp_path / "scenario.json"
    preset.write_text(json.dumps(doc))
    assert run(["fact", "check", "--preset", str(preset), "--samples", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fact", "check", "--samples", "-1"],
        ["vertex", "check", "--samples", "-2"],
        ["fact", "adjunction", "--samples", "-2"],
        ["num", "swap", "--samples", "-2"],
        ["num", "laurent", "--nmax", "-1"],
        ["jet", "build", "--basis", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_negative_count_exits_two(argv, capsys):
    assert run([*argv, *SMALL]) == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["laurent", "swap"])
def test_non_finite_tolerance_exits_two(command, value, capsys):
    # A finite negative tolerance fails every check; nan and +-inf are bad
    # input, not a tolerance.
    assert run(["num", command, f"--tolerance={value}", *SMALL]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["jet", "build", "--seed", "1"],
        ["vertex", "modes", "--a", "x", "--b", "x", "--seed", "1"],
        ["fact", "coeq", "--seed", "1"],
        ["reconstruct", "roundtrip", "--seed", "1"],
        ["reconstruct", "roundtrip", "--nmax", "4"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_flag_without_effect_is_refused(argv, capsys):
    # Only the sampling commands take --seed, and nmax changes nothing in
    # the roundtrip check, so these commands do not know these flags.
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_internal_fault_exits_three(monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_coequalizer_chain", boom)
    assert run(["fact", "coeq"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_value_error_inside_a_structure_map_exits_three(monkeypatch, capsys):
    # Only an InputError is bad input; any other ValueError is a fault.
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(factalg, "corestrict", boom)
    assert run(["fact", "check", "--samples", "1"]) == 3
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fact", "coeq", "--radii", "2,1"],
        ["fact", "coeq", "--radii", "0,1"],
        ["fact", "coeq", "--radii", "a"],
        ["jet", "build", "--gens", "x,x"],
        ["jet", "build", "--max-weight", "-1"],
        ["fact", "check", "--relations", "1", "--samples", "1"],
        ["fact", "check", "--preset", __file__],
        ["fact", "adjunction", "--gens", "x,y", "--relations", "x*y", "--samples", "3"],
        ["jet", "build", "--max-weight", "6", "--basis", "99"],
    ],
    ids=[
        "decreasing radii",
        "zero radius",
        "radius not a number",
        "repeated generator",
        "negative max weight",
        "zero algebra",
        "preset not JSON",
        "adjunction with relations",
        "basis above max weight",
    ],
)
def test_bad_input_is_an_input_error(argv, capsys):
    assert issubclass(jetfact.InputError, ValueError)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["jet", "build", "--gens", "x y", "--dims"], "x y"),
        (["jet", "build", "--gens", "1x,y"], "1x"),
        (["vertex", "check", "--gens", "x y"], "x y"),
    ],
    ids=["space in a name", "leading digit", "vertex check"],
)
def test_generator_name_outside_the_grammar_is_an_input_error(argv, name, capsys):
    # No relation or state could name such a generator.
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: generator name {name!r} is not an identifier\n"


def test_reports_deterministic(tmp_path):
    _, r1 = run_json(
        ["vertex", "check", "--gens", "x", "--max-weight", "4", "--samples", "5", "--seed", "3"],
        tmp_path,
        "a.json",
    )
    _, r2 = run_json(
        ["vertex", "check", "--gens", "x", "--max-weight", "4", "--samples", "5", "--seed", "3"],
        tmp_path,
        "b.json",
    )
    for r in (r1, r2):
        r.pop("timing_ms")
        r.pop("elapsed_ms")
    assert r1 == r2


def test_preset_file(tmp_path):
    preset = tmp_path / "scenario.json"
    preset.write_text(
        json.dumps(
            {
                "presentation": {
                    "generators": ["x", "y"],
                    "relations": ["x*y"],
                    "max_weight": 4,
                },
                "geometry": {
                    "pair": [
                        {"c": ["0", "0"], "r": "1"},
                        {"c": ["3", "0"], "r": "1"},
                    ],
                    "lens": {
                        "regions": [
                            [
                                {"c": ["0", "0"], "r": "1"},
                                {"c": ["1", "0"], "r": "1"},
                            ]
                        ]
                    },
                },
                "checks": [{"samples": 2, "seed": 1}],
            }
        )
    )
    code, report = run_json(["fact", "check", "--preset", str(preset)], tmp_path)
    assert code == 0
    assert report["params"]["preset"] == str(preset)
    geo = next(c for c in report["checks"] if c["name"] == "geometry_pair")
    assert geo["status"] == "pass" and geo["detail"]["disks"] == 2
    lens = next(c for c in report["checks"] if c["name"] == "geometry_lens")
    assert lens["status"] == "pass" and lens["detail"]["regions"] == 1

    code, report = run_json(["jet", "build", "--preset", str(preset), "--dims"], tmp_path)
    assert code == 0
    assert report["checks"][0]["detail"]["dims"] == [1, 2, 4, 7, 12]


def test_preset_with_presentation_path(tmp_path):
    pres = tmp_path / "algebra.json"
    pres.write_text(
        json.dumps({"generators": ["x"], "relations": ["x*x"], "max_weight": 5})
    )
    preset = tmp_path / "scenario.json"
    preset.write_text(json.dumps({"presentation": str(pres)}))
    code, report = run_json(["jet", "build", "--preset", str(preset), "--dims"], tmp_path)
    assert code == 0
    assert report["checks"][0]["detail"]["dims"] == [1, 1, 1, 1, 2, 2]


def test_preset_with_no_checks_entry_runs_no_structure_checks(tmp_path):
    preset = tmp_path / "scenario.json"
    preset.write_text(json.dumps({"checks": []}))
    code, report = run_json(["fact", "check", "--preset", str(preset)], tmp_path)
    assert code == 0
    assert report["checks"] == []


def test_preset_rejects_overlapping_geometry(tmp_path):
    preset = tmp_path / "scenario.json"
    preset.write_text(
        json.dumps(
            {
                "presentation": {"generators": ["x"], "max_weight": 4},
                "geometry": {
                    "bad": [
                        {"c": ["0", "0"], "r": "1"},
                        {"c": ["1", "0"], "r": "1"},
                    ]
                },
                "checks": [{"samples": 0}],
            }
        )
    )
    code, report = run_json(["fact", "check", "--preset", str(preset)], tmp_path)
    assert code == 1
    geo = next(c for c in report["checks"] if c["name"] == "geometry_bad")
    assert geo["status"] == "fail"


@pytest.mark.parametrize(
    "doc",
    [
        [{"c": ["0", "0"], "r": "0"}],
        [{"c": ["0", "0"], "r": "-1"}],
        {"regions": [[{"c": ["0", "0"], "r": "1"}, {"c": ["3", "0"], "r": "1"}]]},
        {"regions": [[{"c": ["0", "0"], "r": "1"}], [{"c": ["1", "0"], "r": "1"}]]},
    ],
    ids=["zero radius", "negative radius", "disconnected region", "overlapping regions"],
)
def test_preset_geometry_that_parses_but_fails_is_a_failed_check(doc, tmp_path):
    # Well-formed disks that break a rule of the geometry fail their check
    # (exit 1); only input that does not parse exits 2.
    preset = tmp_path / "scenario.json"
    preset.write_text(json.dumps({"geometry": {"g": doc}, "checks": []}))
    code, report = run_json(["fact", "check", "--preset", str(preset)], tmp_path)
    assert code == 1
    [check] = report["checks"]
    assert (check["name"], check["status"]) == ("geometry_g", "fail")
    assert check["detail"]["error"]


def test_report_to_stdout(capsys):
    code = run(["jet", "build", "--gens", "x", "--max-weight", "3", "--dims"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["detail"]["dims"] == [1, 1, 2, 3]


def test_failing_check_exits_one(tmp_path):
    # An unsatisfiable tolerance forces a fail record and exit status 1.
    code, report = run_json(
        [
            "num",
            "laurent",
            "--gens",
            "x",
            "--max-weight",
            "4",
            "--samples",
            "1",
            "--tolerance",
            "-1",
        ],
        tmp_path,
    )
    assert code == 1
    assert any(c["status"] == "fail" for c in report["checks"])
