import json
import platform

import pytest

import jetfact
from jetfact import cli, factalg
from jetfact.cli import build_parser, run


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


def test_jet_build_with_relations(tmp_path):
    code, report = run_json(
        ["jet", "build", "--gens", "x,y", "--relations", "x*y", "--max-weight", "6", "--dims"],
        tmp_path,
    )
    assert code == 0
    assert report["checks"][0]["detail"]["dims"] == [1, 2, 4, 7, 12, 19, 30]


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


def test_reconstruct_roundtrip(tmp_path):
    code, report = run_json(
        ["reconstruct", "roundtrip", "--gens", "x", "--max-weight", "4"],
        tmp_path,
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["vacuum", "translation", "modes"]


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
    code, report = run_json(
        ["num", cmd, "--gens", "x", "--max-weight", "3", "--samples", "0"], tmp_path
    )
    assert code == 0
    assert report["params"]["samples"] == 0
    assert report["checks"] == []


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
    ],
    ids=lambda argv: " ".join(argv),
)
def test_negative_count_exits_two(argv, capsys):
    assert run([*argv, *SMALL]) == 2
    assert "must be non-negative" in capsys.readouterr().err


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
    ],
    ids=[
        "decreasing radii",
        "zero radius",
        "radius not a number",
        "repeated generator",
        "negative max weight",
        "zero algebra",
        "preset not JSON",
    ],
)
def test_bad_input_is_an_input_error(argv, capsys):
    assert issubclass(jetfact.InputError, ValueError)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


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
