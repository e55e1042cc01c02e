"""The nine README reports, compared exactly with tests/golden/readme_reports.json.

Each README command runs in-process through the CLI; its report, less the
fields that name the run rather than the result (timing_ms, elapsed_ms,
python), must equal the stored one, the num commands' floats included.
So a change that moves a normal form, a mode, a dimension or a numeric
gap fails here even when every check of the report still passes.  A
change that means to move a report edits the file in the same diff; to
regenerate it from the working tree, run from the repository root

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write()"
"""

import json
import shlex
from pathlib import Path

import pytest

from jetfact.cli import run

from test_readme import command_lines

GOLDEN = Path(__file__).resolve().parent / "golden" / "readme_reports.json"
VOLATILE = ("timing_ms", "elapsed_ms", "python")


def report_of(line: str, out: Path) -> dict:
    """The report of one README command line, less its volatile fields."""
    run(shlex.split(line)[1:] + ["--out", str(out)])
    report = json.loads(out.read_text())
    for key in VOLATILE:
        del report[key]
    return report


def write():
    """Rewrite the golden file from the README commands' current reports."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {line: report_of(line, Path(tmp) / "report.json") for line in command_lines()}
    GOLDEN.write_text(json.dumps(reports, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_holds_every_readme_command(golden):
    assert list(golden) == command_lines()


@pytest.mark.parametrize("line", command_lines())
def test_readme_report_matches_golden(line, golden, tmp_path):
    assert report_of(line, tmp_path / "report.json") == golden[line]
