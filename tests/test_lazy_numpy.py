"""The exact commands run without the numeric stack: numpy and dataclasses
stay unloaded until a num command runs.

Each check runs in a fresh interpreter, since this test process has
imported numpy already (through tests/test_numcx.py and others), which
would hide an import that slipped back in.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from test_readme import command_lines

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each command line of argv[1] (a JSON list) in turn and prints, for
# the import and after each run, its exit code and the heavy modules loaded.
SCRIPT = """
import json, sys, tempfile
from pathlib import Path

from jetfact import cli

HEAVY = ("numpy", "dataclasses")


def loaded():
    return [m for m in HEAVY if m in sys.modules]


steps = [("import", None, loaded())]
with tempfile.TemporaryDirectory() as tmp:
    out = str(Path(tmp) / "report.json")
    for argv in json.loads(sys.argv[1]):
        code = cli.run(argv + ["--out", out])
        steps.append((" ".join(argv[:2]), code, loaded()))
print(json.dumps(steps))
"""


def run_fresh(lines):
    argvs = [shlex.split(line)[1:] for line in lines]
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return [tuple(step) for step in json.loads(done.stdout)]


def test_exact_commands_load_no_numpy_and_num_laurent_loads_it():
    lines = command_lines()
    exact = [line for line in lines if not line.startswith("jetfact num ")]
    laurent = [line for line in lines if line.startswith("jetfact num laurent ")]
    assert len(exact) == 7 and len(laurent) == 1
    steps = run_fresh(exact + laurent)
    assert steps[:-1] == [("import", None, [])] + [
        (" ".join(shlex.split(line)[1:3]), 0, []) for line in exact
    ]
    # The numeric check imports numpy on its first call and passes.
    assert steps[-1] == ("num laurent", 0, ["numpy"])
