"""jetfact benchmark: four seeded workloads, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; jetfact is imported from ./src and
nothing is installed.  Workloads (see catalog.WORKLOADS and BENCHMARK.json):
sections, roundtrip, elimination, contour.

--trace 0  measures end to end.  Set-up is timed in SETUP_SAMPLES fresh
           interpreters (after one discarded warm-up that compiles bytecode);
           the last of them then runs ops, one at a time on one thread, in
           whole rounds until S seconds have passed.
--trace 1  gives per-layer numbers: microbenchmarks, fresh-interpreter
           import times, and the first round's ops run both untraced and
           under span wrappers, repeated until S/2 seconds have passed.

All processes are pinned to one processor, and every time reported is
calibrated against reference units of fixed work timed beside it (see
calibrate.py); the detail line also gives the raw figures.

Every op's report must pass all its checks, the harness's negative control
must catch a broken corestriction, and (traced) wrapped and unwrapped runs
must produce identical reports.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; the line before it holds
the details (environment, digest, tail percentile).  The exit status is 0
only when the run is correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import BLOCK_UNITS, REFERENCES, calibrate, ref_seconds  # noqa: E402
from catalog import END_TO_END, NO_WAIT_NOTE, PER_LAYER, WORKLOADS  # noqa: E402
from workloads import WORKLOAD_CLASSES  # noqa: E402

SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
TIME_LIMIT_S = 170


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _start(cmd, env, what: str, deadline: float) -> dict:
    """Run one fresh interpreter, stopped at the deadline; return its last
    line of output as JSON."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{what} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(
            f"{what} exited with {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def spawn(mode: str, args, deadline: float) -> dict:
    """Run child.py in MODE; its set-up time comes back calibrated by the
    reference unit measured here just before the start and in the child
    just after set-up."""
    env = _child_env()
    cmd = [sys.executable, str(HERE / "child.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    ref_before = ref_seconds(BLOCK_UNITS)
    env["PERFBENCH_T0"] = repr(time.monotonic())
    res = _start(cmd, env, f"{mode} child", deadline)
    res["setup_raw_s"] = res["setup_s"]
    res["setup_s"] = calibrate(res["setup_s"], ref_before, res["ref_after_setup_s"])
    return res


_IMPORT_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import {module}
elapsed = time.perf_counter() - t0
import jetfact, json
sys.path.insert(0, {here!r})
from calibrate import ref_seconds
if not jetfact.__file__.startswith({src!r}):
    sys.exit("jetfact was not imported from the checkout")
ref_seconds()
print(json.dumps({{"import_s": elapsed, "ref_s": ref_seconds({units})}}))
"""


def time_import(module: str, deadline: float) -> float:
    """Calibrated milliseconds of ``import module`` in a fresh interpreter
    that has imported nothing else."""
    code = _IMPORT_CODE.format(
        src=str(ROOT / "src"), here=str(HERE), module=module, units=BLOCK_UNITS
    )
    ref_before = ref_seconds(BLOCK_UNITS)
    res = _start([sys.executable, "-c", code], _child_env(), f"import {module}", deadline)
    return calibrate(res["import_s"], ref_before, res["ref_s"]) * 1e3


def percentile(values, level: float):
    """(value, ops beyond it): the nearest-rank percentile at ``level``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def measure_end_to_end(args, deadline):
    spawn("setup", args, deadline)  # warm-up: writes bytecode caches
    runs = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = spawn("run", args, deadline)
    runs.append(res)
    setups = [r["setup_s"] for r in runs]
    raw, ops = res["raw_op_s"], res["op_s"]
    wl = WORKLOAD_CLASSES[args.workload]
    level = wl.tail_percentile
    tail_s, beyond = percentile(ops, level)
    values = {
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "ops": len(ops),
        "elapsed_s": res["elapsed_s"],
        "tail_percentile": level,
        "tail_ops_beyond": beyond,
        "fail_ratio": res["failed"] / len(ops),
        "setup_samples_s": setups,
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": percentile(raw, level)[0] * 1e3,
            "setup_s": statistics.median(r["setup_raw_s"] for r in runs),
        },
        "ref_ms": {
            "unit": wl.reference,
            "nominal": REFERENCES[wl.reference].nominal_s * 1e3,
            "min": min(res["ref_s"]) * 1e3,
            "median": statistics.median(res["ref_s"]) * 1e3,
            "max": max(res["ref_s"]) * 1e3,
        },
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    return res, values, units, detail, True


def measure_traced(args, deadline):
    imports = {}
    for module, name in (("jetfact.cli", "cli.import_ms"), ("numpy", "cli.numpy_import_ms")):
        time_import(module, deadline)  # warm-up: writes bytecode caches
        imports[name] = statistics.median(
            time_import(module, deadline) for _ in range(IMPORT_SAMPLES)
        )
    res = spawn("trace", args, deadline)
    values = dict(res["metrics"])
    values.update(imports)
    detail = {
        "traced_ops": res["traced_ops"],
        "passes": res["passes"],
        "traced_digest_mismatches": res["traced_digest_mismatches"],
        "wrappers_restored": res["wrappers_restored"],
        "spans_file": res["spans_file"],
        "time_waited": NO_WAIT_NOTE,
    }
    ok = res["traced_digest_mismatches"] == 0 and res["wrappers_restored"]
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return res, values, units, detail, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jetfact" / "__init__.py").is_file():
        print(f"error: no jetfact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    # One processor for this process and every child: the reference units
    # and the ops they calibrate then run on the same processor.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    load_start = loadavg()
    try:
        measure = measure_traced if args.trace else measure_end_to_end
        res, values, units, detail, ok = measure(args, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    correct = ok and res["failed"] == 0 and res["negative_control"]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        digest=res["digest"],
        negative_control=res["negative_control"],
        first_error=res["first_error"],
        env=dict(
            res["env"],
            nproc=os.cpu_count(),
            pinned_cpu=cpu,
            git_sha=git_sha(),
            loadavg_start=load_start,
            loadavg_end=loadavg(),
        ),
    )
    moves = {name: f"  -> {text}" for name, _, _, text in PER_LAYER} if args.trace else {}
    for name in units:
        print(f"{name:<44} {values[name]:>14.6g} {units[name]:<10}{moves.get(name, '')}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
