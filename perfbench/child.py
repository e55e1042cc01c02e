"""One measurement in a fresh interpreter; started by run.py.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup         import jetfact.cli, build the workload's inputs, stop;
  run           the same, then run ops in whole rounds for SECONDS;
  trace         the same set-up, microbenchmarks, then paired untraced and
                traced runs of the first round's ops for SECONDS/2.

PERFBENCH_T0 in the environment is the parent's ``time.monotonic()`` just
before it started this process, so set-up time includes interpreter start.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from calibrate import BLOCK_UNITS, REFERENCES, Clock, ref_seconds
from workloads import WORKLOAD_CLASSES, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPAN_CAP = 50_000

sys.path.insert(0, str(SRC))


def load_jetfact():
    """Import jetfact the way the CLI does and return its modules."""
    import jetfact
    import jetfact.cli  # noqa: F401  (the CLI's whole import graph, numpy included)

    where = Path(jetfact.__file__).resolve()
    if SRC not in where.parents:
        raise RuntimeError(f"jetfact imported from {where}, not from {SRC}")
    m = sys.modules
    return SimpleNamespace(
        package=jetfact,
        scalars=m["jetfact.scalars"],
        kernels=m["jetfact._kernels"],
        jetalg=m["jetfact.jetalg"],
        vertex=m["jetfact.vertex"],
        factalg=m["jetfact.factalg"],
        reconstruct=m["jetfact.reconstruct"],
        numcx=m["jetfact.numcx"],
        sampling=m["jetfact.sampling"],
    )


def environment(jf) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jetfact": jf.package.__version__,
        "kernel_backend": jf.package.KERNEL_BACKEND,
    }


def negative_control(jf, seed: int) -> bool:
    """The sections harness must still catch a broken corestriction."""
    P = jf.jetalg.AlgebraPresentation(["x"], [], 6)
    report = jf.factalg.check_pfa_axioms(P, samples=1, seed=seed, corrupt=True)
    return any(
        c["name"] == "negative_control" and c["status"] == "pass" for c in report["checks"]
    )


class OpLog:
    """Outcome of every op: time, pass or fail, first error, basis pairs.

    Times are kept by the shared clock; ``calls`` indexes this log's ops in
    it.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.calls = []
        self.failed = 0
        self.first_error = None
        self.last_pairs = 0

    def run(self, wl, inp, call=None):
        """Run one op (through ``call`` when given) and return its digest."""
        out, _ = self.clock.time(call or (lambda f, x: f(x)), wl.run_op, inp)
        self.calls.append(len(self.clock.calls) - 1)
        if isinstance(out, Exception):  # an op that raises counts as failed
            ok, fields, pairs = False, None, 0
            if self.first_error is None:
                self.first_error = "".join(
                    traceback.format_exception(type(out), out, out.__traceback__, limit=4)
                )
        else:
            ok, fields, pairs = out
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"failing checks in op {len(self.calls) - 1}"
        self.last_pairs = pairs
        return digest(fields)

    def raw_times(self):
        return [self.clock.calls[i][1] for i in self.calls]

    def times(self):
        """Calibrated seconds of this log's ops."""
        calibrated = self.clock.calibrated()
        return [calibrated[i] for i in self.calls]


def start(workload: str, seed: int):
    t0 = float(os.environ["PERFBENCH_T0"])
    jf = load_jetfact()
    wl = WORKLOAD_CLASSES[workload](jf, seed)
    wl.setup()
    rounds = wl.rounds()
    first = next(rounds)
    setup_s = time.monotonic() - t0
    ref_seconds()
    after = ref_seconds(BLOCK_UNITS)
    return jf, wl, rounds, first, {"setup_s": setup_s, "ref_after_setup_s": after}


def mode_run(workload, seed, seconds):
    jf, wl, rounds, batch, setup = start(workload, seed)
    log = OpLog(Clock(wl.sensitivity, REFERENCES[wl.reference]))
    begin = time.perf_counter()
    round0 = [log.run(wl, inp) for inp in batch]
    while time.perf_counter() - begin < seconds:
        for inp in next(rounds):
            log.run(wl, inp)
    elapsed = time.perf_counter() - begin
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        **setup,
        "elapsed_s": elapsed,
        "op_s": log.times(),
        "raw_op_s": log.raw_times(),
        "ref_s": log.clock.samples,
        "attempted": len(log.calls),
        "failed": log.failed,
        "first_error": log.first_error,
        "digest": digest(round0),
        "peak_rss_mb": peak_rss_mb,
        "negative_control": negative_control(jf, seed),
        "env": environment(jf),
    }


def mode_trace(workload, seed, seconds):
    from catalog import PACKAGE, SKIP_MODULES, TARGETS
    from layers import LayerStats
    from micro import run_micro
    from tracer import Tracer

    jf, wl, _, batch, setup = start(workload, seed)
    micro = run_micro(jf, seed)
    clock = Clock(wl.sensitivity, REFERENCES[wl.reference])
    tracer = Tracer(PACKAGE, SKIP_MODULES)
    stats = LayerStats(SPAN_CAP)
    untraced, traced = OpLog(clock), OpLog(clock)
    digests, mismatches, restored = [], 0, True
    passes = 0
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < seconds / 2:
        # Each input runs untraced and traced; the order alternates by pass
        # so that neither side always finds caches the other warmed.
        for inp in batch:
            pair = {}
            for with_trace in (False, True) if passes % 2 == 0 else (True, False):
                if not with_trace:
                    pair[False] = untraced.run(wl, inp)
                    continue
                tracer.install(TARGETS)
                patched = list(tracer.patches)
                try:
                    pair[True] = traced.run(
                        wl, inp, lambda fn, x: tracer.run_op(len(traced.calls), fn, x)
                    )
                finally:
                    tracer.uninstall()
                restored = restored and all(
                    vars(holder)[key] is original for holder, key, original in patched
                )
                stats.add_op(*tracer.take(), traced.last_pairs)
            mismatches += pair[True] != pair[False]
            if passes == 0:
                digests.append(pair[False])
        passes += 1
    spans_file = stats.write_spans(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")
    # Spans hold raw times; scale them like the traced ops' own times.
    scale = sum(traced.times()) / sum(traced.raw_times())
    metrics = stats.metrics(micro, sum(untraced.times()), scale)
    metrics.update(micro)
    return {
        **setup,
        "attempted": len(untraced.calls) + len(traced.calls),
        "failed": untraced.failed + traced.failed,
        "first_error": untraced.first_error or traced.first_error,
        "digest": digest(digests),
        "traced_digest_mismatches": mismatches,
        "wrappers_restored": restored,
        "passes": passes,
        "traced_ops": len(traced.calls),
        "spans_file": spans_file,
        "metrics": metrics,
        "negative_control": negative_control(jf, seed),
        "env": environment(jf),
    }


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    if mode == "setup":
        out = start(workload, seed)[-1]
    elif mode == "run":
        out = mode_run(workload, seed, seconds)
    elif mode == "trace":
        out = mode_trace(workload, seed, seconds)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
