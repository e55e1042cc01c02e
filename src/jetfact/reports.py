"""Machine-readable check reports shared by the axiom harnesses and CLI."""

from __future__ import annotations

import platform
import time

from ._kernels import BACKEND as KERNEL_BACKEND

__all__ = ["check_entry", "SampledChecks", "make_report", "all_pass"]


def check_entry(name: str, ok: bool, detail) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


class SampledChecks:
    """Pass counts and first counterexamples of checks run once per sample."""

    def __init__(self, names):
        self.names = list(names)
        self.passes = dict.fromkeys(self.names, 0)
        self.failures = {}

    def record(self, name: str, ok: bool, detail) -> None:
        """Count a pass, or keep the first failure's counterexample.

        detail is a function of no arguments returning the counterexample;
        it is called only for the first failure of each check.
        """
        if ok:
            self.passes[name] += 1
        elif name not in self.failures:
            self.failures[name] = detail()

    def entries(self, samples: int) -> list:
        """One check entry per name; it passes only if every sample did."""
        checks = []
        for name in self.names:
            ok = self.passes[name] == samples
            detail = {"passed": self.passes[name], "samples": samples}
            if not ok:
                detail["first_counterexample"] = self.failures.get(name)
            checks.append(check_entry(name, ok, detail))
        return checks


def make_report(command: str, params: dict, checks: list, started: float) -> dict:
    """The report of one command, with an envelope naming what produced it.

    timing_ms is the whole-millisecond count it always was; elapsed_ms is
    the same wall time as a float, so sub-millisecond commands read nonzero.
    """
    from . import __version__  # read here: this module loads during package init

    elapsed_ms = (time.perf_counter() - started) * 1000
    return {
        "command": command,
        "params": params,
        "checks": checks,
        "timing_ms": int(elapsed_ms),
        "elapsed_ms": elapsed_ms,
        "version": __version__,
        "backend": KERNEL_BACKEND,
        "python": platform.python_version(),
    }


def all_pass(checks) -> bool:
    return all(c["status"] == "pass" for c in checks)
