#!/usr/bin/env python3
"""Check that the benchmark's correctness gate catches wrong results.

    python3 perfbench/check_gate.py

For each workload, one package function is made to return a slightly wrong
value inside this process, and a one-second run of that workload must then
report ``failed`` > 0 and ``correct`` false and return a nonzero exit
status.  For the CLI session the perturbed function feeds the in-process
reference, so the subprocess output no longer matches it.  Prints one line
per workload and exits 1 if any perturbation went unnoticed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import sys

import run


def _shift_holevo(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1e-6


def _inflate_heterodyne(fn):
    def wrong(*args, **kwargs):
        report = fn(*args, **kwargs)
        return dataclasses.replace(report, empirical=report.empirical * 1.01)

    return wrong


def _shift_ppt_edge(fn):
    def wrong(x):
        bounds = fn(x)
        return bounds._replace(ppt_nbar=bounds.ppt_nbar + 1e-9)

    return wrong


PERTURBATIONS = {
    "finite-dim": ("discrim", "holevo_chi", _shift_holevo),
    "monte-carlo": ("mc", "sample_heterodyne", _inflate_heterodyne),
    "cv-boundaries": ("gauss", "noise_boundaries", _shift_ppt_edge),
    "cli-session": ("gauss", "noise_boundaries", _shift_ppt_edge),
}


def main() -> int:
    run.prepare()
    caught_all = True
    for workload, (module_name, attr, perturb) in PERTURBATIONS.items():
        module = importlib.import_module(f"entprobe.{module_name}")
        original = getattr(module, attr)
        setattr(module, attr, perturb(original))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"])
        finally:
            setattr(module, attr, original)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        caught = code != 0 and result["failed"] > 0 and not result["correct"]
        caught_all = caught_all and caught
        print(
            f"{workload}: perturbed {module_name}.{attr}; exit {code}, "
            f"failed {result['failed']}/{result['attempted']} -> {'caught' if caught else 'MISSED'}"
        )
    return 0 if caught_all else 1


if __name__ == "__main__":
    sys.exit(main())
