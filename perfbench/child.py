"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass begins with cold
``lru_cache``s, as a CLI run does:

    python3 perfbench/child.py --root CHECKOUT --workload ksum-scale --seed 7 \
        --mode pass --t0 T --result FILE

``--mode setup`` stops once the inputs are ready, ``pass`` also runs the
workload, and ``traced`` runs it under the span recorder.  Set-up time runs
from ``--t0``, the parent's CLOCK_MONOTONIC reading just before it started
this process, to the moment the inputs are ready: interpreter start, the
kfractions and numpy imports, and input generation.  The result is written to
FILE as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy

    import kfractions
    import kfractions.cli  # noqa: F401  (the acceptance workload's entry point)

    if not os.path.abspath(kfractions.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"kfractions was imported from {kfractions.__file__}, not from {src}")

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    result = {
        "setup_s": time.monotonic() - args.t0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.mode != "setup":
        result.update(_run_pass(args, inputs))
    with open(args.result, "w") as fh:
        json.dump(result, fh)


def _run_pass(args, inputs: dict) -> dict:
    import spans
    import workloads

    out_dir = os.path.join(args.root, ".perfbench")
    workdir = tempfile.mkdtemp(prefix="pass-", dir=out_dir)
    try:
        tracer = spans.Tracer() if args.mode == "traced" else None
        if tracer is not None:
            tracer.install()
        try:
            p = workloads.run(args.workload, inputs, workdir)
        finally:
            if tracer is not None:
                tracer.restore()
        out = {
            "wall_s": p.wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "phase_s": p.phase_s,
        }
        if tracer is not None:
            out["unrestored"] = tracer.unrestored()
            out["patched"] = tracer.patched
            out["layers"] = tracer.layer_metrics()
            spans_file = os.path.join(out_dir, f"spans-{args.workload}.npz")
            tracer.write(spans_file)
            out["spans_file"] = spans_file
        p.finish()
        out.update(
            attempted=p.attempted,
            failures=p.failures,
            findings=p.findings,
            digest=hashlib.sha256(json.dumps(p.outputs, sort_keys=True).encode()).hexdigest(),
        )
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
