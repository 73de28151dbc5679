"""The kfractions benchmark: one command, three workloads.

    python3 perfbench/run.py --workload acceptance --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run it from a checkout root that holds ``src/kfractions``.  Each pass of a
workload runs in a fresh child interpreter (child.py), single-threaded, with
the BLAS thread count fixed at 1.  An untraced run (``--trace 0``) starts a few
set-up-only children, then runs passes until ``--seconds`` have gone by, and
reports the median of each end-to-end metric.  A traced run (``--trace 1``)
alternates an untraced pass with a traced one and reports the per-layer
metrics of the traced passes, the phase times of the untraced ones, and the
tracing overhead; it also checks that every patched name was restored and
that both passes produced bit-identical outputs.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
including the environment stamp, is written to ``.perfbench/`` in the
checkout.  ``--smoke`` runs every workload at a tiny size, traced and
untraced, and checks the gates, the restore and the metric names against
BENCHMARK.json.  See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
FINDINGS = ("et_violations", "et_worst_excess")
PER_LAYER = spans.LAYER_METRICS + tuple(f"phase.{ph}_s" for ph in workloads.ALL_PHASES) + tuple(
    f"finding.{name}" for name in FINDINGS
)

BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
TIME_LIMIT_S = 165  # every child is stopped by then, so a run ends within the 180 s allowed


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return {"ns_per_term": "ns", "salie_ratio": "ratio", "bytes": "B", "et_worst_excess": "ratio"}.get(stat, "count")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, smoke: bool, deadline: float) -> dict:
    """Start one child, wait for it, and return its result (or {"error": ...})."""
    fd, result_path = tempfile.mkstemp(prefix="child-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--result", result_path]
    cmd += ["--smoke"] if smoke else []
    try:
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"{mode} child for {workload} passed the {TIME_LIMIT_S} s limit and was killed"}
        except BaseException:  # interrupted or terminated: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            return {"error": f"{mode} child for {workload} exited {proc.returncode}: {err.strip()[-2000:]}"}
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        os.unlink(result_path)


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one benchmark run and return its full result (metrics, passes, errors)."""
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups = [] if trace else [spawn("setup", workload, seed, smoke, deadline) for _ in range(SETUP_PROBES)]
    window = time.monotonic()
    plain, traced, errors = [], [], [s["error"] for s in setups if "error" in s]
    while not (plain or errors) or time.monotonic() - window < seconds:
        pass_start = time.monotonic()
        plain.append(spawn("pass", workload, seed, smoke, deadline))
        if trace:
            traced.append(spawn("traced", workload, seed, smoke, deadline))
        errors += [r.pop("error") for r in plain[-1:] + traced[-1:] if "error" in r]
        # stop early rather than start a pass that would run past the time limit
        if errors or time.monotonic() + (time.monotonic() - pass_start) > deadline:
            break
    plain = [r for r in plain if r]
    traced = [r for r in traced if r]
    passes = plain + traced

    failures = list(errors) + [f for r in passes for f in r["failures"]]
    attempted = len(errors) + sum(r["attempted"] for r in passes)
    for r in traced:
        failures += [f"traced pass left {name} patched" for name in r["unrestored"]]
    if trace and len({r["digest"] for r in passes}) > 1:
        failures.append("traced and untraced passes produced different outputs")

    metrics: dict[str, dict] = {}
    if plain and not trace:
        values = {
            "setup_s": _median([r["setup_s"] for r in setups + plain if "setup_s" in r]),
            "wall_s": _median([r["wall_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    elif plain and traced:
        values = {name: _median([r["layers"][name] for r in traced]) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain])
        for ph in workloads.ALL_PHASES:
            values[f"phase.{ph}_s"] = _median([r["phase_s"].get(ph, 0.0) for r in plain])
        for name in FINDINGS:
            values[f"finding.{name}"] = float(plain[0]["findings"].get(name, 0.0))
        metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(plain[0] if plain else {}),
        "correct": bool(metrics) and not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "passes": passes,
        "setup_probes": setups,
        "elapsed_s": time.monotonic() - start,
    }


def environment(child: dict) -> dict:
    """Where and how the numbers were measured."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": child.get("python", platform.python_version()),
        "numpy": child.get("numpy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(BLAS_VARS),
        "git_commit": commit,
    }


def report(res: dict) -> None:
    """Human-readable lines; the caller prints the JSON result line after them."""
    env = res["environment"]
    print(f"kfractions benchmark: workload={res['workload']} seed={res['seed']} seconds={res['seconds']} "
          f"trace={res['trace']}{' smoke' if res['smoke'] else ''}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    plain = [r for r in res["passes"] if "layers" not in r]
    print(f"passes: {len(plain)} untraced, {len(res['passes']) - len(plain)} traced; "
          f"set-up probes: {len(res['setup_probes'])}; elapsed {res['elapsed_s']:.1f} s")
    for ph in workloads.PHASES[res["workload"]]:
        times = [r["phase_s"][ph] for r in plain]
        if times:
            print(f"  phase {ph:<18} median {_median(times):8.4f} s over {len(times)} pass(es)")
    findings = plain[0]["findings"] if plain else {}
    for name, value in sorted(findings.items()):
        print(f"  finding {name} = {value}")
    print(f"failed_ratio = {res['failed']}/{res['attempted']} operations "
          f"(base: every call into kfractions, and every child that did not finish)")
    for failure in res["failures"][:20]:
        print(f"  FAILED {failure}")
    for name, m in res["metrics"].items():
        if not res["trace"] or not name.endswith((".calls", ".bytes", ".terms")):
            print(f"  {name} = {m['value']:.6g} {m['unit']}")


def result_line(res: dict) -> str:
    return json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")})


def smoke() -> int:
    """Tiny run of every workload, untraced and traced; checks gates, restore and names."""
    problems = []
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared_e2e != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared_e2e} != {END_TO_END}")
    if declared_layer != {name: layer_unit(name) for name in PER_LAYER}:
        problems.append("BENCHMARK.json per_layer names or units differ from the benchmark's")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            res = measure(workload, 7, 0, trace, smoke=True)
            expected = PER_LAYER if trace else tuple(END_TO_END)
            tag = f"{workload} trace={int(trace)}"
            if not res["correct"]:
                problems.append(f"{tag}: not correct: {res['failures'][:5]}")
            if tuple(res["metrics"]) != expected:
                problems.append(f"{tag}: metric names differ from BENCHMARK.json")
            if trace and res["passes"] and not res["passes"][-1]["patched"]:
                problems.append(f"{tag}: the tracer patched nothing")
            print(f"smoke {tag}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} elapsed={res['elapsed_s']:.1f} s")
    for problem in problems:
        print(f"SMOKE PROBLEM: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="acceptance")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # lets spawn() stop its child

    if not (ROOT / "src" / "kfractions" / "__init__.py").is_file():
        print(f"error: no kfractions sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not res["metrics"]:
        print("error: no pass completed: " + "; ".join(res["failures"][:5]), file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(res, indent=1))
    report(res)
    print(f"full result: {OUT_DIR / name}")
    print(result_line(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
