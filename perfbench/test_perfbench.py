"""The benchmark's own tests.

    python3 -m pytest perfbench

They are not part of the repository's tier-1 run (pytest's testpaths is
``tests``).  The smoke test runs every workload at a tiny size, untraced and
traced, in about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import numtheory as nt  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kfractions import forms, incomplete, ksums  # noqa: E402


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke: ok")


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ksum-scale", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    if workload != "acceptance":
        assert workloads.make_inputs(workload, 3) != workloads.make_inputs(workload, 4)


def test_salie_moduli_stay_within_the_fast_route():
    inputs = workloads.make_inputs("ksum-scale", 11)
    for a, b, p, e in inputs["salie"]:
        assert nt.is_prime(p) and p**e <= ksums.FAST_LIMIT
        assert a % p and b % p


def test_tracer_restores_every_name_even_when_a_call_raises():
    originals = (ksums.kloosterman_brute, incomplete.kloosterman_brute, forms.character_group)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert incomplete.kloosterman_brute is not originals[1]
        with pytest.raises(ValueError):
            ksums.kloosterman_brute(ksums.KloostermanParams(1, 1, ksums.BRUTE_LIMIT + 1))
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert (ksums.kloosterman_brute, incomplete.kloosterman_brute, forms.character_group) == originals
    arrays = tracer.arrays()
    assert len(arrays["name"]) == 1 and arrays["end_ns"][0] >= arrays["start_ns"][0]


def test_self_time_excludes_child_spans():
    spec = incomplete.IncompleteSpec(gamma=49, k=3, v=1, x_start=-20, x_len=100, alpha=5)
    tracer = spans.Tracer()
    tracer.install()
    try:
        plain = incomplete.erdos_turan_majorant(spec)
    finally:
        tracer.restore()
    assert plain == incomplete.erdos_turan_majorant(spec)  # tracing changes no result
    m = tracer.layer_metrics()
    assert m["incomplete.erdos_turan_majorant.calls"] == 1
    assert m["ksums.kloosterman_brute.calls"] == 1 + 49 // 2
    assert m["ksums.kloosterman_brute.terms"] == nt.phi(49) * (1 + 49 // 2)
    incl = m["incomplete.erdos_turan_majorant.incl_s"]
    self_s = m["incomplete.erdos_turan_majorant.self_s"]
    assert 0 <= self_s < incl
    assert self_s + m["ksums.kloosterman_brute.self_s"] + m["arith.factorize.self_s"] <= incl * (1 + 1e-9)


def test_declared_metrics_match_benchmark_json():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
