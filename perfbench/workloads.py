"""The benchmark's three workloads: inputs made from a seed, the timed calls
into kfractions, and the correctness gate of every operation.

``make_inputs`` is pure: the same (workload, seed, smoke) gives the same
inputs.  ``run`` times each call into kfractions by phase and keeps its
result; ``Pass.finish`` applies the gates afterwards, outside the timed
region and after any tracer is removed, so a gate's own calls into
kfractions neither count as work nor show up as spans.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from math import gcd

import numtheory as nt

WORKLOADS = ("acceptance", "ksum-scale", "forms-scale")

PHASES = {
    "acceptance": ("ksum_verify", "incomplete_verify", "trilinear_sweep", "amplifier_check", "equidist",
                   "minor_suites"),
    "ksum-scale": ("large_modulus", "majorant_row", "salie"),
    "forms-scale": ("search", "amplifier"),
}
ALL_PHASES = tuple(p for w in WORKLOADS for p in PHASES[w])

# The nine CLI suites at their acceptance configs, in CLI order, with the phase each is timed under.
SUITES = (
    ("ksum-verify", "ksum_verify"),
    ("incomplete-verify", "incomplete_verify"),
    ("identities", "minor_suites"),
    ("trilinear-sweep", "trilinear_sweep"),
    ("amplifier-check", "amplifier_check"),
    ("compdiv-check", "minor_suites"),
    ("detcount", "minor_suites"),
    ("equidist", "equidist"),
    ("calibrate-constants", "minor_suites"),
)
SMOKE_SUITE_ARGS = {
    "ksum-verify": ["--cmax", "40", "--pairs", "3"],
    "incomplete-verify": ["--n-specs", "20", "--gamma-max", "40", "--sharp-specs", "40"],
    "identities": ["--trials", "50"],
    "trilinear-sweep": ["--n-specs", "2", "--ladder", "8,16,32"],
    "amplifier-check": ["--draws", "5"],
    "compdiv-check": ["--m-scale", "16", "--n-scale", "16", "--l-scale", "4"],
    "detcount": ["--n-specs", "4"],
    "equidist": ["--n-list", "16,32,64"],
    "calibrate-constants": [],
}
# Criterion 4 of the paper reproduction fails by design: the printed one-signed
# completion majorant is not a theorem.  Its FAIL is a finding, not a failed operation.
EXPECTED_FAIL = ("incomplete-verify", "et_majorant")
SEED7_FINDING = {"et_violations": 2.0, "et_worst_excess": 1.3111}

SEARCH_RESTARTS = 4
SEARCH_ITERS = 40  # a cycle budget the 1e-10 stop almost never cuts short, so the work barely depends on the seed


@dataclass
class Pass:
    """Timings, results and gate outcomes of one pass over a workload."""

    phase_s: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    _checks: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        """Time spent inside kfractions: the sum of the timed calls."""
        return math.fsum(self.phase_s.values())

    def op(self, phase: str, label: str, fn, check=None):
        """Time one call into kfractions; queue its gate for ``finish``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is a failed operation, recorded with its parameters
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + time.perf_counter() - start
        self._checks.append((label, check, result))
        return result

    def finish(self) -> None:
        """Run the queued gates; a gate returns None or a description of the failure."""
        for label, check, result in self._checks:
            try:
                problem = check(result) if check is not None else None
            except Exception as exc:
                problem = f"gate raised {type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{label}: {problem}")
        self._checks.clear()


def _rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(1.0, abs(y))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, smoke: bool = False) -> dict:
    if workload == "acceptance":
        return {"seed": seed, "smoke": smoke}
    rng = random.Random(f"perfbench-{workload}-{seed}")
    if workload == "ksum-scale":
        return _ksum_inputs(rng, smoke)
    if workload == "forms-scale":
        return _forms_inputs(rng, seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


def _unit(rng: random.Random, c: int, avoid: int = 1) -> int:
    """A random a in [1, c) with gcd(a, avoid) = 1."""
    while True:
        a = rng.randrange(1, c)
        if gcd(a, avoid) == 1:
            return a


def _ksum_inputs(rng: random.Random, smoke: bool) -> dict:
    def near(size: float) -> int:
        return int(size * rng.uniform(0.97, 1.03))

    # large_modulus: one modulus of each shape, each within a few % of a fixed
    # size, so the work of a pass barely depends on the seed.
    # The prime is the largest and has phi(c) = c - 1, so it alone sets the peak memory.
    sizes = (1.4e4, 1.2e4, 1e4, 4e3) if smoke else (7e5, 6e5, 5e5, 2e5)
    prime = nt.next_prime(near(sizes[0]))
    target = near(sizes[1])
    k = rng.randint(max(1, target.bit_length() - 7), target.bit_length() - 4)
    two_power = 2**k * max(3, round(target / 2**k) | 1)
    p = rng.choice(nt.primes_between(*((11, 23) if smoke else (150, 250))))
    r = max(2, round(near(sizes[2]) / p**2))
    while r % p == 0:
        r += 1
    salie_composite = p * p * r
    arbitrary = near(sizes[3])  # small, so the seed-dependent cost of its fast route stays a small share
    large = []
    for c, avoid in ((prime, 1), (two_power, 1), (salie_composite, p), (arbitrary, 1)):
        large.append((_unit(rng, c, avoid), _unit(rng, c, avoid), c))

    # majorant_row: reduced specs, two with gamma = p^2 (where the printed
    # one-signed majorant can undercount) and two with gamma prime.  A row
    # costs ~gamma^2, so gamma is held within 3% of fixed sizes.
    squares = (7, 13) if smoke else (43, 59)
    prime_sizes = (100, 180) if smoke else (2400, 3900)
    gammas = [squares[0] ** 2, nt.next_prime(near(prime_sizes[0])),
              squares[1] ** 2, nt.next_prime(near(prime_sizes[1]))]
    rows = []
    for g in gammas:
        k = rng.choice([kk for kk in range(1, 41) if gcd(kk, g) == 1])
        alpha = _unit(rng, g, g) * rng.choice([1, -1])
        rows.append({"gamma": g, "k": k, "v": rng.randrange(k), "x_start": rng.randint(-2 * g, 2 * g),
                     "x_len": rng.randint(g, 3 * g), "alpha": alpha})

    # salie: c = p^e <= 1e12 with p coprime to a*b, so every block has the
    # closed form; a = b*u^2 makes a*bbar a square, so the closed form never
    # short-cuts to 0 and the work does not depend on the seed.
    windows = {2: (800_000, 999_983), 3: (3_000, 3_500), 4: (800, 997), 5: (200, 241)}  # next_prime stays in range
    salie = []
    for i in range(8 if smoke else 150):
        e = 2 + i % 4
        p = nt.next_prime(rng.randint(*windows[e]))
        c = p**e
        b, u = _unit(rng, c, p), _unit(rng, c, p)
        salie.append((b * u * u % c, b, p, e))
    return {"large_modulus": large, "majorant_row": rows, "salie": salie}


def _forms_inputs(rng: random.Random, seed: int, smoke: bool) -> dict:
    thetas = [t for t in range(-3, 4) if t]
    sizes = (16, 24, 32) if smoke else (96, 128, 160)
    search = [{"m": n, "n": n, "a": n, "theta": rng.choice(thetas), "twisted": False} for n in sizes]
    tw = (24, 24, 8) if smoke else (128, 128, 32)
    search.append({"m": tw[0], "n": tw[1], "a": tw[2], "theta": rng.choice(thetas), "twisted": True})
    # (N, A, b, L): L > 2 log(b * |theta| * M) holds for every theta drawn below
    cases = ((8, 3, 1, 15.0), (8, 3, 2, 16.0)) if smoke else ((32, 6, 1, 15.0), (40, 8, 2, 16.0), (24, 6, 3, 17.0))
    amplifier = []
    for n_scale, a_scale, b, l_scale in cases:
        theta = rng.choice([-1, 1])  # |theta| > 1 masks more of beta and so would change the work with the seed
        amplifier.append({"m": 60 if smoke else 300, "n": n_scale, "a": a_scale, "theta": theta, "b": b,
                          "l": l_scale})
    return {"search": search, "amplifier": amplifier, "seed": seed,
            "restarts": 2 if smoke else SEARCH_RESTARTS, "iters": 10 if smoke else SEARCH_ITERS}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run(workload: str, inputs: dict, workdir: str) -> Pass:
    runner = {"acceptance": _run_acceptance, "ksum-scale": _run_ksum, "forms-scale": _run_forms}[workload]
    p = Pass(phase_s={ph: 0.0 for ph in PHASES[workload]})
    runner(p, inputs, workdir)
    return p


def _run_acceptance(p: Pass, inputs: dict, workdir: str) -> None:
    from kfractions import cli

    seed, smoke = inputs["seed"], inputs["smoke"]
    csv_path = os.path.join(workdir, "records.csv")
    for suite, phase in SUITES:
        json_path = os.path.join(workdir, f"{suite}.json")
        argv = [suite, "--seed", str(seed), "--out", csv_path, "--json", json_path]
        argv += SMOKE_SUITE_ARGS[suite] if smoke else []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            p.op(phase, suite, lambda: cli.main(argv), _suite_gate(p, suite, json_path, seed, smoke))


def _suite_gate(p: Pass, suite: str, json_path: str, seed: int, smoke: bool):
    def check(code):
        if code not in (0, 1):
            return f"exit code {code}"
        with open(json_path) as fh:
            records = json.load(fh)
        failed = [(r["subcommand"], name) for r in records for name, ok in sorted(r["assertions"].items()) if not ok]
        if code != (1 if failed else 0):
            return f"exit code {code} does not match {len(failed)} failed assertion(s)"
        p.outputs.append([suite, [r["values"] for r in records]])
        if suite == "incomplete-verify":
            values = records[0]["values"]
            p.findings["et_violations"] = values["et_violations"]
            p.findings["et_worst_excess"] = values.get("et_worst_excess", 0.0)
            if seed == 7 and not smoke:
                got = (values["et_violations"], round(p.findings["et_worst_excess"], 4))
                if got != tuple(SEED7_FINDING.values()):
                    return f"criterion 4 finding moved: (violations, worst excess) = {got}, expected (2, 1.3111)"
        unexpected = [f"{s}:{n}" for s, n in failed if (s, n) != EXPECTED_FAIL]
        return f"assertion(s) failed: {', '.join(unexpected)}" if unexpected else None

    return check


def _run_ksum(p: Pass, inputs: dict, workdir: str) -> None:
    from kfractions import incomplete, ksums

    K = ksums.KloostermanParams
    for a, b, c in inputs["large_modulus"]:
        label = f"large_modulus S({a},{b};{c})"

        def check_brute(res, a=a, b=b, c=c):
            p.outputs.append(res.value)
            bound = nt.weil_bound(a, b, c)
            return None if abs(res.value) <= bound * (1 + 1e-9) else f"|S|={abs(res.value)} exceeds Weil {bound}"

        brute = p.op("large_modulus", label + " brute", lambda: ksums.kloosterman_brute(K(a, b, c)), check_brute)

        def check_fast(res, brute=brute):
            p.outputs.append(res.value)
            if brute is None:
                return None  # the brute failure is already recorded
            gap = _rel_gap(res.value, brute.value)
            return None if gap <= 1e-6 else f"fast {res.value} vs brute {brute.value}: relative gap {gap:.3e}"

        p.op("large_modulus", label + " fast", lambda: ksums.kloosterman_fast(K(a, b, c)), check_fast)

    for row in inputs["majorant_row"]:
        spec = incomplete.IncompleteSpec(**row)
        label = f"majorant_row gamma={row['gamma']} k={row['k']} alpha={row['alpha']}"
        total = p.op("majorant_row", label + " sum", lambda: incomplete.incomplete_brute(spec))
        printed = p.op("majorant_row", label + " printed", lambda: incomplete.erdos_turan_majorant(spec))

        def check_symmetrized(bound, total=total, printed=printed):
            p.outputs.extend([repr(total), printed, bound])
            if total is None:
                return None
            if printed is not None and abs(total) > printed * (1 + 1e-9):
                p.findings["printed_majorant_violations"] = p.findings.get("printed_majorant_violations", 0) + 1
            return None if abs(total) <= bound * (1 + 1e-9) else f"|sum|={abs(total)} exceeds symmetrized {bound}"

        p.op("majorant_row", label + " symmetrized",
             lambda: incomplete.erdos_turan_majorant_symmetrized(spec), check_symmetrized)

    for a, b, prime, e in inputs["salie"]:
        c = prime**e
        label = f"salie S({a},{b};{prime}^{e})"
        forward = p.op("salie", label, lambda: ksums.kloosterman_fast(K(a, b, c)))

        def check_pair(res, forward=forward, a=a, b=b, c=c, e=e):
            p.outputs.append(res.value)
            if forward is None:
                return None
            bound = nt.weil_bound(a, b, c, tau_c=e + 1)
            if max(abs(forward.value), abs(res.value)) > bound * (1 + 1e-9):
                return f"|S|={abs(forward.value)} exceeds Weil {bound}"
            gap = _rel_gap(res.value, forward.value)
            return None if gap <= 1e-9 else f"S(a,b)={forward.value} vs S(b,a)={res.value}"

        p.op("salie", label + " swapped", lambda: ksums.kloosterman_fast(K(b, a, c)), check_pair)


def _run_forms(p: Pass, inputs: dict, workdir: str) -> None:
    import numpy as np
    from kfractions import forms
    from kfractions.forms import AmplifierSpec, CoefficientVector, FormSpec

    for i, case in enumerate(inputs["search"]):
        spec = FormSpec(case["m"], case["n"], case["a"], theta=case["theta"])
        tw = case["twisted"]
        label = f"search {'twisted ' if tw else ''}M,N,A={case['m']},{case['n']},{case['a']} theta={case['theta']}"

        def check_search(res, spec=spec, tw=tw):
            p.outputs.append(res.value)
            value = abs(forms.eval_trilinear(res.alpha, res.beta, res.nu, spec, twisted=tw))
            gap = _rel_gap(value, res.value)
            return None if gap <= 1e-9 else f"eval_trilinear {value} vs search value {res.value}"

        p.op("search", label, lambda: forms.extremal_search(
            spec, twisted=tw, restarts=inputs["restarts"], iters=inputs["iters"], seed=inputs["seed"] + i),
            check_search)

    for i, case in enumerate(inputs["amplifier"]):
        spec = FormSpec(case["m"], case["n"], case["a"], theta=case["theta"])
        amp = AmplifierSpec(case["b"], case["l"])
        gen = np.random.default_rng(np.random.SeedSequence([inputs["seed"], 7000 + i]))
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        label = f"amplifier M,N,A={case['m']},{case['n']},{case['a']} theta={case['theta']} b={case['b']} L={case['l']}"

        def check_amplifier(rep):
            p.outputs.extend([rep.c_b, rep.d_b, rep.d_b_direct, rep.diagonal])
            bad = [name for name in ("holds", "partition_ok", "forms_match") if not getattr(rep, name)]
            return f"{', '.join(bad)} false" if bad else None

        p.op("amplifier", label, lambda: forms.amplifier_check(spec, amp, beta, nu), check_amplifier)
