"""Span recorder for the traced pass.

The benchmark measures each kfractions module only from outside: it wraps the
module's public functions in span recorders.  A ``from``-import binds its own
copy of a name (``incomplete.kloosterman_brute``, ``forms.character_group``),
so every kfractions namespace that holds the function object gets the wrapper,
and the caller's lookup reaches it.  ``restore`` puts every original back and
``unrestored`` proves it.

Each span records its name, its parent span, and its start and end in
nanoseconds.  Spans are kept in flat in-memory arrays while the pass runs and
are written out once, at the end.  A span's self time is its duration minus
the time its child spans cover.  No traced function re-enters itself, so a
function's inclusive time is the plain sum of its span durations.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import Counter

import numpy as np

from numtheory import dyadic_len, phi

PACKAGE = "kfractions"
MODULES = ("arith", "ksums", "characters", "incomplete", "forms", "apps", "verify", "records", "cli")

# Suites the CLI dispatches to, by the name cli.py imports them under.
SUITE_FUNCS = (
    "ksum_verify",
    "identities_verify",
    "incomplete_verify",
    "trilinear_sweep_verify",
    "cauchy_amplifier_verify",
    "compdiv_verify",
    "detcount_verify",
    "equidist_verify",
    "calibrate_constants",
)

# (metric prefix, defining module, attribute path, statistics reported)
TRACED = (
    ("ksums.kloosterman_brute", "ksums", "kloosterman_brute", ("calls", "self_s", "terms", "ns_per_term")),
    ("ksums.kloosterman_fast", "ksums", "kloosterman_fast", ("calls", "self_s", "salie_ratio")),
    ("arith.factorize", "arith", "factorize", ("calls", "self_s")),
    ("ksums.ramanujan", "ksums", "ramanujan", ("calls", "self_s")),
    ("ksums.weil_bound", "ksums", "weil_bound", ("calls", "self_s")),
    ("incomplete.incomplete_brute", "incomplete", "incomplete_brute", ("calls", "self_s", "incl_s")),
    ("incomplete.erdos_turan_majorant", "incomplete", "erdos_turan_majorant", ("calls", "self_s", "incl_s")),
    ("incomplete.erdos_turan_majorant_symmetrized", "incomplete", "erdos_turan_majorant_symmetrized",
     ("calls", "self_s", "incl_s")),
    ("incomplete.envelope_sharpness_sweep", "incomplete", "envelope_sharpness_sweep", ("calls", "self_s", "incl_s")),
    ("characters.character_group", "characters", "character_group", ("calls", "self_s")),
    ("characters.DirichletCharacter.__call__", "characters", "DirichletCharacter.__call__", ("calls", "self_s")),
    ("forms.build_tensor", "forms", "build_tensor", ("calls", "self_s", "bytes")),
    ("forms.extremal_search", "forms", "extremal_search", ("calls", "self_s", "iterations")),
    ("forms.gram_power_singular_value", "forms", "gram_power_singular_value", ("calls", "self_s")),
    ("forms.eval_trilinear", "forms", "eval_trilinear", ("calls", "self_s")),
    ("forms.cauchy_step", "forms", "cauchy_step", ("calls", "self_s")),
    ("forms.amplifier_check", "forms", "amplifier_check", ("calls", "self_s")),
    ("forms.complementary_divisor_check", "forms", "complementary_divisor_check", ("calls", "self_s")),
    ("apps.build_fraction_set", "apps", "build_fraction_set", ("calls", "self_s", "pairs")),
    ("apps.rho_solution", "apps", "rho_solution", ("calls", "self_s")),
    ("apps.star_discrepancy", "apps", "star_discrepancy", ("calls", "self_s")),
    ("apps.det_count", "apps", "det_count", ("calls", "self_s")),
    ("apps.det_main_term", "apps", "det_main_term", ("calls", "self_s")),
    *((f"verify.{name}", "verify", name, ("incl_s",)) for name in SUITE_FUNCS),
    ("records.write_csv", "records", "write_csv", ("calls", "self_s", "bytes")),
    ("cli.main", "cli", "main", ("self_s",)),
)

LAYER_METRICS = tuple(f"{prefix}.{stat}" for prefix, _, _, stats in TRACED for stat in stats) + (
    "trace.spans",
    "trace.overhead_s",
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Installs span recorders on the kfractions package and removes them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.brute_moduli = array("q")
        self.counts = {"fast_salie": 0, "tensor_bytes": 0, "iterations": 0, "pairs": 0}
        self.csv_paths: set[str] = set()

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_hooks(self) -> dict:
        counts = self.counts

        def brute(args, kwargs, result):
            self.brute_moduli.append(_arg(args, kwargs, 0, "params").c)

        def fast(args, kwargs, result):
            counts["fast_salie"] += result.method == "crt_salie"

        def tensor(args, kwargs, result):
            spec = _arg(args, kwargs, 0, "spec")
            counts["tensor_bytes"] += 16 * dyadic_len(spec.a_scale) * dyadic_len(spec.m_scale) * dyadic_len(spec.n_scale)

        def search(args, kwargs, result):
            counts["iterations"] += result.iterations

        def fraction_set(args, kwargs, result):
            counts["pairs"] += len(result.pairs)

        def csv(args, kwargs, result):
            self.csv_paths.add(os.fspath(_arg(args, kwargs, 0, "path")))

        return {
            "ksums.kloosterman_brute": brute,
            "ksums.kloosterman_fast": fast,
            "forms.build_tensor": tensor,
            "forms.extremal_search": search,
            "apps.build_fraction_set": fraction_set,
            "records.write_csv": csv,
        }

    # -- installing and restoring ------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        hooks = self._after_hooks()
        for prefix, home, path, _ in TRACED:
            owner = importlib.import_module(f"{PACKAGE}.{home}")
            *cls, attr = path.split(".")
            if cls:  # a method: patch the class that defines it
                owner = getattr(owner, cls[0])
            original = vars(owner)[attr]
            wrapper = self._wrap(prefix, original, hooks.get(prefix))
            targets = [owner] if cls else [m for m in modules if vars(m).get(attr) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Names still bound to something other than the original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]

    @property
    def patched(self) -> int:
        """Number of names the tracer replaced."""
        return len(self._patches)

    # -- results ---------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int64),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (trace.overhead_s is added by the caller)."""
        spans = self.arrays()
        n, k = len(spans["name"]), len(self.names)
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
        parent = spans["parent"]
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n) if n else np.zeros(0)
        calls = np.bincount(spans["name"], minlength=k)
        self_s = np.bincount(spans["name"], weights=dur - covered, minlength=k) / 1e9
        incl_s = np.bincount(spans["name"], weights=dur, minlength=k) / 1e9
        terms = sum(phi(c) * times for c, times in Counter(self.brute_moduli).items())
        out: dict[str, float] = {}
        for nid, (prefix, _, _, stats) in enumerate(TRACED):
            values = {
                "calls": float(calls[nid]),
                "self_s": float(self_s[nid]),
                "incl_s": float(incl_s[nid]),
            }
            if prefix == "ksums.kloosterman_brute":
                values["terms"] = float(terms)
                values["ns_per_term"] = self_s[nid] * 1e9 / terms if terms else 0.0
            elif prefix == "ksums.kloosterman_fast":
                values["salie_ratio"] = self.counts["fast_salie"] / calls[nid] if calls[nid] else 0.0
            elif prefix == "forms.build_tensor":
                values["bytes"] = float(self.counts["tensor_bytes"])
            elif prefix == "forms.extremal_search":
                values["iterations"] = float(self.counts["iterations"])
            elif prefix == "apps.build_fraction_set":
                values["pairs"] = float(self.counts["pairs"])
            elif prefix == "records.write_csv":
                values["bytes"] = float(sum(os.path.getsize(p) for p in self.csv_paths if os.path.exists(p)))
            for stat in stats:
                out[f"{prefix}.{stat}"] = float(values[stat])
        out["trace.spans"] = float(n)
        return out
