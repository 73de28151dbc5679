"""Runner behavior: record persistence, determinism, config, exit codes."""

import ast
import csv
import importlib
import inspect
import json
import re
import sys
import time
from pathlib import Path

import pytest

from kfractions import arith, cli
from kfractions.cli import main
from kfractions.records import CSV_COLUMNS, ExperimentRecord, derive_rng, write_csv, write_json
from kfractions.verify import SUITES


class TestRecords:
    def test_id_deterministic_and_rows(self, tmp_path):
        rec = ExperimentRecord("demo", {"x": 1, "y": "a"}, seed=3,
                               values={"v": 0.1}, assertions={"ok": True})
        rec2 = ExperimentRecord("demo", {"y": "a", "x": 1}, seed=3)
        assert rec.experiment_id == rec2.experiment_id
        assert rec.passed
        rows = rec.rows()
        assert all(len(r) == len(CSV_COLUMNS) for r in rows)
        path = tmp_path / "r.csv"
        write_csv(path, [rec])
        with open(path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == CSV_COLUMNS
        write_csv(path, [rec])  # append keeps single header
        with open(path) as fh:
            assert sum(1 for row in csv.reader(fh) if row == CSV_COLUMNS) == 1

    def test_float_formatting_17_digits(self):
        rec = ExperimentRecord("demo", {}, seed=0, values={"v": 1 / 3})
        row = [r for r in rec.rows() if r[6] == "v"][0]
        assert row[7] == format(1 / 3, ".17g")

    def test_json_mirror(self, tmp_path):
        rec = ExperimentRecord("demo", {"x": 1}, seed=3, values={"v": 0.5},
                               assertions={"ok": False})
        path = tmp_path / "r.json"
        write_json(path, [rec])
        data = json.loads(path.read_text())
        assert data[0]["assertions"] == {"ok": False}

    def test_derive_rng_reproducible(self):
        a = derive_rng(5, 2).integers(0, 10**9)
        b = derive_rng(5, 2).integers(0, 10**9)
        c = derive_rng(5, 3).integers(0, 10**9)
        assert a == b and a != c


def _strip_wall_clock(path):
    """Drop the timestamp column and runtime rows (the only wall-clock data)."""
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [
        [c for i, c in enumerate(row) if i != 1]
        for row in rows
        if "runtime" not in row[5:6]
    ]


class TestCli:
    def test_identities_run_exit_zero_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--seed", "11", "identities", "--trials", "60", "--max-n", "5000"]
        assert main(["--out", str(out1)] + args) == 0
        assert main(["--out", str(out2)] + args) == 0
        assert _strip_wall_clock(out1) == _strip_wall_clock(out2)

    def test_global_flags_accepted_after_subcommand(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["identities", "--trials", "60", "--seed", "11", "--out", str(out1)]) == 0
        assert main(["--seed", "11", "--out", str(out2), "identities", "--trials", "60"]) == 0
        assert _strip_wall_clock(out1) == _strip_wall_clock(out2)

    def test_json_mirror_written(self, tmp_path):
        out = tmp_path / "a.csv"
        js = tmp_path / "a.json"
        code = main(["--out", str(out), "--json", str(js), "--seed", "2",
                     "compdiv-check", "--m-scale", "16", "--n-scale", "16", "--l-scale", "4"])
        assert code == 0
        data = json.loads(js.read_text())
        assert data[0]["subcommand"] == "compdiv-check"
        assert data[0]["assertions"]["bijection"] is True

    def test_unknown_flag_exit_2(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "x.csv"), "identities", "--bogus"]) == 2

    def test_unknown_subcommand_exit_2(self, tmp_path):
        assert main(["--out", str(tmp_path / "x.csv"), "no-such-thing"]) == 2

    def test_assertion_failure_exit_1(self, tmp_path):
        # a flat ladder cannot satisfy the strict endpoint decrease
        code = main(["--out", str(tmp_path / "x.csv"), "equidist", "--n-list", "64,64"])
        assert code == 1

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials=40\nmax-n=999\n# comment\n")
        out = tmp_path / "c.csv"
        code = main(["--config", str(cfg), "--out", str(out), "--seed", "4",
                     "identities", "--trials", "25"])
        assert code == 0
        rows = _strip_wall_clock(out)
        params = {row[3] for row in rows[1:]}
        assert params == {"max_n=999;trials=25"}  # flag beats config, config beats default

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value line\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x.csv"), "identities"]) == 2

    def test_config_key_of_no_option_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("camx=5\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x.csv"), "ksum-verify"]) == 2
        assert "camx" in capsys.readouterr().err

    def test_invalid_parameter_exit_2(self, tmp_path):
        code = main(["--out", str(tmp_path / "x.csv"), "compdiv-check", "--l-scale", "1.0"])
        assert code == 2

    @pytest.mark.parametrize("args, work", [
        # were accepted: 10^5 is_prime calls over (L, 2L), then a pass over 7e7 tuples
        (["--m-scale", "1", "--n-scale", "1", "--l-scale", "100001"], "would take 1e+05 primality tests"),
        # was accepted: 55 primes in (350, 700) at M = N = 64 make 33 * (55 * 33)^2 tuples
        (["--l-scale", "350"], "would visit 108709425 (m, ell1, n1, ell2, n2) tuples"),
        # was accepted: 10^8 tuples, at the tuple cap, but one pass of 10^8 entries holds about 3.5 GB
        (["--m-scale", "199999998", "--n-scale", "1", "--l-scale", "2"],
         "one pass over 100000000 (m, ell2, n2) entries would hold 4800000000 bytes"),
    ], ids=["prime_window", "tuples", "bytes"])
    def test_compdiv_work_over_the_cap_exit_2_naming_the_work(self, tmp_path, capsys, args, work):
        out = tmp_path / "x.csv"
        assert main(["--out", str(out), "compdiv-check"] + args) == cli.EXIT_USAGE
        assert work in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("suite, option", [("compdiv-check", "l_scale"), ("equidist", "density_exponent")])
    def test_non_finite_float_exit_2_naming_the_option(self, tmp_path, capsys, suite, option, value):
        # --l-scale inf was exit 3 (an OverflowError); --density-exponent inf passed on empty sets
        out = tmp_path / "x.csv"
        flag = "--" + option.replace("_", "-")
        assert main(["--out", str(out), suite, f"{flag}={value}"]) == cli.EXIT_USAGE
        assert f"configuration rejected: {option} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--density-exponent", "0.5", "--n-list", "-5"],  # was a TypeError traceback
        ["--n-list", "-3"],  # was accepted, printing dstar_N-3 = nan
        ["--n-list", "64,20000"],  # was rejected only after N = 64 was built
        ["--density-exponent", "-0.5"],  # was accepted, drawing the full sets under a new experiment id
    ])
    def test_equidist_bad_ladder_exit_2_without_record(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main(["--out", str(out), "--json", str(tmp_path / "x.json"), "equidist"] + args) == 2
        assert "configuration rejected" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.json").exists()

    def test_internal_check_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        def failing_suite(**kwargs):
            raise ArithmeticError("injected invariant violation")

        monkeypatch.setattr(cli.verify, "compdiv_verify", failing_suite)
        out = tmp_path / "x.csv"
        assert main(["--out", str(out), "compdiv-check"]) == cli.EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert "internal check failed in compdiv-check: injected invariant violation" in err
        assert not out.exists()

    def test_lost_realness_names_the_sum_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.verify.ksums, "_IMAG_TOL", -1.0)  # every sum now fails the check
        a, b = derive_rng(7, 1).integers(-2, 3, size=2)  # the first pair, at c = 1
        out = tmp_path / "x.csv"
        assert main(["--out", str(out), "ksum-verify", "--cmax", "3", "--pairs", "2"]) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert f"internal check failed in ksum-verify: S({a},{b};1) lost realness: imag=" in err
        assert err.rstrip().endswith("phi=1")
        assert not out.exists()

    def test_failed_monotone_check_names_its_parameters_exit_3(self, tmp_path, monkeypatch, capsys):
        real = cli.verify.forms._unit_or_basis
        count = [0]

        def faulty(d):  # half the norm on the fifth call: the beta-step of cycle 2
            vec, norm = real(d)
            count[0] += 1
            return vec, norm / 2 if count[0] == 5 else norm

        monkeypatch.setattr(cli.verify.forms, "_unit_or_basis", faulty)
        out = tmp_path / "x.csv"
        code = main(["--out", str(out), "trilinear-sweep", "--n-specs", "1", "--ladder", "8,16"])
        assert code == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal check failed in trilinear-sweep: alternating objective decreased" in err
        assert re.search(r"at the beta-step of cycle 2, restart 0 "
                         r"\(M=\d+, N=\d+, A=1, theta=-?\d, twisted=False\)", err)
        assert not out.exists()

    def test_each_record_carries_its_own_runtime(self, tmp_path, monkeypatch):
        real = cli.verify.forms.gram_power_singular_value

        def slow_singular_value(mat):  # only the bilinear oracle's record takes this route
            time.sleep(0.3)
            return real(mat)

        monkeypatch.setattr(cli.verify.forms, "gram_power_singular_value", slow_singular_value)
        js = tmp_path / "r.json"
        args = ["trilinear-sweep", "--n-specs", "1", "--ladder", "8,16"]
        assert main(["--out", str(tmp_path / "r.csv"), "--json", str(js)] + args) == 0
        first, second = json.loads(js.read_text())
        assert first["params"] == {"n_specs": 1} and first["runtime_seconds"] >= 0.3
        assert second["params"] == {"ladder": "8,16"} and 0 < second["runtime_seconds"] < 0.3

    @pytest.mark.parametrize("args, option", [
        (["incomplete-verify", "--sharp-specs", "0", "--n-specs", "2"], "sharp_specs"),  # was an IndexError
        (["ksum-verify", "--cmax", "0"], "cmax"),
        (["detcount", "--n-specs", "0"], "n_specs"),
        # unchecked, a count of 0 passes its assertions on no work and --pairs -1 fails inside numpy
        (["ksum-verify", "--pairs", "0"], "pairs"),
        (["ksum-verify", "--pairs", "-1"], "pairs"),
        (["trilinear-sweep", "--n-specs", "0"], "n_specs"),
        (["amplifier-check", "--draws", "0"], "draws"),
        (["incomplete-verify", "--n-specs", "0"], "n_specs"),
        # unchecked, --trials 0 passes four identities on no inputs; the other two failed inside random
        (["identities", "--trials", "0"], "trials"),
        (["identities", "--max-n", "0"], "max_n"),
        (["incomplete-verify", "--gamma-max", "0"], "gamma_max"),
        # were rejected only by DyadicRange, whose message names no option
        (["compdiv-check", "--m-scale", "0"], "m_scale"),
        (["compdiv-check", "--n-scale", "0"], "n_scale"),
    ])
    def test_empty_sweep_exit_2_naming_the_option(self, tmp_path, capsys, args, option):
        out = tmp_path / "x.csv"
        got = args[args.index("--" + option.replace("_", "-")) + 1]
        assert main(["--out", str(out)] + args) == cli.EXIT_USAGE
        assert f"configuration rejected: {option} must be >= 1, got {got}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_seed_outside_64_bits_exit_2_naming_seed(self, tmp_path, capsys, name):
        # -1 ran four suites and failed the other five inside numpy; 2^64 ran ksum-verify
        out = tmp_path / "x.csv"
        args = [name] + _smoke_suite_args()[name]
        for seed in (-1, 2**64):
            assert main(["--out", str(out), "--seed", str(seed)] + args) == cli.EXIT_USAGE
            assert f"configuration rejected: seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()
        for seed in (0, 2**64 - 1):
            assert main(["--out", str(out), "--seed", str(seed)] + args) in (cli.EXIT_OK, cli.EXIT_ASSERTION)

    @pytest.mark.parametrize("flag, path", [
        ("--out", "missing/x.csv"), ("--out", "."), ("--json", "missing/x.json"), ("--json", "."),
    ])
    def test_unwritable_path_exit_2_before_the_suite(self, tmp_path, monkeypatch, capsys, flag, path):
        # was a FileNotFoundError traceback, exit 1, after the whole suite had run
        calls = []
        monkeypatch.setattr(cli.verify, "compdiv_verify", lambda **kwargs: calls.append(kwargs))
        monkeypatch.chdir(tmp_path)
        paths = {"--out": "x.csv", "--json": "x.json", flag: path}
        assert main([arg for item in paths.items() for arg in item] + ["compdiv-check"]) == cli.EXIT_USAGE
        assert f"config error: {flag} path {path!r} cannot be written" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_ksum_verify_over_the_byte_cap_exit_2_naming_cmax_and_pairs(self, tmp_path, capsys):
        verify = cli.verify
        pairs = arith.BYTE_CAP // (2000 * verify.KSUM_PAIR_BYTES) + 1  # at the default cmax
        out = tmp_path / "x.csv"
        assert main(["--out", str(out), "ksum-verify", "--pairs", str(pairs)]) == cli.EXIT_USAGE
        assert f"configuration rejected: cmax=2000, pairs={pairs} would hold" in capsys.readouterr().err
        assert not out.exists()

    def test_module_entry_point_subprocess(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "sp.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "kfractions.cli", "--out", str(out), "--seed", "3",
             "identities", "--trials", "20", "--max-n", "500"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "[PASS] identities: two_term_exact" in proc.stdout
        assert out.exists()


def _smoke_suite_args():
    """SMOKE_SUITE_ARGS of the benchmark's workloads, read without importing the benchmark."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SMOKE_SUITE_ARGS":
            return ast.literal_eval(node.value)
    raise LookupError("SMOKE_SUITE_ARGS not found")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_registry_parity(name, capsys):
    """Every suite's subcommand has help, its signature defaults, and parses the benchmark's flags."""
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: kfractions {name}")
    fn = SUITES[name]
    _, values = cli._resolve([name])
    assert values.pop("out") == "kfractions_records.csv" and values.pop("json") is None
    assert values == {p.name: p.default for p in inspect.signature(fn).parameters.values()}
    _, smoke = cli._resolve([name] + _smoke_suite_args()[name])
    assert set(smoke) == set(values) | {"out", "json"}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_is_deterministic_and_records_its_options(name, tmp_path):
    """Two runs at the benchmark's smoke args write the same CSV but for wall-clock data, and the
    records' params are the resolved options, sequences comma-joined."""
    args = [name] + _smoke_suite_args()[name]
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    codes = [main(["--out", str(out), "--json", str(tmp_path / "r.json")] + args) for out in outs]
    assert codes[0] == codes[1] in (0, 1)
    assert _strip_wall_clock(outs[0]) == _strip_wall_clock(outs[1])
    _, options = cli._resolve(args)
    for key in ("out", "json", "seed"):
        del options[key]
    expected = {k: ",".join(map(str, v)) if isinstance(v, tuple) else v for k, v in options.items()}
    merged = {}
    for rec in json.loads((tmp_path / "r.json").read_text()):  # trilinear-sweep splits them over two records
        assert rec["params"].items() <= expected.items()
        merged.update(rec["params"])
    assert merged == expected


def _perfbench_assignment(name):
    """A top-level assignment of the benchmark's perfbench/spans.py, read without importing it."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name:
            return node.value
    raise LookupError(f"{name} not found")


def test_traced_names_stay_bound():
    """Every function the benchmark's tracer wraps is still defined where it looks for it."""
    suites = ast.literal_eval(_perfbench_assignment("SUITE_FUNCS"))
    traced = [ast.literal_eval(elt)[1:3] for elt in _perfbench_assignment("TRACED").elts
              if not isinstance(elt, ast.Starred)]  # the starred entries are the suites
    assert len(traced) > 20 and len(suites) == len(SUITES)
    for home, path in traced + [("verify", name) for name in suites]:
        owner = importlib.import_module(f"kfractions.{home}")
        *cls, attr = path.split(".")
        for name in cls:
            owner = getattr(owner, name)
        assert callable(vars(owner).get(attr)), f"kfractions.{home}.{path} is not bound"


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    """The benchmark's tracer finds every name it wraps and puts each original back."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only: no cache files next to the benchmark
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()  # a KeyError names any traced function that is gone
        assert tracer.patched >= len(spans.TRACED)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
