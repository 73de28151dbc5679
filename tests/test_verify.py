"""Suite-level behavior: record shapes, subcommand map."""

import re
import tracemalloc
from math import gcd

import numpy as np
import pytest

from kfractions import arith, forms, ksums, verify
from kfractions.verify import (
    SUITES,
    bilinear_oracle_verify,
    compdiv_verify,
    equidist_verify,
    ksum_verify,
)

KSUM_ASSERTIONS = ("oracle_equivalence", "weil_bound", "symmetry", "ramanujan_consistency", "realness")


def test_subcommand_map_is_complete():
    assert set(SUITES) == {
        "ksum-verify",
        "identities",
        "incomplete-verify",
        "trilinear-sweep",
        "amplifier-check",
        "compdiv-check",
        "detcount",
        "equidist",
        "calibrate-constants",
    }


def test_equidist_trend_scoping():
    # beyond the stated density threshold the trend is not asserted
    rec = equidist_verify(n_list=(256, 512), density_exponent=0.5, seed=1)
    assert rec.assertions["ladder_trend"] is True
    assert rec.assertions["deterministic"] is True


def test_equidist_degenerate_draws_do_not_crash():
    # extremely sparse draws can yield zero coprime pairs; rows record None
    rec = equidist_verify(n_list=(64, 128), density_exponent=0.9, seed=1)
    assert rec.assertions["deterministic"] is True


def test_record_passed_flag():
    rec = ksum_verify(cmax=20, pairs=3, seed=1)
    assert rec.passed
    assert rec.experiment_id == ksum_verify(cmax=20, pairs=3, seed=1).experiment_id


def test_oracle_equivalence_witnesses_a_wrong_unit_factor_in_xbar(monkeypatch):
    # the brute tables read xbar as ubar times the reversed units; with ubar forced to 1 every brute sum at c
    # becomes S(au, b; c), u = xs[phi-1], and a fast block at q becomes S(a u_q, b; q) with its own u_q
    assert ksum_verify(cmax=60, pairs=4).passed
    table = ksums._unit_table

    def ubar_one(c):
        xs, _, roots = table(c)
        return xs, 1, roots

    monkeypatch.setattr(ksums, "_unit_table", ubar_one)
    rec = ksum_verify(cmax=60, pairs=4)
    assert rec.assertions["oracle_equivalence"] is False and rec.values["max_fast_vs_brute"] > 1
    # for a unit w, S(aw, b) = S(a, bw) = S(bw, a) and gcd(aw, b, c) = gcd(a, b, c): only the fast route sees it
    assert all(rec.assertions[name] for name in ("symmetry", "weil_bound", "ramanujan_consistency"))


@pytest.mark.parametrize("seed", [7, 11])
def test_oracle_equivalence_witnesses_a_square_root_one_hensel_step_short(monkeypatch, seed):
    # a Salie block at p^alpha built on a root of ab mod p^(alpha-1) only: the fast route drifts, the brute does not
    assert ksum_verify(cmax=60, pairs=4, seed=seed).passed
    root = ksums._sqrt_mod_prime_power
    monkeypatch.setattr(ksums, "_sqrt_mod_prime_power", lambda t, p, alpha: root(t, p, alpha - 1))
    rec = ksum_verify(cmax=60, pairs=4, seed=seed)
    assert [name for name in KSUM_ASSERTIONS if not rec.assertions[name]] == ["oracle_equivalence"]
    assert rec.values["max_fast_vs_brute"] > 2  # 2.30 at seed 7, 3.09 at seed 11


@pytest.mark.parametrize("seed", [7, 11])
def test_ramanujan_consistency_witnesses_the_complementary_divisor_swapped(monkeypatch, seed):
    # Hoelder's closed form read at q = gcd(a, c) in place of q = c / gcd(a, c)
    assert ksum_verify(cmax=60, pairs=4, seed=seed).passed

    def swapped(a, c):
        q = arith.factorize(gcd(a, c))
        return q.moebius * (arith.factorize(c).euler_phi // q.euler_phi)

    monkeypatch.setattr(ksums, "ramanujan", swapped)
    rec = ksum_verify(cmax=60, pairs=4, seed=seed)
    assert [name for name in KSUM_ASSERTIONS if not rec.assertions[name]] == ["ramanujan_consistency"]
    assert rec.values["max_ramanujan_gap"] > 1  # 59.0 at both seeds


@pytest.mark.parametrize("seed", [7, 11])
def test_bilinear_spectral_oracle_witnesses_a_weak_search(monkeypatch, seed):
    # the search and the SVD's dense tensor read one stream of the support's columns; the SVD still catches a
    # search cut to one restart and one iteration
    rec = bilinear_oracle_verify(n_specs=4, seed=seed)
    assert rec.passed and rec.values["max_oracle_deviation"] <= 1e-9  # 4.9e-10 at seed 7, 4.1e-10 at seed 11
    search = forms.extremal_search
    monkeypatch.setattr(forms, "extremal_search", lambda spec, restarts, iters, seed: search(spec, False, 1, 1, seed))
    rec = bilinear_oracle_verify(n_specs=4, seed=seed)
    assert rec.assertions["bilinear_spectral_oracle"] is False
    assert rec.values["max_oracle_deviation"] > 0.1  # 0.327 at seed 7, 0.257 at seed 11


def test_direct_call_record_carries_its_arguments_and_runtime():
    rec = compdiv_verify(16, 16, 4.0)
    assert (rec.subcommand, rec.params, rec.seed) == ("compdiv-check", {"m_scale": 16, "n_scale": 16, "l_scale": 4.0}, 7)
    assert rec.runtime_seconds > 0


@pytest.mark.parametrize("call, message", [
    (lambda: verify.detcount_verify(n_specs=True), "n_specs must be an integer, got True"),  # ran one spec
    (lambda: ksum_verify(cmax=np.int64(0), pairs=2), "cmax must be >= 1, got 0"),  # failed inside numpy
    (lambda: ksum_verify(cmax=20.5), "cmax must be an integer, got 20.5"),  # a bare TypeError
    (lambda: ksum_verify(cmax=4, seed=7.0), "seed must be an integer, got 7.0"),
])
def test_suite_sizes_and_seed_go_through_the_integer_rule(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_suite_stores_the_converted_ints():
    rec = ksum_verify(cmax=np.int64(4), pairs=np.int32(2), seed=np.uint8(1))
    assert rec.params == {"cmax": 4, "pairs": 2} and rec.seed == 1
    assert all(type(x) is int for x in (*rec.params.values(), rec.seed))
    assert rec.experiment_id == ksum_verify(cmax=4, pairs=2, seed=1).experiment_id


def per_pair_ksum_values(cmax: int, pairs: int, seed: int) -> tuple[dict, dict]:
    """ksum-verify's values and assertions from one scalar call per sum: the reference for the batches."""
    from kfractions import ksums
    from kfractions.records import derive_rng

    K = ksums.KloostermanParams
    max_fast = max_weil = max_sym = max_ram = 0.0
    ok = True
    for c in range(1, cmax + 1):
        gen = derive_rng(seed, c)
        for _ in range(pairs):
            a = int(gen.integers(-2 * c, 2 * c + 1))
            b = int(gen.integers(-2 * c, 2 * c + 1))
            brute = ksums.kloosterman_brute(K(a, b, c)).value
            fast = ksums.kloosterman_fast(K(a, b, c)).value
            weil = ksums.weil_bound(K(a, b, c))
            sym = ksums.kloosterman_brute(K(b, a, c)).value
            max_fast = max(max_fast, abs(fast - brute) / max(1.0, abs(brute)))
            max_weil = max(max_weil, abs(brute) / weil)
            max_sym = max(max_sym, abs(brute - sym))
            ok = ok and abs(brute) <= weil * (1 + 1e-9)
        for a in (0, 1, int(gen.integers(1, 4 * c + 1))):
            max_ram = max(max_ram, abs(ksums.ramanujan(a, c) - ksums.kloosterman_brute(K(a, 0, c)).value))
    values = {
        "moduli_checked": float(cmax),
        "max_fast_vs_brute": max_fast,
        "max_weil_ratio": max_weil,
        "max_symmetry_gap": max_sym,
        "max_ramanujan_gap": max_ram,
    }
    assertions = {
        "oracle_equivalence": max_fast <= 1e-6,
        "weil_bound": ok and max_weil <= 1 + 1e-9,
        "symmetry": max_sym <= 1e-9,
        "ramanujan_consistency": max_ram <= 1e-9,
        "realness": True,
    }
    return values, assertions


@pytest.mark.parametrize("seed", [7, 11])
def test_ksum_verify_batches_match_the_per_pair_loop(seed):
    rec = ksum_verify(cmax=80, pairs=6, seed=seed)
    assert (rec.values, rec.assertions) == per_pair_ksum_values(80, 6, seed)


def test_ksum_verify_makes_one_fast_route_call(monkeypatch):
    real, sizes = ksums.kloosterman_fast_batch, []

    def counting(a, b, c):
        sizes.append(len(a))
        return real(a, b, c)

    monkeypatch.setattr(ksums, "kloosterman_fast_batch", counting)
    assert ksum_verify(cmax=30, pairs=4).passed
    assert sizes == [30 * 4]


def test_ksum_verify_makes_one_brute_call_of_its_own(monkeypatch):
    real_batch, real_fast, calls, inside_fast = ksums.kloosterman_batch, ksums.kloosterman_fast_batch, [], []

    def counting(a, b, c):  # the fast route's own fallback gathers, at one block each, are not counted
        if not inside_fast:
            calls.append((len(a), np.asarray(c).tolist()))
        return real_batch(a, b, c)

    def fast(a, b, c):
        inside_fast.append(True)
        try:
            return real_fast(a, b, c)
        finally:
            inside_fast.pop()

    monkeypatch.setattr(ksums, "kloosterman_batch", counting)
    monkeypatch.setattr(ksums, "kloosterman_fast_batch", fast)
    assert ksum_verify(cmax=30, pairs=4).passed
    assert calls == [(30 * (2 * 4 + 3), np.repeat(np.arange(1, 31), 2 * 4 + 3).tolist())]


def test_ksum_verify_over_the_byte_cap_is_rejected_before_any_draw(monkeypatch):
    per_pair, per_modulus, cap = verify.KSUM_PAIR_BYTES, verify.KSUM_MODULUS_BYTES, arith.BYTE_CAP
    pairs = (cap // 2000 - per_modulus) // per_pair + 1  # the fewest pairs over the cap at cmax = 2000
    assert 2000 * ((pairs - 1) * per_pair + per_modulus) <= cap < 2000 * (pairs * per_pair + per_modulus)
    monkeypatch.setattr(verify, "derive_rng", None)  # a draw would raise TypeError
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^cmax=2000, pairs={pairs} would hold \d+ bytes, over the cap"):
            ksum_verify(cmax=2000, pairs=pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ksum_verify_byte_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(arith, "BYTE_CAP", 20 * (3 * verify.KSUM_PAIR_BYTES + verify.KSUM_MODULUS_BYTES))
    assert ksum_verify(cmax=20, pairs=3).passed
    with pytest.raises(ValueError, match="cmax=20, pairs=4"):
        ksum_verify(cmax=20, pairs=4)
