"""Suite-level behavior: record shapes, subcommand map."""

from kfractions.verify import (
    SUITES,
    compdiv_verify,
    equidist_verify,
    ksum_verify,
)


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


def test_direct_call_record_carries_its_arguments_and_runtime():
    rec = compdiv_verify(16, 16, 4.0)
    assert (rec.subcommand, rec.params, rec.seed) == ("compdiv-check", {"m_scale": 16, "n_scale": 16, "l_scale": 4.0}, 7)
    assert rec.runtime_seconds > 0


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


def test_ksum_verify_batches_match_the_per_pair_loop():
    rec = ksum_verify(cmax=80, pairs=6)
    assert (rec.values, rec.assertions) == per_pair_ksum_values(80, 6, 7)
