"""Suite-level behavior: record shapes, subcommand map."""

from kfractions.verify import (
    SUITES,
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
    rec = equidist_verify(n_list=(256, 512), density_exponent=0.5, sampled=True, seed=1)
    assert rec.assertions["ladder_trend"] is True
    assert rec.assertions["deterministic"] is True


def test_equidist_degenerate_draws_do_not_crash():
    # extremely sparse draws can yield zero coprime pairs; rows record None
    rec = equidist_verify(n_list=(64, 128), density_exponent=0.9, sampled=True, seed=1)
    assert rec.assertions["deterministic"] is True


def test_record_passed_flag():
    rec = ksum_verify(cmax=20, pairs=3, seed=1)
    assert rec.passed
    assert rec.experiment_id == ksum_verify(cmax=20, pairs=3, seed=1).experiment_id
