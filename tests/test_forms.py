"""Forms: tensor construction, evaluation oracles, extremal search, envelopes,
Cauchy-Schwarz and amplifier chains, complementary divisor."""

import cmath
import random
import tracemalloc
from math import gcd, sqrt

import numpy as np
import pytest

from kfractions import forms
from kfractions.arith import jacobi
from kfractions.characters import CHARACTER_MODULUS_LIMIT, character_group
from kfractions.forms import (
    AmplifierSpec,
    CauchyReport,
    CoefficientVector,
    DyadicRange,
    FormSpec,
    _inner_terms,
    amplifier_check,
    bound_bilinear,
    bound_trilinear,
    bound_twisted,
    build_tensor,
    cauchy_step,
    complementary_divisor_check,
    eval_trilinear,
    extremal_search,
    gram_power_singular_value,
    scaling_experiment,
    trivial_bound,
)


def brute_trilinear(alpha, beta, nu, spec, twisted=False):
    """Independent pure-python triple loop with exact integer phases."""
    total = 0j
    for m in spec.m_range.members:
        m = int(m)
        for n in spec.n_range.members:
            n = int(n)
            if gcd(m, n) != 1:
                continue
            if twisted and (m * n) % 2 == 0:
                continue
            mbar = pow(m, -1, n) if n > 1 else 0
            for a in spec.a_range.members:
                a = int(a)
                phase = ((spec.theta * a * mbar) % n) / n if n > 1 else 0.0
                if spec.theta_f:
                    phase += spec.theta_f * a / (m * n)
                term = cmath.exp(2j * cmath.pi * phase)
                if twisted:
                    term *= jacobi(m, n)
                total += (
                    alpha.values[spec.m_range.index(m)]
                    * beta.values[spec.n_range.index(n)]
                    * nu.values[spec.a_range.index(a)]
                    * term
                )
    return total


def scalar_shifted_tensor(spec):
    """entry(a, m, n) = e(theta*a*mbar/n) * e(theta_f*a/(mn)), both factors
    evaluated one entry at a time with the float operations of the vectorized
    build; only their product is taken on arrays (numpy's array and scalar
    complex products may round differently)."""
    ms, ns, az = spec.m_range.members, spec.n_range.members, spec.a_range.members
    base = np.zeros((len(az), len(ms), len(ns)), dtype=np.complex128)
    pert = np.zeros_like(base)
    for j, n in enumerate(ns):
        n = int(n)
        for i, m in enumerate(ms):
            m = int(m)
            if gcd(m, n) != 1:
                continue
            mbar = pow(m, -1, n)
            for k, a in enumerate(az):
                a = int(a)
                base[k, i, j] = np.exp(2j * np.pi * ((spec.theta * a * mbar) % n / n))
                pert[k, i, j] = np.exp(2j * np.pi * (spec.theta_f * a / (m * n)))
    return base * pert


def _unit(d):
    norm = float(np.linalg.norm(d))
    if norm == 0.0:
        e = np.zeros_like(d)
        e[0] = 1.0
        return e, 0.0
    return d.conj() / norm, norm


def einsum_search(spec, twisted=False, restarts=8, iters=300, seed=0):
    """Reference alternating search, one restart after another: three einsum
    contractions of the dense tensor per cycle, with the seeding, stopping rule
    and tie-break of `extremal_search`.  Returns the winner's (value, restart,
    iterations, alpha, beta, nu) and each restart's (objective, cycles)."""
    tensor = build_tensor(spec, twisted)
    best, per_restart = None, []
    for r in range(restarts):
        gen = np.random.default_rng(np.random.SeedSequence([seed, r]))
        vecs = []
        for dim in tensor.shape:
            v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
            vecs.append(v / np.linalg.norm(v))
        nu, al, be = vecs
        obj = abs(np.einsum("amn,a,m,n->", tensor, nu, al, be))
        it = 0
        for it in range(1, iters + 1):
            cycle_start = obj
            al, obj = _unit(np.einsum("amn,a,n->m", tensor, nu, be))
            be, obj = _unit(np.einsum("amn,a,m->n", tensor, nu, al))
            nu, obj = _unit(np.einsum("amn,m,n->a", tensor, al, be))
            if obj - cycle_start <= 1e-10 * max(obj, 1e-300) and it > 1:
                break
        per_restart.append((obj, it))
        if best is None or obj > best[0]:
            best = (obj, r, it, al, be, nu)
    return best, per_restart


def _assert_matches(res, reference):
    """An `extremal_search` result against the winner of `einsum_search`."""
    value, r, it, al, be, nu = reference
    assert (res.restart_index, res.iterations) == (r, it)
    assert res.value == pytest.approx(value, rel=1e-12)
    for got, want in ((res.alpha, al), (res.beta, be), (res.nu, nu)):
        assert _rel_err(got.values, want) <= 1e-12


def w_stack_search(spec, twisted=False, restarts=8, iters=300, seed=0):
    """The block search with the nu-step taken from the stacked rank-one products
    vec(alpha beta^T) written over W and multiplied by T^T, and the stopping rule,
    freezing and tie-break of `extremal_search`.  Returns (value, restart, iterations)."""
    def unit_rows(d):
        units = d.conj()
        norms = np.sqrt((units * d).real.sum(axis=1))
        zero = norms == 0.0
        units[zero, 0] = 1.0
        units /= np.where(zero, 1.0, norms)[:, None]
        return units, norms

    tensor = build_tensor(spec, twisted)
    flat = tensor.reshape(len(tensor), -1)
    ranges = (spec.a_range, spec.m_range, spec.n_range)
    starts = []
    for r in range(restarts):
        gen = np.random.default_rng(np.random.SeedSequence([seed, r]))
        starts.append([CoefficientVector.random_unit(rng, gen).values for rng in ranges])
    nu_v, alpha_v, beta_v = (np.array(block) for block in zip(*starts))
    w_buf = np.matmul(nu_v, flat)
    obj = np.abs(np.einsum("rm,rmn,rn->r", alpha_v, w_buf.reshape(restarts, *tensor.shape[1:]), beta_v))
    cycles = np.zeros(restarts, dtype=np.int64)
    live = np.arange(restarts)
    be, cur = beta_v, obj
    for it in range(1, iters + 1):
        w = w_buf[: len(live)].reshape(len(live), *tensor.shape[1:])
        cycle_start = cur
        al, cur = unit_rows(np.matmul(w, be[:, :, None])[:, :, 0])
        be, cur = unit_rows(np.matmul(al[:, None, :], w)[:, 0, :])
        np.multiply(al[:, :, None], be[:, None, :], out=w)
        nu, cur = unit_rows(w.reshape(len(live), -1) @ flat.T)
        done = (cur - cycle_start <= 1e-10 * np.maximum(cur, 1e-300)) & (it > 1) | (it == iters)
        if done.any():
            stop = live[done]
            obj[stop], cycles[stop] = cur[done], it
            live, be, nu, cur = live[~done], be[~done], nu[~done], cur[~done]
            if not len(live):
                break
        np.matmul(nu, flat, out=w_buf[: len(live)])
    best = int(np.argmax(obj))
    return float(obj[best]), best, int(cycles[best])


class TestDyadicRange:
    def test_endpoints(self):
        assert list(DyadicRange(8).members) == [4, 5, 6, 7, 8]
        assert list(DyadicRange(1).members) == [1]
        assert list(DyadicRange(5).members) == [3, 4, 5]
        assert 4 in DyadicRange(8) and 3 not in DyadicRange(8)

    def test_coefficients(self):
        rng = DyadicRange(8)
        v = CoefficientVector.unit(rng, 6)
        assert v.norm() == 1.0
        gen = np.random.default_rng(0)
        w = CoefficientVector.random_unit(rng, gen)
        assert w.norm() == pytest.approx(1.0, abs=1e-12)
        assert w.normalized().norm() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            CoefficientVector(rng, np.ones(3))


class TestTensor:
    def test_entry_values(self):
        spec = FormSpec(2, 2, 2, theta=1)
        t = build_tensor(spec)
        e = t[spec.a_range.index(1), spec.m_range.index(1), spec.n_range.index(2)]
        assert e == pytest.approx(-1.0)
        assert t[0, spec.m_range.index(2), spec.n_range.index(2)] == 0

    def test_unit_modulus_on_support(self):
        spec = FormSpec(12, 10, 6, theta=3)
        t = build_tensor(spec)
        nz = t[t != 0]
        assert np.max(np.abs(np.abs(nz) - 1)) < 1e-12
        for i, m in enumerate(spec.m_range.members):
            for j, n in enumerate(spec.n_range.members):
                if gcd(int(m), int(n)) > 1:
                    assert np.all(t[:, i, j] == 0)

    def test_twisted_support_and_values(self):
        spec = FormSpec(9, 9, 4, theta=2)
        t = build_tensor(spec, twisted=True)
        for i, m in enumerate(spec.m_range.members):
            for j, n in enumerate(spec.n_range.members):
                m, n = int(m), int(n)
                col = t[:, i, j]
                if (m * n) % 2 == 0 or gcd(m, n) > 1:
                    assert np.all(col == 0)
                else:
                    expect = jacobi(m, n) * np.exp(
                        2j * np.pi * ((spec.theta * spec.a_range.members * pow(m, -1, n)) % n) / n
                    )
                    assert np.allclose(col, expect, atol=1e-12)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            build_tensor(FormSpec(2000, 2000, 2000))

    @pytest.mark.parametrize("theta_f", [-3, 1, 3])
    def test_reciprocity_perturbation_matches_scalar_loop_exactly(self, theta_f):
        spec = FormSpec(13, 11, 7, theta=2, theta_f=theta_f)
        assert np.array_equal(build_tensor(spec), scalar_shifted_tensor(spec))


class TestEvaluation:
    def test_unit_supports(self):
        spec = FormSpec(6, 5, 4, theta=2)
        m0, n0, a0 = 5, 4, 3
        assert gcd(m0, n0) == 1
        val = eval_trilinear(
            CoefficientVector.unit(spec.m_range, m0),
            CoefficientVector.unit(spec.n_range, n0),
            CoefficientVector.unit(spec.a_range, a0),
            spec,
        )
        expect = cmath.exp(2j * cmath.pi * ((spec.theta * a0 * pow(m0, -1, n0)) % n0) / n0)
        assert val == pytest.approx(expect)

    def test_zero_nu(self):
        spec = FormSpec(6, 5, 4)
        gen = np.random.default_rng(1)
        val = eval_trilinear(
            CoefficientVector.random_unit(spec.m_range, gen),
            CoefficientVector.random_unit(spec.n_range, gen),
            CoefficientVector.zeros(spec.a_range),
            spec,
        )
        assert val == 0

    @pytest.mark.parametrize("twisted", [False, True])
    def test_streaming_matches_brute_loop(self, twisted):
        gen = np.random.default_rng(2)
        spec = FormSpec(9, 11, 5, theta=-3)
        al = CoefficientVector.random_unit(spec.m_range, gen)
        be = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        got = eval_trilinear(al, be, nu, spec, twisted=twisted)
        expect = brute_trilinear(al, be, nu, spec, twisted=twisted)
        assert got == pytest.approx(expect, abs=1e-9)

    def test_streaming_matches_dense_contraction(self):
        gen = np.random.default_rng(3)
        spec = FormSpec(14, 13, 7, theta=5)
        al = CoefficientVector.random_unit(spec.m_range, gen)
        be = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        t = build_tensor(spec)
        dense = complex(np.einsum("amn,a,m,n->", t, nu.values, al.values, be.values))
        stream = eval_trilinear(al, be, nu, spec)
        assert stream == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_linearity_in_each_slot(self):
        gen = np.random.default_rng(4)
        spec = FormSpec(8, 7, 5, theta=1)
        al = CoefficientVector.random_unit(spec.m_range, gen)
        be = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        base = eval_trilinear(al, be, nu, spec)
        c = complex(gen.standard_normal(), gen.standard_normal())
        for slot in range(3):
            vecs = [al, be, nu]
            vecs[slot] = CoefficientVector(vecs[slot].range, c * vecs[slot].values)
            v = eval_trilinear(*vecs, spec)
            assert v == pytest.approx(c * base, rel=1e-9, abs=1e-12)

    def test_perturbed_entries(self):
        spec = FormSpec(6, 5, 4, theta=1, theta_f=1)
        t = build_tensor(spec)
        m0, n0, a0 = 5, 4, 3
        base = ((a0 * pow(m0, -1, n0)) % n0) / n0
        expect = cmath.exp(2j * cmath.pi * (base + a0 / (m0 * n0)))
        got = t[spec.a_range.index(a0), spec.m_range.index(m0), spec.n_range.index(n0)]
        assert got == pytest.approx(expect, abs=1e-12)

    def test_reciprocity_consistency(self):
        # e(theta a mbar/n) = e(-theta a nbar/m + theta a/(mn)) entrywise
        gen = np.random.default_rng(5)
        spec = FormSpec(7, 9, 5, theta=2)
        al = CoefficientVector.random_unit(spec.m_range, gen)
        be = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        direct = eval_trilinear(al, be, nu, spec)
        swapped_spec = FormSpec(9, 7, 5, theta=-2, theta_f=2)
        swapped = eval_trilinear(be, al, nu, swapped_spec)
        assert swapped == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_bilinear(self):
        gen = np.random.default_rng(6)
        m_scale, n_scale, a = 10, 9, 4
        al = CoefficientVector.random_unit(DyadicRange(m_scale), gen)
        be = CoefficientVector.random_unit(DyadicRange(n_scale), gen)
        spec = FormSpec(m_scale, n_scale, 1, theta=a)
        got = eval_trilinear(al, be, CoefficientVector.unit(spec.a_range, 1), spec)
        total = 0j
        for m in DyadicRange(m_scale).members:
            for n in DyadicRange(n_scale).members:
                m_, n_ = int(m), int(n)
                if gcd(m_, n_) != 1:
                    continue
                ph = ((a * pow(m_, -1, n_)) % n_) / n_ if n_ > 1 else 0.0
                total += (
                    al.values[DyadicRange(m_scale).index(m_)]
                    * be.values[DyadicRange(n_scale).index(n_)]
                    * cmath.exp(2j * cmath.pi * ph)
                )
        assert got == pytest.approx(total, abs=1e-10)
        # the same form with theta = 1 and nu = delta_a on the range A = a
        spec = FormSpec(m_scale, n_scale, a_scale=a, theta=1)
        tri = eval_trilinear(al, be, CoefficientVector.unit(spec.a_range, a), spec)
        assert got == pytest.approx(tri, abs=1e-10)
        with pytest.raises(ValueError):
            FormSpec(m_scale, n_scale, 1, theta=0)


class TestExtremalSearch:
    def test_degenerate_1x1x1(self):
        res = extremal_search(FormSpec(1, 1, 1, theta=1), restarts=2, iters=20, seed=0)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_unit_norms_and_objective_attained(self):
        spec = FormSpec(10, 12, 6, theta=1)
        res = extremal_search(spec, restarts=3, iters=200, seed=1)
        for vec in (res.alpha, res.beta, res.nu):
            assert vec.norm() == pytest.approx(1.0, abs=1e-9)
        attained = abs(eval_trilinear(res.alpha, res.beta, res.nu, spec))
        assert attained == pytest.approx(res.value, rel=1e-8, abs=1e-10)

    def test_dominates_random_draws_and_frobenius(self):
        spec = FormSpec(10, 12, 6, theta=1)
        res = extremal_search(spec, restarts=4, iters=300, seed=2)
        t = build_tensor(spec)
        assert res.value <= np.linalg.norm(t) * (1 + 1e-12)
        gen = np.random.default_rng(3)
        for _ in range(1000):
            al = CoefficientVector.random_unit(spec.m_range, gen)
            be = CoefficientVector.random_unit(spec.n_range, gen)
            nu = CoefficientVector.random_unit(spec.a_range, gen)
            val = abs(np.einsum("amn,a,m,n->", t, nu.values, al.values, be.values))
            assert val <= res.value * (1 + 1e-9)

    def test_bilinear_slice_matches_gram_iteration_and_svd(self):
        rng = random.Random(4)
        for _ in range(5):
            spec = FormSpec(rng.randint(8, 40), rng.randint(8, 40), 1, theta=rng.choice([-2, 1, 3]))
            res = extremal_search(spec, restarts=3, iters=1500, seed=5)
            mat = build_tensor(spec)[0]
            sigma = gram_power_singular_value(mat)
            svd = np.linalg.svd(mat, compute_uv=False)[0]
            assert res.value == pytest.approx(sigma, abs=1e-6 * max(1, sigma))
            assert sigma == pytest.approx(svd, abs=1e-8 * max(1, svd))

    def test_global_phase_invariance(self, monkeypatch):
        spec = FormSpec(9, 8, 4, theta=1)
        base = extremal_search(spec, restarts=3, iters=300, seed=6)
        real = forms._phases
        rotation = np.exp(2j * np.pi * 0.2371)
        monkeypatch.setattr(forms, "_phases", lambda *args: rotation * real(*args))
        rotated = extremal_search(spec, restarts=3, iters=300, seed=6)
        assert rotated.value == pytest.approx(base.value, abs=1e-9 * max(1, base.value))

    @pytest.mark.parametrize("spec, twisted", [
        (FormSpec(12, 10, 7, theta=2), False),
        (FormSpec(11, 13, 6, theta=-3), True),
        (FormSpec(10, 12, 5, theta=1, theta_f=3), False),
        (FormSpec(24, 20, 1, theta=3), False),
    ], ids=["plain", "twisted", "reciprocity", "A1"])
    def test_matches_einsum_reference(self, spec, twisted):
        res = extremal_search(spec, twisted=twisted, restarts=3, iters=300, seed=11)
        _assert_matches(res, einsum_search(spec, twisted, restarts=3, iters=300, seed=11)[0])

    @pytest.mark.parametrize("spec, twisted, seed", [
        (FormSpec(12, 10, 7, theta=2), False, 0),
        (FormSpec(11, 13, 6, theta=-3), True, 0),
        (FormSpec(10, 12, 5, theta=1, theta_f=3), False, 0),
        (FormSpec(24, 20, 1, theta=3), False, 2),
    ], ids=["plain", "twisted", "reciprocity", "A1"])
    def test_winner_frozen_while_the_live_set_shrinks(self, spec, twisted, seed):
        res = extremal_search(spec, twisted=twisted, restarts=4, iters=300, seed=seed)
        winner, per_restart = einsum_search(spec, twisted, restarts=4, iters=300, seed=seed)
        cycles = [c for _, c in per_restart]
        # the restarts stop at different cycles, and the winner before the last of them
        assert len(set(cycles)) > 1 and cycles[winner[1]] < max(cycles) < 300
        _assert_matches(res, winner)

    @pytest.mark.parametrize("spec, seed, winner_cut", [
        (FormSpec(16, 16, 16, theta=1), 0, True),
        (FormSpec(12, 10, 7, theta=2), 0, False),
    ], ids=["winner-cut", "loser-cut"])
    def test_iters_cuts_off_some_restarts_only(self, spec, seed, winner_cut):
        res = extremal_search(spec, restarts=4, iters=100, seed=seed)
        winner, per_restart = einsum_search(spec, restarts=4, iters=100, seed=seed)
        cycles = [c for _, c in per_restart]
        assert min(cycles) < 100 and 100 in cycles and (cycles[winner[1]] == 100) == winner_cut
        _assert_matches(res, winner)

    def test_zero_iters_returns_the_best_start(self):
        spec = FormSpec(9, 8, 4, theta=1)
        res = extremal_search(spec, restarts=4, iters=0, seed=1)
        assert res.iterations == 0
        _assert_matches(res, einsum_search(spec, restarts=4, iters=0, seed=1)[0])

    @pytest.mark.parametrize("kwargs, message", [
        ({"restarts": 0}, "restarts must be >= 1, got 0"),  # was a TypeError
        ({"restarts": -1}, "restarts must be >= 1, got -1"),
        ({"iters": -1}, "iters must be >= 0, got -1"),
    ])
    def test_bad_option_rejected_before_the_tensor_is_built(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(forms, "_phases", lambda *args: pytest.fail("a phase was computed"))
        with pytest.raises(ValueError, match=message):
            extremal_search(FormSpec(9, 8, 4), **kwargs)

    def test_zero_tensor_ties_go_to_the_lowest_restart(self, monkeypatch):
        real = forms._phases
        monkeypatch.setattr(forms, "_phases", lambda *args: np.zeros_like(real(*args)))
        res = extremal_search(FormSpec(6, 8, 10), restarts=3, iters=50)
        assert (res.value, res.restart_index, res.iterations) == (0.0, 0, 2)
        for vec in (res.alpha, res.beta, res.nu):  # every contraction vanishes: e_0
            assert np.array_equal(vec.values, np.eye(len(vec.values))[0])

    @pytest.mark.parametrize("spec, twisted", [
        (FormSpec(12, 10, 7, theta=2), False),
        (FormSpec(11, 13, 6, theta=-3), True),  # theta shares the factor 3 with n = 9 and 12
        (FormSpec(10, 12, 5, theta=1, theta_f=3), False),
        (FormSpec(24, 20, 1, theta=3), False),
        (FormSpec(15, 16, 4, theta=6), False),  # theta shares a factor with every even n and with 9, 15
    ], ids=["plain", "twisted", "reciprocity", "A1", "theta-shares-factors"])
    def test_support_matrix_is_the_dense_tensor_on_its_support(self, spec, twisted):
        t_s, m_of, n_of = forms._support_matrix(spec, twisted)
        dense = build_tensor(spec, twisted).reshape(len(spec.a_range), -1)
        ms, ns = spec.m_range.members, spec.n_range.members
        support = m_of * len(ns) + n_of
        want = [i * len(ns) + j for j, n in enumerate(ns) for i, m in enumerate(ms)  # n-major
                if gcd(int(m), int(n)) == 1 and (not twisted or m * n % 2 == 1)]
        assert support.tolist() == want
        assert np.array_equal(t_s, dense[:, support])  # bit for bit
        assert np.all(t_s != 0)  # no entry on S vanishes
        assert not np.any(np.delete(dense, support, axis=1))  # exactly 0 off S

    @pytest.mark.parametrize("cols", [1, 7])
    @pytest.mark.parametrize("spec, twisted", [
        (FormSpec(12, 10, 7, theta=2), False),
        (FormSpec(11, 13, 6, theta=-3), True),
        (FormSpec(10, 12, 5, theta=1, theta_f=3), False),
        (FormSpec(24, 20, 1, theta=3), False),
    ], ids=["plain", "twisted", "reciprocity", "A1"])
    def test_support_matrix_chunks_do_not_move_a_bit(self, monkeypatch, spec, twisted, cols):
        want = forms._support_matrix(spec, twisted)
        monkeypatch.setattr(forms, "_SUPPORT_COLS", cols)  # a column, or a few, per kernel call
        got = forms._support_matrix(spec, twisted)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_over_cap_spec_rejected_before_any_slab(self, monkeypatch):
        monkeypatch.setattr(forms, "_phases", lambda *args: pytest.fail("a phase was computed"))
        message = f"tensor would have 1003003001 entries, cap is {forms.TENSOR_ENTRY_LIMIT}"  # 1001^3
        with pytest.raises(ValueError, match=message):
            extremal_search(FormSpec(2000, 2000, 2000), restarts=1, iters=1)

    def test_search_holds_less_than_the_dense_tensor(self):
        spec = FormSpec(160, 160, 160)
        dense_bytes = 16 * len(spec.a_range) * len(spec.m_range) * len(spec.n_range)  # 8.1 MB
        tracemalloc.start()
        try:
            extremal_search(spec, restarts=4, iters=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes

    def test_unit_or_basis_rows(self):
        units, norms = forms._unit_or_basis(np.array([[3, 4j], [0, 0], [0, 2j]]))
        assert np.array_equal(norms, [5.0, 0.0, 2.0])
        assert np.allclose(units, [[0.6, -0.8j], [1, 0], [0, -1j]], rtol=1e-15, atol=0)  # the zero row becomes e_0

    def test_monotone_failure_names_its_parameters(self, monkeypatch):
        real = forms._unit_or_basis
        count = [0]

        def faulty(d):  # half the norm on the fifth call: the beta-step of cycle 2
            vec, norm = real(d)
            count[0] += 1
            return vec, norm / 2 if count[0] == 5 else norm

        monkeypatch.setattr(forms, "_unit_or_basis", faulty)
        with pytest.raises(ArithmeticError, match=(
            r"decreased: .* at the beta-step of cycle 2, restart 0 "
            r"\(M=9, N=8, A=4, theta=-2, twisted=True\)"
        )):
            extremal_search(FormSpec(9, 8, 4, theta=-2), twisted=True, restarts=2, iters=50)

    def test_monotone_failure_on_one_restart_names_it(self, monkeypatch):
        real = forms._unit_or_basis
        count = [0]

        def faulty(d):  # half restart 1's norm alone on the fifth call: the beta-step of cycle 2
            vecs, norms = real(d)
            count[0] += 1
            if count[0] == 5:
                norms[1] /= 2
            return vecs, norms

        monkeypatch.setattr(forms, "_unit_or_basis", faulty)
        with pytest.raises(ArithmeticError, match=(
            r"decreased: .* at the beta-step of cycle 2, restart 1 "
            r"\(M=9, N=8, A=4, theta=-2, twisted=True\)"
        )):
            extremal_search(FormSpec(9, 8, 4, theta=-2), twisted=True, restarts=3, iters=50)

    def test_seed_reproducibility(self):
        spec = FormSpec(9, 8, 4, theta=1)
        r1 = extremal_search(spec, restarts=3, iters=100, seed=7)
        r2 = extremal_search(spec, restarts=3, iters=100, seed=7)
        assert r1.value == r2.value and r1.restart_index == r2.restart_index


    @pytest.mark.parametrize("spec, twisted, seed", [
        (FormSpec(30, 28, 20, theta=2), False, 3),
        (FormSpec(27, 31, 12, theta=-3), True, 4),
        (FormSpec(26, 24, 18, theta=1, theta_f=3), False, 5),
        (FormSpec(32, 29, 1, theta=3), False, 6),
    ], ids=["plain", "twisted", "reciprocity", "A1"])
    def test_x_stack_cycle_matches_the_w_stack_cycle(self, spec, twisted, seed):
        res = extremal_search(spec, twisted=twisted, restarts=4, iters=300, seed=seed)
        value, restart, iterations = w_stack_search(spec, twisted, restarts=4, iters=300, seed=seed)
        assert (res.restart_index, res.iterations) == (restart, iterations)
        assert res.value == pytest.approx(value, rel=1e-12)

    def test_monotone_history_names_the_first_half_step_then_the_restart(self):
        history = np.array([[2.0, 2.0, 2.0],
                            [2.0, 2.0, 2.0],
                            [2.0, 1.0, 1.0],   # the beta-step fails on the second and third live restarts
                            [1.0, 1.0, 1.0]])  # the nu-step fails on the first
        with pytest.raises(ArithmeticError, match=r"2\.0 -> 1\.0 at the beta-step of cycle 5, restart 7 "):
            forms._assert_monotone(history, FormSpec(9, 8, 4), False, np.array([3, 7, 9]), 5)
        within_tolerance = np.array([[2.0], [2.0 - 1e-9], [2.0], [2.0]])  # a drop inside 1e-9 * max(1, 2.0)
        forms._assert_monotone(within_tolerance, FormSpec(9, 8, 4), False, np.array([3]), 5)


class TestBoundEnvelopes:
    def test_trilinear_envelope_example(self):
        spec = FormSpec(1, 1, 1, theta=1)
        assert bound_trilinear(spec) == pytest.approx(sqrt(2) * (2**0.25 + 2**0.125))
        with pytest.raises(TypeError):  # no implied-constant argument: a stale positional C is not eps
            bound_trilinear(spec, 2.0)

    def test_shifted_prefactor(self):
        plain = FormSpec(8, 8, 4, theta=3)
        pert = FormSpec(8, 8, 4, theta=3, theta_f=3)
        base = bound_trilinear(plain)
        shifted = bound_trilinear(pert)
        ratio = sqrt(1 + (12 + 12) / 64) / sqrt(1 + 12 / 64)
        assert shifted / base == pytest.approx(ratio)

    def test_bilinear_envelope_example(self):
        m = n = 16
        a = m * n
        assert bound_bilinear(m, n, a) == pytest.approx((2 * m * n) ** 0.375 * (2 * n) ** (11 / 48))
        with pytest.raises(TypeError):
            bound_bilinear(m, n, a, C=0.0)

    def test_trilinear_envelope_asymptotically_below_bilinear(self):
        # exponent comparison 7/10 + 1/4 < 3/4 + 11/48; at constant 1 the ratio is
        # strictly decreasing across the dyadic grid and dips below 1 at the top
        ratios = []
        for k in range(10, 21):
            n = 2**k
            tri = bound_trilinear(FormSpec(n, n, 1, theta=1))
            older = bound_bilinear(n, n, 1)
            ratios.append(tri / older)
        assert all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1))
        assert ratios[-1] < 1.0

    def test_twisted_envelope_formula(self):
        spec = FormSpec(4, 2, 3, theta=-2)
        m, n, a = 4, 2, 3
        expect = sqrt(1 + 2 * 3 / 8) * ((m * n) ** 0.3 * (a * m + a * n) ** 0.35 + sqrt(a) * (n + m) ** 0.875)
        assert bound_twisted(spec) == pytest.approx(expect)
        with pytest.raises(TypeError):
            bound_twisted(spec, 3.0)
        assert bound_twisted(spec, eps=0.1) > bound_twisted(spec)

    def test_trivial(self):
        assert trivial_bound(FormSpec(1, 1, 1)) == 1.0
        assert trivial_bound(FormSpec(4, 4, 4)) == 8.0


class TestCauchyStep:
    def test_zero_beta(self):
        spec = FormSpec(6, 5, 4)
        gen = np.random.default_rng(8)
        rep = cauchy_step(
            spec,
            CoefficientVector.random_unit(spec.m_range, gen),
            CoefficientVector.zeros(spec.n_range),
            CoefficientVector.random_unit(spec.a_range, gen),
        )
        assert rep.lhs == rep.rhs == 0
        assert rep.holds

    def test_single_m_equality(self):
        spec = FormSpec(1, 5, 4, theta=2)
        gen = np.random.default_rng(9)
        rep = cauchy_step(
            spec,
            CoefficientVector.unit(spec.m_range, 1),
            CoefficientVector.random_unit(spec.n_range, gen),
            CoefficientVector.random_unit(spec.a_range, gen),
        )
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-9)

    def test_random_draws(self):
        rng = random.Random(10)
        gen = np.random.default_rng(10)
        for _ in range(25):
            spec = FormSpec(rng.randint(2, 32), rng.randint(2, 32), rng.randint(1, 32),
                            theta=rng.choice([-3, -1, 1, 2]))
            al = CoefficientVector(spec.m_range, 3 * gen.standard_normal(len(spec.m_range))
                                   + 1j * gen.standard_normal(len(spec.m_range)))
            be = CoefficientVector.random_unit(spec.n_range, gen)
            nu = CoefficientVector.random_unit(spec.a_range, gen)
            rep = cauchy_step(spec, al, be, nu)
            assert isinstance(rep, CauchyReport)
            assert rep.holds


    @pytest.mark.parametrize("perturbed", [False, True])
    def test_lhs_matches_dense_contraction(self, perturbed):
        spec = FormSpec(17, 14, 9, theta=3, theta_f=-2 if perturbed else 0)
        gen = np.random.default_rng(16)
        al = CoefficientVector(spec.m_range, gen.standard_normal(len(spec.m_range))
                               + 1j * gen.standard_normal(len(spec.m_range)))
        be = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        dense = np.einsum("amn,a,m,n->", build_tensor(spec), nu.values, al.values, be.values)
        assert cauchy_step(spec, al, be, nu).lhs == pytest.approx(abs(dense) ** 2, rel=1e-12)


def scalar_inner_terms(spec, beta, nu, b):
    """Independent reference for T[m, n] = beta_n * sum_a nu_a e(theta*a*mbar/(b*n)):
    a scalar triple loop with one exact integer phase and one exp per term."""
    ms, ns, az = spec.m_range.members, spec.n_range.members, spec.a_range.members
    out = np.zeros((len(ms), len(ns)), dtype=np.complex128)
    for i, m in enumerate(ms):
        m = int(m)
        for j, n in enumerate(ns):
            n, mod = int(n), b * int(n)
            if gcd(m, mod) != 1:
                continue
            mbar = pow(m, -1, mod)
            asum = 0j
            for t, a in enumerate(az):
                phase = (spec.theta * int(a) * mbar) % mod / mod
                if spec.theta_f:
                    phase += spec.theta_f * int(a) / (m * n)
                asum += nu.values[t] * cmath.exp(2j * cmath.pi * phase)
            out[i, j] = beta.values[j] * asum
    return out


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestInnerTerms:
    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("theta", [-2, 1, 3])
    def test_against_scalar_loop(self, b, theta):
        spec = FormSpec(20, 11, 6, theta=theta)
        gen = np.random.default_rng(100 * b + theta)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        beta.values[::3] = 0.0  # a beta with zero entries
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        want = scalar_inner_terms(spec, beta, nu, b)
        got = _inner_terms(spec, beta, nu, b)
        assert got.shape == want.shape == (len(spec.m_range), len(spec.n_range))
        assert _rel_err(got, want) <= 1e-12
        if gcd(theta, b) == 1:
            # the amplifier masks beta to n coprime to theta*b: T's columns scale with beta_n
            mask = np.gcd(spec.n_range.members, abs(theta) * b) == 1
            want_cb = np.sum(np.abs((want * mask).sum(axis=1)) ** 2)
            rep = amplifier_check(spec, AmplifierSpec(b, 12.0), beta, nu)
            assert rep.c_b == pytest.approx(want_cb, rel=1e-12)

    def test_perturbed_at_b_one_only(self):
        spec = FormSpec(14, 9, 5, theta=2, theta_f=3)
        gen = np.random.default_rng(15)
        alpha = CoefficientVector.random_unit(spec.m_range, gen)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        want_c1 = np.sum(np.abs(scalar_inner_terms(spec, beta, nu, 1).sum(axis=1)) ** 2)
        assert cauchy_step(spec, alpha, beta, nu).c1 == pytest.approx(want_c1, rel=1e-12)
        with pytest.raises(ValueError):
            _inner_terms(spec, beta, nu, 2)


def per_m_amplifier(spec, amp, beta, nu):
    """The amplifier's D_b forms one modulus at a time: per m coprime to b, the character
    form from one character group, and the congruence form and diagonal as energies over
    the admissible ell only, each grouped by ell*n mod m and by ell*n with its groups added
    in order of first appearance.  Returns (c_b, d_b, d_b_direct, diagonal, min_p)."""
    def energy(keys, weights):
        _, first, idx = np.unique(keys.ravel(), return_index=True, return_inverse=True)
        weights = weights.ravel()
        energies = np.bincount(idx, weights.real) ** 2 + np.bincount(idx, weights.imag) ** 2
        return float(np.sum(energies[np.argsort(first)]))

    tb = abs(spec.theta) * amp.b
    ns = spec.n_range.members
    beta = CoefficientVector(beta.range, beta.values * (np.gcd(ns, tb) == 1))
    ells = np.array([ell for ell in amp.primes if gcd(ell, tb) == 1], dtype=np.int64)
    terms = _inner_terms(spec, beta, nu, amp.b)
    c_b = float(np.sum(np.abs(terms.sum(axis=1)) ** 2))
    d_char = d_direct = diag = 0.0
    min_p = None
    for m, t_row in zip(spec.m_range.members, terms):
        m = int(m)
        if gcd(m, amp.b) != 1:
            continue
        group = character_group(m)
        adm_ells = ells[np.gcd(ells, m) == 1]
        min_p = len(adm_ells) if min_p is None else min(min_p, len(adm_ells))
        chi_terms = np.abs(group.character_sums(ells, 1.0)) ** 2 * np.abs(group.character_sums(ns, t_row)) ** 2
        d_char += float(chi_terms.sum()) / group.order
        products = np.outer(adm_ells, ns)
        weights = np.broadcast_to(t_row, products.shape)
        d_direct += energy(products % m, weights)
        diag += energy(products, weights)
    return c_b, d_char, d_direct, diag, min_p


class TestAmplifier:
    def test_prime_window(self):
        amp = AmplifierSpec(1, 8.0)
        assert amp.primes == (11, 13)
        with pytest.raises(ValueError):
            AmplifierSpec(1, 1.0)

    def test_one_scan_of_the_window_per_spec(self, monkeypatch):
        tested, is_prime = [], forms.is_prime

        def counting_is_prime(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(forms, "is_prime", counting_is_prime)
        spec = FormSpec(24, 8, 3, theta=1)
        amp = AmplifierSpec(1, 9.0)
        scan = list(range(10, 18))  # the integers strictly between 9 and 18
        assert tested == scan
        gen = np.random.default_rng(15)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        assert amp.primes == (11, 13, 17) and amplifier_check(spec, amp, beta, nu).holds
        assert tested == scan
        complementary_divisor_check(16, 16, 9.0)  # builds its own spec: one more scan
        assert tested == scan + scan

    def test_inequality_and_partitions(self):
        spec = FormSpec(24, 8, 3, theta=1)
        amp = AmplifierSpec(1, 9.0)  # 2*log(24) ~ 6.36 < 9
        gen = np.random.default_rng(11)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        rep = amplifier_check(spec, amp, beta, nu)
        assert rep.holds and rep.partition_ok and rep.forms_match
        assert rep.d_b == pytest.approx(rep.diagonal + rep.off_diagonal, rel=1e-9, abs=1e-9)

    def test_single_support_beta(self):
        spec = FormSpec(20, 7, 2, theta=1)
        amp = AmplifierSpec(1, 8.0)
        gen = np.random.default_rng(12)
        beta = CoefficientVector.unit(spec.n_range, 5)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        rep = amplifier_check(spec, amp, beta, nu)
        assert rep.holds

    def test_validation(self, monkeypatch):
        spec = FormSpec(24, 8, 3, theta=2)
        gen = np.random.default_rng(13)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        with pytest.raises(ValueError):  # gcd(theta, b) != 1
            amplifier_check(spec, AmplifierSpec(2, 9.0), beta, nu)
        with pytest.raises(ValueError):  # L too small for the window condition
            amplifier_check(FormSpec(24, 8, 3, theta=1), AmplifierSpec(1, 2.0), beta, nu)

        def no_inner_terms(*args, **kwargs):
            raise AssertionError("_inner_terms called above the character-group cap")

        monkeypatch.setattr(forms, "_inner_terms", no_inner_terms)
        # M cap: character sums mod every m; 2*log(M) ~ 18.4 < 20, so only the cap rejects this spec
        with pytest.raises(ValueError, match="capped"):
            amplifier_check(FormSpec(CHARACTER_MODULUS_LIMIT + 2, 8, 3, theta=1), AmplifierSpec(1, 20.0), beta, nu)

    @pytest.mark.parametrize("b, theta", [(b, t) for b in (1, 2, 3) for t in (-1, 1, 2) if gcd(b, t) == 1])
    @pytest.mark.parametrize("m_scale, n_scale, l_scale", [
        (40, 12, 11.0),  # primes 13, 17, 19
        (600, 5, 17.0),  # primes 19 ... 31: products ell*n <= 31*5 < 300 <= m, so no product wraps
    ], ids=["wrapping", "no-wrap"])
    def test_all_m_energies_match_the_per_m_loop(self, m_scale, n_scale, l_scale, b, theta):
        spec = FormSpec(m_scale, n_scale, 4, theta=theta)
        amp = AmplifierSpec(b, l_scale)
        gen = np.random.default_rng(m_scale + 10 * b + theta)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        ms = spec.m_range.members
        ells = np.array(amp.primes)
        shared = np.gcd(ms[np.gcd(ms, b) == 1][:, None], ells[None, :]) > 1
        assert shared.any()  # some admissible m is a multiple of some prime: the admissibility mask matters
        c_b, d_b, d_direct, diag, min_p = per_m_amplifier(spec, amp, beta, nu)
        rep = amplifier_check(spec, amp, beta, nu)
        assert (rep.c_b, rep.d_b, rep.min_principal_count) == (c_b, d_b, min_p)
        assert rep.d_b_direct == pytest.approx(d_direct, rel=1e-12)
        assert rep.diagonal == pytest.approx(diag, rel=1e-12)
        assert rep.diagonal > 0.0  # some n is coprime to theta*b, so beta does not vanish
        if m_scale == 600:
            assert rep.off_diagonal == pytest.approx(0.0, abs=1e-12 * rep.d_b_direct)
        assert rep.holds and rep.partition_ok and rep.forms_match

    def test_byte_cap_rejects_before_the_inner_terms(self, monkeypatch):
        spec = FormSpec(24, 8, 3, theta=1)
        amp = AmplifierSpec(1, 9.0)  # primes 11, 13, 17
        gen = np.random.default_rng(14)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        need = forms.AMPLIFIER_ENTRY_BYTES * len(spec.m_range) * 3 * len(spec.n_range)
        monkeypatch.setattr(forms, "AMPLIFIER_BYTES", need)
        assert amplifier_check(spec, amp, beta, nu).holds  # exactly at the cap
        monkeypatch.setattr(forms, "AMPLIFIER_BYTES", need - 1)
        with pytest.raises(ValueError, match=f"M=24, N=8 with 3 primes would hold {need} bytes"):
            amplifier_check(spec, amp, beta, nu)
        monkeypatch.undo()

        def no_inner_terms(*args, **kwargs):
            raise AssertionError("_inner_terms called above the byte cap")

        monkeypatch.setattr(forms, "_inner_terms", no_inner_terms)
        # M = 1e4, N = 4096, L = 40: 5001 * 10 * 2049 entries; 2*log(M) ~ 18.4 < 40, so only the byte cap rejects
        big = FormSpec(10**4, 4096, 3, theta=1)
        big_beta = CoefficientVector.random_unit(big.n_range, gen)
        need = forms.AMPLIFIER_ENTRY_BYTES * 5001 * 10 * 2049
        with pytest.raises(ValueError, match=f"M=10000, N=4096 with 10 primes would hold {need} bytes"):
            amplifier_check(big, AmplifierSpec(1, 40.0), big_beta, nu)

    @pytest.mark.parametrize("case, pinned", [
        ((32, 6, 1, 15.0, 1),
         ("0x1.20703310511cdp+6", "0x1.2f2edba355058p+8", "0x1.2f2edba35505ap+8", "0x1.30481aefdf216p+8",
          "0x1.d39da5dde5697p-8")),
        ((40, 8, 2, 16.0, -1),
         ("0x1.056b499d7ebe4p+5", "0x1.07b18ec34f5a9p+7", "0x1.07b18ec34f5a7p+7", "0x1.0a600595df9dap+7",
          "0x1.b1235bfae8718p-7")),
        ((24, 6, 3, 17.0, 1),
         ("0x1.26a1b8026e9c8p+5", "0x1.433b1c8cee5aap+7", "0x1.433b1c8cee5aap+7", "0x1.43a9d519b2edbp+7",
          "0x1.c007de547d6d2p-8")),
    ], ids=["b1", "b2", "b3"])
    def test_m_300_values_pinned_to_the_bit(self, case, pinned):
        # the M = 300 amplifier cases of the forms benchmark, recorded when each m took its two
        # character sums from two separate transforms
        n_scale, a_scale, b, l_scale, theta = case
        spec = FormSpec(300, n_scale, a_scale, theta=theta)
        gen = np.random.default_rng(np.random.SeedSequence([7, 7000 + b - 1]))  # the (b-1)-th case at seed 7
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        rep = amplifier_check(spec, AmplifierSpec(b, l_scale), beta, nu)
        assert tuple(x.hex() for x in (rep.c_b, rep.d_b, rep.d_b_direct, rep.diagonal, rep.ratio)) == pinned

    @pytest.mark.parametrize("case", [(32, 6, 1, 15.0, 1), (40, 8, 2, 16.0, -1), (24, 6, 3, 17.0, 1)],
                             ids=["b1", "b2", "b3"])
    def test_m_300_cases_match_the_per_m_oracle(self, case):
        # the oracle takes its character sums from one character group per m, ell- and n-sums apart
        n_scale, a_scale, b, l_scale, theta = case
        spec = FormSpec(300, n_scale, a_scale, theta=theta)
        amp = AmplifierSpec(b, l_scale)
        gen = np.random.default_rng(np.random.SeedSequence([7, 7000 + b - 1]))
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        c_b, d_b, d_direct, diag, min_p = per_m_amplifier(spec, amp, beta, nu)
        rep = amplifier_check(spec, amp, beta, nu)
        assert (rep.c_b, rep.d_b, rep.min_principal_count) == (c_b, d_b, min_p)
        assert rep.d_b_direct == pytest.approx(d_direct, rel=1e-12)
        assert rep.diagonal == pytest.approx(diag, rel=1e-12)

    def test_m_600_chain_and_forms_match(self):
        # the first rung of the M = 600-3000 amplifier ladder, past the scale the acceptance cases reach
        spec = FormSpec(600, 32, 6, theta=1)
        amp = AmplifierSpec(1, 18.0)
        gen = np.random.default_rng(600)
        beta = CoefficientVector.random_unit(spec.n_range, gen)
        nu = CoefficientVector.random_unit(spec.a_range, gen)
        rep = amplifier_check(spec, amp, beta, nu)
        assert rep.holds and rep.partition_ok and rep.forms_match
        assert rep.d_b == pytest.approx(rep.d_b_direct, rel=1e-12)


def scalar_compdiv(m_scale, n_scale, l_scale):
    """Oracle of the array pass: the five-deep scalar sweep over (ell1, n1, ell2, n2, m).
    Returns (tuples_checked, violations, bijection_ok)."""
    mrange = forms.DyadicRange(m_scale).members
    nrange = forms.DyadicRange(n_scale).members
    ells = AmplifierSpec(1, l_scale).primes
    cap = 3 * n_scale * l_scale / m_scale
    checked = 0
    violations = []
    bijection_ok = True
    for l1 in ells:
        for n1 in nrange:
            v1 = l1 * int(n1)
            for l2 in ells:
                for n2 in nrange:
                    diff = v1 - l2 * int(n2)
                    if diff == 0:
                        continue
                    seen_m = {}
                    for m in mrange:
                        m = int(m)
                        if diff % m != 0:
                            continue
                        checked += 1
                        d0 = diff // m
                        if d0 == 0 or m * d0 != diff:
                            violations.append((m, l1, int(n1), l2, int(n2), d0, "integrality"))
                            continue
                        if abs(d0) > cap:
                            violations.append((m, l1, int(n1), l2, int(n2), d0, "cap"))
                        if d0 in seen_m or diff // d0 != m:
                            bijection_ok = False
                        seen_m[d0] = m
    return checked, violations, bijection_ok


class TestComplementaryDivisor:
    @pytest.mark.parametrize("m_scale, n_scale, l_scale", [
        (16, 16, 4.0), (30, 20, 6.5), (64, 64, 8.0), (40, 100, 12.0), (100, 40, 10.0),
    ])
    def test_array_pass_matches_scalar_sweep(self, m_scale, n_scale, l_scale):
        rep = complementary_divisor_check(m_scale, n_scale, l_scale)
        checked, violations, bijection_ok = scalar_compdiv(m_scale, n_scale, l_scale)
        assert (rep.tuples_checked, rep.bijection_ok) == (checked, bijection_ok)
        assert sorted(rep.violations) == sorted(violations)

    def test_cap_violations_match_scalar_sweep(self, monkeypatch):
        # m from 1 instead of M/2: small m give |d0| beyond the cap, reported in sweep order
        class FromOne(DyadicRange):
            lo = 1

        monkeypatch.setattr(forms, "DyadicRange", FromOne)
        rep = complementary_divisor_check(12, 10, 4.0)
        checked, violations, bijection_ok = scalar_compdiv(12, 10, 4.0)
        assert violations and {v[-1] for v in violations} == {"cap"}
        assert (rep.tuples_checked, rep.bijection_ok) == (checked, bijection_ok)
        assert list(rep.violations) == violations

    def test_byte_cap_rejects_before_the_pass(self, monkeypatch):
        # (|M|, P*|N|) = (9, 2 * 9) entries a pass at M = N = 16, L = 4 (the primes 5 and 7)
        need = forms.COMPDIV_ENTRY_BYTES * 9 * 18
        monkeypatch.setattr(forms, "COMPDIV_BYTES", need)
        assert complementary_divisor_check(16, 16, 4.0).ok  # exactly at the cap
        monkeypatch.setattr(forms, "COMPDIV_BYTES", need - 1)
        with pytest.raises(ValueError, match=f"one pass over 162 \\(m, ell2, n2\\) entries would hold {need} bytes"):
            complementary_divisor_check(16, 16, 4.0)

    def test_hand_example(self):
        assert (23 - 3) // 10 == 2  # the arithmetic the sweep performs

    def test_small_sweep_clean(self):
        rep = complementary_divisor_check(16, 16, 4.0)
        assert rep.ok
        assert rep.cap == pytest.approx(3 * 16 * 4 / 16)
        assert rep.tuples_checked > 0

    def test_acceptance_scale(self):
        rep = complementary_divisor_check(64, 64, 8.0)
        assert rep.ok and not rep.violations


class TestScalingExperiment:
    def test_single_point(self):
        res = scaling_experiment([FormSpec(8, 8, 8)], restarts=2, iters=100, seed=0)
        assert len(res.records) == 1
        rec = res.records[0]
        assert rec.extremal <= rec.trivial
        assert res.fitted_exponent is None
