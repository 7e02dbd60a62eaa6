"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criterion 8c checks that the strong-converse bound approaches phi as n grows
through the documented correction sqrt(V / (n (1 - eps))) + C(eps)/n.  It
pins the exact gap at n = 1e9, V = 1, eps = 0.1 (3.33e-5), the n^(-1/2) rate,
and where a 1e-6 gap is reached.  A 1e-6 gap at n = 1e9, V = 1 cannot hold:
the exact correction there is 3.33e-5, and with V = 1, eps = 0.1 it first
drops below 1e-6 near n = 1.1e12 (with V = 0 it is already 3.2e-9 at n = 1e9).
"""

import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

from _helpers import (conjugated_channel, loglog_slope, random_state, random_symplectic,
                      sample_form)
from bosonic_telesim import (CanonicalClass, GaussianChannel, apply_affine,
                             apply_channel, apply_via_dilation, asymptotic_b2, b1_gamma,
                             b1_witness_bound, bk_added_noise, c_epsilon,
                             canonical_channel, canonical_matrices, classify,
                             decide_uniform, diamond_upper_bound, dilation_of,
                             environmental_pair, fid_env_A2, fid_env_C,
                             fid_output_identity, form_from_fields, fuchs_vdg,
                             gaussian_fidelity, nonuniform_witness, partial_trace,
                             peel_bound, phi_amp, phi_loss, simulate_channel,
                             strong_converse_bound, symplectic_eigenvalues,
                             symplectic_form, tensor_states, tmsv_state, two_round_demo,
                             williamson)

I2 = np.eye(2)

TABLE_ROWS = [
    form_from_fields(CanonicalClass.A1, nbar=0.5),
    form_from_fields(CanonicalClass.A2, nbar=1.0),
    form_from_fields(CanonicalClass.B1),
    form_from_fields(CanonicalClass.B2, xi=0.7),
    form_from_fields(CanonicalClass.B2_Id),
    form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.3),
    form_from_fields(CanonicalClass.C_Amp, tau=2.0, nbar=0.4),
    form_from_fields(CanonicalClass.D, tau=-1.5, nbar=0.2),
]


@contextlib.contextmanager
def criterion(tag, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception as exc:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion {tag}: FAIL ({elapsed:.2f}s) {exc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {tag}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"


def test_01_classification_completeness():
    with criterion("01 classification", 1.0):
        for form in TABLE_ROWS:
            back = classify(canonical_channel(form))
            assert back.tag is form.tag
            assert back.tau == pytest.approx(form.tau, abs=1e-9)
            assert back.r == form.r
            assert back.noise_param == pytest.approx(form.noise_param, abs=1e-9)
        rng = np.random.default_rng(11)
        for _ in range(500):
            classify(conjugated_channel(sample_form(rng), rng))


def test_02_dilation_equivalence():
    with criterion("02 dilation equivalence", 5.0):
        rng = np.random.default_rng(22)
        forms = [form_from_fields(CanonicalClass.A2, nbar=0.8),
                 form_from_fields(CanonicalClass.B1),
                 form_from_fields(CanonicalClass.C_Att, tau=0.35, nbar=0.6),
                 form_from_fields(CanonicalClass.C_Amp, tau=2.4, nbar=0.9),
                 form_from_fields(CanonicalClass.D, tau=-1.2, nbar=0.5)]
        for form in forms:
            dil = dilation_of(form)
            ch = canonical_channel(form)
            for _ in range(200):
                state = random_state(1, rng, displace=1.0)
                via = apply_via_dilation(dil, state)
                direct = apply_channel(ch, state)
                assert np.max(np.abs(via.cm - direct.cm)) <= 1e-10
                assert np.max(np.abs(via.mean - direct.mean)) <= 1e-10
        xi_prime = 0.4
        dil = asymptotic_b2(xi_prime, 1.0 - 1e-6)
        additive = canonical_channel(form_from_fields(CanonicalClass.B2, xi=xi_prime))
        for _ in range(200):
            state = random_state(1, rng, nu_max=2.0, max_squeeze=1.4, displace=1.0)
            via = apply_via_dilation(dil, state)
            direct = apply_channel(additive, state)
            assert np.max(np.abs(via.cm - direct.cm)) <= 1e-5
            assert np.max(np.abs(via.mean - direct.mean)) <= 1e-5


def test_03_closed_form_fidelity_agreement():
    with criterion("03 closed-form fidelities", 10.0):
        rng = np.random.default_rng(33)
        for _ in range(200):
            # the environmental pairs of C_Att, C_Amp, D and A2: bit for bit
            nbar, mu, r = rng.uniform(0, 2.5), rng.uniform(1, 10), rng.uniform(0.5, 2)
            xi, omega = bk_added_noise(mu), 2.0 * nbar + 1.0
            a, c = rng.normal(), rng.normal()
            for tag, tau in ((CanonicalClass.C_Att, rng.uniform(0.05, 0.95)),
                             (CanonicalClass.C_Amp, rng.uniform(1.05, 4)),
                             (CanonicalClass.D, -rng.uniform(0.05, 4)),
                             (CanonicalClass.A2, None)):
                form = form_from_fields(tag, tau=tau, nbar=nbar)
                closed = (fid_env_A2(xi, omega, a, c) if tau is None
                          else fid_env_C(xi * (abs(tau) / abs(1.0 - tau)), omega, r))
                pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
                assert closed == gaussian_fidelity(pair.rho_e, pair.rho_e_mu)
            mu, mu_tilde = rng.uniform(1, 100), rng.uniform(1, 10)
            ideal = tmsv_state(mu_tilde)
            out = apply_channel(simulate_channel(
                GaussianChannel.identity(), mu).effective, ideal, target_mode=1)
            assert fid_output_identity(mu_tilde, mu) == pytest.approx(
                gaussian_fidelity(out, ideal), abs=1e-9)


def test_04_uniform_convergence_quantitative():
    with criterion("04 uniform-convergence bound", 1.0):
        ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.0))
        grid = np.geomspace(1.1, 1e6, 30)
        bounds = [diamond_upper_bound(ch, mu) for mu in grid]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert diamond_upper_bound(ch, 1e5) <= 2e-2


def test_05_unit_rank_witness():
    with criterion("05 unit-rank-noise witness", 5.0):
        for a, c, mu in ((1.0, 0.0, 1.25), (1.0, 1.0, 2.0)):
            muts = np.geomspace(1e3, 1e7, 9)
            fs = [1.0 - b1_witness_bound(mu, m, a, c) / 2.0 for m in muts]
            assert loglog_slope(muts, fs) == pytest.approx(-0.25, abs=0.03)
            f_top = 1.0 - b1_witness_bound(mu, 1e7, a, c) / 2.0
            gamma = b1_gamma(a, c, bk_added_noise(mu))
            assert f_top ** 4 * 1e7 == pytest.approx(gamma, rel=1e-2)


def test_06_nonuniform_convergence_witness():
    with criterion("06 nonuniform witness", 1.0):
        assert nonuniform_witness(5.0, 1e6) >= 1.99
        muts = np.geomspace(1e2, 1e6, 9)
        gaps = [2.0 - nonuniform_witness(5.0, m) for m in muts]
        assert loglog_slope(muts, gaps) == pytest.approx(-0.5, abs=0.05)


def test_07_order_of_limits():
    with criterion("07 order of limits", 2.0):
        mus = np.geomspace(1e5, 1e8, 9)
        gaps = [1.0 - fid_output_identity(1e3, m) for m in mus]
        assert loglog_slope(mus, gaps) == pytest.approx(-1.0, abs=0.05)
        muts = np.geomspace(1e6, 1e9, 9)
        fs = [fid_output_identity(m, 1e3) for m in muts]
        assert loglog_slope(muts, fs) == pytest.approx(-0.5, abs=0.05)
        assert fid_output_identity(1e9, 1e3) <= 1e-2   # inner input limit -> 0
        assert 1.0 - fid_output_identity(1e3, 1e9) <= 1e-2  # inner resource limit -> 1


def test_08a_pure_loss_identity():
    with criterion("08a pure-loss identity", 1.0):
        for tau in np.linspace(0.01, 0.99, 100):
            assert abs(phi_loss(tau, 0.0).value + np.log2(1.0 - tau)) <= 1e-12


def test_08b_threshold_zeros_exact():
    with criterion("08b threshold zeros", 1.0):
        for tau in np.linspace(0.1, 0.9, 17):
            report = phi_loss(tau, tau / (1.0 - tau))
            assert report.value == 0.0 and report.threshold_active
        for tau in np.linspace(1.1, 4.0, 17):
            report = phi_amp(tau, 1.0 / (tau - 1.0))
            assert report.value == 0.0 and report.threshold_active


def test_08c_strong_converse_limit():
    """The finite-size gap phi_n - phi equals the documented correction
    sqrt(V / (n (1 - eps))) + C(eps)/n, decays as n^(-1/2), and falls below
    1e-6 only where that correction allows: between n = 1e12 and 2e12 for
    V = 1, eps = 0.1, or already at n = 1e9 for V = 0.  A 1e-6 gap at
    n = 1e9, V = 1 cannot hold, since the exact correction there is 3.33e-5;
    the exact value is asserted instead, so that figure stays visible."""
    with criterion("08c strong-converse gap", 1.0):
        phi, v, eps = 1.0, 1.0, 0.1

        def gap(n, v=v):
            return strong_converse_bound(phi, v, n, eps) - phi

        n = 10 ** 9
        correction = math.sqrt(v / (n * (1.0 - eps))) + c_epsilon(eps) / n
        assert gap(n) == pytest.approx(correction, rel=1e-10)
        assert gap(10 ** 12) > 1e-6 > gap(2 * 10 ** 12)
        assert gap(n, v=0.0) < 1e-6
        ns = [10 ** k for k in range(6, 13)]
        assert loglog_slope(ns, [gap(n) for n in ns]) == pytest.approx(-0.5, abs=0.01)


def test_09_peeling():
    with criterion("09 peeling", 10.0):
        rng = np.random.default_rng(99)
        for _ in range(100):
            kind = rng.choice(["att", "amp", "conj", "add"])
            if kind == "att":
                form = form_from_fields(CanonicalClass.C_Att,
                                        tau=rng.uniform(0.1, 0.9),
                                        nbar=rng.uniform(0.0, 1.5))
            elif kind == "amp":
                form = form_from_fields(CanonicalClass.C_Amp,
                                        tau=rng.uniform(1.1, 3.0),
                                        nbar=rng.uniform(0.0, 1.5))
            elif kind == "conj":
                form = form_from_fields(CanonicalClass.D,
                                        tau=-rng.uniform(0.1, 3.0),
                                        nbar=rng.uniform(0.0, 1.5))
            else:
                form = form_from_fields(CanonicalClass.B2, xi=rng.uniform(0.05, 1.5))
            report = two_round_demo(canonical_channel(form), rng.uniform(2.0, 1e4),
                                    lo_cc_squeeze=rng.uniform(0.0, 0.8))
            assert report.holds and report.trace_upper_bound <= report.peel_total
        for _ in range(200):
            n = int(rng.integers(1, 10 ** 6))
            delta = float(rng.uniform(0.0, 2.0))
            assert peel_bound(n, delta, "uniform").total == n * peel_bound(
                1, delta, "uniform").total


def test_10_property_suites():
    with criterion("10 property suites", 60.0):
        rng = np.random.default_rng(1010)

        # symplectic residuals and Williamson reconstruction, 1000 draws
        for _ in range(200):
            n = int(rng.integers(1, 3))
            s = random_symplectic(n, rng)
            om = symplectic_form(n)
            assert np.max(np.abs(s @ om @ s.T - om)) <= 1e-10
        for _ in range(1000):
            n = int(rng.integers(1, 3))
            cm = random_state(n, rng).cm
            dec = williamson(cm)
            resid = np.max(np.abs(dec.s.s @ cm @ dec.s.s.T - dec.diagonal()))
            assert resid <= 1e-9
            assert np.prod(dec.spectrum) == pytest.approx(
                np.sqrt(np.linalg.det(cm)), rel=1e-9)

        # CM validity preserved by affine maps, channels and partial traces
        for _ in range(1000):
            ch = conjugated_channel(sample_form(rng), rng)
            state = random_state(1, rng, displace=1.0)
            assert np.min(apply_channel(ch, state).symplectic_spectrum()) >= 1 - 1e-9
        for _ in range(200):
            state = random_state(2, rng, displace=1.0)
            moved = apply_affine(state, random_symplectic(2, rng), rng.normal(size=4))
            assert np.min(moved.symplectic_spectrum()) >= 1.0 - 1e-9
            red = partial_trace(state, int(rng.integers(0, 2)))
            assert np.min(red.symplectic_spectrum()) >= 1.0 - 1e-9

        # classification invariants and the rank verdict under conjugation
        for _ in range(500):
            form = sample_form(rng)
            ch = conjugated_channel(form, rng)
            back = classify(ch)
            assert (back.tag, back.r) == (form.tag, form.r)
            assert back.tau == pytest.approx(form.tau, rel=1e-8, abs=1e-8)
            assert back.noise_param == pytest.approx(form.noise_param, rel=1e-7, abs=1e-7)
            expected = form.tag not in (CanonicalClass.B1, CanonicalClass.B2_Id)
            assert decide_uniform(ch).uniform is expected

        # fidelity: multiplicativity, unitary invariance, monotonicity
        for _ in range(200):
            a1, b1_ = random_state(1, rng, displace=1.0), random_state(1, rng, displace=1.0)
            a2, b2_ = random_state(1, rng, displace=1.0), random_state(1, rng, displace=1.0)
            f_split = gaussian_fidelity(a1, b1_) * gaussian_fidelity(a2, b2_)
            assert gaussian_fidelity(tensor_states(a1, a2), tensor_states(b1_, b2_)) \
                == pytest.approx(f_split, rel=1e-9)
            s1, s2 = tensor_states(a1, a2), tensor_states(b1_, b2_)
            s, d = random_symplectic(2, rng), rng.normal(size=4)
            f_joint = gaussian_fidelity(s1, s2)
            assert gaussian_fidelity(apply_affine(s1, s, d), apply_affine(s2, s, d)) \
                == pytest.approx(f_joint, rel=1e-9)
            keep = int(rng.integers(0, 2))
            assert gaussian_fidelity(partial_trace(s1, keep),
                                     partial_trace(s2, keep)) >= f_joint - 1e-10
            pair = fuchs_vdg(gaussian_fidelity(a1, b1_))
            assert 0.0 <= pair.lower <= pair.upper <= 2.0

        # teleportation noise: monotone, range, exact noise shift, rank law
        mus = np.geomspace(1.0, 1e6, 200)
        xis = np.array([bk_added_noise(m) for m in mus])
        assert np.all(np.diff(xis) < 0) and xis[0] == 2.0 and np.all(xis > 0)
        assert abs(bk_added_noise(1e4) * 1e4 - 1.0) <= 1e-6
        for _ in range(100):
            base = conjugated_channel(sample_form(rng), rng)
            sim = simulate_channel(base, rng.uniform(1.0, 1e4))
            assert np.max(np.abs(sim.effective.n - base.n
                                 - sim.params.xi * base.t @ base.t.T)) <= 1e-12
        for form in TABLE_ROWS:
            eff = simulate_channel(canonical_channel(form), 4.0).effective
            rank_before = np.linalg.matrix_rank(canonical_channel(form).n, tol=1e-12)
            rank_after = np.linalg.matrix_rank(eff.n, tol=1e-12)
            if rank_before == 2:
                assert rank_after == 2
            if form.tag in (CanonicalClass.B1, CanonicalClass.B2_Id):
                assert rank_after > rank_before

        # shared dilation with the broadened environment reproduces the
        # simulated map (the full-rank, tau != 1 classes)
        for tag, params in ((CanonicalClass.C_Att, {"tau": 0.4, "nbar": 0.6}),
                            (CanonicalClass.C_Amp, {"tau": 1.8, "nbar": 0.3}),
                            (CanonicalClass.D, {"tau": -0.7, "nbar": 0.5}),
                            (CanonicalClass.A2, {"nbar": 0.8})):
            form = form_from_fields(tag, **params)
            mu, r, a, c = 6.0, 1.2, 0.9, 0.5
            xi = bk_added_noise(mu)
            s_a = (np.array([[a, c], [0.3, (1 + 0.3 * c) / a]])
                   if tag is CanonicalClass.A2 else np.diag([r, 1 / r]))
            t_c, n_c = canonical_matrices(form)
            effective = GaussianChannel(t_c, n_c + xi * t_c @ s_a @ s_a.T @ t_c.T)
            pair = environmental_pair(form, mu, squeeze_r=r, a=a, c=c)
            dil = dataclasses.replace(dilation_of(form), env=pair.rho_e_mu)
            for _ in range(50):
                state = random_state(1, rng, displace=1.0)
                assert np.max(np.abs(apply_via_dilation(dil, state).cm
                                     - apply_channel(effective, state).cm)) <= 1e-9
            nu = symplectic_eigenvalues(pair.rho_e_mu.cm)[0]
            assert nu >= 1.0 - 1e-12

        # rank criterion against the decision procedure, and bound decay
        for form in TABLE_ROWS:
            expected = form.tag not in (CanonicalClass.B1, CanonicalClass.B2_Id)
            assert decide_uniform(canonical_channel(form)).uniform is expected
        for omega_nbar, r in (((10.0 - 1) / 2, 2.0), (0.0, 1.0), (1.0, 0.5)):
            ch = canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=0.5,
                                                    nbar=omega_nbar))
            grid = np.geomspace(1.1, 1e6, 15)
            bounds = [diamond_upper_bound(ch, mu, r=r) for mu in grid]
            assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
            assert diamond_upper_bound(ch, 1e5, r=r) <= 1e-2

        # no uniform-bound decay can exist for the rank-deficient classes
        for mu in (1.25, 5.0, 50.0):
            assert nonuniform_witness(mu, 1e6) >= 1.9
        assert b1_witness_bound(1.25, 1e6) >= 1.9
