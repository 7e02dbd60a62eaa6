import dataclasses

import numpy as np
import pytest

from _helpers import random_state
from bosonic_telesim import (CanonicalClass, DomainError, GaussianState,
                             UnsupportedFormError, apply_channel, apply_via_dilation,
                             asymptotic_b2, canonical_channel, canonical_matrices,
                             dilation_of, form_from_fields, is_symplectic, thermal_state)

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])

NON_ADDITIVE = [
    form_from_fields(CanonicalClass.A1, nbar=0.7),
    form_from_fields(CanonicalClass.A2, nbar=1.3),
    form_from_fields(CanonicalClass.B1),
    form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.4),
    form_from_fields(CanonicalClass.C_Amp, tau=2.5, nbar=0.9),
    form_from_fields(CanonicalClass.D, tau=-1.4, nbar=0.2),
]


class TestDilationMatrices:
    def test_beam_splitter(self):
        dil = dilation_of(form_from_fields(CanonicalClass.C_Att, tau=0.5))
        c = np.sqrt(0.5)
        expected = np.block([[c * I2, c * I2], [-c * I2, c * I2]])
        assert np.allclose(dil.m.s, expected)

    def test_amplifier_conjugate(self):
        dil = dilation_of(form_from_fields(CanonicalClass.D, tau=-1.0))
        expected = np.block([[Z2, np.sqrt(2.0) * I2],
                             [-np.sqrt(2.0) * I2, -Z2]])
        assert np.allclose(dil.m.s, expected)

    def test_unit_rank_noise_blocks(self):
        # m2 must square to N_c = diag(0, 1); the mirrored layout would place
        # the unit of noise on the q quadrature instead
        dil = dilation_of(form_from_fields(CanonicalClass.B1))
        assert np.allclose(dil.m1, I2)
        assert np.allclose(dil.m2, np.diag([0.0, 1.0]))
        assert np.allclose(dil.m2 @ dil.m2.T, np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("form", NON_ADDITIVE, ids=lambda f: f.tag.value)
    def test_symplectic_and_block_relations(self, form):
        dil = dilation_of(form)
        assert is_symplectic(dil.m.s, 1e-12)
        t_c, n_c = canonical_matrices(form)
        omega_env = 2.0 * form.noise_param + 1.0
        assert np.max(np.abs(dil.m1.T - t_c)) <= 1e-12
        assert np.max(np.abs(dil.m2 @ dil.m2.T * omega_env - n_c)) <= 1e-12
        assert np.allclose(dil.env.cm, omega_env * I2)

    @pytest.mark.parametrize("tag, tau, nbar", [
        (CanonicalClass.C_Amp, 1e3, 5.0),
        (CanonicalClass.D, -1e3, 5.0),
        (CanonicalClass.C_Att, 0.3, 1e5),
        (CanonicalClass.C_Amp, 1e5, 0.0),
    ])
    def test_large_gain_or_noise(self, tag, tau, nbar, rng):
        # the self-checks scale with the blocks, so these valid forms dilate
        form = form_from_fields(tag, tau=tau, nbar=nbar)
        dil = dilation_of(form)
        ch = canonical_channel(form)
        for _ in range(20):
            state = random_state(1, rng, displace=1.0)
            via = apply_via_dilation(dil, state)
            direct = apply_channel(ch, state)
            scale = np.max(np.abs(direct.cm))
            assert np.max(np.abs(via.cm - direct.cm)) <= 1e-12 * scale
            assert np.max(np.abs(via.mean - direct.mean)) <= 1e-12 * scale

    def test_additive_forms_rejected(self):
        for tag in (CanonicalClass.B2, CanonicalClass.B2_Id):
            form = (form_from_fields(tag, xi=0.5) if tag is CanonicalClass.B2
                    else form_from_fields(tag))
            with pytest.raises(UnsupportedFormError):
                dilation_of(form)


class TestApplyViaDilation:
    @pytest.mark.parametrize("form", NON_ADDITIVE, ids=lambda f: f.tag.value)
    def test_matches_direct_map(self, form, rng):
        dil = dilation_of(form)
        ch = canonical_channel(form)
        for _ in range(40):
            state = random_state(1, rng, displace=1.0)
            via = apply_via_dilation(dil, state)
            direct = apply_channel(ch, state)
            assert np.max(np.abs(via.cm - direct.cm)) <= 1e-10
            assert np.max(np.abs(via.mean - direct.mean)) <= 1e-10

    def test_swap_with_vacuum_environment(self):
        dil = dilation_of(form_from_fields(CanonicalClass.A1, nbar=0.0))
        out = apply_via_dilation(dil, thermal_state(5.0))
        assert np.allclose(out.cm, I2)

    def test_unit_rank_noise_on_vacuum(self):
        dil = dilation_of(form_from_fields(CanonicalClass.B1))
        out = apply_via_dilation(dil, GaussianState.vacuum())
        assert np.allclose(out.cm, I2 + np.diag([0.0, 1.0]))

    def test_two_mode_input_rejected(self):
        from bosonic_telesim import InvalidDimensionError, tmsv_state
        dil = dilation_of(form_from_fields(CanonicalClass.C_Att, tau=0.5))
        with pytest.raises(InvalidDimensionError):
            apply_via_dilation(dil, tmsv_state(2.0))

    def test_custom_environment(self, rng):
        # swapping the environment replaces the channel's noise source
        form = form_from_fields(CanonicalClass.C_Att, tau=0.5, nbar=0.0)
        dil = dataclasses.replace(dilation_of(form), env=thermal_state(3.0))
        out = apply_via_dilation(dil, GaussianState.vacuum())
        assert np.allclose(out.cm, 0.5 * I2 + 0.5 * 3.0 * I2)

    def test_blocks_are_m1_and_m2_only(self):
        dil = dilation_of(form_from_fields(CanonicalClass.C_Att, tau=0.5))
        assert np.array_equal(dil.m1, dil.m.s[:2, :2])
        assert np.array_equal(dil.m2, dil.m.s[:2, 2:])
        assert not hasattr(dil, "m3") and not hasattr(dil, "m4")


class TestAsymptoticB2:
    def test_environment_variance(self):
        dil = asymptotic_b2(0.1, 0.99)
        assert np.allclose(dil.env.cm, 10.0 * I2)
        assert np.max(np.abs(dil.m1 - I2)) <= 1.0 - np.sqrt(0.99) + 1e-12

    def test_vacuum_boundary(self):
        dil = asymptotic_b2(0.01, 0.99)
        assert np.allclose(dil.env.cm, I2)

    def test_below_boundary_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_b2(0.005, 0.99)  # environment would dip below vacuum

    def test_matches_additive_map_near_transparency(self, rng):
        # the CM deviation is exactly (1 - tau) V, so keep |V| below 10
        xi_prime = 0.3
        dil = asymptotic_b2(xi_prime, 1.0 - 1e-6)
        additive = canonical_channel(form_from_fields(CanonicalClass.B2, xi=xi_prime))
        for _ in range(40):
            state = random_state(1, rng, nu_max=2.0, max_squeeze=1.4, displace=1.0)
            via = apply_via_dilation(dil, state)
            direct = apply_channel(additive, state)
            assert np.max(np.abs(via.cm - direct.cm)) <= 1e-5
            assert np.max(np.abs(via.mean - direct.mean)) <= 1e-5

    def test_noise_matches_exactly(self):
        # T = sqrt(tau) I and N = xi' I hold at any tau, not only in the limit
        xi_prime, tau = 0.2, 0.9
        dil = asymptotic_b2(xi_prime, tau)
        out = apply_via_dilation(dil, GaussianState.vacuum())
        assert np.allclose(out.cm, (tau + xi_prime) * I2, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
    def test_beam_splitter_is_the_c_att_dilation(self, tau):
        # the same matrix, bit for bit, as the C_Att dilation at that tau
        dil = asymptotic_b2(1.0 - tau, tau)
        c_att = dilation_of(form_from_fields(CanonicalClass.C_Att, tau=tau))
        assert np.array_equal(dil.m.s, c_att.m.s)
        assert np.array_equal(dil.m.s[:2, :2], np.sqrt(tau) * I2)
        assert np.array_equal(dil.m.s[:2, 2:], np.sqrt(1.0 - tau) * I2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            asymptotic_b2(0.1, 1.0)
        with pytest.raises(DomainError):
            asymptotic_b2(-0.1, 0.9)
