import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (apply_channel_dense, conjugated_channel, random_state,
                      raw_channel_specs, sample_form)
from bosonic_telesim import (BosonicTelesimError, CanonicalClass,
                             ClassificationAmbiguousError, GaussianChannel,
                             ValidationError, apply_channel, canonical_channel,
                             canonical_matrices, channel_from_dict, channel_rank,
                             channel_to_dict, classify, compose, form_from_fields,
                             thermal_state, tmsv_state, validate_channel)

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


def loss_channel(tau, nbar=0.0):
    return canonical_channel(form_from_fields(CanonicalClass.C_Att, tau=tau, nbar=nbar))


class TestValidate:
    def test_identity_is_valid(self):
        assert validate_channel(GaussianChannel.identity())

    def test_identity_with_extra_noise(self):
        assert validate_channel(GaussianChannel(I2, 0.5 * I2))

    def test_noiseless_erasure_is_invalid(self):
        # replacing the state without adding noise violates det N >= (det T - 1)^2
        assert not validate_channel(GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2))))

    def test_negative_noise_invalid(self):
        assert not validate_channel(GaussianChannel(I2, np.diag([1.0, -0.5])))


class TestApply:
    def test_pure_loss_fixed_point(self):
        out = apply_channel(loss_channel(0.5), thermal_state(1.0))
        assert np.allclose(out.cm, I2)

    def test_loss_on_thermal(self):
        out = apply_channel(loss_channel(0.5), thermal_state(3.0))
        assert np.allclose(out.cm, 2.0 * I2)

    def test_identity_on_tmsv(self):
        state = tmsv_state(2.0)
        for mode in (0, 1):
            out = apply_channel(GaussianChannel.identity(), state, target_mode=mode)
            assert np.array_equal(out.cm, state.cm)

    def test_acts_only_on_target_mode(self, rng):
        state = random_state(2, rng, displace=1.0)
        out = apply_channel(loss_channel(0.3, 1.0), state, target_mode=1)
        assert np.array_equal(out.cm[:2, :2], state.cm[:2, :2])
        assert np.array_equal(out.mean[:2], state.mean[:2])

    def test_displacement_moves_mean(self):
        ch = GaussianChannel(I2, np.zeros((2, 2)), [1.0, -2.0])
        out = apply_channel(ch, thermal_state(1.0))
        assert np.allclose(out.mean, [1.0, -2.0])

    def test_invalid_channel_rejected(self):
        bad = GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            apply_channel(bad, thermal_state(1.0))

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1, 0), (2, 0), (2, 1)]))
    @settings(max_examples=200, deadline=None)
    def test_equals_dense_embedding(self, seed, modes_target):
        modes, target = modes_target
        rng = np.random.default_rng(seed)
        ch = conjugated_channel(sample_form(rng), rng)
        state = random_state(modes, rng, nu_max=3.0, max_squeeze=4.0, displace=1.0)
        got, want = apply_channel(ch, state, target), apply_channel_dense(ch, state, target)
        assert np.array_equal(got.cm, want.cm) and np.array_equal(got.mean, want.mean)

    def test_validity_preserved_randomized(self, rng):
        for _ in range(200):
            ch = conjugated_channel(sample_form(rng), rng)
            state = random_state(1, rng, displace=1.0)
            out = apply_channel(ch, state)
            assert np.min(out.symplectic_spectrum()) >= 1.0 - 1e-9


class TestCompose:
    def test_identity_neutral(self, rng):
        ch = conjugated_channel(sample_form(rng), rng)
        out = compose(GaussianChannel.identity(), ch)
        assert np.allclose(out.t, ch.t)
        assert np.allclose(out.n, ch.n)
        assert np.allclose(out.d, ch.d)

    def test_two_pure_losses(self):
        out = compose(loss_channel(0.5), loss_channel(0.4))
        form = classify(out)
        assert form.tag is CanonicalClass.C_Att
        assert form.tau == pytest.approx(0.2)
        assert form.noise_param == pytest.approx(0.0, abs=1e-12)

    def test_additive_noises_add(self):
        b2 = lambda xi: canonical_channel(form_from_fields(CanonicalClass.B2, xi=xi))
        out = compose(b2(0.3), b2(0.5))
        form = classify(out)
        assert form.tag is CanonicalClass.B2
        assert form.noise_param == pytest.approx(0.8)

    def test_invalid_operand_rejected(self):
        bad = GaussianChannel(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            compose(bad, GaussianChannel.identity())
        with pytest.raises(ValidationError):
            compose(GaussianChannel.identity(), bad)

    def test_matches_sequential_application(self, rng):
        ch1 = conjugated_channel(sample_form(rng), rng)
        ch2 = conjugated_channel(sample_form(rng), rng)
        state = random_state(1, rng, displace=1.0)
        combined = apply_channel(compose(ch2, ch1), state)
        sequential = apply_channel(ch2, apply_channel(ch1, state))
        assert np.allclose(combined.cm, sequential.cm, atol=1e-12)
        assert np.allclose(combined.mean, sequential.mean, atol=1e-12)


class TestClassify:
    def test_attenuator(self):
        form = classify(GaussianChannel(np.sqrt(0.5) * I2, 0.5 * I2))
        assert form.tag is CanonicalClass.C_Att
        assert form.tau == pytest.approx(0.5)
        assert form.r == 2
        assert form.noise_param == pytest.approx(0.0, abs=1e-9)

    def test_unit_rank_noise(self):
        form = classify(GaussianChannel(I2, np.diag([0.0, 1.0])))
        assert form.tag is CanonicalClass.B1
        assert form.tau == pytest.approx(1.0)
        assert form.r == 1

    def test_identity(self):
        form = classify(GaussianChannel.identity())
        assert form.tag is CanonicalClass.B2_Id
        assert form.r == 0

    def test_ambiguous_near_singular(self):
        # det T ~ 0 yet both singular values above the rank threshold
        with pytest.raises(ClassificationAmbiguousError) as err:
            classify(GaussianChannel(np.diag([1e-6, 1e-6]), 2.0 * I2))
        assert "rank" in str(err.value)
        assert err.value.diagnostics["rank_t"] == 2

    def test_zero_tol_is_not_the_default(self):
        # 1e-11 is below the default rank threshold 1e-10, above 0
        ch = GaussianChannel(I2, np.diag([0.1, 1e-11]))
        assert classify(ch).tag is CanonicalClass.B1
        assert classify(ch, 0.0).tag is CanonicalClass.B2
        assert classify(ch, 0.0).noise_param == float(np.sqrt(np.linalg.det(ch.n)))

    def test_huge_noise_matrix_does_not_overflow(self):
        # det N = 1.96e616 is beyond float64; N is scaled by 2^-1024 first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            form = classify(channel_from_dict({"class": "A2", "nbar": 7e307}))
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert classify(channel_from_dict({"class": "A2", "nbar": 7e307})) == form
        assert form.tag is CanonicalClass.A2
        assert abs(form.noise_param - 7e307) <= 4 * math.ulp(7e307)

    def test_huge_noise_matrix_with_finite_det_keeps_numpy_det(self):
        # max|N| beyond 2^511 but det N = 1e308 finite: numpy's det, unscaled
        n = np.diag([1e158, 1e150])
        form = classify(GaussianChannel(np.diag([1.0, 0.0]), n))
        assert form.tag is CanonicalClass.A2
        assert form.noise_param == 0.5 * (float(np.sqrt(np.linalg.det(n))) - 1.0)

    def test_roundtrip_all_classes(self, rng):
        for _ in range(30):
            form = sample_form(rng)
            back = classify(canonical_channel(form))
            assert back.tag is form.tag
            assert back.tau == pytest.approx(form.tau, abs=1e-9)
            assert back.r == form.r
            assert back.noise_param == pytest.approx(form.noise_param, abs=1e-9)

    def test_invariant_under_conjugation(self, rng):
        for _ in range(50):
            form = sample_form(rng)
            ch = conjugated_channel(form, rng)
            back = classify(ch)
            assert back.tag is form.tag
            assert back.tau == pytest.approx(form.tau, rel=1e-8, abs=1e-8)
            assert back.r == form.r
            assert back.noise_param == pytest.approx(form.noise_param, rel=1e-7, abs=1e-7)


class TestCanonicalMatrices:
    def test_attenuator(self):
        t_c, n_c = canonical_matrices(form_from_fields(CanonicalClass.C_Att, tau=0.5))
        assert np.allclose(t_c, np.sqrt(0.5) * I2)
        assert np.allclose(n_c, 0.5 * I2)

    def test_measure_and_prepare(self):
        t_c, n_c = canonical_matrices(form_from_fields(CanonicalClass.A1, nbar=1.0))
        assert np.array_equal(t_c, np.zeros((2, 2)))
        assert np.allclose(n_c, 3.0 * I2)

    def test_conjugate_amplifier(self):
        t_c, n_c = canonical_matrices(form_from_fields(CanonicalClass.D, tau=-1.0))
        assert np.allclose(t_c, Z2)
        assert np.allclose(n_c, 2.0 * I2)


class TestChannelRank:
    def test_identity(self):
        assert channel_rank(GaussianChannel.identity()) == 0.0

    def test_unit_rank(self):
        assert channel_rank(GaussianChannel(I2, np.diag([0.0, 1.0]))) == 1.0

    def test_full_rank_classes(self, rng):
        for tag in (CanonicalClass.C_Att, CanonicalClass.C_Amp, CanonicalClass.D):
            form = sample_form(rng)
            while form.tag is not tag:
                form = sample_form(rng)
            assert channel_rank(canonical_channel(form)) == 2.0


class TestJsonSpec:
    def test_raw_roundtrip(self, rng):
        ch = conjugated_channel(sample_form(rng), rng)
        back = channel_from_dict(channel_to_dict(ch))
        assert np.array_equal(back.t, ch.t)
        assert np.array_equal(back.n, ch.n)
        assert np.array_equal(back.d, ch.d)

    def test_canonical_specs(self):
        ch = channel_from_dict({"class": "C_Att", "tau": 0.5, "nbar": 0.0})
        assert classify(ch).tag is CanonicalClass.C_Att
        ch = channel_from_dict({"class": "B2", "xi": 0.1})
        form = classify(ch)
        assert form.tag is CanonicalClass.B2
        assert form.noise_param == pytest.approx(0.1)

    def test_strict_keys(self):
        with pytest.raises(ValidationError):
            channel_from_dict({"class": "B2", "xi": 0.1, "bogus": 1})
        with pytest.raises(ValidationError):
            channel_from_dict({"class": "C_Att", "tau": 0.5, "xi": 0.1})
        with pytest.raises(ValidationError):
            channel_from_dict({"t": [[1, 0], [0, 1]]})

    def test_unknown_class(self):
        with pytest.raises(ValidationError):
            channel_from_dict({"class": "E9"})

    @given(raw_channel_specs)
    @settings(max_examples=500, deadline=None)
    def test_raw_spec_fuzz(self, spec):
        # finite input builds a finite channel or raises a package error, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ch = channel_from_dict(spec)
            except BosonicTelesimError:
                return
            assert np.isfinite(ch.t).all() and np.isfinite(ch.n).all()
            validate_channel(ch)
